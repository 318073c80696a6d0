//! The analyzer's front end: one reading of the workspace, shared by every
//! pass.
//!
//! Each `.rs` file is read once and lexed once ([`SrcFile::parse`] is the
//! only caller of [`lexer::lex`]), and everything a pass may ask about the
//! text is answered from that one token stream:
//!
//! * the **token trees** ([`SrcFile::trees`], [`SrcFile::each_pos`]);
//! * a **line table**: the code and the `//` comment of each line, and the
//!   one justification walk ([`SrcFile::justification`]) behind `// SAFETY:`,
//!   `// ordering:`, `// lock-order:` and `// race:`;
//! * the **test-only spans**, decided by the `#[cfg(..)]` predicate's tokens:
//!   an item is test-only when its predicate names `test` outside every
//!   `not(..)`, so `#[cfg(not(any(test, miri)))]` is production code;
//! * the **item index**: every struct with its attributes, doc text and
//!   fields ([`SrcFile::structs`]), every non-test `static`
//!   ([`SrcFile::statics`]) and `unsafe impl Send/Sync` target
//!   ([`SrcFile::unsafe_sync`]), and every non-test fn with its owner,
//!   visibility, signature and body trees ([`SrcFile::fns`]).

use std::path::{Path, PathBuf};

use crate::lexer::{self, render_type, until_brace, Group, Tok, TokKind, Tree};

/// Every analyzable file of the workspace, parsed.
pub struct Source {
    pub files: Vec<SrcFile>,
    /// Wall time [`Source::parse`] took, for the report's timing rows.
    pub parse_time: std::time::Duration,
}

/// One parsed source file.
pub struct SrcFile {
    /// Repo-relative path with `/` separators (stable across OSes, used in
    /// findings and the lock files).
    pub rel: String,
    /// Crate directory name (`vhistory` for `crates/vhistory/…`, else `root`).
    pub krate: String,
    src: String,
    pub trees: Vec<Tree>,
    /// Byte offset at which each line starts.
    line_starts: Vec<usize>,
    /// `(line, byte offset)` of each `//` comment, in line order.
    comments: Vec<(u32, usize)>,
    /// Byte spans of test-only items, attribute through closing brace.
    test_spans: Vec<(usize, usize)>,
    pub structs: Vec<StructItem>,
    /// Non-test `static` items, `thread_local!` ones included.
    pub statics: Vec<StaticItem>,
    /// Target types of non-test `unsafe impl Send/Sync for X`.
    pub unsafe_sync: Vec<String>,
}

/// One `static [mut] NAME: Type`.
pub struct StaticItem {
    pub name: String,
    pub line: u32,
    /// Canonical type string, like a struct field's.
    pub ty: String,
    pub is_mut: bool,
    /// Declared inside `thread_local! { … }`.
    pub tls: bool,
}

/// One struct definition.
pub struct StructItem {
    pub name: String,
    /// Repo-relative path and crate of the defining file.
    pub file: String,
    pub krate: String,
    pub line: u32,
    /// Raw contents of `repr(…)` attributes, e.g. `["C"]`, `["transparent"]`.
    pub reprs: Vec<String>,
    /// Generic parameter names (lifetimes excluded), e.g. `["T"]`.
    pub generics: Vec<String>,
    /// `(field name, canonical type string)` in declaration order. Tuple
    /// struct fields are named `0`, `1`, ….
    pub fields: Vec<(String, String)>,
    /// Uppercase-initial identifiers appearing in field types (candidate
    /// workspace type references for transitive discovery).
    pub referenced: Vec<String>,
    /// The struct's doc comment, where passes look for their markers
    /// (`pm-resident`, `expects-crc`, `pm-layout-exempt(…)`).
    pub docs: String,
    pub test_only: bool,
}

/// One non-test `fn` with a body.
pub struct FnItem<'a> {
    pub name: &'a str,
    /// The `impl`/`trait` type this fn is defined on, when any.
    pub owner: Option<&'a str>,
    pub is_pub: bool,
    /// Source line of the `fn` keyword.
    pub line: u32,
    /// The trees between the name and the body: generics, parameters,
    /// return type, `where` clause.
    pub sig: &'a [Tree],
    pub body: &'a Group,
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// Recursively lists `.rs` files under `dir`, skipping build output and
/// vendored stubs. Sorted for deterministic reports.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return out };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = path.file_name().unwrap_or_default();
            if name == "target" || name == "vendor" {
                continue;
            }
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// `(repo-relative path, text)` of every analyzable `.rs` file under
/// `crates/` and `src/`. `crates/xtask` itself is excluded: the analyzer's
/// sources are full of the very patterns it searches for (fixture snippets,
/// marker constants) and are covered by its own unit tests instead.
pub fn read_workspace(root: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for dir in ["crates", "src"] {
        for path in rust_files(&root.join(dir)) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            if rel.starts_with("crates/xtask/") {
                continue;
            }
            let Ok(src) = std::fs::read_to_string(&path) else { continue };
            out.push((rel, src));
        }
    }
    out
}

impl Source {
    pub fn load(root: &Path) -> Source {
        Source::parse(read_workspace(root))
    }

    pub fn parse(files: Vec<(String, String)>) -> Source {
        let t0 = std::time::Instant::now();
        let files = files.into_iter().map(|(rel, src)| SrcFile::parse(rel, src)).collect();
        Source { files, parse_time: t0.elapsed() }
    }

    /// A workspace of string literals that lives as long as the test run,
    /// so fixtures can hand out `Workspace<'static>`.
    #[cfg(test)]
    pub fn fixture(files: &[(&str, &str)]) -> &'static Source {
        let files = files.iter().map(|(rel, src)| (rel.to_string(), src.to_string())).collect();
        Box::leak(Box::new(Source::parse(files)))
    }

    /// The files whose path starts with any of `dirs`.
    pub fn in_dirs<'a>(&'a self, dirs: &'a [&str]) -> impl Iterator<Item = &'a SrcFile> {
        self.files.iter().filter(move |f| dirs.iter().any(|d| f.rel.starts_with(d)))
    }
}

impl SrcFile {
    pub fn parse(rel: String, src: String) -> SrcFile {
        #[cfg(test)]
        tests::LEX_CALLS.with(|c| c.set(c.get() + 1));
        let lexed = lexer::lex(&src);
        let trees = lexer::build_trees(lexed.toks);
        let mut line_starts = vec![0];
        line_starts.extend(src.match_indices('\n').map(|(i, _)| i + 1));
        let krate = rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("root");
        let mut f = SrcFile {
            krate: krate.to_string(),
            rel,
            src,
            trees: Vec::new(),
            line_starts,
            comments: lexed.comments,
            test_spans: Vec::new(),
            structs: Vec::new(),
            statics: Vec::new(),
            unsafe_sync: Vec::new(),
        };
        f.index(&trees, false);
        f.trees = trees;
        f
    }

    // -----------------------------------------------------------------------
    // Line table
    // -----------------------------------------------------------------------

    /// Byte range of 1-based `line`, split at its `//` comment if it has one.
    fn line_parts(&self, line: u32) -> (&str, Option<&str>) {
        let i = line as usize - 1;
        let end = self.line_starts.get(i + 1).map_or(self.src.len(), |&e| e - 1);
        match self.comments.binary_search_by_key(&line, |c| c.0) {
            Ok(c) => {
                let at = self.comments[c].1;
                (&self.src[self.line_starts[i]..at], Some(&self.src[at..end]))
            }
            Err(_) => (&self.src[self.line_starts[i]..end], None),
        }
    }

    /// The code on `line`: its text up to the comment, trimmed.
    fn code(&self, line: u32) -> &str {
        self.line_parts(line).0.trim()
    }

    /// The text of the `//` comment on `line`, without the slashes, a doc
    /// `!` and leading blanks — where a justification marker must start.
    pub fn comment(&self, line: u32) -> Option<&str> {
        let text = self.line_parts(line).1?;
        Some(text.trim_start_matches('/').trim_start_matches('!').trim_start())
    }

    /// Lines whose comment starts with `marker`. Anchored at the start of
    /// the comment so prose that merely mentions the word ("lost the race:
    /// reclaim ours") is not mistaken for a justification.
    pub fn marked<'a>(&'a self, marker: &'a str) -> impl Iterator<Item = u32> + 'a {
        self.comments
            .iter()
            .map(|c| c.0)
            .filter(move |&l| self.comment(l).is_some_and(|c| c.starts_with(marker)))
    }

    /// The first line after `line` that has code on it.
    pub fn next_code_line(&self, line: u32) -> Option<u32> {
        (line + 1..=self.line_starts.len() as u32).find(|&l| !self.code(l).is_empty())
    }

    /// The line of the `// <marker> <why>` comment that covers `line`: on the
    /// line itself, or in the comment block at the head of its statement
    /// cluster — attributes skipped, at most `cluster` code lines up. Block
    /// and function boundaries end the search: a comment above `{` belongs
    /// to the block, not to a statement inside it. Returns the comment's
    /// line so callers can tell which justifications silenced something.
    pub fn justification(&self, line: u32, marker: &str, cluster: usize) -> Option<u32> {
        let marked = |l: u32| self.comment(l).is_some_and(|c| c.starts_with(marker));
        if marked(line) {
            return Some(line);
        }
        let mut budget = cluster;
        for l in (1..line).rev() {
            let code = self.code(l);
            if code.is_empty() {
                // A comment line (walk the whole block) or a blank one.
                match self.comment(l) {
                    Some(_) if marked(l) => return Some(l),
                    Some(_) => continue,
                    None => return None,
                }
            }
            if code.starts_with("#[") || code.starts_with("#!") {
                continue;
            }
            if budget == 0
                || code.ends_with('{')
                || code.starts_with('}')
                || code.starts_with("fn ")
            {
                return None;
            }
            if marked(l) {
                // Trailing marker on an earlier line of the same statement
                // (multi-line call chains).
                return Some(l);
            }
            budget -= 1;
        }
        None
    }

    // -----------------------------------------------------------------------
    // Test-only spans
    // -----------------------------------------------------------------------

    /// True when byte offset `off` lies in a test-only item.
    pub fn in_test(&self, off: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| s <= off && off <= e)
    }

    /// [`SrcFile::in_test`] for the start of 1-based `line`.
    pub fn line_in_test(&self, line: u32) -> bool {
        self.in_test(self.line_starts[line as usize - 1])
    }

    /// Calls `f(siblings, i)` for every tree position, in source order, so a
    /// check can match a short token pattern starting at `siblings[i]`.
    pub fn each_pos<'a>(&'a self, f: &mut impl FnMut(&'a [Tree], usize)) {
        fn walk<'a>(trees: &'a [Tree], f: &mut impl FnMut(&'a [Tree], usize)) {
            for (i, t) in trees.iter().enumerate() {
                f(trees, i);
                if let Tree::Group(g) = t {
                    walk(&g.trees, f);
                }
            }
        }
        walk(&self.trees, f);
    }

    // -----------------------------------------------------------------------
    // Item index: test-only spans, structs, statics and `unsafe impl` targets
    // (one walk), fns (on demand, because they borrow their body trees)
    // -----------------------------------------------------------------------

    /// Finds every `#[cfg(<test-only>)]` item span, every struct definition,
    /// every non-test static (`tls`: we are inside `thread_local! { … }`) and
    /// every non-test `unsafe impl Send/Sync`, at any nesting depth of `{}`
    /// (mods, fn bodies).
    fn index(&mut self, trees: &[Tree], tls: bool) {
        let mut docs: Vec<&str> = Vec::new();
        let mut attrs: Vec<String> = Vec::new();
        let mut i = 0;
        while i < trees.len() {
            match &trees[i] {
                Tree::Leaf(Tok { kind: TokKind::Doc, text, .. }) => {
                    docs.push(text);
                    i += 1;
                }
                Tree::Leaf(t) if t.kind == TokKind::Punct && t.text == "#" => {
                    // #[…] outer attribute (or #![…] inner — skipped the same way).
                    let mut j = i + 1;
                    if trees.get(j).and_then(Tree::punct) == Some("!") {
                        j += 1;
                    }
                    if let Some(Tree::Group(g)) = trees.get(j) {
                        if g.delim == '[' {
                            if j == i + 1 && cfg_is_test_only(&g.trees) {
                                self.test_spans.push((t.off, item_end(trees, j + 1, g.end)));
                            }
                            attrs.push(render_type(&g.trees));
                            i = j + 1;
                            continue;
                        }
                    }
                    i += 1;
                }
                Tree::Leaf(t) if t.kind == TokKind::Ident && t.text == "pub" => {
                    // May be followed by a (crate)/(super) qualifier group.
                    if trees.get(i + 1).and_then(Tree::group).is_some_and(|g| g.delim == '(') {
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                Tree::Leaf(t) if t.kind == TokKind::Ident && t.text == "struct" => {
                    let (def, next) = self.parse_struct(trees, i, &docs, &attrs);
                    self.structs.extend(def);
                    docs.clear();
                    attrs.clear();
                    i = next;
                }
                Tree::Group(g) => {
                    docs.clear();
                    attrs.clear();
                    let bang = i >= 2 && trees[i - 1].punct() == Some("!");
                    let tls = bang && trees[i - 2].ident() == Some("thread_local");
                    if g.delim == '{' || tls {
                        self.index(&g.trees, tls);
                    }
                    i += 1;
                }
                t => {
                    if matches!(t.ident(), Some("static" | "unsafe")) && !self.in_test(t.off()) {
                        self.index_static_or_unsafe_impl(trees, i, tls);
                    }
                    docs.clear();
                    attrs.clear();
                    i += 1;
                }
            }
        }
    }

    /// `(name, type)` of every place a lock can live: the non-test struct
    /// fields and statics of the file.
    pub fn places(&self) -> impl Iterator<Item = (&str, &str)> {
        let fields = self.structs.iter().filter(|d| !d.test_only).flat_map(|d| &d.fields);
        let statics = self.statics.iter().map(|s| (s.name.as_str(), s.ty.as_str()));
        fields.map(|(n, ty)| (n.as_str(), ty.as_str())).chain(statics)
    }

    /// `static [mut] NAME: Type …` or `unsafe impl … Send/Sync for X` at `i`.
    fn index_static_or_unsafe_impl(&mut self, trees: &[Tree], i: usize, tls: bool) {
        let ident = |k: usize| trees.get(k).and_then(Tree::ident);
        match (ident(i), ident(i + 1)) {
            (Some("static"), next) => {
                let is_mut = next == Some("mut");
                let at = i + 1 + is_mut as usize;
                let colon = trees.get(at + 1).and_then(Tree::punct) == Some(":");
                if let Some(name) = ident(at).filter(|_| colon) {
                    let ty = &trees[at + 2..];
                    let end = ty.iter().position(|t| matches!(t.punct(), Some("=" | ";")));
                    self.statics.push(StaticItem {
                        name: name.to_string(),
                        line: trees[i].line(),
                        ty: render_type(&ty[..end.unwrap_or(ty.len())]),
                        is_mut,
                        tls,
                    });
                }
            }
            (Some("unsafe"), Some("impl")) => {
                let header = &trees[i + 2..until_brace(trees, i + 2).0];
                if let (Some("Send" | "Sync"), Some(ty)) = impl_header(header) {
                    self.unsafe_sync.push(ty.to_string());
                }
            }
            _ => {}
        }
    }

    fn parse_struct(
        &self,
        trees: &[Tree],
        i: usize,
        docs: &[&str],
        attrs: &[String],
    ) -> (Option<StructItem>, usize) {
        let Some(Tree::Leaf(name_tok)) = trees.get(i + 1) else { return (None, i + 1) };
        if name_tok.kind != TokKind::Ident {
            return (None, i + 1);
        }
        let mut j = i + 2;
        // Generics: `<` … matching `>` at angle-depth 0. `>>` closes two.
        let mut generics = Vec::new();
        if trees.get(j).and_then(Tree::punct) == Some("<") {
            let mut depth = 1i32;
            j += 1;
            while j < trees.len() && depth > 0 {
                match &trees[j] {
                    Tree::Leaf(t) if t.kind == TokKind::Punct => match t.text.as_str() {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        ">>" => depth -= 2,
                        _ => {}
                    },
                    Tree::Leaf(t)
                        if t.kind == TokKind::Ident
                            && depth == 1
                            && t.text.chars().next().is_some_and(char::is_uppercase) =>
                    {
                        // Parameter names at the top level (bounds are deeper
                        // only syntactically after `:`, but collecting extra
                        // names is harmless — they only widen the "not a
                        // workspace reference" set).
                        generics.push(t.text.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Body, past any `where` clause: `{…}` named, `(…)` tuple, or `;` unit.
        let mut fields = Vec::new();
        let mut referenced = Vec::new();
        loop {
            match trees.get(j) {
                Some(Tree::Group(g)) if g.delim == '{' || g.delim == '(' => {
                    parse_fields(&g.trees, g.delim == '(', &mut fields, &mut referenced);
                    j += 1;
                    break;
                }
                Some(Tree::Leaf(t)) if t.kind == TokKind::Punct && t.text == ";" => {
                    j += 1;
                    break;
                }
                Some(_) => j += 1,
                None => break,
            }
        }
        let reprs = attrs
            .iter()
            .filter_map(|a| {
                a.trim().strip_prefix("repr(").and_then(|r| r.strip_suffix(')')).map(str::to_string)
            })
            .collect();
        let def = StructItem {
            name: name_tok.text.clone(),
            file: self.rel.clone(),
            krate: self.krate.clone(),
            line: name_tok.line,
            reprs,
            generics,
            fields,
            referenced,
            docs: docs.join("\n"),
            test_only: self.in_test(name_tok.off),
        };
        (Some(def), j)
    }

    /// Every non-test `fn` with a body, at any nesting depth (impls, mods,
    /// nested fns), with the `impl`/`trait` owner type threaded down.
    pub fn fns(&self) -> Vec<FnItem<'_>> {
        let mut out = Vec::new();
        self.collect_fns(&self.trees, None, &mut out);
        out
    }

    fn collect_fns<'a>(
        &self,
        trees: &'a [Tree],
        owner: Option<&'a str>,
        out: &mut Vec<FnItem<'a>>,
    ) {
        let mut i = 0;
        while i < trees.len() {
            match trees[i].ident() {
                Some(kw @ ("impl" | "trait")) => {
                    let (body_at, body) = until_brace(trees, i + 1);
                    if let Some(g) = body {
                        // Default method bodies resolve `Self` to the trait name.
                        let ty = if kw == "trait" {
                            trees.get(i + 1).and_then(Tree::ident)
                        } else {
                            impl_header(&trees[i + 1..body_at]).1
                        };
                        self.collect_fns(&g.trees, ty, out);
                    }
                    i = body_at + 1;
                    continue;
                }
                Some("fn") => {
                    if let Some(name) = trees.get(i + 1).and_then(Tree::ident) {
                        // Body: first `{` group before a `;` at this level.
                        let mut j = i + 2;
                        let mut body = None;
                        while j < trees.len() {
                            match &trees[j] {
                                Tree::Group(g) if g.delim == '{' => {
                                    body = Some(g);
                                    break;
                                }
                                Tree::Leaf(t) if t.kind == TokKind::Punct && t.text == ";" => break,
                                _ => j += 1,
                            }
                        }
                        if let Some(g) = body {
                            // Test-only functions are not part of the effect
                            // universe: they may fence freely and would
                            // pollute name resolution.
                            if !self.in_test(trees[i].off()) {
                                out.push(FnItem {
                                    name,
                                    owner,
                                    is_pub: is_pub(trees, i),
                                    line: trees[i].line(),
                                    sig: &trees[i + 2..j],
                                    body: g,
                                });
                            }
                            // Nested fns inside the body carry no owner.
                            self.collect_fns(&g.trees, None, out);
                            i = j + 1;
                            continue;
                        }
                        i = j;
                        continue;
                    }
                }
                _ => {}
            }
            if let Tree::Group(g) = &trees[i] {
                self.collect_fns(&g.trees, None, out);
            }
            i += 1;
        }
    }
}

/// True when the attribute tokens (the inside of `#[…]`) are a `cfg` whose
/// predicate names `test` outside every `not(..)` group.
fn cfg_is_test_only(attr: &[Tree]) -> bool {
    fn names_test(pred: &[Tree]) -> bool {
        pred.iter().enumerate().any(|(i, t)| match t {
            Tree::Group(g) => {
                !(i > 0 && pred[i - 1].ident() == Some("not")) && names_test(&g.trees)
            }
            leaf => leaf.ident() == Some("test"),
        })
    }
    match attr {
        [head, Tree::Group(pred)] => head.ident() == Some("cfg") && names_test(&pred.trees),
        _ => false,
    }
}

/// Byte offset at which the item starting at `trees[from]` ends: past any
/// further attributes, at the closing brace of its first `{` group or at
/// the `;` that comes before one. `fallback` covers an attribute with
/// nothing after it.
fn item_end(trees: &[Tree], mut from: usize, fallback: usize) -> usize {
    while trees.get(from).and_then(Tree::punct) == Some("#") {
        from += if trees.get(from + 1).and_then(Tree::group).is_some() { 2 } else { 1 };
    }
    for t in &trees[from.min(trees.len())..] {
        match t {
            Tree::Group(g) if g.delim == '{' => return g.end,
            Tree::Leaf(t) if t.kind == TokKind::Punct && t.text == ";" => return t.off,
            _ => {}
        }
    }
    trees.last().map_or(fallback, |t| t.off().max(fallback))
}

fn parse_fields(
    trees: &[Tree],
    tuple: bool,
    fields: &mut Vec<(String, String)>,
    referenced: &mut Vec<String>,
) {
    for (idx, chunk) in split_top_commas(trees).into_iter().enumerate() {
        let chunk = strip_field_prefix(chunk);
        let (name, ty) = if tuple {
            if chunk.is_empty() {
                continue;
            }
            (idx.to_string(), chunk)
        } else {
            // name : type…
            let Some(colon) = chunk.iter().position(|t| t.punct() == Some(":")) else { continue };
            let Some(name) = colon.checked_sub(1).and_then(|n| chunk[n].ident()) else { continue };
            (name.to_string(), &chunk[colon + 1..])
        };
        fields.push((name, render_type(ty)));
        collect_refs(ty, referenced);
    }
}

/// Drops leading docs/attributes/visibility from a field chunk.
fn strip_field_prefix(mut chunk: &[Tree]) -> &[Tree] {
    loop {
        match chunk.first() {
            Some(Tree::Leaf(t)) if t.kind == TokKind::Doc => chunk = &chunk[1..],
            Some(Tree::Leaf(t)) if t.kind == TokKind::Punct && t.text == "#" => {
                if chunk.get(1).and_then(Tree::group).is_some_and(|g| g.delim == '[') {
                    chunk = &chunk[2..];
                } else {
                    chunk = &chunk[1..];
                }
            }
            Some(Tree::Leaf(t)) if t.kind == TokKind::Ident && t.text == "pub" => {
                if chunk.get(1).and_then(Tree::group).is_some_and(|g| g.delim == '(') {
                    chunk = &chunk[2..];
                } else {
                    chunk = &chunk[1..];
                }
            }
            _ => return chunk,
        }
    }
}

fn split_top_commas(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    // Angle-bracket depth: commas inside `Foo<A, B>` are not field
    // separators.
    let mut angle = 0i32;
    for (i, t) in trees.iter().enumerate() {
        if let Some(p) = t.punct() {
            match p {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                ">>" => angle = (angle - 2).max(0),
                "," if angle == 0 => {
                    out.push(&trees[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
    }
    if start < trees.len() {
        out.push(&trees[start..]);
    }
    out
}

/// Collects uppercase-initial identifiers in a type position (possible
/// workspace struct references).
fn collect_refs(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(tok)
                if tok.kind == TokKind::Ident
                    && tok.text.chars().next().is_some_and(char::is_uppercase) =>
            {
                out.push(tok.text.clone());
            }
            Tree::Group(g) => collect_refs(&g.trees, out),
            _ => {}
        }
    }
}

/// Reads an `impl` header (the tokens between `impl` and the body brace):
/// the implemented trait, when it is a trait impl, and the implemented type —
/// each the first uppercase ident at angle-bracket depth 0 on its side of
/// `for`.
fn impl_header(trees: &[Tree]) -> (Option<&str>, Option<&str>) {
    let mut depth = 0i32;
    let (mut tr, mut ty) = (None, None);
    for t in trees {
        if let Some(p) = t.punct() {
            match p {
                "<" => depth += 1,
                "<<" => depth += 2,
                ">" => depth -= 1,
                ">>" => depth -= 2,
                _ => {}
            }
            continue;
        }
        if depth != 0 {
            continue;
        }
        if let Some(id) = t.ident() {
            if id == "for" {
                tr = ty.take(); // trait impl: the implemented type follows
            } else if id == "where" {
                break;
            } else if ty.is_none() && id.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                ty = Some(id);
            }
        }
    }
    (tr, ty)
}

/// Walks back from the `fn` keyword over qualifiers, attributes and docs
/// looking for `pub`.
fn is_pub(trees: &[Tree], fn_at: usize) -> bool {
    for t in trees[..fn_at].iter().rev() {
        match t {
            Tree::Leaf(t) if t.text == "pub" => return true,
            Tree::Leaf(t) if matches!(t.text.as_str(), "const" | "unsafe" | "async" | "extern") => {
            }
            Tree::Leaf(t) if t.kind == TokKind::Str || t.kind == TokKind::Doc => {}
            Tree::Leaf(t) if t.text == "#" => {}
            Tree::Group(g) if g.delim == '[' || g.delim == '(' => {}
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Files lexed by this thread.
        pub(super) static LEX_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// The `analyze.rs` module doc's claim: one `lexer::lex` call per file
    /// per run, however many passes read the file.
    #[test]
    fn a_run_lexes_each_file_once() {
        LEX_CALLS.with(|c| c.set(0));
        let report = crate::analyze::run(&crate::repo_root(), false);
        assert!(report.files > 50, "the workspace was found: {}", report.files);
        assert_eq!(LEX_CALLS.with(|c| c.get()), report.files);
    }

    fn file(src: &str) -> SrcFile {
        SrcFile::parse("crates/demo/src/lib.rs".into(), src.into())
    }

    /// `(kind, text)` of every token that is not a delimiter.
    fn leaves(f: &SrcFile) -> Vec<(TokKind, &str)> {
        let mut out = Vec::new();
        f.each_pos(&mut |sibs, i| {
            if let Tree::Leaf(t) = &sibs[i] {
                out.push((t.kind, t.text.as_str()));
            }
        });
        out
    }

    // -- what `text::strip` used to decide: comments and literals hide their
    //    contents from every token search ---------------------------------

    #[test]
    fn comments_and_strings_hide_their_contents() {
        let f = file("let a = \"std::thread\"; // std::sync::atomic\nlet c = 'x';");
        let toks = leaves(&f);
        assert!(!toks
            .iter()
            .any(|t| t.0 == TokKind::Ident && (t.1 == "thread" || t.1 == "atomic")));
        assert!(toks.contains(&(TokKind::Ident, "a")));
        assert!(toks.contains(&(TokKind::Ident, "c")));
        assert_eq!(f.comment(1), Some("std::sync::atomic"));
    }

    #[test]
    fn raw_strings_hide_their_contents_and_lifetimes_survive() {
        let f = file("fn f<'a>(x: &'a str) { let r = r#\"unsafe { }\"#; }");
        let toks = leaves(&f);
        assert!(!toks.iter().any(|t| t.0 == TokKind::Ident && t.1 == "unsafe"));
        assert_eq!(toks.iter().filter(|t| *t == &(TokKind::Lifetime, "'a")).count(), 2, "{toks:?}");
    }

    /// `text::is_char_literal` read `'a,'` as a char literal and blanked it.
    #[test]
    fn adjacent_lifetimes_are_not_a_char_literal() {
        let f = file("fn f<'a,'b>(x: &'a u8, y: &'b u8) {}");
        let toks = leaves(&f);
        assert!(!toks.iter().any(|t| t.0 == TokKind::Char), "{toks:?}");
        let lifetimes: Vec<&str> =
            toks.iter().filter(|t| t.0 == TokKind::Lifetime).map(|t| t.1).collect();
        assert_eq!(lifetimes, ["'a", "'b", "'a", "'b"]);
    }

    // -- test-only spans -----------------------------------------------------

    fn fn_names(src: &str) -> Vec<String> {
        file(src).fns().iter().map(|f| f.name.to_string()).collect()
    }

    #[test]
    fn cfg_test_items_are_test_only_through_their_closing_brace() {
        let src = "fn a() {}\n#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    fn t() {}\n}\nfn b() {}\n";
        assert_eq!(fn_names(src), ["a", "b"]);
        let f = file(src);
        assert!(!f.line_in_test(1) && f.line_in_test(2) && f.line_in_test(6) && !f.line_in_test(7));
    }

    #[test]
    fn test_only_is_decided_by_the_predicate_tokens() {
        // `test` under `not(..)` is production code, at any depth.
        assert_eq!(fn_names("#[cfg(not(test))] fn p() {}"), ["p"]);
        assert_eq!(fn_names("#[cfg(not(any(test, miri)))] fn p() {}"), ["p"]);
        assert_eq!(fn_names("#[cfg(all(not(test), loom))] fn p() {}"), ["p"]);
        // `test` outside every `not(..)` is test-only.
        assert!(fn_names("#[cfg(all(test, not(loom)))] fn t() {}").is_empty());
        assert!(fn_names("#[cfg(any(test, feature = \"x\"))] fn t() {}").is_empty());
        // A feature *named* test is a string, not the predicate.
        assert_eq!(fn_names("#[cfg(feature = \"test\")] fn p() {}"), ["p"]);
        // And `cfg_attr` is not `cfg`.
        assert_eq!(fn_names("#[cfg_attr(test, allow(unused))] fn p() {}"), ["p"]);
    }

    #[test]
    fn bodiless_test_items_end_at_their_semicolon() {
        let src = "#[cfg(test)]\nuse std::thread;\nfn a(x: [u8; 2]) {}\n";
        let f = file(src);
        assert!(f.line_in_test(2) && !f.line_in_test(3));
        // A `;` inside the signature's groups does not end a test fn early.
        assert!(fn_names("#[cfg(test)] fn t(x: [u8; 2]) { fn inner() {} }").is_empty());
    }

    // -- line table ------------------------------------------------------------

    #[test]
    fn comment_markers_are_anchored_and_string_contents_are_not_comments() {
        let f = file("let u = \"http://race: no\";\n// race: yes\n//! ordering: inner doc\n// lost the race: prose\n");
        assert_eq!(f.comment(1), None);
        assert_eq!(f.marked("race:").collect::<Vec<_>>(), [2]);
        assert_eq!(f.marked("ordering:").collect::<Vec<_>>(), [3]);
        assert_eq!(f.next_code_line(1), None);
    }

    // -- item index ------------------------------------------------------------

    #[test]
    fn fns_carry_owner_visibility_signature_and_body() {
        let f = file(
            "impl<'a, T: Clone> PSkipList<T> {
                /// doc
                #[inline]
                pub(crate) unsafe fn history(&self, h: u64) -> History<'a> { make() }
                fn plain(&mut self) {}
            }
            impl fmt::Debug for Pool { fn fmt(&self) {} }
            trait Service { fn ping(&self) -> Self { self.clone() } fn decl(&self); }
            pub fn free() { fn nested() {} }",
        );
        let fns = f.fns();
        let by = |n: &str| fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by("history").owner, Some("PSkipList"));
        assert!(by("history").is_pub && !by("plain").is_pub && by("free").is_pub);
        assert!(by("history").sig.iter().any(|t| t.punct() == Some("->")));
        assert_eq!(by("fmt").owner, Some("Pool"), "trait impl owner is after `for`");
        assert_eq!(by("ping").owner, Some("Service"));
        assert_eq!(by("nested").owner, None);
        assert!(!fns.iter().any(|f| f.name == "decl"), "no body, no item");
        assert_eq!(by("free").body.trees.len(), 4);
    }

    #[test]
    fn statics_and_unsafe_send_sync_impls_are_indexed_outside_tests() {
        let f = file(
            "pub static INDEX: RwLock<BTreeMap<u64, u64>> = RwLock::new(BTreeMap::new());
             static mut COUNTER: u64 = 0;
             thread_local! { static JITTER: Cell<u64> = const { Cell::new(0) }; }
             fn f(x: &'static str) { static LOCAL: AtomicU64 = AtomicU64::new(0); }
             unsafe impl<T: Send> Sync for Shard<T> {}
             unsafe impl Send for Pool {}
             unsafe impl GlobalAlloc for Counting {}
             #[cfg(test)]
             mod t { static mut T: u8 = 0; unsafe impl Send for Fake {} }",
        );
        let got: Vec<_> =
            f.statics.iter().map(|s| (s.name.as_str(), s.ty.as_str(), s.is_mut, s.tls)).collect();
        assert_eq!(
            got,
            [
                ("INDEX", "RwLock<BTreeMap<u64,u64>>", false, false),
                ("COUNTER", "u64", true, false),
                ("JITTER", "Cell<u64>", false, true),
                ("LOCAL", "AtomicU64", false, false),
            ]
        );
        assert_eq!(f.statics[1].line, 2);
        assert_eq!(f.unsafe_sync, ["Shard", "Pool"]);
    }

    #[test]
    fn structs_record_whether_they_are_test_only() {
        let f = file("struct A { x: HashMap<u64, Mutex<u8>> }\n#[cfg(test)]\nmod t { struct B; }");
        assert_eq!(f.structs.len(), 2);
        assert!(!f.structs[0].test_only && f.structs[1].test_only);
        assert_eq!(f.structs[0].fields, [("x".to_string(), "HashMap<u64,Mutex<u8>>".to_string())]);
    }
}
