//! The one lowering of a function body, read by every flow-sensitive pass.
//!
//! Each non-test fn is lowered to a small effect AST — sequences, if/else,
//! match arms, loops and closures (zero or more executions) — whose leaves
//! are the events the summaries and the lock-order pass read: **calls**
//! (with enough receiver context to resolve them against the workspace
//! function index), **lock sites** (zero-argument `.lock()` / `.try_lock()`,
//! and `.read()` / `.write()` as candidates the consumer confirms against
//! the `RwLock` inventory, each with its dotted chain and the `let` binding
//! the guard lands in), explicit **`drop(guard)`** releases and **statement
//! ends** — what the lock-order pass needs to keep a stack of live guards.
//! Events are in evaluation order where it differs from source order: the
//! right side of a plain `place = value` is lowered before the place, in a
//! statement and in an expression-bodied match arm or closure.
//!
//! Whether an operation flushes every line it wrote before it returns is
//! not read off this lowering: the crash simulator measures it
//! (`PmemPool::unflushed_lines`, a column of `tests/cost_ledger.rs` and a
//! check of the crash and corruption matrices).

use crate::lexer::{until_brace, Group, TokKind, Tree};
use crate::source::{FnItem, SrcFile};

/// Reserved words that are never an operand: not a callee when a `(` group
/// follows (`in (0..n)`, `let (a, b) = …`) and not a segment of a receiver
/// chain (`return x.lock()`). The one keyword table of the analyzer.
fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "let" | "else" | "in" | "as" | "mut" | "ref" | "pub" | "dyn" | "static" | "const"
            | "async" | "await" | "where" | "match" | "if" | "while" | "return" | "move" | "for"
            | "loop" | "break" | "continue"
    )
}

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

/// Receiver context captured at a call site, used by the summary layer to
/// narrow which workspace functions the call can resolve to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hint {
    /// No receiver information (free call, or an unrecognized shape).
    None,
    /// `self.method(…)` or `Self::assoc(…)` — the callee lives on the
    /// caller's own impl type.
    SelfTy,
    /// `Type::assoc(…)` or `TYPE_EXPR.method(…)` with an uppercase receiver.
    Ty(String),
    /// `recv.method(…)` where `recv` is a lowercase ident or a call result:
    /// the receiver's type is whatever functions named `func` return.
    Ret { func: String, owner: Option<String> },
}

/// One call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pub name: String,
    pub line: u32,
    /// True when invoked through `.` (method call).
    pub dotted: bool,
    pub hint: Hint,
    /// True only for a literal zero-argument `fence()` — the store fence
    /// primitive. `fence(Ordering::…)` (the atomic fence) and named fences
    /// that *contain* an sfence are seen through resolution instead.
    pub sfence: bool,
}

/// One zero-argument `.lock()` / `.try_lock()` / `.read()` / `.write()` site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSite {
    pub line: u32,
    /// The dotted/path chain leading to the lock, e.g. `self.large_free` →
    /// `["self", "large_free"]`. The last segment names the mutex.
    pub chain: Vec<String>,
    /// The `let` binding the guard lands in, when the statement has one.
    /// `None` means the guard is a temporary dropped at end of statement.
    pub binding: Option<String>,
    /// `.read()` / `.write()`: an acquisition only when the consumer finds
    /// the receiver in the `RwLock` inventory (`Workspace::lock_id`). The
    /// site is preceded by its ordinary [`Node::Call`], which is all that is
    /// left of it when it is `sock.read()`.
    pub rw: bool,
}

#[derive(Debug)]
pub enum Node {
    Seq(Vec<Node>),
    /// A call with an argument list.
    Call(Call),
    /// A lock acquisition (for `rw` sites, a candidate).
    Lock(LockSite),
    /// An explicit `drop(binding)`.
    Unlock { binding: String },
    /// A `;` directly in a block: temporaries of the statement die here.
    StmtEnd,
    /// Mutually exclusive alternatives (if/else, match arms).
    Branch(Vec<Node>),
    /// Body executed zero or more times (loops, closures).
    Loop(Box<Node>),
}

impl Node {
    /// Calls `f` on every leaf event of the tree, in source order.
    pub fn each<'n>(&'n self, f: &mut impl FnMut(&'n Node)) {
        match self {
            Node::Seq(cs) | Node::Branch(cs) => cs.iter().for_each(|c| c.each(f)),
            Node::Loop(b) => b.each(f),
            leaf => f(leaf),
        }
    }
}

/// One analyzed function: the front end's item plus what this layer derives
/// from its signature and body.
pub struct FnInfo<'a> {
    pub item: FnItem<'a>,
    /// Uppercase type idents appearing in the return type (`Self` mapped to
    /// the owner). Used to resolve `recv.method(…)` through getter returns.
    pub ret_idents: Vec<String>,
    pub body: Node,
}

/// Lowers every non-test `fn` of `file` to its CFG.
pub fn functions(file: &SrcFile) -> Vec<FnInfo<'_>> {
    file.fns()
        .into_iter()
        .map(|item| FnInfo {
            ret_idents: ret_idents(item.sig, item.owner),
            body: parse_seq(&item.body.trees),
            item,
        })
        .collect()
}

fn is_upper(name: &str) -> bool {
    name.starts_with(|c: char| c.is_ascii_uppercase())
}

/// Collects the uppercase type idents in a fn signature's return type
/// (tokens between `fn name` and the body). `Self` maps to the owner.
fn ret_idents(sig: &[Tree], owner: Option<&str>) -> Vec<String> {
    fn walk_groups(trees: &[Tree], owner: Option<&str>, out: &mut Vec<String>) {
        for t in trees {
            match t {
                Tree::Leaf(tok) if tok.kind == TokKind::Ident => {
                    let name = if tok.text == "Self" { owner } else { Some(tok.text.as_str()) };
                    if let Some(n) = name.filter(|n| is_upper(n) && !out.iter().any(|x| x == n)) {
                        out.push(n.to_string());
                    }
                }
                Tree::Group(g) => walk_groups(&g.trees, owner, out),
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    if let Some(arrow) = sig.iter().position(|t| t.punct() == Some("->")) {
        // Bound types of a `where` clause are not return types.
        let ret = &sig[arrow + 1..];
        let end = ret.iter().position(|t| t.ident() == Some("where")).unwrap_or(ret.len());
        walk_groups(&ret[..end], owner, &mut out);
    }
    out
}

// ---------------------------------------------------------------------------
// Body parsing
// ---------------------------------------------------------------------------

/// Item-introducing keywords inside a body whose tokens are *not* executed
/// at this point (nested items run when called/used, not here).
const ITEM_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "impl", "trait", "mod", "union", "macro_rules", "use", "type"];

/// Lowers a block. Rust evaluates the right side of a plain `place = value`
/// first, so its events move in front of the place's when the statement
/// ends (`*m.lock() = f()` runs `f` with no guard held). A compound `op=`
/// keeps source order: on a non-primitive type the place comes first.
fn parse_seq(trees: &[Tree]) -> Node {
    let mut nodes = Vec::new();
    // Events before each token, and a pending (place, value) event split.
    let mut before = vec![0; trees.len()];
    let mut assign: Option<(usize, usize)> = None;
    let mut i = 0;
    while i < trees.len() {
        let n = nodes.len();
        before[i] = n;
        match trees[i].punct() {
            Some("=") => assign = Some((before[chain_back(trees, i).1], n)),
            Some(";") => rotate(&mut nodes, assign.take()),
            _ => {}
        }
        let next = parse_one(trees, i, &mut nodes);
        before[i..next].fill(n);
        i = next;
    }
    rotate(&mut nodes, assign);
    Node::Seq(nodes)
}

/// Moves a pending assignment's value events in front of its place's.
fn rotate(nodes: &mut [Node], assign: Option<(usize, usize)>) {
    if let Some((place, value)) = assign {
        nodes[place..].rotate_left(value - place);
    }
}

/// Parses one construct starting at `i`, pushing nodes; returns the next
/// index.
fn parse_one(trees: &[Tree], i: usize, nodes: &mut Vec<Node>) -> usize {
    let t = &trees[i];
    if let Some(kw) = t.ident() {
        match kw {
            "if" => return parse_if(trees, i, nodes),
            "match" => return parse_match(trees, i, nodes),
            "while" | "for" => {
                // Header (condition / iterator expr) executes at least once.
                let (hdr, hdr_end, body) = parse_header(trees, i);
                let body = body.map(|g| Node::Loop(Box::new(parse_seq(&g.trees))));
                let next = hdr_end + body.is_some() as usize;
                push_headed(nodes, hdr, body, kw == "for" || is_let(trees, i));
                return next;
            }
            "loop" => {
                if let Some(Tree::Group(g)) = trees.get(i + 1) {
                    if g.delim == '{' {
                        nodes.push(Node::Loop(Box::new(parse_seq(&g.trees))));
                        return i + 2;
                    }
                }
                return i + 1;
            }
            "unsafe" => return i + 1, // transparent; the block follows
            "move" => {
                // `move |…| …` — let the closure arm below see the pipe.
                if trees.get(i + 1).and_then(Tree::punct).is_some_and(|p| p == "|" || p == "||") {
                    return parse_closure(trees, i + 1, nodes);
                }
                return i + 1;
            }
            _ if ITEM_KEYWORDS.contains(&kw) => {
                // Skip the whole nested item: through its body group or `;`.
                // (Nested fns are still discovered by `SrcFile::fns`.)
                let mut j = i + 1;
                while j < trees.len() {
                    match &trees[j] {
                        Tree::Group(g) if g.delim == '{' => return j + 1,
                        Tree::Leaf(tk) if tk.kind == TokKind::Punct && tk.text == ";" => {
                            return j + 1
                        }
                        _ => j += 1,
                    }
                }
                return j;
            }
            name => {
                let Some(Tree::Group(g)) = trees.get(i + 1) else { return i + 1 };
                if g.delim != '(' || is_keyword(name) {
                    return i + 1;
                }
                if name == "drop" {
                    if let [Tree::Leaf(tok)] = g.trees.as_slice() {
                        if tok.kind == TokKind::Ident {
                            nodes.push(Node::Unlock { binding: tok.text.clone() });
                            return i + 2;
                        }
                    }
                }
                // A lock site is a zero-argument method call by one of four names.
                let bare_method = g.trees.is_empty() && i > 0 && trees[i - 1].punct() == Some(".");
                if bare_method && matches!(name, "lock" | "try_lock") {
                    nodes.push(Node::Lock(lock_site(trees, i, false)));
                    return i + 2;
                }
                if is_upper(name) {
                    // Tuple-struct / enum-variant constructor (Some, Ok,
                    // Err, custom variants): args only, no call effect.
                    nodes.push(parse_seq(&g.trees));
                    return i + 2;
                }
                nodes.push(parse_seq(&g.trees)); // args evaluate first
                let (dotted, hint) = call_hint(trees, i);
                nodes.push(Node::Call(Call {
                    name: name.to_string(),
                    line: t.line(),
                    dotted,
                    hint,
                    sfence: name == "fence" && g.trees.is_empty(),
                }));
                if bare_method && matches!(name, "read" | "write") {
                    nodes.push(Node::Lock(lock_site(trees, i, true)));
                }
                return i + 2;
            }
        }
    }
    if let Some(p) = t.punct() {
        match p {
            ";" => nodes.push(Node::StmtEnd),
            "|" | "||" if closure_position(trees, i) => return parse_closure(trees, i, nodes),
            _ => {}
        }
        return i + 1;
    }
    if let Some(g) = t.group() {
        nodes.push(parse_seq(&g.trees));
        return i + 1;
    }
    i + 1
}

/// Computes the receiver context for the callee ident at `i` (which is
/// followed by its argument group).
fn call_hint(trees: &[Tree], i: usize) -> (bool, Hint) {
    // The type `Q` of a `Q::` directly before `at`.
    let qualifier = |at: usize| {
        let q = at.checked_sub(2).filter(|&k| trees[k + 1].punct() == Some("::"));
        q.and_then(|k| trees[k].ident()).filter(|q| is_upper(q))
    };
    match i.checked_sub(1).and_then(|k| trees[k].punct()) {
        Some("::") => match qualifier(i) {
            Some("Self") => (false, Hint::SelfTy),
            Some(q) => (false, Hint::Ty(q.to_string())),
            None => (false, Hint::None), // module path — a free call
        },
        Some(".") => {
            // The receiver is the last operand of the chain the dot continues.
            let Some(at) = chain_back(trees, i - 1).2 else { return (true, Hint::None) };
            let recv = trees[at].ident().unwrap_or_default();
            let hint = if args_at(trees, at + 1) {
                // Call-result receiver: `f(…).method(…)`, `Type::f(…).method(…)`.
                Hint::Ret { func: recv.to_string(), owner: qualifier(at).map(str::to_string) }
            } else if recv == "self" {
                Hint::SelfTy
            } else if is_upper(recv) {
                Hint::Ty(recv.to_string())
            } else {
                // Field or local: resolve through getters named the same
                // (empty getter set falls back to Hint::None).
                Hint::Ret { func: recv.to_string(), owner: None }
            };
            (true, hint)
        }
        _ => (false, Hint::None),
    }
}

/// Walks back from the `.` at `dot` over the postfix chain it continues —
/// `a.b(x)?.c[i]`, `A::b` — and returns the chain's idents in source order,
/// the index of its first token, and the index of its last name (the
/// receiver of what follows the dot). A chain that starts at a group
/// (`(*p).f`) has the group as its first token.
fn chain_back(trees: &[Tree], dot: usize) -> (Vec<String>, usize, Option<usize>) {
    let mut chain = Vec::new();
    let mut start = dot;
    let mut recv = None;
    loop {
        // One operand, right to left: postfix `?` / `(…)` / `[…]`, then a name.
        while start > 0
            && match &trees[start - 1] {
                Tree::Leaf(t) => t.kind == TokKind::Punct && t.text == "?",
                Tree::Group(g) => g.delim == '(' || g.delim == '[',
            }
        {
            start -= 1;
        }
        match start.checked_sub(1).map(|k| &trees[k]) {
            Some(Tree::Leaf(t)) if t.kind == TokKind::Ident && !is_keyword(&t.text) => {
                chain.push(t.text.clone());
                start -= 1;
                recv = recv.or(Some(start));
            }
            _ => break,
        }
        match start.checked_sub(1).and_then(|k| trees[k].punct()) {
            Some(".") | Some("::") => start -= 1,
            _ => break,
        }
    }
    chain.reverse();
    (chain, start, recv)
}

/// The chain and `let` binding of the guard method at `i` (`trees[i-1]` is
/// the dot). The guard lands in the binding only when its call ends the
/// initializer, through `?` / `.unwrap()` / `.expect(…)`: the guard of
/// `let n = m.lock().len();` is a temporary.
fn lock_site(trees: &[Tree], i: usize, rw: bool) -> LockSite {
    let (chain, start, _) = chain_back(trees, i - 1);
    let mut end = i + 2;
    loop {
        let unwrap = matches!(trees.get(end + 1).and_then(Tree::ident), Some("unwrap" | "expect"));
        match trees.get(end).and_then(Tree::punct) {
            Some("?") => end += 1,
            Some(".") if unwrap => end += 3,
            _ => break,
        }
    }
    let ends_init = match trees.get(end) {
        Some(Tree::Group(g)) => g.delim == '{',
        Some(t) => t.punct() == Some(";") || t.ident() == Some("else"),
        None => true,
    };
    let binding = start
        .checked_sub(1)
        .filter(|&eq| ends_init && trees[eq].punct() == Some("="))
        .and_then(|eq| pattern_binding(trees, eq));
    LockSite { line: trees[i].line(), chain, binding, rw }
}

/// The name bound by the `let` / `if let` pattern that ends just before
/// `end`: `[mut] name`, or the ident inside `Ok(…)` / `Some(…)`.
fn pattern_binding(trees: &[Tree], end: usize) -> Option<String> {
    let prev = end.checked_sub(1)?;
    match &trees[prev] {
        Tree::Leaf(t) if t.kind == TokKind::Ident && !is_keyword(&t.text) => {
            Some(t.text.clone())
        }
        Tree::Group(g) if g.delim == '(' => {
            let ctor = prev.checked_sub(1).and_then(|j| trees[j].ident())?;
            if !matches!(ctor, "Ok" | "Some") {
                return None;
            }
            g.trees.iter().rev().find_map(|t| match t {
                Tree::Leaf(tok) if tok.kind == TokKind::Ident && tok.text != "mut" => {
                    Some(tok.text.clone())
                }
                _ => None,
            })
        }
        _ => None,
    }
}

/// Does a method's argument list start at `k` (possibly after a turbofish)?
fn args_at(trees: &[Tree], k: usize) -> bool {
    match trees.get(k) {
        Some(Tree::Group(g)) => g.delim == '(',
        Some(t) => t.punct() == Some("::"),
        None => false,
    }
}

/// Heuristic: a `|` token opens a closure when it starts an expression —
/// beginning of a group / statement, or right after a token that cannot end
/// an operand.
fn closure_position(trees: &[Tree], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    match &trees[i - 1] {
        Tree::Leaf(t) => match t.kind {
            TokKind::Punct => {
                matches!(t.text.as_str(), "," | ";" | "=" | "=>" | ":" | "&&" | "||" | "(")
            }
            TokKind::Ident => matches!(t.text.as_str(), "return" | "move" | "else"),
            _ => false,
        },
        Tree::Group(_) => false, // `(a) | b` is a bit-or
    }
}

/// Parses `|args| body` (or `|| body`). The body may run zero or more
/// times, so it is modeled as a loop.
fn parse_closure(trees: &[Tree], i: usize, nodes: &mut Vec<Node>) -> usize {
    let mut j = i;
    if trees[j].punct() == Some("|") {
        // Find the closing pipe at this level.
        j += 1;
        while j < trees.len() && trees[j].punct() != Some("|") {
            j += 1;
        }
        if j >= trees.len() {
            return i + 1; // stray pipe; treat as bit-or
        }
        j += 1; // past closing |
    } else {
        j += 1; // `||` empty arg list
    }
    // Optional `-> Type` return annotation before the body.
    if trees.get(j).and_then(Tree::punct) == Some("->") {
        j += 1;
        while j < trees.len() {
            match &trees[j] {
                Tree::Group(g) if g.delim == '{' => break,
                _ => j += 1,
            }
        }
    }
    let end = expr_end(trees, j, &[",", ";"]);
    nodes.push(Node::Loop(Box::new(parse_seq(&trees[j..end]))));
    end
}

/// The end of the expression starting at `i`: the first top-level token in
/// `stops` outside a closure's parameter list, or the end of the slice.
fn expr_end(trees: &[Tree], mut i: usize, stops: &[&str]) -> usize {
    let mut params = false;
    while i < trees.len() {
        match trees[i].punct() {
            Some("|") if params || closure_position(trees, i) => params = !params,
            Some(p) if !params && stops.contains(&p) => break,
            _ => {}
        }
        i += 1;
    }
    i
}

/// `if let` / `while let` at `i`?
fn is_let(trees: &[Tree], i: usize) -> bool {
    trees.get(i + 1).and_then(Tree::ident) == Some("let")
}

/// Lowers the header of the `if` / `match` / `while` / `for` at `i` — the
/// tokens up to the body brace — and returns it with the brace's index and
/// the body group.
fn parse_header(trees: &[Tree], i: usize) -> (Vec<Node>, usize, Option<&Group>) {
    let (body_at, body) = until_brace(trees, i + 1);
    let mut hdr = Vec::new();
    let mut k = i + 1;
    while k < body_at {
        k = parse_one(trees, k, &mut hdr);
    }
    (hdr, body_at, body)
}

/// Pushes a header and its body. Header effects run unconditionally. Its
/// temporaries (a guard taken in the scrutinee or the iterator expression)
/// live `through` the body of `match` / `for` / `if let` / `while let` — one
/// `Seq` — and die before the body of a plain `if` / `while`.
fn push_headed(nodes: &mut Vec<Node>, mut hdr: Vec<Node>, body: Option<Node>, through: bool) {
    if through {
        hdr.extend(body);
        nodes.push(Node::Seq(hdr));
    } else {
        nodes.push(Node::Seq(hdr));
        nodes.extend(body);
    }
}

fn parse_if(trees: &[Tree], i: usize, nodes: &mut Vec<Node>) -> usize {
    let (cond, body_at, body) = parse_header(trees, i);
    let Some(g) = body else {
        nodes.push(Node::Seq(cond));
        return body_at;
    };
    let mut alts = vec![parse_seq(&g.trees)];
    let mut j = body_at + 1;
    if trees.get(j).and_then(Tree::ident) == Some("else") {
        j += 1;
        if trees.get(j).and_then(Tree::ident) == Some("if") {
            let mut chained = Vec::new();
            j = parse_if(trees, j, &mut chained);
            alts.push(Node::Seq(chained));
        } else if let Some(g) = trees.get(j).and_then(Tree::group).filter(|g| g.delim == '{') {
            alts.push(parse_seq(&g.trees));
            j += 1;
        }
    }
    push_headed(nodes, cond, Some(Node::Branch(alts)), is_let(trees, i));
    j
}

fn parse_match(trees: &[Tree], i: usize, nodes: &mut Vec<Node>) -> usize {
    let (scrutinee, body_at, body) = parse_header(trees, i);
    let arms = body.map(|g| parse_match_arms(&g.trees)).filter(|arms| !arms.is_empty());
    let next = body_at + body.is_some() as usize;
    push_headed(nodes, scrutinee, arms.map(Node::Branch), true);
    next
}

fn parse_match_arms(trees: &[Tree]) -> Vec<Node> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        // Pattern (and optional guard) up to `=>`; the guard's events are
        // folded into the arm.
        let mut arm = Vec::new();
        while i < trees.len() && trees[i].punct() != Some("=>") {
            i = parse_one(trees, i, &mut arm);
        }
        if i >= trees.len() {
            // No `=>` at all: the brace was a block in the scrutinee (`match
            // unsafe { … }.cmp(k) { … }`), whose events still happen.
            if arms.is_empty() {
                arms.push(Node::Seq(arm));
            }
            break;
        }
        // The body: a block, whose `,` is optional, or an expression up to `,`.
        let end = match trees.get(i + 1) {
            Some(Tree::Group(g)) if g.delim == '{' => i + 2,
            _ => expr_end(trees, i + 1, &[","]),
        };
        arm.push(parse_seq(&trees[i + 1..end]));
        arms.push(Node::Seq(arm));
        i = end + (trees.get(end).and_then(Tree::punct) == Some(",")) as usize;
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SrcFile {
        SrcFile::parse("crates/demo/src/lib.rs".into(), src.into())
    }

    /// Comments and string literals are not tokens, so they lower to nothing.
    #[test]
    fn strings_and_comments_are_not_events() {
        let src = "fn f(p: &Pool) {
            p.write_u64(0, 1); // p.persist(0, 8) — only a comment!
            let claim = \"persist(\";
        }";
        assert_eq!(events_of(src), ["call write_u64", ";", ";"]);
    }

    /// A closure body is a `Loop` (zero or more runs), also when a parameter
    /// is typed `fn(…) -> …`: that is no nested `fn` item.
    #[test]
    fn closure_bodies_are_zero_or_more() {
        let shape = |src: &str| format!("{:?}", functions(&parse(src))[0].body);
        let each = shape("fn f(v: &[u64]) { v.iter().for_each(|&x| { put(x); }); }");
        assert!(each.contains("Loop(Seq([Seq([Seq([]), Call(Call { name: \"put\""), "{each}");
        let fn_param = "fn f(p: &Pool) { let col = |g: fn(&S) -> u64| { p.write_u64(0, 1); }; }";
        assert_eq!(events_of(fn_param), ["call write_u64", ";", ";"]);
    }

    #[test]
    fn nested_fns_are_lowered_separately() {
        let src = "fn outer(p: &Pool) {
            fn inner(p: &Pool) { p.write_u64(0, 1); }
            p.persist(0, 8);
        }";
        let file = parse(src);
        let names: Vec<&str> = functions(&file).iter().map(|f| f.item.name).collect();
        assert_eq!(names, ["outer", "inner"]);
        assert_eq!(events_of(src), ["call persist", ";"], "inner's body is not outer's");
    }

    /// `return`, `break`, `?` and `panic!` are no events of their own; what
    /// they evaluate is.
    #[test]
    fn exits_lower_the_expressions_they_evaluate() {
        assert_eq!(events("return self.a(); x()?; if c() { break } panic!(\"{}\", self.b())"), [
            "call a",
            ";",
            "call x",
            ";",
            "call c",
            "call b"
        ]);
    }

    // -- ISSUE 8: interprocedural plumbing ---------------------------------

    fn calls_of(src: &str) -> Vec<Call> {
        let trees = parse(src);
        let fns = functions(&trees);
        let mut out = Vec::new();
        for f in &fns {
            f.body.each(&mut |n| {
                if let Node::Call(c) = n {
                    out.push(c.clone());
                }
            });
        }
        out
    }

    #[test]
    fn call_sites_carry_receiver_hints() {
        let calls = calls_of(
            "fn f(&self, c: &Chain) {
                self.publish(1);
                Self::assoc(2);
                KeyChain::open(3);
                chain.append(4);
                self.history(h).append(5);
                KeyChain::open(d).append(6);
                free_call(7);
                path::module::helper(8);
            }",
        );
        let by_name = |n: &str| calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(by_name("publish").hint, Hint::SelfTy);
        assert!(by_name("publish").dotted);
        assert_eq!(by_name("assoc").hint, Hint::SelfTy);
        assert!(!by_name("assoc").dotted);
        assert_eq!(by_name("open").hint, Hint::Ty("KeyChain".into()));
        assert_eq!(
            by_name("append").hint,
            Hint::Ret { func: "chain".into(), owner: None },
            "field receiver resolves through getters named the same"
        );
        let appends: Vec<_> = calls.iter().filter(|c| c.name == "append").collect();
        assert_eq!(appends.len(), 3);
        assert_eq!(appends[1].hint, Hint::Ret { func: "history".into(), owner: None });
        assert_eq!(
            appends[2].hint,
            Hint::Ret { func: "open".into(), owner: Some("KeyChain".into()) }
        );
        assert_eq!(by_name("free_call").hint, Hint::None);
        assert!(!by_name("free_call").dotted);
        assert_eq!(by_name("helper").hint, Hint::None, "module paths are free calls");
    }

    #[test]
    fn fence_primitive_vs_atomic_fence() {
        let calls = calls_of(
            "fn f(&self) {
                self.pool.fence();
                fence(Ordering::SeqCst);
                self.publish_fence();
            }",
        );
        let fences: Vec<_> = calls.iter().filter(|c| c.name == "fence").collect();
        assert_eq!(fences.len(), 2);
        assert!(fences[0].sfence, "bare fence() is the store-fence primitive");
        assert!(!fences[1].sfence, "fence(Ordering) is an atomic fence, not an sfence");
        assert!(!calls.iter().find(|c| c.name == "publish_fence").unwrap().sfence);
    }

    #[test]
    fn constructors_are_not_calls() {
        let calls = calls_of("fn f() { let x = Some(compute(1)); Ok(Vec::new()) }");
        let names: Vec<_> = calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"compute"));
        assert!(names.contains(&"new"));
        assert!(!names.contains(&"Some") && !names.contains(&"Ok"));
    }

    #[test]
    fn lock_sites_chain_and_binding() {
        let trees = parse(
            "fn f(&self) {
                let mut large = self.large_free.lock();
                drop(large);
                if let Ok(mut free) = FREE_IDS.lock() { free.push(1); }
                *self.captured.lock() = Some(1);
                let guard = pool.txn_lock().lock();
                let shard = self.shards[me].lock();
            }",
        );
        let fns = functions(&trees);
        let mut locks = Vec::new();
        let mut unlocked = Vec::new();
        fns[0].body.each(&mut |n| match n {
            Node::Lock(s) => locks.push(s.clone()),
            Node::Unlock { binding } => unlocked.push(binding.as_str()),
            _ => {}
        });
        assert_eq!(locks.len(), 5);
        assert_eq!(locks[0].chain, vec!["self", "large_free"]);
        assert_eq!(locks[0].binding.as_deref(), Some("large"));
        assert_eq!(locks[1].chain, vec!["FREE_IDS"]);
        assert_eq!(locks[1].binding.as_deref(), Some("free"));
        assert_eq!(locks[2].chain, vec!["self", "captured"]);
        assert_eq!(locks[2].binding, None, "temporary guard has no binding");
        assert_eq!(locks[3].chain, vec!["pool", "txn_lock"]);
        assert_eq!(locks[3].binding.as_deref(), Some("guard"));
        assert_eq!(locks[4].chain, vec!["self", "shards"]);
        assert_eq!(locks[4].binding.as_deref(), Some("shard"));
        assert_eq!(unlocked, ["large"], "the drop produced an Unlock");
    }

    /// Every leaf event of `fn f`'s body, rendered one per entry.
    fn events(body: &str) -> Vec<String> {
        events_of(&format!("fn f(&self, p: *mut N) {{ {body} }}"))
    }

    /// Every leaf event of the first fn in `src`.
    fn events_of(src: &str) -> Vec<String> {
        let file = parse(src);
        let mut out = Vec::new();
        functions(&file)[0].body.each(&mut |n| {
            out.push(match n {
                Node::Lock(s) => format!(
                    "{} {}{}",
                    if s.rw { "rw?" } else { "lock" },
                    s.chain.join("."),
                    s.binding.as_ref().map(|b| format!(" -> {b}")).unwrap_or_default()
                ),
                Node::Call(c) => format!("call {}", c.name),
                Node::Unlock { binding } => format!("drop {binding}"),
                Node::StmtEnd => ";".to_string(),
                other => format!("{other:?}"),
            })
        });
        out
    }

    /// The right side of a plain `=` runs before the place; `op=` and
    /// method calls keep source order.
    #[test]
    fn a_plain_assignment_lowers_its_value_first() {
        assert_eq!(events("*self.x.lock() = self.y(); self.a.lock().push(self.b());"), [
            "call y",
            "lock self.x",
            ";",
            "lock self.a",
            "call b",
            "call push",
            ";"
        ]);
        assert_eq!(events("*self.c.lock() += self.d(); if e() { f() } g().h = i()"), [
            "lock self.c",
            "call d",
            ";",
            "call e",
            "call f",
            "call i",
            "call g"
        ]);
        // An expression-bodied match arm or closure is lowered the same way.
        assert_eq!(events("match k { _ => *self.x.lock() = self.y(), }"), ["call y", "lock self.x"]);
        assert_eq!(events("|| *self.x.lock() = self.y()"), ["call y", "lock self.x"]);
        // A closure's parameter list does not end the body it starts.
        assert_eq!(events("match k { _ => |a, b| *self.x.lock() = b(a), _ => c() }"), [
            "call b",
            "lock self.x",
            "call c"
        ]);
    }

    #[test]
    fn read_and_write_are_lock_candidates_after_their_call() {
        assert_eq!(events("let g = self.idx.write(); sock.read(); file.write(buf);"), [
            "call write",
            "rw? self.idx -> g",
            ";",
            "call read",
            "rw? sock",
            ";",
            "call write",
            ";"
        ]);
        assert_eq!(events("let g = self.m.lock(); drop(g);"), [
            "lock self.m -> g",
            ";",
            "drop g",
            ";"
        ]);
    }

    /// Where a header's temporaries end: before the body of a plain `if` /
    /// `while`, after the body of `match` / `for` / `if let` / `while let`.
    #[test]
    fn header_scopes() {
        let shape = |src: &str| {
            let file = parse(&format!("fn f(&self) {{ {src} }}"));
            let Node::Seq(top) = &functions(&file)[0].body else { unreachable!() };
            top.iter()
                .map(|n| match n {
                    Node::Seq(cs) => format!("Seq{}", cs.len()),
                    Node::Branch(_) => "Branch".to_string(),
                    Node::Loop(_) => "Loop".to_string(),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
        };
        // A call is two nodes: its arguments' `Seq`, then the call.
        assert_eq!(shape("if c() { a(); }"), ["Seq2", "Branch"]);
        assert_eq!(shape("while c() { a(); }"), ["Seq2", "Loop"]);
        assert_eq!(shape("match c() { _ => a() }"), ["Seq3"]);
        assert_eq!(shape("for x in c() { a(); }"), ["Seq3"]);
        assert_eq!(shape("if let x = c() { a(); }"), ["Seq3"], "call, branch");
        assert_eq!(shape("while let x = c() { a(); }"), ["Seq3"]);
        // A block in the scrutinee is not the match body, and is not lost.
        assert_eq!(
            events("match unsafe { key(p) }.cmp(k) { _ => a() }"),
            ["call key", "call cmp", "call a"]
        );
        // An expression-bodied arm ends at its comma, also when it exits.
        assert_eq!(events("match k { 0 => return a(), _ => c() }"), ["call a", "call c"]);
        // Each `else` is one more alternative of the same branch.
        let chain = "if c() { a(); } else if d() { b(); } else { e(); }";
        assert_eq!(shape(chain), ["Seq2", "Branch"]);
        assert_eq!(events("if c() { a() } else if d() { b() } else { e() }"), [
            "call c", "call a", "call d", "call b", "call e"
        ]);
    }

    #[test]
    fn owner_and_ret_idents_are_threaded() {
        let trees = parse(
            "impl<'a, T: Clone> PSkipList<T> {
                fn history(&self) -> History<PHistory<'a>> { make() }
                fn plain(&self) {}
            }
            impl fmt::Debug for Pool {
                fn fmt(&self, f: &mut Formatter) -> fmt::Result { write(f) }
            }
            trait Service {
                fn ping(&self) -> Self { self.clone() }
            }
            fn free() -> Result<Vec<Entry>> { make() }",
        );
        let fns = functions(&trees);
        let f = |n: &str| fns.iter().find(|f| f.item.name == n).unwrap();
        assert_eq!(f("history").item.owner, Some("PSkipList"));
        assert_eq!(f("history").ret_idents, vec!["History", "PHistory"]);
        assert_eq!(f("plain").item.owner, Some("PSkipList"));
        assert_eq!(f("fmt").item.owner, Some("Pool"), "trait impl owner is after `for`");
        assert_eq!(f("ping").item.owner, Some("Service"));
        assert_eq!(f("ping").ret_idents, vec!["Service"], "Self maps to the owner");
        assert_eq!(f("free").item.owner, None);
        assert_eq!(f("free").ret_idents, vec!["Result", "Vec", "Entry"]);
    }
}
