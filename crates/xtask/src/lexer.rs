//! A small hand-rolled Rust lexer and token-tree builder.
//!
//! This is deliberately *not* a full Rust parser: the analyzer only needs
//! identifiers, punctuation, literals and matched delimiter groups, plus the
//! byte offset and line of every token so findings map back to source. What
//! it must get exactly right — because the passes' soundness depends on
//! it — are the ambiguous lexes:
//!
//! * `'a` lifetime vs `'a'` char literal (a lifetime has no closing quote
//!   after its identifier run),
//! * raw strings `r"…"` / `r#"…"#` (arbitrarily many hashes, no escapes)
//!   and their `b`/`c` prefixed cousins,
//! * nested block comments,
//! * multi-char operators (`::` must not lex as `:` `:`, or the facade
//!   pass's path match breaks).
//!
//! Doc comments (`///`) are kept as [`TokKind::Doc`] tokens because the
//! layout pass discovers PM-resident types through doc markers; all other
//! comments are skipped. The position of every `//` comment (doc or not) is
//! reported beside the tokens, so the front end can answer "which comment
//! sits on this line" without a second scan of the text.

/// Token classification. `Ident` covers keywords too — the passes match on
/// text where it matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,
    Lifetime,
    Punct,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte-char literal.
    Char,
    Num,
    /// Outer doc comment (`/// …`); text is the content after the slashes.
    Doc,
}

#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    /// Byte offset of the token's first byte in the original source.
    pub off: usize,
    /// 1-based source line.
    pub line: u32,
}

/// A token tree: either a leaf token or a delimiter-matched group.
#[derive(Debug, Clone)]
pub enum Tree {
    Leaf(Tok),
    Group(Group),
}

#[derive(Debug, Clone)]
pub struct Group {
    /// Opening delimiter: `(`, `[` or `{`.
    pub delim: char,
    pub trees: Vec<Tree>,
    pub off: usize,
    pub line: u32,
    /// Byte offset of the closing delimiter (`usize::MAX` when the group
    /// runs to the end of the input unclosed).
    pub end: usize,
}

impl Tree {
    pub fn ident(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }

    pub fn punct(&self) -> Option<&str> {
        match self {
            Tree::Leaf(t) if t.kind == TokKind::Punct => Some(&t.text),
            _ => None,
        }
    }

    pub fn group(&self) -> Option<&Group> {
        match self {
            Tree::Group(g) => Some(g),
            Tree::Leaf(_) => None,
        }
    }

    pub fn line(&self) -> u32 {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.line,
        }
    }

    pub fn off(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.off,
            Tree::Group(g) => g.off,
        }
    }
}

/// Multi-char operators, longest first so maximal munch picks `..=` over
/// `..` over `.`.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Lexer<'a> {
    b: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Lexer<'a> {
    fn bump_lines(&mut self, from: usize, to: usize) {
        self.line += self.b[from..to].iter().filter(|&&c| c == b'\n').count() as u32;
    }

    fn peek(&self, ahead: usize) -> u8 {
        self.b.get(self.pos + ahead).copied().unwrap_or(0)
    }
}

/// What [`lex`] returns: the token stream, and `(line, byte offset)` of the
/// `//` that opens each line comment.
pub struct Lexed {
    pub toks: Vec<Tok>,
    pub comments: Vec<(u32, usize)>,
}

/// Lexes `src` into a flat token stream. Unterminated literals are tolerated
/// (consumed to end of input) — the analyzer must never panic on weird but
/// compiling source, and plain never panic on non-compiling source either.
pub fn lex(src: &str) -> Lexed {
    let mut lx = Lexer { b: src.as_bytes(), pos: 0, line: 1 };
    let mut out = Vec::new();
    let mut comments = Vec::new();
    while lx.pos < lx.b.len() {
        let c = lx.b[lx.pos];
        let start = lx.pos;
        let line = lx.line;
        match c {
            b' ' | b'\t' | b'\r' => lx.pos += 1,
            b'\n' => {
                lx.pos += 1;
                lx.line += 1;
            }
            b'/' if lx.peek(1) == b'/' => {
                let is_doc = lx.peek(2) == b'/' && lx.peek(3) != b'/';
                let end = memchr_newline(lx.b, lx.pos);
                comments.push((line, start));
                if is_doc {
                    let text = String::from_utf8_lossy(&lx.b[lx.pos + 3..end]).into_owned();
                    out.push(Tok { kind: TokKind::Doc, text, off: start, line });
                }
                lx.pos = end;
            }
            b'/' if lx.peek(1) == b'*' => {
                let mut depth = 1usize;
                let mut i = lx.pos + 2;
                while i < lx.b.len() && depth > 0 {
                    if lx.b[i] == b'/' && lx.b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if lx.b[i] == b'*' && lx.b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                lx.bump_lines(lx.pos, i.min(lx.b.len()));
                lx.pos = i;
            }
            b'\'' => {
                // Lifetime or char literal. `'ident` with no closing quote
                // after the identifier run is a lifetime; everything else
                // (including `'\n'` and `'a'`) is a char literal.
                let mut j = lx.pos + 1;
                if lx.peek(1) != b'\\' {
                    while j < lx.b.len() && (lx.b[j].is_ascii_alphanumeric() || lx.b[j] == b'_' || lx.b[j] >= 0x80)
                    {
                        j += 1;
                    }
                }
                let is_lifetime =
                    j > lx.pos + 1 && lx.b.get(j) != Some(&b'\'') && lx.peek(1) != b'\\';
                if is_lifetime {
                    let text = String::from_utf8_lossy(&lx.b[lx.pos..j]).into_owned();
                    out.push(Tok { kind: TokKind::Lifetime, text, off: start, line });
                    lx.pos = j;
                } else {
                    // Char literal: consume to the closing quote, honoring
                    // backslash escapes.
                    let mut i = lx.pos + 1;
                    while i < lx.b.len() {
                        match lx.b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => break, // stray quote; don't eat the file
                            _ => i += 1,
                        }
                    }
                    let i = i.min(lx.b.len());
                    lx.bump_lines(lx.pos, i);
                    out.push(Tok {
                        kind: TokKind::Char,
                        text: String::from_utf8_lossy(&lx.b[start..i]).into_owned(),
                        off: start,
                        line,
                    });
                    lx.pos = i;
                }
            }
            b'"' => {
                let i = eat_string(lx.b, lx.pos);
                lx.bump_lines(lx.pos, i);
                out.push(Tok {
                    kind: TokKind::Str,
                    text: String::from_utf8_lossy(&lx.b[start..i]).into_owned(),
                    off: start,
                    line,
                });
                lx.pos = i;
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                let mut j = lx.pos + 1;
                while j < lx.b.len()
                    && (lx.b[j].is_ascii_alphanumeric() || lx.b[j] == b'_' || lx.b[j] >= 0x80)
                {
                    j += 1;
                }
                let ident = &lx.b[lx.pos..j];
                // String prefixes: r"…", r#"…"#, b"…", br#"…"#, c"…".
                let is_prefix = matches!(ident, b"r" | b"b" | b"c" | b"br" | b"rb" | b"cr");
                if is_prefix && (lx.b.get(j) == Some(&b'"') || raw_hashes(lx.b, j).is_some()) {
                    let end = if ident.contains(&b'r') {
                        eat_raw_string(lx.b, j)
                    } else {
                        eat_string(lx.b, j)
                    };
                    lx.bump_lines(lx.pos, end);
                    out.push(Tok {
                        kind: TokKind::Str,
                        text: String::from_utf8_lossy(&lx.b[start..end]).into_owned(),
                        off: start,
                        line,
                    });
                    lx.pos = end;
                } else if ident == b"b" && lx.b.get(j) == Some(&b'\'') {
                    // Byte-char literal b'x': fold into one Char token.
                    let mut i = j + 1;
                    while i < lx.b.len() {
                        match lx.b[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    let i = i.min(lx.b.len());
                    out.push(Tok {
                        kind: TokKind::Char,
                        text: String::from_utf8_lossy(&lx.b[start..i]).into_owned(),
                        off: start,
                        line,
                    });
                    lx.pos = i;
                } else {
                    out.push(Tok {
                        kind: TokKind::Ident,
                        text: String::from_utf8_lossy(ident).into_owned(),
                        off: start,
                        line,
                    });
                    lx.pos = j;
                }
            }
            c if c.is_ascii_digit() => {
                let mut j = lx.pos + 1;
                let mut seen_dot = false;
                while j < lx.b.len() {
                    let d = lx.b[j];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        j += 1;
                    } else if d == b'.'
                        && !seen_dot
                        && lx.b.get(j + 1).is_some_and(u8::is_ascii_digit)
                    {
                        seen_dot = true;
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.push(Tok {
                    kind: TokKind::Num,
                    text: String::from_utf8_lossy(&lx.b[start..j]).into_owned(),
                    off: start,
                    line,
                });
                lx.pos = j;
            }
            _ => {
                let rest = &lx.b[lx.pos..];
                let mut matched = None;
                for p in PUNCTS {
                    if rest.starts_with(p.as_bytes()) {
                        matched = Some(*p);
                        break;
                    }
                }
                let text = match matched {
                    Some(p) => p.to_string(),
                    None => (lx.b[lx.pos] as char).to_string(),
                };
                lx.pos += text.len();
                out.push(Tok { kind: TokKind::Punct, text, off: start, line });
            }
        }
    }
    Lexed { toks: out, comments }
}

fn memchr_newline(b: &[u8], from: usize) -> usize {
    b[from..].iter().position(|&c| c == b'\n').map(|p| p + from).unwrap_or(b.len())
}

/// Consumes a `"…"` string starting at the opening quote; returns the index
/// one past the closing quote.
fn eat_string(b: &[u8], quote_at: usize) -> usize {
    let mut i = quote_at + 1;
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            _ => i += 1,
        }
    }
    b.len()
}

/// If position `i` starts `#…#"` (zero or more hashes then a quote), returns
/// the hash count.
fn raw_hashes(b: &[u8], mut i: usize) -> Option<usize> {
    let mut hashes = 0;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    (hashes > 0 && b.get(i) == Some(&b'"')).then_some(hashes)
}

/// Consumes a raw string whose hash run starts at `i` (which may be the
/// quote itself for `r"…"`); returns the index one past the final hash.
fn eat_raw_string(b: &[u8], mut i: usize) -> usize {
    let mut hashes = 0;
    while b.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if b.get(i) != Some(&b'"') {
        return i; // not actually a raw string; bail without consuming
    }
    i += 1;
    while i < b.len() {
        if b[i] == b'"' {
            let mut k = 0;
            while k < hashes && b.get(i + 1 + k) == Some(&b'#') {
                k += 1;
            }
            if k == hashes {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    b.len()
}

/// Builds matched-delimiter token trees from a flat stream. Stray closers
/// are dropped; unclosed groups close at end of input (never panic on
/// malformed source).
pub fn build_trees(toks: Vec<Tok>) -> Vec<Tree> {
    /// An open group: delimiter, offset, line, and the siblings before it.
    type Open = (char, usize, u32, Vec<Tree>);
    fn close(stack: &mut Vec<Open>, cur: &mut Vec<Tree>, end: usize) {
        let (delim, off, line, parent) = stack.pop().expect("caller checked the stack");
        let trees = std::mem::replace(cur, parent);
        cur.push(Tree::Group(Group { delim, trees, off, line, end }));
    }
    let mut stack: Vec<Open> = Vec::new();
    let mut cur: Vec<Tree> = Vec::new();
    for t in toks {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => {
                    let delim = t.text.chars().next().unwrap();
                    stack.push((delim, t.off, t.line, std::mem::take(&mut cur)));
                    continue;
                }
                ")" | "]" | "}" => {
                    let want = match t.text.as_str() {
                        ")" => '(',
                        "]" => '[',
                        _ => '{',
                    };
                    if let Some(pos) = stack.iter().rposition(|(d, ..)| *d == want) {
                        // Close any unclosed inner groups implicitly.
                        while stack.len() > pos {
                            close(&mut stack, &mut cur, t.off);
                        }
                    }
                    continue;
                }
                _ => {}
            }
        }
        cur.push(Tree::Leaf(t));
    }
    while !stack.is_empty() {
        close(&mut stack, &mut cur, usize::MAX);
    }
    cur
}

/// Renders a type-position token sequence to a canonical string: no spaces
/// except between two word-like tokens, groups rendered with their
/// delimiters. Deterministic regardless of source formatting.
pub fn render_type(trees: &[Tree]) -> String {
    let mut out = String::new();
    render_into(trees, &mut out);
    out
}

fn render_into(trees: &[Tree], out: &mut String) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => {
                let wordish = matches!(
                    tok.kind,
                    TokKind::Ident | TokKind::Num | TokKind::Lifetime
                );
                if wordish && out.chars().last().is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    out.push(' ');
                }
                if tok.kind != TokKind::Doc {
                    out.push_str(&tok.text);
                }
            }
            Tree::Group(g) => {
                let (open, close) = match g.delim {
                    '(' => ('(', ')'),
                    '[' => ('[', ']'),
                    _ => ('{', '}'),
                };
                out.push(open);
                render_into(&g.trees, out);
                out.push(close);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<Tree> {
        build_trees(lex(src).toks)
    }

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).toks.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let nl = '\\n'; }");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".into())));
        assert!(toks.contains(&(TokKind::Char, "'x'".into())));
        assert!(toks.contains(&(TokKind::Char, "'\\n'".into())));
        // The lifetime must appear twice (decl and use) and never as a char.
        assert_eq!(toks.iter().filter(|t| t.0 == TokKind::Lifetime).count(), 2);
    }

    #[test]
    fn static_lifetime_and_loop_labels() {
        let toks = kinds("fn f(s: &'static str) { 'outer: loop { break 'outer; } }");
        let lifetimes: Vec<_> =
            toks.iter().filter(|t| t.0 == TokKind::Lifetime).map(|t| t.1.clone()).collect();
        assert_eq!(lifetimes, vec!["'static", "'outer", "'outer"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r##"let s = r#"unsafe { "quoted" }"#; let t = 1;"##);
        assert!(toks.iter().any(|t| t.0 == TokKind::Str && t.1.contains("unsafe")));
        // Nothing inside the raw string leaked out as idents.
        assert!(!toks.iter().any(|t| t.0 == TokKind::Ident && t.1 == "unsafe"));
        assert!(toks.contains(&(TokKind::Ident, "t".into())));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds("let a = b\"persist\"; let c = b'x';");
        assert!(toks.iter().any(|t| t.0 == TokKind::Str && t.1.contains("persist")));
        assert!(!toks.iter().any(|t| t.0 == TokKind::Ident && t.1 == "persist"));
        assert!(toks.iter().any(|t| t.0 == TokKind::Char && t.1 == "b'x'"));
    }

    #[test]
    fn nested_block_comments_skip_cleanly() {
        let toks = kinds("a /* x /* y */ still comment */ b");
        let idents: Vec<_> =
            toks.iter().filter(|t| t.0 == TokKind::Ident).map(|t| t.1.clone()).collect();
        assert_eq!(idents, vec!["a", "b"]);
    }

    #[test]
    fn doc_comments_become_tokens_but_plain_comments_vanish() {
        let toks = kinds("/// pm-resident — stored in the pool\n// not a doc\nstruct S;");
        assert!(toks.iter().any(|t| t.0 == TokKind::Doc && t.1.contains("pm-resident")));
        assert!(!toks.iter().any(|t| t.1.contains("not a doc")));
    }

    #[test]
    fn multichar_puncts_lex_whole() {
        let toks = kinds("a => b -> c :: d ..= e .. f >>= g");
        let puncts: Vec<_> =
            toks.iter().filter(|t| t.0 == TokKind::Punct).map(|t| t.1.clone()).collect();
        assert_eq!(puncts, vec!["=>", "->", "::", "..=", "..", ">>="]);
    }

    #[test]
    fn numbers_do_not_swallow_ranges() {
        let toks = kinds("for i in 0..10 { let f = 1.5; }");
        assert!(toks.contains(&(TokKind::Num, "0".into())));
        assert!(toks.contains(&(TokKind::Punct, "..".into())));
        assert!(toks.contains(&(TokKind::Num, "10".into())));
        assert!(toks.contains(&(TokKind::Num, "1.5".into())));
    }

    #[test]
    fn tree_builder_nests_and_recovers() {
        let trees = parse("fn f() { if x { g(1, [2, 3]); } }");
        // fn f () { … }
        assert_eq!(trees.len(), 4);
        let body = trees[3].group().unwrap();
        assert_eq!(body.delim, '{');
        let inner = body.trees[2].group().unwrap(); // `if` `x` `{ … }`
        assert_eq!(inner.delim, '{');
        // Unbalanced input must not panic and must keep the leaves.
        let broken = parse("fn f( { ) }");
        assert!(!broken.is_empty());
    }

    #[test]
    fn macro_bodies_lex_as_ordinary_trees() {
        let trees = parse("macro_rules! m { ($x:expr) => { $x + 1 }; }");
        assert!(trees.iter().any(|t| t.ident() == Some("macro_rules")));
        let body = trees.last().unwrap().group().unwrap();
        assert!(body.trees.iter().any(|t| t.punct() == Some("=>")));
    }

    #[test]
    fn render_type_is_format_insensitive() {
        let a = parse("PhantomData < fn ( ) -> T >");
        let b = parse("PhantomData<fn() -> T>");
        assert_eq!(render_type(&a), render_type(&b));
        let arr = parse("[ u8 ; 16 ]");
        assert_eq!(render_type(&arr), "[u8;16]");
    }

    #[test]
    fn offsets_and_lines_track_source() {
        let src = "let a = 1;\nlet b = \"x\ny\";\nlet c = 2;";
        let toks = lex(src).toks;
        let c = toks.iter().find(|t| t.text == "c").unwrap();
        assert_eq!(c.line, 4, "multi-line string must advance the line counter");
        assert_eq!(&src[c.off..c.off + 1], "c");
    }
}
