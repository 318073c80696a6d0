//! Statement-level control-flow graphs and the persist-ordering dataflow
//! pass.
//!
//! The invariant being checked (paper §IV-A / Algorithm 1): a function that
//! dirties persistent memory through [`write_u64`]/[`write_bytes`]/
//! [`zero_bytes`] must reach a `persist`/`flush`/`fence` call after its last
//! dirty write **on every control-flow path** before returning. The retired
//! line-scanning lint compared the positions of the *textually last* write
//! and flush tokens, so
//!
//! ```text
//! pool.write_u64(off, v);
//! if cfg.eager { pool.persist(off, 8); }   // flush on ONE path only
//! ```
//!
//! passed even though the `!eager` path publishes dirty data. This pass
//! parses each function body into a small branch/loop/exit AST and runs a
//! two-point dataflow (clean ⊑ dirty) over it, so the snippet above is a
//! violation while per-arm flushes, early returns before the first write and
//! loops that persist each iteration all check precisely.
//!
//! The AST is the one lowering of a function body, read by every
//! flow-sensitive pass. Besides writes and flushes it records **calls**
//! (with enough receiver context to resolve them against the workspace
//! function index), **lock sites** (zero-argument `.lock()` / `.try_lock()`,
//! and `.read()` / `.write()` as candidates the consumer confirms against
//! the `RwLock` inventory, each with its dotted chain and the `let` binding
//! the guard lands in), explicit **`drop(guard)`** releases, **field
//! accesses** (head, path, operation), **`let` bindings** and **statement
//! ends** — what the lock-order pass and the race audit need to keep a
//! stack of live guards (`locks::walk_held`) and to attribute accesses. The
//! dataflow is parameterized over a [`CallOracle`] so the interprocedural
//! summary layer (`summary.rs`) can plug per-function transfer functions into
//! the same evaluator; an oracle that answers [`Transfer::IDENTITY`] for every
//! call (the tests' `NoOracle`) keeps the original intraprocedural semantics
//! where calls are effect-free.
//!
//! Deliberate parity with the old lint where address tracking would be
//! needed: *any* flush call clears the dirty state (the pass does not prove
//! the flushed range covers the written range), and panicking paths carry no
//! obligation — a panic is equivalent to a crash, which recovery already
//! handles.

use crate::analyze::Finding;
use crate::lexer::{until_brace, Group, TokKind, Tree};
use crate::source::{FnItem, SrcFile};
use crate::summary::Workspace;

/// Crates whose functions the persist-ordering dataflow analyzes: everything
/// that issues dirty PM writes directly or through a pool handle.
const PERSIST_DIRS: &[&str] =
    &["crates/pmem/src", "crates/vhistory/src", "crates/keychain/src", "crates/core/src"];

/// The persist-ordering pass: the dataflow over every audited fn, with call
/// effects resolved through the workspace summaries.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in ws.fns_in(PERSIST_DIRS) {
        let (info, file) = (ws.fn_info(i), ws.fn_rel(i));
        for exit in dirty_exits_with(&info.body, info.end_line, &ws.oracle(i)) {
            let msg = exit.describe(info.item.name);
            out.push(Finding::new("persist-ordering", file, exit.write_line, msg));
        }
    }
    out
}

/// Names treated as dirtying persistent memory when called.
const DIRTY_CALLS: &[&str] = &["write_u64", "write_bytes", "zero_bytes"];

const ASSIGN_OPS: &[&str] = &["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="];

/// Macros whose invocation ends the path with no persist obligation.
const ABORT_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// True for callee names that flush or order persistent stores. Matched
/// structurally (prefix/suffix), not by substring, so `fence_count()` — a
/// getter — is *not* a flush.
pub(crate) fn is_flush_name(name: &str) -> bool {
    name == "persist"
        || name.starts_with("persist_")
        || name == "flush"
        || name.ends_with("_flush")
        || name == "fence"
        || name.ends_with("_fence")
        || name == "sync_all"
}

fn is_dirty_name(name: &str) -> bool {
    DIRTY_CALLS.contains(&name)
}

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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// Explicit `return`.
    Return,
    /// `?` early exit.
    Try,
    /// Fall-through at the end of the body.
    Implicit,
}

impl ExitKind {
    fn describe(self) -> &'static str {
        match self {
            ExitKind::Return => "`return`",
            ExitKind::Try => "`?` early exit",
            ExitKind::Implicit => "fall-through return",
        }
    }
}

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
    /// that *contain* an sfence are counted through resolution instead.
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

/// What an access does to the field it ends at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Read,
    /// Left side of `=` / `+=` / ….
    Assign,
    /// `&mut head.….field`.
    MutRef,
    /// `head.….field.method(…)`.
    Method(String),
}

/// One field segment of a dotted chain. `self.a.b.push(x)` is two accesses:
/// `[self, a]` read, `[self, a, b]` `Method("push")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Access {
    pub line: u32,
    /// Head ident (`self`, a local, a parameter, a static — the consumer
    /// classifies it; `*` for a `(*ptr).field` deref), the segments between,
    /// and the field last. Chains that start anywhere else — a path, a call
    /// result, a literal — are not emitted.
    pub chain: Vec<String>,
    pub op: Op,
}

#[derive(Debug)]
pub enum Node {
    Seq(Vec<Node>),
    /// A dirty PM write; carries line for reporting.
    Write { line: u32 },
    /// A persist/flush/fence call. Always clears dirtiness; the carried
    /// [`Call`] lets the summary layer count sfences through it.
    Flush(Call),
    /// Any other call with an argument list. Effect depends on the oracle.
    Call(Call),
    /// A lock acquisition (for `rw` sites, a candidate).
    Lock(LockSite),
    /// An explicit `drop(binding)`.
    Unlock { binding: String },
    /// A field access.
    Access(Access),
    /// `let binding = …` / `if let Some(binding) = …`, emitted after the
    /// initializer: from here on the name is a local.
    Let { binding: String },
    /// A `;` directly in a block: temporaries of the statement die here.
    StmtEnd,
    /// Mutually exclusive alternatives (if/else, match arms). An absent
    /// `else` contributes an empty alternative.
    Branch(Vec<Node>),
    /// Body executed zero or more times (loops, closures).
    Loop(Box<Node>),
    Exit { kind: ExitKind, line: u32 },
    /// panic!-like: the path ends with no obligation.
    Abort,
    Break,
    Continue,
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
    /// Last source line of the body (for implicit-exit reporting).
    pub end_line: u32,
    pub body: Node,
}

/// Lowers every non-test `fn` of `file` to its CFG.
pub fn functions(file: &SrcFile) -> Vec<FnInfo<'_>> {
    file.fns()
        .into_iter()
        .map(|item| FnInfo {
            ret_idents: ret_idents(item.sig, item.owner),
            end_line: body_end_line(&item.body.trees).max(item.body.line),
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

fn parse_seq(trees: &[Tree]) -> Node {
    let mut nodes = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        i = parse_one(trees, i, &mut nodes);
    }
    Node::Seq(nodes)
}

/// Parses one construct starting at `i`, pushing nodes; returns the next
/// index.
fn parse_one(trees: &[Tree], i: usize, nodes: &mut Vec<Node>) -> usize {
    let t = &trees[i];
    if let Some(a) = field_access(trees, i) {
        nodes.push(Node::Access(a));
        return i + 1;
    }
    if let Some(kw) = t.ident() {
        match kw {
            "let" => {
                // The initializer runs before the name exists (`let n = n.next;`
                // reads the parameter); `if let` / `while let` end at the body.
                let cond = i > 0 && matches!(trees[i - 1].ident(), Some("if" | "while"));
                let mut j = i + 1;
                let mut pat_end = None;
                while j < trees.len() {
                    let end = match &trees[j] {
                        Tree::Group(g) => cond && g.delim == '{',
                        t => !cond && t.punct() == Some(";"),
                    };
                    if end {
                        break;
                    }
                    if pat_end.is_none() && matches!(trees[j].punct(), Some("=" | ":")) {
                        pat_end = Some(j);
                    }
                    j = parse_one(trees, j, nodes);
                }
                if let Some(binding) = pat_end.and_then(|e| pattern_binding(trees, e)) {
                    nodes.push(Node::Let { binding });
                }
                return j;
            }
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
            "return" => {
                // Effects in the returned expression happen before the exit.
                let mut j = i + 1;
                let mut expr = Vec::new();
                while j < trees.len() && trees[j].punct() != Some(";") {
                    j = parse_one(trees, j, &mut expr);
                }
                nodes.push(Node::Seq(expr));
                nodes.push(Node::Exit { kind: ExitKind::Return, line: t.line() });
                return j;
            }
            "break" | "continue" => {
                let mut j = i + 1;
                let mut expr = Vec::new();
                while j < trees.len() && trees[j].punct() != Some(";") {
                    j = parse_one(trees, j, &mut expr);
                }
                nodes.push(Node::Seq(expr));
                nodes.push(if kw == "break" { Node::Break } else { Node::Continue });
                return j;
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
            name if ABORT_MACROS.contains(&name)
                && trees.get(i + 1).and_then(Tree::punct) == Some("!") =>
            {
                // panic!(…): scan args (format side effects are irrelevant),
                // then the path ends.
                let mut j = i + 2;
                if trees.get(j).and_then(Tree::group).is_some() {
                    j += 1;
                }
                nodes.push(Node::Abort);
                return j;
            }
            name => {
                let Some(Tree::Group(g)) = trees.get(i + 1) else { return i + 1 };
                if g.delim != '(' || is_keyword(name) {
                    return i + 1;
                }
                if is_dirty_name(name) {
                    nodes.push(parse_seq(&g.trees)); // args evaluate first
                    nodes.push(Node::Write { line: t.line() });
                    return i + 2;
                }
                if is_flush_name(name) {
                    nodes.push(parse_seq(&g.trees));
                    let (dotted, hint) = call_hint(trees, i);
                    nodes.push(Node::Flush(Call {
                        name: name.to_string(),
                        line: t.line(),
                        dotted,
                        hint,
                        sfence: name == "fence" && g.trees.is_empty(),
                    }));
                    return i + 2;
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
                    sfence: false,
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
            ";" => {
                nodes.push(Node::StmtEnd);
                return i + 1;
            }
            "?" => {
                nodes.push(Node::Exit { kind: ExitKind::Try, line: t.line() });
                return i + 1;
            }
            "|" | "||" if closure_position(trees, i) => return parse_closure(trees, i, nodes),
            _ => return i + 1,
        }
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

/// The access made by the leaf at `i` when it is a field segment: `.name`
/// or `.0` with no argument list (that is a method: [`Node::Call`]).
fn field_access(trees: &[Tree], i: usize) -> Option<Access> {
    let Tree::Leaf(t) = &trees[i] else { return None };
    if i == 0
        || trees[i - 1].punct() != Some(".")
        || !matches!(t.kind, TokKind::Ident | TokKind::Num)
        || t.text == "await"
        || args_at(trees, i + 1)
    {
        return None;
    }
    let (mut chain, start, _) = chain_back(trees, i - 1);
    match &trees[start] {
        Tree::Group(g) if g.trees.first().and_then(Tree::punct) == Some("*") => {
            chain.insert(0, "*".to_string());
        }
        // A plain name: not a call result, not a path.
        Tree::Leaf(h) if h.kind == TokKind::Ident && !args_at(trees, start + 1) => {}
        _ => return None,
    }
    chain.push(t.text.clone());
    // What happens to the field is what follows it, past `?` and `[…]`.
    let postfix = |t: &Tree| t.punct() == Some("?") || t.group().is_some_and(|g| g.delim == '[');
    let mut j = i + 1;
    while trees.get(j).is_some_and(postfix) {
        j += 1;
    }
    let op = match (trees.get(j).and_then(Tree::punct), trees.get(j + 1)) {
        (Some("."), Some(Tree::Leaf(m))) if args_at(trees, j + 2) => Op::Method(m.text.clone()),
        (Some(p), _) if ASSIGN_OPS.contains(&p) => Op::Assign,
        (Some("."), _) => Op::Read,
        _ if start >= 2
            && trees[start - 2].punct() == Some("&")
            && trees[start - 1].ident() == Some("mut") =>
        {
            Op::MutRef
        }
        _ => Op::Read,
    };
    Some(Access { line: t.line, chain, op })
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
    let mut body = Vec::new();
    if let Some(Tree::Group(g)) = trees.get(j) {
        if g.delim == '{' {
            body.push(parse_seq(&g.trees));
            nodes.push(Node::Loop(Box::new(Node::Seq(body))));
            return j + 1;
        }
    }
    // Expression body: up to a top-level `,` or `;` or end of slice.
    while j < trees.len() {
        if matches!(trees[j].punct(), Some(",") | Some(";")) {
            break;
        }
        j = parse_one(trees, j, &mut body);
    }
    nodes.push(Node::Loop(Box::new(Node::Seq(body))));
    j
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
    let then_node = parse_seq(&g.trees);
    let mut j = body_at + 1;
    let mut alts = vec![then_node];
    if trees.get(j).and_then(Tree::ident) == Some("else") {
        if trees.get(j + 1).and_then(Tree::ident) == Some("if") {
            let mut chained = Vec::new();
            j = parse_if(trees, j + 1, &mut chained);
            alts.push(Node::Seq(chained));
        } else if let Some(Tree::Group(g2)) = trees.get(j + 1) {
            if g2.delim == '{' {
                alts.push(parse_seq(&g2.trees));
                j += 2;
            } else {
                alts.push(Node::Seq(Vec::new()));
                j += 1;
            }
        } else {
            alts.push(Node::Seq(Vec::new()));
            j += 1;
        }
    } else {
        alts.push(Node::Seq(Vec::new())); // if without else: fall-through arm
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
        // Pattern (and optional guard) up to `=>`. Guard effects are folded
        // into the arm — pessimistic but sound for a may-be-dirty analysis.
        let mut pre = Vec::new();
        while i < trees.len() && trees[i].punct() != Some("=>") {
            i = parse_one(trees, i, &mut pre);
        }
        if i >= trees.len() {
            // No `=>` at all: the brace was a block in the scrutinee (`match
            // unsafe { … }.cmp(k) { … }`), whose events still happen.
            if arms.is_empty() {
                arms.push(Node::Seq(pre));
            }
            break;
        }
        i += 1; // past =>
        let mut body = Vec::new();
        if let Some(Tree::Group(g)) = trees.get(i) {
            if g.delim == '{' {
                body.push(parse_seq(&g.trees));
                i += 1;
                if trees.get(i).and_then(Tree::punct) == Some(",") {
                    i += 1;
                }
                let mut arm = pre;
                arm.append(&mut body);
                arms.push(Node::Seq(arm));
                continue;
            }
        }
        while i < trees.len() && trees[i].punct() != Some(",") {
            i = parse_one(trees, i, &mut body);
        }
        if trees.get(i).and_then(Tree::punct) == Some(",") {
            i += 1;
        }
        let mut arm = pre;
        arm.append(&mut body);
        arms.push(Node::Seq(arm));
    }
    arms
}

// ---------------------------------------------------------------------------
// Dataflow
// ---------------------------------------------------------------------------

/// Provenance of a dirty state: the line that dirtied it, and whether it was
/// a direct `write_*` or a call whose summary says it may leave PM dirty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dirt {
    pub line: u32,
    pub via_call: bool,
}

/// Path state: `None` = clean, `Some(d)` = dirty since `d`.
type St = Option<Dirt>;

fn merge(a: St, b: St) -> St {
    a.or(b)
}

/// How a call transforms the dirty state — the interprocedural transfer
/// function of the callee, joined over every candidate it may resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Entering clean, the callee may exit with PM dirty.
    pub dirty_when_clean: bool,
    /// Entering dirty, the callee flushes on *every* path before exiting.
    pub clean_when_dirty: bool,
}

impl Transfer {
    /// Unresolved calls: no effect on the state (the original
    /// intraprocedural semantics).
    pub const IDENTITY: Transfer = Transfer { dirty_when_clean: false, clean_when_dirty: false };
}

/// Supplies a [`Transfer`] per call site. The summary layer implements this
/// over the workspace function index; answering [`Transfer::IDENTITY`] every
/// time is the intraprocedural degenerate.
pub trait CallOracle {
    fn transfer(&self, call: &Call) -> Transfer;
}

#[derive(Default)]
struct Flow {
    /// State at normal fall-through (None if the path diverges).
    out: Option<St>,
    /// (kind, exit line, state at exit).
    exits: Vec<(ExitKind, u32, St)>,
    breaks: Vec<St>,
    continues: Vec<St>,
}

fn eval(n: &Node, st: St, oracle: &dyn CallOracle) -> Flow {
    match n {
        Node::Seq(children) => {
            let mut flow = Flow { out: Some(st), ..Default::default() };
            for c in children {
                let Some(cur) = flow.out else { break };
                let f = eval(c, cur, oracle);
                flow.exits.extend(f.exits);
                flow.breaks.extend(f.breaks);
                flow.continues.extend(f.continues);
                flow.out = f.out;
            }
            flow
        }
        Node::Write { line } => Flow {
            out: Some(Some(Dirt { line: *line, via_call: false })),
            ..Default::default()
        },
        Node::Flush(_) => Flow { out: Some(None), ..Default::default() },
        Node::Call(call) => {
            let t = oracle.transfer(call);
            let out = match st {
                None if t.dirty_when_clean => Some(Dirt { line: call.line, via_call: true }),
                Some(_) if t.clean_when_dirty => None,
                s => s,
            };
            Flow { out: Some(out), ..Default::default() }
        }
        // Events of the guard tracker and the race audit: no effect on dirtiness.
        Node::Lock(_)
        | Node::Unlock { .. }
        | Node::Access(_)
        | Node::Let { .. }
        | Node::StmtEnd => Flow { out: Some(st), ..Default::default() },
        Node::Branch(alts) => {
            let mut flow = Flow::default();
            let mut out: Option<St> = None;
            for a in alts {
                let f = eval(a, st, oracle);
                flow.exits.extend(f.exits);
                flow.breaks.extend(f.breaks);
                flow.continues.extend(f.continues);
                out = match (out, f.out) {
                    (None, o) => o,
                    (o, None) => o,
                    (Some(x), Some(y)) => Some(merge(x, y)),
                };
            }
            flow.out = out;
            flow
        }
        Node::Loop(body) => {
            // Two-pass fixpoint: the lattice has height 2, so evaluating the
            // body once more from the widened entry state reaches it.
            let first = eval(body, st, oracle);
            let mut widened = st;
            if let Some(o) = first.out {
                widened = merge(widened, o);
            }
            for c in &first.continues {
                widened = merge(widened, *c);
            }
            let second = eval(body, widened, oracle);
            let mut flow = Flow::default();
            flow.exits.extend(second.exits);
            // Loop exit: zero iterations, normal body fall-through, or break.
            let mut out = st;
            if let Some(o) = second.out {
                out = merge(out, o);
            }
            for b in &second.breaks {
                out = merge(out, *b);
            }
            flow.out = Some(out);
            flow
        }
        Node::Exit { kind, line } => match kind {
            // `?` continues on the success path.
            ExitKind::Try => Flow {
                out: Some(st),
                exits: vec![(*kind, *line, st)],
                ..Default::default()
            },
            _ => Flow { out: None, exits: vec![(*kind, *line, st)], ..Default::default() },
        },
        Node::Abort => Flow { out: None, ..Default::default() },
        Node::Break => Flow { out: None, breaks: vec![st], ..Default::default() },
        Node::Continue => Flow { out: None, continues: vec![st], ..Default::default() },
    }
}

/// One dirty-exit violation within a function.
#[derive(Debug)]
pub struct DirtyExit {
    /// Line of the unflushed dirty write (or dirtying call).
    pub write_line: u32,
    /// Line where the dirty path leaves the function.
    pub exit_line: u32,
    pub kind: ExitKind,
    /// True when the dirtiness came from a call rather than a direct write.
    pub via_call: bool,
}

impl DirtyExit {
    pub fn describe(&self, fn_name: &str) -> String {
        let source = if self.via_call {
            format!("the call at line {} may leave PM dirty and", self.write_line)
        } else {
            format!("the dirty PM write at line {}", self.write_line)
        };
        format!(
            "fn `{fn_name}`: {source} can reach the {} at line {} \
             without a persist/flush/fence on that path; flush on every path before \
             publication",
            self.kind.describe(),
            self.exit_line
        )
    }
}

/// Runs the dataflow over one function body, resolving call effects through
/// `oracle`. `end_line` is used as the line of the implicit fall-through
/// exit.
pub fn dirty_exits_with(body: &Node, end_line: u32, oracle: &dyn CallOracle) -> Vec<DirtyExit> {
    let flow = eval(body, None, oracle);
    let mut out = Vec::new();
    for (kind, line, st) in flow.exits {
        if let Some(d) = st {
            out.push(DirtyExit {
                write_line: d.line,
                exit_line: line,
                kind,
                via_call: d.via_call,
            });
        }
    }
    if let Some(Some(d)) = flow.out {
        out.push(DirtyExit {
            write_line: d.line,
            exit_line: end_line,
            kind: ExitKind::Implicit,
            via_call: d.via_call,
        });
    }
    // One report per write site is enough signal.
    out.sort_by_key(|d| (d.write_line, d.exit_line));
    out.dedup_by_key(|d| d.write_line);
    out
}

/// Computes a function's interprocedural [`Transfer`] by evaluating its body
/// from both entry states and folding fall-through with every early exit
/// (`return`, `?`). Abort paths carry no obligation on either run.
pub fn transfer_of(body: &Node, oracle: &dyn CallOracle) -> Transfer {
    let from_clean = exit_state(body, None, oracle);
    let from_dirty = exit_state(body, Some(Dirt { line: 0, via_call: false }), oracle);
    Transfer {
        dirty_when_clean: from_clean.is_some(),
        clean_when_dirty: from_dirty.is_none(),
    }
}

fn exit_state(body: &Node, entry: St, oracle: &dyn CallOracle) -> St {
    let flow = eval(body, entry, oracle);
    let mut acc: St = flow.out.flatten();
    for (_, _, s) in &flow.exits {
        acc = merge(acc, *s);
    }
    acc
}

/// Last line of a function body (for implicit-exit reporting): the max line
/// of any token in it.
fn body_end_line(trees: &[Tree]) -> u32 {
    fn walk(trees: &[Tree], max: &mut u32) {
        for t in trees {
            match t {
                Tree::Leaf(tok) => *max = (*max).max(tok.line),
                Tree::Group(g) => {
                    *max = (*max).max(g.line);
                    walk(&g.trees, max);
                }
            }
        }
    }
    let mut max = 0;
    walk(trees, &mut max);
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Treats every call as effect-free.
    struct NoOracle;

    impl CallOracle for NoOracle {
        fn transfer(&self, _call: &Call) -> Transfer {
            Transfer::IDENTITY
        }
    }

    /// Runs the dataflow over one function body with the intraprocedural
    /// semantics (calls are effect-free).
    fn dirty_exits(body: &Node, end_line: u32) -> Vec<DirtyExit> {
        dirty_exits_with(body, end_line, &NoOracle)
    }

    fn parse(src: &str) -> SrcFile {
        SrcFile::parse("crates/demo/src/lib.rs".into(), src.into())
    }

    fn analyze(src: &str) -> Vec<(String, Vec<DirtyExit>)> {
        let trees = parse(src);
        functions(&trees)
            .into_iter()
            .map(|f| {
                let exits = dirty_exits(&f.body, 9999);
                (f.item.name.to_string(), exits)
            })
            .collect()
    }

    fn violations(src: &str) -> usize {
        analyze(src).iter().map(|(_, v)| v.len()).sum()
    }

    #[test]
    fn straight_line_good_and_bad() {
        assert_eq!(violations("fn good(p: &Pool) { p.write_u64(0, 1); p.persist(0, 8); }"), 0);
        assert_eq!(violations("fn bad(p: &Pool) { p.write_u64(0, 1); }"), 1);
        // Flush *before* the write does not cover it.
        assert_eq!(violations("fn sneaky(p: &Pool) { p.persist(0, 8); p.write_u64(0, 1); }"), 1);
    }

    #[test]
    fn branch_dependent_missing_fence_is_caught() {
        // The seeded-bad fixture the old line scanner passed: a flush on one
        // branch only, textually after the write.
        let src = "fn bad(p: &Pool, eager: bool) {
            p.write_u64(0, 1);
            if eager { p.persist(0, 8); }
        }";
        assert_eq!(violations(src), 1, "only one branch flushes");
        let src_ok = "fn good(p: &Pool, eager: bool) {
            p.write_u64(0, 1);
            if eager { p.persist(0, 8); } else { p.flush(0, 8); }
        }";
        assert_eq!(violations(src_ok), 0);
    }

    #[test]
    fn match_arms_must_all_flush() {
        let bad = "fn f(p: &Pool, m: Mode) {
            p.write_u64(0, 1);
            match m {
                Mode::A => p.persist(0, 8),
                Mode::B => { p.persist(0, 8); }
                Mode::C => {}
            }
        }";
        assert_eq!(violations(bad), 1, "arm C leaks dirty state");
        let good = "fn f(p: &Pool, m: Mode) {
            p.write_u64(0, 1);
            match m {
                Mode::A => p.persist(0, 8),
                _ => { p.fence(); }
            }
        }";
        assert_eq!(violations(good), 0);
    }

    #[test]
    fn early_return_paths() {
        // Return before any write: clean.
        let ok = "fn f(p: &Pool, skip: bool) {
            if skip { return; }
            p.write_u64(0, 1);
            p.persist(0, 8);
        }";
        assert_eq!(violations(ok), 0);
        // Return after a write, before the flush: dirty exit.
        let bad = "fn f(p: &Pool, early: bool) {
            p.write_u64(0, 1);
            if early { return; }
            p.persist(0, 8);
        }";
        assert_eq!(violations(bad), 1);
        // A flush inside the early-return branch fixes it.
        let fixed = "fn f(p: &Pool, early: bool) {
            p.write_u64(0, 1);
            if early { p.fence(); return; }
            p.persist(0, 8);
        }";
        assert_eq!(violations(fixed), 0);
    }

    #[test]
    fn try_operator_is_an_exit() {
        let bad = "fn f(p: &Pool) -> Result<()> {
            p.write_u64(0, 1);
            let x = p.alloc(8)?;
            p.persist(0, 8);
            Ok(())
        }";
        assert_eq!(violations(bad), 1, "`?` can leave with the write unflushed");
        let ok = "fn f(p: &Pool) -> Result<()> {
            let x = p.alloc(8)?;
            p.write_u64(x, 1);
            p.persist(x, 8);
            Ok(())
        }";
        assert_eq!(violations(ok), 0);
    }

    #[test]
    fn loops_and_breaks() {
        // Flush each iteration right after the write: the loop body never
        // ends dirty, so the fall-through is clean.
        let ok = "fn f(p: &Pool) {
            for i in 0..4 { p.write_u64(i, 1); p.persist(i, 8); }
        }";
        assert_eq!(violations(ok), 0);
        // Write in the loop, flush only after it: body fall-through is
        // dirty but the post-loop flush covers every path.
        let ok2 = "fn f(p: &Pool) {
            for i in 0..4 { p.write_u64(i, 1); }
            p.fence();
        }";
        assert_eq!(violations(ok2), 0);
        // Break carries the dirty state past the post-body flush.
        let bad = "fn f(p: &Pool, n: u64) {
            loop {
                p.write_u64(0, 1);
                if n > 0 { break; }
                p.persist(0, 8);
            }
        }";
        assert_eq!(violations(bad), 1);
    }

    #[test]
    fn panic_paths_carry_no_obligation() {
        let ok = "fn f(p: &Pool, bad: bool) {
            p.write_u64(0, 1);
            if bad { panic!(\"corrupt\"); }
            p.persist(0, 8);
        }";
        assert_eq!(violations(ok), 0);
    }

    #[test]
    fn flush_name_matching_is_structural() {
        // fence_count() is a getter, not a fence.
        assert_eq!(violations("fn f(p: &Pool) { p.write_u64(0, 1); let _ = p.fence_count(); }"), 1);
        // publish_fence / persist_entry / sync_all all count.
        assert_eq!(violations("fn f(s: &S) { s.pool.write_u64(0, 1); s.publish_fence(); }"), 0);
        assert_eq!(violations("fn f(s: &S) { s.pool.write_u64(0, 1); s.persist_entry(3); }"), 0);
        assert_eq!(violations("fn f(p: &Pool) { p.write_u64(0, 1); p.sync_all(); }"), 0);
    }

    #[test]
    fn strings_and_comments_do_not_confuse_the_pass() {
        let ok = "fn f(p: &Pool) {
            // p.write_u64(0, 1);
            let s = \"write_u64(\";
        }";
        assert_eq!(violations(ok), 0);
        let bad = "fn f(p: &Pool) {
            p.write_u64(0, 1); // persist(0, 8) — only a comment!
            let claim = \"persist(\";
        }";
        assert_eq!(violations(bad), 1);
    }

    #[test]
    fn closure_bodies_are_zero_or_more() {
        // A write inside a closure with no flush anywhere: dirty.
        let bad = "fn f(p: &Pool, v: &[u64]) {
            v.iter().for_each(|&x| { p.write_u64(x, 1); });
        }";
        assert_eq!(violations(bad), 1);
        // Post-hoc fence covers whatever the closure dirtied.
        let ok = "fn f(p: &Pool, v: &[u64]) {
            v.iter().for_each(|&x| { p.write_u64(x, 1); });
            p.fence();
        }";
        assert_eq!(violations(ok), 0);
    }

    #[test]
    fn nested_fns_are_analyzed_separately() {
        let src = "fn outer(p: &Pool) {
            fn inner(p: &Pool) { p.write_u64(0, 1); }
            p.write_u64(0, 2);
            p.persist(0, 8);
        }";
        let per_fn = analyze(src);
        assert_eq!(per_fn.len(), 2);
        let outer = per_fn.iter().find(|(n, _)| n == "outer").unwrap();
        let inner = per_fn.iter().find(|(n, _)| n == "inner").unwrap();
        assert_eq!(outer.1.len(), 0, "outer flushes its own write");
        assert_eq!(inner.1.len(), 1, "inner never flushes");
    }

    #[test]
    fn else_if_chains() {
        let bad = "fn f(p: &Pool, k: u32) {
            p.write_u64(0, 1);
            if k == 0 { p.persist(0, 8); }
            else if k == 1 { p.persist(0, 8); }
        }";
        assert_eq!(violations(bad), 1, "the final implicit else leaks");
        let ok = "fn f(p: &Pool, k: u32) {
            p.write_u64(0, 1);
            if k == 0 { p.persist(0, 8); }
            else if k == 1 { p.persist(0, 8); }
            else { p.fence(); }
        }";
        assert_eq!(violations(ok), 0);
    }

    #[test]
    fn write_inside_condition_is_seen() {
        let bad = "fn f(p: &Pool) {
            if p.write_u64(0, 1) == () { }
        }";
        assert_eq!(violations(bad), 1);
    }

    /// The MOD fence-audit shapes (DESIGN.md §13): the pass demands that
    /// dirty writes are *flushed* on every exit path — it deliberately does
    /// NOT demand a trailing `fence()`, because ordering a flush against
    /// durable publication is the caller's publish-fence's job. These
    /// fixtures pin the exact shapes the allocator's bit flip (`Located::flip`) /
    /// `KeyChain::append` / `PHistory::create` took after the audit, so a
    /// future "tighten the pass to require fences" change has to consciously
    /// re-argue them.
    #[test]
    fn flush_without_trailing_fence_is_a_legal_shape() {
        // The allocator's flip on alloc and dealloc: store, flush, return — no fence.
        let state_flip = "fn mark(p: &Pool, off: u64) {
            p.write_u64(off + 8, 1);
            p.persist(off + 8, 8);
        }";
        assert_eq!(violations(state_flip), 0, "unfenced state flip must stay legal");
        // Coalesced append: pair write + flush, counter bump + flush, no
        // per-pair fence — the publish fence lives in the *caller*.
        let coalesced = "fn append(p: &Pool, pair: u64) {
            p.write_u64(pair, 7);
            p.persist(pair, 16);
            p.write_u64(pair + 99, 1);
            p.persist(pair + 99, 8);
        }";
        assert_eq!(violations(coalesced), 0, "coalesced append schedule must stay legal");
        // But removing the *flush* along with the fence is still caught.
        let over_removed = "fn append(p: &Pool, pair: u64) {
            p.write_u64(pair, 7);
        }";
        assert_eq!(violations(over_removed), 1, "flush removal must still be flagged");
    }

    /// The batched-refill shape: a loop carving several headers, each
    /// flushed, one fence after the loop. The fence is load-bearing there
    /// (cross-thread handoff of parked extras) but the pass only needs the
    /// flush coverage to hold through the loop body and the tail.
    #[test]
    fn batched_refill_single_fence_shape() {
        let refill = "fn refill(p: &Pool, base: u64, n: u64) {
            let mut i = 0;
            while i < n {
                p.write_u64(base + i * 16, 16);
                p.persist(base + i * 16, 16);
                i += 1;
            }
            p.write_u64(8, base + n * 16);
            p.persist(8, 8);
            p.fence();
        }";
        assert_eq!(violations(refill), 0);
    }

    // -- ISSUE 8: interprocedural plumbing ---------------------------------

    fn calls_of(src: &str) -> Vec<Call> {
        let trees = parse(src);
        let fns = functions(&trees);
        let mut out = Vec::new();
        for f in &fns {
            f.body.each(&mut |n| {
                if let Node::Call(c) | Node::Flush(c) = n {
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
        let file = parse(&format!("fn f(&self, p: *mut N) {{ {body} }}"));
        let mut out = Vec::new();
        functions(&file)[0].body.each(&mut |n| {
            out.push(match n {
                Node::Access(a) => format!("{} {:?}", a.chain.join("."), a.op),
                Node::Lock(s) => format!(
                    "{} {}{}",
                    if s.rw { "rw?" } else { "lock" },
                    s.chain.join("."),
                    s.binding.as_ref().map(|b| format!(" -> {b}")).unwrap_or_default()
                ),
                Node::Let { binding } => format!("let {binding}"),
                Node::Call(c) | Node::Flush(c) => format!("call {}", c.name),
                Node::Unlock { binding } => format!("drop {binding}"),
                Node::StmtEnd => ";".to_string(),
                other => format!("{other:?}"),
            })
        });
        out
    }

    #[test]
    fn field_accesses_carry_head_path_and_operation() {
        assert_eq!(events("self.a.b.push(self.c);"), [
            "self.a Read",
            "self.a.b Method(\"push\")",
            "self.c Read",
            "call push",
            ";"
        ]);
        assert_eq!(events("self.len += 1; self.slots[i] = 0; let r = &mut self.map;"), [
            "self.len Assign",
            ";",
            "self.slots Assign",
            ";",
            "self.map MutRef",
            "let r",
            ";"
        ]);
        assert_eq!(events("unsafe { (*p).key = 5; } let k = (*p).next.0;"), [
            "*.key Assign",
            ";",
            "*.next Read",
            "*.next.0 Read",
            "let k",
            ";"
        ]);
        // A method call is a call, not a field; the chain runs through it.
        assert_eq!(events("self.list().head.store(1, SeqCst);"), [
            "call list",
            "self.list.head Method(\"store\")",
            "call store",
            ";"
        ]);
        // Paths, call results and literals are not heads.
        assert_eq!(events("Self::DEFAULT.x; mk().x; a::B.x; \"s\".len; x.get::<u8>().y;"), [
            ";", "call mk", ";", ";", ";", ";"
        ]);
    }

    #[test]
    fn let_events_follow_their_initializer() {
        // `n.next` is read before `n` is rebound.
        assert_eq!(events("let n = n.next;"), ["n.next Read", "let n", ";"]);
        assert_eq!(events("let mut x: u64 = 0; let (a, b) = t;"), ["let x", ";", ";"]);
        assert_eq!(events("if let Some(e) = self.head { e.go(); }"), [
            "self.head Read",
            "let e",
            "call go",
            ";"
        ]);
    }

    #[test]
    fn read_and_write_are_lock_candidates_after_their_call() {
        assert_eq!(events("let g = self.idx.write(); sock.read(); file.write(buf);"), [
            "self.idx Method(\"write\")",
            "call write",
            "rw? self.idx -> g",
            "let g",
            ";",
            "call read",
            "rw? sock",
            ";",
            "call write",
            ";"
        ]);
        assert_eq!(events("let g = self.m.lock(); drop(g);"), [
            "self.m Method(\"lock\")",
            "lock self.m -> g",
            "let g",
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
        assert_eq!(shape("if self.c { a(); }"), ["Seq1", "Branch"]);
        assert_eq!(shape("while self.c { a(); }"), ["Seq1", "Loop"]);
        assert_eq!(shape("match self.c { _ => a() }"), ["Seq2"]);
        assert_eq!(shape("for x in self.c { a(); }"), ["Seq2"]);
        assert_eq!(shape("if let x = self.c { a(); }"), ["Seq3"], "access, let, branch");
        assert_eq!(shape("while let x = self.c { a(); }"), ["Seq3"]);
        // A block in the scrutinee is not the match body, and is not lost.
        assert_eq!(
            events("match unsafe { &(*p).key }.cmp(k) { _ => a() }"),
            ["*.key Read", "call cmp", "call a"]
        );
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

    /// A toy oracle standing in for the summary layer: `dirty_helper` may
    /// leave PM dirty, `flush_helper` always flushes.
    struct ToyOracle;
    impl CallOracle for ToyOracle {
        fn transfer(&self, call: &Call) -> Transfer {
            match call.name.as_str() {
                "dirty_helper" => Transfer { dirty_when_clean: true, clean_when_dirty: false },
                "flush_helper" => Transfer { dirty_when_clean: false, clean_when_dirty: true },
                _ => Transfer::IDENTITY,
            }
        }
    }

    fn oracle_violations(src: &str) -> usize {
        let trees = parse(src);
        functions(&trees)
            .iter()
            .map(|f| dirty_exits_with(&f.body, 9999, &ToyOracle).len())
            .sum()
    }

    #[test]
    fn oracle_drives_interprocedural_effects() {
        // Dirtiness escaping through a call is now caught…
        assert_eq!(oracle_violations("fn f() { dirty_helper(); }"), 1);
        // …and a callee that flushes clears the obligation.
        assert_eq!(
            oracle_violations("fn f(p: &Pool) { p.write_u64(0, 1); flush_helper(); }"),
            0
        );
        // Dirty-through-call then flushed locally: clean.
        assert_eq!(oracle_violations("fn f(p: &Pool) { dirty_helper(); p.fence(); }"), 0);
        // The intraprocedural entry point still ignores calls.
        assert_eq!(violations("fn f() { dirty_helper(); }"), 0);
        // via_call is reported on the exit.
        let trees = parse("fn f() { dirty_helper(); }");
        let fns = functions(&trees);
        let exits = dirty_exits_with(&fns[0].body, 9999, &ToyOracle);
        assert!(exits[0].via_call);
        assert!(exits[0].describe("f").contains("may leave PM dirty"));
    }

    #[test]
    fn transfer_of_matches_body_shape() {
        let src = "fn writes(p: &Pool) { p.write_u64(0, 1); }
            fn flushes(p: &Pool) { p.fence(); }
            fn covered(p: &Pool) { p.write_u64(0, 1); p.persist(0, 8); }
            fn conditional(p: &Pool, e: bool) { if e { p.fence(); } }";
        let trees = parse(src);
        let fns = functions(&trees);
        let t = |n: &str| {
            transfer_of(&fns.iter().find(|f| f.item.name == n).unwrap().body, &NoOracle)
        };
        assert_eq!(t("writes"), Transfer { dirty_when_clean: true, clean_when_dirty: false });
        assert_eq!(t("flushes"), Transfer { dirty_when_clean: false, clean_when_dirty: true });
        assert_eq!(t("covered"), Transfer { dirty_when_clean: false, clean_when_dirty: true });
        assert_eq!(
            t("conditional"),
            Transfer::IDENTITY,
            "a branch-only flush neither dirties nor guarantees cleaning"
        );
    }
}
