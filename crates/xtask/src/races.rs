//! Pass 8: the workspace-wide static race audit.
//!
//! A RacerD-style (Blackshear et al., OOPSLA 2018) compositional lockset
//! analysis over the audited crates, in two stages:
//!
//! 1. **Shared-state inventory.** Every struct field and static in the
//!    audited crates is classified into a protection domain by its type:
//!    facade-atomic (`Atomic*`), self-protecting lock (`Mutex`/`RwLock`/
//!    once-cells), interior-mutable (`UnsafeCell`/`Cell`/`RefCell`),
//!    raw-pointer, or plain data. A struct is *shared* — i.e. its fields are
//!    reachable from a `Sync` context — when it carries an
//!    `unsafe impl Send/Sync`, owns an atomic / lock / interior-mutable
//!    field, or is pm-resident (doc marker). Only shared structs' fields
//!    are audited; everything else is protected by the borrow checker.
//!
//! 2. **Compositional lockset inference.** A token-level walk of every
//!    non-test function records each access to an audited field together
//!    with the set of `mvkv_sync` guards held at the site (tracking `let`
//!    bindings, `drop(guard)`, scope ends — the same model as the
//!    lock-order pass). Call sites are resolved through the
//!    [`Workspace`] call graph, and each *private* function inherits the
//!    intersection of the locks held at its call sites (public functions
//!    are roots: callable with nothing held). For each field the write-site
//!    locksets are intersected; an empty intersection flags every write as
//!    unprotected, and a non-empty one flags any access (read or write)
//!    that holds none of the inferred guards.
//!
//! Thread-confined state is exempt: `thread_local!` statics, and accesses
//! through an exclusive receiver (`&mut self` / `self`), which the borrow
//! checker already serializes. Deliberately unguarded sites carry a
//! `// race: <why>` justification (same contract as `// ordering:`);
//! justifications that no longer silence anything are themselves findings,
//! like stale suppressions.
//!
//! Known blind spots (documented in DESIGN.md §11.7): accesses through local
//! rebindings (`let e = self.entry(i); e.field`), cross-crate field
//! attribution (fields resolve by name within their defining crate only),
//! writes through raw-pointer arithmetic chains (`ptr.add(n).write(v)` —
//! the pm-layout and persist-ordering passes own that surface), and
//! closures handed to `spawn` (treated as running under the spawner's
//! locks).

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{Call, Hint};
use crate::layout::RESIDENT_MARKER;
use crate::lexer::{self, Group, TokKind, Tree};
use crate::locks::LOCK_DIRS;
use crate::sites::CLUSTER_LINES;
use crate::source::SrcFile;
use crate::summary::Workspace;

/// Crates audited for data races — the same set the lock-order pass walks.
pub const RACE_DIRS: &[&str] = LOCK_DIRS;

/// (file, line, message) — anchored at the unguarded access site.
pub type RaceFinding = (String, u32, String);

const MARKER: &str = "race:";

/// Methods that write their receiver (atomic stores/RMWs, cell setters,
/// raw-pointer writes). Everything else is treated as a read — in safe
/// Rust a `&self` method cannot mutate a plain field, and the unsafe
/// surfaces we audit (atomics, cells) are enumerated here.
const WRITE_METHODS: &[&str] = &[
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "set",
    "replace",
    "take",
    "get_mut",
    "write",
    "write_volatile",
];

const ASSIGN_OPS: &[&str] = &["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="];

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "in", "as",
    "move", "mut", "ref", "let", "unsafe", "where", "impl", "dyn", "box", "use", "pub", "const",
    "static", "type", "enum", "struct", "trait", "mod", "crate", "super", "async", "await",
    "extern", "true", "false", "_",
];

// ---------------------------------------------------------------------------
// Inventory
// ---------------------------------------------------------------------------

/// Protection domain of one field, decided by its rendered type.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// `Atomic*` — the facade-atomic domain, always safe to share.
    Atomic,
    /// Self-protecting: `Mutex` / `RwLock` / once-cells.
    Lock,
    /// Interior mutability the compiler cannot police.
    Cell,
    /// Raw pointer: writes through it escape the borrow checker.
    RawPtr,
    /// Ordinary data: mutable only via `&mut` unless unsafe code cheats.
    Plain,
}

impl Kind {
    fn domain(self) -> &'static str {
        match self {
            Kind::Atomic => "facade-atomic",
            Kind::Lock => "lock",
            Kind::Cell => "interior-mutable",
            Kind::RawPtr => "raw-pointer",
            Kind::Plain => "plain",
        }
    }
}

fn classify(ty: &str) -> Kind {
    if ty.contains("Atomic") {
        return Kind::Atomic;
    }
    for l in ["Mutex<", "RwLock<", "OnceLock<", "OnceCell<", "LazyLock<"] {
        if ty.contains(l) {
            return Kind::Lock;
        }
    }
    if ty.contains("UnsafeCell<") || ty.contains("RefCell<") || ty.contains("Cell<") {
        return Kind::Cell;
    }
    if ty.contains("*mut") || ty.contains("*const") {
        return Kind::RawPtr;
    }
    Kind::Plain
}

struct Field {
    owner: String,
    name: String,
    kind: Kind,
}

#[derive(Default)]
struct Inventory<'a> {
    /// Fields of *shared* structs only.
    fields: Vec<Field>,
    /// Shared-struct field indices by (crate, field name) — the
    /// name-unique attribution rule for deref / parameter heads.
    by_name: BTreeMap<(String, String), Vec<usize>>,
    /// (crate, owner, field) → index — the `self.field` attribution rule.
    by_owner: BTreeMap<(String, String, String), usize>,
    /// `RwLock`-typed field/static names per crate (so `.read()` /
    /// `.write()` register as acquisitions only on actual rwlocks).
    rwlocks: BTreeSet<(String, String)>,
    /// `thread_local!` statics per crate — the thread-confined domain.
    tls: BTreeSet<(String, String)>,
    /// `static mut` sites: (file, line, name). Always findings.
    static_muts: Vec<(&'a SrcFile, u32, String)>,
}

fn build_inventory<'a>(files: &[&'a SrcFile]) -> Inventory<'a> {
    let mut inv = Inventory::default();
    let mut unsafe_sync: BTreeSet<(&str, String)> = BTreeSet::new();
    for f in files {
        sweep(&f.trees, f, &mut unsafe_sync, &mut inv);
    }
    for d in files.iter().flat_map(|f| &f.structs).filter(|d| !d.test_only) {
        let shared = unsafe_sync.contains(&(d.krate.as_str(), d.name.clone()))
            || d.docs.contains(RESIDENT_MARKER)
            || d.fields
                .iter()
                .any(|(_, ty)| matches!(classify(ty), Kind::Atomic | Kind::Lock | Kind::Cell));
        for (name, ty) in &d.fields {
            let kind = classify(ty);
            if kind == Kind::Lock && ty.contains("RwLock<") {
                inv.rwlocks.insert((d.krate.clone(), name.clone()));
            }
            if !shared {
                continue;
            }
            let idx = inv.fields.len();
            inv.fields.push(Field { owner: d.name.clone(), name: name.clone(), kind });
            inv.by_name.entry((d.krate.clone(), name.clone())).or_default().push(idx);
            inv.by_owner.insert((d.krate.clone(), d.name.clone(), name.clone()), idx);
        }
    }
    inv
}

/// Recursive item sweep: `unsafe impl Send/Sync`, statics, `thread_local!`
/// blocks (struct definitions come from the front end's item index). Test
/// spans are skipped by token offset.
fn sweep<'a>(
    trees: &[Tree],
    f: &'a SrcFile,
    unsafe_sync: &mut BTreeSet<(&'a str, String)>,
    inv: &mut Inventory<'a>,
) {
    let mut i = 0;
    while i < trees.len() {
        let in_test = f.in_test(trees[i].off());
        match trees[i].ident() {
            Some("unsafe") if !in_test && trees.get(i + 1).and_then(Tree::ident) == Some("impl") => {
                if let Some(ty) = unsafe_impl_target(&trees[i + 2..]) {
                    unsafe_sync.insert((&f.krate, ty));
                }
            }
            Some("thread_local") if trees.get(i + 1).and_then(|t| t.punct()) == Some("!") => {
                if let Some(Tree::Group(g)) = trees.get(i + 2) {
                    for k in 0..g.trees.len() {
                        if g.trees[k].ident() == Some("static") {
                            if let Some(n) = g.trees.get(k + 1).and_then(Tree::ident) {
                                inv.tls.insert((f.krate.clone(), n.to_string()));
                            }
                        }
                    }
                    i += 3;
                    continue;
                }
            }
            Some("static") if !in_test => {
                if trees.get(i + 1).and_then(Tree::ident) == Some("mut") {
                    if let Some(n) = trees.get(i + 2).and_then(Tree::ident) {
                        inv.static_muts.push((f, trees[i].line(), n.to_string()));
                    }
                } else if let Some(n) = trees.get(i + 1).and_then(Tree::ident) {
                    // RwLock statics feed `.read()`/`.write()` detection.
                    let ty_end = trees[i..]
                        .iter()
                        .position(|t| t.punct() == Some("=") || t.punct() == Some(";"))
                        .map(|p| i + p)
                        .unwrap_or(trees.len());
                    let ty = lexer::render_type(&trees[i + 2..ty_end.max(i + 2)]);
                    if ty.contains("RwLock<") {
                        inv.rwlocks.insert((f.krate.clone(), n.to_string()));
                    }
                }
            }
            _ => {}
        }
        if let Tree::Group(g) = &trees[i] {
            if g.delim == '{' {
                sweep(&g.trees, f, unsafe_sync, inv);
            }
        }
        i += 1;
    }
}

/// Target type of `unsafe impl … Send/Sync for X` (tokens after `impl`).
fn unsafe_impl_target(trees: &[Tree]) -> Option<String> {
    let mut depth = 0i32;
    let mut marker = false;
    let mut after_for = false;
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
        if let Tree::Group(g) = t {
            if g.delim == '{' {
                return None;
            }
            continue;
        }
        if depth != 0 {
            continue;
        }
        match t.ident() {
            Some("Send") | Some("Sync") => marker = true,
            Some("for") => after_for = true,
            Some(id) if after_for && id.chars().next().is_some_and(|c| c.is_ascii_uppercase()) => {
                return marker.then(|| id.to_string());
            }
            _ => {}
        }
    }
    None
}

/// Reads a fn signature's parameter list: (exclusive receiver — `&mut self`
/// or by-value `self`, which the borrow checker serializes — and the
/// parameter names).
fn parse_params(sig: &[Tree]) -> (bool, Vec<String>) {
    let mut exclusive = false;
    let mut has_self = false;
    let mut names = Vec::new();
    let Some(g) = sig.iter().filter_map(Tree::group).find(|g| g.delim == '(') else {
        return (exclusive, names);
    };
    let mut start = 0;
    for end in 0..=g.trees.len() {
        if end < g.trees.len() && g.trees[end].punct() != Some(",") {
            continue;
        }
        let part = &g.trees[start..end];
        start = end + 1;
        if part.is_empty() {
            continue;
        }
        let idents: Vec<&str> = part.iter().filter_map(Tree::ident).collect();
        if names.is_empty() && !has_self && idents.contains(&"self") {
            // Receiver: `self` / `mut self` exclusive; `&self` shared;
            // `&mut self` exclusive.
            has_self = true;
            let by_ref = part.iter().any(|t| t.punct() == Some("&"));
            exclusive = !by_ref || idents.contains(&"mut");
            continue;
        }
        // `name: Type` — skip `mut`, ignore tuple patterns.
        let mut k = 0;
        if part.get(k).and_then(Tree::ident) == Some("mut") {
            k += 1;
        }
        if let Some(n) = part.get(k).and_then(Tree::ident) {
            if part.get(k + 1).and_then(|t| t.punct()) == Some(":") {
                names.push(n.to_string());
            }
        }
    }
    (exclusive, names)
}

// ---------------------------------------------------------------------------
// Access walk
// ---------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Debug)]
enum Op {
    Assign,
    MutRef,
    Read,
    Method(String),
}

struct Access<'a> {
    field: usize,
    file: &'a SrcFile,
    line: u32,
    op: Op,
    exclusive: bool,
    fn_id: usize,
    locks: BTreeSet<String>,
}

struct CallRec {
    caller: usize,
    call: Call,
    held: BTreeSet<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Head {
    SelfH,
    Deref,
    Param,
    Static,
    Local,
    Guard,
    Tls,
    Other,
}

struct Walker<'a, 'b> {
    file: &'a SrcFile,
    fn_id: usize,
    owner: Option<&'a str>,
    exclusive_self: bool,
    params: &'b [String],
    inv: &'b Inventory<'a>,
    locals: BTreeSet<String>,
    guards: BTreeMap<String, String>,
    held: Vec<(String, Option<String>)>,
    stmt_binding: Option<String>,
    stmt_bound: bool,
    accesses: &'b mut Vec<Access<'a>>,
    calls: &'b mut Vec<CallRec>,
}

impl Walker<'_, '_> {
    fn krate(&self) -> &str {
        &self.file.krate
    }

    fn held_ids(&self) -> BTreeSet<String> {
        self.held.iter().map(|(id, _)| id.clone()).collect()
    }

    fn walk_block(&mut self, g: &Group) {
        let depth = self.held.len();
        let guard_snapshot = self.guards.clone();
        let locals_snapshot = self.locals.clone();
        let mut start = 0;
        for i in 0..=g.trees.len() {
            let at_semi = i < g.trees.len() && g.trees[i].punct() == Some(";");
            if at_semi || i == g.trees.len() {
                if i > start {
                    self.statement(&g.trees[start..i]);
                }
                start = i + 1;
            }
        }
        self.held.truncate(depth);
        self.guards = guard_snapshot;
        self.locals = locals_snapshot;
    }

    fn statement(&mut self, stmt: &[Tree]) {
        let saved = (self.stmt_binding.take(), self.stmt_bound);
        self.stmt_binding = stmt_binding(stmt);
        self.stmt_bound = false;
        let depth = self.held.len();
        self.scan(stmt);
        // Binding-less guards (`self.m.lock().push(x)`) die with the
        // statement; bound guards live to scope end or `drop`.
        let mut i = depth;
        while i < self.held.len() {
            if self.held[i].1.is_none() {
                self.held.remove(i);
            } else {
                i += 1;
            }
        }
        if let Some(b) = self.stmt_binding.take() {
            self.locals.insert(b);
        }
        (self.stmt_binding, self.stmt_bound) = saved;
    }

    fn scan(&mut self, trees: &[Tree]) {
        let mut i = 0;
        let mut mut_ref = false;
        while i < trees.len() {
            if trees[i].punct() == Some("&")
                && trees.get(i + 1).and_then(Tree::ident) == Some("mut")
            {
                mut_ref = true;
                i += 2;
                continue;
            }
            match &trees[i] {
                Tree::Leaf(t) if t.kind == TokKind::Ident => {
                    let id = t.text.as_str();
                    if id == "fn" {
                        // Nested fn: walked as its own function.
                        i = skip_fn(trees, i);
                        mut_ref = false;
                        continue;
                    }
                    if KEYWORDS.contains(&id) {
                        i += 1;
                        mut_ref = false;
                        continue;
                    }
                    if id == "drop" {
                        if let Some(Tree::Group(g)) = trees.get(i + 1) {
                            if g.delim == '(' && g.trees.len() == 1 {
                                if let Some(b) = g.trees[0].ident() {
                                    self.release(b);
                                    i += 2;
                                    continue;
                                }
                            }
                        }
                    }
                    if trees.get(i + 1).and_then(|t| t.punct()) == Some("!") {
                        // Macro: scan its arguments for nested chains.
                        if let Some(Tree::Group(g)) = trees.get(i + 2) {
                            self.scan(&g.trees);
                            i += 3;
                        } else {
                            i += 2;
                        }
                        mut_ref = false;
                        continue;
                    }
                    let chains = matches!(
                        trees.get(i + 1),
                        Some(Tree::Leaf(p)) if p.text == "." || p.text == "::"
                    ) || matches!(trees.get(i + 1), Some(Tree::Group(g)) if g.delim == '(');
                    if chains {
                        i = self.chain(trees, i, mut_ref);
                    } else {
                        i += 1;
                    }
                    mut_ref = false;
                }
                Tree::Group(g) if g.delim == '{' => {
                    self.walk_block(g);
                    i += 1;
                    mut_ref = false;
                }
                Tree::Group(g)
                    if g.delim == '('
                        && g.trees.first().and_then(|t| t.punct()) == Some("*")
                        && trees.get(i + 1).and_then(|t| t.punct()) == Some(".") =>
                {
                    // `(*p).field` — deref head.
                    i = self.chain(trees, i, mut_ref);
                    mut_ref = false;
                }
                Tree::Group(g) => {
                    self.scan(&g.trees);
                    i += 1;
                    mut_ref = false;
                }
                _ => {
                    i += 1;
                    mut_ref = false;
                }
            }
        }
    }

    /// Parses one postfix chain starting at `start`; returns the index of
    /// the first token past it (past the assignment operator if any).
    fn chain(&mut self, trees: &[Tree], start: usize, mut_ref: bool) -> usize {
        let mut j = start;
        let head;
        let mut head_name: Option<String> = None;
        // `prev_name` feeds `Ret { func }` hints for method resolution;
        // `prev_owner` is set after a `Type::assoc(…)` path call.
        let mut prev_name: Option<String> = None;
        let mut prev_owner: Option<String> = None;
        match &trees[j] {
            Tree::Group(g) => {
                self.scan(&g.trees);
                head = Head::Deref;
                j += 1;
            }
            Tree::Leaf(t) => {
                let id = t.text.clone();
                j += 1;
                let path_first = id.clone();
                let mut path_last = id.clone();
                let mut is_path = false;
                while trees.get(j).and_then(|t| t.punct()) == Some("::") {
                    let k = skip_turbofish(trees, j);
                    if k != j {
                        j = k;
                        continue;
                    }
                    let Some(seg) = trees.get(j + 1).and_then(Tree::ident) else { break };
                    is_path = true;
                    path_last = seg.to_string();
                    j += 2;
                }
                if is_path {
                    // `Type::assoc(args)` or a path expression.
                    if let Some(Tree::Group(g)) = trees.get(j) {
                        if g.delim == '(' {
                            let hint = if path_first == "Self" {
                                Hint::SelfTy
                            } else if path_first.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                                Hint::Ty(path_first.clone())
                            } else {
                                Hint::None
                            };
                            self.calls.push(CallRec {
                                caller: self.fn_id,
                                call: Call {
                                    name: path_last.clone(),
                                    line: g.line,
                                    dotted: false,
                                    hint,
                                    sfence: false,
                                },
                                held: self.held_ids(),
                            });
                            self.scan(&g.trees);
                            j += 1;
                            prev_name = Some(path_last);
                            prev_owner = Some(path_first);
                        }
                    }
                    head = Head::Other;
                } else if id == "self" {
                    head = Head::SelfH;
                } else if self.guards.contains_key(&id) {
                    head = Head::Guard;
                } else if self.locals.contains(&id) {
                    head = Head::Local;
                    head_name = Some(id);
                } else if self.params.iter().any(|p| p == &id) {
                    head = Head::Param;
                    head_name = Some(id);
                } else if self.inv.tls.contains(&(self.krate().to_string(), id.clone())) {
                    head = Head::Tls;
                } else if id.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
                {
                    head = Head::Static;
                    head_name = Some(id);
                } else {
                    head = Head::Other;
                    head_name = Some(id);
                }
            }
        }

        let mut pending: Option<(String, u32)> = None;
        let mut seg_index = 0usize;
        loop {
            if trees.get(j).and_then(|t| t.punct()) == Some("?") {
                j += 1;
                continue;
            }
            if let Some(Tree::Group(g)) = trees.get(j) {
                if g.delim == '[' {
                    // Indexing: `self.free[c].lock()` keeps `free` pending.
                    self.scan(&g.trees);
                    j += 1;
                    continue;
                }
            }
            if trees.get(j).and_then(|t| t.punct()) != Some(".") {
                break;
            }
            let Some(Tree::Leaf(seg)) = trees.get(j + 1) else { break };
            if seg.kind != TokKind::Ident && seg.kind != TokKind::Num {
                break;
            }
            let nm = seg.text.clone();
            let line = seg.line;
            if nm == "await" {
                j += 2;
                continue;
            }
            let k = skip_turbofish(trees, j + 2);
            let args = match trees.get(k) {
                Some(Tree::Group(g)) if g.delim == '(' => Some(g),
                _ => None,
            };
            if let Some(g) = args {
                // Method segment.
                let lockable = pending
                    .as_ref()
                    .map(|(n, _)| n.clone())
                    .or_else(|| if seg_index == 0 { head_name.clone() } else { None });
                let is_lock = matches!(nm.as_str(), "lock" | "try_lock")
                    || (matches!(nm.as_str(), "read" | "write")
                        && lockable.as_ref().is_some_and(|n| {
                            self.inv.rwlocks.contains(&(self.krate().to_string(), n.clone()))
                        }));
                if let (true, Some(name)) = (is_lock, &lockable) {
                    self.acquire(name.clone(), head == Head::Guard);
                    pending = None;
                } else {
                    if let Some((fname, fline)) = pending.take() {
                        self.record(head, &fname, fline, Op::Method(nm.clone()), seg_index);
                    }
                    let hint = if head == Head::SelfH && seg_index == 0 && prev_name.is_none() {
                        Hint::SelfTy
                    } else if let Some(func) = prev_name.clone() {
                        Hint::Ret { func, owner: prev_owner.clone() }
                    } else if let Some(h) = head_name.clone() {
                        if h.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                            && head != Head::Local
                            && head != Head::Param
                        {
                            Hint::Ty(h)
                        } else {
                            Hint::Ret { func: h, owner: None }
                        }
                    } else {
                        Hint::None
                    };
                    self.calls.push(CallRec {
                        caller: self.fn_id,
                        call: Call { name: nm.clone(), line, dotted: true, hint, sfence: false },
                        held: self.held_ids(),
                    });
                }
                self.scan(&g.trees);
                prev_name = Some(nm);
                prev_owner = None;
                seg_index += 1;
                j = k + 1;
            } else {
                // Field segment: an earlier pending field was read through.
                if let Some((fname, fline)) = pending.take() {
                    self.record(head, &fname, fline, Op::Read, seg_index);
                }
                pending = Some((nm, line));
                seg_index += 1;
                j += 2;
            }
        }
        let assigned =
            trees.get(j).and_then(|t| t.punct()).is_some_and(|p| ASSIGN_OPS.contains(&p));
        if let Some((fname, fline)) = pending.take() {
            let op = if assigned {
                Op::Assign
            } else if mut_ref {
                Op::MutRef
            } else {
                Op::Read
            };
            self.record(head, &fname, fline, op, seg_index);
        }
        if assigned {
            j + 1
        } else {
            j.max(start + 1)
        }
    }

    /// Attributes one field access to an inventory entry, if possible.
    fn record(&mut self, head: Head, name: &str, line: u32, op: Op, seg_index: usize) {
        let idx = match head {
            Head::Guard | Head::Tls | Head::Local | Head::Other => return,
            Head::SelfH if seg_index == 1 => {
                // First field off `self`: the enclosing impl type's field.
                let Some(owner) = self.owner else { return };
                let key = (self.krate().to_string(), owner.to_string(), name.to_string());
                match self.inv.by_owner.get(&key) {
                    Some(&i) => i,
                    None => return,
                }
            }
            _ => {
                // Deref / parameter / deeper chains: attribute when the
                // field name is unique among this crate's shared structs.
                let key = (self.krate().to_string(), name.to_string());
                match self.inv.by_name.get(&key) {
                    Some(v) if v.len() == 1 => v[0],
                    _ => return,
                }
            }
        };
        self.accesses.push(Access {
            field: idx,
            file: self.file,
            line,
            op,
            exclusive: head == Head::SelfH && self.exclusive_self,
            fn_id: self.fn_id,
            locks: self.held_ids(),
        });
    }

    fn acquire(&mut self, name: String, via_guard: bool) {
        if via_guard {
            return; // `guard.inner.lock()` — already counted names only
        }
        let id = format!("{}:{}", self.krate(), name);
        if let (Some(b), false) = (self.stmt_binding.clone(), self.stmt_bound) {
            self.guards.insert(b.clone(), id.clone());
            self.held.push((id, Some(b)));
            self.stmt_bound = true;
        } else {
            self.held.push((id, None));
        }
    }

    fn release(&mut self, binding: &str) {
        self.held.retain(|(_, b)| b.as_deref() != Some(binding));
        self.guards.remove(binding);
    }
}

/// `let [mut] x = …` / `if let Pat(x) = …` / `while let Pat(x) = …`.
fn stmt_binding(stmt: &[Tree]) -> Option<String> {
    let mut k = 0;
    if matches!(stmt.first().and_then(Tree::ident), Some("if" | "while")) {
        k = 1;
    }
    if stmt.get(k).and_then(Tree::ident) != Some("let") {
        return None;
    }
    let eq = stmt[k..].iter().position(|t| t.punct() == Some("="))? + k;
    let pat = &stmt[k + 1..eq];
    // `let mut g` / `let g`.
    let mut p = pat;
    if p.first().and_then(Tree::ident) == Some("mut") {
        p = &p[1..];
    }
    if p.len() == 1 {
        return p[0].ident().map(str::to_string);
    }
    // `Some(g)` / `Ok(g)` — the ident inside the last paren group.
    if let Some(Tree::Group(g)) = pat.last() {
        if g.delim == '(' && g.trees.len() == 1 {
            return g.trees[0].ident().map(str::to_string);
        }
    }
    None
}

fn skip_fn(trees: &[Tree], i: usize) -> usize {
    let mut j = i + 1;
    while j < trees.len() {
        match &trees[j] {
            Tree::Group(g) if g.delim == '{' => return j + 1,
            Tree::Leaf(t) if t.text == ";" => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// Skips `::<…>` turbofish generics; returns the index after them (or `j`
/// unchanged when there are none).
fn skip_turbofish(trees: &[Tree], j: usize) -> usize {
    if trees.get(j).and_then(|t| t.punct()) != Some("::")
        || !matches!(trees.get(j + 1).and_then(|t| t.punct()), Some("<") | Some("<<"))
    {
        return j;
    }
    let mut depth = 0i32;
    let mut k = j + 1;
    while k < trees.len() {
        match trees[k].punct() {
            Some("<") => depth += 1,
            Some("<<") => depth += 2,
            Some(">") => depth -= 1,
            Some(">>") => depth -= 2,
            _ => {}
        }
        k += 1;
        if depth <= 0 {
            break;
        }
    }
    k
}

// ---------------------------------------------------------------------------
// The pass
// ---------------------------------------------------------------------------

pub fn check<'a>(ws: &Workspace<'a>) -> Vec<RaceFinding> {
    let files: Vec<&'a SrcFile> = ws.source().in_dirs(RACE_DIRS).collect();
    let inv = build_inventory(&files);

    let mut accesses: Vec<Access> = Vec::new();
    let mut calls: Vec<CallRec> = Vec::new();
    for id in ws.fns_in(RACE_DIRS) {
        let item = &ws.fn_info(id).item;
        let (exclusive_self, params) = parse_params(item.sig);
        let mut w = Walker {
            file: ws.fn_file(id),
            fn_id: id,
            owner: item.owner,
            exclusive_self,
            params: &params,
            inv: &inv,
            locals: BTreeSet::new(),
            guards: BTreeMap::new(),
            held: Vec::new(),
            stmt_binding: None,
            stmt_bound: false,
            accesses: &mut accesses,
            calls: &mut calls,
        };
        w.walk_block(item.body);
    }

    // Inherited locksets: roots (public fns, or fns with no resolved
    // callers) start at ∅; every other fn gets the intersection over its
    // call sites of (locks held at the site ∪ the caller's inherited set).
    // Only audited fns record call sites, so only their callees inherit.
    let n = ws.fn_count();
    let mut incoming: Vec<Vec<(usize, BTreeSet<String>)>> = vec![Vec::new(); n];
    for c in &calls {
        for t in ws.resolve(c.caller, &c.call) {
            if t != c.caller {
                incoming[t].push((c.caller, c.held.clone()));
            }
        }
    }
    let fixed: Vec<bool> =
        (0..n).map(|i| ws.fn_info(i).item.is_pub || incoming[i].is_empty()).collect();
    let mut inherited: Vec<Option<BTreeSet<String>>> =
        fixed.iter().map(|&r| r.then(BTreeSet::new)).collect();
    for _round in 0..n + 2 {
        let mut changed = false;
        for i in 0..n {
            if fixed[i] {
                continue;
            }
            let mut acc: Option<BTreeSet<String>> = None;
            for (caller, held) in &incoming[i] {
                if let Some(ih) = &inherited[*caller] {
                    let contrib: BTreeSet<String> = ih.union(held).cloned().collect();
                    acc = Some(match acc {
                        None => contrib,
                        Some(a) => a.intersection(&contrib).cloned().collect(),
                    });
                }
            }
            if let Some(new) = acc {
                if inherited[i].as_ref() != Some(&new) {
                    inherited[i] = Some(new);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let empty = BTreeSet::new();
    let effective = |a: &Access| -> BTreeSet<String> {
        let inh = inherited[a.fn_id].as_ref().unwrap_or(&empty);
        a.locks.union(inh).cloned().collect()
    };

    // Findings.
    let mut out: Vec<RaceFinding> = Vec::new();
    let mut used_justs: BTreeSet<(&str, u32)> = BTreeSet::new();
    let mut justified = |file: &'a SrcFile, line: u32| -> bool {
        file.justification(line, MARKER, CLUSTER_LINES)
            .map(|l| used_justs.insert((file.rel.as_str(), l)))
            .is_some()
    };

    let is_write = |kind: Kind, op: &Op| -> bool {
        match op {
            Op::Assign | Op::MutRef => true,
            Op::Method(m) => {
                WRITE_METHODS.contains(&m.as_str()) || (kind == Kind::Cell && m == "get")
            }
            Op::Read => false,
        }
    };

    let mut by_field: BTreeMap<usize, Vec<&Access>> = BTreeMap::new();
    for a in &accesses {
        by_field.entry(a.field).or_default().push(a);
    }
    for (fidx, accs) in by_field {
        let fld = &inv.fields[fidx];
        if matches!(fld.kind, Kind::Atomic | Kind::Lock) {
            continue;
        }
        let shared: Vec<&&Access> = accs.iter().filter(|a| !a.exclusive).collect();
        let writes: Vec<&&Access> = shared.iter().filter(|a| is_write(fld.kind, &a.op)).copied().collect();
        if writes.is_empty() {
            continue; // init-only or read-only: thread-confined domain
        }
        let mut lw: Option<BTreeSet<String>> = None;
        for w in &writes {
            let e = effective(w);
            lw = Some(match lw {
                None => e,
                Some(a) => a.intersection(&e).cloned().collect(),
            });
        }
        let lw = lw.unwrap_or_default();
        if lw.is_empty() {
            for w in &writes {
                if !justified(w.file, w.line) {
                    out.push((
                        w.file.rel.clone(),
                        w.line,
                        format!(
                            "unprotected write to shared `{}.{}` ({} domain): no lock is \
                             consistently held across its write sites — guard it, route it \
                             through a facade atomic, or justify with `// race: <why>`",
                            fld.owner,
                            fld.name,
                            fld.kind.domain()
                        ),
                    ));
                }
            }
        } else {
            let guards: Vec<&str> = lw.iter().map(String::as_str).collect();
            for s in &shared {
                if effective(s).is_disjoint(&lw) && !justified(s.file, s.line) {
                    out.push((
                        s.file.rel.clone(),
                        s.line,
                        format!(
                            "`{}.{}` is written under `{}` but this access holds none of its \
                             guards — acquire the lock or justify with `// race: <why>`",
                            fld.owner,
                            fld.name,
                            guards.join(", ")
                        ),
                    ));
                }
            }
        }
    }

    for (file, line, name) in &inv.static_muts {
        if !justified(file, *line) {
            out.push((
                file.rel.clone(),
                *line,
                format!(
                    "`static mut {name}` is unsynchronized global state — replace it with a \
                     facade atomic or a lock, or justify with `// race: <why>`"
                ),
            ));
        }
    }

    // Justifications that silenced nothing rot like stale suppressions.
    for f in &files {
        for line in f.marked(MARKER) {
            if !f.line_in_test(line) && !used_justs.contains(&(f.rel.as_str(), line)) {
                out.push((
                    f.rel.clone(),
                    line,
                    "unused `// race:` justification — it no longer covers any unguarded \
                     shared access; delete it or move it next to the site it argues for"
                        .to_string(),
                ));
            }
        }
    }

    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;

    fn ws(files: &[(&str, &str)]) -> Workspace<'static> {
        Workspace::build(Source::fixture(files))
    }

    fn run(src: &str) -> Vec<(String, u32, String)> {
        check(&ws(&[("crates/core/src/fix.rs", src)]))
    }

    // -- seeded-bad fixtures ------------------------------------------------

    #[test]
    fn unprotected_shared_write_is_flagged() {
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            impl S {
                fn bump(&self) {
                    self.count += 1;
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 5);
        assert!(f[0].2.contains("unprotected write to shared `S.count`"), "{}", f[0].2);
        assert!(f[0].2.contains("plain domain"), "{}", f[0].2);
    }

    #[test]
    fn consistently_guarded_write_is_clean() {
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            impl S {
                pub fn bump(&self) {
                    let g = self.m.lock();
                    self.count += 1;
                    drop(g);
                }
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn inconsistent_lockset_across_two_sites() {
        let src = "
            struct S { a: Mutex<u64>, b: Mutex<u64>, count: u64 }
            impl S {
                pub fn wa(&self) {
                    let g = self.a.lock();
                    self.count += 1;
                }
                pub fn wb(&self) {
                    let g = self.b.lock();
                    self.count += 1;
                }
            }
        ";
        let f = run(src);
        // The write-site intersection {core:a} ∩ {core:b} is empty: both
        // writes are unprotected.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.2.contains("unprotected write")), "{f:?}");
    }

    #[test]
    fn guarded_then_unguarded_access() {
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            impl S {
                pub fn w(&self) {
                    let g = self.m.lock();
                    self.count += 1;
                }
                pub fn r(&self) -> u64 {
                    self.count
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 9, "the unguarded read, not the guarded write: {f:?}");
        assert!(f[0].2.contains("written under `core:m`"), "{}", f[0].2);
    }

    #[test]
    fn raw_pointer_deref_write_is_flagged_and_justifiable() {
        let bad = "
            struct Node { next: AtomicU64, key: u64 }
            fn link(node: *mut Node) {
                unsafe { (*node).key = 5; }
            }
        ";
        let f = run(bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("`Node.key`"), "{}", f[0].2);
        let ok = "
            struct Node { next: AtomicU64, key: u64 }
            fn link(node: *mut Node) {
                // race: key is written once before the node is published by
                // a Release store of next
                unsafe { (*node).key = 5; }
            }
        ";
        assert!(run(ok).is_empty(), "{:?}", run(ok));
    }

    #[test]
    fn static_mut_is_flagged() {
        let src = "static mut COUNTER: u64 = 0;\n";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].2.contains("static mut COUNTER"), "{}", f[0].2);
    }

    // -- compositional lockset inference ------------------------------------

    #[test]
    fn private_helper_inherits_callers_lockset() {
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            impl S {
                pub fn locked(&self) {
                    let g = self.m.lock();
                    self.bump();
                }
                fn bump(&self) {
                    self.count += 1;
                }
            }
        ";
        assert!(run(src).is_empty(), "helper called only under m: {:?}", run(src));
    }

    #[test]
    fn inherited_lockset_is_the_intersection_over_call_sites() {
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            impl S {
                pub fn locked(&self) {
                    let g = self.m.lock();
                    self.bump();
                }
                pub fn unlocked(&self) {
                    self.bump();
                }
                fn bump(&self) {
                    self.count += 1;
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "one unlocked call site poisons the helper: {f:?}");
        assert_eq!(f[0].1, 12, "flagged at the write inside the helper: {f:?}");
    }

    // -- false-positive guards ----------------------------------------------

    #[test]
    fn tls_state_is_thread_confined() {
        let src = "
            thread_local! {
                static JITTER: Cell<u64> = Cell::new(0);
            }
            fn spin() {
                JITTER.with(|j| j.set(j.get() + 1));
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn mut_self_access_is_exclusive() {
        let src = "
            struct W { m: Mutex<u64>, len: u64 }
            impl W {
                pub fn push(&mut self) {
                    self.len += 1;
                }
                pub fn len(&self) -> u64 {
                    self.len
                }
            }
        ";
        assert!(run(src).is_empty(), "&mut self writes are borrow-checked: {:?}", run(src));
    }

    #[test]
    fn loom_stub_crate_is_not_audited() {
        let src = "
            struct AtomicU64 { v: UnsafeCell<u64> }
            impl AtomicU64 {
                pub fn store(&self, v: u64) {
                    unsafe { *self.v.get() = v; }
                }
            }
        ";
        let f = check(&ws(&[("crates/sync/src/loom_atomic.rs", src)]));
        assert!(f.is_empty(), "mvkv-sync is outside RACE_DIRS: {f:?}");
    }

    #[test]
    fn facade_atomics_and_guarded_containers_are_clean() {
        let src = "
            struct S { n: AtomicU64, q: Mutex<Vec<u64>> }
            impl S {
                pub fn add(&self) {
                    self.n.fetch_add(1, Ordering::Relaxed);
                    let g = self.q.lock();
                    g.push(1);
                }
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn init_only_fields_are_clean() {
        let src = "
            struct S { n: AtomicU64, cap: usize }
            impl S {
                pub fn new(cap: usize) -> S {
                    S { n: AtomicU64::new(0), cap }
                }
                pub fn cap(&self) -> usize {
                    self.cap
                }
            }
        ";
        assert!(run(src).is_empty(), "read-only after construction: {:?}", run(src));
    }

    // -- justification contract ---------------------------------------------

    #[test]
    fn race_comment_silences_a_finding() {
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            impl S {
                fn bump(&self) {
                    // race: single-threaded startup path, documented in lib.rs
                    self.count += 1;
                }
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unused_race_comment_is_flagged() {
        let src = "
            struct S { n: AtomicU64 }
            impl S {
                pub fn add(&self) {
                    // race: stale argument that covers nothing
                    self.n.fetch_add(1, Ordering::Relaxed);
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].1, 5);
        assert!(f[0].2.contains("unused `// race:`"), "{}", f[0].2);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            #[cfg(test)]
            mod tests {
                fn bump(s: &super::S) {
                    s.count += 1;
                }
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn rwlock_write_guard_counts_as_the_lock() {
        let src = "
            struct S { idx: RwLock<u64>, gen: u64 }
            impl S {
                pub fn w(&self) {
                    let g = self.idx.write();
                    self.gen += 1;
                }
                pub fn r(&self) -> u64 {
                    let g = self.idx.read();
                    self.gen
                }
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }
}
