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
//! 2. **Compositional lockset inference.** Every non-test function's
//!    lowered body ([`crate::cfg::Node`], the same tree the persist-ordering,
//!    fence-budget and lock-order passes read) is walked by the held-guard
//!    tracker the lock-order pass uses ([`crate::locks::walk_held`]); this
//!    pass consumes the field-access, `let` and call events with the guards
//!    live at each. An access is attributed to an inventory field through
//!    its head: `self`, a `(*ptr)` deref, a parameter or a static. Call
//!    sites are resolved through the [`Workspace`] call graph, and each
//!    *private* function inherits the intersection of the locks held at its
//!    call sites (public functions are roots: callable with nothing held).
//!    For each field the write-site locksets are intersected; an empty
//!    intersection flags every write as unprotected, and a non-empty one
//!    flags any access (read or write) that holds none of the inferred
//!    guards.
//!
//! Thread-confined state is exempt: `thread_local!` statics, and accesses
//! through an exclusive receiver (`&mut self` / `self`), which the borrow
//! checker already serializes. Deliberately unguarded sites carry a
//! `// race: <why>` justification (same contract as `// ordering:`);
//! a justification that no longer silences anything is itself a finding.
//!
//! Known blind spots (documented in DESIGN.md §11.7): accesses through local
//! rebindings (`let e = self.entry(i); e.field`), cross-crate field
//! attribution (fields resolve by name within their defining crate only),
//! writes through raw-pointer arithmetic chains (`ptr.add(n).write(v)` —
//! the pm-layout and persist-ordering passes own that surface), and
//! closures handed to `spawn` (treated as running under the spawner's
//! locks).

use std::collections::{BTreeMap, BTreeSet};

use crate::analyze::Finding;
use crate::cfg::{Node, Op};
use crate::layout::RESIDENT_MARKER;
use crate::lexer::Tree;
use crate::locks::{walk_held, LOCK_DIRS};
use crate::sites::CLUSTER_LINES;
use crate::source::SrcFile;
use crate::summary::Workspace;

/// Crates audited for data races — the same set the lock-order pass walks.
pub const RACE_DIRS: &[&str] = LOCK_DIRS;

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
    /// `thread_local!` statics per crate — the thread-confined domain.
    tls: BTreeSet<(String, String)>,
    /// `static mut` sites: (file, line, name). Always findings.
    static_muts: Vec<(&'a SrcFile, u32, String)>,
}

fn build_inventory<'a>(files: &[&'a SrcFile]) -> Inventory<'a> {
    let mut inv = Inventory::default();
    // The front end's item index has the statics and the `unsafe impl
    // Send/Sync` targets, as it has the structs.
    for f in files {
        for s in &f.statics {
            if s.tls {
                inv.tls.insert((f.krate.clone(), s.name.clone()));
            } else if s.is_mut {
                inv.static_muts.push((f, s.line, s.name.clone()));
            }
        }
    }
    for d in files.iter().flat_map(|f| &f.structs).filter(|d| !d.test_only) {
        let shared = files.iter().any(|f| f.krate == d.krate && f.unsafe_sync.contains(&d.name))
            || d.docs.contains(RESIDENT_MARKER)
            || d.fields
                .iter()
                .any(|(_, ty)| matches!(classify(ty), Kind::Atomic | Kind::Lock | Kind::Cell));
        for (name, ty) in &d.fields {
            if !shared {
                continue;
            }
            let kind = classify(ty);
            let idx = inv.fields.len();
            inv.fields.push(Field { owner: d.name.clone(), name: name.clone(), kind });
            inv.by_name.entry((d.krate.clone(), name.clone())).or_default().push(idx);
            inv.by_owner.insert((d.krate.clone(), d.name.clone(), name.clone()), idx);
        }
    }
    inv
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
// The pass
// ---------------------------------------------------------------------------

/// One attributed field access with the guards held at it.
struct Access<'a> {
    field: usize,
    file: &'a SrcFile,
    line: u32,
    op: Op,
    exclusive: bool,
    fn_id: usize,
    locks: BTreeSet<String>,
}

/// Findings are anchored at the unguarded access site.
pub fn check<'a>(ws: &Workspace<'a>) -> Vec<Finding> {
    let files: Vec<&'a SrcFile> = ws.source().in_dirs(RACE_DIRS).collect();
    let inv = build_inventory(&files);

    // One walk per audited fn, by the tracker the lock-order pass uses:
    // field accesses and call sites, each with the guards live at it.
    let n = ws.fn_count();
    let mut accesses: Vec<Access> = Vec::new();
    let mut incoming: Vec<Vec<(usize, BTreeSet<String>)>> = vec![Vec::new(); n];
    for id in ws.fns_in(RACE_DIRS) {
        let (info, file) = (ws.fn_info(id), ws.fn_file(id));
        let krate = &file.krate;
        let (exclusive_self, params) = parse_params(info.item.sig);
        let mut locals: BTreeSet<&str> = BTreeSet::new();
        walk_held(ws, id, &info.body, &mut Vec::new(), &mut |node, held| {
            let locks = || held.iter().map(|h| h.id.clone()).collect::<BTreeSet<_>>();
            match node {
                Node::Let { binding } => {
                    locals.insert(binding);
                }
                Node::Access(ev) => {
                    // Which field, by the chain's head: the first segment
                    // off `self` is the impl type's own field; deeper
                    // segments and the other heads that reach shared state —
                    // a `(*ptr)` deref, a parameter, a static — name a field
                    // when the name is unique among the crate's shared
                    // structs. Locals, guards and TLS statics are
                    // thread-confined; any other head is out of reach.
                    let (head, name) = (ev.chain[0].as_str(), &ev.chain[ev.chain.len() - 1]);
                    let field = if head == "self" && ev.chain.len() == 2 {
                        info.item.owner.and_then(|o| {
                            inv.by_owner.get(&(krate.clone(), o.to_string(), name.clone())).copied()
                        })
                    } else {
                        let confined = locals.contains(head)
                            || held.iter().any(|g| g.binding.as_deref() == Some(head))
                            || inv.tls.contains(&(krate.clone(), head.to_string()));
                        let is_static = head
                            .chars()
                            .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit());
                        let reaches = matches!(head, "self" | "*")
                            || !confined && (is_static || params.iter().any(|p| p == head));
                        match inv.by_name.get(&(krate.clone(), name.clone())) {
                            Some(v) if reaches && v.len() == 1 => Some(v[0]),
                            _ => None,
                        }
                    };
                    if let Some(field) = field {
                        accesses.push(Access {
                            field,
                            file,
                            line: ev.line,
                            op: ev.op.clone(),
                            exclusive: head == "self" && exclusive_self,
                            fn_id: id,
                            locks: locks(),
                        });
                    }
                }
                Node::Call(call) | Node::Flush(call) => {
                    for t in ws.resolve(id, call).into_iter().filter(|&t| t != id) {
                        incoming[t].push((id, locks()));
                    }
                }
                _ => {}
            }
        });
    }

    // Inherited locksets: roots (public fns, or fns with no resolved
    // callers) start at ∅; every other fn gets the intersection over its
    // call sites of (locks held at the site ∪ the caller's inherited set).
    // Only audited fns record call sites, so only their callees inherit.
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
    let mut out: Vec<Finding> = Vec::new();
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
                    out.push(Finding::new(
                        "race-audit",
                        &w.file.rel,
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
                    out.push(Finding::new(
                        "race-audit",
                        &s.file.rel,
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
            out.push(Finding::new(
                "race-audit",
                &file.rel,
                *line,
                format!(
                    "`static mut {name}` is unsynchronized global state — replace it with a \
                     facade atomic or a lock, or justify with `// race: <why>`"
                ),
            ));
        }
    }

    // A justification that silenced nothing has rotted: it argues for an
    // access that is gone, or guarded now.
    for f in &files {
        for line in f.marked(MARKER) {
            if !f.line_in_test(line) && !used_justs.contains(&(f.rel.as_str(), line)) {
                out.push(Finding::new(
                    "race-audit",
                    &f.rel,
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

    fn run(src: &str) -> Vec<Finding> {
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
        assert_eq!(f[0].line, 5);
        assert!(f[0].msg.contains("unprotected write to shared `S.count`"), "{}", f[0].msg);
        assert!(f[0].msg.contains("plain domain"), "{}", f[0].msg);
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
        assert!(f.iter().all(|x| x.msg.contains("unprotected write")), "{f:?}");
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
        assert_eq!(f[0].line, 9, "the unguarded read, not the guarded write: {f:?}");
        assert!(f[0].msg.contains("written under `core:m`"), "{}", f[0].msg);
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
        assert!(f[0].msg.contains("`Node.key`"), "{}", f[0].msg);
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
        assert!(f[0].msg.contains("static mut COUNTER"), "{}", f[0].msg);
    }

    #[test]
    fn an_unsafe_impl_sync_makes_a_plain_struct_shared() {
        // No atomic, lock or cell field: only the `unsafe impl` (read off the
        // front end's item index) puts `Arena` in the inventory.
        let arena = "
            struct Arena { base: *mut u8, used: u64 }
            impl Arena {
                fn bump(&self) { self.used += 1; }
            }
        ";
        assert!(run(arena).is_empty(), "{:?}", run(arena));
        let f = run(&format!("{arena}\nunsafe impl<'a> Sync for Arena {{}}\n"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("unprotected write to shared `Arena.used`"), "{}", f[0].msg);
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
        assert_eq!(f[0].line, 12, "flagged at the write inside the helper: {f:?}");
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
        assert_eq!(f[0].line, 5);
        assert!(f[0].msg.contains("unused `// race:`"), "{}", f[0].msg);
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

    // -- what reading the lowered bodies changed (PR 15) ----------------------

    #[test]
    fn a_let_guard_after_a_brace_terminated_statement_is_bound() {
        // The token walker split statements at `;` only, so the `let` was
        // the tail of the `if` statement and its guard a temporary.
        let src = "
            struct S { m: Mutex<u64>, hint: u64 }
            impl S {
                pub fn pop(&self, skip: bool) {
                    if skip { return; }
                    let g = self.m.lock();
                    self.hint += 1;
                }
                pub fn peek(&self) -> u64 {
                    self.hint
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 10, "the write is guarded; the unguarded read is the finding: {f:?}");
        assert!(f[0].msg.contains("written under `core:m`"), "{}", f[0].msg);
    }

    #[test]
    fn a_guard_taken_in_one_match_arm_is_not_held_in_the_next() {
        let src = "
            struct S { m: Mutex<Vec<u64>>, count: u64 }
            impl S {
                pub fn step(&self, k: u64) {
                    match k {
                        0 => self.m.lock().clear(),
                        _ => self.count += 1,
                    }
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 7);
        assert!(f[0].msg.contains("unprotected write"), "{}", f[0].msg);
    }

    #[test]
    fn header_temporaries_follow_rust_drop_scopes() {
        // `for` keeps the iterator expression's guard through the body; a
        // plain `if` drops its condition's temporaries before the block.
        let src = "
            struct S { m: Mutex<Vec<u64>>, seen: u64, idle: u64 }
            impl S {
                pub fn sweep(&self) {
                    for x in self.m.lock().iter() {
                        self.seen += 1;
                    }
                    if self.m.lock().is_empty() {
                        self.idle += 1;
                    }
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 9);
        assert!(f[0].msg.contains("`S.idle`"), "{}", f[0].msg);
    }

    #[test]
    fn a_private_free_fn_inherits_its_callers_lockset() {
        // Free calls are call sites like any other in the lowered body.
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            pub fn locked(s: &S) {
                let g = s.m.lock();
                bump(s);
            }
            fn bump(s: &S) {
                s.count += 1;
            }
        ";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn a_closure_with_a_fn_pointer_parameter_is_still_walked() {
        // `|f: fn(&S) -> u64|` is not a nested `fn` item.
        let src = "
            struct S { m: Mutex<u64>, count: u64 }
            impl S {
                pub fn each(&self) {
                    let col = |f: fn(&S) -> u64| { self.count += 1; };
                }
            }
        ";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
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
