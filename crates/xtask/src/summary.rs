//! Interprocedural effect summaries (ISSUE 8 tentpole).
//!
//! Builds a workspace-wide function index over the token-tree parser, a call
//! graph from the receiver hints [`crate::cfg`] records at each call site,
//! and a per-function [`Summary`]:
//!
//! * whether the function **may fence**: issue an sfence itself or through a
//!   resolved callee, on some path — what the lock-order pass's "no sfence
//!   under a guard" rule reads (how *many* fences an operation costs is
//!   measured, not derived: `tests/cost_ledger.rs`);
//! * the set of **locks** acquired (transitively), feeding the lock-order
//!   pass.
//!
//! Recursion is handled with Tarjan SCCs evaluated callees-first and a
//! least-fixpoint iteration inside each component, seeded from the lattice
//! bottom (no fence, no lock). Calls that cannot be resolved — trait
//! objects, closures invoked through std combinators, std/collection
//! methods — fence nothing and lock nothing.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{self, Call, FnInfo, Hint, Node};
use crate::source::{Source, SrcFile};

/// Method names never resolved against the workspace index: std library and
/// collection methods that would otherwise collide with store functions of
/// the same name (`insert`, `append`, `extend`, …). An unresolved call
/// fences nothing and locks nothing.
const STD_METHODS: &[&str] = &[
    "push", "pop", "insert", "remove", "get", "get_mut", "extend", "len", "is_empty", "iter",
    "iter_mut", "into_iter", "next", "clear", "take", "replace", "append", "find", "position",
    "map", "and_then", "map_err", "ok_or", "ok_or_else", "filter", "filter_map", "unwrap",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "expect", "clone", "contains",
    "contains_key", "starts_with", "ends_with", "entry", "or_insert", "or_insert_with",
    "or_default", "drain", "retain", "truncate", "resize", "reserve", "sort", "sort_by",
    "sort_by_key", "sort_unstable", "min", "max", "rev", "collect", "chain", "last", "first",
    "count", "sum", "any", "all", "fold", "for_each", "zip", "skip", "step_by", "windows",
    "chunks", "enumerate", "flat_map", "flatten", "copied", "cloned", "to_vec", "to_string",
    "as_bytes", "as_slice", "as_str", "as_ref", "as_mut", "load", "store", "fetch_add",
    "fetch_sub", "fetch_or", "fetch_and", "fetch_max", "fetch_min", "compare_exchange",
    "compare_exchange_weak", "swap", "wrapping_add", "wrapping_mul", "saturating_add",
    "saturating_sub", "checked_add", "checked_sub", "checked_mul", "min_by_key", "max_by_key",
    "split_at", "split_first", "split_last", "binary_search", "binary_search_by", "join",
    "write", "read", "flush_buf", "send", "recv", "spawn",
];

/// Wrapper / container idents skipped when harvesting receiver types from a
/// getter's return signature (`-> Result<History<…>>` names `History`, not
/// `Result`). Single-letter idents are skipped too (generic params).
const WRAPPER_IDENTS: &[&str] = &[
    "Result", "Option", "Box", "Vec", "VecDeque", "Arc", "Rc", "BTreeMap", "BTreeSet",
    "HashMap", "HashSet", "String", "Iterator", "Ordering", "PathBuf", "Cow",
];

/// The per-function effect summary. The default is the least-fixpoint seed
/// for recursive components: fences nothing, locks nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Some path issues an sfence, here or in a resolved callee.
    pub fences: bool,
    /// Lock ids acquired by this function or any resolved callee,
    /// `crate:mutex_field` form.
    pub locks: BTreeSet<String>,
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

struct FnData<'a> {
    info: FnInfo<'a>,
    file: usize,
}

/// The workspace function index with computed summaries, over a parsed
/// [`Source`].
pub struct Workspace<'a> {
    src: &'a Source,
    fns: Vec<FnData<'a>>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// (crate, name) of every `RwLock`-typed struct field and static: the
    /// receivers on which `.read()` / `.write()` acquire a guard.
    rwlocks: BTreeSet<(&'a str, &'a str)>,
    summaries: Vec<Summary>,
}

impl<'a> Workspace<'a> {
    pub fn build(src: &'a Source) -> Workspace<'a> {
        let mut fns = Vec::new();
        for (fi, f) in src.files.iter().enumerate() {
            fns.extend(cfg::functions(f).into_iter().map(|info| FnData { info, file: fi }));
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.info.item.name).or_default().push(i);
        }
        let mut rwlocks = BTreeSet::new();
        for f in &src.files {
            let rw = f.places().filter(|(_, ty)| ty.contains("RwLock<"));
            rwlocks.extend(rw.map(|(name, _)| (f.krate.as_str(), name)));
        }
        let mut ws = Workspace { src, fns, by_name, rwlocks, summaries: Vec::new() };
        ws.summaries = summarize(&ws);
        ws
    }

    pub fn source(&self) -> &'a Source {
        self.src
    }

    pub fn fn_info(&self, i: usize) -> &FnInfo<'a> {
        &self.fns[i].info
    }

    /// The file the function lives in.
    pub fn fn_file(&self, i: usize) -> &'a SrcFile {
        &self.src.files[self.fns[i].file]
    }

    pub fn fn_rel(&self, i: usize) -> &'a str {
        &self.fn_file(i).rel
    }

    pub fn fn_crate(&self, i: usize) -> &'a str {
        &self.fn_file(i).krate
    }

    pub fn summary(&self, i: usize) -> &Summary {
        &self.summaries[i]
    }

    /// Indices of the non-test functions whose file starts with any prefix.
    pub fn fns_in(&self, prefixes: &[&str]) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| prefixes.iter().any(|p| self.fn_rel(i).starts_with(p)))
            .collect()
    }

    /// Resolves a call site to its candidate workspace functions. Empty
    /// means unresolved: zero fences, no locks.
    pub fn resolve(&self, caller: usize, call: &Call) -> Vec<usize> {
        // The zero-arg `fence()` primitive and the atomic `fence(Ordering)`
        // are terminal — resolving `Pool::fence` → `backend.fence()` would
        // double-count the sfence the parser already recorded.
        if call.name == "fence" {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(call.name.as_str()) else { return Vec::new() };
        let owner_of = |c: usize| self.fns[c].info.item.owner;
        match &call.hint {
            Hint::SelfTy => {
                let Some(owner) = owner_of(caller) else { return Vec::new() };
                cands.iter().copied().filter(|&c| owner_of(c) == Some(owner)).collect()
            }
            Hint::Ty(t) => {
                cands.iter().copied().filter(|&c| owner_of(c) == Some(t.as_str())).collect()
            }
            Hint::Ret { func, owner } => {
                // The receiver's type is whatever functions named `func`
                // return (restricted to `owner` when the shape was
                // `Type::func(…).method(…)`).
                let mut rets: BTreeSet<&str> = BTreeSet::new();
                for &g in self.by_name.get(func.as_str()).map(Vec::as_slice).unwrap_or(&[]) {
                    if owner.as_deref().is_some_and(|o| owner_of(g) != Some(o)) {
                        continue;
                    }
                    for r in &self.fns[g].info.ret_idents {
                        if r.len() > 1 && !WRAPPER_IDENTS.contains(&r.as_str()) {
                            rets.insert(r);
                        }
                    }
                }
                if rets.is_empty() {
                    if STD_METHODS.contains(&call.name.as_str()) {
                        return Vec::new();
                    }
                    // No getter found: probably a plain field. Fields are
                    // conventionally the type lowercased (`wal: Wal`) or a
                    // suffix of it (`storage: Box<dyn Storage>` implemented
                    // by FileStorage/MemStorage) — use that to break
                    // name-collision joins before the unhinted fallback.
                    let by_field: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&c| {
                            owner_of(c).is_some_and(|o| o.to_lowercase().ends_with(func.as_str()))
                        })
                        .collect();
                    if !by_field.is_empty() {
                        return by_field;
                    }
                    return self.resolve_unhinted(caller, call);
                }
                cands
                    .iter()
                    .copied()
                    .filter(|&c| owner_of(c).is_some_and(|o| rets.contains(o)))
                    .collect()
            }
            Hint::None => self.resolve_unhinted(caller, call),
        }
    }

    fn resolve_unhinted(&self, caller: usize, call: &Call) -> Vec<usize> {
        if STD_METHODS.contains(&call.name.as_str()) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(call.name.as_str()) else { return Vec::new() };
        let mut v: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| self.fns[c].info.item.owner.is_some() == call.dotted)
            .collect();
        // Same-crate candidates win over cross-crate name collisions
        // (`wal.commit` in minidb must not join a `commit` of another crate).
        let ck = self.fn_crate(caller);
        if v.iter().any(|&c| self.fn_crate(c) == ck) {
            v.retain(|&c| self.fn_crate(c) == ck);
        }
        v
    }

    /// The `crate:field` id of the lock acquired at `site` — the one
    /// lock-site rule. `None` when a `.read()` / `.write()` receiver is not
    /// an `RwLock`: the site is only the ordinary call recorded before it.
    pub(crate) fn lock_id(&self, caller: usize, site: &cfg::LockSite) -> Option<String> {
        let krate = self.fn_crate(caller);
        let mutex = site.chain.last().map(String::as_str).unwrap_or("<lock>");
        (!site.rw || self.rwlocks.contains(&(krate, mutex))).then(|| format!("{krate}:{mutex}"))
    }
}

// ---------------------------------------------------------------------------
// Summary computation (SCC fixpoint)
// ---------------------------------------------------------------------------

fn summarize(ws: &Workspace) -> Vec<Summary> {
    let n = ws.fns.len();
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, slot) in edges.iter_mut().enumerate() {
        let mut targets = BTreeSet::new();
        ws.fns[i].info.body.each(&mut |n| {
            if let Node::Call(c) = n {
                targets.extend(ws.resolve(i, c));
            }
        });
        *slot = targets.into_iter().collect();
    }
    let mut summaries = vec![Summary::default(); n];
    // Tarjan emits components callees-first, so every cross-component call
    // sees a final summary; within a component we iterate to the least
    // fixpoint from the bottom seed. Every part of a summary is monotone
    // over a finite lattice, so the iteration ends.
    for comp in tarjan(&edges) {
        let mut changed = true;
        while changed {
            changed = false;
            for &f in &comp {
                let s = compute_summary(ws, f, &summaries);
                if s != summaries[f] {
                    summaries[f] = s;
                    changed = true;
                }
            }
        }
    }
    summaries
}

fn compute_summary(ws: &Workspace, f: usize, summaries: &[Summary]) -> Summary {
    let mut s = Summary::default();
    ws.fns[f].info.body.each(&mut |n| match n {
        // `fence(Ordering)` resolves to nothing; named fences like
        // `publish_fence` fence through their resolved bodies.
        Node::Call(call) => {
            s.fences |= call.sfence;
            for c in ws.resolve(f, call) {
                s.fences |= summaries[c].fences;
                s.locks.extend(summaries[c].locks.iter().cloned());
            }
        }
        Node::Lock(site) => s.locks.extend(ws.lock_id(f, site)),
        _ => {}
    });
    s
}

/// Iterative Tarjan SCC; components are emitted callees-first (reverse
/// topological order of the condensation).
fn tarjan(edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let n = edges.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next_index = 0usize;
    let mut comps = Vec::new();
    // Explicit DFS stack: (node, next child position).
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call_stack.push((start, 0));
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&(v, ci)) = call_stack.last() {
            if ci < edges[v].len() {
                call_stack.last_mut().unwrap().1 += 1;
                let w = edges[v][ci];
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace<'static> {
        Workspace::build(Source::fixture(&[("crates/core/src/lib.rs", src)]))
    }

    fn idx(ws: &Workspace, name: &str) -> usize {
        ws.fns_in(&[""]).into_iter().find(|&i| ws.fn_info(i).item.name == name).unwrap()
    }

    // -- interprocedural fixtures (ISSUE 8 satellite) ----------------------

    #[test]
    fn fences_reach_the_caller_through_two_hops() {
        let w = ws("impl Store {
            fn entry(&self, p: &Pool) { p.write_u64(0, 1); self.mid(p); }
            fn mid(&self, p: &Pool) { self.leaf(p); }
            fn leaf(&self, p: &Pool) { p.persist(0, 8); p.fence(); }
            fn flush_only(&self, p: &Pool) { p.persist(0, 8); }
        }");
        assert!(["leaf", "mid", "entry"].iter().all(|f| w.summary(idx(&w, f)).fences));
        assert!(!w.summary(idx(&w, "flush_only")).fences, "a persist is no sfence");
    }

    #[test]
    fn mutual_recursion_fixpoint_terminates() {
        let w = ws("impl Store {
            fn even(&self, p: &Pool, n: u64) { if n > 0 { self.odd(p, n - 1); } }
            fn odd(&self, p: &Pool, n: u64) { p.fence(); if n > 0 { self.even(p, n - 1); } }
        }");
        // Terminates, and the fence in `odd` is visible through both.
        assert!(w.summary(idx(&w, "odd")).fences && w.summary(idx(&w, "even")).fences);
    }

    #[test]
    fn closure_passed_to_for_each_is_inlined() {
        // `for_each` itself is a std method (never resolved), but the
        // closure body is part of the caller's lowering, so a fencing call
        // inside it is still seen.
        let w = ws("impl Store {
            fn bulk(&self, p: &Pool, v: &[u64]) {
                v.iter().for_each(|&x| { self.put(p, x); });
            }
            fn put(&self, p: &Pool, x: u64) { p.write_u64(x, 1); p.fence(); }
        }");
        assert!(w.summary(idx(&w, "bulk")).fences, "the fencing call inside the closure");
    }

    #[test]
    fn resolution_hints_disambiguate_owners() {
        let w = ws("impl KeyChain {
            fn create(&self, p: &Pool) { p.write_u64(0, 1); p.persist(0, 8); p.fence(); }
        }
        impl PHistory {
            fn create(&self, p: &Pool) { p.write_u64(4, 1); p.persist(4, 8); }
        }
        impl ESlots {
            fn adopt(&self, p: &Pool) { PHistory::create(p); }
            fn tag(&self, p: &Pool) { KeyChain::create(p); }
        }");
        // Ty hints keep the two `create`s apart: only tag may fence.
        assert!(!w.summary(idx(&w, "adopt")).fences);
        assert!(w.summary(idx(&w, "tag")).fences);
    }

    #[test]
    fn getter_return_types_resolve_method_receivers() {
        let w = ws("impl PSkipList {
            fn history(&self) -> History<PHistory> { make() }
            fn op(&self, h: u64) { self.history(h).append(1); }
        }
        impl History {
            fn append(&self, v: u64) { self.pool.write_u64(v, 1); self.pool.persist(v, 8); self.pool.fence(); }
        }");
        assert!(
            w.summary(idx(&w, "op")).fences,
            "append resolved through the getter's return type"
        );
    }

    #[test]
    fn std_methods_are_never_resolved() {
        let w = ws("impl Cache {
            fn extend(&self, p: &Pool) { p.fence(); }
            fn use_cache(&self, cache: &mut Vec<u64>) { cache.extend([1]); }
        }");
        // `cache.extend` must NOT resolve to Cache::extend (std denylist).
        assert!(!w.summary(idx(&w, "use_cache")).fences);
    }

    #[test]
    fn same_crate_candidates_win_name_collisions() {
        let w = Workspace::build(Source::fixture(&[
            (
                "crates/pmem/src/txn.rs",
                "impl Txn { fn commit(&self, p: &Pool) { p.fence(); p.fence(); } }",
            ),
            (
                "crates/minidb/src/wal.rs",
                "impl Wal { fn commit(&self) { } }
                 impl Engine { fn put(&self, wal: &Wal) { wal.commit(); } }",
            ),
        ]));
        let put = idx(&w, "put");
        assert!(!w.summary(put).fences, "minidb's wal.commit must not join pmem's Txn::commit");
    }

    #[test]
    fn field_named_after_its_type_narrows_resolution() {
        // `self.wal.checkpoint()` must resolve to Wal::checkpoint, not join
        // Engine::checkpoint (which fences) just because the names collide.
        // Suffix match covers trait-object fields: `storage: Box<dyn
        // Storage>` dispatches to FileStorage/MemStorage impls.
        let w = ws("impl Wal { fn checkpoint(&self) { } }
            impl FileStorage { fn sync_all(&self) { } }
            impl Engine {
                fn checkpoint(&self) { fence(); }
                fn sync_all(&self) { fence(); }
                fn apply(&self) { self.wal.checkpoint(); self.storage.sync_all(); }
            }");
        let apply = w.summary(idx(&w, "apply"));
        assert!(!apply.fences, "{apply:?}");
    }

    #[test]
    fn locks_are_collected_transitively() {
        let w = ws("impl Alloc {
            fn grab(&self) { let g = self.shard_free.lock(); drop(g); }
            fn outer(&self) { self.grab(); let c = self.tag_cache.lock(); }
        }");
        let outer = w.summary(idx(&w, "outer"));
        assert!(outer.locks.contains("core:shard_free"), "callee lock visible: {:?}", outer.locks);
        assert!(outer.locks.contains("core:tag_cache"));
    }

    #[test]
    fn fence_in_recursion_reaches_the_fixpoint() {
        let w = ws("impl S {
            fn spin(&self, p: &Pool, n: u64) { if n > 0 { self.spin(p, n - 1); } p.fence(); }
            fn outer(&self, p: &Pool) { self.spin(p, 3); }
        }");
        assert!(w.summary(idx(&w, "spin")).fences && w.summary(idx(&w, "outer")).fences);
    }
}
