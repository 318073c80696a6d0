//! Interprocedural effect summaries (ISSUE 8 tentpole).
//!
//! Builds a workspace-wide function index over the token-tree parser, a call
//! graph from the receiver hints [`crate::cfg`] records at each call site,
//! and a per-function [`Summary`]:
//!
//! * the persist-ordering **transfer function** (may the callee leave PM
//!   dirty / does it flush on every path), plugged back into the dataflow so
//!   `write(); helper_that_persists();` is recognized across calls;
//! * the worst-case **sfence budget**, split into `flat` (fences per call)
//!   and `iter` (fences per innermost-loop iteration — the "per chunk" cost
//!   of `insert_batch`), and into steady-state vs `// fence: amortized(…)`
//!   annotated one-time costs;
//! * the set of **locks** acquired (transitively), feeding the lock-order
//!   pass.
//!
//! Recursion is handled with Tarjan SCCs evaluated callees-first and a
//! least-fixpoint iteration inside each component, seeded from the lattice
//! bottom (`clean_when_dirty = true`, zero fences). Calls that cannot be
//! resolved — trait objects, closures invoked through std combinators,
//! std/collection methods — conservatively keep the *intraprocedural*
//! semantics (identity transfer, no fences, no locks), which is exactly what
//! the PR 5 analyzer assumed for every call, so the interprocedural pass is
//! never weaker than its predecessor.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{self, Call, CallOracle, FnInfo, Hint, Node, Transfer};
use crate::source::{Source, SrcFile};

/// Comment marker classifying the next sfence as a one-time (amortized)
/// cost rather than a steady-state per-op fence.
const AMORTIZED_MARKER: &str = "fence: amortized(";

/// Method names never resolved against the workspace index: std library and
/// collection methods that would otherwise collide with store functions of
/// the same name (`insert`, `append`, `extend`, …). An unresolved call is
/// the identity transfer with no fences and no locks.
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

// ---------------------------------------------------------------------------
// Counts and budgets
// ---------------------------------------------------------------------------

/// A statically derived sfence count: a finite worst case, or `Many` when a
/// bound does not exist (fence inside recursion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Count {
    Fin(u32),
    Many,
}

impl Count {
    pub const ZERO: Count = Count::Fin(0);

    fn add(self, o: Count) -> Count {
        match (self, o) {
            (Count::Fin(a), Count::Fin(b)) => Count::Fin(a.saturating_add(b).min(1_000_000)),
            _ => Count::Many,
        }
    }

    fn max(self, o: Count) -> Count {
        match (self, o) {
            (Count::Fin(a), Count::Fin(b)) => Count::Fin(a.max(b)),
            _ => Count::Many,
        }
    }

    pub fn render(self) -> String {
        match self {
            Count::Fin(n) => n.to_string(),
            Count::Many => "many".to_string(),
        }
    }
}

/// Worst-case sfences per call (`flat`) and per innermost-loop iteration
/// (`iter`). `insert_batch` is `flat 0 / iter 1`: no fence outside the chunk
/// loop, exactly one per chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    pub flat: Count,
    pub iter: Count,
}

impl Budget {
    pub const ZERO: Budget = Budget { flat: Count::ZERO, iter: Count::ZERO };
    pub const MANY: Budget = Budget { flat: Count::Many, iter: Count::Many };

    /// Sequential composition: flats add, per-iteration maxes.
    fn seq(self, o: Budget) -> Budget {
        Budget { flat: self.flat.add(o.flat), iter: self.iter.max(o.iter) }
    }

    /// Alternative composition (branches / candidate join): pointwise max.
    fn join(self, o: Budget) -> Budget {
        Budget { flat: self.flat.max(o.flat), iter: self.iter.max(o.iter) }
    }

    /// Entering a loop: the body's whole cost becomes per-iteration.
    fn looped(self) -> Budget {
        Budget { flat: Count::ZERO, iter: self.flat.max(self.iter) }
    }

    pub fn is_zero(self) -> bool {
        self == Budget::ZERO
    }

    pub fn render(self) -> String {
        format!("{}/{}", self.flat.render(), self.iter.render())
    }
}

/// The per-function effect summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    pub transfer: Transfer,
    /// Steady-state sfences (per-op cost).
    pub steady: Budget,
    /// Sfences under a `// fence: amortized(…)` marker (one-time costs:
    /// block allocation, segment adoption, log setup).
    pub amortized: Budget,
    /// Lock ids acquired by this function or any resolved callee,
    /// `crate:mutex_field` form.
    pub locks: BTreeSet<String>,
}

impl Summary {
    /// Least-fixpoint seed for recursive components: "flushes everything,
    /// fences nothing". Sound because the LFP only keeps what *every*
    /// terminating path justifies.
    fn bottom() -> Summary {
        Summary {
            transfer: Transfer { dirty_when_clean: false, clean_when_dirty: true },
            steady: Budget::ZERO,
            amortized: Budget::ZERO,
            locks: BTreeSet::new(),
        }
    }
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
    /// Per file: the lines whose sfences are classified as amortized.
    amortized: Vec<BTreeSet<u32>>,
    fns: Vec<FnData<'a>>,
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// (crate, name) of every `RwLock`-typed struct field and static: the
    /// receivers on which `.read()` / `.write()` acquire a guard.
    rwlocks: BTreeSet<(&'a str, &'a str)>,
    summaries: Vec<Summary>,
}

/// Marks the annotation line itself and the next code line, so both
/// `p.fence(); // fence: amortized(x)` and the marker-above-statement style
/// classify the fence.
fn amortized_lines(f: &SrcFile) -> BTreeSet<u32> {
    f.marked(AMORTIZED_MARKER).flat_map(|l| [Some(l), f.next_code_line(l)]).flatten().collect()
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
        let amortized = src.files.iter().map(amortized_lines).collect();
        let mut rwlocks = BTreeSet::new();
        for f in &src.files {
            let rw = f.places().filter(|(_, ty)| ty.contains("RwLock<"));
            rwlocks.extend(rw.map(|(name, _)| (f.krate.as_str(), name)));
        }
        let mut ws = Workspace { src, amortized, fns, by_name, rwlocks, summaries: Vec::new() };
        ws.summaries = summarize(&ws);
        ws
    }

    pub fn source(&self) -> &'a Source {
        self.src
    }

    pub fn fn_count(&self) -> usize {
        self.fns.len()
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

    /// Looks a function up by file suffix, owner and name (for the
    /// fence-budget entry table).
    pub fn find_fn(&self, rel_suffix: &str, owner: Option<&str>, name: &str) -> Option<usize> {
        self.by_name.get(name)?.iter().copied().find(|&i| {
            self.fn_rel(i).ends_with(rel_suffix) && self.fns[i].info.item.owner == owner
        })
    }

    /// The call oracle for running [`cfg::dirty_exits_with`] over `caller`.
    pub fn oracle(&self, caller: usize) -> TableOracle<'_, 'a> {
        TableOracle { ws: self, caller, summaries: &self.summaries }
    }

    /// Resolves a call site to its candidate workspace functions. Empty
    /// means unresolved: identity transfer, zero fences, no locks.
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
        // (`wal.commit` in minidb must not join pmem's `Txn::commit`).
        let ck = self.fn_crate(caller);
        if v.iter().any(|&c| self.fn_crate(c) == ck) {
            v.retain(|&c| self.fn_crate(c) == ck);
        }
        v
    }

    /// Joins the candidates' budgets and locks at a call site.
    fn call_effect(&self, caller: usize, call: &Call, summaries: &[Summary]) -> Eff {
        let mut eff = Eff::default();
        for c in self.resolve(caller, call) {
            let s = &summaries[c];
            eff.steady = eff.steady.join(s.steady);
            eff.amortized = eff.amortized.join(s.amortized);
            eff.locks.extend(s.locks.iter().cloned());
        }
        eff
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

/// [`CallOracle`] over the computed summaries, fixed to one caller (the
/// caller's impl owner and crate drive resolution).
pub struct TableOracle<'w, 'a> {
    ws: &'w Workspace<'a>,
    caller: usize,
    summaries: &'w [Summary],
}

impl CallOracle for TableOracle<'_, '_> {
    fn transfer(&self, call: &Call) -> Transfer {
        let cands = self.ws.resolve(self.caller, call);
        if cands.is_empty() {
            return Transfer::IDENTITY;
        }
        Transfer {
            // May dirty if *any* candidate may; cleans only if *all* do.
            dirty_when_clean: cands.iter().any(|&c| self.summaries[c].transfer.dirty_when_clean),
            clean_when_dirty: cands.iter().all(|&c| self.summaries[c].transfer.clean_when_dirty),
        }
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
            if let Node::Call(c) | Node::Flush(c) = n {
                targets.extend(ws.resolve(i, c));
            }
        });
        *slot = targets.into_iter().collect();
    }
    let mut summaries = vec![Summary::bottom(); n];
    // Tarjan emits components callees-first, so every cross-component call
    // sees a final summary; within a component we iterate to the least
    // fixpoint from the bottom seed.
    for comp in tarjan(&edges) {
        let cap = 4 * comp.len() + 8;
        let mut round = 0;
        loop {
            let mut changed = false;
            for &f in &comp {
                let s = compute_summary(ws, f, &summaries);
                if s != summaries[f] {
                    summaries[f] = s;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            round += 1;
            if round == cap {
                // Budgets still growing: a fence inside recursion has no
                // finite bound. Absorb to Many; one more sweep stabilizes.
                for &f in &comp {
                    summaries[f].steady = Budget::MANY;
                    summaries[f].amortized = Budget::MANY;
                }
            }
            if round > cap + 2 {
                break; // transfers are monotone over a finite lattice
            }
        }
    }
    summaries
}

#[derive(Default, Clone)]
struct Eff {
    steady: Budget,
    amortized: Budget,
    locks: BTreeSet<String>,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::ZERO
    }
}

impl Eff {
    fn seq(mut self, o: Eff) -> Eff {
        self.steady = self.steady.seq(o.steady);
        self.amortized = self.amortized.seq(o.amortized);
        self.locks.extend(o.locks);
        self
    }

    fn join(mut self, o: Eff) -> Eff {
        self.steady = self.steady.join(o.steady);
        self.amortized = self.amortized.join(o.amortized);
        self.locks.extend(o.locks);
        self
    }
}

fn compute_summary(ws: &Workspace, f: usize, summaries: &[Summary]) -> Summary {
    let oracle = TableOracle { ws, caller: f, summaries };
    let transfer = cfg::transfer_of(&ws.fns[f].info.body, &oracle);
    let eff = effects(ws, f, &ws.fns[f].info.body, summaries);
    Summary { transfer, steady: eff.steady, amortized: eff.amortized, locks: eff.locks }
}

fn effects(ws: &Workspace, f: usize, node: &Node, summaries: &[Summary]) -> Eff {
    match node {
        Node::Seq(cs) => cs
            .iter()
            .fold(Eff::default(), |acc, c| acc.seq(effects(ws, f, c, summaries))),
        Node::Branch(alts) => alts
            .iter()
            .fold(Eff::default(), |acc, a| acc.join(effects(ws, f, a, summaries))),
        Node::Loop(b) => {
            let e = effects(ws, f, b, summaries);
            Eff { steady: e.steady.looped(), amortized: e.amortized.looped(), locks: e.locks }
        }
        Node::Flush(call) => {
            if call.sfence {
                let one = Budget { flat: Count::Fin(1), iter: Count::ZERO };
                let amortized = ws.amortized[ws.fns[f].file].contains(&call.line);
                Eff {
                    steady: if amortized { Budget::ZERO } else { one },
                    amortized: if amortized { one } else { Budget::ZERO },
                    locks: BTreeSet::new(),
                }
            } else if call.name == "fence" {
                Eff::default() // atomic fence(Ordering) — not an sfence
            } else {
                // persist/flush are CLWB-class (no fence); named fences like
                // publish_fence count through their resolved bodies.
                ws.call_effect(f, call, summaries)
            }
        }
        Node::Call(call) => ws.call_effect(f, call, summaries),
        Node::Lock(site) => Eff {
            locks: ws.lock_id(f, site).into_iter().collect(),
            ..Default::default()
        },
        _ => Eff::default(),
    }
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
    use crate::cfg::dirty_exits_with;

    fn ws(src: &str) -> Workspace<'static> {
        Workspace::build(Source::fixture(&[("crates/core/src/lib.rs", src)]))
    }

    fn idx(ws: &Workspace, name: &str) -> usize {
        (0..ws.fn_count()).find(|&i| ws.fn_info(i).item.name == name).unwrap()
    }

    fn violations_of(ws: &Workspace, name: &str) -> usize {
        let i = idx(ws, name);
        dirty_exits_with(&ws.fn_info(i).body, ws.fn_info(i).end_line, &ws.oracle(i)).len()
    }

    #[test]
    fn count_and_budget_algebra() {
        assert_eq!(Count::Fin(2).add(Count::Fin(3)), Count::Fin(5));
        assert_eq!(Count::Fin(2).add(Count::Many), Count::Many);
        assert_eq!(Count::Many.max(Count::Fin(9)), Count::Many);
        let a = Budget { flat: Count::Fin(1), iter: Count::Fin(2) };
        let b = Budget { flat: Count::Fin(3), iter: Count::Fin(1) };
        assert_eq!(a.seq(b), Budget { flat: Count::Fin(4), iter: Count::Fin(2) });
        assert_eq!(a.join(b), Budget { flat: Count::Fin(3), iter: Count::Fin(2) });
        assert_eq!(a.looped(), Budget { flat: Count::ZERO, iter: Count::Fin(2) });
        assert_eq!(a.render(), "1/2");
        assert_eq!(Budget::MANY.render(), "many/many");
    }

    // -- interprocedural fixtures (ISSUE 8 satellite) ----------------------

    #[test]
    fn helper_persists_callers_dirty_write() {
        let w = ws("impl Store {
            fn op(&self, p: &Pool) { p.write_u64(0, 1); self.seal(p); }
            fn seal(&self, p: &Pool) { p.persist(0, 8); p.fence(); }
        }");
        assert_eq!(violations_of(&w, "op"), 0, "callee flush covers the caller's write");
        assert!(w.summary(idx(&w, "seal")).transfer.clean_when_dirty);
        // And the caller's budget includes the callee's fence.
        assert_eq!(w.summary(idx(&w, "op")).steady.flat, Count::Fin(1));
    }

    #[test]
    fn transitively_dirty_through_two_hops() {
        let w = ws("impl Store {
            fn entry(&self, p: &Pool) { self.mid(p); }
            fn mid(&self, p: &Pool) { self.leaf(p); }
            fn leaf(&self, p: &Pool) { p.write_u64(0, 1); }
        }");
        // Dirtiness propagates leaf → mid → entry.
        assert!(w.summary(idx(&w, "leaf")).transfer.dirty_when_clean);
        assert!(w.summary(idx(&w, "mid")).transfer.dirty_when_clean);
        assert_eq!(violations_of(&w, "entry"), 1, "two-hop dirty call escapes");
        // A fence at the top clears all of it.
        let w2 = ws("impl Store {
            fn entry(&self, p: &Pool) { self.mid(p); p.fence(); }
            fn mid(&self, p: &Pool) { self.leaf(p); }
            fn leaf(&self, p: &Pool) { p.write_u64(0, 1); }
        }");
        assert_eq!(violations_of(&w2, "entry"), 0);
    }

    #[test]
    fn mutual_recursion_fixpoint_terminates() {
        let w = ws("impl Store {
            fn even(&self, p: &Pool, n: u64) { if n > 0 { self.odd(p, n - 1); } }
            fn odd(&self, p: &Pool, n: u64) { p.write_u64(n, 1); if n > 0 { self.even(p, n - 1); } }
        }");
        // Terminates, and the write in `odd` is visible through both.
        assert!(w.summary(idx(&w, "odd")).transfer.dirty_when_clean);
        assert!(w.summary(idx(&w, "even")).transfer.dirty_when_clean);
        assert_eq!(violations_of(&w, "even"), 1);
    }

    #[test]
    fn closure_passed_to_for_each_is_inlined() {
        // `for_each` itself is a std method (never resolved), but the
        // closure body is part of the caller's CFG, so a dirtying call
        // inside it is still seen.
        let w = ws("impl Store {
            fn bulk(&self, p: &Pool, v: &[u64]) {
                v.iter().for_each(|&x| { self.put(p, x); });
            }
            fn put(&self, p: &Pool, x: u64) { p.write_u64(x, 1); }
        }");
        assert_eq!(violations_of(&w, "bulk"), 1, "dirty call inside the closure escapes");
        let w2 = ws("impl Store {
            fn bulk(&self, p: &Pool, v: &[u64]) {
                v.iter().for_each(|&x| { self.put(p, x); });
                p.fence();
            }
            fn put(&self, p: &Pool, x: u64) { p.write_u64(x, 1); }
        }");
        assert_eq!(violations_of(&w2, "bulk"), 0);
    }

    #[test]
    fn fence_budgets_flat_and_per_iteration() {
        let w = ws("impl Store {
            fn insert(&self, p: &Pool) { p.write_u64(0, 1); p.persist(0, 8); p.fence(); }
            fn insert_batch(&self, p: &Pool, chunks: &[u64]) {
                for c in chunks {
                    p.write_u64(1, 2);
                    p.persist(1, 8);
                    p.fence();
                }
            }
            fn wrapper(&self, p: &Pool) { self.insert(p); self.insert(p); }
        }");
        assert_eq!(w.summary(idx(&w, "insert")).steady, Budget { flat: Count::Fin(1), iter: Count::ZERO });
        assert_eq!(
            w.summary(idx(&w, "insert_batch")).steady,
            Budget { flat: Count::ZERO, iter: Count::Fin(1) },
            "one fence per chunk, none outside the loop"
        );
        assert_eq!(w.summary(idx(&w, "wrapper")).steady.flat, Count::Fin(2));
    }

    #[test]
    fn amortized_marker_reclassifies_the_fence() {
        let w = ws("impl Alloc {
            fn refill(&self, p: &Pool) {
                p.write_u64(0, 1);
                p.persist(0, 8);
                // fence: amortized(batched refill)
                p.fence();
            }
        }");
        let s = w.summary(idx(&w, "refill"));
        assert_eq!(s.steady, Budget::ZERO);
        assert_eq!(s.amortized.flat, Count::Fin(1));
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
        // Ty hints keep the two `create`s apart: adopt has 0 fences, tag 1.
        assert_eq!(w.summary(idx(&w, "adopt")).steady.flat, Count::ZERO);
        assert_eq!(w.summary(idx(&w, "tag")).steady.flat, Count::Fin(1));
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
        assert_eq!(
            w.summary(idx(&w, "op")).steady.flat,
            Count::Fin(1),
            "append resolved through the getter's return type"
        );
        assert_eq!(violations_of(&w, "op"), 0);
    }

    #[test]
    fn std_methods_are_never_resolved() {
        let w = ws("impl Cache {
            fn extend(&self, p: &Pool) { p.write_u64(0, 1); }
            fn use_cache(&self, cache: &mut Vec<u64>) { cache.extend([1]); }
        }");
        // `cache.extend` must NOT resolve to Cache::extend (std denylist).
        assert_eq!(violations_of(&w, "use_cache"), 0);
        assert!(w.summary(idx(&w, "use_cache")).transfer == Transfer::IDENTITY
            || !w.summary(idx(&w, "use_cache")).transfer.dirty_when_clean);
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
        assert_eq!(
            w.summary(put).steady.flat,
            Count::ZERO,
            "minidb's wal.commit must not join pmem's 2-fence Txn::commit"
        );
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
        assert_eq!(apply.steady.flat, Count::ZERO, "{:?}", apply.steady);
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
    fn fence_in_recursion_saturates_to_many() {
        let w = ws("impl S {
            fn spin(&self, p: &Pool, n: u64) { p.fence(); if n > 0 { self.spin(p, n - 1); } }
        }");
        assert_eq!(w.summary(idx(&w, "spin")).steady.flat, Count::Many);
    }
}
