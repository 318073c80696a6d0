//! Lock-order audit (ISSUE 8 tentpole, pass 2).
//!
//! Walks every runtime function's lowered body with the stack of live
//! guards — [`walk_held`], the one tracker, which the race audit shares —
//! and reports two classes of findings on top of the [`crate::summary`]
//! effect summaries. A guard is a zero-argument `.lock()` / `.try_lock()`,
//! or `.read()` / `.write()` on an `RwLock`-typed field or static (one lock-site
//! rule: [`Workspace::lock_id`]):
//!
//! * **lock-held-across-fence** — an sfence (direct, or inside a resolved
//!   callee with a non-zero budget) executes while a guard is live. Fences
//!   are the longest fixed-latency operation in the store, so holding a
//!   shard or chain lock across one serializes unrelated writers.
//!   Deliberate cases (the txn log's one-time setup fences run under
//!   `txn_lock` by design) carry a `// lock-order:` justification at the
//!   acquisition site, mirroring the `// ordering:` convention.
//! * **lock-order cycle** — the acquisition graph (held lock → lock
//!   acquired next, including locks acquired transitively by resolved
//!   callees) contains a cycle, i.e. a potential deadlock. A self-edge is
//!   the degenerate case: re-acquiring a lock already held.
//!
//! Known blind spots, kept deliberately (documented in DESIGN.md §11.7):
//! guards stored into struct fields outlive the acquiring function and are
//! only tracked inside it; locks taken by denylisted std methods or
//! unresolvable trait/closure calls are invisible; events are in source
//! order, so the temporary in `*m.lock() = f()` counts as held while `f`
//! runs (Rust evaluates the right side first).

use std::collections::{BTreeMap, BTreeSet};

use crate::analyze::Finding;
use crate::cfg::{Call, Node};
use crate::sites::CLUSTER_LINES;
use crate::summary::Workspace;

/// Directories audited for lock discipline. `crates/sync` is excluded: it
/// *implements* the mutex (lock-order is meaningless inside it) and its
/// deadlock-detection tests deliberately construct cycles.
pub const LOCK_DIRS: &[&str] = &[
    "crates/pmem/src",
    "crates/core/src",
    "crates/keychain/src",
    "crates/vhistory/src",
    "crates/skiplist/src",
    "crates/minidb/src",
    "crates/obs/src",
    "crates/cluster/src",
];

/// One live guard on the stack [`walk_held`] keeps.
pub struct Held {
    pub id: String,
    line: u32,
    pub binding: Option<String>,
    /// One finding per acquisition, however many fences run under it.
    flagged: bool,
}

/// The held-guard tracker, shared with the race audit. Walks `node` in
/// source order and hands every leaf event to `visit` with the guards live
/// at it. A `Lock` the workspace confirms is pushed first (the new guard is
/// `held.last()`); `drop(binding)` pops it; a guard bound by `let` lives to
/// the end of its block, a temporary to the end of its statement, and
/// nothing outlives the `Seq` it was acquired in: a block, an argument list,
/// the condition of a plain `if` / `while`, a branch arm, a loop or closure
/// body (`cfg::push_headed` decides which headers share a `Seq` with their
/// body).
pub fn walk_held<'n>(
    ws: &Workspace,
    f: usize,
    node: &'n Node,
    held: &mut Vec<Held>,
    visit: &mut impl FnMut(&'n Node, &mut Vec<Held>),
) {
    match node {
        Node::Seq(cs) => {
            let depth = held.len();
            for c in cs {
                walk_held(ws, f, c, held, visit);
                if matches!(c, Node::StmtEnd) {
                    let mut i = 0;
                    held.retain(|h| {
                        i += 1;
                        i <= depth || h.binding.is_some()
                    });
                }
            }
            held.truncate(depth);
        }
        Node::Branch(alts) => alts.iter().for_each(|a| walk_held(ws, f, a, held, visit)),
        Node::Loop(b) => walk_held(ws, f, b, held, visit),
        Node::Lock(site) => {
            if let Some(id) = ws.lock_id(f, site) {
                let binding = site.binding.clone();
                held.push(Held { id, line: site.line, binding, flagged: false });
                visit(node, held);
            }
        }
        Node::Unlock { binding } => {
            if let Some(p) = held.iter().rposition(|h| h.binding.as_deref() == Some(binding)) {
                held.remove(p);
            }
        }
        leaf => visit(leaf, held),
    }
}

/// Acquisition-order edges: (held lock, lock acquired while held) → one
/// sample site for the report.
type Edges = BTreeMap<(String, String), (String, u32)>;

/// Runs the audit over every non-test function under [`LOCK_DIRS`]. Findings
/// are anchored at the offending acquisition site.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut edges = Edges::new();
    for f in ws.fns_in(LOCK_DIRS) {
        let file = ws.fn_file(f);
        let mut edge = |held: &[Held], to: &str, line: u32| {
            for h in held {
                edges.entry((h.id.clone(), to.to_string())).or_insert((file.rel.clone(), line));
            }
        };
        walk_held(ws, f, &ws.fn_info(f).body, &mut Vec::new(), &mut |node, held| match node {
            Node::Lock(site) => {
                let (new, outer) = held.split_last().expect("pushed by the tracker");
                edge(outer, &new.id, site.line);
            }
            Node::Flush(call) | Node::Call(call) => {
                if call_fences(ws, f, call) {
                    for h in held.iter_mut().filter(|h| !h.flagged) {
                        h.flagged = true;
                        if file.justification(h.line, "lock-order:", CLUSTER_LINES).is_none() {
                            findings.push(Finding::new(
                                "lock-order",
                                &file.rel,
                                h.line,
                                format!(
                                    "lock '{}' held across an sfence; release the guard before \
                                     fencing or justify the acquisition with a `// lock-order:` \
                                     comment",
                                    h.id
                                ),
                            ));
                        }
                    }
                }
                // Locks the callee takes (transitively) while ours are held
                // are ordering edges too.
                for c in ws.resolve(f, call) {
                    for lid in &ws.summary(c).locks {
                        edge(held, lid, call.line);
                    }
                }
            }
            _ => {}
        });
    }
    findings.extend(cycle_findings(&edges));
    findings.sort();
    findings
}

/// Does this call execute at least one sfence — directly, or through any
/// resolved candidate with a non-zero budget (steady *or* amortized: a
/// one-time fence under a lock still stalls that acquisition)?
fn call_fences(ws: &Workspace, f: usize, call: &Call) -> bool {
    if call.sfence {
        return true;
    }
    if call.name == "fence" {
        return false; // atomic fence(Ordering) — CPU order, no sfence
    }
    ws.resolve(f, call).iter().any(|&c| {
        let s = ws.summary(c);
        !s.steady.is_zero() || !s.amortized.is_zero()
    })
}

// ---------------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------------

fn cycle_findings(edges: &Edges) -> Vec<Finding> {
    // Index the lock ids.
    let mut ids: BTreeSet<&String> = BTreeSet::new();
    for (from, to) in edges.keys() {
        ids.insert(from);
        ids.insert(to);
    }
    let idx: BTreeMap<&String, usize> = ids.iter().enumerate().map(|(i, s)| (*s, i)).collect();
    let names: Vec<&String> = ids.into_iter().collect();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
    for (from, to) in edges.keys() {
        adj[idx[from]].push(idx[to]);
    }
    // DFS with a grey path: every back edge closes an elementary cycle.
    let mut color = vec![0u8; names.len()];
    let mut path = Vec::new();
    let mut cycles: BTreeSet<Vec<usize>> = BTreeSet::new();
    for start in 0..names.len() {
        if color[start] == 0 {
            dfs(start, &adj, &mut color, &mut path, &mut cycles);
        }
    }
    let mut out = Vec::new();
    for cyc in cycles {
        let ring: Vec<&str> = cyc.iter().map(|&i| names[i].as_str()).collect();
        // The sample site of the ring's first edge (a cycle is made of edges).
        let (file, line) = &edges[&(ring[0].to_string(), ring[1 % ring.len()].to_string())];
        let msg = if ring.len() == 1 {
            format!("lock '{}' re-acquired while already held (self-deadlock)", ring[0])
        } else {
            format!(
                "lock-order cycle: {} -> {} — impose a single acquisition order \
                 or justify with `// lock-order:`",
                ring.join(" -> "),
                ring[0]
            )
        };
        out.push(Finding::new("lock-order", file, *line, msg));
    }
    out
}

fn dfs(
    v: usize,
    adj: &[Vec<usize>],
    color: &mut [u8],
    path: &mut Vec<usize>,
    cycles: &mut BTreeSet<Vec<usize>>,
) {
    color[v] = 1;
    path.push(v);
    for &w in &adj[v] {
        if color[w] == 0 {
            dfs(w, adj, color, path, cycles);
        } else if color[w] == 1 {
            let pos = path.iter().position(|&x| x == w).unwrap();
            cycles.insert(canon(&path[pos..]));
        }
    }
    path.pop();
    color[v] = 2;
}

/// Rotates a cycle so its minimum element comes first, making equal cycles
/// found from different DFS roots deduplicate.
fn canon(cyc: &[usize]) -> Vec<usize> {
    let min = cyc.iter().enumerate().min_by_key(|&(_, v)| v).map(|(i, _)| i).unwrap_or(0);
    let mut out = Vec::with_capacity(cyc.len());
    out.extend_from_slice(&cyc[min..]);
    out.extend_from_slice(&cyc[..min]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;

    fn ws(files: &[(&str, &str)]) -> Workspace<'static> {
        Workspace::build(Source::fixture(files))
    }

    #[test]
    fn guard_held_across_fence_is_flagged_at_the_acquisition() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn publish(&self) {\n\
             \x20       let g = self.shard.lock();\n\
             \x20       fence();\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("pmem:shard"), "{}", f[0].msg);
    }

    /// A guard is bound only when its call ends the initializer: `n` holds a
    /// length, not the guard, which died at the `;`.
    #[test]
    fn a_guard_consumed_by_its_let_initializer_is_a_temporary() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn count(&self, pool: &Pool) {\n\
             \x20       let n = self.m.lock().len();\n\
             \x20       pool.fence();\n\
             \x20   }\n\
             \x20   fn hold(&self, pool: &Pool) -> Result<()> {\n\
             \x20       let g = self.m.lock();\n\
             \x20       pool.fence();\n\
             \x20       let h = self.n.try_lock().expect(\"uncontended\");\n\
             \x20       pool.fence();\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        let at: Vec<u32> = f.iter().map(|x| x.line).collect();
        assert_eq!(at, [7, 9], "{f:?}");
    }

    /// The lock inventory is the front end's struct fields *and* statics.
    #[test]
    fn a_static_rwlock_write_guard_held_across_a_fence_is_flagged() {
        let w = ws(&[(
            "crates/minidb/src/a.rs",
            "static L: RwLock<u64> = RwLock::new(0);\n\
             fn publish(pool: &Pool) {\n\
             \x20   let g = L.write();\n\
             \x20   pool.fence();\n\
             }\n",
        )]);
        let f = check(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].msg.contains("minidb:L"), "{}", f[0].msg);
    }

    #[test]
    fn lock_order_justification_silences_the_fence_finding() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn publish(&self) {\n\
             \x20       // lock-order: setup fences run under the lock by design\n\
             \x20       let g = self.shard.lock();\n\
             \x20       fence();\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn dropping_the_guard_before_the_fence_is_clean() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn publish(&self) {\n\
             \x20       let g = self.shard.lock();\n\
             \x20       drop(g);\n\
             \x20       fence();\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn scope_exit_releases_the_guard() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn publish(&self) {\n\
             \x20       {\n\
             \x20           let g = self.shard.lock();\n\
             \x20       }\n\
             \x20       fence();\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(check(&w).is_empty());
    }

    #[test]
    fn temporary_lock_is_instantaneous() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn peek(&self) -> u64 {\n\
             \x20       self.shard.lock().head();\n\
             \x20       fence();\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(check(&w).is_empty());
    }

    /// The one lock-site rule: the duplicate lowering recognised only
    /// `.lock()` / `.try_lock()`, so this reported nothing before PR 15.
    #[test]
    fn rwlock_write_guard_held_across_a_fence_is_flagged() {
        let w = ws(&[(
            "crates/minidb/src/a.rs",
            "struct Wal { idx: RwLock<u64>, pool: Pool }\n\
             impl Wal {\n\
             \x20   fn publish(&self) {\n\
             \x20       let g = self.idx.write();\n\
             \x20       self.pool.fence();\n\
             \x20   }\n\
             \x20   fn peek(&self) -> u64 {\n\
             \x20       let g = self.idx.read();\n\
             \x20       *g\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 4);
        assert!(f[0].msg.contains("minidb:idx"), "{}", f[0].msg);
        let peek = (0..w.fn_count()).find(|&i| w.fn_info(i).item.name == "peek").unwrap();
        assert!(w.summary(peek).locks.contains("minidb:idx"), "{:?}", w.summary(peek).locks);
    }

    #[test]
    fn read_and_write_on_a_non_lock_receiver_stay_ordinary_calls() {
        // `sock` is no `RwLock` field, so `sock.read()` is not a guard; and
        // the std denylist keeps `read` / `write` from resolving to the
        // workspace's own fencing `Log::read` / `Log::write`.
        let w = ws(&[(
            "crates/minidb/src/a.rs",
            "struct Wal { idx: RwLock<u64> }\n\
             impl Log {\n\
             \x20   fn read(&self) { fence(); }\n\
             \x20   fn write(&self, b: &[u8]) { fence(); }\n\
             }\n\
             impl Net {\n\
             \x20   fn pump(&self, file: &File, sock: &Sock, buf: &[u8]) {\n\
             \x20       let n = file.write(buf);\n\
             \x20       let m = sock.read();\n\
             \x20       let g = self.m.lock();\n\
             \x20       sock.read();\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(check(&w).is_empty(), "{:?}", check(&w));
        let pump = (0..w.fn_count()).find(|&i| w.fn_info(i).item.name == "pump").unwrap();
        assert_eq!(w.summary(pump).locks.iter().collect::<Vec<_>>(), ["minidb:m"]);
        assert!(w.summary(pump).steady.is_zero());
    }

    /// What the shared tracker adds to this pass: a temporary guard is held
    /// to the end of its statement, a guard in a `match` scrutinee through
    /// the arms, and neither any longer.
    #[test]
    fn temporaries_live_for_their_statement_and_match_scrutinees_through_the_arms() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn append(&self, rec: u64) {\n\
             \x20       self.log.lock().push(self.sealed(rec));\n\
             \x20       fence();\n\
             \x20   }\n\
             \x20   fn sealed(&self, rec: u64) -> u64 { fence(); rec }\n\
             \x20   fn route(&self, k: u64) {\n\
             \x20       match self.map.lock().get(&k) {\n\
             \x20           Some(_) => fence(),\n\
             \x20           None => {}\n\
             \x20       }\n\
             \x20       fence();\n\
             \x20   }\n\
             \x20   fn poll(&self) {\n\
             \x20       if self.queue.lock().is_empty() { fence(); }\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        let at: Vec<(u32, bool)> =
            f.iter().map(|x| (x.line, x.msg.contains("held across"))).collect();
        assert_eq!(at, [(3, true), (8, true)], "{f:?}");
    }

    #[test]
    fn fence_inside_a_resolved_callee_counts() {
        let w = ws(&[(
            "crates/pmem/src/a.rs",
            "impl Pool {\n\
             \x20   fn publish(&self) {\n\
             \x20       let g = self.shard.lock();\n\
             \x20       self.sync_meta();\n\
             \x20   }\n\
             \x20   fn sync_meta(&self) {\n\
             \x20       fence();\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn opposite_acquisition_orders_form_a_cycle() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "impl Store {\n\
             \x20   fn fwd(&self) {\n\
             \x20       let a = self.m1.lock();\n\
             \x20       let b = self.m2.lock();\n\
             \x20   }\n\
             \x20   fn rev(&self) {\n\
             \x20       let b = self.m2.lock();\n\
             \x20       let a = self.m1.lock();\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("cycle"), "{}", f[0].msg);
        assert!(f[0].msg.contains("core:m1") && f[0].msg.contains("core:m2"), "{}", f[0].msg);
    }

    #[test]
    fn reacquiring_a_held_lock_is_a_self_deadlock() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "impl Store {\n\
             \x20   fn twice(&self) {\n\
             \x20       let a = self.m1.lock();\n\
             \x20       let b = self.m1.lock();\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("re-acquired"), "{}", f[0].msg);
    }

    #[test]
    fn callee_lock_sets_extend_the_acquisition_graph() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "impl Store {\n\
             \x20   fn outer(&self) {\n\
             \x20       let a = self.m1.lock();\n\
             \x20       self.inner();\n\
             \x20   }\n\
             \x20   fn inner(&self) {\n\
             \x20       let b = self.m2.lock();\n\
             \x20   }\n\
             \x20   fn rev(&self) {\n\
             \x20       let b = self.m2.lock();\n\
             \x20       let a = self.m1.lock();\n\
             \x20   }\n\
             }\n",
        )]);
        let f = check(&w);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].msg.contains("cycle"), "{}", f[0].msg);
    }

    #[test]
    fn sync_crate_is_exempt() {
        let w = ws(&[(
            "crates/sync/src/mutex.rs",
            "impl Mutex {\n\
             \x20   fn relock(&self) {\n\
             \x20       let a = self.inner.lock();\n\
             \x20       fence();\n\
             \x20   }\n\
             }\n",
        )]);
        assert!(check(&w).is_empty());
    }
}
