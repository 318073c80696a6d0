//! Lock-order audit (ISSUE 8 tentpole, pass 2).
//!
//! Walks every runtime function's CFG with a stack of held `mvkv_sync`
//! guards and reports two classes of findings on top of the
//! [`crate::summary`] effect summaries:
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
//! unresolvable trait/closure calls are invisible.

use std::collections::{BTreeMap, BTreeSet};

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

/// (file, line, message) — anchored at the offending acquisition site.
pub type LockFinding = (String, u32, String);

struct Held {
    id: String,
    line: u32,
    binding: Option<String>,
    /// One finding per acquisition, however many fences run under it.
    flagged: bool,
}

/// Acquisition-order edges: (held lock, lock acquired while held) → one
/// sample site for the report.
type Edges = BTreeMap<(String, String), (String, u32)>;

struct Walker<'a> {
    ws: &'a Workspace<'a>,
    f: usize,
    held: Vec<Held>,
    findings: Vec<LockFinding>,
    edges: Edges,
}

/// Runs the audit over every non-test function under [`LOCK_DIRS`].
pub fn check(ws: &Workspace) -> Vec<LockFinding> {
    let mut findings = Vec::new();
    let mut edges = Edges::new();
    for f in ws.fns_in(LOCK_DIRS) {
        let mut w = Walker {
            ws,
            f,
            held: Vec::new(),
            findings: Vec::new(),
            edges: Edges::new(),
        };
        w.walk(&ws.fn_info(f).body);
        findings.extend(w.findings);
        for (k, v) in w.edges {
            edges.entry(k).or_insert(v);
        }
    }
    findings.extend(cycle_findings(&edges));
    findings.sort();
    findings
}

impl Walker<'_> {
    fn walk(&mut self, node: &Node) {
        match node {
            Node::Seq(cs) => {
                // Guards acquired inside a block drop at its end.
                let depth = self.held.len();
                cs.iter().for_each(|c| self.walk(c));
                self.held.truncate(depth);
            }
            Node::Branch(alts) => {
                for a in alts {
                    let depth = self.held.len();
                    self.walk(a);
                    self.held.truncate(depth);
                }
            }
            Node::Loop(b) => {
                let depth = self.held.len();
                self.walk(b);
                self.held.truncate(depth);
            }
            Node::Lock(site) => {
                let id = self.ws.lock_id(self.f, site);
                let file = self.ws.fn_rel(self.f).to_string();
                for h in &self.held {
                    self.edges
                        .entry((h.id.clone(), id.clone()))
                        .or_insert((file.clone(), site.line));
                }
                if site.binding.is_some() {
                    self.held.push(Held {
                        id,
                        line: site.line,
                        binding: site.binding.clone(),
                        flagged: false,
                    });
                }
                // Binding-less `m.lock().foo()` temporaries drop at the end
                // of the statement: ordering edges only, never "held".
            }
            Node::Unlock { binding } => {
                if let Some(p) =
                    self.held.iter().rposition(|h| h.binding.as_deref() == Some(binding))
                {
                    self.held.remove(p);
                }
            }
            Node::Flush(call) | Node::Call(call) => {
                if self.call_fences(call) {
                    self.fence_event();
                }
                // Locks the callee takes (transitively) while ours are held
                // are ordering edges too.
                let callee_locks: BTreeSet<String> = self
                    .ws
                    .resolve(self.f, call)
                    .into_iter()
                    .flat_map(|c| self.ws.summary(c).locks.iter().cloned())
                    .collect();
                let file = self.ws.fn_rel(self.f).to_string();
                for lid in callee_locks {
                    for h in &self.held {
                        self.edges
                            .entry((h.id.clone(), lid.clone()))
                            .or_insert((file.clone(), call.line));
                    }
                }
            }
            _ => {}
        }
    }

    /// Does this call execute at least one sfence — directly, or through any
    /// resolved candidate with a non-zero budget (steady *or* amortized: a
    /// one-time fence under a lock still stalls that acquisition)?
    fn call_fences(&self, call: &Call) -> bool {
        if call.sfence {
            return true;
        }
        if call.name == "fence" {
            return false; // atomic fence(Ordering) — CPU order, no sfence
        }
        self.ws.resolve(self.f, call).iter().any(|&c| {
            let s = self.ws.summary(c);
            !s.steady.is_zero() || !s.amortized.is_zero()
        })
    }

    fn fence_event(&mut self) {
        let file = self.ws.fn_file(self.f);
        for h in self.held.iter_mut().filter(|h| !h.flagged) {
            h.flagged = true;
            if file.justification(h.line, "lock-order:", CLUSTER_LINES).is_none() {
                self.findings.push((
                    file.rel.clone(),
                    h.line,
                    format!(
                        "lock '{}' held across an sfence; release the guard before fencing \
                         or justify the acquisition with a `// lock-order:` comment",
                        h.id
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cycle detection
// ---------------------------------------------------------------------------

fn cycle_findings(edges: &Edges) -> Vec<LockFinding> {
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
        let (file, line) = edges
            .get(&(ring[0].to_string(), ring[1 % ring.len()].to_string()))
            .cloned()
            .unwrap_or_default();
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
        out.push((file, line, msg));
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
        assert_eq!(f[0].1, 3);
        assert!(f[0].2.contains("pmem:shard"), "{}", f[0].2);
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
        assert_eq!(f[0].1, 3);
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
        assert!(f[0].2.contains("cycle"), "{}", f[0].2);
        assert!(f[0].2.contains("core:m1") && f[0].2.contains("core:m2"), "{}", f[0].2);
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
        assert!(f[0].2.contains("re-acquired"), "{}", f[0].2);
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
        assert!(f[0].2.contains("cycle"), "{}", f[0].2);
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
