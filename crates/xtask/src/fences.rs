//! The fence-budget pass: static worst-case sfence counts per durable entry
//! point, checked against `crates/xtask/fence_budget.lock`.
//!
//! The MOD fence audit (DESIGN.md §13) cut the fixed crash-matrix workload
//! from 583 to 251 fence boundaries, the one-block history (segment 0 inline,
//! no adoption fences for a fresh key) to 58, one fence per adopted block to
//! 56, and established per-op budgets
//! (one publish fence per append, one fence per `insert_batch` chunk). Those
//! invariants were enforced only by runtime counters; this pass derives the
//! same numbers from the interprocedural summaries and locks them in a
//! checked-in golden file, so a refactor that sneaks an extra sfence into a
//! helper fails `analyze` with a message naming the *entry point* whose
//! budget drifted — before any benchmark runs.
//!
//! `--bless` regenerates the lock after a consciously re-argued change.

use crate::analyze::{Ctx, Finding};
use crate::summary::{Budget, Workspace};

/// Repo-relative path of the golden budget file.
pub const FENCE_BUDGET_PATH: &str = "crates/xtask/fence_budget.lock";

/// Fence boundaries crossed by the fixed scripted crash-matrix workload
/// (`tests/crash_matrix.rs`, seed 0xC4A5, eviction_rate 0). Measured, not
/// derived — recorded here so budget drift and workload drift are caught by
/// the same lock.
pub const CRASH_MATRIX_FENCES: u64 = 56;

/// Fence boundaries crossed by the mixed (YCSB-A analogue) crash-matrix
/// workload: 12 preloaded keys, 48 scenario-generator ops (zipfian updates
/// + reads), a labeled tag every 16 ops. Same seed and eviction settings.
pub const CRASH_MATRIX_MIXED_FENCES: u64 = 48;

/// One pinned dynamic workload: the runtime fence-count cross-check of a
/// crash-matrix sweep, recorded in the lock next to the static budgets so a
/// fence added anywhere on a workload's path trips both the analyzer and
/// `tests/crash_matrix.rs`, each message pointing at the other.
pub struct WorkloadSpec {
    /// Stable id: the `workload <id> <n>` key in the lock file, looked up
    /// by `budgeted_workload_fences` in `tests/crash_matrix.rs`.
    pub id: &'static str,
    /// Measured fence boundaries the workload crosses.
    pub fences: u64,
}

/// The pinned crash-matrix workloads.
pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec { id: "crash_matrix_fences", fences: CRASH_MATRIX_FENCES },
    WorkloadSpec { id: "crash_matrix_mixed_fences", fences: CRASH_MATRIX_MIXED_FENCES },
];

/// One durable entry point whose budget is locked.
pub struct EntrySpec {
    /// Stable id used in the lock file and drift messages.
    pub id: &'static str,
    /// File suffix the function lives in.
    pub file: &'static str,
    /// Impl owner (None for free functions).
    pub owner: Option<&'static str>,
    pub func: &'static str,
    /// Why this entry is on the audit surface.
    pub note: &'static str,
}

/// The audited durable entry points: every path that makes user data or
/// store metadata durable, plus the recovery paths that re-fence on open.
pub const ENTRIES: &[EntrySpec] = &[
    EntrySpec {
        id: "vhistory::append",
        file: "crates/vhistory/src/history.rs",
        owner: Some("History"),
        func: "append",
        note: "coalesced append: one publish fence per op",
    },
    EntrySpec {
        id: "core::insert",
        file: "crates/core/src/engine.rs",
        owner: Some("Engine"),
        func: "insert",
        note: "single-op insert",
    },
    EntrySpec {
        id: "core::remove",
        file: "crates/core/src/engine.rs",
        owner: Some("Engine"),
        func: "remove",
        note: "tombstone append",
    },
    EntrySpec {
        id: "core::insert_batch",
        file: "crates/core/src/engine.rs",
        owner: Some("Engine"),
        func: "insert_batch",
        note: "one fence per chunk (iter), none outside the loop",
    },
    EntrySpec {
        id: "core::create_tag",
        file: "crates/core/src/pskiplist.rs",
        owner: Some("PSkipList"),
        func: "tag_labeled",
        note: "tag publication rides the chain append",
    },
    EntrySpec {
        id: "core::recover",
        file: "crates/core/src/pskiplist.rs",
        owner: Some("PSkipList"),
        func: "try_attach",
        note: "recovery path (amortized per open)",
    },
    EntrySpec {
        id: "keychain::repair",
        file: "crates/keychain/src/chain.rs",
        owner: Some("KeyChain"),
        func: "repair",
        note: "crash repair on open",
    },
];

/// A computed budget for one entry.
pub struct EntryBudget {
    pub id: &'static str,
    /// `Owner::func` or plain `func`.
    pub qual: String,
    /// Why the entry's budget looks the way it does (from the spec table).
    pub note: &'static str,
    pub file: String,
    pub line: u32,
    pub steady: Budget,
    pub amortized: Budget,
}

fn finding(file: &str, line: u32, msg: String) -> Finding {
    Finding::new("fence-budget", file, line, msg)
}

/// The pass: the budgets of [`ENTRIES`] against the golden file, or into it
/// under `--bless`.
pub fn check(cx: &Ctx) -> Vec<Finding> {
    let (budgets, mut findings) = compute(cx.ws, ENTRIES);
    let rendered = render_lock(&budgets, WORKLOADS);
    findings.extend(cx.golden("fence-budget", FENCE_BUDGET_PATH, rendered, |lock| {
        diff_lock(&budgets, WORKLOADS, lock)
    }));
    findings
}

/// Derives the budget for each entry spec from the workspace summaries.
/// Specs that no longer match a function become findings — a renamed entry
/// point must update the table consciously.
pub fn compute(ws: &Workspace, specs: &[EntrySpec]) -> (Vec<EntryBudget>, Vec<Finding>) {
    let mut budgets = Vec::new();
    let mut findings = Vec::new();
    for spec in specs {
        let Some(i) = ws.find_fn(spec.file, spec.owner, spec.func) else {
            findings.push(finding(
                spec.file,
                0,
                format!(
                    "fence-budget entry `{}` no longer resolves: fn `{}`{} not found in {} — \
                     update the entry table in crates/xtask/src/fences.rs",
                    spec.id,
                    spec.func,
                    spec.owner.map(|o| format!(" on `{o}`")).unwrap_or_default(),
                    spec.file
                ),
            ));
            continue;
        };
        let s = ws.summary(i);
        let qual = match spec.owner {
            Some(o) => format!("{o}::{}", spec.func),
            None => spec.func.to_string(),
        };
        budgets.push(EntryBudget {
            id: spec.id,
            qual,
            note: spec.note,
            file: ws.fn_rel(i).to_string(),
            line: ws.fn_info(i).item.line,
            steady: s.steady,
            amortized: s.amortized,
        });
    }
    (budgets, findings)
}

/// Renders the golden lock file.
pub fn render_lock(budgets: &[EntryBudget], workloads: &[WorkloadSpec]) -> String {
    let mut out = String::new();
    out.push_str(
        "# xtask fence-budget lock — statically derived worst-case sfences per durable\n\
         # entry point. Format: `entry <id> <fn>@<file> steady <flat>/<iter>\n\
         # amortized <flat>/<iter>`; iter = fences per innermost-loop iteration (the\n\
         # per-chunk cost of insert_batch), amortized = fences under a\n\
         # `// fence: amortized(...)` marker (one-time costs: block allocation,\n\
         # segment adoption, log setup). Regenerate with\n\
         # `cargo run -p xtask -- analyze --bless` after re-arguing the audit tables\n\
         # in DESIGN.md \u{a7}13.\n",
    );
    for b in budgets {
        out.push_str(&format!(
            "entry {} {}@{} steady {} amortized {}\n",
            b.id,
            b.qual,
            b.file,
            b.steady.render(),
            b.amortized.render()
        ));
    }
    for w in workloads {
        out.push_str(&format!("workload {} {}\n", w.id, w.fences));
    }
    out
}

/// Diffs the computed budgets against the lock text. Every drift names the
/// entry point and points at the bless workflow.
pub fn diff_lock(
    budgets: &[EntryBudget],
    workloads: &[WorkloadSpec],
    lock: Option<&str>,
) -> Vec<Finding> {
    // A finding about the lock file itself.
    let in_lock = |line: usize, msg: String| finding(FENCE_BUDGET_PATH, line as u32, msg);
    let mut findings = Vec::new();
    let Some(lock) = lock else {
        return vec![in_lock(
            0,
            format!(
                "{FENCE_BUDGET_PATH} is missing — run `cargo run -p xtask -- analyze --bless` \
                 to record the fence budgets"
            ),
        )];
    };
    let mut locked: Vec<(&str, &str, &str)> = Vec::new(); // id, steady, amortized
    let mut locked_workloads: Vec<(&str, &str)> = Vec::new(); // id, fences
    for (idx, raw) in lock.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            ["entry", id, _qual_at_file, "steady", steady, "amortized", amortized] => {
                locked.push((id, steady, amortized));
            }
            ["workload", id, fences] => locked_workloads.push((id, fences)),
            [kind @ ("entry" | "workload"), ..] => findings.push(in_lock(
                idx + 1,
                format!("malformed {kind} line in {FENCE_BUDGET_PATH}: `{line}`"),
            )),
            _ => findings.push(in_lock(
                idx + 1,
                format!("unrecognized line in {FENCE_BUDGET_PATH}: `{line}`"),
            )),
        }
    }
    for b in budgets {
        let Some(l) = locked.iter().find(|l| l.0 == b.id) else {
            findings.push(finding(
                &b.file,
                b.line,
                format!(
                    "fence-budget entry `{}` ({}) is not in {FENCE_BUDGET_PATH} — bless to \
                     record it",
                    b.id, b.qual
                ),
            ));
            continue;
        };
        let steady = b.steady.render();
        let amortized = b.amortized.render();
        if l.1 != steady || l.2 != amortized {
            findings.push(finding(
                &b.file,
                b.line,
                format!(
                    "fence budget drift at entry point `{}` ({}; {}): lock says steady {} \
                     amortized {}, analysis derives steady {} amortized {} — an sfence was \
                     added or removed somewhere on this entry's call path; re-argue the \
                     audit tables in DESIGN.md \u{a7}13, then \
                     `cargo run -p xtask -- analyze --bless`",
                    b.id, b.qual, b.note, l.1, l.2, steady, amortized
                ),
            ));
        }
    }
    for l in &locked {
        if !budgets.iter().any(|b| b.id == l.0) {
            findings.push(in_lock(
                0,
                format!(
                    "lock entry `{}` matches no audited entry point — remove it or restore \
                     the entry in crates/xtask/src/fences.rs",
                    l.0
                ),
            ));
        }
    }
    for spec in workloads {
        match locked_workloads.iter().find(|(id, _)| *id == spec.id) {
            None => findings.push(in_lock(
                0,
                format!("{FENCE_BUDGET_PATH} is missing the `workload {}` line", spec.id),
            )),
            Some((_, w)) if *w != spec.fences.to_string() => findings.push(in_lock(
                0,
                format!(
                    "crash-matrix workload drift (`{}`): lock records {w} fence boundaries, \
                     the analyzer constant says {} — tests/crash_matrix.rs and DESIGN.md \
                     \u{a7}13 must move together",
                    spec.id, spec.fences
                ),
            )),
            Some(_) => {}
        }
    }
    for (id, _) in &locked_workloads {
        if !workloads.iter().any(|w| w.id == *id) {
            findings.push(in_lock(
                0,
                format!(
                    "lock workload `{id}` matches no pinned crash-matrix workload — remove it \
                     or restore the entry in fences::WORKLOADS"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;
    use crate::summary::{Count, Workspace};

    const SPECS: &[EntrySpec] = &[EntrySpec {
        id: "core::insert",
        file: "crates/core/src/engine.rs",
        owner: Some("Engine"),
        func: "insert",
        note: "fixture",
    }];

    const WL: &[WorkloadSpec] = &[WorkloadSpec { id: "crash_matrix_fences", fences: 251 }];

    fn fixture_ws(helper_body: &str) -> Workspace<'static> {
        let src = format!(
            "impl Engine {{
                    fn insert(&self, p: &Pool) {{ p.write_u64(0, 1); p.persist(0, 8); self.publish(p); }}
                    fn publish(&self, p: &Pool) {{ {helper_body} }}
                }}"
        );
        Workspace::build(Source::fixture(&[("crates/core/src/engine.rs", &src)]))
    }

    #[test]
    fn budgets_round_trip_through_the_lock() {
        let ws = fixture_ws("p.fence();");
        let (budgets, errs) = compute(&ws, SPECS);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(budgets.len(), 1);
        assert_eq!(budgets[0].steady.flat, Count::Fin(1));
        let lock = render_lock(&budgets, WL);
        assert!(diff_lock(&budgets, WL, Some(&lock)).is_empty());
    }

    /// The seeded regression from the issue: a helper on the entry's call
    /// path gains an extra sfence, and the lock check fails with a message
    /// naming the *entry point* (not the helper).
    #[test]
    fn seeded_extra_fence_fails_the_check_naming_the_entry_point() {
        let good = fixture_ws("p.fence();");
        let (budgets, _) = compute(&good, SPECS);
        let lock = render_lock(&budgets, WL);

        let drifted = fixture_ws("p.fence(); p.fence();");
        let (budgets2, _) = compute(&drifted, SPECS);
        assert_eq!(budgets2[0].steady.flat, Count::Fin(2), "helper fence counted through");
        let findings = diff_lock(&budgets2, WL, Some(&lock));
        assert_eq!(findings.len(), 1, "{findings:?}");
        let Finding { file, line, msg, .. } = &findings[0];
        assert_eq!(file, "crates/core/src/engine.rs");
        assert_eq!(*line, 2, "finding points at the entry fn, not the helper");
        assert!(msg.contains("`core::insert`"), "names the entry id: {msg}");
        assert!(msg.contains("Engine::insert"), "names the entry fn: {msg}");
        assert!(msg.contains("steady 2/0"), "shows the drifted budget: {msg}");
        assert!(msg.contains("--bless") || msg.contains("bless"), "points at the workflow");
    }

    #[test]
    fn removed_fence_is_also_drift() {
        let good = fixture_ws("p.fence();");
        let (budgets, _) = compute(&good, SPECS);
        let lock = render_lock(&budgets, WL);
        let drifted = fixture_ws("let _ = p;"); // fence dropped behind the call
        let (budgets2, _) = compute(&drifted, SPECS);
        let findings = diff_lock(&budgets2, WL, Some(&lock));
        assert_eq!(findings.len(), 1, "losing a load-bearing fence is drift too: {findings:?}");
    }

    #[test]
    fn workload_and_missing_lock_are_findings() {
        let ws = fixture_ws("p.fence();");
        let (budgets, _) = compute(&ws, SPECS);
        assert_eq!(diff_lock(&budgets, WL, None).len(), 1);
        let lock = render_lock(&budgets, &[WorkloadSpec { id: "crash_matrix_fences", fences: 250 }]);
        let findings = diff_lock(&budgets, WL, Some(&lock));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("workload drift"), "{findings:?}");
        assert!(
            findings[0].msg.contains("`crash_matrix_fences`"),
            "names the workload: {findings:?}"
        );
    }

    #[test]
    fn malformed_lock_lines_are_findings_at_their_line() {
        let ws = fixture_ws("p.fence();");
        let (budgets, _) = compute(&ws, SPECS);
        let lock =
            render_lock(&budgets, WL) + "entry core::insert steady 1/0\nworkload x\nbudget 3\n";
        let findings = diff_lock(&budgets, WL, Some(&lock));
        let n = lock.lines().count() as u32;
        let got: Vec<_> =
            findings.iter().map(|f| (f.line, &f.msg[..f.msg.find(" line").unwrap()])).collect();
        assert_eq!(
            got,
            [(n - 2, "malformed entry"), (n - 1, "malformed workload"), (n, "unrecognized")],
            "{findings:?}"
        );
    }

    #[test]
    fn missing_and_unknown_workload_pins_are_findings() {
        let ws = fixture_ws("p.fence();");
        let (budgets, _) = compute(&ws, SPECS);
        // Lock pins one workload, analyzer expects two: the second is missing.
        let two: &[WorkloadSpec] = &[
            WorkloadSpec { id: "crash_matrix_fences", fences: 251 },
            WorkloadSpec { id: "crash_matrix_mixed_fences", fences: 84 },
        ];
        let lock = render_lock(&budgets, WL);
        let findings = diff_lock(&budgets, two, Some(&lock));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].msg.contains("missing the `workload crash_matrix_mixed_fences`"));
        // Lock pins a workload the analyzer no longer knows: stale line.
        let lock2 = render_lock(&budgets, two);
        let findings2 = diff_lock(&budgets, WL, Some(&lock2));
        assert_eq!(findings2.len(), 1, "{findings2:?}");
        assert!(findings2[0].msg.contains("matches no pinned crash-matrix workload"));
    }

    #[test]
    fn committed_lock_pins_the_headline_budgets() {
        // The repo's own lock file must keep recording the two numbers the
        // MOD audit (DESIGN.md §13) is about: one publish fence per
        // insert_batch chunk, and the crash-matrix workload total.
        let lock = include_str!("../fence_budget.lock");
        let batch = lock
            .lines()
            .find(|l| l.starts_with("entry core::insert_batch "))
            .expect("lock records insert_batch");
        assert!(
            batch.contains("steady 0/1"),
            "insert_batch must cost zero flat fences and one per chunk: {batch}"
        );
        for spec in WORKLOADS {
            let pinned = lock
                .lines()
                .find_map(|l| l.strip_prefix(&format!("workload {} ", spec.id)))
                .and_then(|n| n.trim().parse::<u64>().ok())
                .unwrap_or_else(|| panic!("lock records the `{}` workload", spec.id));
            assert_eq!(pinned, spec.fences, "{}", spec.id);
        }
    }

    #[test]
    fn renamed_entry_point_is_a_finding() {
        let ws = Workspace::build(Source::fixture(&[(
            "crates/core/src/engine.rs",
            "impl Engine { fn insert_renamed(&self) {} }",
        )]));
        let (budgets, errs) = compute(&ws, SPECS);
        assert!(budgets.is_empty());
        assert_eq!(errs.len(), 1);
        assert!(errs[0].msg.contains("no longer resolves"), "{errs:?}");
    }
}
