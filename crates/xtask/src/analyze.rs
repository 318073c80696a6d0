//! The multi-pass analyzer driver: `cargo run -p xtask -- analyze`.
//!
//! Eight passes read one parsed workspace ([`crate::source::Source`]: each
//! source file is read once and lexed once per run, no matter how many
//! passes look at it — a unit test counts the `lex` calls) and one
//! interprocedural function index over it ([`crate::summary::Workspace`]):
//!
//! 1. `facade`          — no direct `std::sync::atomic` / `std::thread` in
//!    concurrency-critical crates ([`crate::sites::check_facade`]).
//! 2. `safety-comment`  — `unsafe` blocks/impls need `// SAFETY:`
//!    ([`crate::sites::check_safety_comments`]).
//! 3. `persist-ordering`— branch-aware dataflow: every dirty PM write must
//!    be flushed on every path to every function exit — now run through the
//!    interprocedural call oracle, so a helper that persists the caller's
//!    write is recognized ([`crate::cfg`], [`crate::summary`]).
//! 4. `pm-layout`       — PM-resident types are repr(C)/repr(transparent),
//!    contain no ephemeral field types, and match the checked-in
//!    fingerprints in `pm_layout.lock` ([`crate::layout`]).
//! 5. `atomic-ordering` — every `Ordering::Relaxed` in audited crates
//!    carries an `// ordering:` justification ([`crate::sites::check_relaxed`]).
//! 6. `fence-budget`    — worst-case sfence counts per durable entry point,
//!    checked against `fence_budget.lock` ([`crate::fences`]).
//! 7. `lock-order`      — acquisition-graph cycles and locks held across
//!    fences ([`crate::locks`]).
//! 8. `race-audit`      — shared-state inventory + RacerD-style
//!    compositional lockset inference: unguarded writes to shared fields,
//!    accesses outside a field's inferred guard, `static mut`, and stale
//!    `// race:` justifications ([`crate::races`]).
//!
//! Findings can be suppressed via `crates/xtask/suppressions.txt`; every
//! suppression carries a reason and an expiry date, and expired, unused or
//! unknown-pass suppressions are themselves findings, so the file can only
//! shrink unless a human re-argues each entry.
//!
//! `--baseline <json>` subtracts a committed report (CI fails only on *new*
//! findings); `--bless` rewrites the lock files and the baseline.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::source::Source;
use crate::summary::Workspace;
use crate::{cfg, fences, layout, locks, races, sites};

/// Crates whose `src/` must go through the `mvkv-sync` facade (loom-swapped
/// atomics).
const FACADE_DIRS: &[&str] = &[
    "crates/skiplist/src",
    "crates/vhistory/src",
    "crates/pmem/src",
    "crates/core/src",
];

/// Crates whose functions the persist-ordering dataflow analyzes: everything
/// that issues dirty PM writes directly or through a pool handle.
const PERSIST_DIRS: &[&str] =
    &["crates/pmem/src", "crates/vhistory/src", "crates/keychain/src", "crates/core/src"];

/// Crates audited for unjustified `Ordering::Relaxed` (shared skiplist /
/// version-history / allocator state).
const ORDERING_DIRS: &[&str] = &["crates/skiplist/src", "crates/vhistory/src", "crates/pmem/src"];

/// Golden layout-fingerprint file, repo-relative.
pub const LOCK_PATH: &str = "crates/xtask/pm_layout.lock";

/// Suppression file, repo-relative.
pub const SUPPRESSIONS_PATH: &str = "crates/xtask/suppressions.txt";

/// Committed zero-drift report for CI's new-findings diff, repo-relative.
pub const BASELINE_PATH: &str = "crates/xtask/analysis_baseline.json";

// ---------------------------------------------------------------------------
// Check registry (drives `--only`, suppression validation and `explain`)
// ---------------------------------------------------------------------------

struct CheckDoc {
    id: &'static str,
    rule: &'static str,
    rationale: &'static str,
    escape: &'static str,
}

const CHECKS: &[CheckDoc] = &[
    CheckDoc {
        id: "facade",
        rule: "concurrency-critical crates must not use std::sync::atomic / std::thread \
               directly; import through the mvkv_sync facade.",
        rationale: "loom interleaving tests swap the facade's types for models; code that \
                    bypasses the facade silently escapes every concurrency test.",
        escape: "suppressions.txt entry `facade <file>:<line> until=YYYY-MM-DD <reason>`; \
                 #[cfg(test)] items are exempt automatically.",
    },
    CheckDoc {
        id: "safety-comment",
        rule: "every `unsafe {` block and `unsafe impl` needs a `// SAFETY:` comment on or \
               immediately above it.",
        rationale: "the comment forces the author to state the invariant the compiler can't \
                    check, and gives reviewers something to falsify.",
        escape: "write the SAFETY comment (preferred), or a suppressions.txt entry.",
    },
    CheckDoc {
        id: "persist-ordering",
        rule: "a dirty PM write must be flushed (clwb/persist + fence discipline) on every \
               control-flow path to every function exit, counting flushes performed by \
               resolved callees.",
        rationale: "a path that returns with unflushed PM data is a crash-consistency bug: \
                    the write may or may not survive, and recovery sees a torn store.",
        escape: "flush on the missing path; if the dirtiness is handed to a caller by \
                 contract, suppress with a reason naming the flushing caller.",
    },
    CheckDoc {
        id: "pm-layout",
        rule: "PM-resident types must be repr(C)/repr(transparent), free of ephemeral field \
               types, and match the fingerprints in pm_layout.lock.",
        rationale: "layout drift silently corrupts every existing pool file; the lock file \
                    turns an ABI change into a reviewed diff.",
        escape: "`cargo run -p xtask -- analyze --bless` after a deliberate, versioned \
                 layout change.",
    },
    CheckDoc {
        id: "atomic-ordering",
        rule: "every `Ordering::Relaxed` in audited crates carries an `// ordering:` \
               justification nearby.",
        rationale: "Relaxed is correct surprisingly rarely; the comment records the argument \
                    (monotonic counter, published-by-fence, etc.) for the next reader.",
        escape: "add the `// ordering:` comment; use Acquire/Release when in doubt.",
    },
    CheckDoc {
        id: "fence-budget",
        rule: "the worst-case sfence count of each durable entry point must match \
               fence_budget.lock (insert_batch: zero flat fences, one per chunk).",
        rationale: "PR 7 cut 583 fences to 251 by making fence minimality structural; this \
                    pass turns that invariant into a build-time check instead of hoping the \
                    crash matrix notices a regression.",
        escape: "`cargo run -p xtask -- analyze --bless` after updating DESIGN.md §13's \
                 audit tables; `// fence: amortized(reason)` reclassifies a one-time fence.",
    },
    CheckDoc {
        id: "lock-order",
        rule: "the lock-acquisition graph must be acyclic, and no guard may be held across an \
               sfence. A guard is a zero-argument `.lock()` / `.try_lock()`, or `.read()` / \
               `.write()` on an RwLock-typed field — one lock-site rule, shared with the \
               summaries and the race audit. A `let` guard is live to the end of its block \
               or its `drop(g)`; a temporary to the end of its statement (through the body \
               of `match` / `for` / `if let` / `while let` when taken in the header).",
        rationale: "cycles are deadlocks waiting for the right interleaving; a fence under a \
                    shard or chain lock serializes unrelated writers on the slowest PM \
                    operation.",
        escape: "`// lock-order: <reason>` on the acquisition line or immediately above it \
                 (mirrors the `// ordering:` convention).",
    },
    CheckDoc {
        id: "race-audit",
        rule: "every shared mutable field (atomic, lock-guarded, interior-mutable, raw-pointer \
               or pm-resident state reachable from a Sync context) must have a consistent \
               protection domain: facade-atomic, guarded-by a named lock at every access, or \
               thread-confined (TLS / &mut self). Unguarded writes, accesses outside a field's \
               inferred guard and `static mut` are findings. The guards held at an access are \
               the ones the lock-order pass sees there (same lowered body, same tracker, \
               Mutex and RwLock guards alike).",
        rationale: "loom covers four hand-modeled interleavings; this RacerD-style lockset \
                    inference audits every shared access in the 8 concurrency-critical crates \
                    compositionally, so a helper is checked under the locks its callers \
                    actually hold.",
        escape: "`// race: <why>` on the access line or the comment block above it (mirrors \
                 `// ordering:`); justifications that stop silencing a finding are flagged \
                 like stale suppressions.",
    },
    CheckDoc {
        id: "suppressions",
        rule: "suppressions.txt entries must parse, name a known pass, match a live finding \
               and carry an unexpired `until=` date.",
        rationale: "an escape hatch that can silently rot is worse than none; stale entries \
                    surface as findings so the file only shrinks without review.",
        escape: "none — fix or delete the entry.",
    },
];

/// Pass/check ids valid in suppressions and `--only`.
fn known_check(id: &str) -> bool {
    CHECKS.iter().any(|c| c.id == id)
}

/// `cargo run -p xtask -- explain <check-id>` payload.
pub fn explain(id: &str) -> Option<String> {
    let c = CHECKS.iter().find(|c| c.id == id)?;
    Some(format!(
        "{}\n\nrule:\n  {}\n\nwhy:\n  {}\n\nescape hatch:\n  {}\n",
        c.id, c.rule, c.rationale, c.escape
    ))
}

pub fn check_ids() -> Vec<&'static str> {
    CHECKS.iter().map(|c| c.id).collect()
}

// ---------------------------------------------------------------------------
// Findings and report
// ---------------------------------------------------------------------------

#[derive(Debug)]
pub struct Finding {
    pub check: &'static str,
    pub file: String,
    pub line: u32,
    /// Symbol the finding is about (e.g. `type:Entry`), empty when the
    /// check is positional rather than symbol-scoped.
    pub symbol: String,
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.check, self.msg)
    }
}

pub struct PassStat {
    pub name: &'static str,
    pub millis: u128,
    pub findings: usize,
}

pub struct Report {
    pub findings: Vec<Finding>,
    pub passes: Vec<PassStat>,
    pub suppressed: usize,
    /// Findings present in the `--baseline` report and therefore dropped.
    pub baselined: usize,
    /// Number of files loaded (for the human summary line).
    pub files: usize,
    /// Paths written by `--bless` (repo-relative).
    pub blessed: Vec<&'static str>,
}

/// What to run and against what. `Default` is a plain full run.
#[derive(Default)]
pub struct Options {
    /// Rewrite `pm_layout.lock`, `fence_budget.lock` and the baseline.
    pub bless: bool,
    /// Run a single pass (a check id) instead of all of them.
    pub only: Option<String>,
    /// Subtract the findings recorded in this JSON report.
    pub baseline: Option<PathBuf>,
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// One parsed suppression line:
/// `<check> <file>:<line> until=YYYY-MM-DD <reason>`.
struct Suppression {
    check: String,
    file: String,
    line: u32,
    until_days: i64,
    src_line: u32,
    used: std::cell::Cell<bool>,
}

/// Days since the Unix epoch for a civil date (Howard Hinnant's
/// `days_from_civil`, public domain algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m as i64 + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

fn today_days() -> i64 {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    (secs / 86_400) as i64
}

fn parse_date(s: &str) -> Option<i64> {
    let mut it = s.splitn(3, '-');
    let y: i64 = it.next()?.parse().ok()?;
    let m: u32 = it.next()?.parse().ok()?;
    let d: u32 = it.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d))
}

/// Parses the suppression file. Malformed lines become findings rather than
/// silently granting a pass.
fn load_suppressions(root: &Path, findings: &mut Vec<Finding>) -> Vec<Suppression> {
    let path = root.join(SUPPRESSIONS_PATH);
    let Ok(text) = std::fs::read_to_string(&path) else { return Vec::new() };
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let malformed = |msg: &str| Finding {
            check: "suppressions",
            file: SUPPRESSIONS_PATH.to_string(),
            line: line_no,
            symbol: String::new(),
            msg: format!(
                "{msg}; expected `<check> <file>:<line> until=YYYY-MM-DD <reason>`: `{line}`"
            ),
        };
        let mut parts = line.split_whitespace();
        let (Some(check), Some(loc), Some(until)) = (parts.next(), parts.next(), parts.next())
        else {
            findings.push(malformed("too few fields"));
            continue;
        };
        if !known_check(check) {
            findings.push(malformed(&format!(
                "unknown pass `{check}` (run `cargo run -p xtask -- explain` for the list)"
            )));
            continue;
        }
        let Some((file, num)) = loc.rsplit_once(':') else {
            findings.push(malformed("missing `:line` in location"));
            continue;
        };
        let Ok(num) = num.parse::<u32>() else {
            findings.push(malformed("location line is not a number"));
            continue;
        };
        let Some(date) = until.strip_prefix("until=").and_then(parse_date) else {
            findings.push(malformed("missing or invalid `until=YYYY-MM-DD`"));
            continue;
        };
        if parts.next().is_none() {
            findings.push(malformed("missing reason"));
            continue;
        }
        out.push(Suppression {
            check: check.to_string(),
            file: file.to_string(),
            line: num,
            until_days: date,
            src_line: line_no,
            used: std::cell::Cell::new(false),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// Baseline (CI diffs against the committed report, failing only on NEW)
// ---------------------------------------------------------------------------

/// Extracts the string value of `"name": "…"` from a one-finding-per-line
/// JSON report, still escaped — keys are compared in escaped form, so no
/// unescaper is needed.
fn json_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut end = 0;
    let b = rest.as_bytes();
    while end < b.len() {
        match b[end] {
            b'\\' => end += 2,
            b'"' => return Some(&rest[..end]),
            _ => end += 1,
        }
    }
    None
}

/// Keys of the findings recorded in a baseline report. Line numbers are
/// deliberately not part of the key: unrelated edits move findings around,
/// and a moved finding is not a new one.
fn baseline_keys(text: &str) -> Vec<(String, String, String)> {
    text.lines()
        .filter_map(|l| {
            Some((
                json_field(l, "check")?.to_string(),
                json_field(l, "file")?.to_string(),
                json_field(l, "msg")?.to_string(),
            ))
        })
        .collect()
}

fn finding_key(f: &Finding) -> (String, String, String) {
    (json_escape(f.check), json_escape(&f.file), json_escape(&f.msg))
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn run(root: &Path, opts: &Options) -> Report {
    run_on(root, &Source::load(root), opts)
}

/// Runs the passes over an already parsed workspace.
pub fn run_on(root: &Path, src: &Source, opts: &Options) -> Report {
    let mut findings = Vec::new();
    let mut passes = Vec::new();
    let enabled = |name: &str| opts.only.as_deref().is_none_or(|o| o == name);

    // The interprocedural workspace: function index + call graph + effect
    // summaries, shared by the persist-ordering, fence-budget, lock-order
    // and race-audit passes. Its row also carries the front end's parse
    // time, so the rows sum to the whole analysis.
    let t0 = Instant::now();
    let ws = Workspace::build(src);
    let millis = (src.parse_time + t0.elapsed()).as_millis();
    passes.push(PassStat { name: "summaries", millis, findings: 0 });

    let mut timed = |name: &'static str,
                     findings: &mut Vec<Finding>,
                     f: &mut dyn FnMut(&mut Vec<Finding>)| {
        let before = findings.len();
        let t0 = Instant::now();
        f(findings);
        passes.push(PassStat {
            name,
            millis: t0.elapsed().as_millis(),
            findings: findings.len() - before,
        });
    };

    // Pass 1: facade discipline.
    if enabled("facade") {
        timed("facade", &mut findings, &mut |findings| {
            for sf in src.in_dirs(FACADE_DIRS) {
                for (line, msg) in sites::check_facade(sf) {
                    findings.push(Finding {
                        check: "facade",
                        file: sf.rel.clone(),
                        line,
                        symbol: String::new(),
                        msg,
                    });
                }
            }
        });
    }

    // Pass 2: SAFETY comments (whole workspace).
    if enabled("safety-comment") {
        timed("safety-comment", &mut findings, &mut |findings| {
            for sf in &src.files {
                for (line, msg) in sites::check_safety_comments(sf) {
                    findings.push(Finding {
                        check: "safety-comment",
                        file: sf.rel.clone(),
                        line,
                        symbol: String::new(),
                        msg,
                    });
                }
            }
        });
    }

    // Pass 3: persist-ordering dataflow, through the call oracle.
    if enabled("persist-ordering") {
        timed("persist-ordering", &mut findings, &mut |findings| {
            for i in ws.fns_in(PERSIST_DIRS) {
                let info = ws.fn_info(i);
                let oracle = ws.oracle(i);
                for exit in cfg::dirty_exits_with(&info.body, info.end_line, &oracle) {
                    findings.push(Finding {
                        check: "persist-ordering",
                        file: ws.fn_rel(i).to_string(),
                        line: exit.write_line,
                        symbol: String::new(),
                        msg: exit.describe(info.item.name),
                    });
                }
            }
        });
    }

    // Pass 4: PM layout audit + golden fingerprints.
    let mut blessed = Vec::new();
    if enabled("pm-layout") {
        timed("pm-layout", &mut findings, &mut |findings| {
            let (pm, layout_findings) = layout::audit(src);
            for f in layout_findings {
                findings.push(Finding {
                    check: "pm-layout",
                    file: f.file,
                    line: f.line,
                    symbol: f.symbol,
                    msg: f.msg,
                });
            }
            if opts.bless {
                let rendered = layout::render_lock(&pm);
                if std::fs::write(root.join(LOCK_PATH), rendered).is_ok() {
                    blessed.push(LOCK_PATH);
                } else {
                    findings.push(Finding {
                        check: "pm-layout",
                        file: LOCK_PATH.to_string(),
                        line: 0,
                        symbol: String::new(),
                        msg: "failed to write the lock file".to_string(),
                    });
                }
            } else {
                let lock = std::fs::read_to_string(root.join(LOCK_PATH)).ok();
                for f in layout::diff_lock(&pm, lock.as_deref()) {
                    findings.push(Finding {
                        check: "pm-layout",
                        file: f.file,
                        line: f.line,
                        symbol: String::new(),
                        msg: f.msg,
                    });
                }
            }
        });
    }

    // Pass 5: atomic-ordering audit.
    if enabled("atomic-ordering") {
        timed("atomic-ordering", &mut findings, &mut |findings| {
            for sf in src.in_dirs(ORDERING_DIRS) {
                for (line, msg) in sites::check_relaxed(sf) {
                    findings.push(Finding {
                        check: "atomic-ordering",
                        file: sf.rel.clone(),
                        line,
                        symbol: String::new(),
                        msg,
                    });
                }
            }
        });
    }

    // Pass 6: fence budgets vs fence_budget.lock.
    if enabled("fence-budget") {
        timed("fence-budget", &mut findings, &mut |findings| {
            let (budgets, mut fence_findings) = fences::compute(&ws, fences::ENTRIES);
            if opts.bless {
                let rendered = fences::render_lock(&budgets, fences::WORKLOADS);
                if std::fs::write(root.join(fences::FENCE_BUDGET_PATH), rendered).is_ok() {
                    blessed.push(fences::FENCE_BUDGET_PATH);
                } else {
                    fence_findings.push((
                        fences::FENCE_BUDGET_PATH.to_string(),
                        0,
                        "failed to write the lock file".to_string(),
                    ));
                }
            } else {
                let lock = std::fs::read_to_string(root.join(fences::FENCE_BUDGET_PATH)).ok();
                fence_findings.extend(fences::check(&budgets, fences::WORKLOADS, lock.as_deref()));
            }
            for (file, line, msg) in fence_findings {
                findings.push(Finding {
                    check: "fence-budget",
                    file,
                    line,
                    symbol: String::new(),
                    msg,
                });
            }
        });
    }

    // Pass 7: lock-order audit.
    if enabled("lock-order") {
        timed("lock-order", &mut findings, &mut |findings| {
            for (file, line, msg) in locks::check(&ws) {
                findings.push(Finding {
                    check: "lock-order",
                    file,
                    line,
                    symbol: String::new(),
                    msg,
                });
            }
        });
    }

    // Pass 8: shared-state inventory + compositional race audit.
    if enabled("race-audit") {
        timed("race-audit", &mut findings, &mut |findings| {
            for (file, line, msg) in races::check(&ws) {
                findings.push(Finding {
                    check: "race-audit",
                    file,
                    line,
                    symbol: String::new(),
                    msg,
                });
            }
        });
    }

    // Suppressions: drop matching findings, flag expired/unused entries.
    let suppressions = load_suppressions(root, &mut findings);
    let today = today_days();
    let before = findings.len();
    findings.retain(|f| {
        !suppressions.iter().any(|s| {
            let hit =
                s.check == f.check && s.file == f.file && s.line == f.line && s.until_days >= today;
            if hit {
                s.used.set(true);
            }
            hit
        })
    });
    let suppressed = before - findings.len();
    for s in &suppressions {
        // An `--only` run that skipped the entry's pass cannot judge whether
        // it is still needed.
        if opts.only.as_deref().is_some_and(|o| o != s.check) {
            continue;
        }
        if s.until_days < today {
            findings.push(Finding {
                check: "suppressions",
                file: SUPPRESSIONS_PATH.to_string(),
                line: s.src_line,
                symbol: String::new(),
                msg: format!(
                    "suppression for {}:{} (pass `{}`) has expired — fix the finding or \
                     re-argue the entry with a new expiry",
                    s.file, s.line, s.check
                ),
            });
        } else if !s.used.get() {
            findings.push(Finding {
                check: "suppressions",
                file: SUPPRESSIONS_PATH.to_string(),
                line: s.src_line,
                symbol: String::new(),
                msg: format!(
                    "suppression for {}:{} (pass `{}`) matched nothing — the finding is \
                     gone, delete the entry",
                    s.file, s.line, s.check
                ),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.check).cmp(&(&b.file, b.line, b.check)));

    // Baseline diff: drop findings the committed report already records.
    let mut baselined = 0;
    if let Some(path) = &opts.baseline {
        match std::fs::read_to_string(if path.is_absolute() {
            path.clone()
        } else {
            root.join(path)
        }) {
            Ok(text) => {
                let keys = baseline_keys(&text);
                let before = findings.len();
                findings.retain(|f| !keys.contains(&finding_key(f)));
                baselined = before - findings.len();
            }
            Err(e) => findings.push(Finding {
                check: "suppressions",
                file: path.display().to_string(),
                line: 0,
                symbol: String::new(),
                msg: format!("cannot read baseline report: {e}"),
            }),
        }
    }

    let mut report =
        Report { findings, passes, suppressed, baselined, files: src.files.len(), blessed };

    // Bless the baseline last: it records the post-suppression report, with
    // timings zeroed so re-blessing an unchanged workspace is a no-op diff.
    if opts.bless {
        let mut stable = render_json(&report);
        for p in &report.passes {
            stable = stable.replace(
                &format!("\"name\": \"{}\", \"findings\": {}, \"millis\": {}", p.name, p.findings, p.millis),
                &format!("\"name\": \"{}\", \"findings\": {}, \"millis\": 0", p.name, p.findings),
            );
        }
        if std::fs::write(root.join(BASELINE_PATH), stable).is_ok() {
            report.blessed.push(BASELINE_PATH);
        } else {
            report.findings.push(Finding {
                check: "suppressions",
                file: BASELINE_PATH.to_string(),
                line: 0,
                symbol: String::new(),
                msg: "failed to write the baseline report".to_string(),
            });
        }
    }

    report
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

pub fn render_human(r: &Report) -> String {
    let mut out = String::new();
    for f in &r.findings {
        let _ = writeln!(out, "{f}");
    }
    for p in &r.passes {
        let _ = writeln!(
            out,
            "xtask analyze: pass {:<16} {:>4} finding(s) in {:>4} ms",
            p.name, p.findings, p.millis
        );
    }
    for path in &r.blessed {
        let _ = writeln!(out, "xtask analyze: wrote {path}");
    }
    let _ = writeln!(
        out,
        "xtask analyze: {} file(s), {} finding(s), {} suppressed, {} baselined",
        r.files,
        r.findings.len(),
        r.suppressed,
        r.baselined
    );
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report for the CI artifact. Hand-rolled: the workspace
/// builds offline and xtask deliberately has no dependencies. Version 2
/// adds the fence-budget / lock-order passes and the `baselined` counter.
pub fn render_json(r: &Report) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"passes\": [\n");
    for (i, p) in r.passes.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"findings\": {}, \"millis\": {}}}{}",
            p.name,
            p.findings,
            p.millis,
            if i + 1 < r.passes.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"findings\": [\n");
    for (i, f) in r.findings.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"check\": \"{}\", \"file\": \"{}\", \"line\": {}, \"symbol\": \"{}\", \
             \"msg\": \"{}\"}}{}",
            json_escape(f.check),
            json_escape(&f.file),
            f.line,
            json_escape(&f.symbol),
            json_escape(&f.msg),
            if i + 1 < r.findings.len() { "," } else { "" }
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"files\": {},\n  \"suppressed\": {},\n  \"baselined\": {}\n}}\n",
        r.files, r.suppressed, r.baselined
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{read_workspace, SrcFile};

    #[test]
    fn civil_dates_map_to_epoch_days() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(2000, 3, 1), 11017);
        assert_eq!(days_from_civil(2026, 8, 6), 20671);
        assert!(parse_date("2026-08-06").is_some());
        assert!(parse_date("2026-13-06").is_none());
        assert!(parse_date("not-a-date").is_none());
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("tab\there"), "tab\\there");
    }

    #[test]
    fn suppression_lines_parse_and_misparse() {
        let dir = std::env::temp_dir().join(format!("xtask-sup-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/xtask")).unwrap();
        std::fs::write(
            dir.join(SUPPRESSIONS_PATH),
            "# comment\n\
             persist-ordering crates/vhistory/src/x.rs:10 until=2099-01-01 tracked in #42\n\
             bad-line-without-fields\n\
             facade crates/pmem/src/y.rs:notanumber until=2099-01-01 reason\n\
             not-a-pass crates/pmem/src/y.rs:3 until=2099-01-01 reason\n",
        )
        .unwrap();
        let mut findings = Vec::new();
        let sups = load_suppressions(&dir, &mut findings);
        assert_eq!(sups.len(), 1);
        assert_eq!(sups[0].check, "persist-ordering");
        assert_eq!(sups[0].line, 10);
        assert_eq!(findings.len(), 3, "malformed + unknown-pass lines flagged: {findings:?}");
        assert!(findings[2].msg.contains("unknown pass"), "{}", findings[2].msg);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_check_has_an_explanation() {
        for id in check_ids() {
            let text = explain(id).unwrap();
            assert!(text.contains("rule:") && text.contains("escape hatch:"), "{id}");
        }
        assert!(explain("no-such-check").is_none());
    }

    #[test]
    fn baseline_keys_round_trip_through_the_json_report() {
        let r = Report {
            findings: vec![Finding {
                check: "lock-order",
                file: "crates/core/src/a.rs".to_string(),
                line: 7,
                symbol: String::new(),
                msg: "lock `a` held across \"fence\"".to_string(),
            }],
            passes: Vec::new(),
            suppressed: 0,
            baselined: 0,
            files: 1,
            blessed: Vec::new(),
        };
        let json = render_json(&r);
        let keys = baseline_keys(&json);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0], finding_key(&r.findings[0]));
    }

    /// One known-bad edit of a real workspace file.
    struct Seed {
        check: &'static str,
        file: &'static str,
        /// Text occurring once in `file` …
        find: &'static str,
        /// … replaced by this, with the same number of lines.
        replace: &'static str,
        /// Text (after the edit) occurring first on the line the finding must name.
        at: &'static str,
    }

    const SEEDS: &[Seed] = &[
        Seed {
            check: "safety-comment",
            file: "crates/pmem/src/txn.rs",
            find: "// SAFETY: targets were valid when logged",
            replace: "// targets were valid when logged",
            at: "unsafe {\n            let old = pool.bytes(rec + 16, len).to_vec();",
        },
        Seed {
            check: "facade",
            file: "crates/pmem/src/txn.rs",
            find: "fn rollback(&mut self) {",
            replace: "fn rollback(&mut self) { let _ = std::thread::current();",
            at: "std::thread::current()",
        },
        Seed {
            check: "persist-ordering",
            file: "crates/pmem/src/txn.rs",
            find: "self.pool.write_u64(off, val);\n        self.pool.persist(off, 8);",
            replace: "self.pool.write_u64(off, val);\n",
            at: "self.pool.write_u64(off, val);",
        },
        Seed {
            check: "pm-layout",
            file: "crates/vhistory/src/slots.rs",
            find: "    pub crc: AtomicU64,\n    pub done: AtomicU64,\n",
            replace: "    pub done: AtomicU64,\n    pub crc: AtomicU64,\n",
            at: "pub struct Entry {",
        },
        Seed {
            check: "atomic-ordering",
            file: "crates/pmem/src/txn.rs",
            find: "fn rollback(&mut self) {",
            replace: "fn rollback(&mut self) { let _ = Ordering::Relaxed;",
            at: "fn rollback(&mut self) {",
        },
        Seed {
            check: "fence-budget",
            file: "crates/pmem/src/txn.rs",
            find: "self.committed = true;",
            replace: "self.pool.fence(); self.committed = true;",
            at: "pub fn commit(mut self) {",
        },
        Seed {
            check: "lock-order",
            file: "crates/obs/src/imp.rs",
            find: "let gauges = self.gauges.lock();",
            replace: "let gauges = self.gauges.lock(); fence();",
            at: "let gauges = self.gauges.lock();",
        },
        Seed {
            check: "race-audit",
            file: "crates/pmem/src/alloc.rs",
            find: "fn mark_allocated(&self, pool: &PmemPool, payload_off: u64) {",
            replace: "fn mark_allocated(&self, pool: &PmemPool, payload_off: u64) { self.shards = Box::new([]);",
            at: "fn mark_allocated(",
        },
        // An `RwLock` guard is a guard: one lock-site rule for every pass.
        Seed {
            check: "lock-order",
            file: "crates/minidb/src/wal.rs",
            find: "let mut index = self.index.write();\n        let mut hdr",
            replace: "let mut index = self.index.write(); fence();\n        let mut hdr",
            at: "let mut index = self.index.write(); fence();",
        },
        // `Branch` scoping: the guard taken in the first arm is gone in the
        // second, so its write is unguarded (and the only finding — were the
        // guard still held, every unguarded read of `shards` would be one).
        Seed {
            check: "race-audit",
            file: "crates/pmem/src/alloc.rs",
            find: "fn mark_allocated(&self, pool: &PmemPool, payload_off: u64) {",
            replace: "fn mark_allocated(&self, pool: &PmemPool, payload_off: u64) { match payload_off { 0 => self.large_free.lock().clear(), _ => self.shards = Box::new([]) }",
            at: "fn mark_allocated(",
        },
    ];

    /// The equivalence oracle for analyzer refactors: the workspace itself
    /// has zero findings, so each pass is shown one in-memory defect in a
    /// real file and must be the only pass to report it, at that line.
    #[test]
    fn each_seeded_defect_is_reported_by_exactly_its_pass() {
        let root = crate::repo_root();
        let files = read_workspace(&root);
        let mut src = Source::parse(files.clone());
        for seed in SEEDS {
            let i = files.iter().position(|(rel, _)| rel == seed.file).expect(seed.file);
            let clean = &files[i].1;
            assert_eq!(clean.matches(seed.find).count(), 1, "{}: `{}`", seed.file, seed.find);
            let bad = clean.replace(seed.find, seed.replace);
            let line = 1 + bad[..bad.find(seed.at).expect(seed.at)].matches('\n').count() as u32;
            src.files[i] = SrcFile::parse(seed.file.to_string(), bad);
            let report = run_on(&root, &src, &Options::default());
            let got: Vec<_> =
                report.findings.iter().map(|f| (f.check, f.file.as_str(), f.line)).collect();
            assert_eq!(got, [(seed.check, seed.file, line)], "{:#?}", report.findings);
            src.files[i] = SrcFile::parse(seed.file.to_string(), clean.clone());
        }
    }
}
