//! The analyzer driver: `cargo run -p xtask -- analyze`.
//!
//! The analyzer is one table, [`PASSES`]: a row is a pass's id, what `explain`
//! prints about it (rule, rationale, escape hatch) and the function that runs
//! it. Every pass reads the same [`Ctx`] — one parsed workspace
//! ([`crate::source::Source`]: each file is read once and lexed once per run,
//! however many passes look at it; a unit test counts the `lex` calls) under
//! one interprocedural function index ([`crate::summary::Workspace`]) — and
//! returns [`Finding`]s built where the defect is found.
//!
//! A finding fails the run. There is no waiver outside the source: the ways
//! to silence one are to fix it, to argue it in a comment next to it
//! (`// SAFETY:`, `// ordering:`, `// lock-order:`, `// race:`,
//! `// fence: amortized(…)`, `pm-layout-exempt(…)` — each checked for
//! staleness by its pass), or, for the two golden files, to re-bless after a
//! deliberate change (`--bless`, [`Ctx::golden`]).

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::source::Source;
use crate::summary::Workspace;
use crate::{cfg, fences, layout, locks, races, sites};

/// Crates whose `src/` must go through the `mvkv-sync` facade (loom-swapped
/// atomics).
const FACADE_DIRS: &[&str] =
    &["crates/skiplist/src", "crates/vhistory/src", "crates/pmem/src", "crates/core/src"];

/// Crates audited for unjustified `Ordering::Relaxed` (shared skiplist /
/// version-history / allocator state).
const ORDERING_DIRS: &[&str] = &["crates/skiplist/src", "crates/vhistory/src", "crates/pmem/src"];

// ---------------------------------------------------------------------------
// The pass table
// ---------------------------------------------------------------------------

/// What every pass reads.
pub struct Ctx<'a> {
    pub root: &'a Path,
    pub ws: &'a Workspace<'a>,
    /// `--bless`: rewrite the golden files instead of diffing against them.
    pub bless: bool,
}

pub struct Pass {
    pub id: &'static str,
    rule: &'static str,
    rationale: &'static str,
    escape: &'static str,
    run: fn(&Ctx) -> Vec<Finding>,
}

pub const PASSES: &[Pass] = &[
    Pass {
        id: "facade",
        rule: "concurrency-critical crates must not use std::sync::atomic / std::thread \
               directly; import through the mvkv_sync facade.",
        rationale: "loom interleaving tests swap the facade's types for models; code that \
                    bypasses the facade silently escapes every concurrency test.",
        escape: "none — import through mvkv_sync; #[cfg(test)] items are exempt automatically.",
        run: |cx| cx.ws.source().in_dirs(FACADE_DIRS).flat_map(sites::check_facade).collect(),
    },
    Pass {
        id: "safety-comment",
        rule: "every `unsafe {` block and `unsafe impl` needs a `// SAFETY:` comment on or \
               immediately above it.",
        rationale: "the comment forces the author to state the invariant the compiler can't \
                    check, and gives reviewers something to falsify.",
        escape: "none — write the SAFETY comment.",
        run: |cx| cx.ws.source().files.iter().flat_map(sites::check_safety_comments).collect(),
    },
    Pass {
        id: "persist-ordering",
        rule: "a dirty PM write must be flushed (clwb/persist + fence discipline) on every \
               control-flow path to every function exit, counting flushes performed by \
               resolved callees.",
        rationale: "a path that returns with unflushed PM data is a crash-consistency bug: \
                    the write may or may not survive, and recovery sees a torn store.",
        escape: "none — flush on the missing path (a flush alone clears the state: the fence \
                 may be the caller's, batched).",
        run: |cx| cfg::check(cx.ws),
    },
    Pass {
        id: "pm-layout",
        rule: "PM-resident types must be repr(C)/repr(transparent), free of ephemeral field \
               types, and match the fingerprints in pm_layout.lock.",
        rationale: "layout drift silently corrupts every existing pool file; the lock file \
                    turns an ABI change into a reviewed diff.",
        escape: "`cargo run -p xtask -- analyze --bless` after a deliberate, versioned \
                 layout change; `pm-layout-exempt(<why>)` in a struct's docs skips the \
                 repr/field rules (the fingerprint still holds).",
        run: layout::check,
    },
    Pass {
        id: "atomic-ordering",
        rule: "every `Ordering::Relaxed` in audited crates carries an `// ordering:` \
               justification nearby.",
        rationale: "Relaxed is correct surprisingly rarely; the comment records the argument \
                    (monotonic counter, published-by-fence, etc.) for the next reader.",
        escape: "add the `// ordering:` comment; use Acquire/Release when in doubt.",
        run: |cx| cx.ws.source().in_dirs(ORDERING_DIRS).flat_map(sites::check_relaxed).collect(),
    },
    Pass {
        id: "fence-budget",
        rule: "the worst-case sfence count of each durable entry point must match \
               fence_budget.lock (insert_batch: zero flat fences, one per chunk).",
        rationale: "PR 7 cut 583 fences to 251 by making fence minimality structural; this \
                    pass turns that invariant into a build-time check instead of hoping the \
                    crash matrix notices a regression.",
        escape: "`cargo run -p xtask -- analyze --bless` after updating DESIGN.md §13's \
                 audit tables; `// fence: amortized(reason)` reclassifies a one-time fence.",
        run: fences::check,
    },
    Pass {
        id: "lock-order",
        rule: "the lock-acquisition graph must be acyclic, and no guard may be held across an \
               sfence. A guard is a zero-argument `.lock()` / `.try_lock()`, or `.read()` / \
               `.write()` on an RwLock-typed field or static — one lock-site rule, shared \
               with the summaries and the race audit. A guard is bound when its call ends a \
               `let` initializer (through `?` / `.unwrap()` / `.expect(…)`) and is then live \
               to the end of its block or its `drop(g)`; any other guard is a temporary, \
               live to the end of its statement (through the body of `match` / `for` / \
               `if let` / `while let` when taken in the header).",
        rationale: "cycles are deadlocks waiting for the right interleaving; a fence under a \
                    shard or chain lock serializes unrelated writers on the slowest PM \
                    operation.",
        escape: "`// lock-order: <reason>` on the acquisition line or immediately above it \
                 (mirrors the `// ordering:` convention).",
        run: |cx| locks::check(cx.ws),
    },
    Pass {
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
                 `// ordering:`); a justification that no longer silences anything is \
                 itself a finding.",
        run: |cx| races::check(cx.ws),
    },
];

/// `cargo run -p xtask -- explain <check-id>` payload.
pub fn explain(id: &str) -> Option<String> {
    let p = PASSES.iter().find(|p| p.id == id)?;
    Some(format!(
        "{}\n\nrule:\n  {}\n\nwhy:\n  {}\n\nescape hatch:\n  {}\n",
        p.id, p.rule, p.rationale, p.escape
    ))
}

pub fn check_ids() -> Vec<&'static str> {
    PASSES.iter().map(|p| p.id).collect()
}

impl Ctx<'_> {
    /// The one golden-file protocol (`pm_layout.lock`, `fence_budget.lock`):
    /// `--bless` writes `rendered` to `path`; any other run hands the file's
    /// text (`None`: there is no file) to `diff`.
    pub fn golden(
        &self,
        check: &'static str,
        path: &str,
        rendered: String,
        diff: impl FnOnce(Option<&str>) -> Vec<Finding>,
    ) -> Vec<Finding> {
        let file = self.root.join(path);
        if !self.bless {
            return diff(std::fs::read_to_string(file).ok().as_deref());
        }
        match std::fs::write(file, rendered) {
            Ok(()) => {
                eprintln!("xtask analyze: wrote {path}");
                Vec::new()
            }
            Err(e) => vec![Finding::new(check, path, 0, format!("cannot write {path}: {e}"))],
        }
    }
}

// ---------------------------------------------------------------------------
// Findings and report
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub check: &'static str,
    pub file: String,
    pub line: u32,
    /// Symbol the finding is about (e.g. `type:Entry`), empty when the
    /// check is positional rather than symbol-scoped.
    pub symbol: String,
    pub msg: String,
}

impl Finding {
    pub fn new(check: &'static str, file: &str, line: u32, msg: String) -> Finding {
        Finding { check, file: file.to_string(), line, symbol: String::new(), msg }
    }
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
    /// One row per [`PASSES`] row, in table order.
    pub passes: Vec<PassStat>,
    /// Number of files loaded.
    pub files: usize,
    /// Wall time of what every pass shares: parsing the files, lowering the
    /// function bodies, the call graph and the effect summaries.
    pub front_end_millis: u128,
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pub fn run(root: &Path, bless: bool) -> Report {
    run_on(root, &Source::load(root), bless)
}

/// Runs every pass over an already parsed workspace.
pub fn run_on(root: &Path, src: &Source, bless: bool) -> Report {
    let t0 = Instant::now();
    let ws = Workspace::build(src);
    let front_end_millis = (src.parse_time + t0.elapsed()).as_millis();
    let cx = Ctx { root, ws: &ws, bless };
    let mut findings = Vec::new();
    let mut passes = Vec::new();
    for p in PASSES {
        let t0 = Instant::now();
        let found = (p.run)(&cx);
        passes.push(PassStat {
            name: p.id,
            millis: t0.elapsed().as_millis(),
            findings: found.len(),
        });
        findings.extend(found);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.check).cmp(&(&b.file, b.line, b.check)));
    Report { findings, passes, files: src.files.len(), front_end_millis }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

pub fn render_human(r: &Report) -> String {
    let mut out = String::new();
    for f in &r.findings {
        let _ = writeln!(out, "{f}");
    }
    let _ = writeln!(
        out,
        "xtask analyze: front end        {:>4} file(s)    in {:>4} ms",
        r.files, r.front_end_millis
    );
    for p in &r.passes {
        let _ = writeln!(
            out,
            "xtask analyze: pass {:<16} {:>4} finding(s) in {:>4} ms",
            p.name, p.findings, p.millis
        );
    }
    let _ = writeln!(out, "xtask analyze: {} file(s), {} finding(s)", r.files, r.findings.len());
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
/// builds offline and xtask deliberately has no dependencies. Version 3: the
/// eight passes of the table and the front end's time beside them; every
/// finding listed failed the run.
pub fn render_json(r: &Report) -> String {
    let mut out = format!(
        "{{\n  \"version\": 3,\n  \"files\": {},\n  \"front_end_millis\": {},\n  \"passes\": [\n",
        r.files, r.front_end_millis
    );
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
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{read_workspace, SrcFile};

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("tab\there"), "tab\\there");
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
            find: "    pub value: AtomicU64,\n    pub crc_done: AtomicU64,\n",
            replace: "    pub crc_done: AtomicU64,\n    pub value: AtomicU64,\n",
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
            find: "fn state_word(&self, pool: &PmemPool, off: u64) -> u64 {",
            replace: "fn state_word(&self, pool: &PmemPool, off: u64) -> u64 { self.shards = Box::new([]);",
            at: "fn state_word(&self",
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
            find: "fn state_word(&self, pool: &PmemPool, off: u64) -> u64 {",
            replace: "fn state_word(&self, pool: &PmemPool, off: u64) -> u64 { match off { 0 => self.large_free.lock().clear(), _ => self.shards = Box::new([]) }",
            at: "fn state_word(&self",
        },
    ];

    /// The equivalence oracle for analyzer refactors: the workspace itself
    /// has zero findings, so each pass is shown in-memory defects in real
    /// files — every row of [`PASSES`] has at least one, and an explanation
    /// to go with the finding — and must be the only pass to report each,
    /// at that line.
    #[test]
    fn each_seeded_defect_is_reported_by_exactly_its_pass() {
        let root = crate::repo_root();
        let files = read_workspace(&root);
        let mut src = Source::parse(files.clone());
        assert!(SEEDS.iter().all(|s| check_ids().contains(&s.check)), "a seed names no pass");
        assert!(explain("no-such-check").is_none());
        for pass in PASSES {
            let text = explain(pass.id).unwrap();
            assert!(text.contains("rule:") && text.contains("escape hatch:"), "{}", pass.id);
            let seeds: Vec<&Seed> = SEEDS.iter().filter(|s| s.check == pass.id).collect();
            assert!(!seeds.is_empty(), "pass `{}` has no seeded defect", pass.id);
            for seed in seeds {
                let i = files.iter().position(|(rel, _)| rel == seed.file).expect(seed.file);
                let clean = &files[i].1;
                assert_eq!(clean.matches(seed.find).count(), 1, "{}: `{}`", seed.file, seed.find);
                let bad = clean.replace(seed.find, seed.replace);
                let line =
                    1 + bad[..bad.find(seed.at).expect(seed.at)].matches('\n').count() as u32;
                src.files[i] = SrcFile::parse(seed.file.to_string(), bad);
                let report = run_on(&root, &src, false);
                let got: Vec<_> =
                    report.findings.iter().map(|f| (f.check, f.file.as_str(), f.line)).collect();
                assert_eq!(got, [(seed.check, seed.file, line)], "{:#?}", report.findings);
                src.files[i] = SrcFile::parse(seed.file.to_string(), clean.clone());
            }
        }
    }
}
