//! The analyzer driver: `cargo run -p xtask -- analyze`.
//!
//! The analyzer is one table, [`PASSES`]: a row is a pass's id, what `explain`
//! prints about it (rule, rationale, escape hatch) and the function that runs
//! it. Every pass reads the same [`Ctx`] — one parsed workspace
//! ([`crate::source::Source`]: each file is read once and lexed once per run,
//! however many passes look at it; a unit test counts the `lex` calls) — and
//! returns [`Finding`]s built where the defect is found.
//!
//! A finding fails the run. There is no waiver outside the source: the ways
//! to silence one are to fix it, to argue it in a comment next to it
//! (`// SAFETY:`, `// ordering:`, `pm-layout-exempt(…)`), or, for
//! `pm_layout.lock`, to re-bless after a deliberate layout change
//! (`--bless`).
//!
//! Lock discipline is not a pass: a debug build's `mvkv_sync` mutex counts
//! the guards each thread holds and panics on a nested `lock()` or on
//! `PmemPool::fence` under a guard, on every path the tests run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::source::Source;
use crate::{layout, sites};

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
    pub src: &'a Source,
    /// `--bless`: rewrite `pm_layout.lock` instead of diffing against it.
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
        run: |cx| cx.src.in_dirs(FACADE_DIRS).flat_map(sites::check_facade).collect(),
    },
    Pass {
        id: "safety-comment",
        rule: "every `unsafe {` block and `unsafe impl` needs a `// SAFETY:` comment on or \
               immediately above it.",
        rationale: "the comment forces the author to state the invariant the compiler can't \
                    check, and gives reviewers something to falsify.",
        escape: "none — write the SAFETY comment.",
        run: |cx| cx.src.files.iter().flat_map(sites::check_safety_comments).collect(),
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
        run: |cx| cx.src.in_dirs(ORDERING_DIRS).flat_map(sites::check_relaxed).collect(),
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

// ---------------------------------------------------------------------------
// Findings and report
// ---------------------------------------------------------------------------

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub check: &'static str,
    pub file: String,
    pub line: u32,
    pub msg: String,
}

impl Finding {
    pub fn new(check: &'static str, file: &str, line: u32, msg: String) -> Finding {
        Finding { check, file: file.to_string(), line, msg }
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
    /// Wall time of what every pass shares: reading and parsing the files.
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
    let cx = Ctx { root, src, bless };
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
    let front_end_millis = src.parse_time.as_millis();
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
/// builds offline and xtask deliberately has no dependencies. Version 4: the
/// passes of the table and the front end's time beside them; every
/// finding listed failed the run, and names what it is about in its message.
pub fn render_json(r: &Report) -> String {
    let mut out = format!(
        "{{\n  \"version\": 4,\n  \"files\": {},\n  \"front_end_millis\": {},\n  \"passes\": [\n",
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
            "    {{\"check\": \"{}\", \"file\": \"{}\", \"line\": {}, \"msg\": \"{}\"}}{}",
            json_escape(f.check),
            json_escape(&f.file),
            f.line,
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
            file: "crates/pmem/src/pool.rs",
            find: "// SAFETY: in-bounds, aligned; AtomicU64",
            replace: "// in-bounds, aligned; AtomicU64",
            at: "unsafe { &*(self.backend.base().add(off as usize) as *const AtomicU64) }",
        },
        Seed {
            check: "facade",
            file: "crates/pmem/src/pool.rs",
            find: "pub fn sync_all(&self) {",
            replace: "pub fn sync_all(&self) { let _ = std::thread::current();",
            at: "std::thread::current()",
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
            file: "crates/pmem/src/pool.rs",
            find: "pub fn root(&self) -> u64 {",
            replace: "pub fn root(&self) -> u64 { let _ = Ordering::Relaxed;",
            at: "pub fn root(&self) -> u64 {",
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
