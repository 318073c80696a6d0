//! Three source rules that no compiler check keeps, scanned as text:
//!
//! * **facade**: the concurrency-critical crates take atomics, locks and
//!   threads from `mvkv_sync`, never from `std::sync::atomic`,
//!   `core::sync::atomic`, `std::sync::Mutex` or `std::thread`, so the loom
//!   models run the code that readers run, and no lock escapes the debug
//!   guard count;
//! * **ordering**: every `Ordering::Relaxed` in the skip list, the version
//!   history and the allocator carries an `// ordering:` comment saying why it
//!   cannot race with publication, on its line or at the head of its cluster;
//! * **citations**: every section a comment, test or CI step cites as
//!   `DESIGN.md §<number>` is a numbered heading of DESIGN.md, so a
//!   renumbered design leaves no pointer to nothing;
//! * **one build**: no crate source dispatches on the CPU at run time — the
//!   build chooses the CRC32C path (`.cargo/config.toml`), and this test
//!   binary fails on x86_64 when the build dropped that flag.
//!
//! The first two read a file up to its first `#[cfg(test)]` line, each line
//! split at its first `//`; the last two read whole files, tests and all.
//! String literals are not parsed: a path or a citation inside one is a
//! finding. (SAFETY comments are clippy's; `const` asserts pin the PM layout.)

use std::path::Path;

const FACADE_DIRS: &[&str] =
    &["crates/skiplist/src", "crates/vhistory/src", "crates/pmem/src", "crates/core/src"];
const ORDERING_DIRS: &[&str] = &["crates/skiplist/src", "crates/vhistory/src", "crates/pmem/src"];
const FORBIDDEN: &[&str] =
    &["std::sync::atomic", "core::sync::atomic", "std::sync::Mutex", "std::thread"];
/// How many code lines may sit between a site and its `// ordering:` comment:
/// a `version` / `value` store pair and one line of slack, not a function.
const CLUSTER_LINES: usize = 3;
const CFG_TEST: &str = "#[cfg(test)]";
/// A rule's name and the 1-based line it fails on.
type Finding = (&'static str, usize);
/// Where the design is cited: every file below these, `target/` skipped.
const CITING_DIRS: &[&str] = &["crates", "src", "tests", ".github"];
const DESIGN: &str = "DESIGN.md";
/// A cited section that names no heading, and the 1-based line it is on.
type Citation<'a> = (&'a str, usize);
/// How code picks a CPU feature at run time, or compiles one function for a
/// feature the build does not enable.
const DISPATCH: &[&str] =
    &["is_x86_feature_detected!", "is_aarch64_feature_detected!", "target_feature(enable"];

/// A line's code, trimmed, and its `//` comment without slashes, a doc `!`
/// and leading blanks: where a marker must start.
fn split(line: &str) -> (&str, Option<&str>) {
    match line.find("//") {
        Some(at) => {
            let comment = line[at..].trim_start_matches('/').trim_start_matches('!');
            (line[..at].trim(), Some(comment.trim_start()))
        }
        None => (line.trim(), None),
    }
}

/// Whether an `// ordering:` comment covers `lines[i]`: on the line, or in
/// the comment block at the head of its cluster, attributes skipped. A blank
/// line, a line ending in `{`, a `}` line or a `fn ` line ends the walk up.
fn justified(lines: &[&str], i: usize) -> bool {
    let marked = |l: usize| split(lines[l]).1.is_some_and(|c| c.starts_with("ordering:"));
    if marked(i) {
        return true;
    }
    let mut budget = CLUSTER_LINES;
    for l in (0..i).rev() {
        let (code, comment) = split(lines[l]);
        if code.is_empty() && comment.is_none() {
            return false;
        } else if code.is_empty() && marked(l) {
            return true;
        } else if code.is_empty() || code.starts_with("#[") || code.starts_with("#!") {
            continue;
        } else if budget == 0 || code.ends_with('{') || code.starts_with('}') {
            return false;
        } else if code.starts_with("fn ") || marked(l) {
            return marked(l);
        }
        budget -= 1;
    }
    false
}

/// Every finding in a file's text, one per rule and line.
fn scan(text: &str, ordering: bool) -> Vec<Finding> {
    let lines: Vec<&str> = text.lines().take_while(|l| l.trim_end() != CFG_TEST).collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = split(line).0;
        if FORBIDDEN.iter().any(|path| code.contains(path)) {
            out.push(("facade", i + 1));
        }
        if ordering && code.contains("Ordering::Relaxed") && !justified(&lines, i) {
            out.push(("ordering", i + 1));
        }
    }
    out
}

/// The scan's premise: lines of the top-level items after a file's first
/// `#[cfg(test)]` line that do not carry one.
fn untested_items(text: &str) -> Vec<usize> {
    let lines: Vec<&str> = text.lines().collect();
    let cut = lines.iter().position(|l| l.trim_end() == CFG_TEST).unwrap_or(lines.len());
    let head = |l: &&&str| l.starts_with("#[") || l.starts_with("//");
    let tagged = |i| lines[..i].iter().rev().take_while(head).any(|l| l.trim_end() == CFG_TEST);
    let item = |l: &str| l.starts_with(char::is_alphabetic) && !l.starts_with("where");
    (cut..lines.len()).filter(|&i| item(lines[i]) && !tagged(i)).map(|i| i + 1).collect()
}

/// DESIGN.md's section numbers: `## 4. …` is "4", `### 4.9 …` is "4.9".
fn headings(design: &str) -> Vec<&str> {
    let heads = design.lines().filter(|l| l.starts_with('#'));
    let numbers = heads.filter_map(|l| l.split_whitespace().nth(1));
    numbers
        .filter(|n| n.starts_with(|c: char| c.is_ascii_digit()))
        .map(|n| n.trim_end_matches('.'))
        .collect()
}

/// Every `DESIGN.md §N[.M]` in a text that names none of `headings`, with its
/// line. A citation may break between the two at a comment's line start.
fn unresolved<'a>(text: &'a str, headings: &[&str]) -> Vec<Citation<'a>> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices(DESIGN) {
        let rest = text[at + DESIGN.len()..]
            .trim_start_matches(|c: char| c.is_whitespace() || c == '/' || c == '!' || c == '#');
        let Some(cited) = rest.strip_prefix('§') else { continue };
        let end = cited.find(|c: char| !c.is_ascii_digit() && c != '.').unwrap_or(cited.len());
        let section = cited[..end].trim_end_matches('.');
        if !section.is_empty() && !headings.contains(&section) {
            out.push((section, 1 + text[..at].matches('\n').count()));
        }
    }
    out
}

/// The 1-based lines of a text that dispatch on the CPU at run time.
fn dispatches(text: &str) -> Vec<usize> {
    let lines = text.lines().enumerate();
    lines.filter(|(_, l)| DISPATCH.iter().any(|d| l.contains(d))).map(|(i, _)| i + 1).collect()
}

/// Every file below `dir` but `target/` directories.
fn files_below(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() && !path.ends_with("target") {
            files_below(&path, out);
        } else if path.is_file() {
            out.push(path);
        }
    }
}

#[test]
fn the_tree_keeps_the_facade_and_ordering_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let (mut files, mut found) = (0, Vec::new());
    for dir in FACADE_DIRS {
        for path in std::fs::read_dir(root.join(dir)).unwrap().map(|e| e.unwrap().path()) {
            // A directory or any other file would go unread.
            assert!(path.extension().is_some_and(|e| e == "rs"), "{}", path.display());
            let text = std::fs::read_to_string(&path).unwrap();
            let rel = path.strip_prefix(root).unwrap().display();
            let findings = scan(&text, ORDERING_DIRS.contains(dir));
            found.extend(findings.iter().map(|(rule, line)| format!("{rel}:{line}: [{rule}]")));
            let untested = untested_items(&text).into_iter();
            found.extend(untested.map(|line| format!("{rel}:{line}: an item without {CFG_TEST}")));
            files += 1;
        }
    }
    assert!(files > 20, "the crates were not found: {files} file(s)");
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn each_row_reports_its_findings() {
    let cluster = format!("// ordering:\n#[cfg(loom)]\n{}", "a(Ordering::Relaxed)\n".repeat(5));
    let rows: &[(&str, &str, &[Finding])] = &[
        ("bare", "{\n    a.load(Ordering::Relaxed);\n}", &[("ordering", 2)]),
        ("same line", "a.load(Ordering::Relaxed); // ordering: a counter", &[]),
        ("above", "// ordering: a counter\n/// A doc.\na.load(Ordering::Relaxed);", &[]),
        ("anchored", "// prose, not ordering: x\na.load(Ordering::Relaxed);", &[("ordering", 2)]),
        ("a cluster, not a function", &cluster, &[("ordering", 7)]),
        ("fn", "// ordering: far\nfn f() {\n    a(Ordering::Relaxed);", &[("ordering", 3)]),
        ("gap", "// ordering:\na(Ordering::Relaxed)\n\na(Ordering::Relaxed)", &[("ordering", 4)]),
        ("one per line", "g(a(Ordering::Relaxed), b(Ordering::Relaxed));", &[("ordering", 1)]),
        ("not(test)", "#[cfg(not(any(test, miri)))]\nstd::thread::yield_now()", &[("facade", 2)]),
        ("a std lock", "static IDS: std::sync::Mutex<Vec<u8>> = f();", &[("facade", 1)]),
        ("comments", "f(); // std::thread, std::sync::atomic, Ordering::Relaxed", &[]),
        ("test code", "#[cfg(test)]\nmod tests {\n    use std::thread;\n}", &[]),
    ];
    for (what, text, want) in rows {
        assert_eq!(scan(text, true), *want, "{what}");
    }
    assert_eq!(untested_items("#[cfg(test)]\nmod tests {}\n\n/// A doc.\nfn f() {}"), [5]);
}

#[test]
fn every_design_citation_names_a_heading() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join(DESIGN)).unwrap();
    let headings = headings(&design);
    let (mut citing, mut found) = (0, Vec::new());
    let mut files = Vec::new();
    for dir in CITING_DIRS {
        files_below(&root.join(dir), &mut files);
    }
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let rel = path.strip_prefix(root).unwrap().display();
        citing += usize::from(text.contains(DESIGN));
        let missing = unresolved(&text, &headings).into_iter();
        found.extend(missing.map(|(s, line)| format!("{rel}:{line}: {DESIGN} §{s} is no heading")));
    }
    assert!(citing > 5, "the citing files were not found: {citing}");
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn each_citation_row_reports_its_findings() {
    let known = ["4", "4.9", "13", "13.3"];
    // Built, so that this file cites no missing section itself.
    let (unknown, after_a_break) =
        (format!("\n//! {DESIGN} §4.10 and §9"), format!("/// {DESIGN}\n/// §14: x"));
    let rows: &[(&str, &str, &[Citation])] = &[
        ("a section", "f(); // DESIGN.md §4 says why", &[]),
        ("a possessive", "// DESIGN.md §13.3's cross-thread case", &[]),
        ("a sentence's end", "// (DESIGN.md §4.9).", &[]),
        ("a word", "// see DESIGN.md substitution S1", &[]),
        ("no number", "every `DESIGN.md §N` citation", &[]),
        ("broken at a line", "f();\n// audit, DESIGN.md\n// §4.9): x", &[]),
        ("unknown", &unknown, &[("4.10", 2)]),
        ("unknown after a break", &after_a_break, &[("14", 1)]),
    ];
    for (what, text, want) in rows {
        assert_eq!(unresolved(text, &known), *want, "{what}");
    }
    assert_eq!(headings("# Title\n## 4. A\n### 4.9 B\n## Notes\n#[test]"), ["4", "4.9"]);
}

/// A renamed heading of the real DESIGN.md, found at the real citation of it.
#[test]
fn a_renamed_design_heading_is_found_at_its_citation() {
    let design = include_str!("../DESIGN.md");
    let api = include_str!("../crates/core/src/api.rs");
    let (heading, renamed) = ("\n### 4.9 ", "\n### 4.10 ");
    assert_eq!(design.matches(heading).count(), 1, "{heading}");
    assert_eq!(unresolved(api, &headings(design)), []);
    let line = 1 + api[..api.find(DESIGN).unwrap()].matches('\n').count();
    let design = design.replace(heading, renamed);
    assert_eq!(unresolved(api, &headings(&design)), [("4.9", line)]);
}

/// The two seeded defects, as edits of the real `pool.rs`.
#[test]
fn a_seeded_defect_in_pool_rs_is_found_at_its_line() {
    let clean = include_str!("../crates/pmem/src/pool.rs");
    for (rule, find, add) in [
        ("facade", "pub fn sync_all(&self) {", " let _ = std::thread::current();"),
        ("ordering", "pub fn root(&self) -> u64 {", " let _ = Ordering::Relaxed;"),
    ] {
        assert_eq!(clean.matches(find).count(), 1, "{find}");
        let line = 1 + clean[..clean.find(find).unwrap()].matches('\n').count();
        assert_eq!(scan(&clean.replace(find, &format!("{find}{add}")), true), [(rule, line)]);
    }
}

/// `.cargo/config.toml`'s `+sse4.2` reached this build: a renamed config, or
/// an environment `RUSTFLAGS` (which replaces a config's flags), would leave
/// every CRC on the portable table — correct, and slower on every record.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[test]
// A failing test names the dropped flag; a `const` assert would instead stop
// this binary from compiling, and every other rule in it from running.
#[allow(clippy::assertions_on_constants)]
fn the_build_compiles_the_crc_instruction() {
    assert!(cfg!(target_feature = "sse4.2"), "built without +sse4.2: see .cargo/config.toml");
}

#[test]
fn no_crate_dispatches_on_the_cpu_at_run_time() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).unwrap().map(|e| e.unwrap().path()) {
        if krate.join("src").is_dir() {
            files_below(&krate.join("src"), &mut files);
        }
    }
    files.retain(|path| path.extension().is_some_and(|e| e == "rs"));
    assert!(files.len() > 40, "the crates were not found: {} file(s)", files.len());
    let mut found = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap().display().to_string();
        let lines = dispatches(&std::fs::read_to_string(&path).unwrap());
        found.extend(lines.into_iter().map(|line| format!("{rel}:{line}: [dispatch]")));
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// Each way of dispatching, seeded into the real `crc.rs`.
#[test]
fn a_seeded_runtime_dispatch_in_crc_rs_is_found_at_its_line() {
    let clean = include_str!("../crates/pmem/src/crc.rs");
    let find = "use std::arch::x86_64::_mm_crc32_u64 as step;\n";
    assert_eq!((clean.matches(find).count(), dispatches(clean)), (1, vec![]));
    let line = 2 + clean[..clean.find(find).unwrap()].matches('\n').count();
    for seed in DISPATCH {
        assert_eq!(dispatches(&clean.replace(find, &format!("{find}{seed}\n"))), [line], "{seed}");
    }
}
