//! The three token-site checks: each looks for a short token pattern in the
//! parsed file and, where the rule allows one, for the justification comment
//! that covers the site.
//!
//! * **facade** — concurrency-critical crates import atomics and threads
//!   through `mvkv-sync`, never `std::sync::atomic` / `std::thread` directly,
//!   so the loom models exercise the same code readers run.
//! * **safety-comment** — every `unsafe {` block and `unsafe impl` carries a
//!   `// SAFETY:` comment (mirrors clippy's `undocumented_unsafe_blocks`, but
//!   also covers `unsafe impl` and runs on stable without clippy).
//! * **atomic-ordering** — PR 3's Relaxed-ordering audit was a human reading
//!   every `Ordering::Relaxed` site in the concurrency-critical crates and
//!   writing down why the relaxation is sound (DESIGN.md §9). This is the
//!   machine-checked version: every occurrence in non-test code must be
//!   covered by an `// ordering: <why>` comment. The point is not the
//!   comment itself but the diff review it forces: a new Relaxed site
//!   arrives either with an argument for why it cannot race with
//!   publication, or as a failure. Promotions (Relaxed → Acquire/Release)
//!   need no justification — only the relaxation does.
//!
//! Comments and literals cannot match: the patterns are tokens, and the
//! front end ([`crate::source`]) decides what a token is.

use crate::analyze::Finding;
use crate::lexer::Tree;
use crate::source::SrcFile;

const FORBIDDEN: &[&[&str]] =
    &[&["std", "sync", "atomic"], &["core", "sync", "atomic"], &["std", "thread"]];

/// How many code lines an `// ordering:` comment may sit above — covers the
/// idiomatic `version`/`value` store pair plus one line of slack without
/// letting a stale comment at the top of a function cover everything below.
const CLUSTER_LINES: usize = 3;

/// True when the `::`-separated path `segs` starts at `sibs[i]`.
fn path_at(sibs: &[Tree], i: usize, segs: &[&str]) -> bool {
    segs.iter().enumerate().all(|(k, seg)| {
        sibs.get(i + 2 * k).and_then(Tree::ident) == Some(seg)
            && (k == 0 || sibs[i + 2 * k - 1].punct() == Some("::"))
    })
}

/// Direct `std::sync::atomic` / `std::thread` paths in non-test code.
pub fn check_facade(f: &SrcFile) -> Vec<Finding> {
    let mut out = Vec::new();
    f.each_pos(&mut |sibs, i| {
        for segs in FORBIDDEN.iter().filter(|segs| path_at(sibs, i, segs)) {
            if !f.in_test(sibs[i].off()) {
                let msg = format!(
                    "direct `{}` use; import through `mvkv_sync` so loom models cover this code",
                    segs.join("::")
                );
                out.push(Finding::new("facade", &f.rel, sibs[i].line(), msg));
            }
        }
    });
    out
}

/// `unsafe {` blocks and `unsafe impl`s (test code included) with no
/// `// SAFETY:` comment on their line or in the comment block immediately
/// above (attributes skipped). `unsafe fn` / `trait` / `extern` are
/// declarations and need none.
pub fn check_safety_comments(f: &SrcFile) -> Vec<Finding> {
    let mut out = Vec::new();
    f.each_pos(&mut |sibs, i| {
        if sibs[i].ident() != Some("unsafe") {
            return;
        }
        let kind = match sibs.get(i + 1) {
            Some(Tree::Group(g)) if g.delim == '{' => "unsafe block",
            Some(t) if t.ident() == Some("impl") => "unsafe impl",
            _ => return,
        };
        let line = sibs[i].line();
        if f.justification(line, "SAFETY:", 0).is_none() {
            let msg = format!("{kind} without a preceding `// SAFETY:` comment");
            out.push(Finding::new("safety-comment", &f.rel, line, msg));
        }
    });
    out
}

/// `Ordering::Relaxed` in non-test code with no `// ordering:` comment on
/// the line or at the head of its statement cluster. One finding per line
/// even with two sites on it.
pub fn check_relaxed(f: &SrcFile) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    f.each_pos(&mut |sibs, i| {
        let line = sibs[i].line();
        if path_at(sibs, i, &["Ordering", "Relaxed"])
            && !f.in_test(sibs[i].off())
            && out.last().is_none_or(|last| last.line != line)
            && f.justification(line, "ordering:", CLUSTER_LINES).is_none()
        {
            let msg = "`Ordering::Relaxed` without an `// ordering:` justification — say why this \
                       access cannot race with publication (e.g. covered by a later \
                       Acquire/Release pair, single-writer counter, value validated by CAS), or \
                       promote the ordering";
            out.push(Finding::new("atomic-ordering", &f.rel, line, msg.to_string()));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SrcFile {
        SrcFile::parse("crates/pmem/src/lib.rs".into(), src.into())
    }

    fn facade(src: &str) -> Vec<Finding> {
        check_facade(&file(src))
    }

    fn safety(src: &str) -> Vec<Finding> {
        check_safety_comments(&file(src))
    }

    fn relaxed(src: &str) -> Vec<u32> {
        check_relaxed(&file(src)).into_iter().map(|f| f.line).collect()
    }

    #[test]
    fn facade_flags_direct_std_atomics() {
        let v = facade("use std::sync::atomic::AtomicU64;\nfn f() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn facade_skips_cfg_test_modules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::thread;\n    #[test]\n    fn t() { std::thread::yield_now(); }\n}\n";
        assert!(facade(src).is_empty());
    }

    /// `text::test_spans` exempted any `#[cfg(..)]` whose text contained
    /// `test` and not `not(test`.
    #[test]
    fn cfg_not_any_test_is_production_code() {
        let src = "#[cfg(not(any(test, miri)))]\nfn prod() { std::thread::yield_now(); }\n";
        let v = facade(src);
        assert_eq!(v.len(), 1, "not(any(test, ..)) is compiled into production builds: {v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn facade_ignores_comments_and_strings() {
        assert!(facade("let a = \"std::thread\"; // std::sync::atomic\n").is_empty());
    }

    #[test]
    fn safety_flags_bare_unsafe_block() {
        let v = safety("fn f() {\n    let x = unsafe { *p };\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_accepts_commented_block_and_impl() {
        let src = "\
// SAFETY: p is valid for reads per the contract above.
fn f() { let x = unsafe { *p }; }

// SAFETY: all fields are atomics.
unsafe impl Sync for Foo {}
";
        // Same-line coverage: the comment is above, the block on the next line.
        let src2 = "fn g() {\n    // SAFETY: checked above\n    unsafe { *p }\n}\n";
        assert!(safety(src).is_empty());
        assert!(safety(src2).is_empty());
    }

    #[test]
    fn safety_ignores_unsafe_fn_declarations() {
        assert!(safety("pub unsafe fn dangerous(p: *const u8) -> u8 { read(p) }\n").is_empty());
    }

    #[test]
    fn safety_comment_in_a_string_does_not_leak() {
        // The SAFETY text lives in a string literal, not a comment: the
        // block must still be flagged.
        let src = "fn f() {\n    let s = \"SAFETY: nope\";\n    unsafe { *p }\n}\n";
        assert_eq!(safety(src).len(), 1);
        // And an `unsafe` inside a raw string is not a block.
        assert!(safety("fn f<'a>(x: &'a str) { let r = r#\"unsafe { }\"#; }").is_empty());
    }

    #[test]
    fn bare_relaxed_is_flagged() {
        let src = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(relaxed(src), vec![2]);
    }

    #[test]
    fn same_line_and_above_line_justifications() {
        let same = "fn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed); // ordering: stats only\n}\n";
        assert!(relaxed(same).is_empty());
        let above = "fn f(a: &AtomicU64) {\n    // ordering: covered by the Release store of done below\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert!(relaxed(above).is_empty());
    }

    #[test]
    fn one_comment_covers_a_small_cluster_but_not_a_function() {
        let cluster = "fn f(e: &Entry) {\n    // ordering: published by done (Release) below\n    e.version.store(1, Ordering::Relaxed);\n    e.value.store(2, Ordering::Relaxed);\n    e.done.store(3, Ordering::Release);\n}\n";
        assert!(relaxed(cluster).is_empty());
        // A comment above the opening brace does NOT cover sites inside.
        let outside = "// ordering: too far away\nfn f(a: &AtomicU64) {\n    a.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(relaxed(outside), vec![3]);
        // And blank lines break the cluster.
        let gapped = "fn f(a: &AtomicU64, b: &AtomicU64) {\n    // ordering: for a only\n    a.store(1, Ordering::Relaxed);\n\n    b.store(1, Ordering::Relaxed);\n}\n";
        assert_eq!(relaxed(gapped), vec![5]);
    }

    #[test]
    fn test_code_and_strings_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }\n}\n";
        assert!(relaxed(src).is_empty());
        let in_str = "fn f() { let s = \"Ordering::Relaxed\"; }\n";
        assert!(relaxed(in_str).is_empty());
    }

    #[test]
    fn two_sites_on_one_line_report_once() {
        let src =
            "fn f(e: &E) {\n    g(e.a.load(Ordering::Relaxed), e.b.load(Ordering::Relaxed));\n}\n";
        assert_eq!(relaxed(src), vec![2]);
    }
}
