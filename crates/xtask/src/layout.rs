//! The PM-layout auditor.
//!
//! PM-resident structs — anything reached through [`PmemPool::typed`] /
//! `PPtr::as_ref` after a pool reopen — must have a layout that is (a)
//! compiler-independent (`repr(C)` / `repr(transparent)`) and (b) free of
//! ephemeral machine state: no heap containers, no references, no raw
//! pointers, no `usize` (its width is platform-dependent, and a `usize`
//! "pointer" stored in PM dangles after remap — offsets go through the
//! `PPtr` wrapper instead).
//!
//! Discovery is marker-seeded: a struct whose doc comment contains
//! `pm-resident` (see `mvkv-pmem`'s crate docs for the convention) enters
//! the PM set, and every workspace-defined struct named in a PM struct's
//! field types is pulled in transitively. A struct that must deviate can
//! carry `pm-layout-exempt(<reason>)` in its docs — it is still
//! fingerprinted, but the repr/field rules are skipped.
//!
//! Each PM type's shape (kind, repr, generics, ordered `name: type` field
//! list) is hashed into a fingerprint and compared against the checked-in
//! golden file `pm_layout.lock`. Any drift — a reordered field, a changed
//! type, a dropped `repr` — fails the analyze run until a human re-blesses
//! with `cargo run -p xtask -- analyze --bless`, which is the ritual that
//! forces the "does this break `reopen()` compatibility?" conversation.

use crate::analyze::{Ctx, Finding};
use crate::source::{Source, StructItem};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Golden layout-fingerprint file, repo-relative.
pub const LOCK_PATH: &str = "crates/xtask/pm_layout.lock";

/// Marker in a struct's docs that seeds the PM set.
const RESIDENT_MARKER: &str = "pm-resident";
/// Marker that exempts a PM struct from the repr/field rules (fingerprint
/// still enforced). Must carry a parenthesized rationale.
pub const EXEMPT_MARKER: &str = "pm-layout-exempt(";
/// Marker declaring that a PM record type carries a payload integrity
/// code: the audit requires a `crc`-named field so the protection can't be
/// silently dropped in a refactor.
pub const EXPECTS_CRC_MARKER: &str = "expects-crc";

/// Field types with a known, stable, position-independent layout. The
/// `mvkv-sync` atomics are `#[repr(transparent)]` over the std atomics,
/// which are in turn transparent over their integer — documented in
/// `crates/sync`.
const KNOWN_LEAF: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128", "f32", "f64", "bool",
    "AtomicU8", "AtomicU16", "AtomicU32", "AtomicU64", "PhantomData",
];

/// Type names that must never appear anywhere in a PM-resident field type.
const FORBIDDEN_TYPES: &[&str] = &[
    "Vec", "VecDeque", "String", "Box", "Rc", "Arc", "Cow", "HashMap", "HashSet", "BTreeMap",
    "BTreeSet", "Mutex", "RwLock", "RefCell", "Cell", "OsString", "PathBuf", "Instant",
    "SystemTime", "usize", "isize", "AtomicUsize", "AtomicIsize", "AtomicPtr", "NonNull", "dyn",
    "impl",
];

/// `Some(reason)` if the struct's docs carry `pm-layout-exempt(reason)`.
fn exempt(d: &StructItem) -> Option<&str> {
    let rest = &d.docs[d.docs.find(EXEMPT_MARKER)? + EXEMPT_MARKER.len()..];
    Some(rest.split(')').next().unwrap_or(""))
}

fn repr(d: &StructItem) -> String {
    if d.reprs.is_empty() { "Rust".to_string() } else { d.reprs.join(",") }
}

/// The canonical shape string that gets hashed. Field order, types, repr
/// and generics all participate; file/line do not (moving a struct is not a
/// layout change).
fn shape(d: &StructItem) -> String {
    let mut s = String::new();
    let _ = write!(s, "struct {}", d.name);
    if !d.generics.is_empty() {
        let _ = write!(s, "<{}>", d.generics.join(","));
    }
    let _ = write!(s, " repr({})", repr(d));
    for (n, t) in &d.fields {
        let _ = write!(s, " {n}:{t}");
    }
    s
}

fn fingerprint(d: &StructItem) -> String {
    format!("{:016x}", fnv1a(shape(d).as_bytes()))
}

fn has_stable_repr(d: &StructItem) -> bool {
    d.reprs.iter().any(|r| {
        let head = r.split(',').next().unwrap_or("").trim();
        head == "C" || head == "transparent" || head.starts_with("u") || head.starts_with("i")
    })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// PM-set closure + rule checks
// ---------------------------------------------------------------------------

/// A finding about PM type `d`, at its definition; `msg` names the type.
fn finding(d: &StructItem, msg: String) -> Finding {
    Finding::new("pm-layout", &d.file, d.line, msg)
}

/// A finding about the lock file itself.
fn lock_finding(msg: String) -> Finding {
    Finding::new("pm-layout", "pm_layout.lock", 0, msg)
}

/// The pass: the layout rules, then the fingerprints against the golden
/// file, or into it under `--bless`.
pub fn check(cx: &Ctx) -> Vec<Finding> {
    let (pm, mut findings) = audit(cx.src);
    let file = cx.root.join(LOCK_PATH);
    if !cx.bless {
        findings.extend(diff_lock(&pm, std::fs::read_to_string(file).ok().as_deref()));
    } else if let Err(e) = std::fs::write(file, render_lock(&pm)) {
        findings.push(lock_finding(format!("cannot write {LOCK_PATH}: {e}")));
    } else {
        eprintln!("xtask analyze: wrote {LOCK_PATH}");
    }
    findings
}

/// Computes the PM-resident set (marker seeds + transitive field
/// references) over every struct of the workspace and checks the layout
/// rules. Returns `(pm set sorted by name, rule findings)`.
pub fn audit(src: &Source) -> (Vec<&StructItem>, Vec<Finding>) {
    let all: Vec<&StructItem> = src.files.iter().flat_map(|f| &f.structs).collect();
    let mut by_name: BTreeMap<&str, Vec<&StructItem>> = BTreeMap::new();
    for d in &all {
        by_name.entry(&d.name).or_default().push(d);
    }
    let mut pm: BTreeMap<&str, &StructItem> = BTreeMap::new();
    let mut queue: Vec<&StructItem> =
        all.iter().copied().filter(|d| d.docs.contains(RESIDENT_MARKER)).collect();
    let mut findings = Vec::new();
    while let Some(d) = queue.pop() {
        if pm.contains_key(d.name.as_str()) {
            continue;
        }
        pm.insert(&d.name, d);
        for r in &d.referenced {
            if KNOWN_LEAF.contains(&r.as_str()) || d.generics.iter().any(|g| g == r) {
                continue;
            }
            let Some(cands) = by_name.get(r.as_str()) else { continue };
            // Resolve: same crate first, else a unique global definition.
            let resolved = cands
                .iter()
                .find(|c| c.krate == d.krate)
                .copied()
                .or(if cands.len() == 1 { Some(cands[0]) } else { None });
            match resolved {
                Some(c) => queue.push(c),
                None => findings.push(finding(
                    d,
                    format!(
                        "PM-resident `{}` references `{r}`, which has {} definitions in the \
                         workspace — cannot resolve for layout audit; disambiguate or rename",
                        d.name,
                        cands.len()
                    ),
                )),
            }
        }
    }
    for d in pm.values() {
        if let Some(reason) = exempt(d) {
            if reason.trim().is_empty() {
                findings.push(finding(
                    d,
                    format!(
                        "`{}` carries pm-layout-exempt with an empty rationale — say why",
                        d.name
                    ),
                ));
            }
            continue; // exempt from repr/field rules, still fingerprinted
        }
        if !has_stable_repr(d) {
            findings.push(finding(
                d,
                format!(
                    "PM-resident `{}` has no stable repr — add #[repr(C)] or \
                     #[repr(transparent)] so its layout survives pool reopen across \
                     compilers, or mark it `pm-layout-exempt(<why>)`",
                    d.name
                ),
            ));
        }
        if d.docs.contains(EXPECTS_CRC_MARKER) && !d.fields.iter().any(|(n, _)| n.to_lowercase().contains("crc")) {
            findings.push(finding(
                d,
                format!(
                    "`{}` is marked expects-crc but declares no `crc` field — its records \
                     would persist without an integrity code; restore the field or remove \
                     the marker (and the corruption protection claim) deliberately",
                    d.name
                ),
            ));
        }
        for (fname, fty) in &d.fields {
            if let Some(bad) = forbidden_in(fty) {
                findings.push(finding(
                    d,
                    format!(
                        "PM-resident `{}` field `{fname}: {fty}` contains `{bad}` — ephemeral \
                         or platform-dependent state must not live in persistent memory \
                         (store offsets via PPtr, fixed-width ints, or atomics instead)",
                        d.name
                    ),
                ));
            }
        }
    }
    (pm.into_values().collect(), findings)
}

/// Returns the first forbidden construct appearing in a canonical type
/// string, if any.
fn forbidden_in(ty: &str) -> Option<&'static str> {
    // Identifier-boundary scan so `usize` does not match inside `u64` (it
    // can't) or a hypothetical `Vector` type's prefix.
    for ident in type_idents(ty) {
        if let Some(f) = FORBIDDEN_TYPES.iter().find(|f| **f == ident) {
            return Some(f);
        }
    }
    if ty.contains('&') {
        return Some("&");
    }
    if ty.contains("*const") || ty.contains("*mut") {
        return Some("*");
    }
    None
}

fn type_idents(ty: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let b = ty.as_bytes();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_alphabetic() || b[i] == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push(&ty[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lock file
// ---------------------------------------------------------------------------

/// Renders the golden file for the given PM set.
pub fn render_lock(pm: &[&StructItem]) -> String {
    let mut s = String::new();
    s.push_str(
        "# pm_layout.lock — golden fingerprints of every PM-resident struct.\n\
         # Generated by `cargo run -p xtask -- analyze --bless`. Do not edit by hand.\n\
         #\n\
         # A diff here means the on-media layout changed: reopening an existing\n\
         # pool image would read garbage. Either revert the layout change or bump\n\
         # pmem::layout::LAYOUT_VERSION, provide a migration story, and re-bless.\n\n",
    );
    for d in pm {
        let _ = writeln!(s, "type {}", d.name);
        let _ = writeln!(s, "  file {}", d.file);
        let _ = writeln!(s, "  repr {}", repr(d));
        for (n, t) in &d.fields {
            let _ = writeln!(s, "  field {n}: {t}");
        }
        if let Some(r) = exempt(d) {
            let _ = writeln!(s, "  exempt {r}");
        }
        let _ = writeln!(s, "  fingerprint {}", fingerprint(d));
        s.push('\n');
    }
    s
}

/// Minimal parse of a lock file: `type name` → fingerprint (+ file for
/// informational drift notes).
pub fn parse_lock(text: &str) -> BTreeMap<String, (String, String)> {
    let mut out = BTreeMap::new();
    let mut cur: Option<String> = None;
    let mut file = String::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(name) = line.strip_prefix("type ") {
            cur = Some(name.trim().to_string());
            file.clear();
        } else if let Some(f) = line.strip_prefix("file ") {
            file = f.trim().to_string();
        } else if let Some(fp) = line.strip_prefix("fingerprint ") {
            if let Some(name) = cur.take() {
                out.insert(name, (fp.trim().to_string(), file.clone()));
            }
        }
    }
    out
}

/// Compares the current PM set against the lock text. `lock` of `None`
/// means the file does not exist yet.
pub fn diff_lock(pm: &[&StructItem], lock: Option<&str>) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(lock) = lock else {
        if !pm.is_empty() {
            findings.push(lock_finding(format!(
                "pm_layout.lock is missing but {} PM-resident type(s) were discovered — run \
                 `cargo run -p xtask -- analyze --bless` and commit the file",
                pm.len()
            )));
        }
        return findings;
    };
    let locked = parse_lock(lock);
    let current: BTreeSet<&str> = pm.iter().map(|d| d.name.as_str()).collect();
    for d in pm {
        match locked.get(&d.name) {
            None => findings.push(finding(
                d,
                format!(
                    "new PM-resident type `{}` is not in pm_layout.lock — review its layout \
                     and re-bless",
                    d.name
                ),
            )),
            Some((fp, _)) if *fp != fingerprint(d) => findings.push(finding(
                d,
                format!(
                    "layout drift in PM-resident `{}`: fingerprint {} != locked {} \
                     (current shape: {}) — a reopened pool would misread this type; revert, \
                     or bump LAYOUT_VERSION and re-bless",
                    d.name,
                    fingerprint(d),
                    fp,
                    shape(d)
                ),
            )),
            Some(_) => {}
        }
    }
    for name in locked.keys() {
        if !current.contains(name.as_str()) {
            findings.push(lock_finding(format!(
                "locked type `{name}` is no longer discovered as PM-resident — if it was \
                 removed deliberately, re-bless; if not, its marker was lost"
            )));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-file workspace that lives as long as the test run.
    fn defs(src: &str) -> &'static Source {
        let files = vec![("crates/demo/src/lib.rs".to_string(), src.to_string())];
        Box::leak(Box::new(Source::parse(files)))
    }

    fn structs(src: &str) -> &'static [StructItem] {
        &defs(src).files[0].structs
    }

    const GOOD: &str = "
        /// One history slot. pm-resident — cast onto pool bytes.
        #[repr(C)]
        pub struct Slot { pub version: AtomicU64, pub value: AtomicU64, pub done: AtomicU64 }
    ";

    #[test]
    fn discovery_finds_marker_and_fields() {
        let d = structs(GOOD);
        assert_eq!(d.len(), 1);
        assert!(d[0].docs.contains(RESIDENT_MARKER));
        assert_eq!(d[0].reprs, vec!["C"]);
        assert_eq!(
            d[0].fields,
            vec![
                ("version".to_string(), "AtomicU64".to_string()),
                ("value".to_string(), "AtomicU64".to_string()),
                ("done".to_string(), "AtomicU64".to_string()),
            ]
        );
    }

    #[test]
    fn missing_repr_is_flagged() {
        let src = "/// pm-resident\npub struct Hdr { next: u64 }";
        let (pm, findings) = audit(defs(src));
        assert_eq!(pm.len(), 1);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("no stable repr"), "{}", findings[0].msg);
    }

    #[test]
    fn heap_and_pointerish_fields_are_flagged() {
        for (ty, bad) in [
            ("Vec<u64>", "Vec"),
            ("String", "String"),
            ("Box<Node>", "Box"),
            ("&'static str", "&"),
            ("*const u8", "*"),
            ("usize", "usize"),
        ] {
            let src = format!("/// pm-resident\n#[repr(C)]\nstruct H {{ f: {ty} }}");
            let (_, findings) = audit(defs(&src));
            assert!(
                findings.iter().any(|f| f.msg.contains(&format!("`{bad}`"))),
                "{ty} should flag {bad}: {:?}",
                findings.iter().map(|f| &f.msg).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn expects_crc_requires_a_crc_field() {
        let src = "
            /// pm-resident record. expects-crc: payload integrity code.
            #[repr(C)]
            struct Rec { version: u64, value: u64, done: u64 }
        ";
        let (_, findings) = audit(defs(src));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("expects-crc"), "{}", findings[0].msg);

        let src = "
            /// pm-resident record. expects-crc: payload integrity code.
            #[repr(C)]
            struct Rec { version: u64, value: u64, crc: u64, done: u64 }
        ";
        let (_, findings) = audit(defs(src));
        assert!(findings.is_empty(), "{:?}", findings.iter().map(|f| &f.msg).collect::<Vec<_>>());
    }

    #[test]
    fn u64_does_not_false_positive_as_usize() {
        let src = "/// pm-resident\n#[repr(C)]\nstruct H { a: u64, b: [u8;16] }";
        let (_, findings) = audit(defs(src));
        assert!(findings.is_empty(), "{:?}", findings.iter().map(|f| &f.msg).collect::<Vec<_>>());
    }

    #[test]
    fn transitive_reachability_pulls_field_types() {
        let src = "
            /// pm-resident root
            #[repr(C)]
            struct Root { head: Seg }
            struct Seg { cap: u64, data: Vec<u8> }
        ";
        let (pm, findings) = audit(defs(src));
        assert_eq!(pm.len(), 2, "Seg reached through Root's field");
        // Seg has no repr AND a Vec field.
        assert!(findings.iter().any(|f| f.msg.contains("no stable repr") && f.msg.contains("`Seg`")));
        assert!(findings.iter().any(|f| f.msg.contains("`Vec`")));
    }

    #[test]
    fn generic_params_are_not_chased_and_phantom_is_fine() {
        let src = "
            /// pm-resident — 8-byte offset wrapper
            #[repr(transparent)]
            pub struct PPtr<T> { off: u64, _marker: PhantomData<fn() -> T> }
        ";
        let (pm, findings) = audit(defs(src));
        assert_eq!(pm.len(), 1);
        assert!(findings.is_empty(), "{:?}", findings.iter().map(|f| &f.msg).collect::<Vec<_>>());
    }

    #[test]
    fn exempt_marker_skips_rules_but_requires_reason() {
        let src = "/// pm-resident pm-layout-exempt(recovery-only scratch, never reopened)\nstruct Scratch { v: Vec<u8> }";
        let (_, findings) = audit(defs(src));
        assert!(findings.is_empty());
        let src2 = "/// pm-resident pm-layout-exempt()\nstruct Scratch { v: Vec<u8> }";
        let (_, findings2) = audit(defs(src2));
        assert_eq!(findings2.len(), 1);
        assert!(findings2[0].msg.contains("empty rationale"));
    }

    #[test]
    fn lock_roundtrip_is_stable() {
        let (pm, _) = audit(defs(GOOD));
        let lock = render_lock(&pm);
        assert!(diff_lock(&pm, Some(&lock)).is_empty());
        // And parseable back to the same fingerprint.
        let parsed = parse_lock(&lock);
        assert_eq!(parsed["Slot"].0, fingerprint(pm[0]));
    }

    #[test]
    fn field_reorder_changes_fingerprint_and_fails_lock() {
        let (pm, _) = audit(defs(GOOD));
        let lock = render_lock(&pm);
        // The same struct with `value` and `done` swapped — silent layout
        // drift that would misread every reopened pool image.
        let reordered = "
            /// pm-resident
            #[repr(C)]
            pub struct Slot { pub version: AtomicU64, pub done: AtomicU64, pub value: AtomicU64 }
        ";
        let (pm2, _) = audit(defs(reordered));
        assert_ne!(fingerprint(pm[0]), fingerprint(pm2[0]));
        let findings = diff_lock(&pm2, Some(&lock));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].msg.contains("layout drift"), "{}", findings[0].msg);
    }

    #[test]
    fn repr_removal_and_type_change_fail_lock() {
        let (pm, _) = audit(defs(GOOD));
        let lock = render_lock(&pm);
        let no_repr = "/// pm-resident\npub struct Slot { pub version: AtomicU64, pub value: AtomicU64, pub done: AtomicU64 }";
        let (pm2, _) = audit(defs(no_repr));
        assert!(diff_lock(&pm2, Some(&lock)).iter().any(|f| f.msg.contains("layout drift")));
        let retyped = "/// pm-resident\n#[repr(C)]\npub struct Slot { pub version: u32, pub value: AtomicU64, pub done: AtomicU64 }";
        let (pm3, _) = audit(defs(retyped));
        assert!(diff_lock(&pm3, Some(&lock)).iter().any(|f| f.msg.contains("layout drift")));
    }

    #[test]
    fn missing_lock_and_new_type_are_reported() {
        let (pm, _) = audit(defs(GOOD));
        assert!(diff_lock(&pm, None)[0].msg.contains("missing"));
        let findings = diff_lock(&pm, Some("# empty\n"));
        assert!(findings[0].msg.contains("not in pm_layout.lock"));
        // And the reverse: locked type vanished.
        let lock = render_lock(&pm);
        let gone = diff_lock(&[], Some(&lock));
        assert!(gone[0].msg.contains("no longer discovered"));
    }

    #[test]
    fn tuple_and_unit_structs_parse() {
        let src = "/// pm-resident opaque marker\n#[repr(C)]\npub struct Marker(());\nstruct Unit;";
        let d = structs(src);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].fields, vec![("0".to_string(), "()".to_string())]);
        assert!(d[1].fields.is_empty());
    }

    #[test]
    fn structs_inside_fn_bodies_and_mods_are_found() {
        let src = "mod inner { /// pm-resident\n #[repr(C)] struct Deep { x: u64 } }
                   fn f() { struct Local { v: Vec<u8> } }";
        let d = structs(src);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|s| s.name == "Deep" && s.docs.contains(RESIDENT_MARKER)));
        assert!(d.iter().any(|s| s.name == "Local" && !s.docs.contains(RESIDENT_MARKER)));
    }
}
