//! End-to-end smoke test of the mvkv-inspect CLI against a real pool.

use std::process::Command;

#[test]
fn inspect_cli_reads_a_real_pool() {
    let path = std::env::temp_dir().join(format!("mvkv-cli-{}.pool", std::process::id()));
    {
        use mvkv::core::{LabeledTags, PSkipList, StoreSession, VersionedStore};
        let store = PSkipList::create_file(&path, 16 << 20).unwrap();
        let s = store.session();
        s.insert(10, 100);
        s.insert(20, 200);
        s.remove(10);
        store.tag_labeled(0xCAFE);
    }
    let bin = env!("CARGO_BIN_EXE_mvkv-inspect");
    let run = |args: &[&str]| {
        let out = Command::new(bin).args(args).output().expect("spawn mvkv-inspect");
        assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf8")
    };
    let p = path.to_str().unwrap();

    let stats = run(&["stats", p]);
    assert!(stats.contains("keys:            2"), "stats output:\n{stats}");
    assert!(stats.contains("watermark:       v3"));
    assert!(stats.contains("index:           2 keys, "), "stats output:\n{stats}");
    // Where the PM goes: key 10 has two versions, key 20 one; each history
    // is one block of the 96-byte class.
    assert!(stats.contains("history lengths (published versions: histories):"));
    assert!(stats.contains("           1: 1\n"), "stats output:\n{stats}");
    assert!(stats.contains("         2-3: 1\n"), "stats output:\n{stats}");
    assert!(stats.contains("allocated by size class (payload bytes: blocks, bytes):"));
    assert!(stats.contains("          96: 2 blocks, 192 bytes\n"), "stats output:\n{stats}");
    // Both came from one run of eight: six blocks of it are free.
    assert!(stats.contains("free by size class (payload bytes: blocks, bytes, runs of the class):"));
    assert!(stats.contains("          96: 6 blocks, 576 bytes, 1 runs"), "stats output:\n{stats}");
    // The reopen `stats` ran, phase by phase.
    assert!(stats.contains("reopen phases:   open "), "stats output:\n{stats}");
    for phase in [", repair ", ", scan ", ", rebuild ", ", prune "] {
        assert!(stats.contains(phase), "stats output:\n{stats}");
    }

    let snap = run(&["snapshot", p]);
    assert!(snap.contains("# snapshot v3: 1 pairs"), "snapshot output:\n{snap}");
    assert!(snap.contains("20\t200"));

    let snap_v2 = run(&["snapshot", p, "2"]);
    assert!(snap_v2.contains("# snapshot v2: 2 pairs"), "snapshot v2 output:\n{snap_v2}");

    let hist = run(&["history", p, "10"]);
    assert!(hist.contains("v1\tinsert\t100"), "history output:\n{hist}");
    assert!(hist.contains("v3\tremove"));

    let labels = run(&["labels", p]);
    assert!(labels.contains("0xcafe\tv3"), "labels output:\n{labels}");

    let audit = run(&["audit", p]);
    assert!(audit.contains("indeterminate blocks: 0"), "audit output:\n{audit}");

    // Export path: serialize v2 and decode it back.
    let export_path = std::env::temp_dir().join(format!("mvkv-cli-{}.snap", std::process::id()));
    run(&["export", p, export_path.to_str().unwrap(), "2"]);
    {
        let mut file = std::fs::File::open(&export_path).unwrap();
        let (version, pairs) = mvkv::core::read_snapshot(&mut file).unwrap();
        assert_eq!(version, 2);
        assert_eq!(pairs, vec![(10, 100), (20, 200)]);
    }
    std::fs::remove_file(&export_path).unwrap();

    // Usage path.
    let out = Command::new(bin).output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn report_cli_renders_tables() {
    let jsonl = std::env::temp_dir().join(format!("mvkv-cli-{}.jsonl", std::process::id()));
    std::fs::write(
        &jsonl,
        concat!(
            r#"{"figure":"figX","approach":"A","x":1,"metric":"time","value":0.5,"unit":"s"}"#, "\n",
            r#"{"figure":"figX","approach":"A","x":2,"metric":"time","value":0.25,"unit":"s"}"#, "\n",
            r#"{"figure":"figX","approach":"B","x":1,"metric":"time","value":1.5,"unit":"s"}"#, "\n",
            "not json\n",
        ),
    )
    .unwrap();
    let bin = env!("CARGO_BIN_EXE_mvkv-report");
    let out = Command::new(bin).arg(&jsonl).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("figX — time [s]"), "output:\n{text}");
    assert!(text.contains("0.5000"));
    assert!(text.contains("1.5000"));
    // B has no x=2 datapoint → dash.
    assert!(text.lines().any(|l| l.starts_with('B') && l.contains('-')), "output:\n{text}");

    // Filter that matches nothing fails cleanly.
    let out = Command::new(bin).arg(&jsonl).arg("nope").output().unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(&jsonl).unwrap();
}
