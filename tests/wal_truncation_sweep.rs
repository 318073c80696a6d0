//! WAL torn-write sweep: truncate the write-ahead log at *every* byte
//! boundary near frame edges and verify that replay always recovers a
//! committed prefix of the row log — never a torn row, never a crash.

use mvkv::minidb::Database;

fn wal_path(db: &std::path::Path) -> std::path::PathBuf {
    let mut p = db.as_os_str().to_owned();
    p.push(".wal");
    std::path::PathBuf::from(p)
}

#[test]
fn truncated_wal_always_recovers_a_committed_prefix() {
    let dir = std::env::temp_dir();
    let db_path = dir.join(format!("mvkv-walsweep-{}.db", std::process::id()));
    let wal = wal_path(&db_path);
    let rows = 12u64;
    {
        let db = Database::create_file(&db_path).unwrap();
        let conn = db.connect();
        for v in 1..=rows {
            conn.insert_row(v, v * 10, v * 100).unwrap();
        }
        // No checkpoint: all rows still live in the WAL.
    }
    let full_wal = std::fs::read(&wal).unwrap();
    assert!(!full_wal.is_empty(), "rows must be in the WAL");

    // Truncation points: every 512 bytes plus the exact tail region.
    let mut cuts: Vec<usize> = (0..full_wal.len()).step_by(512).collect();
    cuts.extend(full_wal.len().saturating_sub(40)..=full_wal.len());
    let mut recovered_counts = std::collections::BTreeSet::new();
    for cut in cuts {
        std::fs::write(&wal, &full_wal[..cut]).unwrap();
        let db = Database::open_file(&db_path).unwrap();
        let conn = db.connect();
        // Whatever survives must be a version-contiguous prefix.
        let recovered = conn.max_version();
        assert!(recovered <= rows, "cut {cut}: impossible version {recovered}");
        for v in 1..=recovered {
            assert_eq!(
                conn.find(v * 10, rows),
                Some(v * 100),
                "cut {cut}: row {v} missing from recovered prefix"
            );
        }
        for v in recovered + 1..=rows {
            assert_eq!(conn.find(v * 10, rows), None, "cut {cut}: torn row {v} visible");
        }
        recovered_counts.insert(recovered);
        drop(db);
    }
    // The sweep must actually exercise multiple prefix lengths, including
    // the full log.
    assert!(recovered_counts.len() > 2, "sweep too coarse: {recovered_counts:?}");
    assert!(recovered_counts.contains(&rows));

    // Restore the intact WAL: the database is fully usable afterwards.
    std::fs::write(&wal, &full_wal).unwrap();
    let db = Database::open_file(&db_path).unwrap();
    assert_eq!(db.connect().max_version(), rows);
    let _ = std::fs::remove_file(&db_path);
    let _ = std::fs::remove_file(&wal);
}

#[test]
fn corrupted_wal_frame_kind_stops_replay_cleanly() {
    let dir = std::env::temp_dir();
    let db_path = dir.join(format!("mvkv-walcorrupt-{}.db", std::process::id()));
    let wal = wal_path(&db_path);
    {
        let db = Database::create_file(&db_path).unwrap();
        let conn = db.connect();
        for v in 1..=5u64 {
            conn.insert_row(v, v, v).unwrap();
        }
    }
    let mut bytes = std::fs::read(&wal).unwrap();
    // Smash the final commit record's kind word: replay must stop at the
    // previous commit. (Frame *data* corruption is not detected — the WAL
    // validates framing, not page contents; see the module docs.)
    let len = bytes.len();
    for b in &mut bytes[len - 8..] {
        *b = 0xEE;
    }
    std::fs::write(&wal, &bytes).unwrap();
    let db = Database::open_file(&db_path).unwrap();
    let conn = db.connect();
    let recovered = conn.max_version();
    assert!(recovered < 5, "corruption must drop the tail");
    for v in 1..=recovered {
        assert_eq!(conn.find(v, 5), Some(v));
    }
    let _ = std::fs::remove_file(&db_path);
    let _ = std::fs::remove_file(&wal);
}
