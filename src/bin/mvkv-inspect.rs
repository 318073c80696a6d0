//! `mvkv-inspect` — offline inspection of persistent mvkv pools.
//!
//! ```text
//! mvkv-inspect stats    <pool>              pool + store summary
//! mvkv-inspect audit    <pool>              allocator heap audit
//! mvkv-inspect snapshot <pool> [version]    dump a snapshot (default: newest)
//! mvkv-inspect history  <pool> <key>        dump one key's change history
//! mvkv-inspect labels   <pool>              dump labeled tags
//! ```
//!
//! Reconstruction runs with all available parallelism; the pool is opened
//! read-only in spirit (recovery may prune torn suffixes, exactly as a
//! normal restart would).

use mvkv::core::{LabeledTags, PSkipList, StoreSession, VersionedStore};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: mvkv-inspect <stats|audit|snapshot|history|labels> <pool> [args]\n\
         \n\
         stats    <pool>             pool + store summary\n\
         audit    <pool>             allocator heap audit\n\
         snapshot <pool> [version]   dump a snapshot (default: newest)\n\
         history  <pool> <key>       dump one key's change history\n\
         labels   <pool>             dump labeled tags\n\
         export   <pool> <out> [v]   serialize a snapshot to a file"
    );
    ExitCode::from(2)
}

fn open(path: &str) -> Result<(PSkipList, mvkv::core::RestartStats), String> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    PSkipList::open_file(path, threads).map_err(|e| format!("cannot open pool {path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return Ok(usage());
    };
    match cmd.as_str() {
        "stats" => {
            let (store, stats) = open(path)?;
            let alloc = store.pool().alloc_stats();
            println!("pool:            {path}");
            println!("pool size:       {} bytes", store.pool().len());
            println!("heap used:       {} bytes", alloc.heap_used);
            println!("heap remaining:  {} bytes", alloc.heap_remaining);
            println!("live blocks:     {}", alloc.live_blocks);
            println!("clean shutdown:  {}", store.pool().was_clean_shutdown());
            println!("keys:            {}", store.key_count());
            let (reserved, used) = store.index_memory();
            println!(
                "index:           {} keys, {reserved} bytes reserved, {used} used",
                store.key_count()
            );
            println!("watermark:       v{}", stats.watermark);
            println!("pruned entries:  {}", stats.pruned_entries);
            println!(
                "rebuild:         {} keys / {:?} on {} threads",
                stats.rebuilt_keys, stats.rebuild_time, stats.rebuild_threads
            );
            println!(
                "reopen phases:   open {:?}, repair {:?}, scan {:?}, rebuild {:?}, prune {:?}",
                stats.open_time,
                stats.repair_time,
                stats.scan_time,
                stats.rebuild_time,
                stats.prune_time
            );
            // Where the PM goes: how long the histories are, and what the
            // allocator holds per size class.
            println!("history lengths (published versions: histories):");
            for (bucket, &histories) in stats.history_lengths.iter().enumerate() {
                let low = (1u64 << bucket) >> 1;
                let lengths = match bucket {
                    0 | 1 => low.to_string(),
                    31 => format!("{low}+"),
                    _ => format!("{low}-{}", 2 * low - 1),
                };
                if histories > 0 {
                    println!("  {lengths:>10}: {histories}");
                }
            }
            let audit = mvkv::pmem::recovery::audit(store.pool());
            let classes = || {
                let sizes = mvkv::pmem::layout::SIZE_CLASSES.iter().map(|c| c.to_string());
                sizes.chain(["larger".to_string()])
            };
            println!("allocated by size class (payload bytes: blocks, bytes):");
            for (class, (blocks, bytes)) in classes().zip(audit.allocated_by_class) {
                if blocks > 0 {
                    println!("  {class:>10}: {blocks} blocks, {bytes} bytes");
                }
            }
            println!("free by size class (payload bytes: blocks, bytes, runs of the class):");
            let runs = audit.runs_by_class.into_iter().chain([0]);
            for ((class, (blocks, bytes)), runs) in classes().zip(audit.free_by_class).zip(runs) {
                if blocks > 0 || runs > 0 {
                    println!("  {class:>10}: {blocks} blocks, {bytes} bytes, {runs} runs");
                }
            }
        }
        "audit" => {
            let (store, _) = open(path)?;
            let audit = mvkv::pmem::recovery::audit(store.pool());
            println!("allocated blocks:     {}", audit.allocated_blocks);
            println!("allocated bytes:      {}", audit.allocated_bytes);
            println!("free blocks:          {}", audit.free_blocks);
            println!("free bytes:           {}", audit.free_bytes);
            println!("indeterminate blocks: {}", audit.indeterminate_blocks);
            println!("torn tail bytes:      {}", audit.torn_tail_bytes);
        }
        "snapshot" => {
            let (store, _) = open(path)?;
            let version = match args.get(2) {
                Some(v) => v.parse::<u64>().map_err(|_| format!("bad version: {v}"))?,
                None => store.tag(),
            };
            let snap = store.session().extract_snapshot(version);
            println!("# snapshot v{version}: {} pairs", snap.len());
            for (key, value) in snap {
                println!("{key}\t{value}");
            }
        }
        "history" => {
            let key: u64 = args
                .get(2)
                .ok_or("history needs a key")?
                .parse()
                .map_err(|_| "bad key".to_string())?;
            let (store, _) = open(path)?;
            let records = store.session().extract_history(key);
            println!("# key {key}: {} records", records.len());
            for r in records {
                match r.value {
                    Some(v) => println!("v{}\tinsert\t{v}", r.version),
                    None => println!("v{}\tremove", r.version),
                }
            }
        }
        "labels" => {
            let (store, _) = open(path)?;
            let labels = store.labels();
            println!("# {} labeled tags", labels.len());
            for (label, version) in labels {
                println!("{label:#x}\tv{version}");
            }
        }
        "export" => {
            let out_path = args.get(2).ok_or("export needs an output file")?;
            let (store, _) = open(path)?;
            let version = match args.get(3) {
                Some(v) => v.parse::<u64>().map_err(|_| format!("bad version: {v}"))?,
                None => store.tag(),
            };
            let mut file = std::fs::File::create(out_path)
                .map_err(|e| format!("cannot create {out_path}: {e}"))?;
            let count = mvkv::core::export_snapshot(&store.session(), version, &mut file)
                .map_err(|e| e.to_string())?;
            eprintln!("exported {count} pairs of snapshot v{version} to {out_path}");
        }
        _ => return Ok(usage()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("mvkv-inspect: {msg}");
            ExitCode::FAILURE
        }
    }
}
