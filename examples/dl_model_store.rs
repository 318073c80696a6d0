//! DL model versioning — the paper's motivating scenario (§I).
//!
//! A deep-learning model is "a set of key-value pairs (id, tensor) that
//! define layers", and operations on it — training checkpoints, layer
//! insertion/removal during architecture search, transfer-learning
//! comparisons via longest common prefix — need the *ordered* iteration a
//! sorted store provides.
//!
//! Here layer ids are ordered `u64` keys and values are tensor
//! fingerprints (in a real system: persistent pointers to tensor blobs).
//! Each training epoch tags a snapshot; an architecture-search branch
//! mutates layers and the longest-common-prefix comparison between any two
//! model versions falls out of ordered snapshot extraction.
//!
//! Run with: `cargo run --release --example dl_model_store`

use mvkv::core::{PSkipList, StoreSession, VersionedStore};

/// Deterministic stand-in for a tensor checksum after an optimizer step.
fn tensor_fingerprint(layer: u64, epoch: u64) -> u64 {
    let mut x =
        layer.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ epoch.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 31;
    x % (1 << 40)
}

fn main() -> std::io::Result<()> {
    let store = PSkipList::create_volatile(64 << 20)?;
    let session = store.session();

    // Epoch 0: build a 12-layer network. Layer ids are spaced so new
    // layers can be spliced between existing ones (a common trick in
    // ordered-id schemes).
    let layers: Vec<u64> = (1..=12).map(|i| i * 100).collect();
    for &layer in &layers {
        session.insert(layer, tensor_fingerprint(layer, 0));
    }
    let mut epoch_tags = vec![store.tag()];
    println!("epoch 0: {} layers, tagged v{}", layers.len(), epoch_tags[0]);

    // Epochs 1..=3: every epoch updates all weights, then tags.
    for epoch in 1..=3u64 {
        for &layer in &layers {
            session.insert(layer, tensor_fingerprint(layer, epoch));
        }
        epoch_tags.push(store.tag());
        println!("epoch {epoch}: tagged v{}", epoch_tags[epoch as usize]);
    }

    // Architecture search: branch off epoch 2 by inserting a residual
    // block between layers 400 and 500 and dropping layer 1100.
    session.insert(450, tensor_fingerprint(450, 99));
    session.remove(1100);
    let nas_tag = store.tag();
    println!("NAS mutation: tagged v{nas_tag}");

    // Transfer learning: longest common prefix of two model versions in
    // layer order (paper §I). Ordered snapshot extraction makes this a
    // zip. The NAS branch forked off epoch 3, so compare against that.
    let base = session.extract_snapshot(epoch_tags[3]);
    let mutated = session.extract_snapshot(nas_tag);
    let lcp = base.iter().zip(mutated.iter()).take_while(|(a, b)| a == b).count();
    println!(
        "model@epoch3 has {} layers, model@NAS has {} layers, common prefix {} layers",
        base.len(),
        mutated.len(),
        lcp
    );
    assert_eq!(base.len(), 12);
    assert_eq!(mutated.len(), 12, "one layer added, one removed");
    assert_eq!(lcp, 4, "layers 100..400 unchanged; 450 splices in after them");

    // Introspection: how did layer 500's weights evolve?
    let evolution = session.extract_history(500);
    println!("layer 500 evolution: {} checkpoints", evolution.len());
    assert_eq!(evolution.len(), 4, "epochs 0..=3");

    // Roll back the NAS branch by reading from the epoch-2 snapshot: the
    // snapshot is immutable, so "rollback" is just addressing it.
    assert_eq!(session.find(1100, epoch_tags[2]), Some(tensor_fingerprint(1100, 2)));
    assert_eq!(session.find(1100, nas_tag), None);

    println!("dl_model_store OK");
    Ok(())
}
