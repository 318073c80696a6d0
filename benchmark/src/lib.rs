//! The repository's benchmark: five workloads, the end-to-end metrics a
//! caller of the store sees, and a per-layer ledger measured from outside
//! through each crate's public API. See `README.md` in this directory.

pub mod compare;
pub mod e2e;
pub mod env;
pub mod exec;
pub mod json;
pub mod layers;
pub mod oracle;
pub mod plan;
pub mod report;
pub mod stats;
pub mod trace;

#[global_allocator]
static ALLOC: env::CountingAlloc = env::CountingAlloc;
