//! Deterministic workload generation for the mvkv benchmark suite.
//!
//! The paper (§V-C) pre-generates all key-value pairs with a Mersenne Twister
//! PRNG using fixed per-thread seeds, so every run of every compared approach
//! sees the exact same operation stream. This crate reproduces that setup:
//!
//! * [`mt19937::Mt19937_64`] — a from-scratch MT19937-64 implementation,
//!   validated against the reference output of Nishimura & Matsumoto's
//!   `mt19937-64.c`.
//! * [`keys`] — unique-key generation, shuffling and per-thread partitioning.
//! * [`scenario`] — the exact phase recipes used by the paper's experiments
//!   (§V-D through §V-H).
//! * [`zipf`] — rejection-free Gray-style zipfian rank sampling.
//! * [`mix`] — YCSB A–F analogue op mixes, hot-key skew and the churn/GC
//!   scenario: deterministic lane-partitioned op streams from one seed.

pub mod keys;
pub mod mix;
pub mod mt19937;
pub mod scenario;
pub mod zipf;

pub use keys::{derive_seed, mix64, partition_even, stream_fingerprint, unique_pairs, KeyValue};
pub use mix::{MixConfig, MixKind, MixOp, MixPlan, LANES};
pub use mt19937::Mt19937_64;
pub use scenario::{Scenario, ScenarioPhase};
pub use zipf::Zipfian;
