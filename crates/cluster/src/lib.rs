//! # mvkv-cluster — distributed substrate for horizontal scalability
//!
//! The paper's horizontal experiments (§V-H) run one MPI rank per node on
//! up to 512 Cray XC40 nodes, each rank owning a partition of the key
//! space, in a fail-free MPI world. This crate reproduces that setup on one
//! machine (DESIGN.md substitution S2): a real runtime and a virtual-time
//! model, plus the kernels and the key routing both share.
//!
//! * [`comm`] — a real message-passing runtime: ranks are threads connected
//!   by channels, with MPI-style point-to-point `send`/`recv` (matched on
//!   source + tag) and collectives (binomial-tree broadcast, gather,
//!   barrier). Used to validate the distributed protocols under genuine
//!   concurrency.
//! * [`net`] + [`dist`] — a deterministic *virtual-time* performance model:
//!   per-rank compute is measured on real stores while every message is
//!   charged `α + bytes/β` on per-rank virtual clocks. The figures of §V-H
//!   are regenerated against this model, so 512-rank runs neither
//!   oversubscribe one CPU core nor hide the communication/computation
//!   trade-off that shapes the paper's curves.
//! * [`merge`] — the paper's §IV-A merge kernels: the multi-threaded
//!   two-way merge with binary-search partitioning, and the naive K-way
//!   merge baseline (NaiveMerge vs OptMerge).
//! * [`partition`] — key-to-rank ownership (modulo and range) for routed
//!   writes.

pub mod comm;
pub mod dist;
pub mod merge;
pub mod net;
pub mod partition;

pub use comm::{run_cluster, Comm, SendError};
pub use dist::{DistStore, MergeStrategy};
pub use merge::{kway_merge, merge_two, merge_two_parallel};
pub use net::{NetModel, VirtualNet};
pub use partition::{ModuloPartitioner, Partitioner, RangePartitioner};
