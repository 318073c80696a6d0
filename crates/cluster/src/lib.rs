//! # mvkv-cluster — distributed substrate for horizontal scalability
//!
//! The paper's horizontal experiments (§V-H) run one MPI rank per node on
//! up to 512 Cray XC40 nodes, each rank owning a partition of the key
//! space, in a fail-free MPI world. This crate reproduces that setup on one
//! machine with one simulated cluster (DESIGN.md substitution S2):
//!
//! * [`net`] + [`dist`] — a deterministic *virtual-time* performance model:
//!   per-rank compute is measured on real stores while every message is
//!   charged `α + bytes/β` on per-rank virtual clocks. The figures of §V-H
//!   are regenerated against this model, so 512-rank runs neither
//!   oversubscribe one CPU core nor hide the communication/computation
//!   trade-off that shapes the paper's curves.
//! * [`merge`] — the paper's §IV-A merge kernels: the multi-threaded
//!   two-way merge with binary-search partitioning, and the naive K-way
//!   merge baseline (NaiveMerge vs OptMerge).

pub mod dist;
pub mod merge;
pub mod net;

pub use dist::{DistStore, MergeStrategy};
pub use merge::{kway_merge, merge_two, merge_two_parallel};
pub use net::{NetModel, VirtualNet};
