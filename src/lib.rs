//! # mvkv — scalable multi-versioning ordered key-value stores
//!
//! Umbrella crate re-exporting the whole stack of this reproduction of
//! *Nicolae, "Scalable Multi-Versioning Ordered Key-Value Stores with
//! Persistent Memory Support", IPDPS 2022*. See the README for the tour
//! and DESIGN.md for the system inventory.
//!
//! # Examples
//!
//! ```
//! use mvkv::core::{PSkipList, StoreSession, VersionedStore};
//!
//! // The paper's store: persistent histories + lock-free skip-list index.
//! let store = PSkipList::create_volatile(16 << 20)?;
//! let session = store.session();
//! let v1 = session.insert(10, 100); // every mutation tags a snapshot
//! session.insert(20, 200);
//! session.remove(10);
//!
//! assert_eq!(session.find(10, v1), Some(100)); // time travel
//! assert_eq!(session.extract_snapshot(store.tag()), vec![(20, 200)]);
//! # Ok::<(), std::io::Error>(())
//! ```

pub use mvkv_cluster as cluster;
pub use mvkv_core as core;
pub use mvkv_keychain as keychain;
pub use mvkv_minidb as minidb;
pub use mvkv_obs as obs;
pub use mvkv_pmem as pmem;
pub use mvkv_skiplist as skiplist;
pub use mvkv_vhistory as vhistory;
pub use mvkv_workload as workload;
