//! # hp-store — feedback storage substrates
//!
//! The paper (§2) assumes "all the transaction feedbacks are available for
//! trust assessment (e.g., through a central server as in online auction
//! communities, or through special data organization schemes in P2P
//! systems)" and notes the scheme "can be equally applied to systems where
//! only portions of feedbacks can be retrieved". This crate provides all
//! three regimes behind one [`FeedbackStore`] trait:
//!
//! * [`MemoryStore`] — the central-server model (eBay-style),
//! * [`ShardedStore`] — a consistent-hash ring of storage nodes standing in
//!   for P-Grid-style P2P feedback organization, with replication and
//!   node-failure simulation,
//! * [`PartialStore`] — a wrapper that deterministically samples a fraction
//!   of feedback, modeling partial retrieval.
//!
//! Every store hands back a server's exact rows: [`MemoryStore`] keeps
//! the feedbacks it was given per server in append order, and
//! [`ShardedStore`] holds one `MemoryStore` and decides by its ring and
//! failed nodes which servers are retrievable.
//!
//! [`persist`] holds the 25-byte feedback record the service journal
//! frames. Evicted histories spill to [`segment`] files and are read
//! back one record at a time by a positioned read; [`durable`] holds the
//! record-format rules every on-disk format of the workspace shares:
//! header, CRC frame, sealed body, bounded reader, the one corruption
//! error, and the durable create and delete.
//!
//! ## Example
//!
//! ```
//! use hp_core::{ClientId, Feedback, Rating, ServerId};
//! use hp_store::{FeedbackStore, MemoryStore};
//!
//! let mut store = MemoryStore::new();
//! let server = ServerId::new(1);
//! store.append(Feedback::new(0, server, ClientId::new(2), Rating::Positive));
//! store.append(Feedback::new(1, server, ClientId::new(3), Rating::Negative));
//!
//! let history = store.history_of(server);
//! assert_eq!(history.len(), 2);
//! assert_eq!(history.p_hat(), Some(0.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
mod memory;
mod partial;
pub mod persist;
mod ring;
pub mod segment;
mod sharded;
mod store;

pub use memory::MemoryStore;
pub use partial::PartialStore;
pub use ring::{HashRing, NodeId};
pub use segment::{ColdStore, SegmentRef};
pub use sharded::{ShardedStore, ShardedStoreConfig};
pub use store::FeedbackStore;
