//! Kernel-bypass networking model (§3.5).
//!
//! Skyloft integrates DPDK: a polling core receives packets, RSS-hashes
//! them onto per-core shared rings, and a lightweight user-space UDP stack
//! parses them into requests; idle cores also poll the ingress rings. This
//! crate provides those pieces as host-side data structures driven by the
//! simulation:
//!
//! * [`packet`] — wire format: a real (serialized/parsed) UDP-like header
//!   and a key-value request codec, built on `bytes`.
//! * [`rss`] — Receive Side Scaling: Toeplitz hashing of flow tuples
//!   through the 128-entry indirection table onto rings.
//! * [`ring`] — bounded SPSC rings with drop accounting (NIC behaviour
//!   under overload).
//! * [`dataplane`] — the assembled multi-queue NIC: RSS steering into
//!   bounded per-core RX rings plus the polling core's serialization
//!   clock; what `Placement::Rss` sweeps route through.
//! * [`nic`] — per-packet cost constants for the DPDK RX/TX path.
//! * [`loadgen`] — the open-loop Poisson client of §5.3, plus the
//!   retrying client: per-attempt timeouts, decorrelated-jitter backoff,
//!   and the retry budgets.
//! * [`overload`] — CoDel AQM on the RX rings and deadline-aware
//!   admission: shed early and cheap at the polling core instead of late
//!   and expensive at the client timeout.

#![warn(missing_docs)]

pub mod dataplane;
pub mod loadgen;
pub mod nic;
pub mod overload;
pub mod packet;
pub mod ring;
pub mod rss;

pub use dataplane::{MultiQueueNic, NicConfig};
pub use loadgen::{Backoff, ClassRetryBudgets, RetryBudget, RetryPolicy};
pub use loadgen::{NetProfile, OpenLoop};
pub use nic::{LossModel, PacketFate};
pub use overload::{AdmissionConfig, AdmissionCtl, Codel, CodelConfig};
pub use packet::{KvOp, KvRequest, PacketPool, UdpHeader};
pub use ring::Ring;
pub use rss::{RssHasher, INDIRECTION_ENTRIES};
