//! # vod-core
//!
//! Core model for the fully distributed peer-to-peer Video-on-Demand system
//! studied in *"An Upload Bandwidth Threshold for Peer-to-Peer Video-on-Demand
//! Scalability"* (Boufkhad, Mathieu, de Montgolfier, Perino, Viennot —
//! IPDPS 2009).
//!
//! The crate provides the static ingredients of an `(n, u, d)`-video system:
//!
//! * [`capacity`] — fixed-point normalized upload bandwidth and storage slots;
//! * [`video`] / [`catalog`] — videos, stripes (`c` per video), catalogs;
//! * [`node`] — boxes (set-top peers) and populations with rich/poor
//!   classification and deficit computations;
//! * [`params`] — the paper's Table 1 parameters and derived quantities
//!   (`u′`, `ν`, `d′`, catalog size `d·n/k`);
//! * [`allocation`] — random permutation / random independent allocations and
//!   two baselines (round-robin, full replication);
//! * [`compensation`] — Theorem 2's `u*`-upload-compensation and
//!   storage-balance machinery;
//! * [`system`] — assembly of all of the above into a [`system::VideoSystem`].
//!
//! The discrete-round protocol simulation lives in `vod-sim`, the max-flow
//! feasibility machinery in `vod-flow`, and the analytical bounds in
//! `vod-analysis`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
pub mod capacity;
pub mod catalog;
pub mod compensation;
pub mod error;
pub mod hash;
pub mod json;
pub mod node;
pub mod params;
pub mod system;
pub mod video;

pub use allocation::{
    Allocator, FullReplicationAllocator, Placement, RandomIndependentAllocator,
    RandomPermutationAllocator, RoundRobinAllocator,
};
pub use capacity::{Bandwidth, StorageSlots};
pub use catalog::Catalog;
pub use compensation::{
    check_storage_balance, compensate, relay_reservation, CompensationDelta, CompensationPlan,
};
pub use error::CoreError;
pub use hash::{fx_hash, FxHasher64, SortedSignature};
pub use json::{Json, JsonCodec, JsonError};
pub use node::{BoxId, BoxSet, NodeBox};
pub use params::SystemParams;
pub use system::VideoSystem;
pub use video::{StripeId, StripeIndex, Video, VideoId};
