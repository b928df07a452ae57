//! Relay attribution types of the `Scheduler` trait's relayed entry points.
//!
//! Theorem 2 makes heterogeneous systems scalable by relaying every poor
//! box `b` through a rich box `r(b)` that reserves an upload of
//! `u* + 1 − 2·u_b` for forwarding. A relayed request needs a supplier
//! upload from its candidate set `B(x)` (over the open budgets — the
//! download leg) and a forwarding slot on its relay's reservation (the
//! relay → poor-box leg). The reservation is disjoint from the open budgets
//! the matching allocates, so the two legs never compete, and the maximum
//! two-hop flow decomposes:
//!
//! > max flow = (maximum matching of the plain connection problem)
//! >          + Σ_a min(reserved_a, forwarding demand on a)
//!
//! Relaying is therefore bookkeeping, not flow structure: the engine
//! schedules every round as a plain Lemma-1 instance, diagnoses a failing
//! round through the one Lemma-1 min cut (read off the round's assignment),
//! and names a relay as starved when its forwarding demand exceeds its
//! reservation. Nothing in the tree calls the relayed entry points; these
//! two types are kept for `benchmark/` until revision 2.

use vod_core::BoxId;

/// Borrowed relay attribution of one round: which requests forward through
/// which relay, and how many forwarding slots each box has reserved.
///
/// `relay_of[x]` is the relay whose reservation forwards request `x`
/// (`None` for direct requests); `reserved[b]` is the number of forwarding
/// stripe slots statically reserved on box `b`
/// (`⌊(u* + 1 − 2·u_b)·c⌋`-style totals, per the compensation plan).
#[derive(Clone, Copy, Debug)]
pub struct RelayView<'a> {
    /// Relay box per request (`None` = direct).
    pub relay_of: &'a [Option<BoxId>],
    /// Reserved forwarding slots per box (indexed by box id).
    pub reserved: &'a [u32],
}

/// Per-round relay-lending counts a scheduler may report through
/// `Scheduler::relay_stats`. No scheduler in the tree does; the type is
/// kept for `benchmark/` until revision 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelayLendStats {
    /// Distinct relays drawn on by this round's relayed requests.
    pub relays: usize,
    /// Relays demanded by more than one swarm.
    pub contested_relays: usize,
    /// Total forwarding demand (relayed requests this round).
    pub forward_demand: usize,
    /// Forwarding slots granted (`Σ_a min(reserved_a, demand_a)` —
    /// reservations are never oversubscribed).
    pub granted: usize,
    /// Granted slots serving a swarm other than their relay's dominant one.
    pub lent: usize,
    /// Forwarding demand no reservation could cover (`demand − granted`).
    pub starved: usize,
}
