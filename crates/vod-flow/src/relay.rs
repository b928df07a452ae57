//! Relay compensation as first-class flow structure (Section 4).
//!
//! Theorem 2 makes heterogeneous systems scalable by relaying every poor
//! box `b` through a rich box `r(b)` that statically reserves an upload of
//! `u* + 1 − 2·u_b` for forwarding. The simulator historically modeled that
//! reservation as a silent pre-deduction from the relay's open upload
//! budget; this module promotes it to an explicit, observable extension of
//! the Lemma-1 network.
//!
//! A *relayed* request needs **two** units of service each round: a
//! supplier upload (any box in its candidate set `B(x)`, over the open
//! budgets — the download leg) and a forwarding slot on its relay's
//! reservation (the relay → poor-box leg). The [`RelayNetwork`] encodes
//! both as flow:
//!
//! ```text
//!                    ┌─(⌊u_b·c⌋)─▶ box b ──(1)──▶ supply x ─(1)┐
//!   source ──────────┤                                         ├─▶ request x ──(2)──▶ sink
//!                    └─(reserved_a)─▶ reserve a ──────────(1)──┘
//! ```
//!
//! Direct (non-relayed) requests keep the plain Lemma-1 shape
//! (`box → request → sink`, sink capacity 1). Because every chain into a
//! request node carries at most one unit, a relayed request's sink edge
//! saturates iff *both* legs are served, and the maximum flow decomposes:
//!
//! > max flow = (maximum matching of the plain connection problem)
//! >          + Σ_a min(reserved_a, forwarding demand on a)
//!
//! — the forwarding chains are edge-disjoint from the supply chains, so
//! wiring the reservation into the network never changes *which* requests
//! find suppliers ([`RelayNetwork`] is observability and witness structure,
//! not a different scheduler). When the network is infeasible,
//! [`RelayNetwork::obstruction`] extracts a [`RelayObstruction`]: the
//! classic Hall violator on the supply side, plus one
//! [`StarvedReservation`] per relay whose reservation cannot cover its
//! forwarding demand — the witness names the starved reservation directly.

use crate::arena::FlowArena;
use crate::candidates::{CandidateBuf, CandidateView};
use crate::solver::MaxFlowSolve;
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

/// Pooled two-hop extension of the Lemma-1 arena: open supplier matching
/// plus per-relay reserved forwarding capacity, as one flow network.
///
/// ```
/// use vod_core::BoxId;
/// use vod_flow::{Dinic, RelayNetwork, RelayView};
///
/// // Box 0 is a relay with 1 reserved forwarding slot; requests 0 and 1
/// // are both relayed through it, so one of them starves the reservation
/// // even though both find suppliers.
/// let caps = vec![2u32, 2];
/// let cands = vec![vec![BoxId(1)], vec![BoxId(1)]];
/// let relay_of = vec![Some(BoxId(0)), Some(BoxId(0))];
/// let reserved = vec![1u32, 0];
/// let mut net = RelayNetwork::new();
/// net.build(&caps, &cands, &RelayView { relay_of: &relay_of, reserved: &reserved });
/// let matching = net.solve_in(&mut Dinic::new());
/// assert_eq!(matching.supply_served(), 2);
/// assert_eq!(matching.forward_served(), 1);
/// let witness = net.obstruction(&matching).unwrap();
/// assert_eq!(witness.starved[0].relay, BoxId(0));
/// assert_eq!(witness.starved[0].deficiency(), 1);
/// ```
#[derive(Debug, Default)]
pub struct RelayNetwork {
    arena: FlowArena,
    b_count: usize,
    sink: usize,
    /// Source → box edge per box.
    source_edges: Vec<usize>,
    /// Reserve node per box (`usize::MAX` when the box has no reservation
    /// and relays nothing).
    reserve_node: Vec<usize>,
    /// Source → reserve edge per box (`usize::MAX` when absent).
    reserve_edge: Vec<usize>,
    /// Supply-chain node per request (`usize::MAX` for direct requests,
    /// whose candidate edges point at the request node itself).
    supply_node: Vec<usize>,
    /// Request node per request.
    request_node: Vec<usize>,
    /// Request → sink edge per request.
    sink_edges: Vec<usize>,
    /// Reserve → request forwarding edge per request (`usize::MAX` for
    /// direct requests).
    forward_edges: Vec<usize>,
    /// Relay per request, copied from the build's [`RelayView`].
    relay_of: Vec<Option<BoxId>>,
    /// Reserved slots per box, copied from the build's [`RelayView`].
    reserved: Vec<u32>,
    /// Scratch for reachability classification.
    seen: Vec<bool>,
    stack: Vec<usize>,
    /// Pooled CSR bridge for the slice-of-vecs [`RelayNetwork::build`]
    /// entry point ([`RelayNetwork::build_view`] is the native path).
    csr_bridge: CandidateBuf,
}

/// Sentinel for "this request/box has no such node or edge".
const NONE: usize = usize::MAX;

impl RelayNetwork {
    /// Creates an empty pooled network.
    pub fn new() -> Self {
        RelayNetwork::default()
    }

    /// Builds the two-hop network for one round, reusing every allocation.
    ///
    /// `capacities[b]` are the open upload budgets (net of reservations,
    /// exactly what the schedulers see), `candidates[x]` the supplier sets,
    /// and `relays` the relay attribution. Candidates outside the box range
    /// are ignored, mirroring `ConnectionProblem::add_request`.
    ///
    /// # Panics
    /// Panics when the view's lengths disagree with `capacities` /
    /// `candidates`, or a relay id is out of range.
    pub fn build(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>], relays: &RelayView) {
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        self.build_view(capacities, bridge.view(), relays);
        self.csr_bridge = bridge;
    }

    /// View-based core of [`RelayNetwork::build`]: identical semantics over
    /// a borrowed flat [`CandidateView`] (the native representation of the
    /// scheduling stack).
    pub fn build_view(
        &mut self,
        capacities: &[u32],
        candidates: CandidateView<'_>,
        relays: &RelayView,
    ) {
        assert_eq!(
            relays.relay_of.len(),
            candidates.len(),
            "one relay attribution per request"
        );
        assert_eq!(
            relays.reserved.len(),
            capacities.len(),
            "one reservation per box"
        );
        let b_count = capacities.len();
        self.b_count = b_count;
        self.relay_of.clear();
        self.relay_of.extend_from_slice(relays.relay_of);
        self.reserved.clear();
        self.reserved.extend_from_slice(relays.reserved);

        // A box gets a reserve node when it has reserved slots or is named
        // as a relay (so a zero-reservation relay still yields a witness
        // node instead of an index error).
        self.reserve_node.clear();
        self.reserve_node.resize(b_count, NONE);
        for relay in relays.relay_of.iter().flatten() {
            assert!(relay.index() < b_count, "relay {relay} out of range");
            self.reserve_node[relay.index()] = 0; // marked, numbered below
        }
        for (b, &reserved) in relays.reserved.iter().enumerate() {
            if reserved > 0 {
                self.reserve_node[b] = 0;
            }
        }

        // Deterministic node layout: source, boxes, reserves (ascending box
        // id), then per request its supply node (relayed only) and request
        // node, sink last.
        let mut next = 1 + b_count;
        for slot in self.reserve_node.iter_mut() {
            if *slot != NONE {
                *slot = next;
                next += 1;
            }
        }
        self.supply_node.clear();
        self.request_node.clear();
        for relay in relays.relay_of.iter() {
            if relay.is_some() {
                self.supply_node.push(next);
                next += 1;
            } else {
                self.supply_node.push(NONE);
            }
            self.request_node.push(next);
            next += 1;
        }
        let sink = next;
        self.sink = sink;
        self.arena.clear(sink + 1);

        // Canonical edge order: open budgets, reservations, then per
        // request its candidate, chain, forwarding, and sink edges.
        self.source_edges.clear();
        for (b, &cap) in capacities.iter().enumerate() {
            self.source_edges
                .push(self.arena.add_edge(0, 1 + b, cap as i64));
        }
        self.reserve_edge.clear();
        self.reserve_edge.resize(b_count, NONE);
        for b in 0..b_count {
            if self.reserve_node[b] != NONE {
                self.reserve_edge[b] =
                    self.arena
                        .add_edge(0, self.reserve_node[b], self.reserved[b] as i64);
            }
        }
        self.sink_edges.clear();
        self.forward_edges.clear();
        for (x, cands) in candidates.rows().enumerate() {
            let request = self.request_node[x];
            // Candidate edges land on the supply node for relayed requests
            // (so at most one supplier unit reaches the request node) and
            // directly on the request node otherwise.
            let supply_target = match self.supply_node[x] {
                NONE => request,
                node => node,
            };
            for &cand in cands {
                if cand.index() < b_count {
                    self.arena.add_edge(1 + cand.index(), supply_target, 1);
                }
            }
            match self.relay_of[x] {
                Some(relay) => {
                    self.arena.add_edge(supply_target, request, 1);
                    self.forward_edges.push(self.arena.add_edge(
                        self.reserve_node[relay.index()],
                        request,
                        1,
                    ));
                    self.sink_edges.push(self.arena.add_edge(request, sink, 2));
                }
                None => {
                    self.forward_edges.push(NONE);
                    self.sink_edges.push(self.arena.add_edge(request, sink, 1));
                }
            }
        }
    }

    /// Number of requests in the built network.
    pub fn request_count(&self) -> usize {
        self.request_node.len()
    }

    /// Total demand the flow must meet for full feasibility: one unit per
    /// request plus one forwarding unit per relayed request.
    pub fn demand(&self) -> u64 {
        (self.request_count() + self.relay_of.iter().flatten().count()) as u64
    }

    /// Solves the built network to a maximum flow and extracts the
    /// assignment and forwarding state.
    pub fn solve_in(&mut self, solver: &mut dyn MaxFlowSolve) -> RelayMatching {
        let flow = solver.max_flow(&mut self.arena, 0, self.sink);
        let mut assignment = vec![None; self.request_count()];
        let mut forwarded = vec![false; self.request_count()];
        for x in 0..self.request_count() {
            // The supplier is the box node feeding the supply chain: walk
            // the chain head's adjacency for the residual twin of an
            // incoming box edge that carries flow.
            let head = match self.supply_node[x] {
                NONE => self.request_node[x],
                node => node,
            };
            let mut cursor = self.arena.first_edge(head);
            while let Some(idx) = cursor {
                cursor = self.arena.next_edge(idx);
                if idx % 2 == 1 && self.arena.flow_on(idx ^ 1) == 1 {
                    let from = self.arena.target(idx);
                    if from >= 1 && from <= self.b_count {
                        assignment[x] = Some(BoxId((from - 1) as u32));
                        break;
                    }
                }
            }
            if self.forward_edges[x] != NONE {
                forwarded[x] = self.arena.flow_on(self.forward_edges[x]) == 1;
            }
        }
        RelayMatching {
            assignment,
            forwarded,
            relay_of: self.relay_of.clone(),
            flow: flow as u64,
            demand: self.demand(),
        }
    }

    /// Extracts the infeasibility witness from a solved network, or `None`
    /// when the round is fully served (suppliers *and* forwarding).
    ///
    /// The supply side follows the Lemma-1 min-cut construction (requests
    /// on the sink side of the cut whose candidate boxes are all on the
    /// sink side); the forwarding side lists every relay whose reservation
    /// is smaller than its forwarding demand, with the starved requests —
    /// the obstruction *names the starved reservation* rather than
    /// reporting a bare infeasibility bit.
    pub fn obstruction(&mut self, matching: &RelayMatching) -> Option<RelayObstruction> {
        if matching.is_complete() {
            return None;
        }
        // Min-cut side of the residual graph (the solve left the arena at
        // maximum flow).
        let mut seen = std::mem::take(&mut self.seen);
        let mut stack = std::mem::take(&mut self.stack);
        self.arena.residual_reachable_into(0, &mut seen, &mut stack);

        // Supply-side Hall violator, following the Lemma-1 min-cut
        // construction on the supply sub-network (reserve nodes are dead
        // ends in the residual graph, so the cut among source, boxes, and
        // supply heads is exactly the plain instance's): the requests whose
        // supply head and entire candidate set sit on the sink side. Only
        // meaningful when some download leg went unserved.
        let mut requests = Vec::new();
        let mut boxes: Vec<BoxId> = Vec::new();
        if matching.supply_served() < self.request_count() {
            for x in 0..self.request_count() {
                let head = match self.supply_node[x] {
                    NONE => self.request_node[x],
                    node => node,
                };
                if seen[head] {
                    continue; // source side: served and reroutable
                }
                // All candidate boxes must be on the sink side too;
                // candidates are recovered from the head's incoming twins.
                let mut all_sink_side = true;
                let mut cursor = self.arena.first_edge(head);
                let mut cands = Vec::new();
                while let Some(idx) = cursor {
                    cursor = self.arena.next_edge(idx);
                    if idx % 2 == 1 {
                        let from = self.arena.target(idx);
                        if from >= 1 && from <= self.b_count {
                            if seen[from] {
                                all_sink_side = false;
                                break;
                            }
                            cands.push(BoxId((from - 1) as u32));
                        }
                    }
                }
                if all_sink_side {
                    requests.push(x);
                    boxes.extend(cands);
                }
            }
            boxes.sort();
            boxes.dedup();
        }
        let capacity = boxes
            .iter()
            .map(|b| {
                let edge = self.source_edges[b.index()];
                self.arena.edge(edge).original_cap as u64
            })
            .sum();

        // Forwarding side: group starved relayed requests by relay. The
        // chains are per-relay independent, so a relay starves iff its
        // demand exceeds its reservation.
        let mut starved: Vec<StarvedReservation> = Vec::new();
        for x in 0..self.request_count() {
            let Some(relay) = self.relay_of[x] else {
                continue;
            };
            if matching.forwarded[x] {
                continue;
            }
            match starved.iter_mut().find(|s| s.relay == relay) {
                Some(slot) => slot.requests.push(x),
                None => starved.push(StarvedReservation {
                    relay,
                    reserved: self.reserved[relay.index()],
                    demand: 0,
                    requests: vec![x],
                }),
            }
        }
        for slot in &mut starved {
            slot.demand = self
                .relay_of
                .iter()
                .filter(|r| **r == Some(slot.relay))
                .count() as u32;
        }
        starved.sort_by_key(|s| s.relay);

        self.seen = seen;
        self.stack = stack;
        if requests.is_empty() && starved.is_empty() {
            return None;
        }
        debug_assert!(
            requests.is_empty() || capacity < requests.len() as u64,
            "supply-side min-cut construction must yield a Hall violator"
        );
        Some(RelayObstruction {
            requests,
            boxes,
            capacity,
            starved,
        })
    }
}

/// The result of solving a [`RelayNetwork`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelayMatching {
    /// Supplier per request (the download leg), `None` when unserved.
    pub assignment: Vec<Option<BoxId>>,
    /// Whether each request's forwarding leg was served (always `false`
    /// for direct requests — they have none).
    pub forwarded: Vec<bool>,
    /// Relay attribution the network was built with.
    pub relay_of: Vec<Option<BoxId>>,
    /// The maximum-flow value (supply units + forwarding units).
    pub flow: u64,
    /// The demand full feasibility requires (requests + relayed requests).
    pub demand: u64,
}

impl RelayMatching {
    /// Requests whose download leg found a supplier.
    pub fn supply_served(&self) -> usize {
        self.assignment.iter().flatten().count()
    }

    /// Relayed requests whose forwarding leg got a reserved slot.
    pub fn forward_served(&self) -> usize {
        self.forwarded.iter().filter(|&&f| f).count()
    }

    /// True when every request is served on every leg.
    pub fn is_complete(&self) -> bool {
        self.flow == self.demand
    }

    /// Forwarding load per relay: `(relay, forwarded, demand)` in ascending
    /// relay order. `forwarded ≤ min(reserved, demand)` always holds — a
    /// reservation is never oversubscribed.
    pub fn relay_loads(&self) -> Vec<(BoxId, u32, u32)> {
        let mut loads: Vec<(BoxId, u32, u32)> = Vec::new();
        for (x, relay) in self.relay_of.iter().enumerate() {
            let Some(relay) = *relay else { continue };
            match loads.iter_mut().find(|(r, _, _)| *r == relay) {
                Some(slot) => {
                    slot.1 += self.forwarded[x] as u32;
                    slot.2 += 1;
                }
                None => loads.push((relay, self.forwarded[x] as u32, 1)),
            }
        }
        loads.sort_by_key(|&(r, _, _)| r);
        loads
    }
}

/// A relay whose reserved forwarding capacity cannot cover its demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StarvedReservation {
    /// The relay whose reservation starves.
    pub relay: BoxId,
    /// Its reserved forwarding slots.
    pub reserved: u32,
    /// Relayed requests demanding a slot this round.
    pub demand: u32,
    /// The starved requests (global indices).
    pub requests: Vec<usize>,
}

impl StarvedReservation {
    /// Forwarding units the reservation is short by.
    pub fn deficiency(&self) -> u32 {
        self.demand.saturating_sub(self.reserved)
    }
}

/// Witness that a relayed round is infeasible: a supply-side Hall violator
/// (possibly empty) plus the starved reservations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelayObstruction {
    /// Requests of the supply-side Hall violator `X`.
    pub requests: Vec<usize>,
    /// Its neighbourhood `B(X)`.
    pub boxes: Vec<BoxId>,
    /// Open upload capacity of `B(X)` (`< |X|` when `requests` is
    /// non-empty).
    pub capacity: u64,
    /// Relays whose reservations cannot cover their forwarding demand.
    pub starved: Vec<StarvedReservation>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dinic::Dinic;
    use crate::matching::ConnectionProblem;

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    fn solve(
        caps: &[u32],
        cands: &[Vec<BoxId>],
        relay_of: &[Option<BoxId>],
        reserved: &[u32],
    ) -> (RelayNetwork, RelayMatching) {
        let mut net = RelayNetwork::new();
        net.build(caps, cands, &RelayView { relay_of, reserved });
        let m = net.solve_in(&mut Dinic::new());
        (net, m)
    }

    #[test]
    fn direct_only_matches_plain_connection_problem() {
        let caps = vec![1u32, 2];
        let cands = vec![vec![b(0), b(1)], vec![b(0)], vec![b(1)]];
        let relay_of = vec![None; 3];
        let reserved = vec![0u32, 0];
        let (_, m) = solve(&caps, &cands, &relay_of, &reserved);
        let mut p = ConnectionProblem::new(caps.clone());
        for c in &cands {
            p.add_request(c.iter().copied());
        }
        assert_eq!(m.supply_served(), p.solve().served());
        assert_eq!(m.forward_served(), 0);
        assert!(m.is_complete());
    }

    #[test]
    fn relayed_request_needs_both_legs() {
        // One relayed request: box 1 supplies, box 0's reservation forwards.
        let caps = vec![0u32, 1];
        let cands = vec![vec![b(1)]];
        let relay_of = vec![Some(b(0))];
        let reserved = vec![1u32, 0];
        let (_, m) = solve(&caps, &cands, &relay_of, &reserved);
        assert_eq!(m.assignment, vec![Some(b(1))]);
        assert_eq!(m.forwarded, vec![true]);
        assert!(m.is_complete());
        assert_eq!(m.relay_loads(), vec![(b(0), 1, 1)]);
    }

    #[test]
    fn forwarding_never_steals_open_capacity() {
        // Box 0 is both a supplier (open capacity 1) and a relay (reserved
        // 1). Request 0 is direct on box 0; request 1 is relayed through
        // box 0 and supplied by box 1. Both must be fully served: the
        // forwarding unit comes from the reservation, not the open budget.
        let caps = vec![1u32, 1];
        let cands = vec![vec![b(0)], vec![b(1)]];
        let relay_of = vec![None, Some(b(0))];
        let reserved = vec![1u32, 0];
        let (_, m) = solve(&caps, &cands, &relay_of, &reserved);
        assert!(m.is_complete());
        assert_eq!(m.assignment, vec![Some(b(0)), Some(b(1))]);
    }

    #[test]
    fn supply_matching_unchanged_by_relay_structure() {
        // The same instance solved with and without relay attribution must
        // serve the same number of download legs.
        let caps = vec![2u32, 1, 1];
        let cands = vec![
            vec![b(0), b(1)],
            vec![b(0)],
            vec![b(1), b(2)],
            vec![b(2)],
            vec![b(0)],
        ];
        let plain = {
            let mut p = ConnectionProblem::new(caps.clone());
            for c in &cands {
                p.add_request(c.iter().copied());
            }
            p.solve().served()
        };
        let relay_of = vec![Some(b(2)), None, Some(b(0)), None, Some(b(2))];
        let reserved = vec![1u32, 0, 2];
        let (_, m) = solve(&caps, &cands, &relay_of, &reserved);
        assert_eq!(m.supply_served(), plain);
        // Forwarding decomposes per relay: min(reserved, demand).
        assert_eq!(m.forward_served(), 1 + 2);
    }

    #[test]
    fn starved_reservation_is_named_in_the_witness() {
        // Relay 0 reserves 1 slot but two requests forward through it.
        let caps = vec![0u32, 2];
        let cands = vec![vec![b(1)], vec![b(1)]];
        let relay_of = vec![Some(b(0)), Some(b(0))];
        let reserved = vec![1u32, 0];
        let (mut net, m) = solve(&caps, &cands, &relay_of, &reserved);
        assert_eq!(m.supply_served(), 2);
        assert_eq!(m.forward_served(), 1);
        assert!(!m.is_complete());
        let witness = net.obstruction(&m).expect("starved reservation");
        assert!(witness.requests.is_empty(), "supply side is feasible");
        assert_eq!(witness.starved.len(), 1);
        let starved = &witness.starved[0];
        assert_eq!(starved.relay, b(0));
        assert_eq!(starved.reserved, 1);
        assert_eq!(starved.demand, 2);
        assert_eq!(starved.deficiency(), 1);
        assert_eq!(starved.requests.len(), 1);
    }

    #[test]
    fn supply_side_hall_violator_survives_relaying() {
        // Two requests on a capacity-1 box: a classic Hall violation, with
        // an (unstarved) relay attached to one of them.
        let caps = vec![1u32, 3];
        let cands = vec![vec![b(0)], vec![b(0)]];
        let relay_of = vec![Some(b(1)), None];
        let reserved = vec![0u32, 2];
        let (mut net, m) = solve(&caps, &cands, &relay_of, &reserved);
        assert_eq!(m.supply_served(), 1);
        let witness = net.obstruction(&m).expect("Hall violator");
        assert!(witness.starved.is_empty(), "reservation covers demand");
        assert_eq!(witness.boxes, vec![b(0)]);
        assert!(witness.capacity < witness.requests.len() as u64);
    }

    #[test]
    fn zero_reservation_relay_starves_all_its_requests() {
        let caps = vec![0u32, 1];
        let cands = vec![vec![b(1)]];
        let relay_of = vec![Some(b(0))];
        let reserved = vec![0u32, 0];
        let (mut net, m) = solve(&caps, &cands, &relay_of, &reserved);
        assert_eq!(m.supply_served(), 1);
        assert_eq!(m.forward_served(), 0);
        let witness = net.obstruction(&m).unwrap();
        assert_eq!(witness.starved[0].relay, b(0));
        assert_eq!(witness.starved[0].reserved, 0);
    }

    #[test]
    fn complete_rounds_have_no_obstruction() {
        let caps = vec![1u32, 1];
        let cands = vec![vec![b(0)], vec![b(1)]];
        let relay_of = vec![Some(b(1)), None];
        let reserved = vec![0u32, 1];
        let (mut net, m) = solve(&caps, &cands, &relay_of, &reserved);
        assert!(m.is_complete());
        assert!(net.obstruction(&m).is_none());
    }

    #[test]
    fn network_is_reusable_across_rounds() {
        let mut net = RelayNetwork::new();
        let mut solver = Dinic::new();
        for round in 0..4u32 {
            let caps = vec![1 + round, 1];
            let cands = vec![vec![b(0), b(1)], vec![b(0)]];
            let relay_of = vec![None, Some(b(1))];
            let reserved = vec![0u32, 1];
            net.build(
                &caps,
                &cands,
                &RelayView {
                    relay_of: &relay_of,
                    reserved: &reserved,
                },
            );
            let m = net.solve_in(&mut solver);
            assert!(m.is_complete(), "round {round}");
        }
    }
}
