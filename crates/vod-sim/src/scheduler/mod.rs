//! Per-round connection schedulers.
//!
//! Each round the simulator has a set of active stripe requests, each with a
//! candidate supplier set, and per-box upload capacities (in stripe
//! connections). A scheduler decides which box serves which request. The
//! paper's machinery is the optimal max-flow matching (Lemma 1); the greedy
//! and random schedulers are baselines showing how much of the threshold
//! behaviour is due to optimal matching versus the allocation itself.

mod greedy;
pub mod incremental;
mod maxflow;
mod naive;
mod random_pick;
pub mod relay_broker;

pub use greedy::GreedyScheduler;
pub use incremental::{IncrementalMatcher, RequestKey, RowWork, SearchCounters, SearchStats};
pub use maxflow::MaxFlowScheduler;
pub use naive::NaiveScheduler;
pub use random_pick::RandomScheduler;
pub use relay_broker::{RelayBroker, RelayEvent, RelayRoundStats, RelayUtilization};

use vod_core::BoxId;
use vod_flow::{CandidateView, RelayLendStats, RelayView};
use vod_obs::TraceHandle;

/// A per-round connection scheduler.
///
/// ```
/// use vod_core::BoxId;
/// use vod_sim::{MaxFlowScheduler, Scheduler};
///
/// // Two requests over two boxes with one upload slot each: the paper's
/// // max-flow scheduler always finds the maximum matching.
/// let caps = vec![1, 1];
/// let cands = vec![vec![BoxId(0), BoxId(1)], vec![BoxId(0)]];
/// let mut scheduler = MaxFlowScheduler::new();
/// let assignment = scheduler.schedule(&caps, &cands);
/// assert_eq!(assignment.iter().flatten().count(), 2);
/// ```
pub trait Scheduler {
    /// Assigns a supplier to each request.
    ///
    /// * `capacities[i]` — number of stripe connections box `i` may serve
    ///   this round (`⌊u_b·c⌋`, already net of compensation reservations);
    /// * `candidates[x]` — the boxes possessing the data of request `x`.
    ///
    /// Returns, for each request, the serving box or `None` if unserved. The
    /// returned assignment must respect capacities and candidate sets.
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>>;

    /// Keyed variant used by the simulation engine: `keys[x]` is a stable
    /// cross-round identity for request `x`, letting incremental schedulers
    /// patch the previous round's instance instead of solving from scratch.
    /// The assignment is written into `out` (cleared first), index-aligned
    /// with the input.
    ///
    /// The default implementation ignores the keys and delegates to
    /// [`Scheduler::schedule`], so stateless schedulers need not care.
    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        debug_assert_eq!(keys.len(), candidates.len());
        out.clear();
        out.extend(self.schedule(capacities, candidates));
    }

    /// Flat-CSR variant of [`Scheduler::schedule_keyed`], the entry point
    /// the simulation engine drives: `candidates` is one contiguous
    /// [`CandidateView`] instead of a slice of per-request `Vec`s, and may
    /// carry per-row change stamps that let incremental schedulers skip
    /// their per-row diffs (see [`vod_flow::candidates`]).
    ///
    /// The default implementation materializes the rows and delegates to
    /// [`Scheduler::schedule_keyed`], so external schedulers implementing
    /// only the slice-of-vecs form keep working unchanged; the in-tree
    /// matchers override it to consume the view natively.
    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        let rows = candidates.to_vecs();
        self.schedule_keyed(capacities, keys, &rows, out);
    }

    /// Relay-aware variant used for heterogeneous systems: `relays` names
    /// each request's forwarding relay and the per-box reserved forwarding
    /// slots. Relay structure never changes *which* requests find suppliers
    /// (forwarding draws on reserved capacity, disjoint from the open
    /// budgets the matching allocates), so the default implementation
    /// ignores it and delegates to [`Scheduler::schedule_keyed`]; every
    /// scheduler in the tree is relay-blind and takes the default.
    /// Kept for `benchmark/` until revision 2.
    fn schedule_relayed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        let _ = relays;
        self.schedule_keyed(capacities, keys, candidates, out);
    }

    /// Flat-CSR variant of [`Scheduler::schedule_relayed`] (the engine's
    /// heterogeneous entry point). Defaults bridge exactly like
    /// [`Scheduler::schedule_keyed_view`]: rows are materialized and handed
    /// to the slice-of-vecs form, so relay-blind and external schedulers
    /// need not care. Kept for `benchmark/` until revision 2.
    fn schedule_relayed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        let rows = candidates.to_vecs();
        self.schedule_relayed(capacities, keys, &rows, relays, out);
    }

    /// Nothing implements or reads this. Kept for `benchmark/` until
    /// revision 2.
    fn shard_stats(&self) -> Option<ShardRoundStats> {
        None
    }

    /// Nothing implements or reads this. Kept for `benchmark/` until
    /// revision 2.
    fn relay_stats(&self) -> Option<RelayLendStats> {
        None
    }

    /// Installs a trace handle for scheduler-internal stage spans (solver
    /// phases). The engine calls this
    /// when a tracer is attached to the simulator; schedulers without
    /// internal stages keep the default no-op, and an off handle costs
    /// nothing on the hot path.
    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        let _ = tracer;
    }

    /// Short name for reports and benchmark labels.
    fn name(&self) -> &'static str;
}

/// The return type of [`Scheduler::shard_stats`]. Kept for `benchmark/`
/// until revision 2.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRoundStats;

/// Checks that an assignment respects candidate sets and capacities
/// (shared by tests and the engine's debug assertions).
pub fn assignment_is_valid(
    assignment: &[Option<BoxId>],
    capacities: &[u32],
    candidates: &[Vec<BoxId>],
) -> bool {
    if assignment.len() != candidates.len() {
        return false;
    }
    let mut loads = vec![0u32; capacities.len()];
    for (x, a) in assignment.iter().enumerate() {
        if let Some(b) = a {
            if !candidates[x].contains(b) {
                return false;
            }
            loads[b.index()] += 1;
        }
    }
    loads.iter().zip(capacities).all(|(l, c)| l <= c)
}

/// [`assignment_is_valid`] over a flat [`CandidateView`], with pooled load
/// scratch so the engine's per-round debug assertion stays allocation-free.
pub fn assignment_is_valid_view(
    assignment: &[Option<BoxId>],
    capacities: &[u32],
    candidates: CandidateView<'_>,
    loads: &mut Vec<u32>,
) -> bool {
    if assignment.len() != candidates.len() {
        return false;
    }
    loads.clear();
    loads.resize(capacities.len(), 0);
    for (x, a) in assignment.iter().enumerate() {
        if let Some(b) = a {
            if !candidates.row(x).contains(b) {
                return false;
            }
            loads[b.index()] += 1;
        }
    }
    loads.iter().zip(capacities).all(|(l, c)| l <= c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    /// Shared scenario: 3 boxes (capacities 1, 1, 2), 4 requests.
    fn scenario() -> (Vec<u32>, Vec<Vec<BoxId>>) {
        (
            vec![1, 1, 2],
            vec![vec![b(0), b(1)], vec![b(0)], vec![b(1), b(2)], vec![b(2)]],
        )
    }

    #[test]
    fn all_schedulers_return_valid_assignments() {
        let (caps, cands) = scenario();
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(MaxFlowScheduler::new()),
            Box::new(GreedyScheduler::new()),
            Box::new(RandomScheduler::new(42)),
        ];
        for s in &mut schedulers {
            let a = s.schedule(&caps, &cands);
            assert!(
                assignment_is_valid(&a, &caps, &cands),
                "invalid assignment from {}",
                s.name()
            );
        }
    }

    #[test]
    fn maxflow_serves_at_least_as_many_as_greedy_and_random() {
        let (caps, cands) = scenario();
        let served = |a: &[Option<BoxId>]| a.iter().filter(|x| x.is_some()).count();
        let mf = served(&MaxFlowScheduler::new().schedule(&caps, &cands));
        let gr = served(&GreedyScheduler::new().schedule(&caps, &cands));
        let rd = served(&RandomScheduler::new(1).schedule(&caps, &cands));
        assert!(mf >= gr);
        assert!(mf >= rd);
        assert_eq!(mf, 4); // this instance is fully feasible
    }

    #[test]
    fn assignment_validator_rejects_violations() {
        let caps = vec![1u32];
        let cands = vec![vec![b(0)], vec![b(0)]];
        // Over capacity.
        assert!(!assignment_is_valid(
            &[Some(b(0)), Some(b(0))],
            &caps,
            &cands
        ));
        // Not a candidate.
        assert!(!assignment_is_valid(
            &[Some(b(0)), None],
            &caps,
            &[vec![], vec![]]
        ));
        // Wrong length.
        assert!(!assignment_is_valid(&[None], &caps, &cands));
        // Valid.
        assert!(assignment_is_valid(&[Some(b(0)), None], &caps, &cands));
    }
}
