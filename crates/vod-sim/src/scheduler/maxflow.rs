//! The paper's optimal scheduler: connection matching by maximum flow.
//!
//! Backed by the [`IncrementalMatcher`]: when driven through
//! [`Scheduler::schedule_keyed`] (as the engine does) consecutive rounds
//! patch the matcher's own tables — candidate rows per row class, loads per
//! box, the matching as linked records — and restore maximality from last
//! round's matching, so a steady-state round performs no heap allocation in
//! the matching layer. No keyed round builds a flow network or calls the
//! solver: a cold round (the first, and the one after a fleet-size change
//! or a one-shot solve) is searched from the empty matching like any other.
//! The solver serves the plain [`Scheduler::schedule`] entry point only,
//! which solves one-shot instances cold in a pooled arena.

use super::{IncrementalMatcher, RequestKey, Scheduler};
use vod_core::BoxId;
use vod_flow::{CandidateView, MaxFlowSolve};

/// Scheduler computing an optimal connection matching (Lemma 1) each round.
#[derive(Debug, Default)]
pub struct MaxFlowScheduler {
    matcher: IncrementalMatcher,
}

impl MaxFlowScheduler {
    /// Scheduler whose one-shot solves use Dinic's algorithm.
    pub fn new() -> Self {
        MaxFlowScheduler::default()
    }

    /// Scheduler whose one-shot solves ([`Scheduler::schedule`]) go to an
    /// explicit flow solver.
    pub fn with_solver(solver: Box<dyn MaxFlowSolve>) -> Self {
        MaxFlowScheduler {
            matcher: IncrementalMatcher::new(solver),
        }
    }

    /// The incremental matcher behind this scheduler (observability:
    /// cold-build count, size of the tracked network, current flow).
    pub fn matcher(&self) -> &IncrementalMatcher {
        &self.matcher
    }
}

impl Scheduler for MaxFlowScheduler {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        let mut out = Vec::with_capacity(candidates.len());
        self.matcher.schedule_cold(capacities, candidates, &mut out);
        out
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.matcher
            .schedule_keyed(capacities, keys, candidates, out);
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.matcher
            .schedule_keyed_view(capacities, keys, candidates, out);
    }

    fn attach_tracer(&mut self, tracer: &vod_obs::TraceHandle) {
        self.matcher.attach_tracer(tracer);
    }

    fn name(&self) -> &'static str {
        "max-flow"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::assignment_is_valid;
    use vod_flow::{Dinic, HopcroftKarpSolve, PushRelabel};

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    #[test]
    fn the_default_solver_is_dinic() {
        // Callers that look a solver up by the name the default scheduler
        // reports (the benchmark times its solver that way) find Dinic.
        assert_eq!(
            MaxFlowScheduler::new().matcher().solver_name(),
            Dinic::new().name()
        );
    }

    #[test]
    fn finds_the_augmenting_assignment_greedy_would_miss() {
        // Request 0 can go to box 0 or 1; request 1 only to box 0.
        // A greedy pass serving request 0 from box 0 would strand request 1.
        let caps = vec![1, 1];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let mut s = MaxFlowScheduler::new();
        let a = s.schedule(&caps, &cands);
        assert!(assignment_is_valid(&a, &caps, &cands));
        assert_eq!(a.iter().filter(|x| x.is_some()).count(), 2);
        assert_eq!(a[1], Some(b(0)));
        assert_eq!(a[0], Some(b(1)));
    }

    #[test]
    fn infeasible_requests_left_unserved() {
        let caps = vec![1];
        let cands = vec![vec![b(0)], vec![b(0)], vec![b(0)]];
        let a = MaxFlowScheduler::new().schedule(&caps, &cands);
        assert_eq!(a.iter().filter(|x| x.is_some()).count(), 1);
    }

    #[test]
    fn alternative_solvers_agree_on_served_count() {
        let caps = vec![2, 1, 1];
        let cands = vec![
            vec![b(0)],
            vec![b(0), b(1)],
            vec![b(1), b(2)],
            vec![b(2)],
            vec![b(0), b(2)],
        ];
        let a = MaxFlowScheduler::new().schedule(&caps, &cands);
        let c = MaxFlowScheduler::with_solver(Box::new(PushRelabel::new())).schedule(&caps, &cands);
        let h = MaxFlowScheduler::with_solver(Box::new(HopcroftKarpSolve::new()))
            .schedule(&caps, &cands);
        let served = |a: &[Option<BoxId>]| a.iter().filter(|x| x.is_some()).count();
        assert_eq!(served(&a), served(&c));
        assert_eq!(served(&a), served(&h));
    }

    #[test]
    fn empty_request_set_yields_empty_assignment() {
        let a = MaxFlowScheduler::new().schedule(&[3, 3], &[]);
        assert!(a.is_empty());
    }
}
