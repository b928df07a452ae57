//! The warm matcher in every regime of the threshold: far below it (u = 0.6,
//! most requests unserved every round), just below, at it (u = 1.0, tight)
//! and well above, under a steady sequential workload and under back-to-back
//! flash crowds.
//!
//! Two gates, neither of which reads a clock (so they hold in release and
//! debug builds, on loaded hosts):
//!
//! * **maximality** — every round's served count equals a cold solve of the
//!   rows the matcher was handed, whatever it carried over from the round
//!   before, and equals the textbook [`NaiveScheduler`]'s matching of the
//!   same rows, which shares no code with the solvers;
//! * **work** — summed over the eight runs, the targeted search examines at
//!   most half as many entries as the arena holds directed edges over the
//!   same rounds: restoring maximality costs less than half a read of the
//!   network per round. And in each run on its own, no more than one read
//!   of the arena per pass — the bound that matters below the threshold,
//!   where nearly every class is short of units every round and most
//!   searches fail. Marks that do not outlive an augmentation (every
//!   failure re-proven after every success) read the arena 1.1–1.6 times
//!   per pass there.
//!
//! "The arena" is `arena_edge_count()`: the directed edges of the Lemma-1
//! network the matcher's tables stand for — live rows only, since the matcher
//! keeps nothing else. Against that denominator the eight runs read 0.272
//! summed (1 512 046 entries / 5 552 616 edges; 0.264 when the count still
//! included de-capacitated edges) and per pass 0.424 / 0.845 at u = 0.6
//! (sequential / crowds), 0.421 / 0.699 at 0.9, 0.128 / 0.369 at 1.0 and
//! 0.070 / 0.025 at 2.0 — 1.8× and 1.2× under the two bounds, so neither is
//! tightened.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use vod_core::{BoxId, RandomPermutationAllocator, SystemParams, VideoId, VideoSystem};
use vod_flow::{CandidateView, ConnectionProblem};
use vod_sim::{MaxFlowScheduler, NaiveScheduler, RequestKey, Scheduler, SimConfig, Simulator};
use vod_workloads::{CrowdSpec, DemandGenerator, FlashCrowd, NextVideoPolicy, SequentialViewing};

const N: usize = 256;
const ROUNDS: u64 = 120;
const MU: f64 = 1.3;

/// What the forwarding scheduler saw over a run.
#[derive(Default)]
struct Tally {
    rounds: u64,
    requests: u64,
    served: u64,
    /// Rounds whose served count differed from the cold solve's or the
    /// naive matching's: (round index, warm, cold, naive).
    mismatches: Vec<(u64, usize, usize, usize)>,
    edges_scanned: u64,
    arena_edges: u64,
    searches: u64,
    passes: u64,
    /// Σ over rounds of passes × directed arena edges.
    pass_arena_edges: u64,
}

/// The production [`MaxFlowScheduler`], every keyed round forwarded as is
/// and then checked against a cold solve and a naive matching of the same
/// rows.
struct CheckedScheduler {
    inner: MaxFlowScheduler,
    tally: Rc<RefCell<Tally>>,
}

impl Scheduler for CheckedScheduler {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        self.inner.schedule(capacities, candidates)
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.inner
            .schedule_keyed_view(capacities, keys, candidates, out);
        let mut cold = ConnectionProblem::new(capacities.to_vec());
        for pos in 0..candidates.len() {
            cold.add_request(candidates.row(pos).iter().copied());
        }
        let (warm, cold) = (out.iter().flatten().count(), cold.solve().served());
        let naive = NaiveScheduler::new().schedule(capacities, &candidates.to_vecs());
        let naive = naive.iter().flatten().count();
        let matcher = self.inner.matcher();
        let round = matcher.search_stats().round;
        let mut tally = self.tally.borrow_mut();
        if warm != cold || warm != naive {
            let at = tally.rounds;
            tally.mismatches.push((at, warm, cold, naive));
        }
        tally.rounds += 1;
        tally.requests += keys.len() as u64;
        tally.served += warm as u64;
        tally.edges_scanned += round.edges_scanned;
        tally.arena_edges += matcher.arena_edge_count() as u64;
        tally.searches += round.searches;
        tally.passes += round.passes;
        tally.pass_arena_edges += round.passes * matcher.arena_edge_count() as u64;
    }

    fn name(&self) -> &'static str {
        "checked-max-flow"
    }
}

fn system(upload: f64) -> VideoSystem {
    let params = SystemParams::new(N, upload, 4, 4, 3, MU, 16);
    let mut rng = StdRng::seed_from_u64(2009);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(3), &mut rng)
        .expect("regime system must allocate")
}

/// One run: checks maximality and the per-pass work bound, returns (entries
/// scanned, directed arena edges) summed over its rounds.
fn run(sys: &VideoSystem, label: &str, generator: &mut dyn DemandGenerator) -> (u64, u64) {
    let upload = sys.params().upload.as_streams();
    let tally = Rc::new(RefCell::new(Tally::default()));
    let scheduler = CheckedScheduler {
        inner: MaxFlowScheduler::new(),
        tally: tally.clone(),
    };
    let config = SimConfig::new(ROUNDS)
        .continue_on_failure()
        .without_obstructions();
    let mut sim = Simulator::with_scheduler(sys, config, Box::new(scheduler));
    for _ in 0..ROUNDS {
        sim.step(generator);
    }
    let tally = tally.borrow();
    let what = format!("u = {upload}, {label}");
    assert!(tally.rounds >= ROUNDS / 2, "{what}: idle run");
    assert!(
        tally.mismatches.is_empty(),
        "{what}: (round, warm, cold, naive) served counts differ: {:?}",
        tally.mismatches
    );
    if upload >= 2.0 {
        assert_eq!(tally.served, tally.requests, "{what}: Lemma 1 holds");
    } else if upload < 1.0 {
        assert!(tally.served < tally.requests, "{what}: not infeasible");
    }
    assert!(tally.searches > 0, "{what}: never searched");
    println!(
        "{what}: {} of {} served, {} searches in {} passes, scanned {} = {:.3} of the arena per round, {:.3} per pass",
        tally.served,
        tally.requests,
        tally.searches,
        tally.passes,
        tally.edges_scanned,
        tally.edges_scanned as f64 / tally.arena_edges as f64,
        tally.edges_scanned as f64 / tally.pass_arena_edges as f64,
    );
    assert!(
        tally.edges_scanned <= tally.pass_arena_edges,
        "{what}: {} passes scanned {} entries against {} arena edges",
        tally.passes,
        tally.edges_scanned,
        tally.pass_arena_edges
    );
    (tally.edges_scanned, tally.arena_edges)
}

#[test]
fn every_regime_is_maximal_every_round_within_the_work_bound() {
    let (mut scanned, mut arena_edges) = (0, 0);
    let mut add = |(s, a): (u64, u64)| {
        scanned += s;
        arena_edges += a;
    };
    for upload in [0.6, 0.9, 1.0, 2.0] {
        let sys = system(upload);
        add(run(
            &sys,
            "sequential viewing",
            &mut SequentialViewing::new(N, sys.m(), NextVideoPolicy::RoundRobin, MU, 41),
        ));
        // Three whole-population crowds, each starting as the last drains.
        let crowds = (0..3)
            .map(|i| CrowdSpec {
                video: VideoId(i),
                start_round: 40 * i as u64,
                max_viewers: N,
            })
            .collect();
        add(run(
            &sys,
            "flash crowds",
            &mut FlashCrowd::staggered(crowds, sys.m(), MU, 3),
        ));
    }
    println!(
        "whole run: scanned {scanned} / arena {arena_edges} = {:.3}",
        scanned as f64 / arena_edges as f64
    );
    assert!(
        2 * scanned <= arena_edges,
        "scanned {scanned} entries against {arena_edges} arena edges"
    );
}
