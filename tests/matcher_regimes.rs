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
//!
//! A third gate, also a count: resolving a round's requests to their classes
//! hashes each *stored* row of the view at most once for its arrivals
//! ([`IncrementalMatcher::row_work`]), so a crowd arriving on one shared row
//! costs that row's length, not the crowd's size times it — and a view that
//! shares rows schedules exactly what the same rows materialised per request
//! schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use vod_core::{BoxId, RandomPermutationAllocator, StripeId, SystemParams, VideoId, VideoSystem};
use vod_flow::{CandidateBuf, CandidateView, ConnectionProblem};
use vod_sim::{
    IncrementalMatcher, MaxFlowScheduler, NaiveScheduler, RequestKey, RowWork, Scheduler,
    SimConfig, Simulator,
};
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
    let config = SimConfig::new(ROUNDS).continue_on_failure();
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

fn key(viewer: u32) -> RequestKey {
    RequestKey {
        viewer: BoxId(viewer),
        stripe: StripeId::new(VideoId(viewer % 5), 0),
    }
}

#[test]
fn arrivals_on_one_stored_row_hash_it_once() {
    let (boxes, crowd) = (300u32, 200u32);
    let row: Vec<BoxId> = (0..boxes).map(BoxId).collect();
    let caps = vec![1u32; boxes as usize];
    let keys: Vec<RequestKey> = (0..crowd).map(key).collect();

    let mut shared = CandidateBuf::new();
    let id = shared.push_row(row.iter().copied());
    (1..crowd).for_each(|_| shared.push_shared(id));
    let mut flat = CandidateBuf::new();
    flat.fill_from_slices(&vec![row.clone(); crowd as usize]);
    assert_eq!(shared.view().to_vecs(), flat.view().to_vecs());

    let (mut on_shared, mut on_flat) =
        (IncrementalMatcher::default(), IncrementalMatcher::default());
    let (mut out_shared, mut out_flat) = (Vec::new(), Vec::new());
    // Cold, then (every key new again) warm: the count is the same.
    for round in 0..2u32 {
        let keys: Vec<RequestKey> = keys
            .iter()
            .map(|k| key(k.viewer.0 + round * crowd))
            .collect();
        on_shared.schedule_keyed_view(&caps, &keys, shared.view(), &mut out_shared);
        on_flat.schedule_keyed_view(&caps, &keys, flat.view(), &mut out_flat);
        let once = RowWork {
            hashed_rows: 1,
            hashed_entries: row.len() as u64,
        };
        assert_eq!(on_shared.row_work(), once, "round {round}");
        let per_request = RowWork {
            hashed_rows: crowd as u64,
            hashed_entries: crowd as u64 * row.len() as u64,
        };
        assert_eq!(on_flat.row_work(), per_request, "round {round}");
        assert_eq!(out_shared, out_flat, "round {round}");
        assert_eq!(out_shared.iter().flatten().count(), crowd as usize);
    }
    // The same requests again, rows unstamped: compared, not hashed.
    let keys: Vec<RequestKey> = keys.iter().map(|k| key(k.viewer.0 + crowd)).collect();
    on_shared.schedule_keyed_view(&caps, &keys, shared.view(), &mut out_shared);
    assert_eq!(on_shared.row_work(), RowWork::default());
}

/// Requests sharing one row; the stamp is redrawn whenever the row changes.
struct Group {
    row: Vec<BoxId>,
    stamp: u64,
    members: Vec<RequestKey>,
}

/// A seeded script of row classes of 1–48 members — classes appear, members
/// join, leave and move to rows of their own, rows lose boxes, capacities
/// are cut and restored, whole populations are swapped out — fed to two
/// matchers: one through a view that stores each class's row once, one
/// through `fill_from_slices`. Every round they must agree on the assignment
/// vector, the arena size and every search counter.
fn shared_and_materialised_views_agree(stamped: bool) {
    let boxes = 24usize;
    let mut rng = StdRng::seed_from_u64(if stamped { 2009 } else { 2010 });
    let random_row = |rng: &mut StdRng| -> Vec<BoxId> {
        let degree = rng.gen_range(0..=6usize);
        (0..degree)
            .map(|_| BoxId(rng.gen_range(0..boxes) as u32))
            .collect()
    };
    let base: Vec<u32> = (0..boxes).map(|_| rng.gen_range(0u32..10)).collect();
    let mut caps = base.clone();
    let mut groups: Vec<Group> = Vec::new();
    let (mut next_key, mut next_stamp) = (0u32, 0u64);
    let (mut shared, mut flat) = (CandidateBuf::new(), CandidateBuf::new());
    let (mut on_shared, mut on_flat) =
        (IncrementalMatcher::default(), IncrementalMatcher::default());
    let (mut out_shared, mut out_flat) = (Vec::new(), Vec::new());
    let (mut hashed_shared, mut hashed_flat) = (0u64, 0u64);
    for round in 0..300u32 {
        if round % 50 >= 47 {
            groups.clear();
        }
        for _ in 0..rng.gen_range(0..3u32) {
            let size = if rng.gen_bool(0.4) {
                1
            } else {
                rng.gen_range(1..=48u32)
            };
            next_stamp += 1;
            groups.push(Group {
                row: random_row(&mut rng),
                stamp: next_stamp,
                members: (0..size).map(|i| key(next_key + i)).collect(),
            });
            next_key += size;
        }
        for group in &mut groups {
            if rng.gen_bool(0.3) {
                group.members.push(key(next_key));
                next_key += 1;
            }
            if rng.gen_bool(0.3) {
                let gone = rng.gen_range(0..group.members.len());
                group.members.swap_remove(gone);
            }
        }
        groups.retain(|group| !group.members.is_empty());
        while groups.iter().map(|g| g.members.len()).sum::<usize>() > 250 {
            let gone = rng.gen_range(0..groups.len());
            groups.swap_remove(gone);
        }
        if !groups.is_empty() {
            let pick = rng.gen_range(0..groups.len());
            let group = &mut groups[pick];
            if !group.row.is_empty() {
                let gone = rng.gen_range(0..group.row.len());
                group.row.remove(gone);
                next_stamp += 1;
                group.stamp = next_stamp;
            }
            let pick = rng.gen_range(0..groups.len());
            if groups[pick].members.len() > 1 {
                let member = groups[pick].members.pop().expect("two members");
                next_stamp += 1;
                groups.push(Group {
                    row: random_row(&mut rng),
                    stamp: next_stamp,
                    members: vec![member],
                });
            }
        }
        let box_idx = rng.gen_range(0..boxes);
        caps[box_idx] = if rng.gen_bool(0.5) {
            base[box_idx]
        } else {
            rng.gen_range(0u32..10)
        };

        // Input order interleaves the classes, as the engine's does.
        let mut live: Vec<(RequestKey, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| group.members.iter().map(move |&k| (k, g)))
            .collect();
        live.sort_unstable();
        let keys: Vec<RequestKey> = live.iter().map(|&(k, _)| k).collect();
        let rows: Vec<Vec<BoxId>> = live.iter().map(|&(_, g)| groups[g].row.clone()).collect();
        let stamps: Vec<u64> = live.iter().map(|&(_, g)| groups[g].stamp).collect();
        flat.fill_from_slices(&rows);
        shared.clear();
        let mut stored: Vec<Option<u32>> = vec![None; groups.len()];
        for &(_, g) in &live {
            match stored[g] {
                Some(id) => shared.push_shared(id),
                None => stored[g] = Some(shared.push_row(groups[g].row.iter().copied())),
            }
        }
        let what = format!("stamped: {stamped}, round {round}");
        assert_eq!(shared.view().to_vecs(), rows, "{what}");
        assert_eq!(shared.view().stored_rows(), groups.len(), "{what}");
        let (shared_view, flat_view) = if stamped {
            (
                shared.view_with_stamps(&stamps),
                flat.view_with_stamps(&stamps),
            )
        } else {
            (shared.view(), flat.view())
        };
        on_shared.schedule_keyed_view(&caps, &keys, shared_view, &mut out_shared);
        on_flat.schedule_keyed_view(&caps, &keys, flat_view, &mut out_flat);
        assert_eq!(out_shared, out_flat, "{what}: sharing moved an assignment");
        assert_eq!(
            on_shared.arena_edge_count(),
            on_flat.arena_edge_count(),
            "{what}"
        );
        assert_eq!(on_shared.search_stats(), on_flat.search_stats(), "{what}");
        let (work_shared, work_flat) = (on_shared.row_work(), on_flat.row_work());
        assert!(
            work_shared.hashed_rows <= work_flat.hashed_rows
                && work_shared.hashed_entries <= work_flat.hashed_entries,
            "{what}: {work_shared:?} on the shared view, {work_flat:?} materialised"
        );
        hashed_shared += work_shared.hashed_entries;
        hashed_flat += work_flat.hashed_entries;
    }
    assert_eq!((on_shared.rebuilds(), on_flat.rebuilds()), (1, 1));
    assert!(
        on_shared.search_stats().total.searches > 0,
        "never searched"
    );
    assert!(
        2 * hashed_shared < hashed_flat,
        "hashed {hashed_shared} entries on shared rows, {hashed_flat} materialised"
    );
}

#[test]
fn a_shared_view_schedules_what_its_materialised_rows_schedule() {
    shared_and_materialised_views_agree(true);
    shared_and_materialised_views_agree(false);
}
