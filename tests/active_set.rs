//! The engine's active-viewer index against full scans, through the public
//! API only.
//!
//! `Simulator::step` visits the viewers through a bit index instead of
//! scanning all `n` playback slots. These tests recompute, with a naive scan
//! over `Simulator::playback(b)` for every `b`, what each indexed walk must
//! have produced — the viewer count, the request vector handed to the
//! scheduler (captured by a pass-through scheduler), the order of the
//! emitted `PlaybackRecord`s and the free list shown to the generator — on
//! plain, churn + repair, faults + delivery + degradation and relayed
//! simulators. The engine's own unit tests check the index bit for bit
//! against the private playback table, and the edge sizes.

use std::cell::RefCell;
use std::rc::Rc;

use p2p_vod::prelude::*;
use p2p_vod::workloads::{ChurnEvent, FaultModel, OccupancyView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Passes every round to a [`MaxFlowScheduler`] and keeps the request keys
/// the engine handed over: the round's request vector, in engine order.
struct CapturingScheduler {
    inner: MaxFlowScheduler,
    keys: Rc<RefCell<Vec<RequestKey>>>,
}

impl Scheduler for CapturingScheduler {
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
        *self.keys.borrow_mut() = keys.to_vec();
        self.inner
            .schedule_keyed_view(capacities, keys, candidates, out);
    }

    fn schedule_relayed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        *self.keys.borrow_mut() = keys.to_vec();
        self.inner
            .schedule_relayed_view(capacities, keys, candidates, relays, out);
    }

    fn name(&self) -> &'static str {
        "capturing max-flow"
    }
}

/// Only `is_free` and `box_count` of the wrapped view, so `free_boxes*` are
/// the trait's default filter.
struct DefaultScan<'a>(&'a dyn OccupancyView);

impl OccupancyView for DefaultScan<'_> {
    fn is_free(&self, box_id: BoxId) -> bool {
        self.0.is_free(box_id)
    }
    fn box_count(&self) -> usize {
        self.0.box_count()
    }
}

/// Forwards to `inner` after checking the engine's free list against the
/// default filter.
struct CheckedOccupancy<G>(G);

impl<G: DemandGenerator> DemandGenerator for CheckedOccupancy<G> {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        let filtered = DefaultScan(occupancy).free_boxes();
        assert!(filtered.windows(2).all(|w| w[0] < w[1]), "round {round}");
        assert_eq!(occupancy.free_boxes(), filtered, "round {round}");
        let mut pooled = vec![BoxId(u32::MAX); 3];
        occupancy.free_boxes_into(&mut pooled);
        assert_eq!(pooled, filtered, "round {round}");
        self.0.demands_at(round, occupancy)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn homogeneous(n: usize, k: u32, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, 2.0, 8, 4, k, 1.5, duration);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(k), &mut rng).unwrap()
}

/// Two upload classes with a compensation plan: the relayed entry point.
fn relayed_system() -> VideoSystem {
    let c: u16 = 4;
    let uploads: Vec<f64> = (0..20)
        .map(|i| if i % 2 == 0 { 0.6 } else { 2.6 })
        .collect();
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let params = SystemParams::new(boxes.len(), 1.6, 8, c, 3, 1.3, 8);
    let catalog = Catalog::uniform(12, 8, c);
    let mut rng = StdRng::seed_from_u64(9);
    VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(3),
        Some(Bandwidth::from_streams(1.2)),
        &mut rng,
    )
    .unwrap()
}

/// Every active request of every playing box, by a full scan in ascending
/// box order: what the engine collects before it drops self-served,
/// suppressed and backed-off requests.
fn full_scan_requests(sim: &Simulator<'_>, now: u64) -> Vec<RequestKey> {
    let mut keys = Vec::new();
    for b in 0..sim.system().n() as u32 {
        if let Some(st) = sim.playback(BoxId(b)) {
            st.for_each_active(BoxId(b), now, |req| {
                keys.push(RequestKey {
                    viewer: req.viewer,
                    stripe: req.stripe,
                })
            });
        }
    }
    keys
}

fn is_subsequence(part: &[RequestKey], whole: &[RequestKey]) -> bool {
    let mut rest = whole.iter();
    part.iter().all(|key| rest.any(|other| other == key))
}

/// What the property loop attaches to the simulator under test.
#[derive(Clone, Copy, PartialEq)]
enum Setup {
    Plain,
    ChurnRepair,
    FaultsDeliveryDegradation,
    Relayed,
}

/// Steps one simulator for `rounds` rounds, scripting churn from `seed`
/// where the setup has it, and compares every indexed walk with its full
/// scan after every step.
fn check_against_full_scans(system: &VideoSystem, setup: Setup, rounds: u64, seed: u64) {
    let n = system.n();
    let keys = Rc::new(RefCell::new(Vec::new()));
    let scheduler = CapturingScheduler {
        inner: MaxFlowScheduler::new(),
        keys: Rc::clone(&keys),
    };
    let config = SimConfig::new(rounds)
        .continue_on_failure()
        .without_obstructions();
    let mut sim = Simulator::with_scheduler(system, config, Box::new(scheduler));
    match setup {
        Setup::ChurnRepair => sim.attach_repair(RepairPlanner::for_system(system, 6)),
        Setup::FaultsDeliveryDegradation => {
            sim.attach_faults(
                FaultModel::new(system.boxes(), seed)
                    .with_degradation(0.05, vec![25, 50], 1, 3)
                    .with_drop_rate(60_000, 20_000),
            );
            sim.attach_degradation(DegradationConfig {
                min_stripes: 2,
                ..DegradationConfig::default()
            });
        }
        Setup::Plain | Setup::Relayed => {}
    }
    let exact_requests = matches!(setup, Setup::Plain | Setup::ChurnRepair | Setup::Relayed);
    let mut generator = CheckedOccupancy(SequentialViewing::new(
        n,
        system.m(),
        NextVideoPolicy::UniformRandom,
        1.5,
        seed,
    ));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let mut alive = vec![true; n];

    for _ in 0..rounds {
        // Scripted membership changes between rounds: a departure ends the
        // box's playback at once, and its record is the next one emitted.
        if setup == Setup::ChurnRepair || setup == Setup::Relayed {
            let b = rng.gen_range(0..n);
            let id = BoxId(b as u32);
            if alive[b] && rng.gen_bool(0.3) && alive.iter().filter(|&&up| up).count() > n / 2 {
                let playing = sim.playback(id).map(|st| (st.video, st.entered_at));
                let before = sim.report_so_far().playbacks.len();
                sim.apply_churn(ChurnEvent::Left(id));
                alive[b] = false;
                let emitted = &sim.report_so_far().playbacks[before..];
                let emitted: Vec<_> = emitted
                    .iter()
                    .map(|r| (r.box_id, r.video, r.entered_at))
                    .collect();
                let expected: Vec<_> = playing.map(|(v, at)| (id, v, at)).into_iter().collect();
                assert_eq!(emitted, expected, "departure of {id}");
                assert!(sim.playback(id).is_none());
            } else if !alive[b] {
                let node = *system.boxes().iter().nth(b).unwrap();
                sim.apply_churn(ChurnEvent::Joined(node));
                alive[b] = true;
            }
        }

        let now = sim.round();
        // Playbacks that end this round, by a full scan, ascending.
        let ending: Vec<_> = (0..n as u32)
            .filter_map(|b| {
                let st = sim.playback(BoxId(b))?;
                (st.ends_at <= now).then_some((BoxId(b), st.video, st.entered_at))
            })
            .collect();
        let records_before = sim.report_so_far().playbacks.len();

        sim.step(&mut generator);

        // Liveness is the model's, bit for bit and in total.
        for (b, &up) in alive.iter().enumerate() {
            assert_eq!(sim.is_alive(BoxId(b as u32)), up, "round {now}, box {b}");
        }
        assert_eq!(sim.alive_count(), alive.iter().filter(|&&up| up).count());

        let report = sim.report_so_far();
        let emitted: Vec<_> = report.playbacks[records_before..]
            .iter()
            .map(|r| (r.box_id, r.video, r.entered_at))
            .collect();
        assert_eq!(emitted, ending, "round {now}: playback records");

        // The viewer count is a popcount of the index; a box the index had
        // lost would be missing here (and a stale bit panics in the engine).
        let metrics = report.rounds.last().expect("a round was recorded");
        let viewers = (0..n as u32)
            .filter(|&b| sim.playback(BoxId(b)).is_some())
            .count();
        assert_eq!(metrics.viewers, viewers, "round {now}: viewers");
        for b in (0..n as u32).map(BoxId) {
            assert!(
                sim.playback(b).is_none() || sim.is_alive(b),
                "dead {b} plays"
            );
        }

        // The request vector keeps the full scan's order; without delivery
        // back-off and partial service it drops exactly the self-served ones.
        let all = full_scan_requests(&sim, now);
        let captured = keys.borrow();
        assert_eq!(captured.len(), metrics.active_requests, "round {now}");
        assert!(
            is_subsequence(&captured, &all),
            "round {now}: request order differs from the full scan"
        );
        if exact_requests {
            assert_eq!(
                all.len(),
                metrics.active_requests + metrics.self_served,
                "round {now}: request count"
            );
        }
    }

    // Flushing the in-flight playbacks walks the index once more.
    let in_flight: Vec<_> = (0..n as u32)
        .filter_map(|b| Some((BoxId(b), sim.playback(BoxId(b))?.video)))
        .collect();
    let flushed_from = sim.report_so_far().playbacks.len();
    let report = sim.into_report();
    let flushed: Vec<_> = report.playbacks[flushed_from..]
        .iter()
        .map(|r| (r.box_id, r.video))
        .collect();
    assert_eq!(flushed, in_flight);
    assert!(report.total_demands > n, "the run never cycled its viewers");
}

#[test]
fn indexed_walks_equal_full_scans_on_a_plain_simulator() {
    for seed in [1u64, 2, 3] {
        check_against_full_scans(&homogeneous(70, 4, 7, seed), Setup::Plain, 60, seed);
    }
}

#[test]
fn indexed_walks_equal_full_scans_under_churn_and_repair() {
    for seed in [4u64, 5, 6] {
        check_against_full_scans(&homogeneous(70, 3, 7, seed), Setup::ChurnRepair, 80, seed);
    }
}

#[test]
fn indexed_walks_equal_full_scans_under_faults_delivery_and_degradation() {
    for seed in [7u64, 8, 9] {
        let system = homogeneous(70, 4, 7, seed);
        check_against_full_scans(&system, Setup::FaultsDeliveryDegradation, 60, seed);
    }
}

#[test]
fn indexed_walks_equal_full_scans_on_a_relayed_simulator() {
    for seed in [10u64, 11, 12] {
        check_against_full_scans(&relayed_system(), Setup::Relayed, 80, seed);
    }
}

/// A fork carries the index with it: stepped side by side under the same
/// scripted churn, original and fork keep equal state signatures, and their
/// finished reports (which flush the in-flight playbacks from the index)
/// agree on everything a scheduler cannot choose.
#[test]
fn fork_then_step_keeps_signatures_and_reports_equal() {
    let system = homogeneous(66, 3, 7, 21);
    let config = SimConfig::new(40).continue_on_failure();
    let make_gen = || SequentialViewing::new(66, system.m(), NextVideoPolicy::RoundRobin, 1.5, 5);
    let mut original = Simulator::new(&system, config);
    original.attach_repair(RepairPlanner::for_system(&system, 6));
    let (mut gen_original, mut gen_fork) = (make_gen(), make_gen());
    for round in 0..12u32 {
        if round == 9 {
            original.apply_churn(ChurnEvent::Left(BoxId(64)));
        }
        original.step(&mut gen_original);
    }
    // The fork's generator replays the same history against a twin, so both
    // generators are in the same state when the pair starts.
    let mut twin = Simulator::new(&system, config);
    twin.attach_repair(RepairPlanner::for_system(&system, 6));
    for round in 0..12u32 {
        if round == 9 {
            twin.apply_churn(ChurnEvent::Left(BoxId(64)));
        }
        twin.step(&mut gen_fork);
    }

    let mut fork = original.fork_with(Box::new(MaxFlowScheduler::new()));
    assert_eq!(fork.state_signature(), original.state_signature());
    for round in 0..20u32 {
        for sim in [&mut original, &mut fork] {
            match round {
                3 => sim.apply_churn(ChurnEvent::Crashed(BoxId(0))),
                4 => sim.apply_churn(ChurnEvent::Joined(
                    *system.boxes().iter().next().expect("box 0"),
                )),
                _ => {}
            }
        }
        original.step(&mut gen_original);
        fork.step(&mut gen_fork);
        assert_eq!(
            fork.state_signature(),
            original.state_signature(),
            "round {round}"
        );
    }
    // Which supplier serves a request is the scheduler's choice (a fork's
    // scheduler starts cold), so the allocation/cache split is left out.
    let invariant = |report: SimulationReport| {
        let rounds: Vec<_> = report
            .rounds
            .iter()
            .map(|r| {
                let counts = (r.new_demands, r.active_requests, r.self_served);
                (
                    counts,
                    r.served,
                    r.unserved,
                    r.viewers,
                    r.max_swarm,
                    r.repair,
                )
            })
            .collect();
        (rounds, report.playbacks, report.total_demands)
    };
    assert_eq!(
        invariant(fork.into_report()),
        invariant(original.into_report())
    );
}
