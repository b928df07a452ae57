//! The engine's active-viewer index and candidate rows against full scans
//! and a naive cache model, through the public API only.
//!
//! `Simulator::step` visits the viewers through a bit index instead of
//! scanning all `n` playback slots. These tests recompute, with a naive scan
//! over `Simulator::playback(b)` for every `b`, what each indexed walk must
//! have produced — the viewer count, the request vector handed to the
//! scheduler (captured by a pass-through scheduler), the order of the
//! emitted `PlaybackRecord`s and the free list shown to the generator — on
//! plain, churn + repair, faults + delivery + degradation and relayed
//! simulators, and on the crowd, swarm-rotation, starved and relayed-fleet
//! workloads.
//!
//! Every candidate row the scheduler receives is checked, in content and
//! order, against [`CacheModel`]: the supplier set `B(x)` of PAPER.md §2.2
//! (the stripe's holders, then every box whose playback cache started the
//! stripe before the request, within the last `T` rounds, never the
//! requester) written once over a `Vec` of cache entries, sharing no code
//! with the engine's candidate index or its class-row memo. The engine's
//! own unit tests check the viewer index bit for bit against the private
//! playback table, and the edge sizes.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use p2p_vod::prelude::*;
use p2p_vod::workloads::{ChurnEvent, FaultModel, OccupancyView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the engine handed the scheduler in the last round: the request
/// keys, in engine order, and each request's candidate row.
#[derive(Default)]
struct Captured {
    keys: Vec<RequestKey>,
    rows: Vec<Vec<BoxId>>,
}

/// Passes every round to a [`MaxFlowScheduler`] and keeps what the engine
/// handed over.
struct CapturingScheduler {
    inner: MaxFlowScheduler,
    captured: Rc<RefCell<Captured>>,
}

impl CapturingScheduler {
    fn capture(&self, keys: &[RequestKey], candidates: CandidateView<'_>) {
        let mut captured = self.captured.borrow_mut();
        captured.keys = keys.to_vec();
        captured.rows = candidates.to_vecs();
    }
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
        self.capture(keys, candidates);
        self.inner
            .schedule_keyed_view(capacities, keys, candidates, out);
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
/// default filter, and keeps the boxes of the round's demands in the order
/// the engine receives (and admits) them.
struct CheckedOccupancy<G> {
    inner: G,
    demanded: Vec<BoxId>,
}

impl<G: DemandGenerator> DemandGenerator for CheckedOccupancy<G> {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        let filtered = DefaultScan(occupancy).free_boxes();
        assert!(filtered.windows(2).all(|w| w[0] < w[1]), "round {round}");
        assert_eq!(occupancy.free_boxes(), filtered, "round {round}");
        let mut pooled = vec![BoxId(u32::MAX); 3];
        occupancy.free_boxes_into(&mut pooled);
        assert_eq!(pooled, filtered, "round {round}");
        let demands = self.inner.demands_at(round, occupancy);
        self.demanded = demands.iter().map(|d| d.box_id).collect();
        demands
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The playback caches of PAPER.md §2.2, written as plainly as possible:
/// every live `(box, stripe, start)` entry, in insertion order.
struct CacheModel {
    /// The cache window `T`.
    window: u64,
    entries: Vec<(BoxId, StripeId, u64)>,
}

impl CacheModel {
    /// `b` starts downloading (and caching) `stripe` at round `start`; a
    /// stripe already cached keeps the later start, in place.
    fn insert(&mut self, b: BoxId, stripe: StripeId, start: u64) {
        match self.entries.iter_mut().find(|e| (e.0, e.1) == (b, stripe)) {
            Some(entry) => entry.2 = entry.2.max(start),
            None => self.entries.push((b, stripe, start)),
        }
    }

    /// Files the entries of every playback admitted in round `now`, in the
    /// order its box was demanded: each stripe's requester, then the viewer
    /// itself when a relay downloads for it.
    fn admit(&mut self, sim: &Simulator<'_>, demanded: &[BoxId], now: u64) {
        for &viewer in demanded {
            let Some(st) = sim.playback(viewer).filter(|st| st.entered_at == now) else {
                continue;
            };
            for (idx, plan) in st.plan.iter().enumerate() {
                let stripe = StripeId::new(st.video, idx as u16);
                let requester = plan.requester(viewer);
                self.insert(requester, stripe, plan.activate_at());
                if requester != viewer {
                    self.insert(viewer, stripe, plan.activate_at());
                }
            }
        }
    }

    /// Drops every entry that left the window: `start + T < now`.
    fn expire(&mut self, now: u64) {
        let window = self.window;
        self.entries.retain(|&(_, _, start)| start + window >= now);
    }

    /// A departed box's cache is gone.
    fn depart(&mut self, b: BoxId) {
        self.entries.retain(|e| e.0 != b);
    }

    /// `B(x)` of a request for `stripe` issued at `issued_at` and
    /// downloaded by `requester`: the stripe's holders, then every box
    /// whose cache started the stripe before the request, each box once and
    /// never the requester.
    fn row(
        &self,
        holders: &[BoxId],
        stripe: StripeId,
        issued_at: u64,
        requester: BoxId,
    ) -> Vec<BoxId> {
        let mut row: Vec<BoxId> = holders
            .iter()
            .copied()
            .filter(|&b| b != requester)
            .collect();
        for &(b, s, start) in &self.entries {
            if s == stripe && start < issued_at && b != requester && !row.contains(&b) {
                row.push(b);
            }
        }
        row
    }
}

fn homogeneous(n: usize, k: u32, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, 2.0, 8, 4, k, 1.5, duration);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(k), &mut rng).unwrap()
}

/// Two upload classes with a compensation plan: relayed requests.
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

fn viewing(system: &VideoSystem, seed: u64) -> SequentialViewing {
    let (n, m) = (system.n(), system.m());
    SequentialViewing::new(n, m, NextVideoPolicy::UniformRandom, 1.5, seed)
}

/// Every active request of every playing box, by a full scan in ascending
/// box order, with its requester and issue round: what the engine collects
/// before it drops self-served, suppressed and backed-off requests.
fn full_scan_requests(sim: &Simulator<'_>, now: u64) -> Vec<(RequestKey, BoxId, u64)> {
    let mut requests = Vec::new();
    for b in 0..sim.system().n() as u32 {
        if let Some(st) = sim.playback(BoxId(b)) {
            st.for_each_active(BoxId(b), now, |req| {
                let key = RequestKey {
                    viewer: req.viewer,
                    stripe: req.stripe,
                };
                requests.push((key, req.requester, req.issued_at));
            });
        }
    }
    requests
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

/// What one checked run covered.
struct Coverage {
    report: SimulationReport,
    /// Candidate rows compared with the cache model.
    rows: usize,
    /// Entries of those rows that came from playback caches, not holders.
    cached_entries: usize,
    /// Rows of requests a relay downloads for its viewer.
    relayed_rows: usize,
}

/// Steps one simulator for `rounds` rounds under `demand`, scripting churn
/// from `seed` where the setup has it, and compares every indexed walk with
/// its full scan, and every candidate row with the cache model, after every
/// step.
fn check_against_full_scans<G: DemandGenerator>(
    system: &VideoSystem,
    setup: Setup,
    rounds: u64,
    seed: u64,
    demand: G,
) -> Coverage {
    let n = system.n();
    let captured = Rc::new(RefCell::new(Captured::default()));
    let scheduler = CapturingScheduler {
        inner: MaxFlowScheduler::new(),
        captured: Rc::clone(&captured),
    };
    let config = SimConfig::new(rounds).continue_on_failure();
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
    let mut generator = CheckedOccupancy {
        inner: demand,
        demanded: Vec::new(),
    };
    let mut model = CacheModel {
        window: system.duration() as u64,
        entries: Vec::new(),
    };
    let mut coverage = Coverage {
        report: SimulationReport::default(),
        rows: 0,
        cached_entries: 0,
        relayed_rows: 0,
    };
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
                model.depart(id);
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
        // The holders the round's rows are built from: a repair lands in
        // the live placement after the rows are filled.
        let holders = sim.live_placement().clone();

        sim.step(&mut generator);
        model.expire(now);
        model.admit(&sim, &generator.demanded, now);

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
        let scan = full_scan_requests(&sim, now);
        let all: Vec<RequestKey> = scan.iter().map(|&(key, ..)| key).collect();
        let captured = captured.borrow();
        assert_eq!(captured.keys.len(), metrics.active_requests, "round {now}");
        assert!(
            is_subsequence(&captured.keys, &all),
            "round {now}: request order differs from the full scan"
        );
        if exact_requests {
            assert_eq!(
                all.len(),
                metrics.active_requests + metrics.self_served,
                "round {now}: request count"
            );
        }

        // Every row the scheduler received is the model's `B(x)`, in
        // content and order.
        assert_eq!(captured.rows.len(), captured.keys.len(), "round {now}");
        let issued: HashMap<RequestKey, (BoxId, u64)> = scan
            .iter()
            .map(|&(key, requester, issued_at)| (key, (requester, issued_at)))
            .collect();
        for (key, row) in captured.keys.iter().zip(&captured.rows) {
            let (requester, issued_at) = issued[key];
            let stripe_holders = holders.holders_of(key.stripe);
            let expected = model.row(stripe_holders, key.stripe, issued_at, requester);
            assert_eq!(
                row, &expected,
                "round {now}: row of {key:?} (requester {requester}, issued at {issued_at})"
            );
            coverage.rows += 1;
            coverage.cached_entries += row.iter().filter(|b| !stripe_holders.contains(b)).count();
            coverage.relayed_rows += usize::from(requester != key.viewer);
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
    coverage.report = report;
    coverage
}

/// The run cycled its viewers and served some requests from caches, so the
/// model's second half was compared too.
fn assert_exercised(coverage: &Coverage, n: usize) {
    let demands = coverage.report.total_demands;
    assert!(demands > n, "the run never cycled its viewers ({demands})");
    assert!(coverage.cached_entries > 0, "no row listed a cache holder");
}

#[test]
fn indexed_walks_equal_full_scans_on_a_plain_simulator() {
    for seed in [1u64, 2, 3] {
        let system = homogeneous(70, 4, 7, seed);
        let demand = viewing(&system, seed);
        let coverage = check_against_full_scans(&system, Setup::Plain, 60, seed, demand);
        assert_exercised(&coverage, system.n());
    }
}

#[test]
fn indexed_walks_equal_full_scans_under_churn_and_repair() {
    for seed in [4u64, 5, 6] {
        let system = homogeneous(70, 3, 7, seed);
        let demand = viewing(&system, seed);
        let coverage = check_against_full_scans(&system, Setup::ChurnRepair, 80, seed, demand);
        assert_exercised(&coverage, system.n());
    }
}

#[test]
fn indexed_walks_equal_full_scans_under_faults_delivery_and_degradation() {
    for seed in [7u64, 8, 9] {
        let system = homogeneous(70, 4, 7, seed);
        let demand = viewing(&system, seed);
        let setup = Setup::FaultsDeliveryDegradation;
        let coverage = check_against_full_scans(&system, setup, 60, seed, demand);
        assert_exercised(&coverage, system.n());
    }
}

#[test]
fn indexed_walks_equal_full_scans_on_a_relayed_simulator() {
    for seed in [10u64, 11, 12] {
        let system = relayed_system();
        let demand = viewing(&system, seed);
        let coverage = check_against_full_scans(&system, Setup::Relayed, 80, seed, demand);
        assert_exercised(&coverage, system.n());
        assert!(
            coverage.relayed_rows > 0,
            "no relayed request was scheduled"
        );
    }
}

/// One whole-system crowd on one video and rotating swarms: rows that grow
/// round by round as the swarm fills, and classes that keep replaying.
#[test]
fn candidate_rows_match_the_cache_model_under_a_crowd_and_rotating_swarms() {
    let system = homogeneous(28, 4, 16, 5);
    let m = system.m();
    let crowd = FlashCrowd::single(VideoId(0), 28, m, 1.5, 3);
    let rotation = MultiSwarmChurn::new(m, 4, 5, 1.5, 11).with_rotation(5);
    let coverages = [
        check_against_full_scans(&system, Setup::Plain, 40, 3, crowd),
        check_against_full_scans(&system, Setup::Plain, 40, 11, rotation),
    ];
    for coverage in &coverages {
        assert!(coverage.rows > 0, "nothing was scheduled");
        assert!(coverage.cached_entries > 0, "no row listed a cache holder");
    }
}

/// u = 0.4 < 1 with one replica: chronically infeasible, so the rows of a
/// system that stalls every round are compared too.
#[test]
fn candidate_rows_match_the_cache_model_on_a_starved_system() {
    let params = SystemParams::new(12, 0.4, 8, 4, 1, 1.5, 16);
    let mut rng = StdRng::seed_from_u64(6);
    let system =
        VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(1), &mut rng).unwrap();
    let demand = SequentialViewing::new(12, system.m(), NextVideoPolicy::RoundRobin, 1.5, 1);
    let coverage = check_against_full_scans(&system, Setup::Plain, 25, 1, demand);
    assert!(coverage.rows > 0, "nothing was scheduled");
    assert!(
        !coverage.report.all_rounds_feasible(),
        "starved run must stall"
    );
}

/// A u*-compensated fleet of 6 poor and 12 rich boxes, poor boxes first
/// into rotating swarms: their stripes are downloaded by relays that cache
/// them for several viewers at once.
#[test]
fn candidate_rows_match_the_cache_model_on_a_relayed_fleet_under_rotation() {
    let c: u16 = 8;
    let mut uploads = vec![0.6f64; 6];
    uploads.extend(vec![2.6f64; 12]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let avg_u = boxes.average_upload();
    let u_star = Bandwidth::from_streams(1.2);
    let k = 3u32;
    let catalog_size = ((d_avg * n as f64) / k as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, 20, c);
    let params = SystemParams::new(n, avg_u, d_avg.round().max(1.0) as u32, c, k, 1.2, 20);
    let mut rng = StdRng::seed_from_u64(77);
    let system = VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        Some(u_star),
        &mut rng,
    )
    .expect("fleet is u*-compensable");
    let poor = system.boxes().poor_ids(u_star);
    let demand = MultiSwarmChurn::new(system.m(), 3, 5, 1.2, 5)
        .with_rotation(6)
        .with_priority_boxes(poor);
    let coverage = check_against_full_scans(&system, Setup::Plain, 25, 5, demand);
    assert!(coverage.cached_entries > 0, "no row listed a cache holder");
    assert!(
        coverage.relayed_rows > 0,
        "no relayed request was scheduled"
    );
    assert!(
        coverage.report.rounds.iter().any(|r| r.relay.is_some()),
        "relay stats missing"
    );
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
