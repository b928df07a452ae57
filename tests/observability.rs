//! Observability contract of the `vod-obs` tracer, end to end:
//!
//! * **zero overhead, proven at the allocator** — steady-state engine
//!   rounds stay allocation-free even with a *recording* tracer attached
//!   (the span path writes into the preallocated ring and fixed-size
//!   histograms); the no-op path is the same contract minus the tracer,
//!   already pinned by `scheduler_allocation.rs`;
//! * **behavioural invisibility** — a traced run's report equals the
//!   untraced run's bit for bit (report equality excludes wall-clock
//!   timing by construction), and a timing-only difference can never fail
//!   an equivalence gate;
//! * **coverage** — every [`Stage`] has an engine emitter: one traced run
//!   of a relayed fleet with churn, repair, faults and failing rounds
//!   records a span of each;
//! * **serialization** — reports carrying `profile`/`timing` round-trip
//!   through the hand-rolled JSON codec, and legacy reports written before
//!   these fields existed still parse (mirroring the `candidates`
//!   backcompat precedent).

#[path = "support/fleets.rs"]
mod fleets;
mod support;

use fleets::starved_relayed_fleet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::rc::Rc;
use support::{thread_allocations, CountingAllocator};
use vod_core::json::{Json, JsonCodec};
use vod_core::{Bandwidth, BoxId, RandomPermutationAllocator, SystemParams, VideoId, VideoSystem};
use vod_flow::CandidateView;
use vod_sim::{
    DegradationConfig, DeliveryPolicy, MaxFlowScheduler, RepairPlanner, RequestKey, Scheduler,
    SearchStats, SimConfig, SimulationReport, Simulator, Stage, StageTimings, TraceHandle,
};
use vod_workloads::{
    ChurnModel, DemandGenerator, FaultModel, MultiSwarmChurn, OccupancyView, SessionLength,
    VideoDemand,
};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One cohort admitted at round 0, playing for the whole run (the
/// `scheduler_allocation.rs` steady-state workload).
struct OneShotCohort {
    n: u32,
    m: usize,
}

impl DemandGenerator for OneShotCohort {
    fn demands_at(&mut self, round: u64, _occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        if round != 0 {
            return Vec::new();
        }
        (0..self.n)
            .map(|i| VideoDemand {
                box_id: BoxId(i),
                video: VideoId((i as usize % self.m) as u32),
                round,
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "one-shot cohort"
    }
}

fn steady_system() -> VideoSystem {
    let params = SystemParams::new(16, 2.5, 8, 4, 4, 1.5, 60);
    let mut rng = StdRng::seed_from_u64(3);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap()
}

/// The recording span path is zero-alloc too: every record lands in the
/// preallocated ring, every timing in a fixed-size array or histogram. This
/// is strictly stronger than the untraced steady-state contract.
#[test]
fn traced_steady_state_engine_rounds_allocate_nothing() {
    let system = steady_system();
    let mut gen = OneShotCohort {
        n: 16,
        m: system.m(),
    };
    let mut sim = Simulator::new(&system, SimConfig::new(50));
    sim.attach_tracer(TraceHandle::recording(4096));
    for round in 0..20u64 {
        assert!(sim.step(&mut gen), "warm-up round {round} must be feasible");
    }

    let before = thread_allocations();
    for round in 20..40u64 {
        assert!(sim.step(&mut gen), "steady round {round} must be feasible");
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "traced steady-state engine rounds must not allocate (got {} over 20 rounds)",
        after - before
    );
}

fn run_steady(tracer: Option<TraceHandle>) -> SimulationReport {
    let system = steady_system();
    let mut gen = OneShotCohort {
        n: 16,
        m: system.m(),
    };
    let mut sim = Simulator::new(&system, SimConfig::new(30));
    if let Some(tracer) = tracer {
        sim.attach_tracer(tracer);
    }
    for _ in 0..30u64 {
        sim.step(&mut gen);
    }
    sim.into_report()
}

#[test]
fn traced_run_is_bit_identical_to_untraced() {
    let untraced = run_steady(None);
    let traced = run_steady(Some(TraceHandle::recording(4096)));
    assert_eq!(
        untraced, traced,
        "attaching a tracer must not change behaviour"
    );
    assert!(untraced.profile.is_none(), "untraced runs carry no profile");
    let profile = traced
        .profile
        .as_ref()
        .expect("traced runs carry a profile");
    assert!(profile.any(), "the profile must have recorded spans");
    assert!(profile.stage(Stage::Schedule).count > 0);
    assert!(traced
        .rounds
        .iter()
        .all(|r| r.timing.as_ref().is_some_and(StageTimings::any)));
    assert!(untraced.rounds.iter().all(|r| r.timing.is_none()));
}

/// A timing-only difference must never fail an equivalence comparison, at
/// either layer the rule is applied.
#[test]
fn timing_only_differences_never_break_equality() {
    // Layer 1: whole reports — Some-vs-None timing and profile compare
    // equal, so traced runs pass every bit-equality gate untouched.
    let untraced = run_steady(None);
    let traced = run_steady(Some(TraceHandle::recording(4096)));
    assert_eq!(untraced, traced);

    // Layer 2: the explorer's normalization drops timing to a canonical
    // form, so hashed/serialized normalized rounds agree too.
    for (u, t) in untraced.rounds.iter().zip(&traced.rounds) {
        let nu = vod_analysis::normalize_round(u);
        let nt = vod_analysis::normalize_round(t);
        assert!(nu.timing.is_none() && nt.timing.is_none());
        assert_eq!(nu, nt);
    }
}

#[test]
fn report_with_profile_and_timing_roundtrips_through_json() {
    let traced = run_steady(Some(TraceHandle::recording(4096)));
    let text = traced.to_json_string();
    let parsed = SimulationReport::from_json(&Json::parse(&text).expect("rendered JSON parses"))
        .expect("report round-trips");
    assert_eq!(parsed, traced);
    // Equality ignores timing, so pin the timing payload explicitly.
    let original = traced.profile.as_ref().expect("profile");
    let roundtrip = parsed.profile.as_ref().expect("profile survives JSON");
    assert_eq!(roundtrip.rounds, original.rounds);
    for (stage, sp) in original.occupied() {
        let rt = roundtrip.stage(stage);
        assert_eq!(
            (rt.count, rt.total_ns, rt.max_ns),
            (sp.count, sp.total_ns, sp.max_ns)
        );
    }
    for (orig, rt) in traced.rounds.iter().zip(&parsed.rounds) {
        let orig = orig.timing.expect("traced round has timing");
        let rt = rt.timing.expect("timing survives JSON");
        assert_eq!(rt.ns, orig.ns);
        assert_eq!(rt.counts, orig.counts);
    }
}

/// Drops `field` from a JSON object (recursively into arrays/objects), the
/// shape a pre-observability report file has on disk.
fn strip_field(json: &mut Json, field: &str) {
    match json {
        Json::Obj(pairs) => {
            pairs.retain(|(k, _)| k != field);
            for (_, v) in pairs {
                strip_field(v, field);
            }
        }
        Json::Arr(items) => {
            for v in items {
                strip_field(v, field);
            }
        }
        _ => {}
    }
}

#[test]
fn legacy_reports_without_profile_or_timing_still_parse() {
    let traced = run_steady(Some(TraceHandle::recording(4096)));
    let mut legacy = traced.to_json();
    strip_field(&mut legacy, "profile");
    strip_field(&mut legacy, "timing");
    let parsed = SimulationReport::from_json(&legacy).expect("legacy report parses");
    assert!(parsed.profile.is_none());
    assert!(parsed.rounds.iter().all(|r| r.timing.is_none()));
    // Structural equality still holds: the stripped fields are exactly the
    // ones excluded from comparison.
    assert_eq!(parsed, traced);
}

/// The default [`MaxFlowScheduler`], leaving its matcher's search counters
/// in a shared cell after every keyed round (the simulator owns the
/// scheduler).
struct PublishingScheduler {
    inner: MaxFlowScheduler,
    search: Rc<Cell<SearchStats>>,
}

impl Scheduler for PublishingScheduler {
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
        self.search.set(self.inner.matcher().search_stats());
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[test]
fn clones_share_one_tracer_across_engine_layers() {
    // The engine records into a clone of the handle the caller keeps, so
    // the caller reads the run's profile from its own copy. The matcher
    // records no spans of its own: the run's scheduling shows as the
    // engine's `schedule` spans and the matcher's search counters.
    let system = steady_system();
    let mut gen = OneShotCohort {
        n: 16,
        m: system.m(),
    };
    let search = Rc::new(Cell::new(SearchStats::default()));
    let scheduler = PublishingScheduler {
        inner: MaxFlowScheduler::new(),
        search: search.clone(),
    };
    let mut sim = Simulator::with_scheduler(&system, SimConfig::new(20), Box::new(scheduler));
    let tracer = TraceHandle::recording(4096);
    sim.attach_tracer(tracer.clone());
    for _ in 0..20u64 {
        sim.step(&mut gen);
    }
    let profile = tracer.run_profile().expect("recording handle");
    assert_eq!(profile.stage(Stage::Schedule).count, 20);
    // The matcher's search placed the cohort's stripe units.
    let total = search.get().total;
    assert!(total.augmented > 0 && total.passes > 0, "{total:?}");
}

/// Every stage has an engine emitter: one traced run of the
/// `relay_failures.rs` starved relayed fleet under churn, repair, faults,
/// retried delivery and degradation, with failing rounds, records a span
/// of every [`Stage`]. A stage that no
/// engine round reaches fails here.
#[test]
fn every_stage_is_recorded_by_a_traced_engine_run() {
    let system = starved_relayed_fleet();
    let poor = system.boxes().poor_ids(Bandwidth::from_streams(1.2));
    let rounds = 120;
    let mut sim = Simulator::new(&system, SimConfig::new(rounds).continue_on_failure());
    sim.attach_churn(
        ChurnModel::new(system.boxes(), 7)
            .with_session(SessionLength::Geometric { leave_rate: 0.02 })
            .with_rejoin_delay(1, 3)
            .with_min_up(system.n() - 2),
    );
    sim.attach_repair(RepairPlanner::for_system(&system, 2));
    sim.attach_faults(
        FaultModel::new(system.boxes(), 0xFA17)
            .with_degradation(0.04, vec![25, 50], 1, 3)
            .with_drop_rate(40_000, 15_000),
    );
    sim.attach_delivery(DeliveryPolicy::default());
    sim.attach_degradation(DegradationConfig::default());
    let tracer = TraceHandle::recording(1);
    sim.attach_tracer(tracer.clone());
    let mut demand = MultiSwarmChurn::new(system.m(), 3, 4, 1.5, 2)
        .with_rotation(4)
        .with_priority_boxes(poor);
    let report = sim.run(&mut demand);
    assert!(
        !report.failures.is_empty(),
        "the fleet must fail some rounds"
    );

    let profile = tracer.run_profile().expect("recording handle");
    let silent: Vec<&str> = Stage::ALL
        .iter()
        .filter(|&&stage| profile.stage(stage).count == 0)
        .map(|stage| stage.name())
        .collect();
    assert!(silent.is_empty(), "stages with no span: {silent:?}");
}
