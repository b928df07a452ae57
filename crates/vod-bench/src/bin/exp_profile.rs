//! E17 — exp_profile: per-stage round-pipeline profiles.
//!
//! This experiment attaches the engine's [`vod_sim::TraceHandle`] and
//! breaks each round into its pipeline stages (playback end, candidate
//! maintenance/fill, churn drain, repair plan/commit, demand intake,
//! request collection, scheduling, relay accounting and re-plans),
//! reporting per-stage p50/p99/max latencies from the tracer's
//! log-bucketed histograms. Beside the times it prints, per round, the
//! class rows the engine's memo built and replayed and the rows the matcher
//! hashed to resolve requests to classes (so a round that rebuilds the
//! whole memo shows up as one), and the work the matcher's targeted
//! augmenting search did (searches, augmentations, passes, look-ahead hits,
//! entries scanned, longest path).
//!
//! Five standard workloads are profiled, each in one traced run: sustained
//! churn, a flash crowd, a heterogeneous relayed fleet, a fleet exactly at
//! the threshold (u = 1.0, every slot taken), and churn with budgeted
//! repair. The binary only prints; the test at the end of this file runs
//! the same workloads at quick scale, untraced and traced, and asserts that
//!
//! * **behaviour is bit-identical** — each traced report equals the
//!   untraced one (report equality ignores wall-clock timing by
//!   construction, so any difference is a real schedule change), and every
//!   traced run records stage spans;
//! * **search work is bounded** — entries scanned per targeted search stay
//!   within `SEARCH_WORK_BOUND` on every workload. These are counts,
//!   identical on every host and every run.
//!
//! The tracer's cost is not gated here: the benchmark's paired traced run
//! reports it as `obs.trace_overhead_share`.
//!
//! `TRACE_JSONL=<path>` additionally exports the recorded span ring as
//! JSON Lines (one `{"stage":…,"round":…,"ns":…,"payload":…}` object per
//! line, all five workloads concatenated in run order).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::rc::Rc;
use vod_analysis::Table;
use vod_bench::{print_header, Scale};
use vod_core::{
    Bandwidth, BoxId, Catalog, RandomPermutationAllocator, SystemParams, VideoId, VideoSystem,
};
use vod_flow::CandidateView;
use vod_sim::{
    MaxFlowScheduler, RepairPlanner, RequestKey, RowWork, RunProfile, Scheduler, SearchCounters,
    SimConfig, SimulationReport, Simulator, TraceHandle, TraceRecord,
};
use vod_workloads::{
    ChurnModel, DemandGenerator, FlashCrowd, MultiSwarmChurn, NextVideoPolicy, SequentialViewing,
    SessionLength,
};

/// Span-ring capacity for the traced runs: large enough that quick-scale
/// runs keep every record, small enough to stay preallocated-cheap.
const RING: usize = 1 << 15;

/// The homogeneous at-threshold system with storage headroom shared by the
/// churn workloads (the system of the repair-resilience test in
/// `tests/churn_properties.rs`).
fn churn_system(scale: Scale) -> VideoSystem {
    let n = scale.pick(32, 64);
    let duration = scale.pick(12, 16);
    let params = SystemParams::new(n, 2.0, 4, 4, 3, 1.3, duration);
    let catalog = (4 * n / 3) * 3 / 5;
    let mut rng = StdRng::seed_from_u64(0x2009);
    VideoSystem::homogeneous_with_catalog(
        params,
        catalog,
        &RandomPermutationAllocator::new(3),
        &mut rng,
    )
    .expect("churn system must allocate")
}

/// Mild sustained churn (the repair-resilience test's model): ~1.5%/round
/// departures with quick rejoins.
fn churn_model(sys: &VideoSystem) -> ChurnModel {
    ChurnModel::new(sys.boxes(), 41)
        .with_session(SessionLength::Geometric { leave_rate: 0.012 })
        .with_crash_rate(0.003)
        .with_rejoin_delay(1, 2)
        .with_min_up(sys.n() - 4)
}

/// A homogeneous system with cache headroom for the flash-crowd workload.
fn flash_system(scale: Scale) -> VideoSystem {
    let n = scale.pick(32, 64);
    let params = SystemParams::new(n, 2.0, 8, 6, 4, 1.5, scale.pick(16, 40));
    let mut rng = StdRng::seed_from_u64(42);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng)
        .expect("flash-crowd system must allocate")
}

/// A homogeneous fleet exactly at the threshold: u = 1.0, so sequential
/// viewers take every upload slot and an arrival is placed by moving others.
fn tight_system(scale: Scale) -> VideoSystem {
    let n = scale.pick(32, 64);
    let params = SystemParams::new(n, 1.0, 4, 4, 3, 1.3, scale.pick(12, 16));
    let mut rng = StdRng::seed_from_u64(0x2009);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(3), &mut rng)
        .expect("tight system must allocate")
}

/// A u*-compensated two-class fleet: 0.6-stream poor boxes relayed by
/// 3.6-stream rich ones.
fn relay_fleet(scale: Scale) -> VideoSystem {
    let c: u16 = 8;
    let poor = scale.pick(8, 16);
    let rich = scale.pick(8, 16);
    let mut uploads = vec![0.6f64; poor];
    uploads.extend(vec![3.6f64; rich]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let k = 3u32;
    let catalog_size = ((d_avg * n as f64) / k as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, scale.pick(24, 40), c);
    let params = SystemParams::new(
        n,
        boxes.average_upload(),
        d_avg.round().max(1.0) as u32,
        c,
        k,
        1.2,
        scale.pick(24, 40),
    );
    let mut rng = StdRng::seed_from_u64(8);
    VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        Some(Bandwidth::from_streams(1.2)),
        &mut rng,
    )
    .expect("two-class fleet is u*-compensable")
}

/// What a [`CountingScheduler`] publishes after every round: its matcher's
/// cumulative search counters and each round's [`RowWork`] so far (the
/// simulator owns the scheduler, so the experiment reads them from here once
/// a run is over).
#[derive(Default)]
struct Published {
    search: SearchCounters,
    row_work: Vec<RowWork>,
}

type SearchCell = Rc<RefCell<Published>>;

/// The default [`MaxFlowScheduler`], publishing its matcher's targeted-search
/// and row-hashing work counters; every scheduling call is forwarded
/// unchanged.
struct CountingScheduler {
    inner: MaxFlowScheduler,
    search: SearchCell,
}

impl CountingScheduler {
    fn publish(&self) {
        let mut published = self.search.borrow_mut();
        let matcher = self.inner.matcher();
        published.search = matcher.search_stats().total;
        published.row_work.push(matcher.row_work());
    }
}

impl Scheduler for CountingScheduler {
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
        self.publish();
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One run of a workload: its report, the span ring with the records the
/// ring overwrote (empty untraced), the class rows `(built, replayed)` per
/// round, and the matcher's published work counters.
struct WorkloadRun {
    label: &'static str,
    rounds: u64,
    report: SimulationReport,
    trace: Vec<TraceRecord>,
    dropped: u64,
    class_rows: Vec<(u64, u64)>,
    work: Published,
}

/// A simulator on `sys` scheduling through a fresh [`CountingScheduler`],
/// and the cell it publishes into.
fn counted_sim(sys: &VideoSystem, rounds: u64) -> (Simulator<'_>, SearchCell) {
    let search = SearchCell::default();
    let scheduler = CountingScheduler {
        inner: MaxFlowScheduler::new(),
        search: search.clone(),
    };
    let sim = Simulator::with_scheduler(
        sys,
        SimConfig::new(rounds).continue_on_failure(),
        Box::new(scheduler),
    );
    (sim, search)
}

/// Steps a workload for `rounds`, with the tracer on when `traced`.
fn run_workload(
    label: &'static str,
    rounds: u64,
    traced: bool,
    (mut sim, search): (Simulator<'_>, SearchCell),
    mut gen: Box<dyn DemandGenerator>,
) -> WorkloadRun {
    let tracer = if traced {
        TraceHandle::recording(RING)
    } else {
        TraceHandle::off()
    };
    sim.attach_tracer(tracer.clone());
    let class_rows = (0..rounds)
        .map(|_| {
            let (replayed, built) = sim.candidate_row_cache_stats();
            sim.step(gen.as_mut());
            let (replayed_after, built_after) = sim.candidate_row_cache_stats();
            (built_after - built, replayed_after - replayed)
        })
        .collect();
    let report = sim.into_report();
    WorkloadRun {
        label,
        rounds,
        report,
        trace: tracer.drain_trace(),
        dropped: tracer.dropped(),
        class_rows,
        work: search.take(),
    }
}

/// Sequential round-robin viewing over `sys`'s whole population.
fn sequential(sys: &VideoSystem) -> Box<dyn DemandGenerator> {
    Box::new(SequentialViewing::new(
        sys.n(),
        sys.m(),
        NextVideoPolicy::RoundRobin,
        1.3,
        41,
    ))
}

/// Runs the five workloads in print order, traced or not.
fn run_workloads(scale: Scale, traced: bool) -> Vec<WorkloadRun> {
    let (churn, flash, relay, tight) = (
        churn_system(scale),
        flash_system(scale),
        relay_fleet(scale),
        tight_system(scale),
    );
    let churn_rounds = scale.pick(80u64, 200);
    let flash_rounds = scale.pick(50u64, 120);
    let relay_rounds = scale.pick(60u64, 120);
    let tight_rounds = scale.pick(80u64, 200);
    let churned = |repair: bool| {
        let (mut sim, search) = counted_sim(&churn, churn_rounds);
        sim.attach_churn(churn_model(&churn));
        if repair {
            sim.attach_repair(RepairPlanner::for_system(&churn, 8));
        }
        (sim, search)
    };
    vec![
        run_workload(
            "churn",
            churn_rounds,
            traced,
            churned(false),
            sequential(&churn),
        ),
        run_workload(
            "flash-crowd",
            flash_rounds,
            traced,
            counted_sim(&flash, flash_rounds),
            Box::new(FlashCrowd::single(VideoId(0), flash.n(), flash.m(), 1.5, 3)),
        ),
        run_workload(
            "relay",
            relay_rounds,
            traced,
            counted_sim(&relay, relay_rounds),
            Box::new(MultiSwarmChurn::new(relay.m(), 4, 6, 1.2, 5).with_rotation(6)),
        ),
        run_workload(
            "tight",
            tight_rounds,
            traced,
            counted_sim(&tight, tight_rounds),
            sequential(&tight),
        ),
        run_workload(
            "churn+repair",
            churn_rounds,
            traced,
            churned(true),
            sequential(&churn),
        ),
    ]
}

/// Prints the per-stage breakdown of one workload's traced run.
fn print_stage_table(label: &str, rounds: u64, profile: &RunProfile) {
    let mut table = Table::new(
        format!("{label} — per-stage profile over {rounds} rounds"),
        &["stage", "spans", "p50 µs", "p99 µs", "max µs", "% of round"],
    );
    // The share column is of the summed stage time. Stage spans are
    // disjoint except relay-replan, which runs inside churn-drain; no
    // workload here attaches churn to a relayed fleet.
    let total = profile.total_ns().max(1) as f64;
    for (stage, sp) in profile.occupied() {
        table.push_row(vec![
            stage.name().to_string(),
            sp.count.to_string(),
            format!("{:.1}", sp.hist.p50() as f64 / 1e3),
            format!("{:.1}", sp.hist.p99() as f64 / 1e3),
            format!("{:.1}", sp.max_ns as f64 / 1e3),
            format!("{:.1}%", sp.total_ns as f64 / total * 100.0),
        ]);
    }
    println!("{}", table.to_markdown());
}

/// Prints one workload's per-round row work: the class rows the engine's
/// memo built and replayed (from `candidate_row_cache_stats` deltas) and the
/// rows and entries the matcher hashed ([`RowWork`]), each as the mean and
/// the largest round.
fn print_row_table(label: &str, class_rows: &[(u64, u64)], row_work: &[RowWork]) {
    let mut table = Table::new(
        format!("{label} — class rows and row hashing per round"),
        &["counter", "mean", "max", "max at round"],
    );
    let series: [(&str, Vec<u64>); 4] = [
        ("rows built", class_rows.iter().map(|r| r.0).collect()),
        ("rows replayed", class_rows.iter().map(|r| r.1).collect()),
        (
            "rows hashed",
            row_work.iter().map(|w| w.hashed_rows).collect(),
        ),
        (
            "entries hashed",
            row_work.iter().map(|w| w.hashed_entries).collect(),
        ),
    ];
    for (name, values) in series {
        let (at, max) = values
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(round, v)| (v, std::cmp::Reverse(round)))
            .unwrap_or((0, 0));
        let mean = values.iter().sum::<u64>() as f64 / values.len().max(1) as f64;
        table.push_row(vec![
            name.to_string(),
            format!("{mean:.1}"),
            max.to_string(),
            at.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E17 exp_profile — round-pipeline stage profiles",
        "the stage tracer is behaviourally invisible: traced runs are bit-identical to untraced ones",
        scale,
    );
    let runs = run_workloads(scale, true);
    for run in &runs {
        let profile = run
            .report
            .profile
            .as_ref()
            .expect("a traced run carries a profile");
        print_stage_table(run.label, run.rounds, profile);
        print_row_table(run.label, &run.class_rows, &run.work.row_work);
    }

    // ---- Work counters of the targeted search ----
    let mut search_table = Table::new(
        "Targeted augmenting search (whole run)",
        &[
            "workload",
            "searches",
            "augmented",
            "passes",
            "look-ahead hits",
            "entries scanned",
            "per search",
            "longest path",
        ],
    );
    for run in &runs {
        let c = run.work.search;
        search_table.push_row(vec![
            run.label.to_string(),
            c.searches.to_string(),
            c.augmented.to_string(),
            c.passes.to_string(),
            c.lookahead_hits.to_string(),
            c.edges_scanned.to_string(),
            format!("{:.1}", c.edges_scanned as f64 / c.searches.max(1) as f64),
            c.longest_path.to_string(),
        ]);
    }
    println!("{}", search_table.to_markdown());

    // ---- JSONL trace export ----
    if let Some(path) = std::env::var_os("TRACE_JSONL") {
        let mut out = String::new();
        for record in runs.iter().flat_map(|run| &run.trace) {
            out.push_str(&record.to_jsonl());
            out.push('\n');
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("trace export to {}: {e}", path.to_string_lossy());
            std::process::exit(1);
        }
        let total: usize = runs.iter().map(|run| run.trace.len()).sum();
        let dropped: u64 = runs.iter().map(|run| run.dropped).sum();
        println!(
            "trace export: {total} spans ({dropped} overwritten by the ring) -> {}",
            path.to_string_lossy()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Most entries a targeted search may scan, averaged over a workload's run.
    /// The search table reads 1.2–2.6 at quick scale; a search that walks into
    /// saturated boxes before it has looked along its own row for a spare slot
    /// read 596 on the benchmark's `relay-faults` (n = 512), over paths of up
    /// to 583 edges, but only 4.9 on these workloads' short rows.
    const SEARCH_WORK_BOUND: u64 = 32;

    /// The tracer is behaviourally invisible and the targeted search stays
    /// cheap: on each of the five workloads at quick scale the traced report
    /// equals the untraced one, the traced run records stage spans, and its
    /// searches scan at most `SEARCH_WORK_BOUND` entries each.
    #[test]
    fn traced_runs_equal_untraced_ones_and_searches_stay_bounded() {
        let untraced = run_workloads(Scale::Quick, false);
        let traced = run_workloads(Scale::Quick, true);
        for (plain, run) in untraced.iter().zip(&traced) {
            let label = run.label;
            assert!(
                run.report.profile.as_ref().is_some_and(RunProfile::any),
                "{label}: the traced run recorded no stage spans"
            );
            assert!(
                plain.report == run.report,
                "{label}: the traced report diverged from the untraced one ({} vs {} served)",
                run.report.total_served(),
                plain.report.total_served()
            );
            let c = run.work.search;
            assert!(
                c.edges_scanned <= SEARCH_WORK_BOUND * c.searches,
                "{label}: {} entries scanned by {} searches, more than {SEARCH_WORK_BOUND} each",
                c.edges_scanned,
                c.searches
            );
        }
    }
}
