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
//! Five standard workloads are profiled: sustained churn, a flash crowd,
//! a heterogeneous relayed fleet, a fleet exactly at the threshold
//! (u = 1.0, every slot taken), and churn with budgeted repair. Each runs
//! once untraced and once traced, and the experiment exits non-zero unless
//!
//! * **behaviour is bit-identical** — the traced report must equal the
//!   untraced one (report equality ignores wall-clock timing by
//!   construction, so any difference is a real schedule change);
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

/// Most entries a targeted search may scan, averaged over a workload's run.
/// The tables below read 2–4; a search that walks into saturated boxes
/// before it has looked along its own row for a spare slot read 596 on the
/// benchmark's `relay-faults` (n = 512), over paths of up to 583 edges.
const SEARCH_WORK_BOUND: u64 = 32;

/// Span-ring capacity for the traced runs: large enough that quick-scale
/// runs keep every record, small enough to stay preallocated-cheap.
const RING: usize = 1 << 15;

/// The homogeneous at-threshold system with storage headroom shared by the
/// churn workloads (the `exp_churn` resilience recipe).
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

/// Mild sustained churn (the `exp_churn` model): ~1.5%/round departures
/// with quick rejoins.
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

/// A u*-compensated two-class fleet (the `exp_churn` relay recipe).
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

fn sim_config(rounds: u64) -> SimConfig {
    SimConfig::new(rounds).continue_on_failure()
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
    /// A fresh scheduler for a fresh run: the cell's per-round list starts
    /// over.
    fn boxed(search: &SearchCell) -> Box<dyn Scheduler> {
        search.borrow_mut().row_work.clear();
        Box::new(CountingScheduler {
            inner: MaxFlowScheduler::new(),
            search: search.clone(),
        })
    }

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

/// One profiled workload: untraced and traced reports (which must be
/// equal), the traced run's whole-run stage profile and span ring (with the
/// records the ring overwrote), and its class rows `(built, replayed)` per
/// round.
struct WorkloadRun {
    untraced: SimulationReport,
    traced: SimulationReport,
    profile: RunProfile,
    trace: Vec<TraceRecord>,
    dropped: u64,
    class_rows: Vec<(u64, u64)>,
}

/// Runs a workload once with the tracer off, then once with it on.
fn profile_workload<'a>(
    rounds: u64,
    make_sim: &dyn Fn() -> Simulator<'a>,
    make_gen: &dyn Fn() -> Box<dyn DemandGenerator>,
) -> WorkloadRun {
    let mut sim = make_sim();
    let mut gen = make_gen();
    for _ in 0..rounds {
        sim.step(gen.as_mut());
    }
    let untraced = sim.into_report();

    let mut sim = make_sim();
    let tracer = TraceHandle::recording(RING);
    sim.attach_tracer(tracer.clone());
    let mut gen = make_gen();
    let class_rows = (0..rounds)
        .map(|_| {
            let (replayed, built) = sim.candidate_row_cache_stats();
            sim.step(gen.as_mut());
            let (replayed_after, built_after) = sim.candidate_row_cache_stats();
            (built_after - built, replayed_after - replayed)
        })
        .collect();
    let traced = sim.into_report();
    let profile = traced
        .profile
        .clone()
        .expect("traced run must carry a profile");
    WorkloadRun {
        untraced,
        traced,
        profile,
        trace: tracer.drain_trace(),
        dropped: tracer.dropped(),
        class_rows,
    }
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
    let mut failed = false;

    let churn_sys = churn_system(scale);
    let churn_rounds = scale.pick(80u64, 200);
    let flash_sys = flash_system(scale);
    let flash_rounds = scale.pick(50u64, 120);
    let fleet = relay_fleet(scale);
    let relay_rounds = scale.pick(60u64, 120);
    let tight_sys = tight_system(scale);
    let tight_rounds = scale.pick(80u64, 200);

    // One cell per workload.
    let searches: [SearchCell; 5] = Default::default();
    let workloads: Vec<(&str, u64, WorkloadRun)> = vec![
        (
            "churn",
            churn_rounds,
            profile_workload(
                churn_rounds,
                &|| {
                    let mut sim = Simulator::with_scheduler(
                        &churn_sys,
                        sim_config(churn_rounds),
                        CountingScheduler::boxed(&searches[0]),
                    );
                    sim.attach_churn(churn_model(&churn_sys));
                    sim
                },
                &|| {
                    Box::new(SequentialViewing::new(
                        churn_sys.n(),
                        churn_sys.m(),
                        NextVideoPolicy::RoundRobin,
                        1.3,
                        41,
                    ))
                },
            ),
        ),
        (
            "flash-crowd",
            flash_rounds,
            profile_workload(
                flash_rounds,
                &|| {
                    Simulator::with_scheduler(
                        &flash_sys,
                        sim_config(flash_rounds),
                        CountingScheduler::boxed(&searches[1]),
                    )
                },
                &|| {
                    Box::new(FlashCrowd::single(
                        VideoId(0),
                        flash_sys.n(),
                        flash_sys.m(),
                        1.5,
                        3,
                    ))
                },
            ),
        ),
        (
            "relay",
            relay_rounds,
            profile_workload(
                relay_rounds,
                &|| {
                    Simulator::with_scheduler(
                        &fleet,
                        sim_config(relay_rounds),
                        CountingScheduler::boxed(&searches[2]),
                    )
                },
                &|| Box::new(MultiSwarmChurn::new(fleet.m(), 4, 6, 1.2, 5).with_rotation(6)),
            ),
        ),
        (
            "tight",
            tight_rounds,
            profile_workload(
                tight_rounds,
                &|| {
                    Simulator::with_scheduler(
                        &tight_sys,
                        sim_config(tight_rounds),
                        CountingScheduler::boxed(&searches[3]),
                    )
                },
                &|| {
                    Box::new(SequentialViewing::new(
                        tight_sys.n(),
                        tight_sys.m(),
                        NextVideoPolicy::RoundRobin,
                        1.3,
                        41,
                    ))
                },
            ),
        ),
        (
            "churn+repair",
            churn_rounds,
            profile_workload(
                churn_rounds,
                &|| {
                    let mut sim = Simulator::with_scheduler(
                        &churn_sys,
                        sim_config(churn_rounds),
                        CountingScheduler::boxed(&searches[4]),
                    );
                    sim.attach_churn(churn_model(&churn_sys));
                    sim.attach_repair(RepairPlanner::for_system(&churn_sys, 8));
                    sim
                },
                &|| {
                    Box::new(SequentialViewing::new(
                        churn_sys.n(),
                        churn_sys.m(),
                        NextVideoPolicy::RoundRobin,
                        1.3,
                        41,
                    ))
                },
            ),
        ),
    ];

    for ((label, rounds, run), cell) in workloads.iter().zip(&searches) {
        print_stage_table(label, *rounds, &run.profile);
        print_row_table(label, &run.class_rows, &cell.borrow().row_work);
        if !run.profile.any() {
            eprintln!("FAIL [{label}]: traced run recorded no stage spans");
            failed = true;
        }
        if run.untraced != run.traced {
            eprintln!(
                "FAIL [{label}]: traced report diverged from the untraced run ({} vs {} served) — the tracer changed behaviour",
                run.traced.total_served(),
                run.untraced.total_served()
            );
            failed = true;
        }
    }

    // ---- Work counters of the targeted search ----
    // The traced run replays the untraced one's rounds, so the cells hold
    // one run's totals.
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
    for ((label, _, _), cell) in workloads.iter().zip(&searches) {
        let c = cell.borrow().search;
        search_table.push_row(vec![
            label.to_string(),
            c.searches.to_string(),
            c.augmented.to_string(),
            c.passes.to_string(),
            c.lookahead_hits.to_string(),
            c.edges_scanned.to_string(),
            format!("{:.1}", c.edges_scanned as f64 / c.searches.max(1) as f64),
            c.longest_path.to_string(),
        ]);
        if c.edges_scanned > SEARCH_WORK_BOUND * c.searches {
            eprintln!(
                "FAIL [{label}]: {} entries scanned by {} searches — more than {SEARCH_WORK_BOUND} per search",
                c.edges_scanned, c.searches
            );
            failed = true;
        }
    }
    println!("{}", search_table.to_markdown());

    // ---- JSONL trace export ----
    if let Some(path) = std::env::var_os("TRACE_JSONL") {
        let mut out = String::new();
        for (_, _, run) in &workloads {
            for record in &run.trace {
                out.push_str(&record.to_jsonl());
                out.push('\n');
            }
        }
        match std::fs::write(&path, out) {
            Ok(()) => {
                let total: usize = workloads.iter().map(|(_, _, r)| r.trace.len()).sum();
                let dropped: u64 = workloads.iter().map(|(_, _, r)| r.dropped).sum();
                println!(
                    "trace export: {total} spans ({dropped} overwritten by the ring) -> {}",
                    path.to_string_lossy()
                );
            }
            Err(e) => {
                eprintln!("FAIL: trace export to {}: {e}", path.to_string_lossy());
                failed = true;
            }
        }
    }

    if failed {
        eprintln!("\nexp_profile: FAILED");
        std::process::exit(1);
    }
    println!(
        "\nexp_profile: stage tables, bit-identical traced runs and the search-work gate passed"
    );
}
