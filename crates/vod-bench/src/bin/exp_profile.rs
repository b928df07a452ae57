//! E17 — exp_profile: per-stage round-pipeline profiles with a
//! zero-overhead gate.
//!
//! Every other experiment measures *whole rounds*; this one attaches the
//! [`vod_sim::TraceHandle`] recorder and breaks each round into its
//! pipeline stages (playback end, candidate maintenance/fill, churn drain,
//! repair plan/commit, demand intake, request collection, scheduling —
//! including the solvers' analyze/phase/relabel stages — relay accounting
//! and re-plans),
//! reporting per-stage p50/p99/max latencies from the recorder's
//! log-bucketed histograms. Beside the times it prints the work the
//! matcher's targeted augmenting search did (searches, augmentations,
//! passes, look-ahead hits, entries scanned, longest path).
//!
//! Five standard workloads are profiled: sustained churn, a flash crowd,
//! a heterogeneous relayed fleet, a fleet exactly at the threshold
//! (u = 1.0, every slot taken), and churn with budgeted repair. For each, the run is executed twice — recorder off
//! and recorder on — and the experiment enforces the observability
//! contract:
//!
//! * **bit-identical behaviour** — the traced report must equal the
//!   untraced one (report equality ignores wall-clock timing by
//!   construction, so any difference is a real schedule change);
//! * **bounded overhead** — best-of-repeats ms/round with the recorder on
//!   may exceed the recorder-off run by at most `PROFILE_GATE_TOLERANCE`
//!   (default 5%) once the round is above the `PROFILE_GATE_MIN_MS` noise
//!   floor (default 0.05 ms); `PROFILE_GATE_SKIP=1` reports without
//!   failing, for hosts where wall-clock comparison is meaningless;
//! * **bounded search work** — entries scanned per targeted search stay
//!   within `SEARCH_WORK_BOUND` on every workload. These are counts,
//!   identical on every host and every run, so this gate is never skipped.
//!
//! `TRACE_JSONL=<path>` additionally exports the recorded span ring as
//! JSON Lines (one `{"stage":…,"round":…,"ns":…,"payload":…}` object per
//! line, all five workloads concatenated in run order). `--watch` replays
//! the churn workload as a live inspector, redrawing the stage table as
//! rounds execute.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::Cell;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;
use vod_analysis::Table;
use vod_bench::{print_header, Scale};
use vod_core::{
    Bandwidth, BoxId, Catalog, RandomPermutationAllocator, SystemParams, VideoId, VideoSystem,
};
use vod_flow::CandidateView;
use vod_sim::{
    MaxFlowScheduler, RepairPlanner, RequestKey, RunProfile, Scheduler, SearchCounters, SimConfig,
    SimulationReport, Simulator, TraceHandle, TraceRecord,
};
use vod_workloads::{
    ChurnModel, DemandGenerator, FlashCrowd, MultiSwarmChurn, NextVideoPolicy, SequentialViewing,
    SessionLength,
};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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
    SimConfig::new(rounds)
        .continue_on_failure()
        .without_obstructions()
}

/// Where a [`CountingScheduler`] leaves its matcher's cumulative search
/// counters after every round (the simulator owns the scheduler, so the
/// experiment reads them from here once a run is over).
type SearchCell = Rc<Cell<SearchCounters>>;

/// The default [`MaxFlowScheduler`], publishing its matcher's targeted-search
/// work counters; every scheduling call is forwarded unchanged.
struct CountingScheduler {
    inner: MaxFlowScheduler,
    search: SearchCell,
}

impl CountingScheduler {
    fn boxed(search: &SearchCell) -> Box<dyn Scheduler> {
        Box::new(CountingScheduler {
            inner: MaxFlowScheduler::new(),
            search: search.clone(),
        })
    }

    fn publish(&self) {
        self.search.set(self.inner.matcher().search_stats().total);
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

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.inner.attach_tracer(tracer);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// One profiled workload: untraced and traced reports (which must be
/// equal), the traced run's whole-run stage profile and span ring, and the
/// best-of-repeats timings for the overhead gate.
struct WorkloadRun {
    untraced: SimulationReport,
    traced: SimulationReport,
    profile: RunProfile,
    trace: Vec<TraceRecord>,
    dropped: u64,
    ms_untraced: f64,
    ms_traced: f64,
}

/// Runs a workload `repeats` times with the recorder off and `repeats`
/// times with it on, keeping the best wall-clock of each arm (the runs are
/// deterministic, so every repeat produces the same report).
fn profile_workload<'a>(
    rounds: u64,
    repeats: usize,
    make_sim: &dyn Fn() -> Simulator<'a>,
    make_gen: &dyn Fn() -> Box<dyn DemandGenerator>,
) -> WorkloadRun {
    let mut ms_untraced = f64::INFINITY;
    let mut untraced = None;
    for _ in 0..repeats {
        let mut sim = make_sim();
        let mut gen = make_gen();
        let start = Instant::now();
        for _ in 0..rounds {
            sim.step(gen.as_mut());
        }
        ms_untraced = ms_untraced.min(start.elapsed().as_secs_f64() * 1e3 / rounds.max(1) as f64);
        untraced = Some(sim.into_report());
    }

    let mut ms_traced = f64::INFINITY;
    let mut traced = None;
    let mut trace = Vec::new();
    let mut dropped = 0;
    for _ in 0..repeats {
        let mut sim = make_sim();
        let tracer = TraceHandle::recording(RING);
        sim.attach_tracer(tracer.clone());
        let mut gen = make_gen();
        let start = Instant::now();
        for _ in 0..rounds {
            sim.step(gen.as_mut());
        }
        ms_traced = ms_traced.min(start.elapsed().as_secs_f64() * 1e3 / rounds.max(1) as f64);
        trace = tracer.drain_trace();
        dropped = tracer.dropped();
        traced = Some(sim.into_report());
    }

    let traced = traced.expect("at least one traced repeat");
    let profile = traced
        .profile
        .clone()
        .expect("traced run must carry a profile");
    WorkloadRun {
        untraced: untraced.expect("at least one untraced repeat"),
        traced,
        profile,
        trace,
        dropped,
        ms_untraced,
        ms_traced,
    }
}

/// Prints the per-stage breakdown of one workload's traced run.
fn print_stage_table(label: &str, rounds: u64, profile: &RunProfile) {
    let mut table = Table::new(
        format!("{label} — per-stage profile over {rounds} rounds"),
        &["stage", "spans", "p50 µs", "p99 µs", "max µs", "% of round"],
    );
    // Stage spans nest (schedule contains the solver stages), so the share
    // column is of the top-level pipeline time: the engine stages only.
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

/// The live inspector: replays the churn workload with the recorder on,
/// redrawing the cumulative stage table as rounds execute.
fn watch(scale: Scale) {
    let sys = churn_system(scale);
    let rounds = scale.pick(80u64, 200);
    let mut sim = Simulator::new(&sys, sim_config(rounds));
    sim.attach_churn(churn_model(&sys));
    sim.attach_repair(RepairPlanner::for_system(&sys, 8));
    let tracer = TraceHandle::recording(RING);
    sim.attach_tracer(tracer.clone());
    let mut gen = SequentialViewing::new(sys.n(), sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
    let mut stdout = std::io::stdout();
    for round in 0..rounds {
        sim.step(&mut gen);
        let profile = tracer.run_profile().expect("recording tracer");
        let report = sim.report_so_far();
        // ANSI home+clear keeps the dashboard in place; ~20 fps is plenty.
        let mut frame = String::from("\x1b[2J\x1b[H");
        frame.push_str(&format!(
            "exp_profile --watch — round {}/{rounds}   served {}   unserved {}\n\n",
            round + 1,
            report.total_served(),
            report.total_unserved(),
        ));
        let _ = stdout.write_all(frame.as_bytes());
        print_stage_table("live", round + 1, &profile);
        let _ = stdout.flush();
        std::thread::sleep(std::time::Duration::from_millis(40));
    }
    println!("\nwatch complete: {rounds} rounds");
}

fn main() {
    if std::env::args().any(|a| a == "--watch") {
        watch(Scale::from_env());
        return;
    }
    let scale = Scale::from_env();
    print_header(
        "E17 exp_profile — round-pipeline stage profiles and recorder overhead",
        "the stage recorder is behaviourally invisible: traced runs are bit-identical to untraced ones and add <5% wall clock",
        scale,
    );
    let tolerance = env_f64("PROFILE_GATE_TOLERANCE", 0.05);
    let min_ms = env_f64("PROFILE_GATE_MIN_MS", 0.05);
    let skip = std::env::var("PROFILE_GATE_SKIP").is_ok_and(|v| v == "1" || v == "true");
    let repeats = scale.pick(3, 5);
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
                repeats,
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
                repeats,
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
                repeats,
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
                repeats,
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
                repeats,
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

    for (label, rounds, run) in &workloads {
        print_stage_table(label, *rounds, &run.profile);
        if !run.profile.any() {
            eprintln!("FAIL [{label}]: traced run recorded no stage spans");
            failed = true;
        }
        if run.untraced != run.traced {
            eprintln!(
                "FAIL [{label}]: traced report diverged from the untraced run ({} vs {} served) — the recorder changed behaviour",
                run.traced.total_served(),
                run.untraced.total_served()
            );
            failed = true;
        }
    }

    // ---- Work counters of the targeted search ----
    // Every repeat replays the same rounds, so the cells hold one run's
    // totals whichever repeat wrote them last.
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
        let c = cell.get();
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

    // ---- The overhead gate ----
    let mut gate = Table::new(
        "Recorder overhead (best-of-repeats ms/round)",
        &["workload", "off", "on", "overhead", "spans", "dropped"],
    );
    for (label, _, run) in &workloads {
        let overhead = run.ms_traced / run.ms_untraced - 1.0;
        gate.push_row(vec![
            label.to_string(),
            format!("{:.4}", run.ms_untraced),
            format!("{:.4}", run.ms_traced),
            format!("{:+.1}%", overhead * 100.0),
            run.trace.len().to_string(),
            run.dropped.to_string(),
        ]);
        if run.ms_untraced >= min_ms && run.ms_traced > run.ms_untraced * (1.0 + tolerance) {
            let msg = format!(
                "[{label}] recorder overhead {:.1}% exceeds the {:.0}% gate ({:.4} -> {:.4} ms/round)",
                overhead * 100.0,
                tolerance * 100.0,
                run.ms_untraced,
                run.ms_traced
            );
            if skip {
                eprintln!("SKIPPED gate: {msg}");
            } else {
                eprintln!("FAIL: {msg}");
                failed = true;
            }
        }
    }
    println!("{}", gate.to_markdown());
    println!(
        "(tolerance {:.0}%, noise floor {min_ms} ms/round; traced reports verified bit-identical to untraced)",
        tolerance * 100.0
    );

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
                println!("trace export: {total} spans -> {}", path.to_string_lossy());
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
        "\nexp_profile: stage tables, bit-identical traced runs, the search-work gate and the overhead gate passed"
    );
}
