//! E13 — Incremental candidate pipeline: expiry-wheel index + flat CSR
//! views vs the legacy full-rescan pipeline.
//!
//! Every round the engine computes each request's candidate supplier set
//! `B(x)` (Lemma 1's bipartite instance). The legacy pipeline re-derived the
//! playback-cache half from scratch: a full `retain` sweep over every live
//! cache entry plus linear `contains` scans — O(total cache state) per
//! round. The incremental pipeline buckets entries into an expiry wheel by
//! their (exactly known) eviction round and maintains per-stripe holder
//! lists in place, so per-round maintenance is O(entries expiring now) +
//! O(insertions), and the rows flow to the schedulers as one flat CSR
//! buffer with per-row change stamps.
//!
//! This experiment replays identical workloads through both pipelines and
//! reports the per-round candidate cost (index maintenance + row
//! construction, measured by the engine itself into
//! `RoundMetrics::candidates.build_ns`), alongside the live-entry and
//! expiry volumes that explain it: the legacy cost tracks *live* entries,
//! the incremental cost tracks *expiring* entries.
//!
//! It is also the CI gate for pipeline equivalence: the run exits non-zero
//! unless (a) the rescan and incremental pipelines produce bit-identical
//! simulation reports (schedules, metrics, failures; equality ignores only
//! the build wall-clock) and (b) the legacy-shaped scheduler entry points
//! (slice-of-vecs, reached through the `Scheduler` trait's default bridge)
//! schedule identically to the native CSR path.

use rand::SeedableRng;
use std::time::Instant;
use vod_analysis::Table;
use vod_bench::{print_header, Scale};
use vod_core::{BoxId, RandomPermutationAllocator, SystemParams, VideoId, VideoSystem};
use vod_sim::{MaxFlowScheduler, RequestKey, Scheduler, SimConfig, SimulationReport, Simulator};
use vod_workloads::{DemandGenerator, FlashCrowd, MultiSwarmChurn};

/// Timing repetitions per configuration: schedules are deterministic, so
/// the minimum over repeats is a sound noise filter (the host is shared).
const REPEATS: usize = 3;

/// Constructor of a fresh demand generator for one replay of a shape.
type GenFactory = Box<dyn Fn(&VideoSystem) -> Box<dyn DemandGenerator>>;

struct Shape {
    label: &'static str,
    system: VideoSystem,
    rounds: u64,
    make_gen: GenFactory,
}

fn build_system(n: usize, duration: u32, seed: u64) -> VideoSystem {
    let params = SystemParams::new(n, 2.0, 8, 4, 4, 1.5, duration);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(4), &mut rng).unwrap()
}

fn shapes(scale: Scale) -> Vec<Shape> {
    let (n, duration, rounds) = scale.pick((64usize, 24u32, 60u64), (256, 40, 160));
    let (swarms, arrivals) = scale.pick((8usize, 6usize), (16, 14));
    vec![
        Shape {
            label: "churn (multi-swarm)",
            system: build_system(n, duration, 0x1A),
            rounds,
            make_gen: Box::new(move |sys| {
                Box::new(
                    MultiSwarmChurn::new(sys.m(), swarms, arrivals, 1.5, 0x5A).with_rotation(7),
                )
            }),
        },
        Shape {
            label: "flash-crowd",
            system: build_system(n, duration, 0x2B),
            rounds,
            make_gen: Box::new(move |sys| {
                Box::new(FlashCrowd::single(VideoId(0), sys.n(), sys.m(), 1.5, 3))
            }),
        },
    ]
}

/// A scheduler that implements only the legacy slice-of-vecs methods, so
/// the engine reaches it through the `Scheduler` trait's default
/// view-to-vecs bridge — the "legacy-shaped" path of the divergence gate.
struct BridgedMaxFlow(MaxFlowScheduler);

impl Scheduler for BridgedMaxFlow {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        self.0.schedule(capacities, candidates)
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.0.schedule_keyed(capacities, keys, candidates, out);
    }

    fn name(&self) -> &'static str {
        "bridged-max-flow"
    }
}

/// Aggregated candidate profile of one run.
struct CandProfile {
    report: SimulationReport,
    /// Candidate maintenance + build, milliseconds per round (best over
    /// repeats).
    cand_ms_per_round: f64,
    /// Whole-run wall-clock milliseconds per round (best over repeats).
    total_ms_per_round: f64,
    live_avg: f64,
    expired_avg: f64,
    inserted_avg: f64,
}

fn profile(
    shape: &Shape,
    config: SimConfig,
    make_sched: impl Fn() -> Box<dyn Scheduler>,
) -> CandProfile {
    let mut best_cand = f64::INFINITY;
    let mut best_total = f64::INFINITY;
    let mut kept: Option<SimulationReport> = None;
    for _ in 0..REPEATS {
        let mut gen = (shape.make_gen)(&shape.system);
        let start = Instant::now();
        let report =
            Simulator::with_scheduler(&shape.system, config, make_sched()).run(gen.as_mut());
        let total_ms = start.elapsed().as_secs_f64() * 1e3 / report.round_count().max(1) as f64;
        let cand_ns: u64 = report
            .rounds
            .iter()
            .filter_map(|r| r.candidates.as_ref())
            .map(|c| c.build_ns)
            .sum();
        let cand_ms = cand_ns as f64 / 1e6 / report.round_count().max(1) as f64;
        if cand_ms < best_cand {
            best_cand = cand_ms;
        }
        best_total = best_total.min(total_ms);
        kept = Some(report);
    }
    let report = kept.expect("at least one repeat");
    let rounds = report.round_count().max(1) as f64;
    let sum = |f: &dyn Fn(&vod_sim::CandidateStats) -> usize| -> f64 {
        report
            .rounds
            .iter()
            .filter_map(|r| r.candidates.as_ref())
            .map(|c| f(c) as f64)
            .sum::<f64>()
            / rounds
    };
    CandProfile {
        live_avg: sum(&|c| c.index_entries),
        expired_avg: sum(&|c| c.expired),
        inserted_avg: sum(&|c| c.inserted),
        cand_ms_per_round: best_cand,
        total_ms_per_round: best_total,
        report,
    }
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E13 exp_candidates — incremental candidate pipeline",
        "expiry-wheel index maintenance costs O(expiring entries) instead of O(live entries); flat CSR candidate views are schedule-neutral end to end",
        scale,
    );

    let mut diverged = false;
    let mut table = Table::new(
        "Candidate pipeline cost per round (identical schedules required)",
        &[
            "workload",
            "pipeline",
            "cand ms/round",
            "speedup",
            "run ms/round",
            "live entries/round",
            "expired/round",
            "inserted/round",
            "served",
        ],
    );
    let mut verdicts: Vec<String> = Vec::new();

    for shape in shapes(scale) {
        let config = SimConfig::new(shape.rounds).continue_on_failure();
        let rescan = profile(&shape, config.with_rescan_candidates(), || {
            Box::new(MaxFlowScheduler::new())
        });
        let incremental = profile(&shape, config, || Box::new(MaxFlowScheduler::new()));

        // Gate (a): bit-identical reports across pipelines.
        if rescan.report != incremental.report {
            eprintln!(
                "FAIL: {} — rescan vs incremental reports diverged",
                shape.label
            );
            diverged = true;
        }
        // Gate (b): the legacy-shaped (bridged slice-of-vecs) scheduler path
        // schedules exactly like the native CSR path.
        let bridged = profile(&shape, config, || {
            Box::new(BridgedMaxFlow(MaxFlowScheduler::new()))
        });
        for (a, b) in bridged.report.rounds.iter().zip(&incremental.report.rounds) {
            if a.served != b.served
                || a.unserved != b.unserved
                || a.served_from_cache != b.served_from_cache
            {
                eprintln!(
                    "FAIL: {} — legacy-shaped path diverged at round {}",
                    shape.label, a.round
                );
                diverged = true;
                break;
            }
        }

        let speedup = rescan.cand_ms_per_round / incremental.cand_ms_per_round.max(1e-9);
        for (label, profile, speedup_cell) in [
            ("legacy rescan", &rescan, "1.00x".to_string()),
            ("incremental", &incremental, format!("{speedup:.2}x")),
        ] {
            table.push_row(vec![
                shape.label.to_string(),
                label.to_string(),
                format!("{:.4}", profile.cand_ms_per_round),
                speedup_cell,
                format!("{:.3}", profile.total_ms_per_round),
                format!("{:.0}", profile.live_avg),
                format!("{:.1}", profile.expired_avg),
                format!("{:.1}", profile.inserted_avg),
                profile.report.total_served().to_string(),
            ]);
        }
        verdicts.push(format!(
            "{}: candidate build+evict {:.4} → {:.4} ms/round ({:.2}x); \
             eviction touches ~{:.1} expiring entries/round instead of sweeping ~{:.0} live ones",
            shape.label,
            rescan.cand_ms_per_round,
            incremental.cand_ms_per_round,
            speedup,
            incremental.expired_avg,
            incremental.live_avg,
        ));
    }

    println!("{}", table.to_markdown());

    if diverged {
        eprintln!("FAIL: candidate pipeline changed a schedule");
        std::process::exit(1);
    }
    println!("all pipelines and scheduler paths produced identical schedules");
    println!("candidate-pipeline profile:");
    for verdict in &verdicts {
        println!("  {verdict}");
    }
}
