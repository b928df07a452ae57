//! E16 — Live population: engine-driven churn and budgeted stripe repair.
//!
//! The paper's threshold analysis fixes the box population; this
//! experiment measures what its guarantees cost to keep when boxes come
//! and go:
//!
//! * **resilience** — the same homogeneous at-threshold system is run
//!   static, churned with budgeted repair, and churned with repair
//!   disabled. With repair, the served-request count must stay within 5%
//!   of the static baseline; without it, departures strip replicas
//!   permanently and service degrades measurably — the gap is the
//!   experiment's headline number;
//! * **pipeline equivalence under churn** — the churned, repaired run is
//!   replayed under the incremental matcher and under the textbook
//!   `NaiveScheduler`. Served and unserved counts and the per-round repair
//!   stats must be identical; the run **exits
//!   non-zero on any divergence**, extending the CI determinism gates to
//!   live-population state.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vod_analysis::Table;
use vod_bench::{print_header, Scale};
use vod_core::{RandomPermutationAllocator, SystemParams, VideoSystem};
use vod_sim::{
    NaiveScheduler, RepairPlanner, RepairRoundStats, SimConfig, SimulationReport, Simulator,
};
use vod_workloads::{ChurnModel, NextVideoPolicy, SequentialViewing, SessionLength};

/// A homogeneous at-threshold system with storage headroom: the catalog is
/// held below the `⌊d·n/k⌋` saturation point so repair has spare slots to
/// re-replicate into (a saturated allocation leaves repairs nowhere to go).
fn resilience_system(scale: Scale) -> VideoSystem {
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
    .expect("resilience system must allocate")
}

/// Mild sustained churn: ~1.5% of the population departs per round with
/// quick rejoins, so demand volume stays near the static baseline and the
/// comparison isolates *replica* erosion, not viewer loss.
fn churn_model(sys: &VideoSystem) -> ChurnModel {
    ChurnModel::new(sys.boxes(), 41)
        .with_session(SessionLength::Geometric { leave_rate: 0.012 })
        .with_crash_rate(0.003)
        .with_rejoin_delay(1, 2)
        .with_min_up(sys.n() - 4)
}

struct ChurnRun {
    report: SimulationReport,
    repaired_total: u64,
    lost: usize,
}

/// Runs `sys` for `rounds` with optional churn and repair on the default
/// (incremental + global max-flow) pipeline.
fn run(sys: &VideoSystem, rounds: u64, churn: bool, repair: Option<u32>) -> ChurnRun {
    let mut sim = Simulator::new(sys, SimConfig::new(rounds).continue_on_failure());
    if churn {
        sim.attach_churn(churn_model(sys));
    }
    if let Some(budget) = repair {
        sim.attach_repair(RepairPlanner::for_system(sys, budget));
    }
    let mut gen = SequentialViewing::new(sys.n(), sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
    for _ in 0..rounds {
        sim.step(&mut gen);
    }
    let (repaired_total, lost) = sim
        .repair_planner()
        .map(|p| (p.repaired_total(), p.lost().len()))
        .unwrap_or((0, 0));
    ChurnRun {
        report: sim.into_report(),
        repaired_total,
        lost,
    }
}

/// Per-round (served, unserved, repair) triples — the equivalence gate's
/// comparison unit.
type RoundTrace = Vec<(usize, usize, RepairRoundStats)>;

/// Replays the churned, repaired scenario through one pipeline, returning
/// its per-round trace.
fn pipeline_trace<'a>(
    sys: &'a VideoSystem,
    rounds: u64,
    budget: u32,
    make: impl FnOnce(SimConfig) -> Simulator<'a>,
) -> RoundTrace {
    let config = SimConfig::new(rounds).continue_on_failure();
    let mut sim = make(config);
    sim.attach_churn(churn_model(sys));
    sim.attach_repair(RepairPlanner::for_system(sys, budget));
    let mut gen = SequentialViewing::new(sys.n(), sys.m(), NextVideoPolicy::RoundRobin, 1.3, 41);
    for _ in 0..rounds {
        sim.step(&mut gen);
    }
    sim.report_so_far()
        .rounds
        .iter()
        .map(|r| (r.served, r.unserved, r.repair.expect("repair attached")))
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E16 exp_churn — live population: churn and budgeted repair",
        "with budgeted repair the Theorem 1 service level survives sustained churn; without it replica erosion degrades service",
        scale,
    );
    let mut failed = false;

    // ---- Part 1: resilience — static vs churn+repair vs churn alone ----
    let sys = resilience_system(scale);
    let rounds = scale.pick(80u64, 200);
    let budget = 8u32;
    let statik = run(&sys, rounds, false, None);
    let repaired = run(&sys, rounds, true, Some(budget));
    let unrepaired = run(&sys, rounds, true, None);

    let mut table = Table::new(
        "Churn resilience (identical demand and churn seeds)",
        &[
            "scenario",
            "served",
            "vs static",
            "service ratio",
            "repaired",
            "lost stripes",
        ],
    );
    let served_static = statik.report.total_served() as f64;
    let mut push = |label: &str, run: &ChurnRun| {
        table.push_row(vec![
            label.to_string(),
            run.report.total_served().to_string(),
            format!(
                "{:.1}%",
                run.report.total_served() as f64 / served_static * 100.0
            ),
            format!("{:.4}", run.report.service_ratio()),
            run.repaired_total.to_string(),
            run.lost.to_string(),
        ]);
    };
    push("static population", &statik);
    push("churn + repair", &repaired);
    push("churn, no repair", &unrepaired);
    println!("{}", table.to_markdown());
    println!(
        "(n = {}, catalog {} of ⌊d·n/k⌋ = {}, repair budget {budget}/round, {rounds} rounds)",
        sys.n(),
        sys.m(),
        4 * sys.n() / 3
    );

    let repair_frac = repaired.report.total_served() as f64 / served_static;
    let norepair_frac = unrepaired.report.total_served() as f64 / served_static;
    if repair_frac < 0.95 {
        eprintln!(
            "FAIL: churn + repair served only {:.1}% of the static baseline (need ≥ 95%)",
            repair_frac * 100.0
        );
        failed = true;
    }
    if norepair_frac >= repair_frac {
        eprintln!(
            "FAIL: disabling repair did not degrade service ({:.1}% vs {:.1}%)",
            norepair_frac * 100.0,
            repair_frac * 100.0
        );
        failed = true;
    }

    // ---- Part 2: pipeline equivalence under churn (the CI gate) ----
    let gate_rounds = scale.pick(40u64, 80);
    let reference = pipeline_trace(&sys, gate_rounds, budget, |config| {
        Simulator::new(&sys, config)
    });
    let naive = pipeline_trace(&sys, gate_rounds, budget, |config| {
        Simulator::with_scheduler(&sys, config, Box::new(NaiveScheduler::new()))
    });
    if naive != reference {
        let round = reference
            .iter()
            .zip(&naive)
            .position(|(a, b)| a != b)
            .unwrap_or(reference.len().min(naive.len()));
        eprintln!(
            "DIVERGENCE [naive] under churn at round {round}: {:?} vs reference {:?}",
            naive.get(round),
            reference.get(round)
        );
        std::process::exit(1);
    }
    let gate_repaired: u64 = reference.iter().map(|(_, _, r)| r.repaired as u64).sum();
    println!(
        "equivalence: incremental and naive pipelines agree on served, unserved, and repair stats across {gate_rounds} churned rounds ({gate_repaired} repairs) ✓\n"
    );

    if failed {
        eprintln!("\nexp_churn: FAILED");
        std::process::exit(1);
    }
    println!("\nexp_churn: resilience and equivalence checks passed");
}
