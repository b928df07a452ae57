//! E15 — Bounded exhaustive model-checking of the Theorem 1 threshold,
//! plus a differential fuzz gate over every engine fast path.
//!
//! Every other experiment samples demand sequences; this one enumerates
//! them. On small systems (n ≤ 6, horizon ≤ 8) the explorer walks **all**
//! µ-admissible demand sequences, canonicalizing states by sorted-signature
//! hashing so converging histories are explored once, and checks Lemma-1
//! feasibility — an actual max-flow — at every round of every branch:
//!
//! * **at-threshold**: a configuration satisfying Theorem 1's
//!   `c > (2µ²−1)/(u−1)` is verified exhaustively — every admissible
//!   sequence is served, and every explored transition is stepped through
//!   the engine under the incremental matcher and under the textbook
//!   `NaiveScheduler`, with bit-equality of the normalized round metrics
//!   asserted;
//! * **below-threshold**: a starved configuration must fail, and the first
//!   failing sequence is shrunk to a locally minimal counterexample that is
//!   printed and re-verified by replay;
//! * **heterogeneous**: a relayed (u*-compensated) population runs the same
//!   differential exploration, exercising the relay broker on every branch;
//! * **first-moment**: the analytic obstruction bound is cross-checked
//!   against exhaustively decided failure fractions over random
//!   allocations — the bound must upper-bound the truth.
//!
//! The run exits non-zero if any exhaustive claim, counterexample claim, or
//! differential comparison fails. Divergences are dumped as replayable
//! seed files next to the working directory.

use std::time::Instant;
use vod_analysis::{
    crosscheck_first_moment, explore, is_admissible, replay_fails, shrink_counterexample,
    ExploreOutcome, ExploreSpec, HeteroSpec, SeedSystem, Table,
};
use vod_bench::{print_header, Scale};
use vod_workloads::DemandTrace;

/// A configuration satisfying Theorem 1 (`c > (2µ²−1)/(u−1)`): u = 3,
/// µ = 1.1, c = 2 gives threshold 0.71 < 2, with k = 3 of n replicas per
/// stripe. Quick exhausts 237 871 canonical states (n = 4, horizon 6),
/// full 388 396 (n = 5, horizon 5) — both past the 10⁵ acceptance floor.
fn at_threshold(scale: Scale) -> (SeedSystem, u64) {
    let seed = SeedSystem {
        n: scale.pick(4, 5),
        u: 3.0,
        d: 2,
        c: 2,
        k: 3,
        mu: 1.1,
        duration: 4,
        catalog: 2,
        alloc_seed: 7,
        hetero: None,
    };
    (seed, scale.pick(6, 5))
}

/// A configuration far below the threshold: u = 1.2, µ = 1.5 wants
/// c > (2µ²−1)/(u−1) = 17.5, and c = 2 with k = 1 is nowhere close.
fn below_threshold() -> (SeedSystem, u64) {
    let seed = SeedSystem {
        n: 4,
        u: 1.2,
        d: 2,
        c: 2,
        k: 1,
        mu: 1.5,
        duration: 4,
        catalog: 2,
        alloc_seed: 3,
        hetero: None,
    };
    (seed, 6)
}

/// A u*-compensated heterogeneous population: poor (0.6-stream) boxes
/// covered by rich (2.6-stream) relays, so every explored branch drives
/// the relay broker and the relayed request plans. Exhausts 276 065
/// canonical states at horizon 4 (quick), 1 128 636 at horizon 5 (full).
fn heterogeneous(scale: Scale) -> (SeedSystem, u64) {
    let seed = SeedSystem {
        n: 6,
        u: 1.6,
        d: 8,
        c: 4,
        k: 3,
        mu: 1.1,
        duration: 6,
        catalog: 2,
        alloc_seed: 11,
        hetero: Some(HeteroSpec {
            uploads: vec![0.6, 0.6, 0.6, 2.6, 2.6, 2.6],
            storage_per_upload: 6.0,
            u_star: 1.2,
        }),
    };
    (seed, scale.pick(4, 5))
}

fn fmt_counterexample(trace: &DemandTrace) -> String {
    let mut lines = Vec::new();
    for demand in trace.iter() {
        lines.push(format!(
            "    round {}: box {} demands video {}",
            demand.round, demand.box_id.0, demand.video.0
        ));
    }
    lines.join("\n")
}

struct Run {
    label: &'static str,
    outcome: ExploreOutcome,
    elapsed_ms: f64,
}

fn run_explore(label: &'static str, spec: &ExploreSpec) -> Run {
    let start = Instant::now();
    let outcome = explore(spec);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    Run {
        label,
        outcome,
        elapsed_ms,
    }
}

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E15 exp_verify — bounded exhaustive model checking",
        "above the Theorem 1 threshold every µ-admissible demand sequence is served, and every fast path computes the same schedule on every branch",
        scale,
    );

    let mut failed = false;
    let mut table = Table::new(
        "Bounded exhaustive exploration",
        &[
            "scenario",
            "states",
            "transpositions",
            "dedupe",
            "edges",
            "failures",
            "divergences",
            "ms",
            "verdict",
        ],
    );
    let mut runs: Vec<(Run, bool)> = Vec::new();

    // ---- at-threshold: exhaustive universal verification + fuzz gate ----
    let (seed, horizon) = at_threshold(scale);
    let run = run_explore("at-threshold", &ExploreSpec::new(seed, horizon));
    let min_states = scale.pick(100_000, 100_000);
    let ok = run.outcome.verified() && run.outcome.canonical_states >= min_states;
    if !ok {
        eprintln!(
            "FAIL: at-threshold — verified={} states={} (need ≥ {min_states})",
            run.outcome.verified(),
            run.outcome.canonical_states
        );
        failed = true;
    }
    runs.push((run, ok));

    // ---- below-threshold: a minimal counterexample must exist ----
    let (seed, horizon) = below_threshold();
    let spec = ExploreSpec {
        differential: false,
        stop_on_failure: true,
        ..ExploreSpec::new(seed.clone(), horizon)
    };
    let run = run_explore("below-threshold", &spec);
    let mut ok = run.outcome.failures > 0;
    match &run.outcome.counterexample {
        None => {
            eprintln!("FAIL: below-threshold — no admissible sequence failed");
            failed = true;
            ok = false;
        }
        Some(raw) => {
            let minimal = shrink_counterexample(&seed, raw, horizon);
            let admissible = is_admissible(&minimal, seed.n, seed.duration as u64, seed.mu);
            let fails = replay_fails(&seed, &minimal, horizon);
            println!(
                "\nminimal counterexample ({} demand(s), shrunk from {}; u = {}, c = {}, k = {}, µ = {}):",
                minimal.len(),
                raw.len(),
                seed.u,
                seed.c,
                seed.k,
                seed.mu
            );
            println!("{}", fmt_counterexample(&minimal));
            if !admissible || !fails {
                eprintln!(
                    "FAIL: below-threshold — shrunk counterexample invalid (admissible={admissible}, fails={fails})"
                );
                failed = true;
                ok = false;
            }
        }
    }
    runs.push((run, ok));

    // ---- heterogeneous: the relay machinery joins the fuzz gate ----
    let (seed, horizon) = heterogeneous(scale);
    let mut spec = ExploreSpec::new(seed, horizon);
    spec.stop_on_failure = false;
    let run = run_explore("heterogeneous", &spec);
    let ok = run.outcome.verified();
    if !ok {
        eprintln!(
            "FAIL: heterogeneous — verified={} (failures={}, divergences={})",
            run.outcome.verified(),
            run.outcome.failures,
            run.outcome.divergences.len()
        );
        failed = true;
    }
    runs.push((run, ok));

    // ---- at-threshold + churn: membership changes join the fuzz gate ----
    // Every path may lose (and regain) one of the first two boxes; repair
    // re-replicates the departed holders' stripes within a 2-slot budget.
    // k = 3 of 4 tolerates one departure, so the Theorem 1 guarantee must
    // survive every interleaving of churn and admissible demands — and all
    // five pipelines must still agree bit-for-bit on the churned branches.
    let (seed, _) = at_threshold(Scale::Quick);
    let spec = ExploreSpec::new(seed, scale.pick(4, 5))
        .with_churn(scale.pick(1, 2), 2)
        .with_repair(2);
    let run = run_explore("at-threshold-churn", &spec);
    let ok = run.outcome.verified();
    if !ok {
        eprintln!(
            "FAIL: at-threshold-churn — verified={} (failures={}, divergences={})",
            run.outcome.verified(),
            run.outcome.failures,
            run.outcome.divergences.len()
        );
        failed = true;
    }
    runs.push((run, ok));

    // ---- dump any divergence as a replayable seed file ----
    for (run, _) in &runs {
        for (i, divergence) in run.outcome.divergences.iter().enumerate() {
            let path = std::path::PathBuf::from(format!("divergence_{}_{i}.json", run.label));
            match divergence.save(&path) {
                Ok(()) => eprintln!("  divergence seed written to {}", path.display()),
                Err(e) => eprintln!("  could not write divergence seed: {e}"),
            }
        }
    }

    for (run, ok) in &runs {
        table.push_row(vec![
            run.label.to_string(),
            run.outcome.canonical_states.to_string(),
            run.outcome.transpositions.to_string(),
            format!("{:.1}%", run.outcome.dedupe_rate() * 100.0),
            run.outcome.edges.to_string(),
            run.outcome.failures.to_string(),
            run.outcome.divergences.len().to_string(),
            format!("{:.0}", run.elapsed_ms),
            if *ok { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    println!("{}", table.to_markdown());

    // ---- first-moment bound vs exhaustive ground truth ----
    let seeds: Vec<u64> = (0..scale.pick(6u64, 16)).collect();
    let mut bound_table = Table::new(
        "First-moment bound vs exhaustive failure fraction",
        &[
            "base",
            "allocations",
            "failing",
            "empirical",
            "bound",
            "consistent",
        ],
    );
    let starved = below_threshold().0;
    let provisioned = at_threshold(scale).0;
    for (label, base, horizon) in [
        ("starved", &starved, scale.pick(3u64, 4)),
        ("provisioned", &provisioned, 3),
    ] {
        let check = crosscheck_first_moment(base, horizon, &seeds);
        bound_table.push_row(vec![
            label.to_string(),
            check.trials.to_string(),
            check.failing.to_string(),
            format!("{:.3}", check.empirical),
            format!("{:.3}", check.bound),
            check.consistent().to_string(),
        ]);
        if !check.consistent() {
            eprintln!(
                "FAIL: first-moment ({label}) bound {} below exhaustive failure fraction {}",
                check.bound, check.empirical
            );
            failed = true;
        }
    }
    println!("{}", bound_table.to_markdown());

    if failed {
        eprintln!("\nexp_verify: FAILED");
        std::process::exit(1);
    }
    println!("\nexp_verify: all exhaustive checks passed");
}
