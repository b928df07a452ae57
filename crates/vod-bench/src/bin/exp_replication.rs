//! E3 — Replication requirement and the first-moment obstruction bound.
//!
//! Sweeps the per-stripe replication k and reports (a) the analytic
//! first-moment bound on the probability that a random allocation admits an
//! obstruction (Lemma 4 / Equation 1) and (b) the Monte-Carlo failure rate of
//! actual simulations. The bound decays with k; the measured rate sits below
//! it (the bound is conservative), reproducing the k = O(ν⁻¹·log d′) shape.

use vod_analysis::{
    estimate_failure_probability, first_moment_bound, fmt_prob, theorem1, BoundParams, Table,
    TrialSpec, WorkloadKind,
};
use vod_bench::{base_spec, print_header, search_config, Scale};

fn main() {
    let scale = Scale::from_env();
    print_header(
        "E3 exp_replication — replicas per stripe vs obstruction probability",
        "k ≥ 5ν⁻¹ log d′/log u′ makes P(obstruction) vanish (Thm 1, Lemma 4, Eq. 1)",
        scale,
    );
    let spec = TrialSpec {
        u: 1.5,
        c: 8,
        ..base_spec(scale)
    };
    let config = search_config(scale);

    let prescribed = match theorem1::min_replication(spec.u, spec.d as f64, spec.c, spec.mu) {
        Some(k) => format!("k ≥ {k}"),
        None => {
            "no finite k (outside the theorem's hypotheses: u ≤ 1, ν ≤ 0 or u′ ≤ 1)".to_string()
        }
    };
    println!(
        "Theorem 1 prescription for (u = {}, d = {}, c = {}, µ = {}): {prescribed}\n",
        spec.u, spec.d, spec.c, spec.mu
    );

    let mut table = Table::new(
        "Replication sweep",
        &[
            "k",
            "catalog m = dn/k",
            "analytic first-moment bound",
            "MC fail rate (flash crowd)",
            "MC fail rate (sequential)",
        ],
    );
    for &k in &[1u32, 2, 3, 4, 6, 8, 12, 16] {
        let point = TrialSpec { k, ..spec };
        let m = point.catalog_size();
        let bound = first_moment_bound(&BoundParams {
            n: point.n,
            m,
            c: point.c,
            k,
            u: point.u,
            mu: point.mu,
        });
        let flash = estimate_failure_probability(
            &point,
            WorkloadKind::FlashCrowd,
            config.trials_per_point,
            config.base_seed,
            config.threads,
        );
        let seq = estimate_failure_probability(
            &point,
            WorkloadKind::Sequential,
            config.trials_per_point,
            config.base_seed + 500,
            config.threads,
        );
        table.push_row(vec![
            k.to_string(),
            m.to_string(),
            fmt_prob(bound),
            format!("{:.2}", flash.failure_rate),
            format!("{:.2}", seq.failure_rate),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "(n = {}, u = {}, d = {}, c = {}, µ = {}; bound of 1 means vacuous)",
        spec.n, spec.u, spec.d, spec.c, spec.mu
    );
}
