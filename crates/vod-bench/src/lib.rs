//! # vod-bench
//!
//! Experiment harness. [`paper`] holds the paper's eight checkable claims,
//! one function each, with one test per claim at quick scale; the
//! `exp_paper` binary runs them all, prints their tables and a verdict per
//! claim, and exits non-zero if an asserted direction fails. `exp_verify`
//! model-checks small systems exhaustively and exits non-zero on a
//! divergence. `exp_profile` prints the engine tracer's stage tables and
//! the matcher's work counters for five workloads; its gates (traced runs
//! equal untraced ones, spans recorded, bounded search work) are a test in
//! the same file. Apart from `exp_profile`'s stage timings, the output is
//! counts: served sets, failure rates, thresholds. Other timings come from
//! the paired `benchmark/` runs of `tools/pair`.
//!
//! Every binary honours the `EXP_SCALE` environment variable:
//! `EXP_SCALE=quick` (default) runs laptop-scale parameter grids in seconds;
//! `EXP_SCALE=full` enlarges systems and trial counts for smoother curves.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod paper;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vod_analysis::{SearchConfig, TrialSpec};
use vod_core::{RandomPermutationAllocator, SystemParams, VideoSystem};

/// Experiment scale selected through the `EXP_SCALE` environment variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small grids, a handful of Monte-Carlo trials (seconds per experiment).
    Quick,
    /// Larger systems and trial counts (minutes per experiment).
    Full,
}

impl Scale {
    /// Reads the scale from the environment (`quick` unless `EXP_SCALE=full`).
    pub fn from_env() -> Self {
        match std::env::var("EXP_SCALE").as_deref() {
            Ok("full") | Ok("FULL") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Picks between the quick and full value of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The default homogeneous trial spec the experiments perturb.
pub fn base_spec(scale: Scale) -> TrialSpec {
    TrialSpec {
        n: scale.pick(32, 96),
        u: 2.0,
        d: 8,
        c: 4,
        k: 4,
        mu: 1.3,
        duration: scale.pick(24, 40),
        rounds: scale.pick(40, 80),
        catalog: None,
    }
}

/// The default Monte-Carlo search configuration.
pub fn search_config(scale: Scale) -> SearchConfig {
    SearchConfig {
        trials_per_point: scale.pick(3, 10),
        max_failure_rate: 0.0,
        base_seed: 0x2009,
        threads: worker_threads(),
    }
}

/// Number of Monte-Carlo worker threads (respects available parallelism).
pub fn worker_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(8)
}

/// Builds a homogeneous system matching a trial spec (fresh seeded RNG).
pub fn build_system(spec: &TrialSpec, seed: u64) -> VideoSystem {
    let params = SystemParams::new(
        spec.n,
        spec.u,
        spec.d,
        spec.c,
        spec.k,
        spec.mu,
        spec.duration,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous_with_catalog(
        params,
        spec.catalog_size(),
        &RandomPermutationAllocator::new(spec.k),
        &mut rng,
    )
    .expect("experiment spec must be allocatable")
}

/// The standard experiment header (name, claim, scale).
pub fn header(experiment: &str, claim: &str, scale: Scale) -> String {
    format!(
        "# {experiment}\npaper claim: {claim}\nscale: {scale:?} (set EXP_SCALE=full for larger grids)\n"
    )
}

/// Prints the standard experiment header (name, claim, scale).
pub fn print_header(experiment: &str, claim: &str, scale: Scale) {
    println!("{}", header(experiment, claim, scale));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick_selects_value() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn base_spec_is_allocatable() {
        let spec = base_spec(Scale::Quick);
        let system = build_system(&spec, 1);
        assert_eq!(system.n(), spec.n);
        assert_eq!(system.m(), spec.catalog_size());
    }

    #[test]
    fn worker_threads_positive_and_bounded() {
        let t = worker_threads();
        assert!((1..=8).contains(&t));
    }
}
