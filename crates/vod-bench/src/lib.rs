//! # vod-bench
//!
//! Experiment harness. [`paper`] holds the paper's eight checkable claims,
//! one function each, with one test per claim at quick scale; the
//! `exp_paper` binary runs them all, prints their tables and a verdict per
//! claim, and exits non-zero if an asserted direction fails. The other
//! `exp_*` binaries are the engine's gates (`exp_solvers`, `exp_churn`,
//! `exp_faults`, `exp_profile`, `exp_verify`). All print markdown tables of
//! counts: served sets, failure rates, thresholds. None of them reads a
//! clock. Timings come from the engine's tracer (`exp_profile` prints its
//! stage table) and from the paired `benchmark/` runs of `tools/pair`.
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

/// A pre-generated sequence of keyed scheduling rounds (`exp_solvers`'
/// instances).
pub struct RoundScript {
    /// Per-box upload capacities.
    pub caps: Vec<u32>,
    /// One entry per round: stable request keys and candidate sets.
    pub rounds: Vec<(Vec<vod_sim::RequestKey>, Vec<Vec<vod_core::BoxId>>)>,
}

/// Generates a seeded multi-swarm churn script directly at the scheduler
/// interface: `swarms` concurrently hot videos, per-round viewer churn
/// (arrivals and departures), `c` requests per viewer, candidates drawn
/// from per-video holder sets plus occasional cross-swarm caches.
///
/// Many medium swarms coupled through shared boxes, without running the
/// full simulator.
pub fn multi_swarm_script(
    boxes: usize,
    swarms: usize,
    viewers: usize,
    c: u16,
    rounds: usize,
    seed: u64,
) -> RoundScript {
    use rand::Rng;
    use vod_core::{BoxId, StripeId, VideoId};
    use vod_sim::RequestKey;

    let mut rng = StdRng::seed_from_u64(seed);
    let caps: Vec<u32> = (0..boxes).map(|_| rng.gen_range(3u32..8)).collect();
    // Static per-video holder sets, sized so each swarm's neighbourhood
    // capacity comfortably covers its expected demand (≈70% load): the
    // paper's regime is feasible rounds, and a chronically starved script
    // would just measure the failure path.
    let per_swarm_demand = (viewers / swarms).max(1) * c as usize;
    let holder_count = (per_swarm_demand as f64 / (4.0 * 0.7)).ceil() as usize;
    let holders: Vec<Vec<BoxId>> = (0..swarms)
        .map(|_| {
            let k = holder_count.clamp(4.min(boxes), boxes);
            let mut set: Vec<BoxId> = (0..k)
                .map(|_| BoxId(rng.gen_range(0usize..boxes) as u32))
                .collect();
            set.sort();
            set.dedup();
            set
        })
        .collect();

    let mut live: Vec<(u32, u32, Vec<Vec<BoxId>>)> = Vec::new(); // (viewer, video, per-stripe cands)
    let mut next_viewer = 0u32;
    let mut script = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        // ~10% departures, arrivals refill toward the viewer target.
        live.retain(|_| !rng.gen_bool(0.1));
        while live.len() < viewers {
            let video = rng.gen_range(0usize..swarms);
            let cands: Vec<Vec<BoxId>> = (0..c)
                .map(|_| {
                    let mut list: Vec<BoxId> = holders[video]
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_bool(0.9))
                        .collect();
                    if rng.gen_bool(0.2) {
                        list.push(BoxId(rng.gen_range(0usize..boxes) as u32));
                    }
                    list.sort();
                    list.dedup();
                    list
                })
                .collect();
            live.push((next_viewer, video as u32, cands));
            next_viewer += 1;
        }
        let mut keys = Vec::new();
        let mut cands = Vec::new();
        for (viewer, video, stripe_cands) in &live {
            for (idx, list) in stripe_cands.iter().enumerate() {
                keys.push(RequestKey {
                    viewer: BoxId(*viewer),
                    stripe: StripeId::new(VideoId(*video), idx as u16),
                });
                cands.push(list.clone());
            }
        }
        script.push((keys, cands));
    }
    RoundScript {
        caps,
        rounds: script,
    }
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

    #[test]
    fn multi_swarm_script_is_deterministic() {
        let a = multi_swarm_script(32, 4, 20, 2, 5, 7);
        let b = multi_swarm_script(32, 4, 20, 2, 5, 7);
        assert_eq!(a.caps, b.caps);
        assert_eq!(a.rounds, b.rounds);
        assert!(a.rounds.iter().any(|(keys, _)| !keys.is_empty()));
    }
}
