//! Poisson-arrival demand generator.
//!
//! Models steady-state operation: new viewing sessions arrive as a Poisson
//! process with rate `λ` demands per round, each choosing a video from a
//! pluggable popularity distribution (uniform by default, Zipf optionally).

use crate::demand::{DemandGenerator, OccupancyView, SwarmGrowthLimiter, VideoDemand};
use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use vod_core::{BoxId, VideoId};

/// How arriving viewers pick a video.
#[derive(Clone, Debug)]
pub enum Popularity {
    /// Every video equally likely.
    Uniform,
    /// Zipf law with the given exponent.
    Zipf(f64),
}

/// Poisson-arrival generator.
#[derive(Clone, Debug)]
pub struct PoissonDemand {
    catalog_size: usize,
    lambda: f64,
    popularity: Popularity,
    zipf: Option<ZipfSampler>,
    limiter: SwarmGrowthLimiter,
    rng: StdRng,
    /// The round's free boxes, kept across rounds.
    free: Vec<BoxId>,
}

impl PoissonDemand {
    /// Creates a generator with arrival rate `lambda` demands per round over
    /// a catalog of `catalog_size` videos.
    pub fn new(
        catalog_size: usize,
        lambda: f64,
        popularity: Popularity,
        mu: f64,
        seed: u64,
    ) -> Self {
        assert!(catalog_size > 0, "catalog must be non-empty");
        assert!(lambda.is_finite() && lambda >= 0.0, "λ must be ≥ 0");
        let zipf = match &popularity {
            Popularity::Uniform => None,
            Popularity::Zipf(s) => Some(ZipfSampler::new(catalog_size, *s)),
        };
        PoissonDemand {
            catalog_size,
            lambda,
            popularity,
            zipf,
            limiter: SwarmGrowthLimiter::new(catalog_size, mu),
            rng: StdRng::seed_from_u64(seed),
            free: Vec::new(),
        }
    }

    /// Samples a Poisson(λ) variate by Knuth's multiplication method (λ is a
    /// handful of arrivals per round in these workloads, so the method's
    /// `O(λ)` cost is irrelevant).
    fn sample_poisson(&mut self) -> usize {
        if self.lambda == 0.0 {
            return 0;
        }
        let threshold = (-self.lambda).exp();
        let mut k = 0usize;
        let mut p = 1.0f64;
        loop {
            p *= self.rng.gen::<f64>();
            if p <= threshold {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // defensive cap; unreachable for sane λ
            }
        }
    }

    fn sample_video(&mut self) -> VideoId {
        let idx = match (&self.popularity, &self.zipf) {
            (Popularity::Uniform, _) => self.rng.gen_range(0..self.catalog_size),
            (Popularity::Zipf(_), Some(z)) => z.sample(&mut self.rng),
            (Popularity::Zipf(_), None) => unreachable!("zipf sampler built in constructor"),
        };
        VideoId(idx as u32)
    }
}

impl DemandGenerator for PoissonDemand {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        self.limiter.advance_to(round);
        let arrivals = self.sample_poisson();
        // Detached so `sample_video` can borrow `self` inside the loop.
        let mut free = std::mem::take(&mut self.free);
        occupancy.free_boxes_into(&mut free);
        free.shuffle(&mut self.rng);
        let mut demands = Vec::new();
        for &b in free.iter().take(arrivals) {
            for _ in 0..8 {
                let video = self.sample_video();
                if self.limiter.admit(video, 1) == 1 {
                    demands.push(VideoDemand::new(b, video, round));
                    break;
                }
            }
        }
        self.free = free;
        demands
    }

    fn name(&self) -> &'static str {
        "poisson"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_emits_nothing() {
        let mut gen = PoissonDemand::new(10, 0.0, Popularity::Uniform, 2.0, 1);
        let free = vec![true; 10];
        for round in 0..5 {
            assert!(gen.demands_at(round, &free).is_empty());
        }
    }

    #[test]
    fn mean_arrivals_close_to_lambda() {
        let mut gen = PoissonDemand::new(1000, 3.0, Popularity::Uniform, 10.0, 2);
        let free = vec![true; 10_000];
        let rounds = 2_000u64;
        let mut total = 0usize;
        for round in 0..rounds {
            total += gen.demands_at(round, &free).len();
        }
        let mean = total as f64 / rounds as f64;
        assert!((mean - 3.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn arrivals_limited_by_free_boxes() {
        let mut gen = PoissonDemand::new(10, 50.0, Popularity::Uniform, 10.0, 3);
        let free = vec![true, true, false, false];
        let d = gen.demands_at(0, &free);
        assert!(d.len() <= 2);
    }

    #[test]
    fn zipf_popularity_prefers_head_videos() {
        let mut gen = PoissonDemand::new(100, 5.0, Popularity::Zipf(1.2), 10.0, 4);
        let free = vec![true; 1000];
        let mut head = 0usize;
        let mut total = 0usize;
        for round in 0..400 {
            for d in gen.demands_at(round, &free) {
                total += 1;
                if d.video.0 < 10 {
                    head += 1;
                }
            }
        }
        assert!(total > 0);
        // With s = 1.2 over 100 items, the top 10 carry well over a third of
        // the mass.
        assert!(head as f64 > total as f64 * 0.35, "head {head} / {total}");
    }

    #[test]
    #[should_panic(expected = "catalog must be non-empty")]
    fn empty_catalog_rejected() {
        PoissonDemand::new(0, 1.0, Popularity::Uniform, 2.0, 0);
    }
}
