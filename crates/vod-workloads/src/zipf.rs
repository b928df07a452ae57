//! Zipf-popularity demand generator.
//!
//! Video-on-Demand popularity is classically long-tailed; a Zipf law with
//! exponent around 0.8–1.2 is the standard synthetic stand-in for real
//! catalog popularity traces (which the paper does not use — its results are
//! adversarial — but which the experiments use to show typical-case headroom
//! above the worst-case bound).

use crate::demand::{DemandGenerator, OccupancyView, SwarmGrowthLimiter, VideoDemand};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use vod_core::{BoxId, VideoId};

/// A discrete Zipf sampler over `0..n` with exponent `s`
/// (`P(i) ∝ 1/(i+1)^s`), implemented by inversion on the cumulative table.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` items with exponent `s ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(s.is_finite() && s >= 0.0, "exponent must be finite and ≥ 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfSampler { cumulative }
    }

    /// Number of items in the support.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the support is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Samples one index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let x: f64 = rng.gen();
        // Binary search for the first cumulative value ≥ x.
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).expect("no NaN in cumulative table"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }

    /// Probability mass of item `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cumulative[0]
        } else {
            self.cumulative[i] - self.cumulative[i - 1]
        }
    }
}

/// Demand generator where each round a fixed number of free boxes request a
/// Zipf-distributed video.
#[derive(Clone, Debug)]
pub struct ZipfDemand {
    sampler: ZipfSampler,
    /// New demands attempted per round.
    arrivals_per_round: usize,
    limiter: SwarmGrowthLimiter,
    rng: StdRng,
    /// The round's free boxes, kept across rounds so a round allocates
    /// nothing proportional to the fleet.
    free: Vec<BoxId>,
}

impl ZipfDemand {
    /// Creates a generator over a catalog of `catalog_size` videos.
    pub fn new(
        catalog_size: usize,
        exponent: f64,
        arrivals_per_round: usize,
        mu: f64,
        seed: u64,
    ) -> Self {
        ZipfDemand {
            sampler: ZipfSampler::new(catalog_size, exponent),
            arrivals_per_round,
            limiter: SwarmGrowthLimiter::new(catalog_size, mu),
            rng: StdRng::seed_from_u64(seed),
            free: Vec::new(),
        }
    }
}

impl DemandGenerator for ZipfDemand {
    fn demands_at(&mut self, round: u64, occupancy: &dyn OccupancyView) -> Vec<VideoDemand> {
        self.limiter.advance_to(round);
        occupancy.free_boxes_into(&mut self.free);
        self.free.shuffle(&mut self.rng);
        let mut demands = Vec::new();
        for &b in self.free.iter().take(self.arrivals_per_round) {
            // Draw until a video with swarm headroom is found (bounded tries
            // so a fully saturated round terminates).
            for _ in 0..8 {
                let video = VideoId(self.sampler.sample(&mut self.rng) as u32);
                if self.limiter.admit(video, 1) == 1 {
                    demands.push(VideoDemand::new(b, video, round));
                    break;
                }
            }
        }
        demands
    }

    fn name(&self) -> &'static str {
        "zipf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one_and_is_decreasing() {
        let z = ZipfSampler::new(20, 1.0);
        let total: f64 = (0..20).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for i in 1..20 {
            assert!(z.pmf(i) <= z.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn sampling_matches_pmf_roughly() {
        let z = ZipfSampler::new(5, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = [0usize; 5];
        let draws = 50_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng)] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let expected = z.pmf(i) * draws as f64;
            let observed = count as f64;
            assert!(
                (observed - expected).abs() < 5.0 * expected.sqrt() + 50.0,
                "item {i}: expected ≈ {expected}, observed {observed}"
            );
        }
    }

    #[test]
    fn generator_respects_arrival_budget_and_occupancy() {
        let mut gen = ZipfDemand::new(50, 0.9, 4, 2.0, 7);
        let free = vec![true; 10];
        let d = gen.demands_at(0, &free);
        assert!(d.len() <= 4);
        let busy = vec![false; 10];
        assert!(gen.demands_at(1, &busy).is_empty());
    }

    #[test]
    fn one_demand_per_box_per_round() {
        let mut gen = ZipfDemand::new(50, 0.9, 10, 2.0, 8);
        let free = vec![true; 10];
        let d = gen.demands_at(0, &free);
        let mut ids: Vec<_> = d.iter().map(|x| x.box_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), d.len());
    }

    #[test]
    #[should_panic(expected = "support must be non-empty")]
    fn empty_support_panics() {
        ZipfSampler::new(0, 1.0);
    }
}
