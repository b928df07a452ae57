//! Empirical threshold and capacity searches.
//!
//! These routines locate, by bisection over Monte-Carlo feasibility
//! estimates, the empirical counterparts of the paper's analytical
//! quantities: the upload threshold above which adversarial demand sequences
//! become servable, and the largest catalog a given configuration sustains.

use crate::montecarlo::{estimate_failure_probability, TrialSpec, WorkloadKind};

/// Configuration of a bisection search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SearchConfig {
    /// Monte-Carlo trials per probed point.
    pub trials_per_point: usize,
    /// A point is "feasible" when its failure rate is at most this value.
    pub max_failure_rate: f64,
    /// Base RNG seed.
    pub base_seed: u64,
    /// Worker threads for the Monte-Carlo estimates.
    pub threads: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            trials_per_point: 8,
            max_failure_rate: 0.0,
            base_seed: 0xC0FFEE,
            threads: 4,
        }
    }
}

/// Result of probing one parameter point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeResult {
    /// The probed upload `u` (or other swept value, depending on the search).
    pub value: f64,
    /// Observed failure rate.
    pub failure_rate: f64,
    /// Whether the point counts as feasible under the search config.
    pub feasible: bool,
}

/// Probes whether a single upload value is feasible for the workload.
pub fn probe_upload(
    spec_template: &TrialSpec,
    u: f64,
    workload: WorkloadKind,
    config: &SearchConfig,
) -> ProbeResult {
    let spec = TrialSpec {
        u,
        ..*spec_template
    };
    let est = estimate_failure_probability(
        &spec,
        workload,
        config.trials_per_point,
        config.base_seed,
        config.threads,
    );
    ProbeResult {
        value: u,
        failure_rate: est.failure_rate,
        feasible: est.failure_rate <= config.max_failure_rate,
    }
}

/// Bisects the upload capacity in `[u_lo, u_hi]` to the given absolute
/// `tolerance`, assuming feasibility is monotone in `u` (which the model
/// guarantees: extra upload never hurts). Returns the estimated threshold
/// together with the probe history.
pub fn find_upload_threshold(
    spec_template: &TrialSpec,
    workload: WorkloadKind,
    u_lo: f64,
    u_hi: f64,
    tolerance: f64,
    config: &SearchConfig,
) -> (f64, Vec<ProbeResult>) {
    assert!(u_lo < u_hi, "search interval must be non-empty");
    assert!(tolerance > 0.0, "tolerance must be positive");
    let mut probes = Vec::new();
    let mut lo = u_lo;
    let mut hi = u_hi;

    // If even the upper end fails, report it (threshold above the interval).
    let top = probe_upload(spec_template, hi, workload, config);
    probes.push(top);
    if !top.feasible {
        return (f64::INFINITY, probes);
    }
    // If even the lower end works, the threshold is below the interval.
    let bottom = probe_upload(spec_template, lo, workload, config);
    probes.push(bottom);
    if bottom.feasible {
        return (lo, probes);
    }

    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        let probe = probe_upload(spec_template, mid, workload, config);
        probes.push(probe);
        if probe.feasible {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    (hi, probes)
}

/// Finds the largest catalog size in `[1, m_hi]` that stays feasible.
/// Returns 0 when no catalog in the range is feasible.
///
/// Feasibility is not monotone in the catalog size: a larger catalog
/// spreads the same storage thinner, but a tiny one packs the viewers into
/// swarms too large for `c` (at `n = 96`, `u = 1.05`, sequential viewing
/// fails at `m = 1` and is served at `m = 192`). So the search anchors at a
/// feasible catalog found from the top (`m_hi`, `m_hi/2`, …) and bisects
/// between it and the infeasible probe above it.
pub fn max_feasible_catalog(
    spec_template: &TrialSpec,
    workload: WorkloadKind,
    m_hi: usize,
    config: &SearchConfig,
) -> usize {
    let feasible_at = |m: usize| -> bool {
        let spec = TrialSpec {
            catalog: Some(m),
            ..*spec_template
        };
        let est = estimate_failure_probability(
            &spec,
            workload,
            config.trials_per_point,
            config.base_seed,
            config.threads,
        );
        // Trials that error out (e.g. catalog too large for storage) count as
        // infeasible: fewer successful trials than requested.
        est.trials == config.trials_per_point && est.failure_rate <= config.max_failure_rate
    };

    let mut hi = m_hi.max(1);
    if feasible_at(hi) {
        return hi;
    }
    let mut lo = hi / 2;
    loop {
        if lo == 0 {
            return 0;
        }
        if feasible_at(lo) {
            break;
        }
        hi = lo;
        lo /= 2;
    }
    // `lo` is feasible and `hi` is not.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible_at(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrialSpec {
        TrialSpec {
            n: 16,
            u: 1.0, // overridden by the searches
            d: 8,
            c: 4,
            k: 2,
            mu: 1.3,
            duration: 16,
            rounds: 24,
            catalog: None,
        }
    }

    fn quick_config() -> SearchConfig {
        SearchConfig {
            trials_per_point: 2,
            max_failure_rate: 0.0,
            base_seed: 11,
            threads: 2,
        }
    }

    #[test]
    fn threshold_lies_between_starved_and_generous() {
        let (threshold, probes) = find_upload_threshold(
            &spec(),
            WorkloadKind::Sequential,
            0.3,
            3.0,
            0.5,
            &quick_config(),
        );
        assert!(threshold > 0.3 && threshold <= 3.0, "threshold {threshold}");
        assert!(probes.len() >= 3);
        // The reported threshold must itself be feasible-side.
        assert!(probes
            .iter()
            .any(|p| p.feasible && (p.value - threshold).abs() < 1e-9 || threshold <= p.value));
    }

    #[test]
    fn threshold_reports_infinity_when_interval_too_low() {
        let (threshold, _) = find_upload_threshold(
            &spec(),
            WorkloadKind::NeverOwned,
            0.1,
            0.3,
            0.1,
            &quick_config(),
        );
        assert!(threshold.is_infinite());
    }

    #[test]
    fn generous_interval_lower_end_short_circuits() {
        let (threshold, probes) = find_upload_threshold(
            &spec(),
            WorkloadKind::Sequential,
            2.5,
            4.0,
            0.25,
            &quick_config(),
        );
        assert_eq!(threshold, 2.5);
        assert_eq!(probes.len(), 2);
    }

    #[test]
    fn max_catalog_monotone_in_upload() {
        let low = max_feasible_catalog(
            &TrialSpec { u: 1.1, ..spec() },
            WorkloadKind::Sequential,
            8 * 16 / 2,
            &quick_config(),
        );
        let high = max_feasible_catalog(
            &TrialSpec { u: 2.5, ..spec() },
            WorkloadKind::Sequential,
            8 * 16 / 2,
            &quick_config(),
        );
        assert!(high >= low, "catalog(u=2.5)={high} < catalog(u=1.1)={low}");
        assert!(high >= 1);
    }

    /// Sequential viewing on a 96-box fleet at u = 1.05 fails at m = 1
    /// (the fleet packs into swarms too large for c = 4) and is served at
    /// the full m = 192: the search must not stop at the failing bottom.
    #[test]
    fn max_catalog_is_found_above_an_infeasible_bottom() {
        let spec = TrialSpec {
            n: 96,
            u: 1.05,
            k: 4,
            duration: 40,
            rounds: 80,
            ..spec()
        };
        let config = SearchConfig {
            trials_per_point: 10,
            base_seed: 0x2009,
            ..quick_config()
        };
        let bottom = TrialSpec {
            catalog: Some(1),
            ..spec
        };
        let est = estimate_failure_probability(&bottom, WorkloadKind::Sequential, 10, 0x2009, 2);
        assert!(est.failures > 0, "m = 1 is served: the premise moved");
        let m = max_feasible_catalog(&spec, WorkloadKind::Sequential, 192, &config);
        assert_eq!(m, 192);
    }

    #[test]
    fn max_catalog_is_zero_when_nothing_is_feasible() {
        let spec = TrialSpec { u: 0.5, ..spec() };
        let m = max_feasible_catalog(&spec, WorkloadKind::NeverOwned, 64, &quick_config());
        assert_eq!(m, 0);
    }

    #[test]
    #[should_panic(expected = "interval must be non-empty")]
    fn bad_interval_rejected() {
        find_upload_threshold(
            &spec(),
            WorkloadKind::Sequential,
            2.0,
            1.0,
            0.1,
            &quick_config(),
        );
    }
}
