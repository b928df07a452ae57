//! The centralized "equality ignores wall-clock" rule.
//!
//! Several metric types carry both *structural* fields (counts, sizes,
//! verdicts — deterministic given the seed) and *wall-clock* fields
//! (nanosecond timings — different on every run). Every bit-equality gate
//! in the repo (corpus replay, the differential fuzz
//! pipelines, the exp binaries' traced-vs-untraced checks) must compare
//! only the structural part. Before this trait each such type hand-rolled
//! its own `PartialEq`; implementing [`TimingNeutral`] instead routes them
//! all through one rule.

/// A type whose equality must ignore wall-clock measurements.
///
/// Implementors project their deterministic fields into
/// [`TimingNeutral::Structural`]; [`eq_ignoring_timing`] compares those
/// projections, and the type's own `PartialEq` should delegate to it.
/// [`TimingNeutral::scrub`] zeroes the wall-clock fields in place, for
/// normalization passes that byte-compare serialized reports.
pub trait TimingNeutral {
    /// The projection of the deterministic (non-timing) fields.
    type Structural: PartialEq;

    /// Extracts the deterministic fields.
    fn structural(&self) -> Self::Structural;

    /// Zeroes every wall-clock field in place, leaving structure intact.
    fn scrub(&mut self);
}

/// Compares two values by their structural projections, ignoring every
/// wall-clock field. This is the single equality rule all timing-carrying
/// metric types delegate their `PartialEq` to.
pub fn eq_ignoring_timing<T: TimingNeutral>(a: &T, b: &T) -> bool {
    a.structural() == b.structural()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Timed {
        served: usize,
        ns: u64,
    }

    impl TimingNeutral for Timed {
        type Structural = usize;
        fn structural(&self) -> usize {
            self.served
        }
        fn scrub(&mut self) {
            self.ns = 0;
        }
    }

    #[test]
    fn timing_only_difference_is_equal() {
        let a = Timed { served: 5, ns: 10 };
        let b = Timed { served: 5, ns: 99 };
        assert!(eq_ignoring_timing(&a, &b));
    }

    #[test]
    fn structural_difference_is_unequal() {
        let a = Timed { served: 5, ns: 10 };
        let b = Timed { served: 6, ns: 10 };
        assert!(!eq_ignoring_timing(&a, &b));
    }

    #[test]
    fn scrub_zeroes_only_timing() {
        let mut a = Timed { served: 5, ns: 10 };
        a.scrub();
        assert_eq!(a.served, 5);
        assert_eq!(a.ns, 0);
    }
}
