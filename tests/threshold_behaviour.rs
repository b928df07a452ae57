//! End-to-end checks of the paper's headline claims: the upload threshold at
//! `u = 1`, catalog scalability above it, and the constant-catalog regime
//! below it.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[allow(clippy::too_many_arguments)]
fn homogeneous(
    n: usize,
    u: f64,
    d: u32,
    c: u16,
    k: u32,
    mu: f64,
    t: u32,
    seed: u64,
) -> VideoSystem {
    let params = SystemParams::new(n, u, d, c, k, mu, t);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(k), &mut rng).unwrap()
}

/// Below the threshold, the never-owned adversary defeats any allocation
/// whose catalog exceeds `d·c` videos (Section 1.3).
#[test]
fn below_threshold_large_catalog_is_defeated() {
    for &u in &[0.6, 0.8, 0.95] {
        let sys = homogeneous(24, u, 8, 4, 1, 1.3, 30, 1);
        assert!(sys.m() > 8 * 4, "catalog must exceed d·c for the argument");
        let mut attack = NeverOwnedAttack::new(sys.placement(), sys.catalog(), 1.3);
        let report = Simulator::new(&sys, SimConfig::new(40)).run(&mut attack);
        assert!(
            !report.all_rounds_feasible(),
            "u = {u} should be defeated by the never-owned adversary"
        );
        // The obstruction witness is a genuine Hall violator, and by
        // König–Egerváry duality its deficiency is exactly the number of
        // requests the (maximum) matching left unserved.
        for f in &report.failures {
            let size = f.obstruction_size.unwrap() as u64;
            let capacity = f.obstruction_capacity.unwrap();
            assert!(capacity < size, "u = {u}, round {}", f.round);
            assert_eq!(
                size - capacity,
                f.unserved as u64,
                "u = {u}, round {}",
                f.round
            );
        }
    }
}

/// Below the threshold, shrinking the catalog to `d·c` (full replication
/// possible) removes the adversary's leverage entirely.
#[test]
fn below_threshold_constant_catalog_survives() {
    let params = SystemParams::new(24, 0.8, 8, 4, 1, 1.3, 30);
    let mut rng = StdRng::seed_from_u64(5);
    let sys = VideoSystem::homogeneous_with_catalog(
        params,
        32, // = d·c
        &FullReplicationAllocator::new(),
        &mut rng,
    )
    .unwrap();
    let mut attack = NeverOwnedAttack::new(sys.placement(), sys.catalog(), 1.3);
    assert!(attack.is_toothless());
    let report = Simulator::new(&sys, SimConfig::new(40)).run(&mut attack);
    assert!(report.all_rounds_feasible());
    assert_eq!(report.total_demands, 0); // the adversary has nothing to request
}

/// Above the threshold, a random permutation allocation with modest
/// replication serves full-occupancy continuous viewing and maximal-growth
/// flash crowds on a linear-size catalog.
#[test]
fn above_threshold_linear_catalog_serves_adversarial_demand() {
    for &(n, seed) in &[(24usize, 2u64), (48, 3), (96, 4)] {
        let sys = homogeneous(n, 2.0, 8, 4, 4, 1.3, 30, seed);
        // Catalog grows linearly with n at fixed d and k.
        assert_eq!(sys.m(), 8 * n / 4);

        let mut seq = SequentialViewing::new(n, sys.m(), NextVideoPolicy::RoundRobin, 1.3, seed);
        let report = Simulator::new(&sys, SimConfig::new(70)).run(&mut seq);
        assert!(
            report.all_rounds_feasible(),
            "n = {n}: sequential viewing failed: {:?}",
            report.failures.first()
        );

        let mut crowd = FlashCrowd::single(VideoId(0), n, sys.m(), 1.3, seed);
        let report = Simulator::new(&sys, SimConfig::new(70)).run(&mut crowd);
        assert!(
            report.all_rounds_feasible(),
            "n = {n}: flash crowd failed: {:?}",
            report.failures.first()
        );
    }
}

/// Feasibility under the flash-crowd adversary is monotone in the upload
/// capacity: once a capacity works, any larger capacity works too (checked on
/// a ladder of capacities with shared seeds).
#[test]
fn feasibility_is_monotone_in_upload() {
    let mut last_feasible = false;
    for &u in &[0.7, 1.0, 1.3, 1.8, 2.5] {
        let sys = homogeneous(20, u, 8, 4, 2, 1.3, 24, 9);
        let mut crowd = FlashCrowd::single(VideoId(0), 20, sys.m(), 1.3, 9);
        let report = Simulator::new(&sys, SimConfig::new(40)).run(&mut crowd);
        let feasible = report.all_rounds_feasible();
        assert!(
            feasible || !last_feasible,
            "feasibility regressed when increasing u to {u}"
        );
        last_feasible = feasible;
    }
    assert!(last_feasible, "the largest capacity must be feasible");
}

/// The Monte-Carlo threshold search brackets the transition between the
/// starved and the generous regime.
#[test]
fn empirical_threshold_search_brackets_transition() {
    let spec = TrialSpec {
        n: 16,
        u: 1.0,
        d: 8,
        c: 4,
        k: 2,
        mu: 1.3,
        duration: 16,
        rounds: 24,
        catalog: None,
    };
    let config = SearchConfig {
        trials_per_point: 2,
        max_failure_rate: 0.0,
        base_seed: 77,
        threads: 2,
    };
    let (threshold, probes) =
        find_upload_threshold(&spec, WorkloadKind::Sequential, 0.4, 3.0, 0.4, &config);
    assert!(threshold > 0.4 && threshold <= 3.0, "threshold {threshold}");
    assert!(probes.len() >= 3);
}

/// Theorem 1's analytic catalog bound is consistent with what the simulator
/// sustains: the simulated system with catalog `d·n/k` (far above the bound)
/// still serves adversarial demand, and the bound itself is positive and
/// linear in `n`.
#[test]
fn analytic_bound_is_positive_linear_and_conservative() {
    let (u, d, mu) = (2.0, 8.0, 1.3);
    let b1 = vod_analysis::theorem1::catalog_bound(100, u, d, mu);
    let b2 = vod_analysis::theorem1::catalog_bound(200, u, d, mu);
    assert!(b1 > 0.0);
    assert!((b2 / b1 - 2.0).abs() < 1e-9);

    let sys = homogeneous(48, u, 8, 4, 4, mu, 30, 21);
    assert!(
        (sys.m() as f64) > vod_analysis::theorem1::catalog_bound(48, u, d, mu),
        "the deployed catalog should exceed the conservative analytic bound"
    );
}
