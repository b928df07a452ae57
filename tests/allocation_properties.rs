//! Property-based tests of the allocation schemes and the core model
//! invariants they must preserve. Instances come from seeded RNG loops (the
//! environment has no proptest), so failures are reproducible from the
//! printed seed.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 48;

/// Small but non-trivial allocation scenario whose catalog is guaranteed to
/// fit: boxes, slots per box, catalog size, stripes, replication.
fn scenario(rng: &mut StdRng) -> (usize, u32, usize, u16, u32, u64) {
    let n = rng.gen_range(4usize..24);
    let c = rng.gen_range(2u16..6);
    let k = rng.gen_range(1u32..4);
    let slots = rng.gen_range(8u32..32);
    let max_m = ((n as u64 * slots as u64) / (k as u64 * c as u64)).max(1);
    let m = rng.gen_range(1u64..=max_m) as usize;
    let seed = rng.gen::<u64>();
    (n, slots, m, c, k, seed)
}

/// The permutation allocation fills boxes within capacity and places exactly
/// k·m·c replicas (counting duplicate draws as wasted slots).
#[test]
fn permutation_allocation_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (n, slots, m, c, k, seed) = scenario(&mut rng);
        let boxes = BoxSet::homogeneous(
            n,
            Bandwidth::from_streams(1.5),
            StorageSlots::from_slots(slots),
        );
        let catalog = Catalog::uniform(m, 50, c);
        let mut alloc_rng = StdRng::seed_from_u64(seed);
        let placement = RandomPermutationAllocator::new(k)
            .allocate(&boxes, &catalog, &mut alloc_rng)
            .unwrap();

        assert!(placement.max_load() <= slots as usize, "case {case}");
        let replicas: usize = catalog.stripes().map(|s| placement.replica_count(s)).sum();
        assert_eq!(
            replicas + placement.wasted_slots(),
            k as usize * m * c as usize,
            "case {case}"
        );
        assert!(
            placement.validate(&boxes, &catalog, 0).is_ok(),
            "case {case}"
        );
        // Every holder recorded for a stripe indeed stores it.
        for stripe in catalog.stripes() {
            for &b in placement.holders_of(stripe) {
                assert!(placement.stores(b, stripe), "case {case}");
            }
        }
    }
}

/// The capacity-respecting independent allocation also fits, and places the
/// same number of replicas.
#[test]
fn independent_allocation_respects_capacity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(100 + case);
        let (n, slots, m, c, k, seed) = scenario(&mut rng);
        let boxes = BoxSet::homogeneous(
            n,
            Bandwidth::from_streams(1.5),
            StorageSlots::from_slots(slots),
        );
        let catalog = Catalog::uniform(m, 50, c);
        let mut alloc_rng = StdRng::seed_from_u64(seed);
        let placement = RandomIndependentAllocator::new(k)
            .allocate(&boxes, &catalog, &mut alloc_rng)
            .unwrap();
        assert!(placement.max_load() <= slots as usize, "case {case}");
        let replicas: usize = catalog.stripes().map(|s| placement.replica_count(s)).sum();
        assert_eq!(
            replicas + placement.wasted_slots(),
            k as usize * m * c as usize,
            "case {case}"
        );
    }
}

/// The round-robin allocation is deterministic and gives every stripe
/// exactly k distinct replicas.
#[test]
fn round_robin_allocation_exact_replication() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(200 + case);
        let (n, slots, m, c, k, seed) = scenario(&mut rng);
        // Exact replication needs k ≤ n distinct boxes per stripe.
        if k as usize > n {
            continue;
        }
        let boxes = BoxSet::homogeneous(
            n,
            Bandwidth::from_streams(1.5),
            StorageSlots::from_slots(slots),
        );
        let catalog = Catalog::uniform(m, 50, c);
        let a = RoundRobinAllocator::new(k)
            .allocate(&boxes, &catalog, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let b = RoundRobinAllocator::new(k)
            .allocate(
                &boxes,
                &catalog,
                &mut StdRng::seed_from_u64(seed.wrapping_add(1)),
            )
            .unwrap();
        assert_eq!(&a, &b, "case {case}");
        for stripe in catalog.stripes() {
            assert_eq!(a.replica_count(stripe), k as usize, "case {case}");
        }
    }
}

/// Order-sensitive digest of a placement: every `(stripe, holders_of)` list
/// in catalog order, then every `(box, stored_by)` list in box order.
fn order_digest(boxes: &BoxSet, catalog: &Catalog, placement: &Placement) -> u64 {
    let holders: Vec<(StripeId, &[BoxId])> = catalog
        .stripes()
        .map(|s| (s, placement.holders_of(s)))
        .collect();
    let stored: Vec<(BoxId, Vec<StripeId>)> = boxes
        .iter()
        .map(|b| (b.id, placement.stored_by(b.id).collect()))
        .collect();
    p2p_vod::core::fx_hash(&(holders, stored, placement.wasted_slots()))
}

/// Holder and storage *order* of one seeded system per allocator, pinned to
/// the digests the `HashMap<StripeId, Vec<BoxId>>` placement produced (computed
/// at the commit before the dense table replaced it). Candidate rows, repair
/// sources and therefore every served-from-allocation count follow holder
/// order, so a representation that permutes holders must fail here.
#[test]
fn holder_order_goldens_per_allocator() {
    let boxes = BoxSet::homogeneous(
        48,
        Bandwidth::from_streams(1.5),
        StorageSlots::from_slots(24),
    );
    let catalog = Catalog::uniform(96, 50, 4); // k·m·c = 3·96·4 = 48·24: storage is full
    let small = Catalog::uniform(20, 50, 4); // full replication needs m ≤ slots
    let cases: [(&dyn Allocator, &Catalog); 4] = [
        (&RandomPermutationAllocator::new(3), &catalog),
        (&RandomIndependentAllocator::new(3), &catalog),
        (&RoundRobinAllocator::new(3), &catalog),
        (&FullReplicationAllocator::new(), &small),
    ];
    let digests: Vec<(&str, u64)> = cases
        .iter()
        .map(|(allocator, catalog)| {
            let placement = allocator
                .allocate(&boxes, catalog, &mut StdRng::seed_from_u64(2009))
                .unwrap();
            (allocator.name(), order_digest(&boxes, catalog, &placement))
        })
        .collect();
    assert_eq!(
        digests,
        [
            ("random-permutation", 5798330043559464257),
            ("random-independent", 2555078366789343818),
            ("round-robin", 17671238331538606942),
            ("full-replication", 2565553428120006824),
        ],
        "holder/storage order changed"
    );
}

/// Bandwidth fixed-point arithmetic: stripe slots are always the floor of
/// u·c and the effective capacity never exceeds the nominal one.
#[test]
fn bandwidth_floor_semantics() {
    for case in 0..CASES * 4 {
        let mut rng = StdRng::seed_from_u64(300 + case);
        let u = rng.gen_range(0.0f64..8.0);
        let c = rng.gen_range(1u16..64);
        let b = Bandwidth::from_streams(u);
        let slots = b.stripe_slots(c);
        // Allow for the 1/1000 fixed-point granularity of `from_streams`.
        let millis_u = b.as_streams();
        assert_eq!(
            slots,
            (millis_u * c as f64 + 1e-9).floor() as u32,
            "case {case}: u={u} c={c}"
        );
        assert!(b.effective(c) <= b, "case {case}");
    }
}

/// The swarm-growth limiter never lets a join sequence violate the bound it
/// was configured with.
#[test]
fn swarm_limiter_sequences_always_verify() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(400 + case);
        let mu = rng.gen_range(11u32..30) as f64 / 10.0;
        let rounds = rng.gen_range(1usize..12);
        let mut limiter = SwarmGrowthLimiter::new(1, mu);
        let mut joins = Vec::new();
        for round in 0..rounds {
            limiter.advance_to(round as u64);
            let wanted = rng.gen_range(0usize..10);
            joins.push(limiter.admit(VideoId(0), wanted));
        }
        assert!(
            SwarmGrowthLimiter::verify(mu, &joins).is_ok(),
            "case {case}: µ={mu} joins={joins:?}"
        );
    }
}
