//! Random permutation allocation (Section 2.1).
//!
//! The `k·m·c` stripe replicas are placed into the `Σ d_b·c` storage slots of
//! the boxes through a uniformly random permutation: replica `i` lands in
//! slot `π(i)`. When the catalog does not fill the whole storage
//! (`k·m·c < Σ d_b·c`) the remaining slots stay empty, which is equivalent to
//! permuting replicas together with "empty" markers. Every box ends up with
//! *exactly* its capacity worth of slots examined, so — unlike the
//! independent allocation — storage load is perfectly balanced by
//! construction.

use super::{check_capacity, Allocator, Placement};
use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::node::BoxSet;
use crate::video::StripeId;
use rand::seq::SliceRandom;
use rand::RngCore;

/// The paper's random permutation allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomPermutationAllocator {
    /// Number of replicas stored per stripe (`k`).
    pub replication: u32,
}

impl RandomPermutationAllocator {
    /// Creates an allocator placing `replication` replicas per stripe.
    pub fn new(replication: u32) -> Self {
        RandomPermutationAllocator { replication }
    }
}

impl Allocator for RandomPermutationAllocator {
    fn allocate(
        &self,
        boxes: &BoxSet,
        catalog: &Catalog,
        rng: &mut dyn RngCore,
    ) -> Result<Placement, CoreError> {
        if self.replication == 0 {
            return Err(CoreError::InvalidParams("k must be positive".into()));
        }
        check_capacity(boxes, catalog, self.replication)?;

        let total_slots = boxes.total_storage().slots() as usize;
        // One entry per storage slot: Some(stripe) for a replica, None for an
        // empty filler slot.
        let mut entries: Vec<Option<StripeId>> = Vec::with_capacity(total_slots);
        for stripe in catalog.stripes() {
            for _ in 0..self.replication {
                entries.push(Some(stripe));
            }
        }
        entries.resize(total_slots, None);
        entries.shuffle(rng);

        let mut placement = Placement::empty(boxes.len(), catalog);
        let mut cursor = 0usize;
        for b in boxes.iter() {
            let slots = b.storage.slots() as usize;
            for stripe in entries[cursor..cursor + slots].iter().flatten() {
                placement.add(b.id, *stripe);
            }
            cursor += slots;
        }
        debug_assert_eq!(cursor, total_slots);
        Ok(placement)
    }

    fn name(&self) -> &'static str {
        "random-permutation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{Bandwidth, StorageSlots};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(n: usize, slots_per_box: u32, m: usize, c: u16, k: u32, seed: u64) -> Placement {
        let boxes = BoxSet::homogeneous(
            n,
            Bandwidth::from_streams(1.5),
            StorageSlots::from_slots(slots_per_box),
        );
        let catalog = Catalog::uniform(m, 120, c);
        let mut rng = StdRng::seed_from_u64(seed);
        RandomPermutationAllocator::new(k)
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap()
    }

    #[test]
    fn places_exactly_k_replicas_per_stripe_when_no_duplicates() {
        let p = run(50, 16, 100, 4, 2, 7);
        let catalog = Catalog::uniform(100, 120, 4);
        let total: usize = catalog.stripes().map(|s| p.replica_count(s)).sum();
        // Duplicates within a box are rare but possible; the deduplicated
        // count plus the wasted slots must equal k·m·c.
        assert_eq!(total + p.wasted_slots(), 2 * 100 * 4);
    }

    #[test]
    fn never_exceeds_box_capacity() {
        let p = run(20, 8, 30, 4, 1, 3);
        assert!(p.max_load() <= 8);
        let boxes = BoxSet::homogeneous(
            20,
            Bandwidth::from_streams(1.5),
            StorageSlots::from_slots(8),
        );
        let catalog = Catalog::uniform(30, 120, 4);
        p.validate(&boxes, &catalog, 0).unwrap();
    }

    #[test]
    fn full_storage_is_fully_used() {
        // k*m*c = d*n*c exactly: 2 * 25 * 4 = 200 = 20 boxes * 10 slots.
        let p = run(20, 10, 25, 4, 2, 11);
        assert_eq!(p.total_replicas() + p.wasted_slots(), 200);
        // Every box has exactly 10 slots' worth of entries drawn, so load can
        // only be below 10 if duplicates were drawn for that box.
        assert!(
            p.min_load() + p.wasted_slots() >= 10 || p.wasted_slots() > 0 || p.min_load() == 10
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = run(10, 8, 10, 4, 2, 42);
        let b = run(10, 8, 10, 4, 2, 42);
        assert_eq!(a, b);
        let c = run(10, 8, 10, 4, 2, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn rejects_oversized_catalog() {
        let boxes = BoxSet::homogeneous(4, Bandwidth::ONE_STREAM, StorageSlots::from_slots(4));
        let catalog = Catalog::uniform(10, 120, 4); // 40 stripes > 16 slots
        let mut rng = StdRng::seed_from_u64(0);
        let err = RandomPermutationAllocator::new(1)
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap_err();
        assert!(matches!(err, CoreError::InsufficientStorage { .. }));
    }

    #[test]
    fn rejects_zero_replication() {
        let boxes = BoxSet::homogeneous(2, Bandwidth::ONE_STREAM, StorageSlots::from_slots(4));
        let catalog = Catalog::uniform(1, 120, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(RandomPermutationAllocator::new(0)
            .allocate(&boxes, &catalog, &mut rng)
            .is_err());
    }

    #[test]
    fn heterogeneous_storage_respected() {
        use crate::node::{BoxId, NodeBox};
        let boxes = BoxSet::new(vec![
            NodeBox::new(BoxId(0), Bandwidth::ONE_STREAM, StorageSlots::from_slots(2)),
            NodeBox::new(
                BoxId(1),
                Bandwidth::ONE_STREAM,
                StorageSlots::from_slots(20),
            ),
            NodeBox::new(BoxId(2), Bandwidth::ONE_STREAM, StorageSlots::from_slots(6)),
        ]);
        let catalog = Catalog::uniform(7, 120, 2); // 14 stripes, k=2 -> 28 replicas ≤ 28 slots
        let mut rng = StdRng::seed_from_u64(5);
        let p = RandomPermutationAllocator::new(2)
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        assert!(p.box_load(BoxId(0)) <= 2);
        assert!(p.box_load(BoxId(1)) <= 20);
        assert!(p.box_load(BoxId(2)) <= 6);
    }
}
