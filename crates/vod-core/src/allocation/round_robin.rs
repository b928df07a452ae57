//! Deterministic round-robin allocation baseline.
//!
//! Replica `r` of the stripe with global index `g` goes to box
//! `(g·k + r) mod n`, skipping full boxes by linear probing. This scheme is
//! *not* analyzed by the paper; it serves as a deterministic baseline against
//! which the random allocations are compared: it spreads replicas evenly but
//! correlates which stripes share a box, which the adversarial workloads can
//! exploit.

use super::{check_capacity, Allocator, Placement};
use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::node::{BoxId, BoxSet};
use rand::RngCore;

/// Deterministic striping allocator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundRobinAllocator {
    /// Number of replicas stored per stripe (`k`).
    pub replication: u32,
}

impl RoundRobinAllocator {
    /// Creates an allocator placing `replication` replicas per stripe.
    pub fn new(replication: u32) -> Self {
        RoundRobinAllocator { replication }
    }
}

impl Allocator for RoundRobinAllocator {
    fn allocate(
        &self,
        boxes: &BoxSet,
        catalog: &Catalog,
        _rng: &mut dyn RngCore,
    ) -> Result<Placement, CoreError> {
        if self.replication == 0 {
            return Err(CoreError::InvalidParams("k must be positive".into()));
        }
        check_capacity(boxes, catalog, self.replication)?;

        let n = boxes.len();
        let capacities: Vec<usize> = boxes.iter().map(|b| b.storage.slots() as usize).collect();
        let mut placement = Placement::empty(n, catalog);
        let c = catalog.stripes_per_video();

        for stripe in catalog.stripes() {
            let g = stripe.global_index(c);
            for r in 0..self.replication as usize {
                let start = (g * self.replication as usize + r) % n;
                // Linear probe for a box that is not full and does not
                // already hold the stripe.
                let mut placed = false;
                for offset in 0..n {
                    let idx = (start + offset) % n;
                    let id = BoxId(idx as u32);
                    if placement.box_load(id) < capacities[idx] && !placement.stores(id, stripe) {
                        placement.add(id, stripe);
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    return Err(CoreError::AllocationOverflow { stripe });
                }
            }
        }
        Ok(placement)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{Bandwidth, StorageSlots};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(n: usize, slots: u32, m: usize, c: u16, k: u32) -> Placement {
        let boxes = BoxSet::homogeneous(n, Bandwidth::ONE_STREAM, StorageSlots::from_slots(slots));
        let catalog = Catalog::uniform(m, 120, c);
        let mut rng = StdRng::seed_from_u64(0);
        RoundRobinAllocator::new(k)
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap()
    }

    #[test]
    fn every_stripe_gets_exactly_k_replicas() {
        let p = run(10, 24, 20, 4, 3);
        let catalog = Catalog::uniform(20, 120, 4);
        for s in catalog.stripes() {
            assert_eq!(p.replica_count(s), 3, "stripe {s}");
        }
        assert_eq!(p.wasted_slots(), 0);
    }

    #[test]
    fn load_is_perfectly_balanced_when_divisible() {
        // 20 videos * 4 stripes * 3 replicas = 240 replicas over 10 boxes.
        let p = run(10, 24, 20, 4, 3);
        assert_eq!(p.max_load(), 24);
        assert_eq!(p.min_load(), 24);
    }

    #[test]
    fn deterministic_regardless_of_rng() {
        let boxes = BoxSet::homogeneous(8, Bandwidth::ONE_STREAM, StorageSlots::from_slots(10));
        let catalog = Catalog::uniform(10, 120, 4);
        let a = RoundRobinAllocator::new(2)
            .allocate(&boxes, &catalog, &mut StdRng::seed_from_u64(1))
            .unwrap();
        let b = RoundRobinAllocator::new(2)
            .allocate(&boxes, &catalog, &mut StdRng::seed_from_u64(999))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn replicas_of_a_stripe_land_on_distinct_boxes() {
        let p = run(10, 24, 20, 4, 3);
        let catalog = Catalog::uniform(20, 120, 4);
        for s in catalog.stripes() {
            let holders = p.holders_of(s);
            let mut unique = holders.to_vec();
            unique.sort();
            unique.dedup();
            assert_eq!(unique.len(), holders.len());
        }
    }

    #[test]
    fn rejects_oversized_catalog() {
        let boxes = BoxSet::homogeneous(2, Bandwidth::ONE_STREAM, StorageSlots::from_slots(2));
        let catalog = Catalog::uniform(4, 120, 2);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(RoundRobinAllocator::new(2)
            .allocate(&boxes, &catalog, &mut rng)
            .is_err());
    }
}
