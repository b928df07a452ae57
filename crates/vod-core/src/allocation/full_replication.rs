//! Full-replication baseline: every box stores a portion of every video.
//!
//! This is the regime the paper proves is unavoidable when `u < 1`
//! (Section 1.3: if some box stores no data of some video, an adversary that
//! always requests unowned videos needs aggregate download `n` against
//! aggregate upload `u·n < n`), and it is the design point of the closest
//! prior system, Push-to-Peer (Suh et al.): catalog size stays `O(1)` —
//! bounded by `d_max/ℓ = d_max·c` — because each box dedicates at least one
//! stripe slot (`ℓ = 1/c` of a video) to every video.
//!
//! The allocator stores, for every video `v` and every box `b`, the stripe
//! with index `(b + v) mod c`, then keeps filling remaining capacity with the
//! other stripes of the catalog round-robin so that storage is not wasted.

use super::{Allocator, Placement};
use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::node::BoxSet;
use crate::video::StripeId;
use rand::RngCore;

/// Constant-catalog baseline allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FullReplicationAllocator;

impl FullReplicationAllocator {
    /// Creates the allocator.
    pub fn new() -> Self {
        FullReplicationAllocator
    }

    /// Largest catalog this scheme supports for a box with `slots` stripe
    /// slots: one slot per video is required, so `m ≤ slots` (= `d·c`,
    /// i.e. `d_max/ℓ` in the paper's notation).
    pub fn max_catalog_for_slots(slots: u32) -> usize {
        slots as usize
    }
}

impl Allocator for FullReplicationAllocator {
    fn allocate(
        &self,
        boxes: &BoxSet,
        catalog: &Catalog,
        _rng: &mut dyn RngCore,
    ) -> Result<Placement, CoreError> {
        let c = catalog.stripes_per_video();
        // Feasibility: every box must be able to hold one stripe per video.
        for b in boxes.iter() {
            if (b.storage.slots() as usize) < catalog.len() {
                return Err(CoreError::InsufficientStorage {
                    required_slots: catalog.len(),
                    available_slots: b.storage.slots() as usize,
                });
            }
        }

        let mut placement = Placement::empty(boxes.len(), catalog);
        for b in boxes.iter() {
            let slots = b.storage.slots() as usize;
            // Mandatory portion: one stripe of every video.
            for video in catalog.video_ids() {
                let idx = ((b.id.0 as usize + video.index()) % c as usize) as u16;
                placement.add(b.id, StripeId::new(video, idx));
            }
            // Spend the remaining capacity on additional stripes, round-robin
            // over the catalog starting after the mandatory stripe.
            let mut offset = 1usize;
            'fill: while placement.box_load(b.id) < slots {
                if offset >= c as usize {
                    break 'fill; // box already stores the whole catalog
                }
                for video in catalog.video_ids() {
                    if placement.box_load(b.id) >= slots {
                        break;
                    }
                    let idx = ((b.id.0 as usize + video.index() + offset) % c as usize) as u16;
                    placement.add(b.id, StripeId::new(video, idx));
                }
                offset += 1;
            }
        }
        Ok(placement)
    }

    fn name(&self) -> &'static str {
        "full-replication"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{Bandwidth, StorageSlots};
    use crate::node::BoxId;
    use crate::video::VideoId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_box_holds_every_video() {
        let boxes = BoxSet::homogeneous(
            6,
            Bandwidth::from_streams(0.8),
            StorageSlots::from_slots(12),
        );
        let catalog = Catalog::uniform(10, 120, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let p = FullReplicationAllocator::new()
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        for b in boxes.ids() {
            for v in catalog.video_ids() {
                assert!(p.stores_any_of(b, v, 4), "box {b} misses video {v}");
            }
        }
    }

    #[test]
    fn respects_capacity_exactly() {
        let boxes = BoxSet::homogeneous(3, Bandwidth::ONE_STREAM, StorageSlots::from_slots(15));
        let catalog = Catalog::uniform(10, 120, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let p = FullReplicationAllocator::new()
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        for b in boxes.ids() {
            assert!(p.box_load(b) <= 15);
            assert!(p.box_load(b) >= 10); // at least one stripe per video
        }
    }

    #[test]
    fn rejects_catalog_larger_than_per_box_storage() {
        // m = 20 videos but each box has only 12 slots: m > d·c is the
        // paper's impossibility regime for this scheme.
        let boxes = BoxSet::homogeneous(
            6,
            Bandwidth::from_streams(0.8),
            StorageSlots::from_slots(12),
        );
        let catalog = Catalog::uniform(20, 120, 4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            FullReplicationAllocator::new().allocate(&boxes, &catalog, &mut rng),
            Err(CoreError::InsufficientStorage { .. })
        ));
    }

    #[test]
    fn small_catalog_fully_replicated() {
        // Capacity 8 slots, catalog 2 videos * 3 stripes = 6 stripes: every
        // box ends up storing the complete catalog (load capped by catalog).
        let boxes = BoxSet::homogeneous(2, Bandwidth::ONE_STREAM, StorageSlots::from_slots(8));
        let catalog = Catalog::uniform(2, 120, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let p = FullReplicationAllocator::new()
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        assert_eq!(p.box_load(BoxId(0)), 6);
        for s in catalog.stripes() {
            assert_eq!(p.replica_count(s), 2);
        }
        assert!(p.stores(BoxId(1), StripeId::new(VideoId(0), 1)));
    }

    #[test]
    fn max_catalog_helper_matches_capacity() {
        assert_eq!(FullReplicationAllocator::max_catalog_for_slots(48), 48);
    }
}
