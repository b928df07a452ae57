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

use super::{check_capacity, Allocator, Placement, RowPool, RowSpan};
use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::node::BoxSet;
use rand::seq::SliceRandom;
use rand::RngCore;

/// The slot code of an empty storage slot.
const FILLER: u32 = u32::MAX;

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
        let c = catalog.stripes_per_video();
        // One code per storage slot: a replica's table slot
        // (`StripeId::global_index`), or `FILLER` for an empty slot. The
        // shuffle never reads the values, so it draws the same permutation
        // as shuffling the stripes themselves.
        let mut codes: Vec<u32> = Vec::with_capacity(total_slots);
        for stripe in catalog.stripes() {
            let code = u32::try_from(stripe.global_index(c))
                .ok()
                .filter(|&code| code != FILLER)
                .expect("stripe table indexed by u32");
            codes.extend(std::iter::repeat_n(code, self.replication as usize));
        }
        codes.resize(total_slots, FILLER);
        codes.shuffle(rng);

        // The shuffled codes are the per-box table: each box's slots are a
        // run of them, compacted in place to its stripes once, in slot
        // order, with room for the whole run. A repeat draw is a wasted
        // slot, as `Placement::add` counts it.
        let mut wasted_slots = 0;
        let mut spans = Vec::with_capacity(boxes.len());
        let mut start = 0u32;
        for b in boxes.iter() {
            let cap = b.storage.slots();
            let end = start
                .checked_add(cap)
                .expect("storage slots indexed by u32");
            let run = &mut codes[start as usize..end as usize];
            let mut len = 0;
            for i in 0..run.len() {
                let code = run[i];
                if code == FILLER {
                    continue;
                }
                if run[..len].contains(&code) {
                    wasted_slots += 1;
                } else {
                    run[len] = code;
                    len += 1;
                }
            }
            spans.push(RowSpan {
                start,
                len: len as u32,
                cap,
            });
            start = end;
        }
        debug_assert_eq!(start as usize, codes.len(), "every slot belongs to a box");
        Ok(Placement::from_stored(
            RowPool::from_parts(spans, codes),
            c,
            catalog.stripe_count(),
            wasted_slots,
        ))
    }

    fn name(&self) -> &'static str {
        "random-permutation"
    }
}

#[cfg(test)]
mod tests {
    use super::super::INITIAL_ROW_CAP;
    use super::*;
    use crate::capacity::{Bandwidth, StorageSlots};
    use crate::json::JsonCodec;
    use crate::video::StripeId;
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

    /// The allocation as `add` builds it, box by box: one `Option<StripeId>`
    /// per slot through the same shuffle, then one `add` per replica.
    fn allocate_by_add(k: u32, boxes: &BoxSet, catalog: &Catalog, seed: u64) -> Placement {
        let mut entries: Vec<Option<StripeId>> = catalog
            .stripes()
            .flat_map(|s| std::iter::repeat_n(Some(s), k as usize))
            .collect();
        entries.resize(boxes.total_storage().slots() as usize, None);
        entries.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut placement = Placement::empty(boxes.len(), catalog);
        let mut slots = entries.iter();
        for b in boxes.iter() {
            for stripe in slots.by_ref().take(b.storage.slots() as usize).flatten() {
                placement.add(b.id, *stripe);
            }
        }
        placement
    }

    /// Both placements answer alike and serialize alike, the bulk build's
    /// holder rows have the capacities `add` grew them to, and its per-box
    /// table is the shuffled slots themselves: one entry per storage slot,
    /// with no relocated row.
    fn assert_same(bulk: &Placement, by_add: &Placement, boxes: &BoxSet, at: &str) {
        assert!(bulk == by_add, "{at}: placements differ");
        assert_eq!(bulk.to_json_string(), by_add.to_json_string(), "{at}: JSON");
        let slots = boxes.iter().map(|b| b.storage.slots());
        let caps: Vec<u32> = bulk.stored.spans.iter().map(|r| r.cap).collect();
        assert_eq!(caps, slots.collect::<Vec<_>>(), "{at}: per-box room");
        assert_eq!(
            bulk.stored.pool.len(),
            boxes.total_storage().slots() as usize,
            "{at}: per-box pool"
        );
        let caps = |p: &Placement| p.holders.spans.iter().map(|r| r.cap).collect::<Vec<_>>();
        assert_eq!(caps(bulk), caps(by_add), "{at}: row capacities");
    }

    /// The bulk build against box-by-box `add`: homogeneous and
    /// heterogeneous storage, full catalogs and ones padded with filler
    /// slots, `k = 6` rows past the initial row capacity, and duplicate
    /// draws. A seeded `add` / `remove` script then keeps both in step.
    #[test]
    fn bulk_build_equals_box_by_box_add() {
        use crate::node::{BoxId, NodeBox};
        use crate::video::VideoId;
        use rand::Rng;
        let (mut wasted, mut relocated, mut filler) = (0, 0, 0);
        for (case, (n, k, shape)) in [1usize, 63, 64, 65, 1000]
            .into_iter()
            .flat_map(|n| [1u32, 3, 6].map(|k| (n, k)))
            .flat_map(|(n, k)| [0, 1, 2].map(|shape| (n, k, shape)))
            .enumerate()
        {
            let seed = 0xb01c + case as u64;
            // Shape 0: 12 slots a box; 1 and 2: 1 to 24 slots a box.
            let boxes = BoxSet::new(
                (0..n as u32)
                    .map(|b| {
                        let slots = if shape == 0 { 12 } else { 1 + (b * 7 + 3) % 24 };
                        let storage = StorageSlots::from_slots(slots);
                        NodeBox::new(BoxId(b), Bandwidth::ONE_STREAM, storage)
                    })
                    .collect(),
            );
            let c = 3u16;
            let total = boxes.total_storage().slots() as usize;
            // Shapes 0 and 1 fill what `k` replicas can; shape 2 half of it.
            let m = (total / (k as usize * c as usize) / [1, 1, 2][shape]).max(1);
            let catalog = Catalog::uniform(m, 60, c);
            if k as usize * catalog.stripe_count() > total {
                continue; // a single box too small for k replicas of one video
            }
            let at = format!("n {n}, k {k}, shape {shape}");
            let mut bulk = RandomPermutationAllocator::new(k)
                .allocate(&boxes, &catalog, &mut StdRng::seed_from_u64(seed))
                .unwrap();
            let mut by_add = allocate_by_add(k, &boxes, &catalog, seed);
            assert_same(&bulk, &by_add, &boxes, &at);
            wasted += usize::from(bulk.wasted_slots() > 0);
            relocated += usize::from(bulk.holders.spans.iter().any(|r| r.cap > INITIAL_ROW_CAP));
            filler += usize::from(k as usize * catalog.stripe_count() < total);

            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..60 {
                let b = BoxId(rng.gen_range(0..n as u32));
                let s = StripeId::new(VideoId(rng.gen_range(0..m as u32)), rng.gen_range(0..c));
                match rng.gen_range(0..4) {
                    0 | 1 => assert_eq!(bulk.add(b, s), by_add.add(b, s)),
                    2 => assert_eq!(bulk.remove(b, s), by_add.remove(b, s)),
                    _ => assert_eq!(bulk.remove_box(b), by_add.remove_box(b)),
                }
                assert!(bulk == by_add, "{at}: step {step}");
            }
            assert_eq!(
                bulk.to_json_string(),
                by_add.to_json_string(),
                "{at}: script"
            );
        }
        assert!(
            wasted >= 10 && relocated >= 10 && filler >= 10,
            "{wasted} {relocated} {filler}"
        );
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

    /// A bulk-built placement through a seeded `add` / `remove` /
    /// `remove_box` script that grows box 0's list past its storage: the
    /// per-box lists, the JSON text and the placement read back from it are
    /// pinned to what the table of one `Vec<StripeId>` per box answered.
    #[test]
    fn per_box_lists_answer_as_pinned_through_a_growing_script() {
        use crate::hash::fx_hash;
        use crate::node::BoxId;
        use crate::video::VideoId;
        use rand::Rng;
        let (n, m, c) = (40u32, 50u32, 3u16);
        let mut p = run(n as usize, 8, m as usize, c, 2, 0x5eed);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for step in 0..300 {
            let s = StripeId::new(VideoId(rng.gen_range(0..m)), rng.gen_range(0..c));
            let b = if step % 3 == 0 {
                BoxId(0)
            } else {
                BoxId(rng.gen_range(0..n))
            };
            match rng.gen_range(0..10) {
                0..=5 => {
                    p.add(b, s);
                }
                6..=8 => {
                    p.remove(b, s);
                }
                _ if b != BoxId(0) => {
                    p.remove_box(b);
                }
                _ => {}
            }
        }
        assert!(p.box_load(BoxId(0)) > 8, "box 0 outgrew its storage");
        let lists: Vec<Vec<_>> = (0..n).map(|b| p.stored_by(BoxId(b)).collect()).collect();
        let text = p.to_json_string();
        let back = Placement::from_json_str(&text).expect("own JSON loads");
        assert!(back == p);
        assert_eq!(back.to_json_string(), text);
        assert_eq!(
            [fx_hash(&lists), fx_hash(&text), p.wasted_slots() as u64],
            [16055140545218122429, 10138842604500725080, 26]
        );
    }
}
