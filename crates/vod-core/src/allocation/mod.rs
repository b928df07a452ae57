//! Static allocation of stripe replicas onto boxes.
//!
//! An *allocation* (Section 2.1) stores `k` replicas of every stripe into the
//! catalog storage of the boxes, once and for all — only the playback caches
//! change over time. This module defines the [`Placement`] produced by an
//! allocation, the [`Allocator`] trait, and the concrete allocation schemes:
//!
//! * [`RandomPermutationAllocator`] — the paper's random permutation
//!   allocation (each box ends up with exactly `d_b·c` replicas);
//! * [`RandomIndependentAllocator`] — the paper's random independent
//!   allocation (boxes drawn with probability proportional to storage);
//! * [`RoundRobinAllocator`] — a deterministic striping baseline;
//! * [`FullReplicationAllocator`] — the constant-catalog baseline in which
//!   every box stores a portion of every video (the `u < 1` regime and the
//!   Push-to-Peer-style comparator).
//!
//! Because the allocation is static and Lemma 1's candidate set `B(x)` starts
//! from "the boxes that store the stripe", `holders_of(stripe)` is read by
//! every layer every round. [`Placement`] therefore keeps the stripe →
//! holders direction as a dense table indexed by the stripe's slot
//! (`video · c + index`) over one pooled `Vec<BoxId>`: a lookup is arithmetic
//! and a slice, and holder order is insertion order, which everything
//! downstream is deterministic in.

mod full_replication;
mod independent;
mod permutation;
mod round_robin;

pub use full_replication::FullReplicationAllocator;
pub use independent::RandomIndependentAllocator;
pub use permutation::RandomPermutationAllocator;
pub use round_robin::RoundRobinAllocator;

use crate::catalog::Catalog;
use crate::error::CoreError;
use crate::json::{obj, Json, JsonCodec, JsonError};
use crate::node::{BoxId, BoxSet};
use crate::video::{StripeId, VideoId};
use rand::RngCore;

/// Capacity a holder row starts with. The paper's regimes store `k ≤ 4`
/// replicas per stripe, so an allocation plus one repaired replica never
/// relocates a row.
const INITIAL_ROW_CAP: u32 = 4;

/// Where one row lives in its [`RowPool`]: `pool[start..start + len]`,
/// with room to grow up to `cap` in place.
#[derive(Clone, Copy, Debug, Default)]
struct RowSpan {
    start: u32,
    len: u32,
    cap: u32,
}

/// Rows of `T` over one pooled `Vec<T>`, one [`RowSpan`] per row. A row
/// that outgrows its capacity moves to the end of the pool with twice the
/// room (the vacated span is not reused: total garbage is bounded by the
/// live capacity), and a removal shifts the tail of the row down one place,
/// so a row keeps strict insertion order with ordered removals. Cloning
/// copies the spans and the pool: two allocations however many rows there
/// are. Both directions of a [`Placement`] are one of these.
#[derive(Clone, Debug)]
struct RowPool<T> {
    spans: Vec<RowSpan>,
    /// Backing store of every row. Entries outside the live spans are
    /// filler.
    pool: Vec<T>,
}

impl<T: Copy + PartialEq> RowPool<T> {
    /// Empty rows with room for `caps` entries each, back to back; `fill`
    /// pads the pool.
    fn with_caps(caps: impl IntoIterator<Item = u32>, fill: T) -> Self {
        let mut end = 0u32;
        let spans: Vec<RowSpan> = caps
            .into_iter()
            .map(|cap| {
                let start = end;
                end = end.checked_add(cap).expect("row pool indexed by u32");
                RowSpan { start, len: 0, cap }
            })
            .collect();
        RowPool {
            spans,
            pool: vec![fill; end as usize],
        }
    }

    /// The rows `spans` lay out over `pool`, as a bulk build wrote them.
    fn from_parts(spans: Vec<RowSpan>, pool: Vec<T>) -> Self {
        debug_assert!(spans
            .iter()
            .all(|s| s.len <= s.cap && (s.start + s.cap) as usize <= pool.len()));
        RowPool { spans, pool }
    }

    /// Number of rows.
    fn rows(&self) -> usize {
        self.spans.len()
    }

    /// Row `i` (empty past the last row).
    fn row(&self, i: usize) -> &[T] {
        match self.spans.get(i) {
            Some(span) => &self.pool[span.start as usize..(span.start + span.len) as usize],
            None => &[],
        }
    }

    /// Every row in order.
    fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.rows()).map(|i| self.row(i))
    }

    /// Adds empty rows without room until there are `rows`.
    fn extend_to(&mut self, rows: usize) {
        if rows > self.spans.len() {
            self.spans.resize(rows, RowSpan::default());
        }
    }

    /// Appends `value` to row `i`, first moving the row to the end of the
    /// pool with doubled capacity when it is full.
    fn push(&mut self, i: usize, value: T) {
        let mut span = self.spans[i];
        if span.len == span.cap {
            let cap = (span.cap * 2).max(INITIAL_ROW_CAP);
            let start = self.pool.len();
            let end = u32::try_from(start + cap as usize).expect("row pool indexed by u32");
            self.pool
                .extend_from_within(span.start as usize..(span.start + span.len) as usize);
            self.pool.resize(end as usize, value);
            span.start = start as u32;
            span.cap = cap;
        }
        self.pool[(span.start + span.len) as usize] = value;
        span.len += 1;
        self.spans[i] = span;
    }

    /// Removes `value` from row `i`, shifting later entries down. Returns
    /// whether the row held it.
    fn pull(&mut self, i: usize, value: T) -> bool {
        let Some(span) = self.spans.get_mut(i) else {
            return false;
        };
        let row = &mut self.pool[span.start as usize..(span.start + span.len) as usize];
        let Some(pos) = row.iter().position(|&v| v == value) else {
            return false;
        };
        row.copy_within(pos + 1.., pos);
        span.len -= 1;
        true
    }

    /// Empties row `i`, keeping its room.
    fn clear(&mut self, i: usize) {
        self.spans[i].len = 0;
    }
}

/// The result of an allocation: which box stores which stripes.
///
/// Both directions are index-addressed rows of a pooled table: a `(start,
/// len, cap)` span per row over one `Vec`. `holders_of(stripe)` is a row of
/// the *placement table*: the stripe's dense slot `video · c + index`
/// ([`StripeId::global_index`]) selects a span of one pooled `Vec<BoxId>`.
/// `stored_by(box)` is the box's row of one pooled `Vec<u32>` of those
/// slots, in storage order. Holder order is strict insertion order with
/// ordered removals — candidate rows, repair sources and every report
/// depend on that order. Cloning copies two span tables and two pools: four
/// allocations however many boxes and stripes there are.
///
/// `c` is fixed at construction. Reads of a stripe outside the table (an
/// index `≥ c`, or a video past the last row) answer "no holders"; `add`
/// extends the table by whole videos but rejects an index `≥ c`.
#[derive(Clone, Debug)]
pub struct Placement {
    /// Stripes stored by each box (catalog storage, not the playback
    /// cache), as table slots. A stripe appears at most once per box;
    /// duplicate draws are counted in `wasted_slots` instead.
    stored: RowPool<u32>,
    /// Stripes per video (`c`): the slot arithmetic's row width.
    stripes_per_video: u16,
    /// One holder row per stripe slot, `videos · c` of them.
    holders: RowPool<BoxId>,
    /// Slots lost to duplicate replica draws (same stripe drawn twice for the
    /// same box). Only random allocations can produce these.
    wasted_slots: usize,
}

/// Two placements are equal when they answer every query alike: same `c`,
/// same per-box lists, same holder rows in the same order, same waste. Where
/// a row sits in its pool, and trailing rows without holders, do not count.
impl PartialEq for Placement {
    fn eq(&self, other: &Self) -> bool {
        self.stripes_per_video == other.stripes_per_video
            && self.wasted_slots == other.wasted_slots
            && self.stored.iter().eq(other.stored.iter())
            && (0..self.holders.rows().max(other.holders.rows()))
                .all(|slot| self.holders.row(slot) == other.holders.row(slot))
    }
}

impl Eq for Placement {}

/// Serialization persists `c`, the per-box stripe lists and the holder rows
/// (one array of box ids per stripe slot), so both orders survive a round
/// trip. Files written before the table existed carry only `per_box` and
/// `wasted_slots`: for those `c` is the largest stripe index plus one and
/// holders are listed by ascending box id, which is what re-adding box by
/// box always produced.
impl JsonCodec for Placement {
    fn to_json(&self) -> Json {
        let per_box: Vec<Json> = (0..self.box_count())
            .map(|b| {
                Json::Arr(
                    self.stored_by(BoxId(b as u32))
                        .map(|s| s.to_json())
                        .collect(),
                )
            })
            .collect();
        let holders: Vec<Json> = self
            .holders
            .iter()
            .map(|row| Json::Arr(row.iter().map(BoxId::to_json).collect()))
            .collect();
        obj(vec![
            ("stripes_per_video", self.stripes_per_video.to_json()),
            ("per_box", Json::Arr(per_box)),
            ("holders", Json::Arr(holders)),
            ("wasted_slots", self.wasted_slots.to_json()),
        ])
    }

    /// Validates first, builds second: every stripe index is below `c`, every
    /// box id below the box count, no list names an entry twice and the two
    /// directions describe the same replicas — a contradiction is a
    /// [`JsonError`], never a panic or a silently different table.
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let bad = |what: String| Err(JsonError::new(format!("placement: {what}")));
        let per_box = Vec::<Vec<StripeId>>::from_json(json.field("per_box")?)?;
        let n = per_box.len();
        let entries = || per_box.iter().flatten();
        let c = match json.get("stripes_per_video") {
            Some(field) => field.as_usize()?,
            None => entries().map(|s| s.index as usize + 1).max().unwrap_or(1),
        };
        let c = match u16::try_from(c) {
            Ok(c) if c > 0 => c,
            _ => return bad(format!("{c} stripes per video is out of range")),
        };
        if let Some(stripe) = entries().find(|s| s.index >= c) {
            return bad(format!(
                "stripe {stripe} contradicts stripes_per_video = {c}"
            ));
        }
        let replicas = entries().count();
        let holders = json.get("holders").map(Json::as_arr).transpose()?;
        // The table's size comes from the file: bound it by what the file
        // holds before allocating. A new file spells every row out; an old
        // one came from an allocator, which leaves no video without a replica.
        let rows = match holders {
            Some(rows) => rows.len(),
            None => {
                let videos = entries().map(|s| s.video.index() + 1).max().unwrap_or(0);
                if videos > replicas {
                    return bad(format!(
                        "video id {} in a file of {replicas} replicas",
                        videos - 1
                    ));
                }
                videos * c as usize
            }
        };
        if rows % c as usize != 0 || rows > (u32::MAX / INITIAL_ROW_CAP) as usize {
            return bad(format!("{rows} holder rows for c = {c}"));
        }

        let mut placement = Placement::with_rows(n, c, rows);
        // Duplicate draws were deduplicated before serialization, so the
        // recorded figure is restored rather than recounted.
        placement.wasted_slots = usize::from_json(json.field("wasted_slots")?)?;
        let Some(holder_rows) = holders else {
            for (idx, stripes) in per_box.iter().enumerate() {
                for &stripe in stripes {
                    if !placement.add(BoxId(idx as u32), stripe) {
                        return bad(format!("box {idx} lists stripe {stripe} twice"));
                    }
                }
            }
            return Ok(placement);
        };
        let mut held = 0;
        for (slot, row) in holder_rows.iter().enumerate() {
            let stripe = StripeId::from_global_index(slot, c);
            for holder in row.as_arr()? {
                let b = BoxId::from_json(holder)?;
                if b.index() >= n {
                    return bad(format!(
                        "holder {b} of stripe {stripe} is not one of {n} boxes"
                    ));
                }
                if placement.holders.row(slot).contains(&b) {
                    return bad(format!("stripe {stripe} lists holder {b} twice"));
                }
                placement.holders.push(slot, b);
                held += 1;
            }
        }
        // Every per-box entry has its holder entry and the counts match, so
        // the two directions are the same set of replicas.
        if held != replicas {
            return bad(format!(
                "{held} holder entries for {replicas} stored replicas"
            ));
        }
        for (idx, stripes) in per_box.iter().enumerate() {
            for (pos, &stripe) in stripes.iter().enumerate() {
                if stripes[..pos].contains(&stripe) {
                    return bad(format!("box {idx} lists stripe {stripe} twice"));
                }
                if !placement.stores(BoxId(idx as u32), stripe) {
                    return bad(format!(
                        "box {idx} stores {stripe} but is not among its holders"
                    ));
                }
            }
        }
        placement.stored = RowPool::with_caps(per_box.iter().map(|s| s.len() as u32), 0);
        for (idx, stripes) in per_box.iter().enumerate() {
            for stripe in stripes {
                placement.stored.push(idx, stripe.global_index(c) as u32);
            }
        }
        Ok(placement)
    }
}

impl Placement {
    /// An empty placement of `catalog` over `n` boxes: one holder row per
    /// catalog stripe, laid out once.
    pub fn empty(n: usize, catalog: &Catalog) -> Self {
        Placement::with_rows(n, catalog.stripes_per_video(), catalog.stripe_count())
    }

    /// `n` boxes without stored stripes, and `rows` empty holder rows of the
    /// initial capacity, back to back.
    fn with_rows(n: usize, c: u16, rows: usize) -> Self {
        assert!(c > 0, "stripe count must be positive");
        Placement {
            stored: RowPool::with_caps(std::iter::repeat_n(0, n), 0),
            stripes_per_video: c,
            holders: RowPool::with_caps(std::iter::repeat_n(INITIAL_ROW_CAP, rows), BoxId(0)),
            wasted_slots: 0,
        }
    }

    /// The placement whose per-box rows are `stored` (deduplicated table
    /// slots, each stripe's index below `c`), in one pass: count every
    /// holder row, lay the rows out in slot order with the capacity `add`
    /// would have grown them to, and fill them in ascending box id — the
    /// holder order adding box by box produces. The table has at least
    /// `rows` rows, and whole videos beyond them for any stripe past the
    /// last.
    fn from_stored(stored: RowPool<u32>, c: u16, rows: usize, wasted_slots: usize) -> Self {
        assert!(c > 0, "stripe count must be positive");
        let mut counts = vec![0u32; rows];
        for &code in stored.iter().flatten() {
            let slot = code as usize;
            if slot >= counts.len() {
                counts.resize((slot / c as usize + 1) * c as usize, 0);
            }
            counts[slot] += 1;
        }
        let caps = counts
            .iter()
            .map(|&len| len.next_power_of_two().max(INITIAL_ROW_CAP));
        let mut holders = RowPool::with_caps(caps, BoxId(0));
        for (b, codes) in stored.iter().enumerate() {
            for &code in codes {
                holders.push(code as usize, BoxId(b as u32));
            }
        }
        Placement {
            stored,
            stripes_per_video: c,
            holders,
            wasted_slots,
        }
    }

    /// Number of boxes the placement spans.
    pub fn box_count(&self) -> usize {
        self.stored.rows()
    }

    /// Records that `box_id` stores a replica of `stripe`.
    ///
    /// Returns `true` if the replica was new for this box, `false` if the box
    /// already stored the stripe (the slot is then counted as wasted).
    ///
    /// # Panics
    ///
    /// When `stripe.index` is not below the `c` the placement was built for:
    /// a caller bug, since the slot would belong to another stripe. A video
    /// past the last row extends the table by whole videos.
    pub fn add(&mut self, box_id: BoxId, stripe: StripeId) -> bool {
        let c = self.stripes_per_video;
        assert!(
            stripe.index < c,
            "stripe {stripe} added to a placement of c = {c} stripes per video"
        );
        let slot = stripe.global_index(c);
        let code = u32::try_from(slot).expect("stripe table indexed by u32");
        if self.stored.row(box_id.index()).contains(&code) {
            self.wasted_slots += 1;
            return false;
        }
        self.stored.push(box_id.index(), code);
        self.holders
            .extend_to((stripe.video.index() + 1) * c as usize);
        self.holders.push(slot, box_id);
        true
    }

    /// Removes the replica of `stripe` stored by `box_id`, preserving the
    /// insertion order of the remaining holders (positional removal, so that
    /// holder lists — and everything scheduled from them — stay deterministic
    /// across the same mutation sequence).
    ///
    /// Returns `true` if the box actually stored the stripe.
    pub fn remove(&mut self, box_id: BoxId, stripe: StripeId) -> bool {
        let c = self.stripes_per_video;
        if stripe.index >= c {
            return false; // the slot would alias a stripe of the next video
        }
        let slot = stripe.global_index(c);
        let Ok(code) = u32::try_from(slot) else {
            return false;
        };
        if !self.stored.pull(box_id.index(), code) {
            return false;
        }
        self.holders.pull(slot, box_id);
        true
    }

    /// Removes every replica stored by `box_id` (the box departed), returning
    /// the stripes it held in storage order. Holder lists keep their relative
    /// order; stripes whose last replica vanishes become unheld (and, with a
    /// repair planner running, under-replicated work items).
    pub fn remove_box(&mut self, box_id: BoxId) -> Vec<StripeId> {
        let stripes: Vec<StripeId> = self.stored_by(box_id).collect();
        self.stored.clear(box_id.index());
        for &stripe in &stripes {
            self.holders
                .pull(stripe.global_index(self.stripes_per_video), box_id);
        }
        stripes
    }

    /// The boxes storing a replica of `stripe` (possibly empty): slot
    /// arithmetic and one slice of the pool.
    pub fn holders_of(&self, stripe: StripeId) -> &[BoxId] {
        let c = self.stripes_per_video;
        if stripe.index >= c {
            return &[]; // the slot would alias a stripe of the next video
        }
        self.holders.row(stripe.global_index(c))
    }

    /// The stripes stored by `box_id`, in storage order.
    pub fn stored_by(&self, box_id: BoxId) -> impl ExactSizeIterator<Item = StripeId> + '_ {
        let c = self.stripes_per_video;
        self.stored
            .row(box_id.index())
            .iter()
            .map(move |&code| StripeId::from_global_index(code as usize, c))
    }

    /// True when `box_id` stores a replica of `stripe`.
    pub fn stores(&self, box_id: BoxId, stripe: StripeId) -> bool {
        self.holders_of(stripe).contains(&box_id)
    }

    /// True when `box_id` stores at least one stripe of `video`.
    pub fn stores_any_of(&self, box_id: BoxId, video: VideoId, c: u16) -> bool {
        (0..c).any(|i| self.stores(box_id, StripeId::new(video, i)))
    }

    /// Number of stripe replicas stored by `box_id` (its storage load).
    pub fn box_load(&self, box_id: BoxId) -> usize {
        self.stored.row(box_id.index()).len()
    }

    /// The maximum storage load over all boxes.
    pub fn max_load(&self) -> usize {
        self.stored.iter().map(<[u32]>::len).max().unwrap_or(0)
    }

    /// The minimum storage load over all boxes.
    pub fn min_load(&self) -> usize {
        self.stored.iter().map(<[u32]>::len).min().unwrap_or(0)
    }

    /// Total number of (deduplicated) replicas placed.
    pub fn total_replicas(&self) -> usize {
        self.stored.iter().map(<[u32]>::len).sum()
    }

    /// Slots lost to duplicate draws.
    pub fn wasted_slots(&self) -> usize {
        self.wasted_slots
    }

    /// Number of distinct boxes holding `stripe` (its replication level).
    pub fn replica_count(&self, stripe: StripeId) -> usize {
        self.holders_of(stripe).len()
    }

    /// Iterator over `(stripe, holders)` pairs of the stripes that have a
    /// holder, in ascending stripe order.
    pub fn stripes(&self) -> impl Iterator<Item = (StripeId, &[BoxId])> {
        let c = self.stripes_per_video;
        self.holders
            .iter()
            .enumerate()
            .map(move |(slot, row)| (StripeId::from_global_index(slot, c), row))
            .filter(|(_, holders)| !holders.is_empty())
    }

    /// Checks that the placement respects every box's storage capacity and
    /// that every catalog stripe has at least `min_replicas` replicas.
    pub fn validate(
        &self,
        boxes: &BoxSet,
        catalog: &Catalog,
        min_replicas: usize,
    ) -> Result<(), CoreError> {
        for b in boxes.iter() {
            let load = self.box_load(b.id);
            if load > b.storage.slots() as usize {
                return Err(CoreError::InvalidParams(format!(
                    "box {} stores {} replicas but has only {} slots",
                    b.id,
                    load,
                    b.storage.slots()
                )));
            }
        }
        for stripe in catalog.stripes() {
            if self.replica_count(stripe) < min_replicas {
                return Err(CoreError::InvalidParams(format!(
                    "stripe {stripe} has {} replicas, expected at least {min_replicas}",
                    self.replica_count(stripe)
                )));
            }
        }
        Ok(())
    }
}

/// A scheme for statically placing stripe replicas onto boxes.
pub trait Allocator {
    /// Builds a placement of the catalog onto the boxes.
    ///
    /// Deterministic allocators ignore `rng`.
    fn allocate(
        &self,
        boxes: &BoxSet,
        catalog: &Catalog,
        rng: &mut dyn RngCore,
    ) -> Result<Placement, CoreError>;

    /// A short human-readable name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

/// Checks there is enough aggregate storage for `k` replicas of every stripe,
/// shared by the replica-placing allocators.
pub(crate) fn check_capacity(
    boxes: &BoxSet,
    catalog: &Catalog,
    replication: u32,
) -> Result<(), CoreError> {
    let required = catalog.stripe_count() * replication as usize;
    let available = boxes.total_storage().slots() as usize;
    if required > available {
        return Err(CoreError::InsufficientStorage {
            required_slots: required,
            available_slots: available,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{Bandwidth, StorageSlots};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_boxes() -> BoxSet {
        BoxSet::homogeneous(3, Bandwidth::ONE_STREAM, StorageSlots::from_slots(4))
    }

    /// An empty placement over `n` boxes for `m` videos of `c` stripes.
    fn empty(n: usize, m: usize, c: u16) -> Placement {
        Placement::empty(n, &Catalog::uniform(m, 60, c))
    }

    #[test]
    fn add_and_query() {
        let mut p = empty(3, 1, 1);
        let s = StripeId::new(VideoId(0), 0);
        assert!(p.add(BoxId(1), s));
        assert!(p.stores(BoxId(1), s));
        assert!(!p.stores(BoxId(0), s));
        assert_eq!(p.holders_of(s), &[BoxId(1)]);
        assert_eq!(p.box_load(BoxId(1)), 1);
        assert_eq!(p.replica_count(s), 1);
    }

    #[test]
    fn duplicate_adds_count_as_wasted() {
        let mut p = empty(2, 1, 1);
        let s = StripeId::new(VideoId(0), 0);
        assert!(p.add(BoxId(0), s));
        assert!(!p.add(BoxId(0), s));
        assert_eq!(p.wasted_slots(), 1);
        assert_eq!(p.box_load(BoxId(0)), 1);
        assert_eq!(p.replica_count(s), 1);
    }

    #[test]
    fn remove_preserves_holder_order() {
        let mut p = empty(4, 1, 1);
        let s = StripeId::new(VideoId(0), 0);
        for b in 0..4u32 {
            p.add(BoxId(b), s);
        }
        assert!(p.remove(BoxId(1), s));
        assert_eq!(p.holders_of(s), &[BoxId(0), BoxId(2), BoxId(3)]);
        assert!(!p.stores(BoxId(1), s));
        assert_eq!(p.box_load(BoxId(1)), 0);
        // Removing a replica the box never held is a no-op.
        assert!(!p.remove(BoxId(1), s));
        assert_eq!(p.replica_count(s), 3);
    }

    #[test]
    fn remove_box_strips_every_replica() {
        let mut p = empty(3, 1, 2);
        let a = StripeId::new(VideoId(0), 0);
        let b = StripeId::new(VideoId(0), 1);
        p.add(BoxId(0), a);
        p.add(BoxId(1), a);
        p.add(BoxId(1), b);
        let lost = p.remove_box(BoxId(1));
        assert_eq!(lost, vec![a, b]);
        assert_eq!(p.holders_of(a), &[BoxId(0)]);
        // The last replica of `b` vanished with the box: the stripe is gone
        // from the holder index entirely.
        assert_eq!(p.holders_of(b), &[] as &[BoxId]);
        assert_eq!(p.replica_count(b), 0);
        assert_eq!(p.stripes().map(|(s, _)| s).collect::<Vec<_>>(), vec![a]);
        assert_eq!(p.box_load(BoxId(1)), 0);
        // Re-adding after departure works (rejoin path).
        assert!(p.add(BoxId(1), b));
        assert_eq!(p.holders_of(b), &[BoxId(1)]);
    }

    #[test]
    fn stores_any_of_checks_all_stripes() {
        let mut p = empty(1, 3, 4);
        p.add(BoxId(0), StripeId::new(VideoId(2), 3));
        assert!(p.stores_any_of(BoxId(0), VideoId(2), 4));
        assert!(!p.stores_any_of(BoxId(0), VideoId(1), 4));
    }

    #[test]
    fn validate_detects_overload_and_missing_replicas() {
        let boxes = tiny_boxes();
        let catalog = Catalog::uniform(2, 60, 2);
        let mut p = Placement::empty(3, &catalog);
        // Under-replicated: no replicas at all.
        assert!(p.validate(&boxes, &catalog, 1).is_err());
        // Fill each stripe once, spread across boxes.
        for (i, s) in catalog.stripes().enumerate() {
            p.add(BoxId((i % 3) as u32), s);
        }
        assert!(p.validate(&boxes, &catalog, 1).is_ok());
        // Overload box 0 beyond its 4 slots (videos past the catalog: the
        // table grows by whole videos).
        for v in 10..20u32 {
            p.add(BoxId(0), StripeId::new(VideoId(v), 0));
        }
        assert!(p.validate(&boxes, &catalog, 1).is_err());
    }

    #[test]
    fn capacity_check() {
        let boxes = tiny_boxes(); // 12 slots total
        let catalog = Catalog::uniform(3, 60, 2); // 6 stripes
        assert!(check_capacity(&boxes, &catalog, 2).is_ok()); // 12 ≤ 12
        assert!(check_capacity(&boxes, &catalog, 3).is_err()); // 18 > 12
    }

    #[test]
    fn load_extremes_on_empty_placement() {
        let p = empty(0, 0, 1);
        assert_eq!(p.max_load(), 0);
        assert_eq!(p.min_load(), 0);
        assert_eq!(p.total_replicas(), 0);
    }

    /// The naive placement the table is checked against: the surviving
    /// `(box, stripe)` pairs in insertion order. Both directions are
    /// order-preserving filters of this one list.
    #[derive(Default)]
    struct Model {
        pairs: Vec<(BoxId, StripeId)>,
        wasted: usize,
    }

    impl Model {
        fn add(&mut self, b: BoxId, s: StripeId) -> bool {
            if self.pairs.contains(&(b, s)) {
                self.wasted += 1;
                return false;
            }
            self.pairs.push((b, s));
            true
        }
        fn remove(&mut self, b: BoxId, s: StripeId) -> bool {
            match self.pairs.iter().position(|&p| p == (b, s)) {
                Some(pos) => {
                    self.pairs.remove(pos);
                    true
                }
                None => false,
            }
        }
        fn remove_box(&mut self, b: BoxId) -> Vec<StripeId> {
            let stripes = self.stored_by(b);
            self.pairs.retain(|&(holder, _)| holder != b);
            stripes
        }
        fn holders_of(&self, s: StripeId) -> Vec<BoxId> {
            let of_s = self.pairs.iter().filter(|&&(_, stripe)| stripe == s);
            of_s.map(|&(b, _)| b).collect()
        }
        fn stored_by(&self, b: BoxId) -> Vec<StripeId> {
            let of_b = self.pairs.iter().filter(|&&(holder, _)| holder == b);
            of_b.map(|&(_, s)| s).collect()
        }
    }

    /// Every query of `p` against the model, over `videos` videos of `c`
    /// stripes plus a stripe past each edge of the table.
    fn assert_matches_model(p: &Placement, model: &Model, n: usize, videos: u32, c: u16, at: &str) {
        let mut nonempty = Vec::new();
        for video in 0..videos {
            for index in 0..c {
                let s = StripeId::new(VideoId(video), index);
                let holders = model.holders_of(s);
                assert_eq!(p.holders_of(s), holders.as_slice(), "{at}: holders of {s}");
                assert_eq!(p.replica_count(s), holders.len(), "{at}: count of {s}");
                for b in (0..n as u32).map(BoxId) {
                    assert_eq!(p.stores(b, s), holders.contains(&b), "{at}: {b} stores {s}");
                }
                if !holders.is_empty() {
                    nonempty.push((s, holders));
                }
            }
        }
        for b in (0..n as u32).map(BoxId) {
            let stored = model.stored_by(b);
            assert_eq!(
                p.stored_by(b).collect::<Vec<_>>(),
                stored,
                "{at}: stored by {b}"
            );
            assert_eq!(p.box_load(b), stored.len(), "{at}: load of {b}");
        }
        assert_eq!(p.wasted_slots(), model.wasted, "{at}: wasted");
        assert_eq!(p.total_replicas(), model.pairs.len(), "{at}: total");
        // `stripes()` ascends and skips rows without holders.
        let listed: Vec<(StripeId, Vec<BoxId>)> =
            p.stripes().map(|(s, h)| (s, h.to_vec())).collect();
        assert_eq!(listed, nonempty, "{at}: stripes()");
        assert_eq!(&p.clone(), p, "{at}: clone");
        let back = Placement::from_json_str(&p.to_json_string()).expect("own JSON loads");
        assert_eq!(&back, p, "{at}: JSON round trip");
        // Equal means equal answers, not just `==`.
        for (s, holders) in &nonempty {
            assert_eq!(
                back.holders_of(*s),
                holders.as_slice(),
                "{at}: reloaded {s}"
            );
        }
    }

    /// Seeded model test: random `add` / duplicate `add` / `remove` /
    /// `remove_box` / re-`add` sequences, checked after every step.
    #[test]
    fn random_mutation_sequences_match_the_naive_model() {
        const CATALOG_VIDEOS: u32 = 3;
        // Adds also reach one video past the catalog: the table grows.
        const VIDEOS: u32 = CATALOG_VIDEOS + 1;
        let mut longest_row = 0;
        for seq in 0..200u64 {
            let n = [1usize, 63, 64, 65][seq as usize % 4];
            let c = [1u16, 4, 6][(seq as usize / 4) % 3];
            let mut rng = StdRng::seed_from_u64(0x7ab1e + seq);
            let mut p = empty(n, CATALOG_VIDEOS as usize, c);
            let mut model = Model::default();
            let mut removed: Vec<(BoxId, StripeId)> = Vec::new();
            // The hot stripe sits in the table's last catalog row and
            // collects far more holders than a row's initial capacity.
            let hot = StripeId::new(VideoId(CATALOG_VIDEOS - 1), c - 1);
            let steps = if n == 1 { 30 } else { 110 };
            for step in 0..steps {
                let at = format!("seq {seq} (n {n}, c {c}) step {step}");
                let b = BoxId(rng.gen_range(0..n as u32));
                let s = StripeId::new(VideoId(rng.gen_range(0..VIDEOS)), rng.gen_range(0..c));
                match rng.gen_range(0..100u32) {
                    0..=24 => assert_eq!(p.add(b, s), model.add(b, s), "{at}"),
                    25..=64 => {
                        // The next box (from a random start) not yet holding
                        // the hot stripe, so its row keeps growing.
                        let fresh = (0..n as u32)
                            .map(|o| BoxId((b.0 + o) % n as u32))
                            .find(|&x| !model.pairs.contains(&(x, hot)))
                            .unwrap_or(b);
                        assert_eq!(p.add(fresh, hot), model.add(fresh, hot), "{at}");
                    }
                    65..=71 => {
                        if let Some(&(b, s)) = model.pairs.get(step % model.pairs.len().max(1)) {
                            assert!(!p.add(b, s), "{at}: duplicate add");
                            assert!(!model.add(b, s));
                        }
                    }
                    72..=86 => {
                        // Mostly a stored pair, sometimes one never stored.
                        let (b, s) = match model.pairs.get(step % model.pairs.len().max(1)) {
                            Some(&pair) if rng.gen_range(0..4) != 0 => pair,
                            _ => (b, s),
                        };
                        let was = model.remove(b, s);
                        assert_eq!(p.remove(b, s), was, "{at}");
                        if was {
                            removed.push((b, s));
                        }
                    }
                    87..=90 => {
                        let lost = model.remove_box(b);
                        assert_eq!(p.remove_box(b), lost, "{at}");
                        removed.extend(lost.into_iter().map(|s| (b, s)));
                    }
                    _ => {
                        if let Some((b, s)) = removed.pop() {
                            assert_eq!(p.add(b, s), model.add(b, s), "{at}: re-add");
                        }
                    }
                }
                longest_row = longest_row.max(p.replica_count(hot));
                assert_matches_model(&p, &model, n, VIDEOS + 1, c, &at);
            }
        }
        assert!(
            longest_row >= 40,
            "a row must relocate several times ({longest_row})"
        );
    }

    #[test]
    fn reads_outside_the_table_are_empty_and_never_panic() {
        let mut p = empty(2, 2, 4);
        for s in Catalog::uniform(2, 60, 4).stripes() {
            p.add(BoxId(0), s);
        }
        let outside = [
            StripeId::new(VideoId(0), 4),        // index ≥ c: would alias 1#0
            StripeId::new(VideoId(1), u16::MAX), // far past c
            StripeId::new(VideoId(2), 0),        // video past the last row
            StripeId::new(VideoId(u32::MAX), 3),
        ];
        for s in outside {
            assert_eq!(p.holders_of(s), &[] as &[BoxId], "{s}");
            assert!(!p.stores(BoxId(0), s), "{s}");
            assert_eq!(p.replica_count(s), 0, "{s}");
            assert!(!p.remove(BoxId(0), s), "{s}");
        }
        assert!(!p.stores_any_of(BoxId(0), VideoId(7), 4));
        assert_eq!(p.total_replicas(), 8);
    }

    #[test]
    #[should_panic(expected = "stripe v0#4 added to a placement of c = 4 stripes per video")]
    fn add_of_an_index_past_c_is_a_caller_bug() {
        let mut p = empty(2, 2, 4);
        p.add(BoxId(0), StripeId::new(VideoId(0), 4));
    }

    /// The JSON of a two-box placement holding `0#0` on both boxes (box 1
    /// first) and `1#2` on box 0, with `edit` applied to the text.
    fn edited_json(edit: impl Fn(String) -> String) -> Result<Placement, JsonError> {
        let mut p = empty(2, 2, 3);
        p.add(BoxId(1), StripeId::new(VideoId(0), 0));
        p.add(BoxId(0), StripeId::new(VideoId(0), 0));
        p.add(BoxId(0), StripeId::new(VideoId(1), 2));
        Placement::from_json_str(&edit(p.to_json_string()))
    }

    #[test]
    fn json_persists_c_and_both_orders() {
        let back = edited_json(|text| text).unwrap();
        assert_eq!(back.stripes_per_video, 3);
        // Box 1 was added first: ascending box order would lose that.
        assert_eq!(
            back.holders_of(StripeId::new(VideoId(0), 0)),
            &[BoxId(1), BoxId(0)]
        );
        assert_eq!(
            back.stored_by(BoxId(0)).collect::<Vec<_>>(),
            [StripeId::new(VideoId(0), 0), StripeId::new(VideoId(1), 2)]
        );
    }

    #[test]
    fn json_without_the_table_fields_still_loads() {
        // The format before the table: per-box lists and the waste only.
        let legacy = r#"{"per_box":[[{"video":0,"index":0},{"video":1,"index":2}],
            [{"video":0,"index":0}]],"wasted_slots":1}"#;
        let p = Placement::from_json_str(legacy).unwrap();
        assert_eq!(p.stripes_per_video, 3, "max index + 1");
        assert_eq!(
            p.holders_of(StripeId::new(VideoId(0), 0)),
            &[BoxId(0), BoxId(1)]
        );
        assert_eq!(p.holders_of(StripeId::new(VideoId(1), 2)), &[BoxId(0)]);
        assert_eq!(p.wasted_slots(), 1);
        assert_eq!(Placement::from_json(&p.to_json()).unwrap(), p);
        // A video id out of all proportion to the file is refused before
        // anything is sized from it.
        let sparse = r#"{"per_box":[[{"video":4000000000,"index":0}]],"wasted_slots":0}"#;
        assert!(Placement::from_json_str(sparse).is_err());
        let wide = r#"{"per_box":[[{"video":0,"index":65535}]],"wasted_slots":0}"#;
        assert!(
            Placement::from_json_str(wide).is_err(),
            "c = 65536 fits no u16"
        );
        let twice = r#"{"per_box":[[{"video":0,"index":0},{"video":0,"index":0}]],
            "wasted_slots":0}"#;
        assert!(Placement::from_json_str(twice).is_err());
    }

    #[test]
    fn json_that_contradicts_itself_is_an_error_not_a_panic() {
        let cases: [(&str, &str, &str); 7] = [
            (
                "c below a stored index",
                "\"stripes_per_video\":3",
                "\"stripes_per_video\":2",
            ),
            (
                "c of zero",
                "\"stripes_per_video\":3",
                "\"stripes_per_video\":0",
            ),
            (
                "rows not a multiple of c",
                "\"stripes_per_video\":3",
                "\"stripes_per_video\":4",
            ),
            (
                "holder past the box count",
                "\"holders\":[[1,0]",
                "\"holders\":[[1,2]",
            ),
            (
                "holder listed twice",
                "\"holders\":[[1,0]",
                "\"holders\":[[1,1]",
            ),
            (
                "holder without a stored replica",
                "\"holders\":[[1,0],[]",
                "\"holders\":[[1,0],[1]",
            ),
            (
                "stored replica without a holder",
                "\"holders\":[[1,0]",
                "\"holders\":[[1]",
            ),
        ];
        for (what, from, to) in cases {
            let result = edited_json(|text| {
                assert!(text.contains(from), "{what}: {text}");
                text.replacen(from, to, 1)
            });
            assert!(result.is_err(), "{what} must be refused");
        }
        // A per-box stripe whose video lies past the persisted rows.
        let past = edited_json(|text| text.replacen("\"video\":1", "\"video\":9", 1));
        assert!(past.is_err());
    }
}
