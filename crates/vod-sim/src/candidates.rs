//! Incremental candidate-index maintenance: the expiry wheel.
//!
//! Every round the engine must know, per stripe, which boxes currently hold
//! the stripe in their playback cache (the swarming half of Lemma 1's
//! candidate set `B(x)`; the sourcing half — static allocation holders —
//! never changes). A `HashMap<StripeId, Vec<BoxId>>` kept alive by a full
//! `retain` sweep over **every** live entry each round would cost
//! O(total cache state) per round even when nothing changed.
//!
//! The [`CandidateIndex`] is instead an incremental structure built on the
//! observation that a cache entry's eviction round is known exactly at
//! insertion: an entry downloaded from round `start` leaves the cache
//! window the first round `now` with `start + window < now`, i.e. at round
//! `start + window + 1`. Entries are therefore bucketed into an **expiry
//! wheel** (a ring of buckets indexed by eviction round), and per-round
//! maintenance is O(entries expiring *now*) + O(insertions) instead of
//! O(all live entries):
//!
//! * [`CandidateIndex::begin_round`] drains exactly the bucket(s) whose
//!   round has come, removing each expired entry from its per-stripe list;
//! * [`CandidateIndex::insert`] gives O(1) membership via a packed-key map
//!   (no linear `contains` scans); a re-download of a cached
//!   stripe updates the start in place and re-files the entry under its new
//!   eviction round, leaving the stale wheel record to be skipped when its
//!   bucket drains (current-start check);
//! * per-stripe lists keep strict insertion order with ordered removals, so
//!   a candidate row lists its cache holders in the order they started
//!   caching — the order `tests/active_set.rs` checks every row against,
//!   with a naive model of the caches;
//! * every change that can alter a row *already built* from a stripe — an
//!   expiry, a purge, a refresh, a holder-list change; not a fresh insert,
//!   whose start is never before the issue round of an existing request —
//!   draws the stripe a fresh [`CandidateIndex::shrink_stamp`]. The engine
//!   validates its memoized class rows against it, so a growing crowd does
//!   not rebuild the rows of the viewers already in it;
//! * a departure ([`CandidateIndex::purge_box`]) visits only the stripes
//!   the box caches: from the run's first purge on, each box's entries are
//!   chained through the entry map, so a purge costs what the box held, not
//!   a walk of the whole catalog;
//! * only stripes the index has touched own a list and a stamp: a dense
//!   `u32` row index per stripe slot names them, so a catalog linear in the
//!   fleet costs four bytes a stripe while few boxes are watching.

use std::collections::{hash_map, HashMap};
use std::hash::BuildHasherDefault;
use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::{BoxId, StripeId};

type EntryMap = HashMap<u128, Entry, BuildHasherDefault<vod_core::FxHasher64>>;

/// End of a box's chain of entries; a stripe slot without a row.
const NIL: u32 = u32::MAX;

/// A live entry: its current download start, and the stripe slots of its
/// neighbours in its box's chain (both [`NIL`] until the run's first
/// purge builds the chains). The links ride in the padding of the map's
/// `(u128, u64)` bucket, so chaining adds no memory per entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    start: u64,
    prev: u32,
    next: u32,
}

/// One record filed in the expiry wheel. Records are immutable once filed:
/// a refreshed entry files a *new* record under its new eviction round, and
/// the old record is recognized as stale (current start disagrees) when its
/// bucket drains.
#[derive(Clone, Copy, Debug)]
struct WheelRecord {
    stripe: StripeId,
    box_id: BoxId,
    /// The eviction round this record was filed under.
    expiry: u64,
}

/// Per-round observability of the candidate pipeline, threaded into
/// [`crate::metrics::RoundMetrics::candidates`]. Pure structure: the
/// pipeline's wall-clock lives in the tracer's
/// [`Stage::CandidateMaintain`](vod_obs::Stage::CandidateMaintain) and
/// [`Stage::CandidateFill`](vod_obs::Stage::CandidateFill) spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Live (stripe, box) cache-index entries after this round's
    /// maintenance.
    pub index_entries: usize,
    /// Entries evicted by this round's maintenance.
    pub expired: usize,
    /// New entries inserted this round (refreshes of existing entries do
    /// not count).
    pub inserted: usize,
}

impl JsonCodec for CandidateStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("index_entries", self.index_entries.to_json()),
            ("expired", self.expired.to_json()),
            ("inserted", self.inserted.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(CandidateStats {
            index_entries: usize::from_json(json.field("index_entries")?)?,
            expired: usize::from_json(json.field("expired")?)?,
            inserted: usize::from_json(json.field("inserted")?)?,
        })
    }
}

/// Incremental per-stripe index of playback-cache holders, maintained by an
/// expiry wheel.
///
/// ```
/// use vod_core::{BoxId, StripeId, VideoId};
/// use vod_sim::CandidateIndex;
///
/// let stripe = StripeId::new(VideoId(0), 1);
/// // Window of 4 rounds, 2 stripes per video.
/// let mut index = CandidateIndex::new(4, 2);
/// index.begin_round(0);
/// index.insert(stripe, BoxId(7), 0, 0);
/// assert_eq!(index.candidates(stripe), &[(BoxId(7), 0)]);
///
/// // The entry expires exactly when `start + window < now`: round 5.
/// for now in 1..=4 {
///     index.begin_round(now);
///     assert_eq!(index.candidates(stripe).len(), 1, "round {now}");
/// }
/// index.begin_round(5);
/// assert!(index.candidates(stripe).is_empty());
/// assert_eq!(index.expired_this_round(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct CandidateIndex {
    /// The cache window `T` (video duration in rounds).
    window: u64,
    /// Stripes per video, for dense stripe-slot arithmetic.
    stripes_per_video: u16,
    /// Per stripe slot, the stripe's row in `lists` and `shrunk`, or
    /// [`NIL`] for a stripe never touched (an empty list, stamp 0). A row,
    /// once given, is kept for the index's lifetime.
    rows: Vec<u32>,
    /// Per-row holder lists `(box, start)`, kept in strict insertion order
    /// (ordered removals): candidate rows list cache holders in the order
    /// they started caching.
    lists: Vec<Vec<(BoxId, u64)>>,
    /// Per-row shrink stamp: the value of `shrinks` at the last change
    /// other than a fresh insert; 0 = none yet.
    shrunk: Vec<u64>,
    /// Shrink events so far, over all stripes (so no two events share a
    /// stamp, whatever rounds they happen in).
    shrinks: u64,
    /// Packed (stripe, box) → current download start and chain links: O(1)
    /// membership and refresh detection.
    entries: EntryMap,
    /// The expiry wheel: ring of buckets indexed by `expiry % wheel.len()`.
    wheel: Vec<Vec<WheelRecord>>,
    /// Every round up to and including this one has been drained.
    drained_to: u64,
    /// Scratch of [`CandidateIndex::begin_round`] (the rows a drained
    /// bucket's expiries touch) and [`CandidateIndex::purge_box`] (the
    /// stripe slots a departure touches); empty between calls.
    expiring: Vec<usize>,
    /// Whether the per-box chains are kept: from the run's first purge on,
    /// so a run without departures never pays for them.
    chained: bool,
    /// Per box, the stripe slot at the head of its chain of live entries
    /// (linked through [`Entry::prev`] / [`Entry::next`]), or [`NIL`].
    heads: Vec<u32>,
    /// Live entry count (= `entries.len()`, tracked for O(1) stats).
    live: usize,
    expired_this_round: usize,
    inserted_this_round: usize,
}

/// Packs a (stripe, box) pair into the entry-map key (injective: 32-bit
/// video, 16-bit stripe index, 32-bit box).
fn pack(stripe: StripeId, box_id: BoxId) -> u128 {
    ((stripe.video.0 as u128) << 48) | ((stripe.index as u128) << 32) | box_id.0 as u128
}

impl CandidateIndex {
    /// Creates an index for caches with the given window (the video
    /// duration `T`) and stripe count per video.
    pub fn new(window: u64, stripes_per_video: u16) -> Self {
        // Entries are filed at most `window + lead` rounds ahead (starts lie
        // in the near future: a download plan activates within a few rounds
        // of swarm entry). The ring grows on demand if a workload exceeds
        // this, so the initial sizing is only a reallocation heuristic.
        let ring = usize::try_from(window)
            .unwrap_or(usize::MAX / 4)
            .saturating_mul(2)
            .saturating_add(8)
            .next_power_of_two();
        CandidateIndex {
            window,
            stripes_per_video: stripes_per_video.max(1),
            rows: Vec::new(),
            lists: Vec::new(),
            shrunk: Vec::new(),
            shrinks: 0,
            entries: EntryMap::default(),
            wheel: (0..ring).map(|_| Vec::new()).collect(),
            drained_to: 0,
            expiring: Vec::new(),
            chained: false,
            heads: Vec::new(),
            live: 0,
            expired_this_round: 0,
            inserted_this_round: 0,
        }
    }

    /// Dense slot of a stripe: `video · c + index`.
    fn slot(&self, stripe: StripeId) -> usize {
        stripe.global_index(self.stripes_per_video)
    }

    /// The row of the stripe at `slot`, if it has one.
    fn row_at(&self, slot: usize) -> Option<usize> {
        match self.rows.get(slot) {
            Some(&row) if row != NIL => Some(row as usize),
            _ => None,
        }
    }

    /// The row of `stripe`, given an empty list and stamp 0 on first touch.
    fn row_mut(&mut self, stripe: StripeId) -> usize {
        let slot = self.slot(stripe);
        if let Some(row) = self.row_at(slot) {
            return row;
        }
        if slot >= self.rows.len() {
            self.rows.resize(slot + 1, NIL);
        }
        let row = self.lists.len();
        self.rows[slot] = u32::try_from(row)
            .ok()
            .filter(|&row| row != NIL)
            .expect("candidate rows indexed by u32");
        self.lists.push(Vec::new());
        self.shrunk.push(0);
        row
    }

    /// The stripe at dense slot `slot`.
    fn stripe_at(&self, slot: usize) -> StripeId {
        StripeId::from_global_index(slot, self.stripes_per_video)
    }

    /// Stamps a change of `row`'s stripe that is not a fresh insert.
    fn note_shrink(&mut self, row: usize) {
        self.shrinks += 1;
        self.shrunk[row] = self.shrinks;
    }

    /// Starts a round: drains every wheel bucket whose eviction round has
    /// come and resets the per-round counters. O(entries expiring now + the
    /// lists they leave), not O(live entries): a drained bucket's entries
    /// leave the entry map one by one, each drawing its stripe a shrink
    /// stamp, and then each stripe that lost any drops all of them in one
    /// ordered pass over its list — however many of a crowd's entries
    /// expire together, the list is walked once.
    pub fn begin_round(&mut self, now: u64) {
        self.expired_this_round = 0;
        self.inserted_this_round = 0;
        while self.drained_to < now {
            let round = self.drained_to + 1;
            let idx = (round % self.wheel.len() as u64) as usize;
            // Detach the bucket so entry/list maintenance can borrow `self`;
            // records for a later turn of the ring (impossible while a
            // record's expiry always lies within one ring turn of its filing
            // round, but kept correct defensively) are compacted in place.
            let mut bucket = std::mem::take(&mut self.wheel[idx]);
            let stamped_before = self.shrinks;
            let mut keep = 0;
            for i in 0..bucket.len() {
                let record = bucket[i];
                debug_assert!(record.expiry >= round, "record outlived its bucket");
                if record.expiry != round {
                    bucket[keep] = record;
                    keep += 1;
                    continue;
                }
                // Stale record: the entry was purged, or refreshed to a
                // later start (and re-filed) after this record was written.
                let key = pack(record.stripe, record.box_id);
                let hash_map::Entry::Occupied(live) = self.entries.entry(key) else {
                    continue;
                };
                if live.get().start + self.window + 1 != round {
                    continue;
                }
                let entry = live.remove();
                if self.chained {
                    self.unlink(record.box_id, entry);
                }
                let row = self
                    .row_at(self.slot(record.stripe))
                    .expect("a live entry's stripe has a row");
                // A stamp drawn since the drain began marks a stripe that is
                // listed already.
                if self.shrunk[row] <= stamped_before {
                    self.expiring.push(row);
                }
                self.note_shrink(row);
            }
            bucket.truncate(keep);
            // Return the bucket's storage (and any kept records) to the ring.
            self.wheel[idx] = bucket;
            // A listed entry leaves in this round exactly when its start
            // says so (the map and the lists agree on starts, and every
            // start was filed under its eviction round), so the entries to
            // drop need no membership table: one ordered `retain` per
            // stripe keeps the legacy insertion order intact.
            let expired = (self.shrinks - stamped_before) as usize;
            let mut dropped = 0;
            for row in self.expiring.drain(..) {
                let list = &mut self.lists[row];
                let before = list.len();
                list.retain(|&(_, start)| start + self.window + 1 != round);
                dropped += before - list.len();
            }
            debug_assert_eq!(dropped, expired, "lists and entry map disagree");
            self.live -= expired;
            self.expired_this_round += expired;
            self.drained_to = round;
        }
    }

    /// Records that `box_id` starts downloading (and therefore caching)
    /// `stripe` at round `start ≥ now`. A later start than the current
    /// entry refreshes it ("data most recently viewed" wins); an earlier
    /// one is ignored.
    pub fn insert(&mut self, stripe: StripeId, box_id: BoxId, start: u64, now: u64) {
        debug_assert!(self.drained_to <= now, "round went backwards");
        let key = pack(stripe, box_id);
        let expiry = start + self.window + 1;
        debug_assert!(expiry > now, "inserting an already-expired entry");
        let row = self.row_mut(stripe);
        match self.entries.get_mut(&key) {
            Some(current) => {
                if current.start >= start {
                    return; // an equal or newer download is already cached
                }
                current.start = start;
                let list = &mut self.lists[row];
                let pos = list
                    .iter()
                    .position(|&(b, _)| b == box_id)
                    .expect("live entry is listed");
                list[pos].1 = start;
                self.note_shrink(row);
            }
            None => {
                let next = if self.chained {
                    self.push_head(box_id, self.slot(stripe))
                } else {
                    NIL
                };
                let entry = Entry {
                    start,
                    prev: NIL,
                    next,
                };
                self.entries.insert(key, entry);
                self.lists[row].push((box_id, start));
                self.live += 1;
                self.inserted_this_round += 1;
            }
        }
        self.file(WheelRecord {
            stripe,
            box_id,
            expiry,
        });
    }

    /// Files a record into its wheel bucket, growing the ring if the
    /// eviction round lies beyond it.
    fn file(&mut self, record: WheelRecord) {
        let len = self.wheel.len() as u64;
        if record.expiry > self.drained_to + len {
            self.grow(record.expiry);
        }
        let idx = (record.expiry % self.wheel.len() as u64) as usize;
        self.wheel[idx].push(record);
    }

    /// Grows the ring to cover `expiry`, redistributing the filed records.
    fn grow(&mut self, expiry: u64) {
        let needed = (expiry - self.drained_to + 1).next_power_of_two() as usize;
        let mut old = std::mem::replace(&mut self.wheel, (0..needed).map(|_| Vec::new()).collect());
        for bucket in old.iter_mut() {
            for record in bucket.drain(..) {
                let idx = (record.expiry % needed as u64) as usize;
                self.wheel[idx].push(record);
            }
        }
    }

    /// Evicts every live entry of `box_id` immediately (the box departed):
    /// ordered removals from the per-stripe lists, stamp bumps on every
    /// touched stripe, and entry-map removal. Stale wheel records need no
    /// cleanup — with the entry gone from the map, the current-start check
    /// skips them when their bucket drains. Returns the number of entries
    /// purged; they count toward this round's expiry stats.
    ///
    /// O(entries the box held + the lists they leave): the box's chain
    /// names its slots, visited in ascending order — the order a scan of
    /// every slot meets them in, so removals and stamps are the scan's. The
    /// run's first purge builds the chains, in one walk of the lists.
    pub fn purge_box(&mut self, box_id: BoxId) -> usize {
        if !self.chained {
            self.build_chains();
        }
        let mut slots = std::mem::take(&mut self.expiring);
        let mut at = self
            .heads
            .get_mut(box_id.index())
            .map_or(NIL, |head| std::mem::replace(head, NIL));
        while at != NIL {
            let key = pack(self.stripe_at(at as usize), box_id);
            let entry = self
                .entries
                .remove(&key)
                .expect("a chained slot holds an entry");
            slots.push(at as usize);
            at = entry.next;
        }
        slots.sort_unstable();
        debug_assert_eq!(slots, self.held_by_scan(box_id), "chain of {box_id}");
        for &slot in &slots {
            let row = self.row_at(slot).expect("a chained slot has a row");
            let list = &mut self.lists[row];
            let pos = list
                .iter()
                .position(|&(b, _)| b == box_id)
                .expect("a chained slot lists its box");
            list.remove(pos);
            self.note_shrink(row);
        }
        let purged = slots.len();
        slots.clear();
        self.expiring = slots;
        self.live -= purged;
        self.expired_this_round += purged;
        purged
    }

    /// Chains every live entry to its box (the run's first purge), in
    /// ascending stripe slot order.
    fn build_chains(&mut self) {
        self.chained = true;
        for slot in 0..self.rows.len() {
            let Some(row) = self.row_at(slot) else {
                continue;
            };
            for i in 0..self.lists[row].len() {
                let box_id = self.lists[row][i].0;
                let next = self.push_head(box_id, slot);
                let key = pack(self.stripe_at(slot), box_id);
                let entry = self.entries.get_mut(&key).expect("a listed entry is live");
                (entry.prev, entry.next) = (NIL, next);
            }
        }
    }

    /// Makes `slot` the head of `box_id`'s chain and returns the old head,
    /// which the caller links as the entry's `next`.
    fn push_head(&mut self, box_id: BoxId, slot: usize) -> u32 {
        let b = box_id.index();
        if b >= self.heads.len() {
            self.heads.resize(b + 1, NIL);
        }
        let head = std::mem::replace(&mut self.heads[b], slot as u32);
        if head != NIL {
            self.link_mut(head, box_id).prev = slot as u32;
        }
        head
    }

    /// Closes the gap a removed `entry` of `box_id` leaves in its chain.
    fn unlink(&mut self, box_id: BoxId, entry: Entry) {
        if entry.prev == NIL {
            self.heads[box_id.index()] = entry.next;
        } else {
            self.link_mut(entry.prev, box_id).next = entry.next;
        }
        if entry.next != NIL {
            self.link_mut(entry.next, box_id).prev = entry.prev;
        }
    }

    /// The chained entry of `box_id` at stripe slot `slot`.
    fn link_mut(&mut self, slot: u32, box_id: BoxId) -> &mut Entry {
        let key = pack(self.stripe_at(slot as usize), box_id);
        self.entries
            .get_mut(&key)
            .expect("a chain names live entries")
    }

    /// The slots whose list names `box_id`, by a scan of every list: what
    /// its chain must hold (the debug cross-check of
    /// [`CandidateIndex::purge_box`]).
    fn held_by_scan(&self, box_id: BoxId) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&slot| {
                self.row_at(slot)
                    .is_some_and(|row| self.lists[row].iter().any(|&(b, _)| b == box_id))
            })
            .collect()
    }

    /// Bumps `stripe`'s change stamp without touching its cache entries.
    /// Used when the stripe's *static-holder* half changed (a repaired
    /// replica landed, a departed box was stripped from the live
    /// placement), so memoized candidate rows and incremental schedulers
    /// rebuild the row instead of replaying a stale one.
    pub fn touch(&mut self, stripe: StripeId) {
        let row = self.row_mut(stripe);
        self.note_shrink(row);
    }

    /// Boxes currently holding `stripe` in their playback cache, with their
    /// download start rounds, in insertion order. Every listed entry is
    /// live: `start + window ≥` the round last passed to
    /// [`CandidateIndex::begin_round`].
    pub fn candidates(&self, stripe: StripeId) -> &[(BoxId, u64)] {
        self.row_at(self.slot(stripe))
            .map_or(&[], |row| self.lists[row].as_slice())
    }

    /// Shrink stamp of `stripe`: redrawn (never reused, by any stripe) on
    /// every expiry, purge, refresh and [`CandidateIndex::touch`], 0 before
    /// the first. A fresh insert leaves it alone: the new entry's start is
    /// at or after the current round, so it is not *before* the issue round
    /// of any request that already exists and enters none of their rows.
    /// Equal stamps therefore guarantee that a row built from the stripe for
    /// a fixed issue round is still what a rebuild would give.
    pub fn shrink_stamp(&self, stripe: StripeId) -> u64 {
        self.row_at(self.slot(stripe))
            .map_or(0, |row| self.shrunk[row])
    }

    /// Live (stripe, box) entries currently indexed.
    pub fn live_entries(&self) -> usize {
        self.live
    }

    /// Entries evicted by the current round's [`CandidateIndex::begin_round`].
    pub fn expired_this_round(&self) -> usize {
        self.expired_this_round
    }

    /// New entries inserted since the current round began.
    pub fn inserted_this_round(&self) -> usize {
        self.inserted_this_round
    }

    /// Iterator over every live entry: `(stripe, box, start)` (test and
    /// diagnostics support; ordering follows the per-stripe lists).
    pub fn iter_live(&self) -> impl Iterator<Item = (StripeId, BoxId, u64)> + '_ {
        (0..self.rows.len()).flat_map(move |slot| {
            let stripe = self.stripe_at(slot);
            let list = self.row_at(slot).map_or(&[][..], |row| &self.lists[row]);
            list.iter().map(move |&(b, start)| (stripe, b, start))
        })
    }

    /// Stripes that own a list and a stamp.
    #[cfg(test)]
    fn touched_rows(&self) -> usize {
        self.lists.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::VideoId;

    fn s(v: u32, i: u16) -> StripeId {
        StripeId::new(VideoId(v), i)
    }

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    #[test]
    fn insert_expire_lifecycle_matches_window_semantics() {
        let mut index = CandidateIndex::new(3, 4);
        index.begin_round(0);
        index.insert(s(0, 0), b(1), 0, 0);
        index.insert(s(0, 0), b(2), 1, 0); // future start (postponed stripe)
        assert_eq!(index.live_entries(), 2);
        assert_eq!(index.inserted_this_round(), 2);

        // b(1) expires at round 4 (0 + 3 + 1), b(2) at round 5.
        index.begin_round(3);
        assert_eq!(index.candidates(s(0, 0)), &[(b(1), 0), (b(2), 1)]);
        index.begin_round(4);
        assert_eq!(index.candidates(s(0, 0)), &[(b(2), 1)]);
        assert_eq!(index.expired_this_round(), 1);
        index.begin_round(5);
        assert!(index.candidates(s(0, 0)).is_empty());
        assert_eq!(index.live_entries(), 0);
    }

    #[test]
    fn refresh_extends_lifetime_and_keeps_position() {
        let mut index = CandidateIndex::new(3, 1);
        index.begin_round(0);
        index.insert(s(0, 0), b(1), 0, 0);
        index.insert(s(0, 0), b(2), 0, 0);
        // Refresh b(1) to a later start: position in the list is unchanged.
        index.begin_round(2);
        index.insert(s(0, 0), b(1), 2, 2);
        assert_eq!(index.candidates(s(0, 0)), &[(b(1), 2), (b(2), 0)]);
        assert_eq!(index.inserted_this_round(), 0, "refresh is not an insert");
        // Round 4: b(2) (start 0) expires, b(1) survives via the refresh;
        // the stale wheel record for b(1)'s original expiry is skipped.
        index.begin_round(4);
        assert_eq!(index.candidates(s(0, 0)), &[(b(1), 2)]);
        // Round 6: the refreshed entry expires (2 + 3 + 1).
        index.begin_round(6);
        assert!(index.candidates(s(0, 0)).is_empty());
        // An older start never downgrades the entry.
        index.insert(s(0, 0), b(3), 9, 6);
        index.insert(s(0, 0), b(3), 7, 6);
        assert_eq!(index.candidates(s(0, 0)), &[(b(3), 9)]);
    }

    #[test]
    fn stamps_change_exactly_on_content_changes() {
        let mut index = CandidateIndex::new(5, 2);
        index.begin_round(0);
        index.insert(s(0, 1), b(0), 0, 0);
        // Untouched rounds leave the stamp alone.
        for now in 1..=5 {
            index.begin_round(now);
            assert_eq!(index.shrink_stamp(s(0, 1)), 0, "round {now}");
        }
        // Expiry touches the stripe.
        index.begin_round(6);
        assert!(index.shrink_stamp(s(0, 1)) > 0);
        // Other stripes are unaffected.
        assert_eq!(index.shrink_stamp(s(0, 0)), 0);
        // An ignored (older-start) insert does not touch.
        index.insert(s(1, 0), b(4), 8, 6);
        let stamp = index.shrink_stamp(s(1, 0));
        index.insert(s(1, 0), b(4), 7, 6);
        assert_eq!(index.shrink_stamp(s(1, 0)), stamp);
    }

    #[test]
    fn shrink_stamps_ignore_fresh_inserts_and_are_never_reused() {
        let mut index = CandidateIndex::new(5, 2);
        index.begin_round(0);
        assert_eq!(index.shrink_stamp(s(0, 1)), 0);
        // A crowd growing: fresh inserts only.
        index.insert(s(0, 1), b(0), 0, 0);
        index.begin_round(1);
        index.insert(s(0, 1), b(1), 1, 1);
        index.insert(s(0, 0), b(1), 2, 1);
        assert_eq!(index.shrink_stamp(s(0, 1)), 0);
        // A refresh can take a box out of rows built earlier: new stamp.
        index.insert(s(0, 1), b(0), 3, 1);
        let refreshed = index.shrink_stamp(s(0, 1));
        assert_ne!(refreshed, 0);
        // Two events in one round — one before a row could have been built,
        // one after — must not share a stamp, nor may two stripes.
        index.touch(s(0, 1));
        let touched = index.shrink_stamp(s(0, 1));
        assert_ne!(touched, refreshed);
        index.touch(s(0, 0));
        assert_ne!(index.shrink_stamp(s(0, 0)), touched);
        // Expiry (b(1)'s entry of round 1 leaves at round 7) and purge.
        index.begin_round(7);
        let expired = index.shrink_stamp(s(0, 1));
        assert_ne!(expired, touched);
        index.purge_box(b(0));
        assert_ne!(index.shrink_stamp(s(0, 1)), expired);
    }

    #[test]
    fn wheel_grows_for_far_future_starts() {
        let mut index = CandidateIndex::new(4, 1);
        index.begin_round(0);
        // Far beyond the initial ring (2·window + 8 → 16 buckets).
        index.insert(s(0, 0), b(0), 100, 0);
        index.insert(s(1, 0), b(1), 0, 0);
        index.begin_round(5);
        assert!(index.candidates(s(1, 0)).is_empty(), "near entry expired");
        assert_eq!(index.candidates(s(0, 0)).len(), 1);
        // Jump to the far entry's expiry.
        index.begin_round(105);
        assert!(index.candidates(s(0, 0)).is_empty());
        assert_eq!(index.live_entries(), 0);
    }

    #[test]
    fn purge_box_evicts_everything_immediately() {
        let mut index = CandidateIndex::new(6, 2);
        index.begin_round(0);
        index.insert(s(0, 0), b(1), 0, 0);
        index.insert(s(0, 0), b(2), 0, 0);
        index.insert(s(0, 1), b(1), 0, 0);
        index.insert(s(1, 0), b(3), 0, 0);
        index.begin_round(1);
        let stamps_before = [s(0, 0), s(0, 1), s(1, 0)].map(|stripe| index.shrink_stamp(stripe));
        assert_eq!(index.purge_box(b(1)), 2);
        assert_eq!(index.candidates(s(0, 0)), &[(b(2), 0)]);
        assert!(index.candidates(s(0, 1)).is_empty());
        assert_eq!(index.live_entries(), 2);
        assert_eq!(index.expired_this_round(), 2);
        // Touched stripes are stamped; unrelated stripes are not.
        assert_ne!(index.shrink_stamp(s(0, 0)), stamps_before[0]);
        assert_ne!(index.shrink_stamp(s(0, 1)), stamps_before[1]);
        assert_eq!(index.shrink_stamp(s(1, 0)), stamps_before[2]);
        // The purged box's stale wheel records are skipped when their
        // buckets drain (no panic, no double eviction) — and the box can
        // re-insert after rejoining.
        index.insert(s(0, 0), b(1), 2, 1);
        for now in 2..=10 {
            index.begin_round(now);
        }
        assert_eq!(index.live_entries(), 0);
    }

    /// The naive model of the index: every live `(stripe, box, start)` in
    /// one insertion-ordered vector, swept in full every round.
    #[derive(Default)]
    struct NaiveIndex {
        entries: Vec<(StripeId, BoxId, u64)>,
        expired: usize,
    }

    impl NaiveIndex {
        fn begin_round(&mut self, now: u64, window: u64) {
            let before = self.entries.len();
            self.entries.retain(|&(_, _, start)| start + window >= now);
            self.expired = before - self.entries.len();
        }

        /// Returns what the insert was: `Some(true)` fresh, `Some(false)` a
        /// refresh, `None` ignored.
        fn insert(&mut self, stripe: StripeId, box_id: BoxId, start: u64) -> Option<bool> {
            let held = self
                .entries
                .iter_mut()
                .find(|(s, b, _)| (*s, *b) == (stripe, box_id));
            match held {
                Some(entry) if entry.2 >= start => None,
                Some(entry) => {
                    entry.2 = start;
                    Some(false)
                }
                None => {
                    self.entries.push((stripe, box_id, start));
                    Some(true)
                }
            }
        }

        /// Returns the stripes the box was purged from.
        fn purge_box(&mut self, box_id: BoxId) -> Vec<StripeId> {
            let lost: Vec<StripeId> = self
                .entries
                .iter()
                .filter(|&&(_, b, _)| b == box_id)
                .map(|&(stripe, ..)| stripe)
                .collect();
            self.entries.retain(|&(_, b, _)| b != box_id);
            self.expired += lost.len();
            lost
        }

        fn list(&self, stripe: StripeId) -> Vec<(BoxId, u64)> {
            self.entries
                .iter()
                .filter(|&&(s, ..)| s == stripe)
                .map(|&(_, b, start)| (b, start))
                .collect()
        }
    }

    #[test]
    fn index_tracks_a_naive_model_through_a_seeded_script() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;

        let window = 5u64;
        let stripes: Vec<StripeId> = (0..2).flat_map(|v| (0..2).map(move |i| s(v, i))).collect();
        let boxes = 40u32;
        let mut rng = StdRng::seed_from_u64(2009);
        let mut index = CandidateIndex::new(window, 2);
        let mut model = NaiveIndex::default();
        // Every stamp any stripe ever showed: none may come back.
        let mut drawn: HashSet<u64> = HashSet::new();
        let mut most_expired_at_once = 0;

        // One step of the script: `moved` lists the stripes whose stamp must
        // have been redrawn since `before`; every other stamp must stand.
        let check = |index: &CandidateIndex,
                     model: &NaiveIndex,
                     before: &[u64],
                     moved: &[StripeId],
                     drawn: &mut HashSet<u64>,
                     what: &str| {
            for (&stripe, &old) in stripes.iter().zip(before) {
                assert_eq!(index.candidates(stripe), &model.list(stripe)[..], "{what}");
                let stamp = index.shrink_stamp(stripe);
                if moved.contains(&stripe) {
                    assert!(stamp > old, "{what}: {stripe:?} kept stamp {old}");
                    assert!(drawn.insert(stamp), "{what}: stamp {stamp} reused");
                } else {
                    assert_eq!(stamp, old, "{what}: {stripe:?} restamped");
                }
            }
            assert_eq!(index.live_entries(), model.entries.len(), "{what}");
            assert_eq!(index.expired_this_round(), model.expired, "{what}");
            assert_eq!(index.iter_live().count(), model.entries.len(), "{what}");
        };
        let stamps = |index: &CandidateIndex| {
            stripes
                .iter()
                .map(|&st| index.shrink_stamp(st))
                .collect::<Vec<_>>()
        };

        let mut now = 0u64;
        while now < 400 {
            // Mostly one round at a time, sometimes several buckets at once.
            now += if rng.gen_bool(0.1) {
                rng.gen_range(2u64..5)
            } else {
                1
            };
            let what = format!("round {now}");
            let before = stamps(&index);
            let lists: Vec<usize> = stripes.iter().map(|&st| model.list(st).len()).collect();
            index.begin_round(now);
            model.begin_round(now, window);
            let lost: Vec<StripeId> = stripes
                .iter()
                .zip(&lists)
                .filter(|&(&st, &len)| model.list(st).len() < len)
                .map(|(&st, _)| st)
                .collect();
            most_expired_at_once = most_expired_at_once.max(model.expired);
            check(&index, &model, &before, &lost, &mut drawn, &what);

            // A crowd joins one stripe under one start: they expire together.
            if now.is_multiple_of(7) {
                let stripe = stripes[rng.gen_range(0..stripes.len())];
                let start = now + rng.gen_range(0u64..2);
                for _ in 0..16 {
                    let box_id = b(rng.gen_range(0..boxes));
                    let before = stamps(&index);
                    index.insert(stripe, box_id, start, now);
                    let refreshed = model.insert(stripe, box_id, start) == Some(false);
                    let moved = if refreshed { vec![stripe] } else { vec![] };
                    check(&index, &model, &before, &moved, &mut drawn, &what);
                }
            }
            for _ in 0..rng.gen_range(0..6) {
                let stripe = stripes[rng.gen_range(0..stripes.len())];
                let box_id = b(rng.gen_range(0..boxes));
                let before = stamps(&index);
                let moved = match rng.gen_range(0..10) {
                    // Purge, and often come straight back under a start a
                    // record is already filed for: a duplicate wheel record.
                    0 => {
                        let starts: Vec<_> = model
                            .entries
                            .iter()
                            .filter(|&&(_, b, _)| b == box_id)
                            .copied()
                            .collect();
                        assert_eq!(index.purge_box(box_id), starts.len(), "{what}");
                        let moved = model.purge_box(box_id);
                        check(&index, &model, &before, &moved, &mut drawn, &what);
                        for (stripe, _, start) in starts {
                            if start >= now && rng.gen_bool(0.7) {
                                let before = stamps(&index);
                                index.insert(stripe, box_id, start, now);
                                assert_eq!(model.insert(stripe, box_id, start), Some(true));
                                check(&index, &model, &before, &[], &mut drawn, &what);
                            }
                        }
                        continue;
                    }
                    1 => {
                        index.touch(stripe);
                        vec![stripe]
                    }
                    // Fresh inserts, refreshes (a stale record stays behind)
                    // and ignored older starts.
                    _ => {
                        let start = now + rng.gen_range(0u64..3);
                        index.insert(stripe, box_id, start, now);
                        match model.insert(stripe, box_id, start) {
                            Some(false) => vec![stripe],
                            _ => vec![],
                        }
                    }
                };
                check(&index, &model, &before, &moved, &mut drawn, &what);
            }
        }
        assert!(
            most_expired_at_once >= 8,
            "at most {most_expired_at_once} entries ever expired together"
        );
    }

    /// The purge as a scan of every stripe slot, kept as the model the
    /// per-box purge must match: ascending slot order, one ordered removal,
    /// entry-map removal and stamp per slot that lists the box.
    fn scan_purge(index: &mut CandidateIndex, box_id: BoxId) -> usize {
        let mut purged = 0;
        for slot in 0..index.rows.len() {
            let Some(row) = index.row_at(slot) else {
                continue;
            };
            let list = &mut index.lists[row];
            let Some(pos) = list.iter().position(|&(b, _)| b == box_id) else {
                continue;
            };
            list.remove(pos);
            index.entries.remove(&pack(index.stripe_at(slot), box_id));
            index.note_shrink(row);
            index.live -= 1;
            purged += 1;
        }
        index.expired_this_round += purged;
        purged
    }

    /// Reference test: over seeded insert / refresh / expiry / purge
    /// scripts on fleets of 63, 64, 65 and 200 boxes, every purge leaves
    /// the lists, the entry map, every stripe's stamp and the counters
    /// exactly as the full scan leaves a clone of the index. Purged boxes
    /// often come straight back and leave again inside one window, and the
    /// first purge of every run finds a box that holds nothing.
    #[test]
    fn purge_matches_the_full_scan_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (window, c, videos) = (6u64, 3u16, 7u32);
        for n in [63u32, 64, 65, 200] {
            let mut rng = StdRng::seed_from_u64(0x9e29 + n as u64);
            let mut index = CandidateIndex::new(window, c);
            let (mut purges, mut purged_entries, mut round_trips) = (0, 0, 0);
            let mut purge = |index: &mut CandidateIndex, box_id: BoxId, what: &str| {
                let mut model = index.clone();
                let expected = scan_purge(&mut model, box_id);
                assert_eq!(index.purge_box(box_id), expected, "{what}");
                assert_eq!(index.rows, model.rows, "{what}");
                assert_eq!(index.lists, model.lists, "{what}");
                assert_eq!(index.entries, model.entries, "{what}");
                assert_eq!(index.shrunk, model.shrunk, "{what}");
                assert_eq!(index.shrinks, model.shrinks, "{what}");
                assert_eq!(index.live, model.live, "{what}");
                assert_eq!(index.expired_this_round, model.expired_this_round, "{what}");
                purges += 1;
                purged_entries += expected;
                expected
            };
            index.begin_round(0);
            assert_eq!(purge(&mut index, b(n - 1), "n {n}: first purge"), 0);
            let mut now = 0u64;
            while now < 240 {
                // Mostly one round at a time, sometimes several buckets.
                now += if rng.gen_bool(0.1) {
                    rng.gen_range(2u64..5)
                } else {
                    1
                };
                index.begin_round(now);
                let what = format!("n {n} round {now}");
                // Fresh inserts, refreshes and ignored older starts.
                for _ in 0..rng.gen_range(0..n / 4) {
                    let stripe = s(rng.gen_range(0..videos), rng.gen_range(0..c));
                    let box_id = b(rng.gen_range(0..n));
                    index.insert(stripe, box_id, now + rng.gen_range(0u64..3), now);
                }
                for _ in 0..rng.gen_range(0..4) {
                    let box_id = b(rng.gen_range(0..n));
                    if purge(&mut index, box_id, &what) == 0 || !rng.gen_bool(0.5) {
                        continue;
                    }
                    // Rejoin, cache again and leave again inside the window.
                    for _ in 0..rng.gen_range(1..5) {
                        let stripe = s(rng.gen_range(0..videos), rng.gen_range(0..c));
                        index.insert(stripe, box_id, now + rng.gen_range(0u64..2), now);
                    }
                    if rng.gen_bool(0.5) {
                        purge(&mut index, box_id, &what);
                        round_trips += 1;
                    }
                }
            }
            assert!(purges > 100, "n {n}: {purges} purges");
            assert!(
                purged_entries > 100,
                "n {n}: {purged_entries} entries purged"
            );
            assert!(
                round_trips > 10,
                "n {n}: {round_trips} leave-rejoin-leave trips"
            );
        }
    }

    /// Only touched stripes own a list and a stamp: an insert at the last
    /// stripe of a fleet-sized catalog gives one row, a touch one more, an
    /// expiry keeps its stripe's row, and every other stripe reads an empty
    /// list and stamp 0.
    #[test]
    fn rows_exist_for_touched_stripes_only() {
        let (videos, c) = (174_763u32, 4u16);
        let last = s(videos - 1, c - 1);
        let mut index = CandidateIndex::new(16, c);
        index.begin_round(0);
        index.insert(last, b(9), 0, 0);
        assert_eq!(index.touched_rows(), 1);
        assert_eq!(index.candidates(last), &[(b(9), 0)]);
        index.touch(s(3, 1));
        assert_eq!(index.touched_rows(), 2);
        index.begin_round(17);
        assert!(index.candidates(last).is_empty());
        assert_ne!(index.shrink_stamp(last), 0);
        assert_eq!(index.touched_rows(), 2);
        for untouched in [s(0, 0), s(3, 0), s(videos - 1, c - 2), s(videos, 0)] {
            assert!(index.candidates(untouched).is_empty(), "{untouched:?}");
            assert_eq!(index.shrink_stamp(untouched), 0, "{untouched:?}");
        }
        assert_eq!(index.iter_live().count(), 0);
    }

    #[test]
    fn iter_live_round_trips_entries() {
        let mut index = CandidateIndex::new(10, 3);
        index.begin_round(0);
        index.insert(s(2, 1), b(5), 0, 0);
        index.insert(s(0, 2), b(3), 1, 0);
        let mut live: Vec<_> = index.iter_live().collect();
        live.sort();
        assert_eq!(live, vec![(s(0, 2), b(3), 1), (s(2, 1), b(5), 0)]);
    }

    #[test]
    fn candidate_stats_equality_ignores_timing() {
        let a = CandidateStats {
            index_entries: 4,
            expired: 1,
            inserted: 2,
        };
        let mut b = a;
        assert_eq!(a, b);
        b.expired = 2;
        assert_ne!(a, b);
        assert_eq!(CandidateStats::from_json(&a.to_json()).unwrap(), a);
        // Reports written while the stats still carried their retired
        // wall-clock field keep parsing: unknown keys are ignored.
        let old = Json::parse(r#"{"index_entries":4,"expired":1,"inserted":2,"build_ns":123}"#);
        assert_eq!(CandidateStats::from_json(&old.unwrap()).unwrap(), a);
    }
}
