//! The class-row memo: a round's candidate rows, built once per class.
//!
//! A request's candidate row `B(x)` — the stripe's live holders in
//! placement order, then the boxes whose cache started the stripe before
//! the request was issued — never contains its requester (it would be
//! self-served, and its own cache entry starts at the issue round). So it
//! depends on the stripe and the issue round only, and every request of
//! that *class* shares it. A row is rebuilt only when the stripe's
//! [`CandidateIndex::shrink_stamp`] moves, and stored in the round's CSR
//! buffer once, under its build number as change stamp.
//!
//! A request keeps its issue round for its whole playback, so it keeps its
//! class. The memo writes each round's [`RequestKey`]s (the list the
//! scheduler receives) and keeps last round's, each with the slot of its
//! class, and merges every round's requests against them in key order: a
//! surviving request reaches its row without a hash probe, and only an
//! arrival looks its class up by `(stripe, issue round)`. The merge also sees
//! every request that left, so a class's slot is freed in the round its last
//! request leaves, and the memo holds exactly the live classes.

use crate::candidates::CandidateIndex;
use crate::request::StripeRequest;
use crate::scheduler::RequestKey;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use vod_core::{BoxId, FxHasher64, Placement, StripeId};
use vod_flow::{CandidateBuf, CandidateView};

/// One memoized class row.
struct ClassRow {
    /// The class: its stripe and issue round.
    stripe: StripeId,
    issued_at: u64,
    /// The requests of the class as of the last fill.
    requests: u32,
    /// [`CandidateIndex::shrink_stamp`] of the stripe at build time.
    shrink_stamp: u64,
    /// Which build of a class row this is, counted over the whole run
    /// (0 = not built yet): handed down as the row's change stamp, so equal
    /// stamps mean the same build and therefore the same row.
    build: u64,
    /// `round + 1` of the last round that replayed the row, and the id it
    /// was stored under in that round's candidate buffer.
    used: u64,
    stored: u32,
    boxes: Vec<BoxId>,
}

/// The memo and the round's candidate buffer it fills.
pub(crate) struct ClassRows {
    /// The round's rows as one flat CSR buffer, and one change stamp per
    /// request.
    buf: CandidateBuf,
    stamps: Vec<u64>,
    /// The class rows, and the slots free for reuse (their vectors kept).
    slab: Vec<ClassRow>,
    free: Vec<u32>,
    /// `(stripe, issue round)` → slot, read for arrivals only.
    by_class: HashMap<(StripeId, u64), u32, BuildHasherDefault<FxHasher64>>,
    /// The key of each request of the fill and the slot of its class (which
    /// holds its issue round), in request order, and the same for the fill
    /// before.
    keys: Vec<RequestKey>,
    slots: Vec<u32>,
    prev_keys: Vec<RequestKey>,
    prev_slots: Vec<u32>,
    /// The slots of the requests the fill found gone.
    departed: Vec<u32>,
    /// Class rows built so far (the source of `ClassRow::build`).
    builds: u64,
    /// Class rows the last fill stored.
    in_use: usize,
    hits: u64,
    /// Per-box generation marks for O(1) dedup between a row's two sources,
    /// one epoch per build.
    seen: Vec<u64>,
    epoch: u64,
    /// The cache window `T`: no index entry is older than it.
    window: u64,
}

impl ClassRows {
    /// An empty memo for a universe of `n` boxes and cache window `window`.
    pub(crate) fn new(n: usize, window: u64) -> Self {
        ClassRows {
            buf: CandidateBuf::new(),
            stamps: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            by_class: HashMap::default(),
            keys: Vec::new(),
            slots: Vec::new(),
            prev_keys: Vec::new(),
            prev_slots: Vec::new(),
            departed: Vec::new(),
            builds: 0,
            in_use: 0,
            hits: 0,
            seen: vec![0; n],
            epoch: 0,
            window,
        }
    }

    /// Fills the round's buffer with one row per request of `requests`,
    /// issued before or at `now`, and the round's key list.
    ///
    /// `requests` is expected in the engine's collection order, ascending by
    /// key: then every request that was listed last round is matched to its
    /// class by the merge. Any other order is still correct, only slower —
    /// an unmatched survivor is looked up like an arrival.
    pub(crate) fn fill(
        &mut self,
        now: u64,
        requests: &[StripeRequest],
        placement: &Placement,
        index: &CandidateIndex,
    ) {
        self.buf.clear();
        self.stamps.clear();
        self.in_use = 0;
        std::mem::swap(&mut self.keys, &mut self.prev_keys);
        std::mem::swap(&mut self.slots, &mut self.prev_slots);
        self.keys.clear();
        self.slots.clear();
        self.departed.clear();
        let mut old = 0;
        for req in requests {
            let key = RequestKey {
                viewer: req.viewer,
                stripe: req.stripe,
            };
            self.keys.push(key);
            let mut survivor = None;
            while let Some(prev) = self.prev_keys.get(old) {
                match prev.cmp(&key) {
                    Ordering::Less => self.departed.push(self.prev_slots[old]),
                    Ordering::Equal => {
                        survivor = Some(self.prev_slots[old]);
                        old += 1;
                        break;
                    }
                    Ordering::Greater => break,
                }
                old += 1;
            }
            let slot = match survivor {
                Some(slot) if self.slab[slot as usize].issued_at == req.issued_at => slot,
                Some(slot) => {
                    // The viewer restarted the video: a new class.
                    self.departed.push(slot);
                    self.arrive(req.stripe, req.issued_at)
                }
                None => self.arrive(req.stripe, req.issued_at),
            };
            self.slots.push(slot);

            let shrink_stamp = index.shrink_stamp(req.stripe);
            let row = &mut self.slab[slot as usize];
            if row.build != 0 && row.shrink_stamp == shrink_stamp {
                self.hits += 1;
            } else {
                self.epoch += 1;
                row.boxes.clear();
                for &b in placement.holders_of(req.stripe) {
                    self.seen[b.index()] = self.epoch;
                    row.boxes.push(b);
                }
                // Index entries are live by construction (the wheel drained
                // everything older than the window), so only the
                // ahead-of-the-class condition remains per entry.
                for &(b, start) in index.candidates(req.stripe) {
                    debug_assert!(start + self.window >= now, "index kept an expired entry");
                    if self.seen[b.index()] != self.epoch && start < req.issued_at {
                        row.boxes.push(b);
                    }
                }
                self.builds += 1;
                row.build = self.builds;
                row.shrink_stamp = shrink_stamp;
            }
            debug_assert!(
                !row.boxes.contains(&req.requester),
                "{} is a candidate of its own request for {:?}",
                req.requester,
                req.stripe
            );
            // The class's first request of the round stores the row (the
            // index does not move during a fill, so a row is not rebuilt
            // after it); the others refer to it.
            if row.used != now + 1 {
                row.used = now + 1;
                self.in_use += 1;
                row.stored = self.buf.push_row(row.boxes.iter().copied());
            } else {
                self.buf.push_shared(row.stored);
            }
            self.stamps.push(row.build);
        }
        self.departed.extend_from_slice(&self.prev_slots[old..]);
        // Departures are counted last, so a class that both lost and gained
        // requests this round kept its row throughout.
        for i in 0..self.departed.len() {
            let slot = self.departed[i];
            let row = &mut self.slab[slot as usize];
            row.requests -= 1;
            if row.requests == 0 {
                self.by_class.remove(&(row.stripe, row.issued_at));
                self.free.push(slot);
            }
        }
    }

    /// The slot of class `(stripe, issued_at)` for a request that joins it
    /// this round: the live one, or a fresh slot with no row built.
    fn arrive(&mut self, stripe: StripeId, issued_at: u64) -> u32 {
        if let Some(&slot) = self.by_class.get(&(stripe, issued_at)) {
            self.slab[slot as usize].requests += 1;
            return slot;
        }
        let fresh = ClassRow {
            stripe,
            issued_at,
            requests: 1,
            shrink_stamp: 0,
            build: 0,
            used: 0,
            stored: 0,
            boxes: Vec::new(),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                // Keep the pooled row's allocation.
                let row = &mut self.slab[slot as usize];
                let boxes = std::mem::take(&mut row.boxes);
                *row = ClassRow { boxes, ..fresh };
                slot
            }
            None => {
                self.slab.push(fresh);
                self.slab.len() as u32 - 1
            }
        };
        self.by_class.insert((stripe, issued_at), slot);
        slot
    }

    /// The round's rows, each under its class build as change stamp.
    pub(crate) fn view(&self) -> CandidateView<'_> {
        self.buf.view_with_stamps(&self.stamps)
    }

    /// The round's request keys, one per row of [`ClassRows::view`].
    pub(crate) fn keys(&self) -> &[RequestKey] {
        &self.keys
    }

    /// `(hits, builds)`: request rows replayed from a class row already
    /// built vs class rows built.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        (self.hits, self.builds)
    }

    /// Class rows the last fill stored.
    #[cfg(test)]
    pub(crate) fn in_use(&self) -> usize {
        self.in_use
    }

    /// Classes the memo holds a slot for.
    #[cfg(test)]
    pub(crate) fn live_classes(&self) -> usize {
        self.slab.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;
    use vod_core::{Catalog, VideoId};

    fn s(v: u32, i: u16) -> StripeId {
        StripeId::new(VideoId(v), i)
    }

    fn req(viewer: u32, stripe: StripeId, issued_at: u64) -> StripeRequest {
        StripeRequest {
            stripe,
            requester: BoxId(viewer),
            viewer: BoxId(viewer),
            issued_at,
            kind: RequestKind::Postponed,
        }
    }

    /// Eight boxes, four videos of two stripes; box 0 holds video 0 and box
    /// 7 video 1.
    fn setup() -> (Placement, CandidateIndex, ClassRows) {
        let mut placement = Placement::empty(8, &Catalog::uniform(4, 100, 2));
        for i in 0..2 {
            placement.add(BoxId(0), s(0, i));
            placement.add(BoxId(7), s(1, i));
        }
        let mut index = CandidateIndex::new(100, 2);
        index.begin_round(0);
        (placement, index, ClassRows::new(8, 100))
    }

    /// The rows of the last fill, one per request.
    fn rows(memo: &ClassRows) -> Vec<Vec<BoxId>> {
        memo.view().to_vecs()
    }

    #[test]
    fn a_class_is_freed_in_the_round_its_last_request_leaves() {
        let (placement, index, mut memo) = setup();
        let round0 = [req(1, s(0, 0), 0), req(2, s(0, 0), 0), req(3, s(1, 0), 0)];
        memo.fill(0, &round0, &placement, &index);
        assert_eq!((memo.live_classes(), memo.cache_stats()), (2, (1, 2)));
        // Viewer 2 leaves a class that keeps viewer 1; viewer 3 takes the
        // last request of its class with it.
        memo.fill(1, &round0[..1], &placement, &index);
        assert_eq!((memo.live_classes(), memo.cache_stats()), (1, (2, 2)));
        // A new class reuses the freed slot and builds its row.
        memo.fill(2, &[round0[0], req(4, s(1, 0), 2)], &placement, &index);
        assert_eq!((memo.live_classes(), memo.slab.len()), (2, 2));
        assert_eq!(memo.cache_stats(), (3, 3));
        assert_eq!(rows(&memo), [vec![BoxId(0)], vec![BoxId(7)]]);
    }

    #[test]
    fn a_class_that_loses_and_gains_requests_in_one_round_keeps_its_row() {
        let (placement, index, mut memo) = setup();
        memo.fill(0, &[req(1, s(0, 1), 0)], &placement, &index);
        // Viewer 1 leaves as viewer 5 re-enters the same class.
        memo.fill(1, &[req(5, s(0, 1), 0)], &placement, &index);
        assert_eq!((memo.live_classes(), memo.cache_stats()), (1, (1, 1)));
        // A restart of the same stripe is a new class.
        memo.fill(2, &[req(5, s(0, 1), 2)], &placement, &index);
        assert_eq!((memo.live_classes(), memo.cache_stats()), (1, (1, 2)));
    }

    #[test]
    fn the_memo_holds_the_live_classes_and_no_more_in_any_request_order() {
        let (mut placement, mut index, mut memo) = setup();
        let mut sorted_memo = ClassRows::new(8, 100);
        let mut live: Vec<StripeRequest> = Vec::new();
        // The most slots a fill may need: the classes live once its
        // departures are counted, plus the classes it opened before that.
        let mut peak = 0;
        for now in 0..60u64 {
            index.begin_round(now);
            // A rolling population: one viewer joins, one leaves.
            let viewer = (now % 6) as u32 + 1;
            live.retain(|r| r.viewer != BoxId(viewer));
            for i in 0..2 {
                let stripe = s((now % 3) as u32, i);
                index.insert(stripe, BoxId(viewer), now, now);
                live.push(req(viewer, stripe, now));
            }
            if now % 7 == 0 {
                // A holder leaves and comes back: stamps move.
                placement.remove(BoxId(0), s(0, 0));
                index.touch(s(0, 0));
            } else if now % 7 == 1 {
                placement.add(BoxId(0), s(0, 0));
                index.touch(s(0, 0));
            }
            live.sort_by_key(|r| (r.viewer, r.stripe));
            let before = memo.cache_stats().1;
            // One memo sees the sorted order, the other the reverse.
            let reversed: Vec<StripeRequest> = live.iter().rev().copied().collect();
            memo.fill(now, &reversed, &placement, &index);
            sorted_memo.fill(now, &live, &placement, &index);
            let classes: std::collections::HashSet<(StripeId, u64)> =
                live.iter().map(|r| (r.stripe, r.issued_at)).collect();
            for m in [&memo, &sorted_memo] {
                assert_eq!(m.live_classes(), classes.len(), "round {now}");
                assert_eq!(m.in_use(), classes.len(), "round {now}");
            }
            let mut reversed_rows = rows(&memo);
            reversed_rows.reverse();
            assert_eq!(reversed_rows, rows(&sorted_memo), "round {now}");
            assert!(memo.cache_stats().1 - before <= classes.len() as u64);
            peak = peak.max(classes.len() + 2);
            assert!(
                memo.slab.len() <= peak,
                "round {now}: {} slots",
                memo.slab.len()
            );
        }
    }
}
