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

use crate::candidates::CandidateIndex;
use crate::request::StripeRequest;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use vod_core::{BoxId, FxHasher64, Placement, StripeId};
use vod_flow::{CandidateBuf, CandidateView};

/// One memoized class row.
#[derive(Default)]
struct ClassRow {
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
    rows: HashMap<(StripeId, u64), ClassRow, BuildHasherDefault<FxHasher64>>,
    /// Class rows built so far (the source of `ClassRow::build`).
    builds: u64,
    /// Class rows the last round replayed (the live share of `rows`).
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
            rows: HashMap::default(),
            builds: 0,
            in_use: 0,
            hits: 0,
            seen: vec![0; n],
            epoch: 0,
            window,
        }
    }

    /// Fills the round's buffer with one row per request of `requests`,
    /// issued before or at `now`.
    pub(crate) fn fill(
        &mut self,
        now: u64,
        requests: &[StripeRequest],
        placement: &Placement,
        index: &CandidateIndex,
    ) {
        self.buf.clear();
        self.stamps.clear();
        // The memo is only worth keeping while it tracks the live classes;
        // once it clearly outgrows them (their viewers finished, the rows
        // can never hit again) drop it wholesale.
        if self.rows.len() > 2 * self.in_use + 64 {
            self.rows.clear();
        }
        self.in_use = 0;
        for req in requests {
            let shrink_stamp = index.shrink_stamp(req.stripe);
            let row = self.rows.entry((req.stripe, req.issued_at)).or_default();
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
    }

    /// The round's rows, each under its class build as change stamp.
    pub(crate) fn view(&self) -> CandidateView<'_> {
        self.buf.view_with_stamps(&self.stamps)
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
}
