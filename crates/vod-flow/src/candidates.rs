//! Flat CSR candidate storage shared by the whole scheduling stack.
//!
//! A round's candidate structure — for each stripe request, the boxes that
//! possess its data — was historically a `Vec<Vec<BoxId>>`: one heap
//! allocation per request per round and pointer-chasing for every
//! consumer. The [`CandidateBuf`] replaces that with one pooled CSR
//! (compressed sparse row) buffer: a flat `boxes` array plus a `offsets`
//! array delimiting each request's row. Consumers borrow it as a [`CandidateView`] — `Copy`,
//! cheap to pass down the stack, and one contiguous allocation per round no
//! matter how many requests the round carries.
//!
//! A view can also carry per-row **change stamps**: an opaque `u64` per
//! request with two guarantees. Across calls, for the same request key, an
//! unchanged stamp means a bit-identical row. Within one view, equal stamps
//! (other than [`NO_STAMP`]) mean identical rows, whatever the keys — the
//! converse is not promised: identical rows may arrive under different
//! stamps. Producers that maintain candidates incrementally (the simulation
//! engine's expiry-wheel index) already know which rows changed each round
//! and which requests share one — the engine builds a row once per (stripe,
//! issue round) and stamps every request of the class with that build's
//! number; handing that knowledge down as stamps lets incremental consumers
//! (the matcher in `vod-sim`) skip their per-row work entirely for untouched
//! rows, instead of re-deriving the delta by hash lookups and vector
//! compares. The
//! `vod-sim` matcher, which merges requests with equal rows into one node,
//! `debug_assert`s both guarantees on every row it takes on trust.

use vod_core::BoxId;

/// Sentinel stamp meaning "no change information for this row" (consumers
/// must fall back to comparing row contents).
pub const NO_STAMP: u64 = u64::MAX;

/// Pooled flat CSR buffer of per-request candidate rows.
///
/// All storage is reused across rounds: a steady-state `clear` + rebuild
/// cycle performs no heap allocation once the buffer has grown to the
/// working-set size.
///
/// ```
/// use vod_core::BoxId;
/// use vod_flow::CandidateBuf;
///
/// let mut buf = CandidateBuf::new();
/// buf.push_row([BoxId(0), BoxId(2)]);
/// buf.push_row([]);
/// buf.push_row([BoxId(1)]);
///
/// let view = buf.view();
/// assert_eq!(view.len(), 3);
/// assert_eq!(view.row(0), &[BoxId(0), BoxId(2)]);
/// assert!(view.row(1).is_empty());
/// assert_eq!(view.total_entries(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct CandidateBuf {
    /// Row boundaries: row `x` spans `boxes[offsets[x] .. offsets[x + 1]]`.
    /// Always holds `rows + 1` entries, the first being 0.
    offsets: Vec<u32>,
    /// Concatenated candidate rows.
    boxes: Vec<BoxId>,
}

impl CandidateBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        CandidateBuf::default()
    }

    /// Removes every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.boxes.clear();
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        // An untouched (or just-cleared) buffer has no leading 0 yet.
        self.offsets.len().saturating_sub(1)
    }

    /// True when the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one candidate box to the row currently being built. Rows are
    /// terminated by [`CandidateBuf::finish_row`].
    pub fn push_box(&mut self, box_id: BoxId) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.boxes.push(box_id);
    }

    /// Terminates the row currently being built (possibly empty).
    pub fn finish_row(&mut self) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.offsets.push(self.boxes.len() as u32);
    }

    /// Appends one complete row.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = BoxId>) {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        self.boxes.extend(row);
        self.offsets.push(self.boxes.len() as u32);
    }

    /// Rebuilds the buffer from slice-of-vecs candidates (the bridge from
    /// the legacy representation; one flat copy, reusing the allocations).
    pub fn fill_from_slices(&mut self, rows: &[Vec<BoxId>]) {
        self.clear();
        for row in rows {
            self.push_row(row.iter().copied());
        }
    }

    /// Borrowed view of the current rows, without change stamps.
    pub fn view(&self) -> CandidateView<'_> {
        CandidateView {
            offsets: self.normalized_offsets(),
            boxes: &self.boxes,
            stamps: None,
        }
    }

    /// Borrowed view carrying per-row change stamps (`stamps[x]` is row
    /// `x`'s stamp; [`NO_STAMP`] opts a row out). Rows given equal stamps
    /// must be identical (see the module docs).
    ///
    /// # Panics
    /// Panics when `stamps` disagrees in length with the row count.
    pub fn view_with_stamps<'a>(&'a self, stamps: &'a [u64]) -> CandidateView<'a> {
        let offsets = self.normalized_offsets();
        assert_eq!(
            stamps.len(),
            offsets.len() - 1,
            "one change stamp per candidate row"
        );
        CandidateView {
            offsets,
            boxes: &self.boxes,
            stamps: Some(stamps),
        }
    }

    /// Offsets with the guaranteed leading 0 (an untouched buffer borrows a
    /// static empty instance).
    fn normalized_offsets(&self) -> &[u32] {
        const EMPTY: &[u32] = &[0];
        if self.offsets.is_empty() {
            EMPTY
        } else {
            &self.offsets
        }
    }
}

/// Borrowed CSR view of one round's candidate rows.
///
/// `Copy`, so it travels by value through the scheduler stack; see
/// [`CandidateBuf`] for the owning side and the stamp contract.
#[derive(Clone, Copy, Debug)]
pub struct CandidateView<'a> {
    offsets: &'a [u32],
    boxes: &'a [BoxId],
    stamps: Option<&'a [u64]>,
}

impl<'a> CandidateView<'a> {
    /// An empty view (zero rows).
    pub fn empty() -> CandidateView<'static> {
        CandidateView {
            offsets: &[0],
            boxes: &[],
            stamps: None,
        }
    }

    /// Number of rows (requests).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Candidate row of request `x`.
    pub fn row(&self, x: usize) -> &'a [BoxId] {
        &self.boxes[self.offsets[x] as usize..self.offsets[x + 1] as usize]
    }

    /// Change stamp of row `x`: for the same request key, an equal stamp on
    /// a later call guarantees a bit-identical row, and so does an equal
    /// stamp on another row of this view. [`NO_STAMP`] when the producer
    /// attached no change information.
    pub fn row_stamp(&self, x: usize) -> u64 {
        match self.stamps {
            Some(stamps) => stamps[x],
            None => NO_STAMP,
        }
    }

    /// Iterator over all rows, in request order.
    pub fn rows(&self) -> impl Iterator<Item = &'a [BoxId]> + '_ {
        (0..self.len()).map(|x| self.row(x))
    }

    /// Total candidate entries across all rows.
    pub fn total_entries(&self) -> usize {
        self.boxes.len()
    }

    /// Materializes the rows as slice-of-vecs (the bridge for consumers
    /// that still speak the legacy representation; allocates).
    pub fn to_vecs(&self) -> Vec<Vec<BoxId>> {
        self.rows().map(|row| row.to_vec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    #[test]
    fn push_and_read_rows() {
        let mut buf = CandidateBuf::new();
        buf.push_row([b(3), b(1)]);
        buf.push_row([]);
        buf.push_box(b(7));
        buf.push_box(b(2));
        buf.finish_row();
        let view = buf.view();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.row(0), &[b(3), b(1)]);
        assert_eq!(view.row(1), &[] as &[BoxId]);
        assert_eq!(view.row(2), &[b(7), b(2)]);
        assert_eq!(view.total_entries(), 4);
        assert_eq!(
            view.to_vecs(),
            vec![vec![b(3), b(1)], vec![], vec![b(7), b(2)]]
        );
    }

    #[test]
    fn clear_reuses_storage_and_empty_views_work() {
        let mut buf = CandidateBuf::new();
        assert!(buf.view().is_empty());
        assert_eq!(buf.len(), 0);
        buf.push_row([b(0)]);
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.view().len(), 0);
        buf.push_row([b(5)]);
        assert_eq!(buf.view().row(0), &[b(5)]);
        assert!(CandidateView::empty().is_empty());
    }

    #[test]
    fn stamps_align_with_rows() {
        let mut buf = CandidateBuf::new();
        buf.push_row([b(0)]);
        buf.push_row([b(1), b(2)]);
        let stamps = vec![4, NO_STAMP];
        let view = buf.view_with_stamps(&stamps);
        assert_eq!(view.row_stamp(0), 4);
        assert_eq!(view.row_stamp(1), NO_STAMP);
        // A stampless view reports NO_STAMP everywhere.
        assert_eq!(buf.view().row_stamp(1), NO_STAMP);
    }

    #[test]
    #[should_panic(expected = "one change stamp per candidate row")]
    fn stamp_length_mismatch_panics() {
        let mut buf = CandidateBuf::new();
        buf.push_row([b(0)]);
        let stamps = vec![1, 2];
        let _ = buf.view_with_stamps(&stamps);
    }

    #[test]
    fn fill_from_slices_round_trips() {
        let rows = vec![vec![b(1)], vec![], vec![b(0), b(4)]];
        let mut buf = CandidateBuf::new();
        buf.fill_from_slices(&rows);
        assert_eq!(buf.view().to_vecs(), rows);
        // Refill replaces, not appends.
        buf.fill_from_slices(&rows[..1]);
        assert_eq!(buf.view().to_vecs(), rows[..1].to_vec());
    }
}
