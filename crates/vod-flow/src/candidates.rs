//! Flat CSR candidate storage shared by the whole scheduling stack.
//!
//! A round's candidate structure — for each stripe request, the boxes that
//! possess its data — was historically a `Vec<Vec<BoxId>>`: one heap
//! allocation per request per round and pointer-chasing for every
//! consumer. The [`CandidateBuf`] replaces that with one pooled CSR
//! (compressed sparse row) buffer: a flat `boxes` array, an `offsets`
//! array delimiting each *stored* row, and one stored-row id per request.
//! Consumers borrow it as a [`CandidateView`] — `Copy`, cheap to pass down
//! the stack, and one contiguous allocation per round no matter how many
//! requests the round carries.
//!
//! **Requests may share a stored row.** Under the paper's preloading
//! strategy every viewer that issues stripe `s` in round `t` has the same
//! candidate set `B(x)`, so a crowd of `v` viewers is a handful of rows of
//! Θ(v) boxes each; a producer that knows this stores such a row once
//! ([`CandidateBuf::push_row`]) and refers every further request of the
//! class to it ([`CandidateBuf::push_shared`]), so the buffer is linear in
//! the crowd instead of quadratic. Every request-indexed reader — `len`,
//! `row`, `rows`, `row_stamp`, `to_vecs`, [`CandidateView::total_entries`]
//! — reads exactly what it would read from one materialised row per
//! request; the sharing shows only through [`CandidateView::row_id`],
//! [`CandidateView::stored_rows`] and [`CandidateView::stored_entries`],
//! for consumers that want to do their per-row work once per stored row.
//!
//! A view can also carry per-row **change stamps**: an opaque `u64` per
//! request with two guarantees. Across calls, for the same request key, an
//! unchanged stamp means a bit-identical row. Within one view, equal stamps
//! (other than [`NO_STAMP`]) mean identical rows, whatever the keys — the
//! converse is not promised: identical rows may arrive under different
//! stamps. The within-view half has a structural twin that needs no trust:
//! equal row ids *are* one row. Neither converse holds — identical rows may
//! be stored twice, and one stored row may arrive under several stamps.
//! Producers that maintain candidates incrementally (the simulation
//! engine's expiry-wheel index) already know which rows changed each round
//! and which requests share one — the engine builds a row once per (stripe,
//! issue round), stores it once per round and stamps every request of the
//! class with that build's number; handing that knowledge down lets
//! incremental consumers (the matcher in `vod-sim`) skip their per-row work
//! entirely for untouched rows and do it once for a shared one, instead of
//! re-deriving the delta by hash lookups and vector compares. The `vod-sim`
//! matcher, which merges requests with equal rows into one node,
//! `debug_assert`s both stamp guarantees on every row it takes on trust.

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
/// let crowd = buf.push_row([BoxId(0), BoxId(2)]);
/// buf.push_row([]);
/// buf.push_shared(crowd); // a second request with the first one's row
///
/// let view = buf.view();
/// assert_eq!(view.len(), 3);
/// assert_eq!(view.row(0), &[BoxId(0), BoxId(2)]);
/// assert!(view.row(1).is_empty());
/// assert_eq!(view.row(2), view.row(0));
/// // Counted per request, and as stored.
/// assert_eq!((view.total_entries(), view.stored_entries()), (4, 2));
/// assert_eq!((view.len(), view.stored_rows()), (3, 2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct CandidateBuf {
    /// Stored-row boundaries: stored row `r` spans
    /// `boxes[offsets[r] .. offsets[r + 1]]`. Always holds `stored rows + 1`
    /// entries, the first being 0.
    offsets: Vec<u32>,
    /// Concatenated stored rows.
    boxes: Vec<BoxId>,
    /// The stored row of each request, in request order.
    row_ids: Vec<u32>,
    /// Σ row lengths over the requests that refer to a row stored for
    /// another: what one stored row per request would add to `boxes`. Kept
    /// apart from `boxes.len()` so storing a row costs no count of its own.
    shared_entries: usize,
}

/// Converts a count to the CSR tables' `u32` index type. A count that does
/// not fit must not wrap: `row(x)` would silently read another row's span.
#[inline]
fn csr_index(count: usize, what: &'static str) -> u32 {
    match u32::try_from(count) {
        Ok(index) => index,
        Err(_) => csr_overflow(count, what),
    }
}

/// Out of line: with the message formatted inside `push_row`, the engine's
/// candidate fill ran a fifth slower on rows of three boxes.
#[cold]
#[inline(never)]
fn csr_overflow(count: usize, what: &'static str) -> ! {
    panic!("candidate buffer overflow: {count} {what} do not fit the u32 CSR index")
}

impl CandidateBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        CandidateBuf::default()
    }

    /// Removes every row (and with them every row id), keeping the
    /// allocations.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.boxes.clear();
        self.row_ids.clear();
        self.shared_entries = 0;
    }

    /// Number of rows (requests).
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// True when the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Appends one candidate box to the row currently being built. Rows are
    /// terminated by [`CandidateBuf::finish_row`].
    pub fn push_box(&mut self, box_id: BoxId) {
        self.boxes.push(box_id);
    }

    /// Terminates the row currently being built (possibly empty): stores it
    /// and appends a request that refers to it. Returns the stored row's id.
    #[inline]
    pub fn finish_row(&mut self) -> u32 {
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        let id = csr_index(self.offsets.len() - 1, "stored rows");
        let end = csr_index(self.boxes.len(), "stored entries");
        self.offsets.push(end);
        self.row_ids.push(id);
        id
    }

    /// Appends one complete row: stores it and appends a request that refers
    /// to it. Returns the stored row's id, for [`CandidateBuf::push_shared`].
    #[inline]
    pub fn push_row(&mut self, row: impl IntoIterator<Item = BoxId>) -> u32 {
        self.boxes.extend(row);
        self.finish_row()
    }

    /// Appends a request whose row is the already stored row `id`: nothing
    /// is copied. `id` must come from a `push_row` / `finish_row` since the
    /// last [`CandidateBuf::clear`].
    ///
    /// # Panics
    /// Panics when no stored row has that id.
    #[inline]
    pub fn push_shared(&mut self, id: u32) {
        let row = id as usize;
        assert!(row + 1 < self.offsets.len(), "no stored row {id}");
        self.shared_entries += (self.offsets[row + 1] - self.offsets[row]) as usize;
        self.row_ids.push(id);
    }

    /// Rebuilds the buffer from slice-of-vecs candidates (the bridge from
    /// the legacy representation; one flat copy, reusing the allocations,
    /// one stored row per input row).
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
            row_ids: &self.row_ids,
            stamps: None,
            total_entries: self.boxes.len() + self.shared_entries,
        }
    }

    /// Borrowed view carrying per-row change stamps (`stamps[x]` is the
    /// stamp of request `x`'s row; [`NO_STAMP`] opts a row out). Rows given
    /// equal stamps must be identical (see the module docs).
    ///
    /// # Panics
    /// Panics when `stamps` disagrees in length with the row (request)
    /// count.
    pub fn view_with_stamps<'a>(&'a self, stamps: &'a [u64]) -> CandidateView<'a> {
        assert_eq!(
            stamps.len(),
            self.row_ids.len(),
            "one change stamp per candidate row"
        );
        CandidateView {
            stamps: Some(stamps),
            ..self.view()
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
/// [`CandidateBuf`] for the owning side and the module docs for the stamp
/// and row-id contracts.
#[derive(Clone, Copy, Debug)]
pub struct CandidateView<'a> {
    offsets: &'a [u32],
    boxes: &'a [BoxId],
    row_ids: &'a [u32],
    stamps: Option<&'a [u64]>,
    total_entries: usize,
}

impl<'a> CandidateView<'a> {
    /// An empty view (zero rows, none stored).
    pub fn empty() -> CandidateView<'static> {
        CandidateView {
            offsets: &[0],
            boxes: &[],
            row_ids: &[],
            stamps: None,
            total_entries: 0,
        }
    }

    /// Number of rows (requests).
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// True when the view holds no rows.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Candidate row of request `x`.
    pub fn row(&self, x: usize) -> &'a [BoxId] {
        let id = self.row_ids[x] as usize;
        &self.boxes[self.offsets[id] as usize..self.offsets[id + 1] as usize]
    }

    /// The stored row request `x` refers to: requests with equal ids share
    /// one row (ids run from 0 to [`CandidateView::stored_rows`]). Requests
    /// with different ids may still hold equal rows.
    pub fn row_id(&self, x: usize) -> u32 {
        self.row_ids[x]
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

    /// Total candidate entries across all rows, counted per request: a row
    /// shared by `v` requests counts `v` times, as if it were materialised
    /// for each.
    pub fn total_entries(&self) -> usize {
        self.total_entries
    }

    /// Number of rows actually stored (at most [`CandidateView::len`]).
    pub fn stored_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Candidate entries actually stored: a shared row counts once.
    pub fn stored_entries(&self) -> usize {
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
        let rows = vec![vec![b(1)], vec![], vec![b(0), b(4)], vec![b(1)]];
        let mut buf = CandidateBuf::new();
        buf.fill_from_slices(&rows);
        let view = buf.view();
        assert_eq!(view.to_vecs(), rows);
        // One stored row per input row, equal rows included.
        assert_eq!(view.stored_rows(), rows.len());
        assert_eq!(view.stored_entries(), view.total_entries());
        assert!((0..rows.len()).all(|x| view.row_id(x) as usize == x));
        // Refill replaces, not appends.
        buf.fill_from_slices(&rows[..1]);
        assert_eq!(buf.view().to_vecs(), rows[..1].to_vec());
    }

    /// Requests 0, 2 and 4 share one row of three boxes, request 3 has the
    /// empty row, request 1 one of its own.
    fn shared_buf() -> CandidateBuf {
        let mut buf = CandidateBuf::new();
        let crowd = buf.push_row([b(4), b(1), b(9)]);
        buf.push_row([b(2)]);
        buf.push_shared(crowd);
        buf.push_box(b(7)); // a row under construction does not disturb ids
        let built = buf.finish_row();
        assert_eq!(built, 2);
        buf.push_shared(crowd);
        buf
    }

    #[test]
    fn shared_rows_read_back_as_if_materialised() {
        let buf = shared_buf();
        let view = buf.view();
        let rows = vec![
            vec![b(4), b(1), b(9)],
            vec![b(2)],
            vec![b(4), b(1), b(9)],
            vec![b(7)],
            vec![b(4), b(1), b(9)],
        ];
        assert_eq!((buf.len(), view.len()), (5, 5));
        for (x, row) in rows.iter().enumerate() {
            assert_eq!(view.row(x), &row[..], "row {x}");
        }
        assert_eq!(view.rows().map(<[BoxId]>::to_vec).collect::<Vec<_>>(), rows);
        assert_eq!(view.to_vecs(), rows);
        // Per request as the rows above count, per stored row as the buffer
        // holds them.
        assert_eq!(view.total_entries(), rows.iter().map(Vec::len).sum());
        assert_eq!((view.stored_rows(), view.stored_entries()), (3, 5));
        let ids: Vec<u32> = (0..5).map(|x| view.row_id(x)).collect();
        assert_eq!(ids, [0, 1, 0, 2, 0]);
        // A materialised copy counts the same entries under more rows.
        let mut flat = CandidateBuf::new();
        flat.fill_from_slices(&rows);
        assert_eq!(flat.view().total_entries(), view.total_entries());
        assert_eq!(flat.view().stored_entries(), view.total_entries());
    }

    #[test]
    fn stamps_count_requests_on_a_shared_view() {
        let buf = shared_buf();
        let stamps = [5, 6, 5, NO_STAMP, 5];
        let view = buf.view_with_stamps(&stamps);
        assert_eq!(view.row_stamp(2), 5);
        assert_eq!(view.row_stamp(3), NO_STAMP);
        assert_eq!(view.total_entries(), buf.view().total_entries());
    }

    #[test]
    #[should_panic(expected = "one change stamp per candidate row")]
    fn a_stamp_per_stored_row_is_not_a_stamp_per_request() {
        let buf = shared_buf();
        let _ = buf.view_with_stamps(&[5, 6, 7]);
    }

    #[test]
    fn clear_resets_row_ids_and_counters() {
        let mut buf = shared_buf();
        buf.clear();
        assert!(buf.is_empty());
        let view = buf.view();
        assert_eq!((view.len(), view.stored_rows()), (0, 0));
        assert_eq!((view.total_entries(), view.stored_entries()), (0, 0));
        // Ids start over.
        assert_eq!(buf.push_row([b(3)]), 0);
        buf.push_shared(0);
        assert_eq!(buf.view().to_vecs(), vec![vec![b(3)], vec![b(3)]]);
    }

    #[test]
    #[should_panic(expected = "no stored row 3")]
    fn sharing_a_row_that_was_never_stored_panics() {
        let mut buf = shared_buf();
        buf.push_shared(3);
    }

    #[test]
    fn the_empty_view_stores_nothing() {
        let view = CandidateView::empty();
        assert_eq!((view.len(), view.stored_rows()), (0, 0));
        assert_eq!((view.total_entries(), view.stored_entries()), (0, 0));
        assert!(view.to_vecs().is_empty());
    }

    #[test]
    fn csr_index_accepts_what_fits() {
        assert_eq!(csr_index(0, "stored entries"), 0);
        assert_eq!(csr_index(u32::MAX as usize, "stored entries"), u32::MAX);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "4294967296 stored entries do not fit")]
    fn csr_index_refuses_to_wrap() {
        csr_index(1 << 32, "stored entries");
    }
}
