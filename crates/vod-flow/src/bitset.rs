//! Word-parallel bit kernels shared by the flow solvers.
//!
//! The Lemma-1 instances the scheduler solves every round are bipartite and
//! small-degree: a request's candidate set is a handful of boxes out of a few
//! hundred. Storing each request's candidates as one row of `u64` words turns
//! the solver inner loops — "which unvisited boxes does this BFS frontier
//! reach", "does this request see a box with spare budget" — into a few AND /
//! ANDN word operations scanning 64 boxes at a time, instead of a pointer
//! chase over per-edge linked lists.
//!
//! * [`BitSet`] — a flat resizable bit vector (visited marks, free-box masks,
//!   BFS frontiers);
//! * [`BitAdjacency`] — a dense row-major bit matrix (request rows × box
//!   columns) with pooled storage;
//! * `BipartiteShape` (crate-internal) — the Lemma-1 shape analysis that
//!   recovers the `source → boxes → requests → sink` structure from a
//!   [`FlowArena`] and materialises the [`BitAdjacency`], reused by the
//!   word-parallel Hopcroft–Karp and Dinic fast paths.
//!
//! Column and row order follow *node* order in the arena.

use crate::arena::{FlowArena, NodeId};

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// Sentinel for "no index" in the shape tables.
pub(crate) const NONE: u32 = u32::MAX;

/// A flat, resizable bit vector with pooled storage.
///
/// All operations are branch-light and word-oriented; [`BitSet::reset`]
/// reuses the allocation, so steady-state rounds allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty bit set (zero length).
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Creates a set of `len` bits, all one. The padding bits of the last
    /// word are zero, like after any other operation, so word-level scans
    /// never see a bit past `len`.
    pub fn ones(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(WORD_BITS)];
        let tail = len % WORD_BITS;
        if tail > 0 {
            *words.last_mut().expect("a non-zero tail has a word") = (1u64 << tail) - 1;
        }
        BitSet { words, len }
    }

    /// Clears the set and resizes it to `len` bits, all zero, reusing the
    /// allocation.
    pub fn reset(&mut self, len: usize) {
        self.len = len;
        let words = len.div_ceil(WORD_BITS);
        self.words.clear();
        self.words.resize(words, 0);
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    pub fn unset(&mut self, i: usize) {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// True when bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of range {}", self.len);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// True when bit `i` is set; an index past the end is not (the bit-set
    /// counterpart of `slice.get(i).copied().unwrap_or(false)`).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.contains(i)
    }

    /// Zeroes every bit, keeping the length.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words (little-endian bit order within each word).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs `bits` into word `wi` (the word covering bits
    /// `wi*64 .. wi*64+63`).
    pub fn or_word(&mut self, wi: usize, bits: u64) {
        self.words[wi] |= bits;
    }
}

/// A dense row-major bit matrix with pooled storage: `rows` rows of `cols`
/// bits each, every row padded to whole `u64` words so row slices can be
/// combined with [`BitSet::words`] masks directly.
#[derive(Clone, Debug, Default)]
pub struct BitAdjacency {
    bits: Vec<u64>,
    words_per_row: usize,
    rows: usize,
    cols: usize,
}

impl BitAdjacency {
    /// Creates an empty matrix (0 × 0).
    pub fn new() -> Self {
        BitAdjacency::default()
    }

    /// Clears the matrix and resizes it to `rows × cols`, all zero, reusing
    /// the allocation.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.words_per_row = cols.div_ceil(WORD_BITS);
        self.bits.clear();
        self.bits.resize(rows * self.words_per_row, 0);
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Words per row (rows are padded to whole words).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Sets bit `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize) {
        debug_assert!(row < self.rows && col < self.cols, "({row},{col}) range");
        self.bits[row * self.words_per_row + col / WORD_BITS] |= 1u64 << (col % WORD_BITS);
    }

    /// True when bit `(row, col)` is set.
    pub fn contains(&self, row: usize, col: usize) -> bool {
        debug_assert!(row < self.rows && col < self.cols, "({row},{col}) range");
        self.bits[row * self.words_per_row + col / WORD_BITS] >> (col % WORD_BITS) & 1 == 1
    }

    /// The words of one row.
    pub fn row(&self, row: usize) -> &[u64] {
        let start = row * self.words_per_row;
        &self.bits[start..start + self.words_per_row]
    }

    /// Zeroes every bit of one row.
    pub fn clear_row(&mut self, row: usize) {
        let start = row * self.words_per_row;
        self.bits[start..start + self.words_per_row].fill(0);
    }
}

/// Calls `f(index)` for every set bit of `words` (word-order, ascending).
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in words.iter().enumerate() {
        for_each_bit_of_word(wi, word, &mut f);
    }
}

/// Calls `f(wi * 64 + bit)` for every set bit of `word`, ascending: one
/// word's share of [`for_each_set_bit`], for callers that combine words
/// (`a & !b`) or copy one out of a set they mutate while scanning.
pub fn for_each_bit_of_word(wi: usize, mut word: u64, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(wi * WORD_BITS + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Role tags used during shape analysis.
const ROLE_UNKNOWN: u8 = 0;
const ROLE_BOX: u8 = 1;
const ROLE_REQUEST: u8 = 2;

/// Lemma-1 shape analysis of a [`FlowArena`]: recovers the
/// `source →(budget) box →(q) request →(q) sink` structure (if the arena has
/// it) and materialises the candidate sets as a [`BitAdjacency`] whose rows
/// are requests and whose columns are boxes, both in node order. A row's
/// demand `q` is 1 for a single request and the member count for a row
/// class (requests with one candidate set, merged into one node by the
/// incremental matcher); [`BipartiteShape::unit_rows`] says whether every
/// live row is of the first kind.
///
/// Any structure outside the layout (a row of demand 0, a candidate edge
/// whose capacity is not its row's demand, parallel edges, extra node
/// layers such as two-hop paths) marks the analysis
/// invalid, and callers fall back to their scalar paths. Solvers run it once
/// per solve, on the freshly built arena.
#[derive(Clone, Debug, Default)]
pub(crate) struct BipartiteShape {
    /// True when the arena matched the Lemma-1 layout.
    pub valid: bool,
    /// True when, besides, every row has demand 1 (plain matching).
    pub unit_rows: bool,
    /// Box node ids, column order.
    pub boxes: Vec<u32>,
    /// Request node ids, row order.
    pub requests: Vec<u32>,
    /// Per box column: the `source → box` edge index ([`NONE`] when the box
    /// has no source edge; its budget is then zero).
    pub source_edge: Vec<u32>,
    /// Per request row: the `request → sink` edge index.
    pub sink_edge: Vec<u32>,
    /// Per request row: CSR offsets into `cand_box` / `cand_edge`.
    pub cand_off: Vec<u32>,
    /// Box column of each candidate edge.
    pub cand_box: Vec<u32>,
    /// Arena edge index of each candidate edge.
    pub cand_edge: Vec<u32>,
    /// Request rows × box columns candidate matrix.
    pub adj: BitAdjacency,
    // --- pooled analysis scratch ---
    role: Vec<u8>,
    /// Forward edges that are neither source nor sink edges:
    /// `(from, to, edge)`.
    other: Vec<(u32, u32, u32)>,
    /// `(box node, edge)` source edges.
    src_edges: Vec<(u32, u32)>,
    /// `(request node, edge)` sink edges.
    snk_edges: Vec<(u32, u32)>,
    /// Node id → box column ([`NONE`] when not a box).
    box_col: Vec<u32>,
    /// Node id → request row ([`NONE`] when not a request).
    req_row: Vec<u32>,
    /// CSR fill cursors (pooled).
    cand_cursor: Vec<u32>,
}

impl BipartiteShape {
    /// Analyses `arena` for the Lemma-1 layout rooted at `source` / `sink`.
    /// Returns [`BipartiteShape::valid`].
    pub fn analyze(&mut self, arena: &FlowArena, source: NodeId, sink: NodeId) -> bool {
        let n = arena.node_count();
        self.valid = true;
        self.unit_rows = true;
        self.role.clear();
        self.role.resize(n, ROLE_UNKNOWN);
        self.other.clear();
        self.src_edges.clear();
        self.snk_edges.clear();

        // Pass 1: one linear sweep of the flat edge array (a forward edge
        // lives at every even index and its twin's target is its source
        // node), bucketing each edge by its endpoints and assigning the
        // roles forced by source/sink incidence.
        let mut fwd = 0usize;
        let edge_total = arena.edge_count();
        while fwd < edge_total {
            let to = arena.target(fwd);
            let from = arena.target(fwd ^ 1);
            if from == source {
                if to == sink || to == source || self.role[to] == ROLE_REQUEST {
                    self.valid = false;
                    return false;
                }
                self.role[to] = ROLE_BOX;
                self.src_edges.push((to as u32, fwd as u32));
            } else if to == sink {
                if from == sink || self.role[from] == ROLE_BOX {
                    self.valid = false;
                    return false;
                }
                self.role[from] = ROLE_REQUEST;
                self.snk_edges.push((from as u32, fwd as u32));
            } else if from == sink || to == source {
                self.valid = false;
                return false;
            } else {
                self.other.push((from as u32, to as u32, fwd as u32));
            }
            fwd += 2;
        }

        // Pass 2: the remaining forward edges must run box → request. A
        // node seen only on the `from` side of such edges is a budgetless
        // box (a zero-capacity box keeps its candidate edges but has no
        // source edge).
        for &(from, to, _) in &self.other {
            if self.role[to as usize] != ROLE_REQUEST || self.role[from as usize] == ROLE_REQUEST {
                self.valid = false;
                return false;
            }
            self.role[from as usize] = ROLE_BOX;
        }

        // Columns and rows in node order.
        self.box_col.clear();
        self.box_col.resize(n, NONE);
        self.req_row.clear();
        self.req_row.resize(n, NONE);
        self.boxes.clear();
        self.requests.clear();
        for v in 0..n {
            match self.role[v] {
                ROLE_BOX => {
                    self.box_col[v] = self.boxes.len() as u32;
                    self.boxes.push(v as u32);
                }
                ROLE_REQUEST => {
                    self.req_row[v] = self.requests.len() as u32;
                    self.requests.push(v as u32);
                }
                _ => {}
            }
        }

        self.source_edge.clear();
        self.source_edge.resize(self.boxes.len(), NONE);
        for &(node, idx) in &self.src_edges {
            let col = self.box_col[node as usize] as usize;
            if self.source_edge[col] != NONE {
                self.valid = false; // parallel source edges
                return false;
            }
            self.source_edge[col] = idx;
        }

        self.sink_edge.clear();
        self.sink_edge.resize(self.requests.len(), NONE);
        for &(node, idx) in &self.snk_edges {
            let demand = arena.edge(idx as usize).original_cap;
            let row = self.req_row[node as usize] as usize;
            if demand == 0 || self.sink_edge[row] != NONE {
                self.valid = false; // a row of demand 0, or parallel sink edges
                return false;
            }
            self.unit_rows &= demand == 1;
            self.sink_edge[row] = idx;
        }

        // Candidate CSR by counting sort on request row, filling the bit
        // matrix in the same sweep.
        let rows = self.requests.len();
        self.cand_off.clear();
        self.cand_off.resize(rows + 1, 0);
        for &(_, to, _) in &self.other {
            let row = self.req_row[to as usize] as usize;
            self.cand_off[row + 1] += 1;
        }
        for r in 0..rows {
            self.cand_off[r + 1] += self.cand_off[r];
        }
        let total = self.cand_off[rows] as usize;
        self.cand_box.clear();
        self.cand_box.resize(total, 0);
        self.cand_edge.clear();
        self.cand_edge.resize(total, 0);
        self.cand_cursor.clear();
        self.cand_cursor.extend_from_slice(&self.cand_off[..rows]);
        self.adj.reset(rows, self.boxes.len());
        for &(from, to, idx) in &self.other {
            let row = self.req_row[to as usize] as usize;
            let col = self.box_col[from as usize] as usize;
            // A row's candidate edges carry the row's demand (so at most
            // one of them can be saturated at a time).
            let demand = arena.edge(self.sink_edge[row] as usize).original_cap;
            if arena.edge(idx as usize).original_cap != demand || self.adj.contains(row, col) {
                self.valid = false; // or parallel candidate edges
                return false;
            }
            self.adj.set(row, col);
            let at = self.cand_cursor[row] as usize;
            self.cand_cursor[row] += 1;
            self.cand_box[at] = col as u32;
            self.cand_edge[at] = idx;
        }

        self.valid
    }

    /// Candidate `(box column, arena edge)` pairs of one request row.
    pub fn cands(&self, row: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let lo = self.cand_off[row] as usize;
        let hi = self.cand_off[row + 1] as usize;
        self.cand_box[lo..hi]
            .iter()
            .copied()
            .zip(self.cand_edge[lo..hi].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_set_unset_contains() {
        let mut s = BitSet::new();
        s.reset(130);
        assert_eq!(s.len(), 130);
        assert_eq!(s.count_ones(), 0);
        s.set(0);
        s.set(63);
        s.set(64);
        s.set(129);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1) && !s.contains(128));
        assert_eq!(s.count_ones(), 4);
        s.unset(64);
        assert!(!s.contains(64));
        assert_eq!(s.count_ones(), 3);
        s.clear_all();
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.len(), 130);
    }

    #[test]
    fn ones_leaves_the_padding_bits_zero() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let s = BitSet::ones(len);
            assert_eq!((s.len(), s.count_ones()), (len, len), "len {len}");
            assert!(!s.get(len), "len {len}: past the end");
            assert_eq!(s.get(len.saturating_sub(1)), len > 0, "len {len}");
            let mut seen = Vec::new();
            for_each_set_bit(s.words(), |i| seen.push(i));
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len {len}");
        }
    }

    #[test]
    fn bitset_reset_reuses_allocation() {
        let mut s = BitSet::new();
        s.reset(1024);
        s.set(1000);
        let cap = s.words.capacity();
        s.reset(512);
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.words.capacity(), cap);
    }

    #[test]
    fn adjacency_rows_and_bits() {
        let mut a = BitAdjacency::new();
        a.reset(3, 70);
        a.set(0, 0);
        a.set(0, 69);
        a.set(2, 64);
        assert!(a.contains(0, 0) && a.contains(0, 69) && a.contains(2, 64));
        assert!(!a.contains(1, 0));
        assert_eq!(a.words_per_row(), 2);
        assert_eq!(a.row(0)[0], 1);
        assert_eq!(a.row(0)[1], 1 << 5);
        assert_eq!(a.row(1), &[0, 0]);
    }

    #[test]
    fn for_each_set_bit_visits_ascending() {
        let words = [1u64 | (1 << 63), 1 << 2];
        let mut seen = Vec::new();
        for_each_set_bit(&words, |i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 66]);
    }

    #[test]
    fn shape_recovers_lemma1_layout() {
        // source=0, boxes 1..=2, requests 3..=4, sink=5.
        let mut a = FlowArena::new();
        a.clear(6);
        let s0 = a.add_edge(0, 1, 2);
        let _s1 = a.add_edge(0, 2, 1);
        let _c0 = a.add_edge(1, 3, 1);
        let _c1 = a.add_edge(1, 4, 1);
        let _c2 = a.add_edge(2, 4, 1);
        let t0 = a.add_edge(3, 5, 1);
        let _t1 = a.add_edge(4, 5, 1);
        let mut shape = BipartiteShape::default();
        assert!(shape.analyze(&a, 0, 5));
        assert_eq!(shape.boxes, vec![1, 2]);
        assert_eq!(shape.requests, vec![3, 4]);
        assert_eq!(shape.source_edge[0], s0 as u32);
        assert_eq!(shape.sink_edge[0], t0 as u32);
        assert!(shape.adj.contains(0, 0));
        assert!(shape.adj.contains(1, 0) && shape.adj.contains(1, 1));
        assert!(!shape.adj.contains(0, 1));
        assert_eq!(shape.cands(1).count(), 2);
    }

    #[test]
    fn shape_rejects_non_lemma1_graphs() {
        // A two-hop (relay-like) chain is not Lemma-1 shaped.
        let mut a = FlowArena::new();
        a.clear(5);
        a.add_edge(0, 1, 1);
        a.add_edge(1, 2, 1);
        a.add_edge(2, 3, 1);
        a.add_edge(3, 4, 1);
        let mut shape = BipartiteShape::default();
        assert!(!shape.analyze(&a, 0, 4));

        // So is a candidate edge that does not carry its row's demand.
        let mut b = FlowArena::new();
        b.clear(4);
        b.add_edge(0, 1, 2);
        b.add_edge(1, 2, 2);
        b.add_edge(2, 3, 1);
        assert!(!shape.analyze(&b, 0, 3));

        // So is a row of demand 0, and a request with two sink edges.
        let mut c = FlowArena::new();
        c.clear(4);
        c.add_edge(0, 1, 1);
        c.add_edge(2, 3, 0);
        assert!(!shape.analyze(&c, 0, 3));
        c.clear(4);
        c.add_edge(0, 1, 1);
        c.add_edge(1, 2, 1);
        c.add_edge(2, 3, 1);
        c.add_edge(2, 3, 1);
        assert!(!shape.analyze(&c, 0, 3));
    }

    #[test]
    fn shape_accepts_row_classes_and_says_so() {
        // Row 3 is a class of three requests: demand 3 on its sink edge and
        // on both candidate edges. Row 4 is a plain request.
        let mut a = FlowArena::new();
        a.clear(6);
        a.add_edge(0, 1, 2);
        a.add_edge(0, 2, 2);
        a.add_edge(1, 3, 3);
        a.add_edge(2, 3, 3);
        a.add_edge(2, 4, 1);
        a.add_edge(3, 5, 3);
        a.add_edge(4, 5, 1);
        let mut shape = BipartiteShape::default();
        assert!(shape.analyze(&a, 0, 5));
        assert!(!shape.unit_rows);
        assert!(shape.adj.contains(0, 0) && shape.adj.contains(0, 1));
    }
}
