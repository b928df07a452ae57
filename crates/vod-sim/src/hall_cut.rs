//! The Lemma-1 cut of a failing round, read off the round's own assignment.
//!
//! Lemma 1: a round is feasible iff no request set `X` has
//! `Σ_{b ∈ B(X)} ⌊u_b·c⌋ < |X|`. A maximum matching carries such a set as
//! its dual (König–Egerváry), so a failing round needs no second solve to
//! name it: one alternating breadth-first search over the assignment the
//! scheduler returned finds the boxes the Lemma-1 network's residual graph
//! reaches from its source.
//!
//! The search starts at every box with a spare slot (`load < slots`), goes
//! from a box to each request whose row lists it and which it does not
//! serve, and from there to the box that does. Reaching an unserved request
//! means the assignment was not maximum (a greedy or random scheduler): the
//! path is flipped and the search runs again. Otherwise `X` is the set of
//! requests none of whose candidates was reached and `B(X)` the union of
//! their rows. Every maximum flow leaves the same residual-reachable set, so
//! this is the set [`vod_flow::find_obstruction`] extracts from a fresh
//! Dinic solve — the largest set of maximum deficiency — whatever maximum
//! matching it is read from; and its deficiency is the number of requests
//! left unserved: every box of `B(X)` is full, and full of requests of `X`.

use vod_core::BoxId;
use vod_flow::CandidateView;

/// "Not reached" (and "unserved" in the per-request server table).
const NIL: u32 = u32::MAX;
/// A box the search started at: it has a spare slot.
const SEED: u32 = u32::MAX - 1;
/// A box of `B(X)` whose slots are already counted in the cut.
const COUNTED: u32 = u32::MAX - 2;

/// The size of a Hall violator `X` and the capacity of its neighbourhood.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HallDeficit {
    /// `|X|`: requests none of whose candidates the search reached.
    pub size: usize,
    /// `Σ_{b ∈ B(X)} slots_b`, in stripe connections.
    pub capacity: u64,
}

/// Reads the Lemma-1 min cut off a round's assignment, with pooled scratch:
/// once its tables have grown to a round's size, a read allocates nothing.
///
/// ```
/// use vod_core::BoxId;
/// use vod_flow::CandidateBuf;
/// use vod_sim::HallCut;
///
/// // Three requests over box 0 (one slot), one over box 1, all served
/// // where they can be.
/// let mut rows = CandidateBuf::new();
/// rows.fill_from_slices(&[vec![BoxId(0)], vec![BoxId(0)], vec![BoxId(0)], vec![BoxId(1)]]);
/// let assignment = [Some(BoxId(0)), None, None, Some(BoxId(1))];
/// let mut cut = HallCut::new();
/// let deficit = cut.read(&[1, 4], rows.view(), &assignment).expect("two unserved");
/// assert_eq!((deficit.size, deficit.capacity), (3, 1));
/// assert_eq!(cut.requests(), [0, 1, 2]);
/// ```
#[derive(Debug, Default)]
pub struct HallCut {
    /// Per request: the box serving it ([`NIL`]: unserved), then the box it
    /// was reached from.
    serve: Vec<u32>,
    req_via: Vec<u32>,
    /// Per box: the units it sends, then the request it was reached through
    /// ([`SEED`], [`NIL`], [`COUNTED`]).
    load: Vec<u32>,
    box_via: Vec<u32>,
    /// Box → request CSR of the rows: box `b` is listed by the requests
    /// `listed[start[b]..start[b + 1]]`.
    start: Vec<u32>,
    listed: Vec<u32>,
    queue: Vec<u32>,
    requests: Vec<usize>,
    augmented: usize,
}

impl HallCut {
    /// A reader with empty scratch.
    pub fn new() -> Self {
        HallCut::default()
    }

    /// The Lemma-1 cut of the round whose boxes have `slots` connections
    /// each, whose requests have candidate `rows`, and to which a scheduler
    /// returned `assignment` (valid: every served request goes to a box of
    /// its row, no box above its slots). Candidates outside the box range
    /// are ignored and duplicates count once.
    ///
    /// `None` when a matching serves every request — at once, or after the
    /// augmenting paths a non-maximum `assignment` leaves are flipped (in
    /// scratch; `assignment` is not touched).
    pub fn read(
        &mut self,
        slots: &[u32],
        rows: CandidateView<'_>,
        assignment: &[Option<BoxId>],
    ) -> Option<HallDeficit> {
        assert_eq!(assignment.len(), rows.len(), "one assignment per request");
        assert!(rows.len() < COUNTED as usize, "request index overflow");
        let boxes = slots.len();
        self.requests.clear();
        self.augmented = 0;
        self.load.clear();
        self.load.resize(boxes, 0);
        self.serve.clear();
        for served in assignment {
            self.serve.push(match served {
                Some(b) => {
                    self.load[b.index()] += 1;
                    b.0
                }
                None => NIL,
            });
        }
        let unserved_given = self.serve.iter().filter(|&&s| s == NIL).count();
        if unserved_given == 0 {
            return None;
        }
        self.index_rows(boxes, rows);
        while let Some(end) = self.reach(slots) {
            self.flip(end);
            self.augmented += 1;
            if self.augmented == unserved_given {
                return None;
            }
        }
        let mut capacity = 0;
        for (x, row) in rows.rows().enumerate() {
            let in_range = || row.iter().map(|b| b.index()).filter(|&b| b < boxes);
            if in_range().any(|b| self.box_via[b] != NIL && self.box_via[b] != COUNTED) {
                continue;
            }
            self.requests.push(x);
            for b in in_range() {
                if self.box_via[b] == NIL {
                    self.box_via[b] = COUNTED;
                    capacity += slots[b] as u64;
                }
            }
        }
        let deficit = HallDeficit {
            size: self.requests.len(),
            capacity,
        };
        // König–Egerváry: the matching's deficit is the cut's deficiency.
        debug_assert_eq!(
            deficit.size as u64,
            capacity + (unserved_given - self.augmented) as u64,
            "the cut's deficiency is not the number left unserved"
        );
        Some(deficit)
    }

    /// The request set `X` of the last [`HallCut::read`], ascending (empty
    /// when it returned `None`).
    pub fn requests(&self) -> &[usize] {
        &self.requests
    }

    /// Augmenting paths the last [`HallCut::read`] flipped: 0 when its
    /// assignment was a maximum matching.
    pub fn augmented(&self) -> usize {
        self.augmented
    }

    /// Builds the box → request CSR of `rows` (in-range entries only).
    fn index_rows(&mut self, boxes: usize, rows: CandidateView<'_>) {
        self.start.clear();
        self.start.resize(boxes + 1, 0);
        for row in rows.rows() {
            for b in row.iter().filter(|b| b.index() < boxes) {
                self.start[b.index() + 1] += 1;
            }
        }
        for b in 0..boxes {
            self.start[b + 1] += self.start[b];
        }
        self.listed.clear();
        self.listed.resize(self.start[boxes] as usize, 0);
        // `box_via` is the fill cursor here; `reach` resets it.
        self.box_via.clear();
        self.box_via.extend_from_slice(&self.start[..boxes]);
        for (x, row) in rows.rows().enumerate() {
            for b in row.iter().filter(|b| b.index() < boxes) {
                let cursor = &mut self.box_via[b.index()];
                self.listed[*cursor as usize] = x as u32;
                *cursor += 1;
            }
        }
    }

    /// One alternating search from every box with a spare slot. Returns the
    /// first unserved request it reaches, or `None` with `box_via` marking
    /// the reached boxes.
    fn reach(&mut self, slots: &[u32]) -> Option<u32> {
        let boxes = slots.len();
        self.box_via.clear();
        self.box_via.resize(boxes, NIL);
        self.req_via.clear();
        self.req_via.resize(self.serve.len(), NIL);
        self.queue.clear();
        for (b, (&load, &slots)) in self.load.iter().zip(slots).enumerate() {
            if load < slots {
                self.box_via[b] = SEED;
                self.queue.push(b as u32);
            }
        }
        let mut head = 0;
        while let Some(&b) = self.queue.get(head) {
            head += 1;
            let (from, to) = (self.start[b as usize], self.start[b as usize + 1]);
            for &x in &self.listed[from as usize..to as usize] {
                let server = self.serve[x as usize];
                if server == b || self.req_via[x as usize] != NIL {
                    continue;
                }
                self.req_via[x as usize] = b;
                if server == NIL {
                    return Some(x);
                }
                if self.box_via[server as usize] == NIL {
                    self.box_via[server as usize] = x;
                    self.queue.push(server);
                }
            }
        }
        None
    }

    /// Flips the path `reach` found to the unserved request `end`: each
    /// request on it moves to the box it was reached from, so only the seed
    /// box gains a unit.
    fn flip(&mut self, end: u32) {
        let mut x = end;
        loop {
            let b = self.req_via[x as usize];
            self.serve[x as usize] = b;
            match self.box_via[b as usize] {
                SEED => {
                    self.load[b as usize] += 1;
                    return;
                }
                prev => x = prev,
            }
        }
    }
}
