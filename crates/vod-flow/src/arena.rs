//! The flow network: a directed graph with integer capacities in flat,
//! reusable storage.
//!
//! The connection-matching feasibility question of Lemma 1 is answered by a
//! maximum-flow computation over this network. Capacities are integers: the
//! caller scales the paper's rational capacities (`u_b`, `1/c`) by `c` so
//! that one unit of flow corresponds to one stripe connection.
//!
//! The [`FlowArena`] stores the residual graph in flat arrays — an edge list
//! with intrusive linked-list adjacency (`head`/`next`) — so
//! [`FlowArena::clear`] reuses every allocation: rebuilding the network for
//! the next solve allocates nothing once the arena has grown to the working
//! set. Edge indices are assigned in insertion order and the residual twin
//! of edge `e` is always `e ^ 1`.

/// Index of a node in the network.
pub type NodeId = usize;

/// Sentinel terminating an adjacency list.
const NIL: i64 = -1;

/// One directed edge of the arena (the residual twin lives at `index ^ 1`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaEdge {
    /// Target node.
    pub to: u32,
    /// Remaining residual capacity.
    pub cap: i64,
    /// Capacity the edge was created with.
    pub original_cap: i64,
}

/// A flow network in flat reusable storage.
#[derive(Clone, Debug, Default)]
pub struct FlowArena {
    edges: Vec<ArenaEdge>,
    /// First outgoing edge per node (`-1` when none).
    head: Vec<i64>,
    /// Next edge in the source node's adjacency list (`-1` terminates).
    next: Vec<i64>,
}

impl FlowArena {
    /// Creates an empty arena with no nodes.
    pub fn new() -> Self {
        FlowArena::default()
    }

    /// Creates an empty arena pre-sized for `nodes` nodes and `edges`
    /// directed edges (twins included).
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        FlowArena {
            edges: Vec::with_capacity(edges),
            head: Vec::with_capacity(nodes),
            next: Vec::with_capacity(edges),
        }
    }

    /// Drops every node and edge but keeps the allocations, then recreates
    /// `nodes` isolated nodes.
    pub fn clear(&mut self, nodes: usize) {
        self.edges.clear();
        self.next.clear();
        self.head.clear();
        self.head.resize(nodes, NIL);
    }

    /// Adds one extra node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.head.push(NIL);
        self.head.len() - 1
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.head.len()
    }

    /// Number of directed edges (including residual twins).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a directed edge `from → to` with capacity `cap` and returns its
    /// edge index (the residual twin is at `index ^ 1`).
    ///
    /// # Panics
    /// Panics if either endpoint is out of range or the capacity is negative.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cap: i64) -> usize {
        assert!(
            from < self.head.len() && to < self.head.len(),
            "node out of range"
        );
        assert!(cap >= 0, "capacity must be non-negative");
        let idx = self.edges.len();
        self.edges.push(ArenaEdge {
            to: to as u32,
            cap,
            original_cap: cap,
        });
        self.edges.push(ArenaEdge {
            to: from as u32,
            cap: 0,
            original_cap: 0,
        });
        self.next.push(self.head[from]);
        self.next.push(self.head[to]);
        self.head[from] = idx as i64;
        self.head[to] = idx as i64 + 1;
        idx
    }

    /// The edge with the given index.
    pub fn edge(&self, idx: usize) -> ArenaEdge {
        self.edges[idx]
    }

    /// Target node of edge `idx`.
    pub fn target(&self, idx: usize) -> NodeId {
        self.edges[idx].to as usize
    }

    /// Residual capacity of edge `idx`.
    pub fn residual(&self, idx: usize) -> i64 {
        self.edges[idx].cap
    }

    /// Flow currently pushed along edge `idx` (original capacity minus
    /// residual capacity).
    pub fn flow_on(&self, idx: usize) -> i64 {
        self.edges[idx].original_cap - self.edges[idx].cap
    }

    /// Pushes `amount` units of flow along edge `idx`, updating the twin.
    /// Negative amounts cancel previously pushed flow.
    pub fn push(&mut self, idx: usize, amount: i64) {
        self.edges[idx].cap -= amount;
        self.edges[idx ^ 1].cap += amount;
        debug_assert!(self.edges[idx].cap >= 0, "over-pushed edge {idx}");
        debug_assert!(self.edges[idx ^ 1].cap >= 0, "over-cancelled edge {idx}");
    }

    /// True when some edge carries flow. Every solve starts from an arena
    /// that does not (see [`crate::solver::MaxFlowSolve`]).
    pub fn carries_flow(&self) -> bool {
        self.edges.iter().any(|e| e.cap != e.original_cap)
    }

    /// First outgoing edge of `node`, or `None` (start of an adjacency walk;
    /// continue with [`FlowArena::next_edge`]).
    pub fn first_edge(&self, node: NodeId) -> Option<usize> {
        let e = self.head[node];
        (e != NIL).then_some(e as usize)
    }

    /// Edge following `idx` in its source node's adjacency list.
    pub fn next_edge(&self, idx: usize) -> Option<usize> {
        let e = self.next[idx];
        (e != NIL).then_some(e as usize)
    }

    /// Iterator over the indices of the edges leaving `node` (forward edges
    /// and residual twins).
    pub fn edges_from(&self, node: NodeId) -> EdgeIter<'_> {
        EdgeIter {
            arena: self,
            cursor: self.head[node],
        }
    }

    /// Marks the nodes reachable from `start` in the residual graph (edges
    /// with strictly positive residual capacity) into `seen`, reusing `seen`
    /// and `stack` as scratch. After a maximum flow this is the source side
    /// of a minimum cut.
    pub fn residual_reachable_into(
        &self,
        start: NodeId,
        seen: &mut Vec<bool>,
        stack: &mut Vec<NodeId>,
    ) {
        seen.clear();
        seen.resize(self.node_count(), false);
        stack.clear();
        stack.push(start);
        seen[start] = true;
        while let Some(v) = stack.pop() {
            let mut cursor = self.first_edge(v);
            while let Some(idx) = cursor {
                let e = &self.edges[idx];
                if e.cap > 0 && !seen[e.to as usize] {
                    seen[e.to as usize] = true;
                    stack.push(e.to as usize);
                }
                cursor = self.next_edge(idx);
            }
        }
    }

    /// The set of nodes reachable from `start` in the residual graph
    /// (allocating convenience form of
    /// [`FlowArena::residual_reachable_into`]).
    pub fn residual_reachable(&self, start: NodeId) -> Vec<bool> {
        let mut seen = Vec::new();
        let mut stack = Vec::new();
        self.residual_reachable_into(start, &mut seen, &mut stack);
        seen
    }

    /// Total flow leaving `node` on forward edges minus flow entering it —
    /// zero for every node except the source and sink of a valid flow.
    pub fn net_outflow(&self, node: NodeId) -> i64 {
        let mut net = 0;
        let mut cursor = self.first_edge(node);
        while let Some(idx) = cursor {
            if idx % 2 == 0 {
                net += self.flow_on(idx);
            } else {
                net -= self.flow_on(idx ^ 1);
            }
            cursor = self.next_edge(idx);
        }
        net
    }
}

/// Iterator over the edge indices leaving one node.
pub struct EdgeIter<'a> {
    arena: &'a FlowArena,
    cursor: i64,
}

impl Iterator for EdgeIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cursor == NIL {
            return None;
        }
        let idx = self.cursor as usize;
        self.cursor = self.arena.next[idx];
        Some(idx)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An `n`-node arena with the given `(from, to, capacity)` edges.
    pub(crate) fn build(n: usize, edges: &[(usize, usize, i64)]) -> FlowArena {
        let mut arena = FlowArena::new();
        arena.clear(n);
        for &(from, to, cap) in edges {
            arena.add_edge(from, to, cap);
        }
        arena
    }

    /// CLRS figure 26.1-style network from 0 to 5, max flow 23.
    pub(crate) const TEXTBOOK: [(usize, usize, i64); 10] = [
        (0, 1, 16),
        (0, 2, 13),
        (1, 2, 10),
        (2, 1, 4),
        (1, 3, 12),
        (3, 2, 9),
        (2, 4, 14),
        (4, 3, 7),
        (3, 5, 20),
        (4, 5, 4),
    ];

    /// Sum of the capacities of the forward edges crossing from `side` to
    /// its complement: the capacity of the cut `side` defines.
    pub(crate) fn cut_capacity(arena: &FlowArena, side: &[bool]) -> i64 {
        (0..arena.edge_count())
            .step_by(2)
            .filter(|&idx| side[arena.target(idx ^ 1)] && !side[arena.target(idx)])
            .map(|idx| arena.edge(idx).original_cap)
            .sum()
    }

    #[test]
    fn add_edge_creates_residual_twin() {
        let mut a = FlowArena::new();
        a.clear(2);
        let e = a.add_edge(0, 1, 5);
        assert_eq!(e, 0);
        assert_eq!(a.residual(e), 5);
        assert_eq!(a.residual(e ^ 1), 0);
        assert_eq!(a.target(e ^ 1), 0);
        assert_eq!(a.edge_count(), 2);
    }

    #[test]
    fn push_and_reset() {
        let mut a = FlowArena::new();
        a.clear(2);
        let e = a.add_edge(0, 1, 5);
        assert!(!a.carries_flow());
        a.push(e, 3);
        assert_eq!(a.residual(e), 2);
        assert_eq!(a.residual(e ^ 1), 3);
        assert_eq!(a.flow_on(e), 3);
        assert!(a.carries_flow());
        a.push(e, -3);
        assert_eq!(a.flow_on(e), 0);
        assert_eq!(a.residual(e), 5);
        assert!(!a.carries_flow());
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn edge_to_a_missing_node_rejected() {
        let mut a = FlowArena::new();
        a.clear(2);
        a.add_edge(0, 2, 1);
    }

    #[test]
    fn clear_reuses_allocations() {
        let mut a = FlowArena::new();
        a.clear(100);
        for i in 0..99 {
            a.add_edge(i, i + 1, 1);
        }
        let edge_capacity = a.edges.capacity();
        let head_capacity = a.head.capacity();
        a.clear(100);
        assert_eq!(a.edge_count(), 0);
        for i in 0..99 {
            a.add_edge(i, i + 1, 1);
        }
        assert_eq!(a.edges.capacity(), edge_capacity);
        assert_eq!(a.head.capacity(), head_capacity);
    }

    #[test]
    fn adjacency_iteration_covers_all_edges() {
        let mut a = FlowArena::new();
        a.clear(3);
        a.add_edge(0, 1, 1);
        a.add_edge(0, 2, 2);
        a.add_edge(1, 2, 3);
        let from0: Vec<usize> = a.edges_from(0).collect();
        // Linked list yields most-recent first.
        assert_eq!(from0, vec![2, 0]);
        let from1: Vec<usize> = a.edges_from(1).collect();
        assert_eq!(from1, vec![4, 1]);
    }

    #[test]
    fn residual_reachability_matches_network_semantics() {
        let mut a = FlowArena::new();
        a.clear(3);
        let e01 = a.add_edge(0, 1, 1);
        let _e12 = a.add_edge(1, 2, 1);
        // Saturate 0→1: nodes 1 and 2 are unreachable from 0, while from
        // node 1 both 2 (forward) and 0 (residual) are reachable.
        a.push(e01, 1);
        assert_eq!(a.residual_reachable(0), vec![true, false, false]);
        assert_eq!(a.residual_reachable(1), vec![true, true, true]);
    }

    #[test]
    fn net_outflow_conservation() {
        let mut a = FlowArena::new();
        a.clear(3);
        let x = a.add_edge(0, 1, 2);
        let y = a.add_edge(1, 2, 2);
        a.push(x, 2);
        a.push(y, 2);
        assert_eq!(a.net_outflow(0), 2);
        assert_eq!(a.net_outflow(1), 0);
        assert_eq!(a.net_outflow(2), -2);
    }
}
