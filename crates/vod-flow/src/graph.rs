//! Residual-graph contract of [`FlowArena`]: the invariants every solver and
//! the Hall-obstruction extraction rely on — residual twins at `e ^ 1`,
//! push symmetry, residual reachability, cut capacity, and conservation —
//! checked through the public API. (The arena's storage-level behaviour is
//! tested in `arena`.)

#[cfg(test)]
mod tests {
    use crate::arena::tests::{build, cut_capacity, TEXTBOOK};
    use crate::{Dinic, FlowArena, MaxFlowSolve};

    #[test]
    fn add_edge_creates_residual_twin() {
        let mut g = build(3, &[(0, 1, 5)]);
        let e = g.add_edge(1, 2, 7);
        assert_eq!(e, 2);
        let forward = g.edge(e);
        assert_eq!((forward.to, forward.cap, forward.original_cap), (2, 7, 7));
        let twin = g.edge(e ^ 1);
        assert_eq!((twin.to, twin.cap, twin.original_cap), (1, 0, 0));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn push_moves_capacity_to_twin() {
        let mut g = build(2, &[(0, 1, 5)]);
        g.push(0, 3);
        assert_eq!(g.residual(0), 2);
        assert_eq!(g.residual(1), 3);
        assert_eq!(g.flow_on(0), 3);
        // Pushing along the twin cancels flow on the forward edge.
        g.push(1, 3);
        assert_eq!(g.residual(0), 5);
        assert_eq!(g.residual(1), 0);
        assert_eq!(g.flow_on(0), 0);
        assert!(!g.carries_flow());
    }

    #[test]
    fn residual_reachability() {
        // One unit routed 0→1→3 saturates both edges; 0→2→1 stays open.
        let mut g = build(4, &[(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 1, 1)]);
        g.push(0, 1);
        g.push(4, 1);
        // From 0, node 1 is reached through 2, but 3 is cut off.
        assert_eq!(g.residual_reachable(0), vec![true, true, true, false]);
        // From 3, the residual twins lead back 3→1→0, then forward to 2.
        assert_eq!(g.residual_reachable(3), vec![true, true, true, true]);
        let (mut seen, mut stack) = (Vec::new(), Vec::new());
        g.residual_reachable_into(2, &mut seen, &mut stack);
        assert_eq!(seen, vec![true, true, true, false]);
    }

    #[test]
    fn cut_capacity_counts_forward_edges_only() {
        let g = build(4, &[(0, 1, 3), (0, 2, 2), (1, 3, 1), (2, 3, 4)]);
        // Cut {0} vs {1,2,3}: capacity 3 + 2.
        assert_eq!(cut_capacity(&g, &[true, false, false, false]), 5);
        // Cut {0,1,2} vs {3}: capacity 1 + 4.
        assert_eq!(cut_capacity(&g, &[true, true, true, false]), 5);
        // An edge entering the side does not count.
        assert_eq!(cut_capacity(&g, &[false, true, false, false]), 1);
    }

    #[test]
    fn net_outflow_conservation() {
        let mut g = build(6, &TEXTBOOK);
        let flow = Dinic::new().max_flow(&mut g, 0, 5);
        assert_eq!(flow, 23);
        assert_eq!(g.net_outflow(0), 23);
        assert_eq!(g.net_outflow(5), -23);
        for v in 1..5 {
            assert_eq!(g.net_outflow(v), 0, "node {v}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be non-negative")]
    fn negative_capacity_rejected() {
        let mut g = FlowArena::new();
        g.clear(2);
        g.add_edge(0, 1, -1);
    }

    #[test]
    fn add_node_grows_graph() {
        let mut g = FlowArena::new();
        g.clear(1);
        let n = g.add_node();
        assert_eq!(n, 1);
        assert_eq!(g.node_count(), 2);
        g.add_edge(0, n, 1);
    }
}
