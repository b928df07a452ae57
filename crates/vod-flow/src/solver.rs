//! The unified maximum-flow solver interface.
//!
//! Every solver in this crate — [`crate::dinic::Dinic`],
//! [`crate::push_relabel::PushRelabel`], and the matching-backed
//! [`crate::hopcroft_karp::HopcroftKarpSolve`] — implements [`MaxFlowSolve`]
//! over a [`FlowArena`]. The contract is *cold*:
//!
//! * the arena carries no flow on entry (it was just built; debug builds
//!   assert this);
//! * `max_flow` leaves a maximum `source → sink` flow in the arena and
//!   returns its value;
//! * solvers own their scratch buffers and reuse them across calls, so
//!   solving a rebuilt arena allocates nothing once the buffers have grown.

use crate::arena::{FlowArena, NodeId};
use vod_obs::TraceHandle;

/// A maximum-flow algorithm over a reusable [`FlowArena`].
///
/// The [`Send`] bound has no user left — scheduling is single-threaded and
/// the Monte-Carlo workers build their solvers on the thread that uses
/// them — but `benchmark/` compiles against this trait as it stands, and
/// every solver in this crate is plain owned data, so the bound is free.
///
/// ```
/// use vod_flow::{Dinic, FlowArena, MaxFlowSolve};
///
/// // source 0 → node 1 → sink 2, bottleneck 3.
/// let mut arena = FlowArena::new();
/// arena.clear(3);
/// arena.add_edge(0, 1, 5);
/// arena.add_edge(1, 2, 3);
/// let mut solver = Dinic::new();
/// assert_eq!(solver.max_flow(&mut arena, 0, 2), 3);
/// assert_eq!(arena.flow_on(2), 3);
/// // A second solve starts from a rebuilt arena.
/// arena.clear(2);
/// arena.add_edge(0, 1, 4);
/// assert_eq!(solver.max_flow(&mut arena, 0, 1), 4);
/// ```
pub trait MaxFlowSolve: Send {
    /// Computes a maximum `source → sink` flow in an arena that carries no
    /// flow, mutating residual capacities in place, and returns the max-flow
    /// value.
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64;

    /// Short solver name for reports and benchmark labels.
    fn name(&self) -> &'static str;

    /// A no-op: no solver records spans, and nothing in the tree calls or
    /// overrides this. Kept for `benchmark/`, which implements and calls
    /// it, until revision 2a.
    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        let _ = tracer;
    }
}

impl MaxFlowSolve for Box<dyn MaxFlowSolve> {
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64 {
        (**self).max_flow(arena, source, sink)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        (**self).attach_tracer(tracer);
    }
}
