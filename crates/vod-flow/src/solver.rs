//! The unified maximum-flow solver interface.
//!
//! Every solver in this crate — [`crate::dinic::Dinic`],
//! [`crate::push_relabel::PushRelabel`], and the matching-backed
//! [`crate::hopcroft_karp::HopcroftKarpSolve`] — implements [`MaxFlowSolve`]
//! over a [`FlowArena`], replacing the old enum-style solver dispatch. The
//! contract is *residual-state* based, which is what makes warm starts work:
//!
//! * the arena may already carry a valid flow (e.g. last round's matching
//!   patched for this round's changes);
//! * `max_flow` augments that flow to a maximum flow and returns only the
//!   **additional** flow pushed during this call;
//! * solvers own their scratch buffers and reuse them across calls, so a
//!   steady-state solve performs no heap allocation (the cross-checking
//!   [`crate::hopcroft_karp::HopcroftKarpSolve`] adapter is the documented
//!   exception: it rebuilds its matching graph per call).

use crate::arena::FlowArena;
use crate::graph::NodeId;
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
/// // The contract is residual-state based: a second call finds the flow
/// // already maximum and pushes nothing more.
/// assert_eq!(solver.max_flow(&mut arena, 0, 2), 0);
/// ```
pub trait MaxFlowSolve: Send {
    /// Augments the arena's current flow to a maximum `source → sink` flow,
    /// mutating residual capacities in place. Returns the flow pushed by this
    /// call (the total flow is the caller's previous total plus this value;
    /// on a freshly built arena it is the max-flow value itself).
    fn max_flow(&mut self, arena: &mut FlowArena, source: NodeId, sink: NodeId) -> i64;

    /// Short solver name for reports and benchmark labels.
    fn name(&self) -> &'static str;

    /// Installs a trace handle for solver-phase spans (shape analysis,
    /// matching phases, global relabels). The default keeps the solver
    /// untraced — solvers without internal phases need not override this,
    /// and an [`TraceHandle::off`] handle costs nothing on the hot path.
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
