//! # vod-flow
//!
//! Maximum-flow and matching substrate for the P2P Video-on-Demand threshold
//! model. The paper (Lemma 1) reduces per-round schedulability — wiring every
//! pending stripe request to a box that holds the data without exceeding any
//! box's upload capacity — to a maximum-flow feasibility question on a
//! bipartite network. This crate provides:
//!
//! * [`arena`] — the integer-capacity flow network, [`FlowArena`] (flat
//!   storage, reused across builds);
//! * [`candidates`] — the pooled flat CSR candidate representation
//!   ([`CandidateBuf`] / borrowed [`CandidateView`], with optional per-row
//!   change stamps) shared by every candidate-consuming stage;
//! * [`solver`] — the unified [`MaxFlowSolve`] trait every solver
//!   implements;
//! * [`bitset`] — word-parallel kernels ([`BitSet`], [`BitAdjacency`], and
//!   the Lemma-1 shape analysis) shared by the solver fast paths;
//! * [`dinic`] — Dinic's algorithm (default solver), with a word-parallel
//!   level BFS on Lemma-1-shaped arenas;
//! * [`push_relabel`] — FIFO push–relabel with gap + global-relabel
//!   heuristics;
//! * [`hopcroft_karp`] — plain bipartite matching ([`HopcroftKarp`], the
//!   tests' reference), the word-parallel capacitated [`BitHopcroftKarp`],
//!   and the [`HopcroftKarpSolve`] adapter exposing the latter as a
//!   [`MaxFlowSolve`];
//! * [`matching`] — the connection-matching problem builder and solution
//!   extraction;
//! * [`hall`] — obstruction (Hall-violator) extraction from minimum cuts;
//! * [`relay`] — the borrowed per-round relay attribution ([`RelayView`])
//!   and lending counts ([`RelayLendStats`]) of the `Scheduler` trait's
//!   relayed entry points. Relaying needs no flow structure of its own:
//!   reservations are disjoint from the open budgets, so every round is a
//!   plain Lemma-1 instance.
//!
//! No solver reads a clock. Round time is measured by the engine's tracer
//! (`vod-obs`) and by `benchmark/`; the `vod-obs` dependency is only the
//! [`TraceHandle`](vod_obs::TraceHandle) in the signature of the no-op
//! [`MaxFlowSolve::attach_tracer`], which `benchmark/` still compiles
//! against.
//!
//! ## Solving a round
//!
//! Every solve is cold: a solver receives a freshly built [`FlowArena`]
//! carrying no flow and returns the max-flow value (see [`MaxFlowSolve`]).
//! Build a [`ConnectionProblem`], pick a solver, and either let the problem
//! allocate a throwaway arena ([`ConnectionProblem::solve_with`]) or reuse
//! one across rounds ([`ConnectionProblem::solve_in`]):
//!
//! ```
//! use vod_flow::{ConnectionProblem, Dinic, FlowArena};
//! use vod_core::BoxId;
//!
//! let mut arena = FlowArena::new();
//! let mut solver = Dinic::new();
//! let mut problem = ConnectionProblem::new(vec![2, 2]);
//! problem.add_request([BoxId(0), BoxId(1)]);
//! let matching = problem.solve_in(&mut arena, &mut solver);
//! assert!(matching.is_complete());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod bitset;
pub mod candidates;
pub mod dinic;
#[cfg(test)]
mod graph;
pub mod hall;
pub mod hopcroft_karp;
pub mod matching;
pub mod push_relabel;
pub mod relay;
pub mod solver;

pub use arena::{ArenaEdge, FlowArena, NodeId};
pub use bitset::{BitAdjacency, BitSet};
pub use candidates::{CandidateBuf, CandidateView, NO_STAMP};
pub use dinic::Dinic;
pub use hall::{check_subset, find_obstruction, verify_lemma1, Obstruction};
pub use hopcroft_karp::{BitHopcroftKarp, HopcroftKarp, HopcroftKarpSolve};
pub use matching::{ConnectionMatching, ConnectionProblem};
pub use push_relabel::PushRelabel;
pub use relay::{RelayLendStats, RelayView};
pub use solver::MaxFlowSolve;
