//! Per-swarm sharded scheduling with parallel shard solves.
//!
//! Requests for different videos only interact through the shared per-box
//! upload budgets, so a round's Lemma-1 instance is block-structured: one
//! block per swarm, coupled by the capacities. The [`ShardedMatcher`]
//! exploits this in four deterministic stages:
//!
//! 1. **Partition** — requests are grouped by the video of their stripe
//!    ([`vod_flow::ShardedArena::partition`], pooled flat storage);
//! 2. **Budget split** — each box's `⌊u_b·c⌋` upload slots are divided
//!    across the swarms demanding it. The default [`SplitPolicy::WaterFill`]
//!    grants slots first to the swarms with the largest *observed deficit*
//!    (a per-shard decayed count of requests the split starved in recent
//!    rounds), then splits the remainder proportionally to demand
//!    ([`vod_flow::ShardedArena::split_budgets_waterfill`]); with no deficit
//!    history — or under [`SplitPolicy::DemandProportional`] — the split is
//!    purely demand-proportional. Either way the per-shard subproblems are
//!    capacity-disjoint;
//! 3. **Parallel shard solves** — each shard is solved by its own
//!    *persistent* [`IncrementalMatcher`] (warm-started: a swarm's requests
//!    mostly carry over between rounds) on a compact shard-local box
//!    universe. Shards are pulled from a shared work queue by
//!    `std::thread::scope` workers; since every shard's state is owned and
//!    its solve is independent, the result is identical for any thread
//!    count, including 1;
//! 4. **Reconciliation** — a single-threaded repair pass serves every
//!    request the budget split starved, rerouting shard flow where
//!    necessary, so the final matching is globally maximum and sharding
//!    never changes a round's feasibility. The default
//!    [`ReconcilePolicy::Persistent`] keeps the global Lemma-1 network (and
//!    its flow) alive across rounds inside the sharded arena and patches
//!    per-round deltas ([`vod_flow::ShardedArena::reconcile_keyed`], O(Δ));
//!    [`ReconcilePolicy::Rebuild`] is the PR 2 baseline that rebuilds the
//!    network on every reconciled round (O(E) serial). Rounds the shard
//!    phase fully serves skip reconciliation outright.
//!
//! The scheduler is deterministic: for a fixed round sequence the schedule
//! is a pure function of the inputs and the configured policies,
//! independent of the thread count and of OS scheduling.

use crate::scheduler::incremental::KeyHasher;
use crate::scheduler::{IncrementalMatcher, RequestKey, Scheduler};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Mutex;
use std::time::Instant;
use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::BoxId;
use vod_flow::{
    CandidateBuf, CandidateView, ReconcileStats, RelayLendStats, RelayView, ShardedArena,
    SplitStats,
};
use vod_obs::{Stage, TraceHandle};

/// How each box's upload budget is divided across the swarms demanding it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SplitPolicy {
    /// Purely proportional to per-shard demand (the PR 2 baseline).
    DemandProportional,
    /// Water-filling on decayed per-shard deficits, demand-proportional
    /// remainder (default: starved swarms are topped up first, cutting the
    /// fraction of rounds that need reconciliation at all).
    #[default]
    WaterFill,
}

/// How rounds the budget split starved are repaired to a global maximum.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReconcilePolicy {
    /// Rebuild the global network from scratch on every reconciled round
    /// (the PR 2 baseline; O(E) serial).
    Rebuild,
    /// Keep a persistent global network alive across rounds and patch
    /// per-round deltas, warm-starting the repair from the previous round's
    /// residual state (default; O(Δ) per reconciled round).
    #[default]
    Persistent,
}

/// Per-round observability of the sharded scheduler.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardRoundStats {
    /// Shards (distinct videos with active requests) this round.
    pub shards: usize,
    /// Requests in the largest shard.
    pub largest_shard: usize,
    /// Requests served before the reconciliation augmentation ran: shard
    /// assignments kept plus flow carried by the persistent arena (equals
    /// the full request count on rounds that skip reconciliation).
    pub preloaded: usize,
    /// Subset of `preloaded` carried over by the persistent reconciliation
    /// arena from earlier rounds (0 under [`ReconcilePolicy::Rebuild`]).
    pub carried: usize,
    /// Shard-phase assignments reconciliation could not use (always 0 with
    /// a correct budget split and an empty carried flow; tracked
    /// defensively).
    pub dropped: usize,
    /// Requests the budget split starved that reconciliation repaired.
    pub repaired: usize,
    /// Requests unmatched even after reconciliation (the round is infeasible
    /// iff non-zero).
    pub unmatched: usize,
    /// Requests the shard phase left unmatched before reconciliation — the
    /// round's raw budget-split deficit.
    pub shard_unserved: usize,
    /// Sum of the decayed per-shard deficit scores that drove this round's
    /// budget split.
    pub deficit_total: u64,
    /// Largest decayed per-shard deficit score this round.
    pub deficit_max: u64,
    /// Water-filling grant steps performed by this round's budget split
    /// (0 under [`SplitPolicy::DemandProportional`] or with no backlog).
    pub split_iterations: usize,
    /// Whether reconciliation ran (false when the shard phase served every
    /// request).
    pub reconciled: bool,
    /// Whether reconciliation rebuilt the global network from scratch
    /// (always true for reconciled rounds under
    /// [`ReconcilePolicy::Rebuild`]; first call / compaction only under
    /// [`ReconcilePolicy::Persistent`]).
    pub rebuilt: bool,
}

impl JsonCodec for ShardRoundStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("shards", self.shards.to_json()),
            ("largest_shard", self.largest_shard.to_json()),
            ("preloaded", self.preloaded.to_json()),
            ("carried", self.carried.to_json()),
            ("dropped", self.dropped.to_json()),
            ("repaired", self.repaired.to_json()),
            ("unmatched", self.unmatched.to_json()),
            ("shard_unserved", self.shard_unserved.to_json()),
            ("deficit_total", self.deficit_total.to_json()),
            ("deficit_max", self.deficit_max.to_json()),
            ("split_iterations", self.split_iterations.to_json()),
            ("reconciled", self.reconciled.to_json()),
            ("rebuilt", self.rebuilt.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(ShardRoundStats {
            shards: usize::from_json(json.field("shards")?)?,
            largest_shard: usize::from_json(json.field("largest_shard")?)?,
            preloaded: usize::from_json(json.field("preloaded")?)?,
            carried: usize::from_json(json.field("carried")?)?,
            dropped: usize::from_json(json.field("dropped")?)?,
            repaired: usize::from_json(json.field("repaired")?)?,
            unmatched: usize::from_json(json.field("unmatched")?)?,
            shard_unserved: usize::from_json(json.field("shard_unserved")?)?,
            deficit_total: u64::from_json(json.field("deficit_total")?)?,
            deficit_max: u64::from_json(json.field("deficit_max")?)?,
            split_iterations: usize::from_json(json.field("split_iterations")?)?,
            reconciled: bool::from_json(json.field("reconciled")?)?,
            rebuilt: bool::from_json(json.field("rebuilt")?)?,
        })
    }
}

/// Persistent state of one shard (one swarm), pooled across rounds.
///
/// Boxes are remapped to a compact shard-local universe so the shard's
/// incremental matcher does not carry source edges for the whole system.
/// Local ids are allocated on first appearance and never reused, which keeps
/// the mapping — and therefore the shard's warm arena — stable across
/// rounds.
struct ShardState {
    matcher: IncrementalMatcher,
    /// Local box id → global box id.
    global_of: Vec<BoxId>,
    /// Global box id → local box id.
    local_of: HashMap<u32, u32, BuildHasherDefault<KeyHasher>>,
    /// Shard-local capacities (budget split), padded to a power of two so
    /// the matcher's length-change rebuild only triggers on universe
    /// doublings, not on every new box a growing swarm touches.
    caps: Vec<u32>,
    keys: Vec<RequestKey>,
    /// Shard-local candidate rows (remapped to the local box universe), as
    /// one pooled flat CSR buffer — the shard copy is a contiguous append,
    /// not one heap row per request.
    csr: CandidateBuf,
    /// Per-row change stamps carried over from the global view (the local
    /// remap is stable, so an unchanged global row is an unchanged local
    /// row).
    stamps: Vec<u64>,
    out: Vec<Option<BoxId>>,
    /// Round stamp of the last round that scheduled this shard.
    last_used: u64,
    /// Decayed unserved backlog aggregate: halves every scheduled round,
    /// plus the requests the budget split starved this round
    /// (observability; the split itself is driven by `box_deficit`).
    deficit: u64,
    /// Decayed per-box starvation history, indexed by shard-local box id
    /// (stable across rounds): halves every scheduled round, plus one per
    /// starved request per candidate box — recording *where* the split
    /// came up short. Drives the targeted water-filling split of the
    /// *next* round.
    box_deficit: Vec<u64>,
}

impl ShardState {
    fn new() -> Self {
        ShardState {
            matcher: IncrementalMatcher::default(),
            global_of: Vec::new(),
            local_of: HashMap::default(),
            caps: Vec::new(),
            keys: Vec::new(),
            csr: CandidateBuf::new(),
            stamps: Vec::new(),
            out: Vec::new(),
            last_used: 0,
            deficit: 0,
            box_deficit: Vec::new(),
        }
    }
}

/// One round's work item: the shard ordinal plus its owned state, moved
/// through the parallel phase and returned to the pool afterwards.
struct ShardWork {
    shard_idx: usize,
    state: ShardState,
}

/// Per-swarm sharded scheduler with parallel shard solves.
///
/// Produces the same matching sizes (and feasibility verdicts) as a global
/// maximum-flow solve, with identical schedules for any `threads` value.
///
/// ```
/// use vod_core::{BoxId, StripeId, VideoId};
/// use vod_sim::{RequestKey, Scheduler, ShardedMatcher};
///
/// // Two single-request swarms contending for box 0 (and box 1 as the
/// // fallback of swarm 0): the sharded schedule serves both, exactly like
/// // a global max-flow solve, for any thread count.
/// let caps = vec![1, 1];
/// let keys = vec![
///     RequestKey { viewer: BoxId(0), stripe: StripeId::new(VideoId(0), 0) },
///     RequestKey { viewer: BoxId(1), stripe: StripeId::new(VideoId(1), 0) },
/// ];
/// let cands = vec![vec![BoxId(0), BoxId(1)], vec![BoxId(0)]];
/// let mut matcher = ShardedMatcher::new(4);
/// let mut out = Vec::new();
/// matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
/// assert_eq!(out.iter().flatten().count(), 2);
/// assert_eq!(matcher.last_round_stats().unmatched, 0);
/// ```
pub struct ShardedMatcher {
    threads: usize,
    split_policy: SplitPolicy,
    reconcile_policy: ReconcilePolicy,
    arena: ShardedArena,
    states: HashMap<u64, ShardState, BuildHasherDefault<KeyHasher>>,
    /// Round scratch (reused): shard keys per request, per-shard deficit
    /// snapshot, per-(shard, box) split targets, packed reconcile keys,
    /// work items.
    shard_keys: Vec<u64>,
    deficits: Vec<u64>,
    slot_targets: Vec<u64>,
    packed_keys: Vec<u128>,
    work: Vec<ShardWork>,
    /// Pooled CSR bridge for the slice-of-vecs trait entry points (the
    /// view-based ones are the engine's native path).
    csr_bridge: CandidateBuf,
    /// Pooled scratch for the debug-only assignment validity check.
    dbg_loads: Vec<u32>,
    round: u64,
    last_stats: ShardRoundStats,
    last_relay: Option<RelayLendStats>,
    rounds: u64,
    reconcile_rounds: u64,
    reconcile_nanos: u64,
    reconcile_full_rebuilds: u64,
    /// Span sink for the partition/split/solve/reconcile stages (off by
    /// default). Shard-local matchers stay untraced: the per-shard solve is
    /// spanned as a whole, from the worker that runs it.
    tracer: TraceHandle,
}

impl Default for ShardedMatcher {
    fn default() -> Self {
        ShardedMatcher::new(1)
    }
}

/// Packs a [`RequestKey`] into the opaque 128-bit key the persistent
/// reconciliation arena tracks (viewer ‖ video ‖ stripe index — injective,
/// so distinct requests never collide).
fn pack_key(key: &RequestKey) -> u128 {
    ((key.viewer.0 as u128) << 48) | ((key.stripe.video.0 as u128) << 16) | key.stripe.index as u128
}

impl ShardedMatcher {
    /// Creates a sharded matcher solving shards on `threads` worker threads
    /// (1 solves them inline on the caller's thread; the schedule is
    /// identical either way), with the default policies
    /// ([`SplitPolicy::WaterFill`] + [`ReconcilePolicy::Persistent`]).
    pub fn new(threads: usize) -> Self {
        ShardedMatcher {
            threads: threads.max(1),
            split_policy: SplitPolicy::default(),
            reconcile_policy: ReconcilePolicy::default(),
            arena: ShardedArena::new(),
            states: HashMap::default(),
            shard_keys: Vec::new(),
            deficits: Vec::new(),
            slot_targets: Vec::new(),
            packed_keys: Vec::new(),
            work: Vec::new(),
            csr_bridge: CandidateBuf::new(),
            dbg_loads: Vec::new(),
            round: 0,
            last_stats: ShardRoundStats::default(),
            last_relay: None,
            rounds: 0,
            reconcile_rounds: 0,
            reconcile_nanos: 0,
            reconcile_full_rebuilds: 0,
            tracer: TraceHandle::off(),
        }
    }

    /// Creates a matcher sized to the machine's available parallelism.
    pub fn with_available_parallelism() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        ShardedMatcher::new(threads)
    }

    /// Creates a matcher with the PR 2 baseline policies
    /// ([`SplitPolicy::DemandProportional`] + [`ReconcilePolicy::Rebuild`]),
    /// for A/B comparisons in benches and experiments.
    pub fn baseline(threads: usize) -> Self {
        ShardedMatcher::new(threads)
            .with_split_policy(SplitPolicy::DemandProportional)
            .with_reconcile_policy(ReconcilePolicy::Rebuild)
    }

    /// Overrides the budget-split policy.
    pub fn with_split_policy(mut self, policy: SplitPolicy) -> Self {
        self.split_policy = policy;
        self
    }

    /// Overrides the reconciliation policy.
    pub fn with_reconcile_policy(mut self, policy: ReconcilePolicy) -> Self {
        self.reconcile_policy = policy;
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured budget-split policy.
    pub fn split_policy(&self) -> SplitPolicy {
        self.split_policy
    }

    /// The configured reconciliation policy.
    pub fn reconcile_policy(&self) -> ReconcilePolicy {
        self.reconcile_policy
    }

    /// Stats of the most recent round.
    pub fn last_round_stats(&self) -> ShardRoundStats {
        self.last_stats
    }

    /// Rounds scheduled so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Rounds that needed a reconciliation pass (the shard phase came up
    /// short) so far.
    pub fn reconcile_rounds(&self) -> u64 {
        self.reconcile_rounds
    }

    /// Total wall-clock nanoseconds spent inside reconciliation so far
    /// (observability only; never feeds back into scheduling).
    pub fn reconcile_nanos(&self) -> u64 {
        self.reconcile_nanos
    }

    /// Reconciled rounds that rebuilt the global network from scratch so far
    /// (every reconciled round under [`ReconcilePolicy::Rebuild`]; first
    /// call and dead-edge compactions only under
    /// [`ReconcilePolicy::Persistent`]).
    pub fn reconcile_rebuilds(&self) -> u64 {
        self.reconcile_full_rebuilds
    }

    /// Tracked shard states currently pooled (observability for the
    /// eviction heuristic).
    pub fn pooled_shards(&self) -> usize {
        self.states.len()
    }

    /// Solves one shard: remaps its candidates into the shard-local box
    /// universe, applies the budget split, and runs the shard's warm
    /// incremental matcher.
    fn solve_shard(
        work: &mut ShardWork,
        arena: &ShardedArena,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        round: u64,
        tracer: &TraceHandle,
    ) {
        let clock = tracer.begin();
        let view = arena.shard(work.shard_idx);
        let state = &mut work.state;
        state.last_used = round;

        // Split borrows: the local-id allocator mutates `local_of`,
        // `global_of`, and `caps` while the candidate buffers are filled.
        let ShardState {
            local_of,
            global_of,
            caps,
            keys: shard_keys,
            csr,
            stamps,
            out,
            matcher,
            ..
        } = state;

        let mut local = |global: BoxId| -> u32 {
            *local_of.entry(global.0).or_insert_with(|| {
                let id = global_of.len() as u32;
                global_of.push(global);
                id
            })
        };

        // Budgets: zero everything, then set this round's shares.
        caps.iter_mut().for_each(|c| *c = 0);
        for (&b, &budget) in view.boxes.iter().zip(view.budget) {
            let id = local(BoxId(b)) as usize;
            if id >= caps.len() {
                // Pad to the next power of two so the matcher's
                // length-change rebuild is amortized.
                let len = (id + 1).next_power_of_two();
                caps.resize(len, 0);
            }
            caps[id] = budget;
        }

        // Remap this shard's candidate rows into the local universe: one
        // contiguous CSR append per round. The global change stamps stay
        // valid locally because local ids are allocated on first appearance
        // and never reused — an unchanged global row remaps to an unchanged
        // local row.
        shard_keys.clear();
        csr.clear();
        stamps.clear();
        for &x in view.requests {
            let x = x as usize;
            shard_keys.push(keys[x]);
            stamps.push(candidates.row_stamp(x));
            for &cand in candidates.row(x) {
                if cand.index() < capacities.len() {
                    csr.push_box(BoxId(local(cand)));
                }
            }
            csr.finish_row();
        }
        matcher.schedule_keyed_view(caps, shard_keys, csr.view_with_stamps(stamps), out);
        tracer.end(clock, Stage::ShardSolve, shard_keys.len() as u64);
    }

    /// Evicts shard states idle for more than 256 rounds (checked every 64
    /// rounds). Purely a memory bound: eviction only ever costs a future
    /// cold shard rebuild (and forgets that shard's deficit history), never
    /// changes the matching sizes.
    fn evict_idle_shards(&mut self) {
        if self.round.is_multiple_of(64) {
            let horizon = self.round.saturating_sub(256);
            self.states.retain(|_, s| s.last_used >= horizon);
        }
    }
}

impl Scheduler for ShardedMatcher {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        // Without stable keys there is no shard identity to warm: solve the
        // whole round as a single cold reconciliation (still a global
        // maximum matching).
        let mut out = vec![None; candidates.len()];
        self.last_relay = None;
        let start = Instant::now();
        let stats = self.arena.reconcile(capacities, candidates, &mut out);
        self.reconcile_rounds += 1;
        self.reconcile_nanos += start.elapsed().as_nanos() as u64;
        self.reconcile_full_rebuilds += stats.rebuilt as u64;
        self.last_stats = ShardRoundStats {
            shards: 1,
            largest_shard: candidates.len(),
            preloaded: stats.preloaded,
            carried: stats.carried,
            dropped: stats.dropped,
            repaired: stats.repaired,
            unmatched: stats.unmatched,
            shard_unserved: candidates.len(),
            reconciled: true,
            rebuilt: stats.rebuilt,
            ..ShardRoundStats::default()
        };
        self.rounds += 1;
        out
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        self.schedule_inner(capacities, keys, bridge.view(), None, out);
        self.csr_bridge = bridge;
    }

    fn schedule_keyed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.schedule_inner(capacities, keys, candidates, None, out);
    }

    fn schedule_relayed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        let mut bridge = std::mem::take(&mut self.csr_bridge);
        bridge.fill_from_slices(candidates);
        self.schedule_inner(capacities, keys, bridge.view(), Some(relays), out);
        self.csr_bridge = bridge;
    }

    fn schedule_relayed_view(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: &RelayView,
        out: &mut Vec<Option<BoxId>>,
    ) {
        self.schedule_inner(capacities, keys, candidates, Some(relays), out);
    }

    fn shard_stats(&self) -> Option<ShardRoundStats> {
        Some(self.last_stats)
    }

    fn relay_stats(&self) -> Option<RelayLendStats> {
        self.last_relay
    }

    fn attach_tracer(&mut self, tracer: &TraceHandle) {
        self.tracer = tracer.clone();
    }

    fn name(&self) -> &'static str {
        "sharded"
    }
}

impl ShardedMatcher {
    /// The shared scheduling pipeline behind [`Scheduler::schedule_keyed`]
    /// and [`Scheduler::schedule_relayed`]: the relay view only adds the
    /// reserved-capacity lending pass (pure accounting over the partition),
    /// so the produced schedule is identical with and without it — and
    /// therefore identical to the global incremental matcher's.
    fn schedule_inner(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: CandidateView<'_>,
        relays: Option<&RelayView>,
        out: &mut Vec<Option<BoxId>>,
    ) {
        debug_assert_eq!(keys.len(), candidates.len());
        self.round += 1;
        self.rounds += 1;

        // 1. Partition by swarm (video id), then split each relay's
        // reserved forwarding capacity across the shards drawing on it
        // (relay edges cross swarms; see `ShardedArena::split_relay_reserved`).
        let clock = self.tracer.begin();
        self.shard_keys.clear();
        self.shard_keys
            .extend(keys.iter().map(|k| k.stripe.video.0 as u64));
        let shard_count = self
            .arena
            .partition_view(&self.shard_keys, candidates, capacities.len());
        self.last_relay = relays.map(|view| {
            self.arena
                .split_relay_reserved(view.reserved, view.relay_of)
        });
        self.tracer
            .end(clock, Stage::ShardPartition, shard_count as u64);

        // 2. Snapshot each shard's decayed deficits (ordinal order) and
        // split the upload budgets. WaterFill feeds the direct per-(shard,
        // box) starvation history into the targeted split — the per-shard
        // scalar stays as an observability aggregate; DemandProportional
        // is the targeted split with an empty history, bit-identical to
        // the PR 2 split.
        let clock = self.tracer.begin();
        self.deficits.clear();
        self.slot_targets.clear();
        let mut deficit_total = 0u64;
        let mut deficit_max = 0u64;
        for shard_idx in 0..shard_count {
            let view = self.arena.shard(shard_idx);
            let state = self.states.get(&view.key);
            let deficit = state.map_or(0, |s| s.deficit);
            deficit_total += deficit;
            deficit_max = deficit_max.max(deficit);
            self.deficits.push(deficit);
            if self.split_policy == SplitPolicy::WaterFill {
                for b in view.boxes {
                    let target = state.map_or(0, |s| {
                        s.local_of
                            .get(b)
                            .and_then(|&local| s.box_deficit.get(local as usize))
                            .copied()
                            .unwrap_or(0)
                    });
                    self.slot_targets.push(target);
                }
            }
        }
        let split_stats: SplitStats = match self.split_policy {
            SplitPolicy::WaterFill => self
                .arena
                .split_budgets_targeted(capacities, &self.slot_targets),
            SplitPolicy::DemandProportional => self.arena.split_budgets_targeted(capacities, &[]),
        };
        self.tracer
            .end(clock, Stage::ShardSplit, split_stats.iterations as u64);

        // 3. Check out each active shard's persistent state.
        self.work.clear();
        let mut largest = 0;
        for shard_idx in 0..shard_count {
            let view = self.arena.shard(shard_idx);
            largest = largest.max(view.requests.len());
            let state = self
                .states
                .remove(&view.key)
                .unwrap_or_else(ShardState::new);
            self.work.push(ShardWork { shard_idx, state });
        }

        // 4. Parallel shard solves. Workers pull items from a shared queue;
        // each item owns its state, so results are independent of which
        // worker runs it — the schedule is identical for any thread count.
        let arena = &self.arena;
        let round = self.round;
        let tracer = &self.tracer;
        let workers = self.threads.min(self.work.len()).max(1);
        if workers == 1 {
            for work in &mut self.work {
                ShardedMatcher::solve_shard(
                    work, arena, capacities, keys, candidates, round, tracer,
                );
            }
        } else {
            let queue = Mutex::new(self.work.iter_mut());
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        let item = queue.lock().expect("shard queue poisoned").next();
                        match item {
                            Some(work) => ShardedMatcher::solve_shard(
                                work, arena, capacities, keys, candidates, round, tracer,
                            ),
                            None => break,
                        }
                    });
                }
            });
        }

        // 5. Gather the tentative assignment, update each shard's decayed
        // starvation history — the scalar aggregate and, per starved
        // request, one count on each candidate box (recording *where* the
        // split came up short) — and return states to the pool.
        out.clear();
        out.resize(keys.len(), None);
        let mut shard_unserved = 0usize;
        for work in self.work.drain(..) {
            let view = arena.shard(work.shard_idx);
            let mut state = work.state;
            state
                .box_deficit
                .resize(state.global_of.len().max(state.box_deficit.len()), 0);
            for slot in state.box_deficit.iter_mut() {
                *slot /= 2;
            }
            let mut unserved = 0u64;
            for (i, &x) in view.requests.iter().enumerate() {
                match state.out[i] {
                    Some(local) => out[x as usize] = Some(state.global_of[local.index()]),
                    None => {
                        unserved += 1;
                        // The starved request's candidates (already in the
                        // shard-local universe) are where more budget was
                        // needed.
                        for cand in state.csr.view().row(i) {
                            state.box_deficit[cand.index()] += 1;
                        }
                    }
                }
            }
            shard_unserved += unserved as usize;
            state.deficit = state.deficit / 2 + unserved;
            self.states.insert(view.key, state);
        }

        // 6. Reconcile to a global maximum matching. When the shard phase
        // matched every request the union already is one — the budget split
        // is capacity-disjoint, so the combined assignment is valid and
        // complete — and reconciliation is skipped outright. Only rounds
        // where some shard came up short pay for the repair pass, whose cost
        // the persistent policy further amortizes across rounds.
        let matched = out.iter().flatten().count();
        let reconciled = matched != keys.len();
        let stats = if !reconciled {
            ReconcileStats {
                preloaded: matched,
                ..ReconcileStats::default()
            }
        } else {
            // A small deficit is exactly where the persistent arena shines:
            // the carried flow serves almost everything and the patch is
            // O(Δ). A *large* deficit (chronically starved or infeasible
            // instance) means the previous round's flow is structurally
            // stale — every reroute away from it invalidates the failure
            // marks of the targeted search — while the rebuild path preloads
            // this round's fresh shard flows and repairs next to nothing.
            // Pick per round; the choice depends only on the (thread-count
            // invariant) shard outcome, so determinism is preserved.
            let stale_warm_start = shard_unserved * 8 > keys.len() + 64;
            let start = Instant::now();
            let stats = match self.reconcile_policy {
                ReconcilePolicy::Persistent if !stale_warm_start => {
                    self.packed_keys.clear();
                    self.packed_keys.extend(keys.iter().map(pack_key));
                    self.arena
                        .reconcile_keyed_view(capacities, &self.packed_keys, candidates, out)
                }
                _ => self.arena.reconcile_view(capacities, candidates, out),
            };
            let ns = start.elapsed().as_nanos() as u64;
            self.reconcile_rounds += 1;
            self.reconcile_nanos += ns;
            self.reconcile_full_rebuilds += stats.rebuilt as u64;
            self.tracer
                .emit_ns(Stage::ShardReconcile, ns, stats.repaired as u64);
            stats
        };
        self.last_stats = ShardRoundStats {
            shards: shard_count,
            largest_shard: largest,
            preloaded: stats.preloaded,
            carried: stats.carried,
            dropped: stats.dropped,
            repaired: stats.repaired,
            unmatched: stats.unmatched,
            shard_unserved,
            deficit_total,
            deficit_max,
            split_iterations: split_stats.iterations,
            reconciled,
            rebuilt: stats.rebuilt,
        };
        self.evict_idle_shards();
        debug_assert!(crate::scheduler::assignment_is_valid_view(
            out,
            capacities,
            candidates,
            &mut self.dbg_loads
        ));
    }
}

impl std::fmt::Debug for ShardedMatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMatcher")
            .field("threads", &self.threads)
            .field("split_policy", &self.split_policy)
            .field("reconcile_policy", &self.reconcile_policy)
            .field("pooled_shards", &self.states.len())
            .field("rounds", &self.rounds)
            .field("reconcile_rounds", &self.reconcile_rounds)
            .field("last_stats", &self.last_stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::assignment_is_valid;
    use vod_core::{StripeId, VideoId};
    use vod_flow::ConnectionProblem;

    fn key(viewer: u32, video: u32, index: u16) -> RequestKey {
        RequestKey {
            viewer: BoxId(viewer),
            stripe: StripeId::new(VideoId(video), index),
        }
    }

    fn b(i: u32) -> BoxId {
        BoxId(i)
    }

    fn cold_served(caps: &[u32], cands: &[Vec<BoxId>]) -> usize {
        let mut p = ConnectionProblem::new(caps.to_vec());
        for c in cands {
            p.add_request(c.iter().copied());
        }
        p.solve().served()
    }

    /// Every split × reconcile policy combination, for policy-matrix tests.
    fn all_policies() -> [(SplitPolicy, ReconcilePolicy); 4] {
        [
            (SplitPolicy::DemandProportional, ReconcilePolicy::Rebuild),
            (SplitPolicy::DemandProportional, ReconcilePolicy::Persistent),
            (SplitPolicy::WaterFill, ReconcilePolicy::Rebuild),
            (SplitPolicy::WaterFill, ReconcilePolicy::Persistent),
        ]
    }

    #[test]
    fn single_round_matches_cold_solve() {
        let caps = vec![1, 1, 2];
        let keys = vec![key(0, 0, 0), key(1, 0, 1), key(2, 1, 0), key(3, 1, 1)];
        let cands = vec![vec![b(0), b(1)], vec![b(0)], vec![b(1), b(2)], vec![b(2)]];
        let mut matcher = ShardedMatcher::new(2);
        let mut out = Vec::new();
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert!(assignment_is_valid(&out, &caps, &cands));
        assert_eq!(out.iter().flatten().count(), cold_served(&caps, &cands));
        assert_eq!(matcher.last_round_stats().shards, 2);
    }

    #[test]
    fn budget_starved_requests_are_repaired() {
        // Both swarms can only use box 0 (capacity 2): the budget split gives
        // each shard one slot, but any imbalance must be repaired so the
        // round stays feasible.
        let caps = vec![2];
        let keys = vec![key(0, 0, 0), key(1, 1, 0)];
        let cands = vec![vec![b(0)], vec![b(0)]];
        let mut matcher = ShardedMatcher::new(4);
        let mut out = Vec::new();
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out.iter().flatten().count(), 2);
        assert_eq!(matcher.last_round_stats().unmatched, 0);
    }

    #[test]
    fn cross_shard_rerouting_keeps_rounds_feasible() {
        // Swarm 0's request could use box 0 or 1; swarm 1's request only box
        // 0. If the budget split hands box 0 to swarm 0, reconciliation must
        // reroute across shards.
        let caps = vec![1, 1];
        let keys = vec![key(0, 0, 0), key(1, 1, 0)];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        for threads in [1usize, 2, 8] {
            for (split, reconcile) in all_policies() {
                let mut matcher = ShardedMatcher::new(threads)
                    .with_split_policy(split)
                    .with_reconcile_policy(reconcile);
                let mut out = Vec::new();
                matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
                assert_eq!(
                    out.iter().flatten().count(),
                    2,
                    "threads {threads} policies {split:?}/{reconcile:?}"
                );
            }
        }
    }

    #[test]
    fn schedules_identical_across_thread_counts() {
        let caps = vec![2, 1, 1, 2];
        let rounds: Vec<(Vec<RequestKey>, Vec<Vec<BoxId>>)> = (0..12u32)
            .map(|r| {
                let keys: Vec<RequestKey> = (0..6)
                    .map(|i| key(i, (i + r) % 3, (r % 4) as u16))
                    .collect();
                let cands: Vec<Vec<BoxId>> = (0..6u32)
                    .map(|i| vec![b((i + r) % 4), b((i + r + 2) % 4)])
                    .collect();
                (keys, cands)
            })
            .collect();
        let run = |threads: usize| -> (Vec<Vec<Option<BoxId>>>, Vec<ShardRoundStats>) {
            let mut matcher = ShardedMatcher::new(threads);
            let mut out = Vec::new();
            let mut all = Vec::new();
            let mut stats = Vec::new();
            for (keys, cands) in &rounds {
                matcher.schedule_keyed(&caps, keys, cands, &mut out);
                all.push(out.clone());
                stats.push(matcher.last_round_stats());
            }
            (all, stats)
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            let result = run(threads);
            assert_eq!(result.0, reference.0, "threads {threads}: schedules");
            // Per-round stats — including the split's water-filling
            // iterations and deficit snapshot — are thread-count-invariant.
            assert_eq!(result.1, reference.1, "threads {threads}: stats");
        }
    }

    #[test]
    fn warm_shards_track_cold_solves_under_churn() {
        let caps = vec![1, 1, 1, 1];
        for (split, reconcile) in all_policies() {
            let mut matcher = ShardedMatcher::new(2)
                .with_split_policy(split)
                .with_reconcile_policy(reconcile);
            let mut out = Vec::new();
            let mut window: Vec<(RequestKey, Vec<BoxId>)> = Vec::new();
            for round in 0u32..40 {
                if window.len() >= 6 {
                    window.remove(0);
                }
                let cands = vec![b(round % 4), b((round + 1) % 4)];
                window.push((key(round, round % 3, 0), cands));
                let keys: Vec<RequestKey> = window.iter().map(|(k, _)| *k).collect();
                let cands: Vec<Vec<BoxId>> = window.iter().map(|(_, c)| c.clone()).collect();
                matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
                assert!(
                    assignment_is_valid(&out, &caps, &cands),
                    "round {round} policies {split:?}/{reconcile:?}"
                );
                assert_eq!(
                    out.iter().flatten().count(),
                    cold_served(&caps, &cands),
                    "round {round} policies {split:?}/{reconcile:?}"
                );
            }
        }
    }

    #[test]
    fn waterfill_reduces_reconciled_rounds_on_persistent_contention() {
        // Two swarms share box 0 (capacity 1); swarm 0 also has box 1 as a
        // fallback. The proportional split hands box 0's slot to swarm 0 on
        // every round (demand tie, lowest ordinal), starving swarm 1 and
        // forcing a reconcile *every* round. Water-filling observes swarm
        // 1's deficit and shifts the slot to it, after which the shard
        // phase serves everything and reconciliation is skipped — so the
        // reconciled-round counts must differ strictly, not just `<=`.
        let caps = vec![1u32, 1];
        let keys = vec![key(0, 0, 0), key(1, 1, 0)];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let rounds = 30u64;
        let run = |split: SplitPolicy| -> u64 {
            let mut matcher = ShardedMatcher::new(1)
                .with_split_policy(split)
                .with_reconcile_policy(ReconcilePolicy::Persistent);
            let mut out = Vec::new();
            for _ in 0..rounds {
                matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
                // Globally feasible either way: both requests served.
                assert_eq!(out.iter().flatten().count(), 2);
            }
            matcher.reconcile_rounds()
        };
        let proportional = run(SplitPolicy::DemandProportional);
        let waterfill = run(SplitPolicy::WaterFill);
        assert_eq!(
            proportional, rounds,
            "proportional split must starve swarm 1 every round"
        );
        assert!(
            waterfill < proportional,
            "waterfill reconciled {waterfill} rounds vs proportional {proportional}"
        );
    }

    #[test]
    fn persistent_reconcile_rebuilds_less_than_rebuild_policy() {
        // A workload the budget split chronically under-serves: every round
        // needs reconciliation. The rebuild policy pays a full rebuild per
        // round; the persistent policy only on the first.
        let caps = vec![1u32, 1];
        let keys = vec![key(0, 0, 0), key(1, 1, 0)];
        let cands = vec![vec![b(0), b(1)], vec![b(0)]];
        let run = |policy: ReconcilePolicy| -> (u64, u64) {
            // Pin the proportional split so the deficit learner cannot make
            // the contention go away: every round must reconcile.
            let mut matcher = ShardedMatcher::new(1)
                .with_split_policy(SplitPolicy::DemandProportional)
                .with_reconcile_policy(policy);
            let mut out = Vec::new();
            for _ in 0..20 {
                matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
                assert_eq!(out.iter().flatten().count(), 2);
            }
            (matcher.reconcile_rounds(), matcher.reconcile_rebuilds())
        };
        let (rebuild_rounds, rebuilds) = run(ReconcilePolicy::Rebuild);
        let (persistent_rounds, persistent_rebuilds) = run(ReconcilePolicy::Persistent);
        assert_eq!(rebuild_rounds, persistent_rounds);
        if persistent_rounds > 1 {
            assert_eq!(persistent_rebuilds, 1, "persistent policy must patch");
            assert!(rebuilds >= rebuild_rounds.min(1));
        }
        // Carried flow shows up in the stats on steady reconciled rounds.
        let mut matcher = ShardedMatcher::new(1);
        let mut out = Vec::new();
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        let stats = matcher.last_round_stats();
        if stats.reconciled {
            assert!(stats.carried > 0, "stats: {stats:?}");
        }
    }

    #[test]
    fn unkeyed_schedule_is_a_global_maximum() {
        let caps = vec![1, 1];
        let cands = vec![vec![b(0), b(1)], vec![b(0)], vec![b(1)]];
        let mut matcher = ShardedMatcher::new(4);
        let out = matcher.schedule(&caps, &cands);
        assert_eq!(out.iter().flatten().count(), 2);
        assert!(assignment_is_valid(&out, &caps, &cands));
        // An unkeyed cold solve invalidates the persistent instance, but a
        // following keyed round recovers transparently.
        let keys = vec![key(0, 0, 0)];
        let cands = vec![vec![b(1)]];
        let mut out = Vec::new();
        matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        assert_eq!(out, vec![Some(b(1))]);
    }

    #[test]
    fn shard_round_stats_roundtrip_json() {
        let stats = ShardRoundStats {
            shards: 3,
            largest_shard: 9,
            preloaded: 20,
            carried: 12,
            dropped: 0,
            repaired: 2,
            unmatched: 1,
            shard_unserved: 3,
            deficit_total: 7,
            deficit_max: 4,
            split_iterations: 5,
            reconciled: true,
            rebuilt: false,
        };
        let json = stats.to_json();
        assert_eq!(ShardRoundStats::from_json(&json).unwrap(), stats);
    }

    #[test]
    fn idle_shards_are_evicted() {
        let caps = vec![1u32; 4];
        let mut matcher = ShardedMatcher::new(1);
        let mut out = Vec::new();
        for round in 0u32..400 {
            // Each round uses a fresh video id: shards never repeat.
            let keys = vec![key(0, round, 0)];
            let cands = vec![vec![b(round % 4)]];
            matcher.schedule_keyed(&caps, &keys, &cands, &mut out);
        }
        assert!(
            matcher.pooled_shards() < 400,
            "pooled {}",
            matcher.pooled_shards()
        );
    }
}
