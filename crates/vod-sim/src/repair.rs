//! Stripe repair planning: re-replicating under-replicated stripes under a
//! per-round upload budget.
//!
//! The paper assumes a static box population, so the balanced allocation of
//! Theorem 1 never degrades. Under live churn it does: a departing box takes
//! its `k`-replica shares with it, and every stripe it held drops one
//! replication level. The [`RepairPlanner`] restores the invariant: it keeps
//! a queue of under-replicated stripes and, each round, plans replica
//! transfers from surviving holders onto alive boxes with spare storage.
//!
//! Repair traffic competes with serving traffic through the same Lemma-1
//! box budgets: every planned transfer consumes one upload slot of its
//! source *before* the round is scheduled, so the scheduler sees the reduced
//! `⌊u_b·c⌋` capacities and a repair slot can never be double-spent on a
//! viewer. Planning deliberately reads only scheduler-invariant state
//! (placement, liveness, capacities) — never the round's assignment. Two
//! maximum-matching schedulers agree on served *counts* but not on
//! supplier identity, so any plan derived from per-box assignment loads
//! would make the placement evolve differently per scheduler and break the
//! bit-identical equivalence gates.
//!
//! Determinism: pending stripes are repaired most-degraded first (ascending
//! replica count, ascending stripe id on ties), sources are the first alive
//! holder with budget left (holder order is insertion order, itself
//! deterministic), and destinations maximise spare storage with lowest box
//! id on ties. The plan is a pure function of (placement, alive, capacities,
//! config), identical across schedulers and thread counts.
//!
//! Cost: a plan with work to do walks the fleet once, bucketing the alive
//! boxes with free storage by spare slots; each transfer then takes the
//! lowest eligible id of the highest non-empty bucket and moves it one
//! bucket down, so a transfer costs what it touches, not a walk of the
//! fleet.

use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::{BoxId, Catalog, Placement, StripeId, VideoSystem};
use vod_flow::bitset::for_each_set_bit;
use vod_flow::BitSet;

/// One planned replica transfer: `dest` fetches `stripe` from `source`,
/// spending one of `source`'s upload slots this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepairTransfer {
    /// The stripe being re-replicated.
    pub stripe: StripeId,
    /// The surviving holder uploading the replica.
    pub source: BoxId,
    /// The box receiving the new replica.
    pub dest: BoxId,
}

/// Per-round repair observability, threaded into `RoundMetrics::repair`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairRoundStats {
    /// Under-replicated stripes known when the round was planned (after
    /// dropping healed and lost stripes).
    pub pending: usize,
    /// Replica transfers planned this round.
    pub repaired: usize,
    /// Pending stripes still below target after this round's transfers.
    pub deferred: usize,
    /// Stripes with no surviving replica so far (data lost; cumulative).
    pub lost: usize,
    /// Upload slots consumed by repair this round (one per transfer),
    /// deducted from the same `⌊u_b·c⌋` budgets serving traffic uses.
    pub budget_slots: u32,
}

impl JsonCodec for RepairRoundStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("pending", self.pending.to_json()),
            ("repaired", self.repaired.to_json()),
            ("deferred", self.deferred.to_json()),
            ("lost", self.lost.to_json()),
            ("budget_slots", self.budget_slots.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RepairRoundStats {
            pending: usize::from_json(json.field("pending")?)?,
            repaired: usize::from_json(json.field("repaired")?)?,
            deferred: usize::from_json(json.field("deferred")?)?,
            lost: usize::from_json(json.field("lost")?)?,
            budget_slots: u32::from_json(json.field("budget_slots")?)?,
        })
    }
}

/// Budgeted, deterministic re-replication of under-replicated stripes.
///
/// The planner is notified of replica losses ([`RepairPlanner::note_lost`]),
/// plans a bounded batch of transfers each round
/// ([`RepairPlanner::plan_round`]), and commits them to the live placement
/// after the round is scheduled ([`RepairPlanner::commit`]) so a repaired
/// replica starts serving the *next* round — a transfer takes the round it
/// was planned in.
#[derive(Clone, Debug)]
pub struct RepairPlanner {
    /// Target replicas per stripe (`k`).
    target: usize,
    /// Maximum transfers per round across all stripes.
    round_budget: u32,
    /// Storage capacity (stripe slots) per box.
    storage: Vec<u32>,
    /// Under-replicated stripes awaiting repair (sorted, deduped).
    pending: Vec<StripeId>,
    /// Stripes with no surviving replica (sorted, deduped; cumulative).
    lost: Vec<StripeId>,
    /// Transfers planned by the most recent [`RepairPlanner::plan_round`].
    transfers: Vec<RepairTransfer>,
    /// The most recent plan's transfers once committed: what the next
    /// [`RepairPlanner::plan_round`] walks to zero `egress`.
    committed: Vec<RepairTransfer>,
    /// Upload slots drawn per source box by the most recent plan.
    egress: Vec<u32>,
    /// Scratch of one plan: `levels[s]` lists, in ascending id order, the
    /// alive boxes with `s` free storage slots left (level 0 stays empty).
    levels: Vec<Vec<BoxId>>,
    /// The highest level that may be non-empty.
    top: usize,
    /// Replicas committed over the planner's lifetime.
    repaired_total: u64,
}

impl RepairPlanner {
    /// A planner over explicit per-box storage capacities (stripe slots).
    pub fn new(storage: Vec<u32>, target_replication: usize, round_budget: u32) -> Self {
        let n = storage.len();
        RepairPlanner {
            target: target_replication,
            round_budget,
            storage,
            pending: Vec::new(),
            lost: Vec::new(),
            transfers: Vec::new(),
            committed: Vec::new(),
            egress: vec![0; n],
            levels: Vec::new(),
            top: 0,
            repaired_total: 0,
        }
    }

    /// A planner for `system`: target `k` from the parameters, storage from
    /// the box set, and the initial queue primed with any stripe the seed
    /// allocation already left under-replicated (duplicate draws of a
    /// random allocator waste slots).
    pub fn for_system(system: &VideoSystem, round_budget: u32) -> Self {
        let storage = system.boxes().iter().map(|b| b.storage.slots()).collect();
        let mut planner =
            RepairPlanner::new(storage, system.params().replication as usize, round_budget);
        planner.prime(system.placement(), system.catalog());
        planner
    }

    /// Enqueues every stripe of `catalog` currently below the target level.
    pub fn prime(&mut self, placement: &Placement, catalog: &Catalog) {
        for stripe in catalog.stripes() {
            if placement.replica_count(stripe) < self.target {
                self.pending.push(stripe);
            }
        }
        self.pending.sort();
        self.pending.dedup();
    }

    /// Records replica losses (e.g. the stripes a departed box held).
    pub fn note_lost(&mut self, stripes: &[StripeId]) {
        self.pending.extend_from_slice(stripes);
        self.pending.sort();
        self.pending.dedup();
    }

    /// Plans this round's transfers from the live placement. Bit `b` of
    /// `alive` gates both sources and destinations; `capacities[b]` are the
    /// open upload slots repair competes for (the caller deducts
    /// [`RepairPlanner::egress`] from its slot table before scheduling).
    /// Nothing is applied to `placement` until [`RepairPlanner::commit`].
    pub fn plan_round(
        &mut self,
        placement: &Placement,
        alive: &BitSet,
        capacities: &[u32],
    ) -> RepairRoundStats {
        self.clear_plan();

        // Compact the queue: drop healed stripes, move data-loss stripes to
        // the `lost` ledger (no replica left to copy from).
        let target = self.target;
        let lost = &mut self.lost;
        self.pending.retain(|&s| match placement.replica_count(s) {
            0 => {
                lost.push(s);
                false
            }
            have => have < target,
        });
        lost.sort();
        lost.dedup();

        // Most-degraded first, stripe id on ties.
        self.pending
            .sort_by_cached_key(|&s| (placement.replica_count(s), s));

        let mut budget = self.round_budget;
        if budget > 0 && !self.pending.is_empty() {
            self.fill_levels(placement, alive);
        }
        let mut deferred = 0usize;
        for i in 0..self.pending.len() {
            let stripe = self.pending[i];
            let have = placement.replica_count(stripe);
            let missing = target - have;
            let mut planned = 0usize;
            for _ in 0..missing {
                if budget == 0 {
                    break;
                }
                let Some((source, dest)) = self.pick_transfer(placement, alive, capacities, stripe)
                else {
                    break;
                };
                self.transfers.push(RepairTransfer {
                    stripe,
                    source,
                    dest,
                });
                self.egress[source.index()] += 1;
                budget -= 1;
                planned += 1;
            }
            if have + planned < target {
                deferred += 1;
            }
        }

        RepairRoundStats {
            pending: self.pending.len(),
            repaired: self.transfers.len(),
            deferred,
            lost: self.lost.len(),
            budget_slots: self.transfers.len() as u32,
        }
    }

    /// Buckets the alive boxes with free storage by spare slots, each level
    /// in ascending id order: the plan's one walk of the fleet.
    fn fill_levels(&mut self, placement: &Placement, alive: &BitSet) {
        for level in &mut self.levels {
            level.clear();
        }
        let (storage, levels, top) = (&self.storage, &mut self.levels, &mut self.top);
        *top = 0;
        for_each_set_bit(alive.words(), |i| {
            let Some(&slots) = storage.get(i) else {
                return;
            };
            let b = BoxId(i as u32);
            let spare = slots.saturating_sub(placement.box_load(b) as u32) as usize;
            if spare == 0 {
                return;
            }
            if spare >= levels.len() {
                levels.resize_with(spare + 1, Vec::new);
            }
            levels[spare].push(b);
            *top = (*top).max(spare);
        });
    }

    /// Deterministic (source, dest) choice for one missing replica of
    /// `stripe`, or `None` when no holder has upload budget or no alive box
    /// has a free storage slot. The destination is the roomiest alive box,
    /// lowest id on ties, that neither holds the stripe nor already has a
    /// replica of it planned this round; it moves one level down.
    fn pick_transfer(
        &mut self,
        placement: &Placement,
        alive: &BitSet,
        capacities: &[u32],
        stripe: StripeId,
    ) -> Option<(BoxId, BoxId)> {
        let holders = placement.holders_of(stripe);
        let source = holders.iter().copied().find(|b| {
            let i = b.index();
            alive.get(i) && self.egress[i] < capacities.get(i).copied().unwrap_or(0)
        })?;
        // This stripe's transfers so far are the plan's last ones.
        let planned = |b: BoxId| {
            self.transfers
                .iter()
                .rev()
                .take_while(|t| t.stripe == stripe)
                .any(|t| t.dest == b)
        };
        let found = (1..=self.top).rev().find_map(|level| {
            let row = &self.levels[level];
            let pos = row
                .iter()
                .position(|&b| !holders.contains(&b) && !planned(b))?;
            Some((level, pos))
        });
        debug_assert_eq!(
            found.map(|(level, pos)| self.levels[level][pos]),
            self.roomiest_by_scan(placement, alive, holders, stripe),
            "destination of {stripe}"
        );
        let (level, pos) = found?;
        let dest = self.levels[level].remove(pos);
        if level > 1 {
            let below = &mut self.levels[level - 1];
            let at = below.binary_search(&dest).unwrap_err();
            below.insert(at, dest);
        }
        while self.top > 0 && self.levels[self.top].is_empty() {
            self.top -= 1;
        }
        Some((source, dest))
    }

    /// The destination rule as a scan of the whole fleet (the debug
    /// cross-check of [`RepairPlanner::pick_transfer`]): the alive box with
    /// the most storage left after this round's planned replicas, lowest id
    /// on ties, that neither holds `stripe` nor has a replica of it planned.
    fn roomiest_by_scan(
        &self,
        placement: &Placement,
        alive: &BitSet,
        holders: &[BoxId],
        stripe: StripeId,
    ) -> Option<BoxId> {
        let mut best: Option<(u32, BoxId)> = None;
        for i in 0..self.storage.len() {
            let b = BoxId(i as u32);
            let planned = self.transfers.iter().filter(|t| t.dest == b).count();
            let used = (placement.box_load(b) + planned) as u32;
            if !alive.get(i)
                || used >= self.storage[i]
                || holders.contains(&b)
                || self
                    .transfers
                    .iter()
                    .any(|t| t.stripe == stripe && t.dest == b)
            {
                continue;
            }
            let spare = self.storage[i] - used;
            if best.is_none_or(|(top, _)| spare > top) {
                best = Some((spare, b));
            }
        }
        best.map(|(_, b)| b)
    }

    /// Applies the planned transfers to the live placement (new replicas
    /// serve from the next round on) and clears the plan.
    pub fn commit(&mut self, placement: &mut Placement) {
        for t in self.transfers.drain(..) {
            placement.add(t.dest, t.stripe);
            self.repaired_total += 1;
            self.committed.push(t);
        }
    }

    /// Forgets the previous plan, committed or not. `egress` is non-zero
    /// only at the sources its transfers name, so zeroing those is zeroing
    /// all.
    fn clear_plan(&mut self) {
        for t in self.transfers.drain(..).chain(self.committed.drain(..)) {
            self.egress[t.source.index()] = 0;
        }
    }

    /// The transfers planned by the most recent plan (empty after commit).
    pub fn transfers(&self) -> &[RepairTransfer] {
        &self.transfers
    }

    /// Upload slots the most recent plan draws per source box.
    pub fn egress(&self) -> &[u32] {
        &self.egress
    }

    /// Under-replicated stripes currently queued (sorted ascending).
    pub fn pending(&self) -> &[StripeId] {
        &self.pending
    }

    /// Stripes that lost every replica so far (sorted ascending).
    pub fn lost(&self) -> &[StripeId] {
        &self.lost
    }

    /// Target replicas per stripe (`k`).
    pub fn target_replication(&self) -> usize {
        self.target
    }

    /// Maximum transfers per round.
    pub fn round_budget(&self) -> u32 {
        self.round_budget
    }

    /// Replicas committed over the planner's lifetime.
    pub fn repaired_total(&self) -> u64 {
        self.repaired_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vod_core::{
        Allocator, Bandwidth, BoxSet, RandomPermutationAllocator, RoundRobinAllocator, StorageSlots,
    };

    fn setup(n: usize, slots: u32, m: usize, c: u16, k: u32) -> (BoxSet, Catalog, Placement) {
        let boxes = BoxSet::homogeneous(
            n,
            Bandwidth::from_streams(1.5),
            StorageSlots::from_slots(slots),
        );
        let catalog = Catalog::uniform(m, 60, c);
        let mut rng = StdRng::seed_from_u64(1);
        let p = RoundRobinAllocator::new(k)
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        (boxes, catalog, p)
    }

    fn depart(planner: &mut RepairPlanner, placement: &mut Placement, alive: &mut BitSet, b: u32) {
        alive.unset(b as usize);
        let stripes = placement.remove_box(BoxId(b));
        planner.note_lost(&stripes);
    }

    /// Repairs everything the budget allows, returns rounds taken.
    fn drain(
        planner: &mut RepairPlanner,
        placement: &mut Placement,
        alive: &BitSet,
        capacities: &[u32],
    ) -> usize {
        let mut rounds = 0;
        loop {
            let stats = planner.plan_round(placement, alive, capacities);
            if stats.repaired == 0 {
                return rounds;
            }
            planner.commit(placement);
            rounds += 1;
        }
    }

    #[test]
    fn departures_enqueue_and_budgeted_rounds_restore_replication() {
        let (boxes, catalog, mut placement) = setup(20, 24, 20, 4, 3);
        let storage: Vec<u32> = boxes.iter().map(|b| b.storage.slots()).collect();
        let mut planner = RepairPlanner::new(storage, 3, 4);
        let mut alive = BitSet::ones(20);
        let caps = vec![6u32; 20];
        for b in [2, 7, 11, 16] {
            depart(&mut planner, &mut placement, &mut alive, b);
        }
        assert!(!planner.pending().is_empty());
        let rounds = drain(&mut planner, &mut placement, &alive, &caps);
        assert!(rounds > 1, "budget 4 must need several rounds");
        for s in catalog.stripes() {
            assert!(placement.replica_count(s) >= 3, "stripe {s}");
        }
        assert!(
            planner.pending().is_empty() || {
                // Stripes left pending can only lack storage or sources.
                false
            }
        );
        // Departed boxes received nothing.
        for b in [2u32, 7, 11, 16] {
            assert_eq!(placement.box_load(BoxId(b)), 0);
        }
    }

    #[test]
    fn round_budget_caps_transfers_and_egress_respects_capacities() {
        let (boxes, _catalog, mut placement) = setup(12, 24, 12, 4, 3);
        let storage: Vec<u32> = boxes.iter().map(|b| b.storage.slots()).collect();
        let mut planner = RepairPlanner::new(storage, 3, 3);
        let mut alive = BitSet::ones(12);
        let caps = vec![2u32; 12];
        depart(&mut planner, &mut placement, &mut alive, 0);
        depart(&mut planner, &mut placement, &mut alive, 1);
        let stats = planner.plan_round(&placement, &alive, &caps);
        assert!(stats.repaired <= 3, "round budget");
        assert_eq!(stats.budget_slots as usize, stats.repaired);
        for (b, &e) in planner.egress().iter().enumerate() {
            assert!(e <= caps[b], "egress exceeds open capacity on {b}");
        }
        // Transfers only name alive sources that hold the stripe and alive
        // destinations that do not.
        for t in planner.transfers() {
            assert!(alive.contains(t.source.index()) && alive.contains(t.dest.index()));
            assert!(placement.stores(t.source, t.stripe));
            assert!(!placement.stores(t.dest, t.stripe));
        }
    }

    #[test]
    fn stripes_with_no_surviving_replica_are_lost() {
        let boxes = BoxSet::homogeneous(
            4,
            Bandwidth::from_streams(1.5),
            StorageSlots::from_slots(24),
        );
        let catalog = Catalog::uniform(6, 60, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let mut placement = RandomPermutationAllocator::new(1)
            .allocate(&boxes, &catalog, &mut rng)
            .unwrap();
        let storage: Vec<u32> = boxes.iter().map(|b| b.storage.slots()).collect();
        let mut planner = RepairPlanner::new(storage, 1, 8);
        let mut alive = BitSet::ones(4);
        for b in [0, 1, 2] {
            depart(&mut planner, &mut placement, &mut alive, b);
        }
        let caps = vec![6u32; 4];
        let stats = planner.plan_round(&placement, &alive, &caps);
        assert!(stats.lost > 0, "k = 1 and 3 of 4 boxes gone loses data");
        for &s in planner.lost() {
            assert_eq!(placement.replica_count(s), 0);
        }
        drain(&mut planner, &mut placement, &alive, &caps);
        // Lost stripes stay lost; everything else is back at target.
        for s in catalog.stripes() {
            if planner.lost().contains(&s) {
                assert_eq!(placement.replica_count(s), 0);
            } else {
                assert!(placement.replica_count(s) >= 1);
            }
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_its_inputs() {
        let (boxes, _catalog, mut placement) = setup(16, 24, 16, 4, 3);
        let storage: Vec<u32> = boxes.iter().map(|b| b.storage.slots()).collect();
        let mut alive = BitSet::ones(16);
        let caps = vec![4u32; 16];
        let mut a = RepairPlanner::new(storage.clone(), 3, 5);
        depart(&mut a, &mut placement, &mut alive, 3);
        depart(&mut a, &mut placement, &mut alive, 9);
        let mut b = a.clone();
        let sa = a.plan_round(&placement, &alive, &caps);
        let sb = b.plan_round(&placement, &alive, &caps);
        assert_eq!(sa, sb);
        assert_eq!(a.transfers(), b.transfers());
    }

    #[test]
    fn healthy_allocation_plans_nothing() {
        let (boxes, catalog, mut placement) = setup(10, 16, 10, 4, 2);
        let storage: Vec<u32> = boxes.iter().map(|b| b.storage.slots()).collect();
        let mut planner = RepairPlanner::new(storage, 2, 8);
        planner.prime(&placement, &catalog);
        let alive = BitSet::ones(10);
        let stats = planner.plan_round(&placement, &alive, &[6u32; 10]);
        assert_eq!(stats.repaired, 0);
        assert_eq!(stats.pending, 0);
        planner.commit(&mut placement);
        assert_eq!(planner.repaired_total(), 0);
    }

    /// The repair rule as the module doc states it, with nothing shared
    /// with [`RepairPlanner`] and no attempt at speed: every question is
    /// answered by rescanning the plan so far.
    fn naive_plan(
        placement: &Placement,
        catalog: &Catalog,
        alive: &BitSet,
        capacities: &[u32],
        storage: &[u32],
        (target, budget): (usize, usize),
        holder_led: &mut usize,
    ) -> Vec<RepairTransfer> {
        let mut queue: Vec<StripeId> = catalog
            .stripes()
            .filter(|&s| (1..target).contains(&placement.replica_count(s)))
            .collect();
        queue.sort_by_key(|&s| (placement.replica_count(s), s));
        let mut plan: Vec<RepairTransfer> = Vec::new();
        for stripe in queue {
            let holders = placement.holders_of(stripe);
            for _ in holders.len()..target {
                if plan.len() == budget {
                    break;
                }
                let drawn = |b: BoxId| plan.iter().filter(|t| t.source == b).count() as u32;
                let source = holders
                    .iter()
                    .copied()
                    .find(|&b| alive.contains(b.index()) && drawn(b) < capacities[b.index()]);
                let spare = |b: BoxId| {
                    let planned = plan.iter().filter(|t| t.dest == b).count();
                    (storage[b.index()] as usize).saturating_sub(placement.box_load(b) + planned)
                };
                let taken = |b: BoxId| {
                    holders.contains(&b) || plan.iter().any(|t| t.stripe == stripe && t.dest == b)
                };
                // Maximal spare storage, lowest id on ties.
                let roomy = || {
                    (0..storage.len() as u32)
                        .map(BoxId)
                        .filter(|&b| alive.contains(b.index()) && spare(b) > 0)
                };
                let best = |boxes: &mut dyn Iterator<Item = BoxId>| {
                    boxes.max_by_key(|&b| (spare(b), std::cmp::Reverse(b)))
                };
                let dest = best(&mut roomy().filter(|&b| !taken(b)));
                let (Some(source), Some(dest)) = (source, dest) else {
                    break;
                };
                if best(&mut roomy()) != Some(dest) {
                    *holder_led += 1; // the roomiest box was taken: runner-up wins
                }
                plan.push(RepairTransfer {
                    stripe,
                    source,
                    dest,
                });
            }
        }
        plan
    }

    /// Reference test: the planner against the naive rule over a seeded
    /// depart / rejoin / commit script, transfer for transfer every round.
    #[test]
    fn plan_matches_the_naive_rule_round_for_round() {
        use rand::Rng;
        const N: usize = 64;
        for budget in [1u32, 4, 64] {
            let (boxes, catalog, mut placement) = setup(N, 24, 100, 4, 3);
            let storage: Vec<u32> = boxes.iter().map(|b| b.storage.slots()).collect();
            let mut planner = RepairPlanner::new(storage.clone(), 3, budget);
            // Upload slots open to repair differ per box; some have none.
            let caps: Vec<u32> = (0..N as u32).map(|b| b % 4).collect();
            let mut alive = BitSet::ones(N);
            let mut rng = StdRng::seed_from_u64(0x5e9a12 + budget as u64);
            let (mut planned, mut holder_led) = (0usize, 0usize);
            for round in 0..200 {
                for _ in 0..rng.gen_range(0..3) {
                    let b = rng.gen_range(0..N as u32);
                    if alive.contains(b as usize) && alive.count_ones() > 40 {
                        depart(&mut planner, &mut placement, &mut alive, b);
                    } else if !alive.contains(b as usize) {
                        alive.set(b as usize); // rejoins with empty storage
                    }
                }
                let expected = naive_plan(
                    &placement,
                    &catalog,
                    &alive,
                    &caps,
                    &storage,
                    (3, budget as usize),
                    &mut holder_led,
                );
                let stats = planner.plan_round(&placement, &alive, &caps);
                assert_eq!(
                    planner.transfers(),
                    expected,
                    "budget {budget} round {round}"
                );
                assert_eq!(stats.repaired, expected.len());
                for (b, &drawn) in planner.egress().iter().enumerate() {
                    let by_plan = expected.iter().filter(|t| t.source.index() == b).count();
                    assert_eq!(drawn as usize, by_plan, "egress of {b} in round {round}");
                }
                planned += expected.len();
                planner.commit(&mut placement);
            }
            assert!(
                planned > 50,
                "budget {budget}: the script must keep repair busy"
            );
            assert!(
                holder_led > 0,
                "budget {budget}: no round where the roomiest box already held the stripe"
            );
        }
    }

    /// Reference test for the destination rule: uneven storage (ties,
    /// boxes that are or become full), dead boxes, and departures of two
    /// holders of one stripe in one round, planned transfer for transfer
    /// against the naive rule's scan of the whole fleet.
    #[test]
    fn destinations_match_the_fleet_scan_under_ties_and_full_boxes() {
        use rand::Rng;
        const N: usize = 64;
        for (seed, budget) in [(1u64, 2u32), (2, 8), (3, 64)] {
            let (_boxes, catalog, mut placement) = setup(N, 24, 100, 4, 3);
            // 18.75 replicas a box: boxes of 18 or 19 slots start full.
            let storage: Vec<u32> = (0..N as u32).map(|b| 18 + b % 5).collect();
            let mut planner = RepairPlanner::new(storage.clone(), 3, budget);
            let caps = vec![3u32; N];
            let mut alive = BitSet::ones(N);
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut ties, mut full, mut doubled) = (0, 0, 0);
            for round in 0..150 {
                let mut leaving: Vec<u32> = Vec::new();
                if rng.gen_bool(0.3) && alive.count_ones() > 40 {
                    // Two holders of one stripe leave together.
                    let stripe = catalog.stripes().nth(rng.gen_range(0..400usize)).unwrap();
                    leaving.extend(placement.holders_of(stripe).iter().take(2).map(|b| b.0));
                }
                for _ in 0..rng.gen_range(0..3) {
                    let b = rng.gen_range(0..N as u32);
                    if alive.contains(b as usize) && alive.count_ones() > 40 {
                        leaving.push(b);
                    } else if !alive.contains(b as usize) {
                        alive.set(b as usize);
                    }
                }
                for b in leaving {
                    if alive.contains(b as usize) {
                        depart(&mut planner, &mut placement, &mut alive, b);
                    }
                }
                let spare: Vec<usize> = (0..N)
                    .filter(|&i| alive.contains(i))
                    .map(|i| {
                        (storage[i] as usize).saturating_sub(placement.box_load(BoxId(i as u32)))
                    })
                    .collect();
                let top = spare.iter().copied().max().unwrap_or(0);
                ties += usize::from(top > 0 && spare.iter().filter(|&&s| s == top).count() > 1);
                full += usize::from(spare.contains(&0));
                let expected = naive_plan(
                    &placement,
                    &catalog,
                    &alive,
                    &caps,
                    &storage,
                    (3, budget as usize),
                    &mut 0,
                );
                planner.plan_round(&placement, &alive, &caps);
                assert_eq!(planner.transfers(), expected, "seed {seed} round {round}");
                doubled += usize::from(expected.windows(2).any(|w| w[0].stripe == w[1].stripe));
                planner.commit(&mut placement);
            }
            assert!(ties > 2, "seed {seed}: {ties} rounds with a tie at the top");
            assert!(
                full > 10,
                "seed {seed}: {full} rounds with a full alive box"
            );
            assert!(
                doubled > 0,
                "seed {seed}: no stripe got two replicas in one round"
            );
        }
    }

    /// Legal extremes end with stats, not a panic: a zero budget defers
    /// everything, a fleet with no free slot defers everything, and a
    /// fleet with every box dead moves every stripe to `lost`.
    #[test]
    fn extreme_budgets_storage_and_liveness_end_in_stats() {
        let (boxes, catalog, placement) = setup(12, 24, 12, 4, 3);
        let storage: Vec<u32> = boxes.iter().map(|b| b.storage.slots()).collect();
        let caps = vec![4u32; 12];

        let mut placement_zero = placement.clone();
        let mut alive = BitSet::ones(12);
        let mut zero = RepairPlanner::new(storage.clone(), 3, 0);
        depart(&mut zero, &mut placement_zero, &mut alive, 5);
        let stats = zero.plan_round(&placement_zero, &alive, &caps);
        assert_eq!((stats.repaired, stats.budget_slots), (0, 0));
        assert!(stats.pending > 0);
        assert_eq!(stats.deferred, stats.pending);

        let mut placement_full = placement.clone();
        let mut alive = BitSet::ones(12);
        let loads: Vec<u32> = (0..12)
            .map(|b| placement.box_load(BoxId(b)) as u32)
            .collect();
        let mut full = RepairPlanner::new(loads, 3, 8);
        depart(&mut full, &mut placement_full, &mut alive, 5);
        let stats = full.plan_round(&placement_full, &alive, &caps);
        assert_eq!(stats.repaired, 0);
        assert!(stats.pending > 0);
        assert_eq!(stats.deferred, stats.pending);

        let mut placement_dead = placement;
        let mut alive = BitSet::ones(12);
        let mut dead = RepairPlanner::new(storage, 3, 8);
        for b in 0..12 {
            depart(&mut dead, &mut placement_dead, &mut alive, b);
        }
        let stats = dead.plan_round(&placement_dead, &alive, &caps);
        assert_eq!((stats.pending, stats.repaired, stats.deferred), (0, 0, 0));
        assert_eq!(stats.lost, catalog.stripes().count());
        assert_eq!(dead.plan_round(&placement_dead, &alive, &caps), stats);
    }

    #[test]
    fn stats_roundtrip_json() {
        let stats = RepairRoundStats {
            pending: 5,
            repaired: 3,
            deferred: 2,
            lost: 1,
            budget_slots: 3,
        };
        assert_eq!(
            RepairRoundStats::from_json(&stats.to_json()).unwrap(),
            stats
        );
    }
}
