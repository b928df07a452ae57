//! The relay broker: live management of `u*`-compensation reservations.
//!
//! Theorem 2's compensation plan was historically a static object: built
//! once, silently pre-deducted from upload budgets, and never looked at
//! again. The [`RelayBroker`] promotes it to a managed subsystem:
//!
//! * **build & validate** — owns the [`CompensationPlan`] (with the named
//!   bound-violation errors of `vod_core::compensation`);
//! * **re-plan under churn** — [`RelayBroker::apply`] handles box
//!   joins/leaves and upload changes, migrating reservations with
//!   deterministic tie-breaks (largest residual headroom first, lowest box
//!   id on ties) and emitting the [`CompensationDelta`]s it performed so a
//!   mirror plan can replay them;
//! * **observe** — [`RelayBroker::note_round`] folds each round's
//!   forwarding demand into per-relay utilization counters
//!   ([`RelayUtilization`]) and returns the round's [`RelayRoundStats`],
//!   which the engine threads into `RoundMetrics::relay`;
//! * **witness** — [`RelayBroker::starved_relays`] names the relays whose
//!   forwarding demand exceeds their reservation. Reservations are disjoint
//!   from the open budgets the matching allocates, so a failing round's
//!   supply side is the plain Lemma-1 min cut and its forwarding side is
//!   this count — no flow network of its own.

use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::{
    relay_reservation, Bandwidth, BoxId, BoxSet, CompensationDelta, CompensationPlan, CoreError,
    NodeBox,
};

/// A churn event the broker re-plans reservations around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelayEvent {
    /// A new box joined the system.
    BoxJoined(NodeBox),
    /// A box left the system (relay or poor box alike).
    BoxLeft(BoxId),
    /// A box's upload capacity changed (e.g. a measured-bandwidth update).
    UploadChanged(BoxId, Bandwidth),
}

/// Cumulative per-relay utilization of the reserved forwarding capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelayUtilization {
    /// The relay box.
    pub relay: BoxId,
    /// Its currently reserved forwarding slots (`⌊reserved·c⌋`).
    pub reserved_slots: u32,
    /// Poor boxes currently relayed through it.
    pub assigned_poor: usize,
    /// Forwarding units served over all observed rounds.
    pub forwards: u64,
    /// Largest single-round forwarding demand observed.
    pub peak_load: u32,
    /// Rounds in which the demand used every reserved slot.
    pub saturated_rounds: u64,
    /// Rounds in which the demand exceeded the reservation (the static
    /// bound was insufficient that round).
    pub oversubscribed_rounds: u64,
}

impl RelayUtilization {
    /// A zeroed counter slot for `relay`.
    fn zero(relay: BoxId) -> Self {
        RelayUtilization {
            relay,
            reserved_slots: 0,
            assigned_poor: 0,
            forwards: 0,
            peak_load: 0,
            saturated_rounds: 0,
            oversubscribed_rounds: 0,
        }
    }
}

impl JsonCodec for RelayUtilization {
    fn to_json(&self) -> Json {
        obj(vec![
            ("relay", self.relay.to_json()),
            ("reserved_slots", self.reserved_slots.to_json()),
            ("assigned_poor", self.assigned_poor.to_json()),
            ("forwards", self.forwards.to_json()),
            ("peak_load", self.peak_load.to_json()),
            ("saturated_rounds", self.saturated_rounds.to_json()),
            (
                "oversubscribed_rounds",
                self.oversubscribed_rounds.to_json(),
            ),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RelayUtilization {
            relay: BoxId::from_json(json.field("relay")?)?,
            reserved_slots: u32::from_json(json.field("reserved_slots")?)?,
            assigned_poor: usize::from_json(json.field("assigned_poor")?)?,
            forwards: u64::from_json(json.field("forwards")?)?,
            peak_load: u32::from_json(json.field("peak_load")?)?,
            saturated_rounds: u64::from_json(json.field("saturated_rounds")?)?,
            oversubscribed_rounds: u64::from_json(json.field("oversubscribed_rounds")?)?,
        })
    }
}

/// Per-round relay observability, threaded into `RoundMetrics::relay`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RelayRoundStats {
    /// Boxes carrying a reservation this round.
    pub relays: usize,
    /// Active relayed (forwarding) requests this round.
    pub relayed_requests: usize,
    /// Total reserved forwarding slots across all relays.
    pub reserved_slots: usize,
    /// Forwarding units served (`Σ_a min(reserved_a, demand_a)` — a
    /// reservation is never oversubscribed).
    pub forwarded: usize,
    /// Forwarding demand no reservation could cover.
    pub starved: usize,
    /// Relays whose demand used every reserved slot.
    pub saturated_relays: usize,
}

impl JsonCodec for RelayRoundStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("relays", self.relays.to_json()),
            ("relayed_requests", self.relayed_requests.to_json()),
            ("reserved_slots", self.reserved_slots.to_json()),
            ("forwarded", self.forwarded.to_json()),
            ("starved", self.starved.to_json()),
            ("saturated_relays", self.saturated_relays.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RelayRoundStats {
            relays: usize::from_json(json.field("relays")?)?,
            relayed_requests: usize::from_json(json.field("relayed_requests")?)?,
            reserved_slots: usize::from_json(json.field("reserved_slots")?)?,
            forwarded: usize::from_json(json.field("forwarded")?)?,
            starved: usize::from_json(json.field("starved")?)?,
            saturated_relays: usize::from_json(json.field("saturated_relays")?)?,
        })
    }
}

/// Live manager of the `u*`-compensation reservations.
///
/// ```
/// use vod_core::{Bandwidth, BoxSet, NodeBox, BoxId, StorageSlots};
/// use vod_sim::{RelayBroker, RelayEvent};
///
/// // One rich box (u = 3) relaying one poor box (u = 0.5) at u* = 1.2.
/// let boxes = BoxSet::new(vec![
///     NodeBox::new(BoxId(0), Bandwidth::from_streams(3.0), StorageSlots::from_slots(48)),
///     NodeBox::new(BoxId(1), Bandwidth::from_streams(0.5), StorageSlots::from_slots(8)),
/// ]);
/// let mut broker = RelayBroker::from_boxes(&boxes, Bandwidth::from_streams(1.2), 4).unwrap();
/// assert_eq!(broker.plan().relay(BoxId(1)), Some(BoxId(0)));
///
/// // A second rich box joins, then the original relay leaves: the poor
/// // box's reservation migrates, and the deltas record the move.
/// broker.apply(RelayEvent::BoxJoined(
///     NodeBox::new(BoxId(2), Bandwidth::from_streams(3.0), StorageSlots::from_slots(48)),
/// )).unwrap();
/// let deltas = broker.apply(RelayEvent::BoxLeft(BoxId(0))).unwrap();
/// assert_eq!(deltas.len(), 1);
/// assert_eq!(broker.plan().relay(BoxId(1)), Some(BoxId(2)));
/// ```
///
/// A clone is an independent broker with the same live state (plan, box
/// snapshots, reservation table, utilization counters); that is how
/// [`crate::Simulator::fork_with`] branches a simulation.
#[derive(Clone, Debug)]
pub struct RelayBroker {
    u_star: Bandwidth,
    c: u16,
    /// Box snapshot by id; `None` after the box left.
    boxes: Vec<Option<NodeBox>>,
    plan: CompensationPlan,
    /// Reserved forwarding slots per box (`⌊reserved·c⌋`), kept in sync
    /// with the plan; indexed by box id, sized to the box universe.
    reserved_slots: Vec<u32>,
    /// Cumulative utilization per box (meaningful where reservations are).
    util: Vec<RelayUtilization>,
    /// Deltas of the most recent churn event (kept even when the re-plan
    /// failed, so mirrors can replay the mutations that did happen).
    last_deltas: Vec<CompensationDelta>,
    rounds: u64,
    migrations: u64,
}

impl RelayBroker {
    /// Builds a broker by compensating `boxes` at threshold `u_star`
    /// (stripes per video `c` converts reservations to forwarding slots).
    pub fn from_boxes(boxes: &BoxSet, u_star: Bandwidth, c: u16) -> Result<Self, CoreError> {
        let plan = vod_core::compensate(boxes, u_star)?;
        Ok(RelayBroker::from_plan(plan, boxes, c))
    }

    /// Wraps an existing (already validated) plan.
    pub fn from_plan(plan: CompensationPlan, boxes: &BoxSet, c: u16) -> Self {
        let mut broker = RelayBroker {
            u_star: plan.u_star(),
            c,
            boxes: boxes.iter().map(|b| Some(*b)).collect(),
            plan,
            reserved_slots: Vec::new(),
            util: (0..boxes.len())
                .map(|i| RelayUtilization::zero(BoxId(i as u32)))
                .collect(),
            last_deltas: Vec::new(),
            rounds: 0,
            migrations: 0,
        };
        broker.sync_reserved_slots();
        broker
    }

    /// The managed compensation plan.
    pub fn plan(&self) -> &CompensationPlan {
        &self.plan
    }

    /// The live snapshot of box `b` (`None` when absent or departed).
    pub fn node(&self, b: BoxId) -> Option<&NodeBox> {
        self.boxes.get(b.index()).and_then(|n| n.as_ref())
    }

    /// Open (non-reserved) upload slots of box `b` under the *live* plan:
    /// `⌊(u_b − reserved(b))·c⌋`, or 0 when the box is absent. The churned
    /// twin of [`vod_core::VideoSystem::upload_slots`], which reads the
    /// static plan.
    pub fn open_upload_slots(&self, b: BoxId) -> u32 {
        let Some(node) = self.node(b) else {
            return 0;
        };
        node.upload
            .saturating_sub(self.plan.reserved(b))
            .stripe_slots(self.c)
    }

    /// The threshold `u*` the plan is built for.
    pub fn u_star(&self) -> Bandwidth {
        self.u_star
    }

    /// Reserved forwarding slots per box, indexed by box id.
    pub fn reserved_slots(&self) -> &[u32] {
        &self.reserved_slots
    }

    /// Reservation migrations performed by churn re-planning so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Rounds folded into the utilization counters so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Re-derives the per-box slot table (and the utilization snapshots)
    /// from the plan. The one writer of `reserved_slots`, run by
    /// construction and by every [`RelayBroker::apply`].
    fn sync_reserved_slots(&mut self) {
        self.reserved_slots.clear();
        self.reserved_slots.resize(self.boxes.len(), 0);
        for (b, slot) in self.reserved_slots.iter_mut().enumerate() {
            *slot = self.plan.reserved(BoxId(b as u32)).stripe_slots(self.c);
        }
        for (b, util) in self.util.iter_mut().enumerate() {
            util.reserved_slots = self.reserved_slots[b];
            util.assigned_poor = self.plan.assigned_to(BoxId(b as u32)).len();
        }
    }

    /// Residual relay headroom of box `a`: `u_a − u* − reserved(a)`, or
    /// `None` when `a` is absent or not rich.
    fn headroom(&self, a: BoxId) -> Option<Bandwidth> {
        let node = self.boxes.get(a.index()).copied().flatten()?;
        if node.is_poor(self.u_star) {
            return None;
        }
        Some(
            node.upload
                .saturating_sub(self.u_star + self.plan.reserved(a)),
        )
    }

    /// The rich box with the largest residual headroom that can hold
    /// `need` (lowest id on ties), excluding `exclude`.
    fn best_relay(&self, need: Bandwidth, exclude: Option<BoxId>) -> Option<BoxId> {
        let mut best: Option<(Bandwidth, BoxId)> = None;
        for idx in 0..self.boxes.len() {
            let a = BoxId(idx as u32);
            if Some(a) == exclude {
                continue;
            }
            let Some(headroom) = self.headroom(a) else {
                continue;
            };
            if headroom >= need && best.is_none_or(|(top, _)| headroom > top) {
                best = Some((headroom, a));
            }
        }
        best.map(|(_, a)| a)
    }

    /// Assigns (or migrates) `poor` to the best-fit relay, recording the
    /// delta. Fails with a named error when no relay has the headroom.
    fn place(
        &mut self,
        poor: BoxId,
        exclude: Option<BoxId>,
        deltas: &mut Vec<CompensationDelta>,
    ) -> Result<(), CoreError> {
        let upload = self.boxes[poor.index()]
            .expect("poor box is present")
            .upload;
        let need = relay_reservation(self.u_star, upload);
        match self.best_relay(need, exclude) {
            Some(relay) => {
                let delta = self.plan.assign(poor, relay, need);
                if delta.from.is_some() {
                    self.migrations += 1;
                }
                deltas.push(delta);
                Ok(())
            }
            None => Err(CoreError::PoorUncovered { poor, need }),
        }
    }

    /// Applies one churn event, migrating reservations as needed. Returns
    /// the deltas performed (replayable via
    /// [`CompensationPlan::apply_delta`] on a mirror plan), or a named
    /// error when the population is no longer `u*`-compensable — the boxes
    /// the broker could not place stay uncovered in the plan, exactly what
    /// [`CoreError::PoorUncovered`] reports.
    ///
    /// A failed re-plan still mutates the plan (the departed relay's
    /// reservations must be released either way); the deltas performed
    /// before and around the failure remain available through
    /// [`RelayBroker::last_deltas`], so mirror plans can replay them even
    /// on the error path, and the slot table is re-synced regardless of
    /// the outcome.
    ///
    /// Deterministic: affected poor boxes are re-placed in descending
    /// reservation need (lowest id on ties), each onto the rich box with
    /// the largest residual headroom (lowest id on ties).
    pub fn apply(&mut self, event: RelayEvent) -> Result<Vec<CompensationDelta>, CoreError> {
        self.last_deltas.clear();
        let mut deltas = std::mem::take(&mut self.last_deltas);
        let result = self.apply_event(event, &mut deltas);
        self.last_deltas = deltas;
        self.sync_reserved_slots();
        result.map(|()| self.last_deltas.clone())
    }

    /// Deltas performed by the most recent [`RelayBroker::apply`] call —
    /// including those of a failed re-plan, whose plan mutations already
    /// happened and must still be replayed onto any mirror.
    pub fn last_deltas(&self) -> &[CompensationDelta] {
        &self.last_deltas
    }

    /// Event dispatch behind [`RelayBroker::apply`]: best-effort — every
    /// affected reservation is re-planned even after a placement failure,
    /// and the first named error is reported.
    fn apply_event(
        &mut self,
        event: RelayEvent,
        deltas: &mut Vec<CompensationDelta>,
    ) -> Result<(), CoreError> {
        match event {
            RelayEvent::BoxJoined(node) => {
                let idx = node.id.index();
                if idx >= self.boxes.len() {
                    self.boxes.resize(idx + 1, None);
                    while self.util.len() <= idx {
                        let b = BoxId(self.util.len() as u32);
                        self.util.push(RelayUtilization::zero(b));
                    }
                }
                assert!(self.boxes[idx].is_none(), "box {} joined twice", node.id);
                self.boxes[idx] = Some(node);
                if node.is_poor(self.u_star) {
                    self.place(node.id, None, deltas)?;
                }
            }
            RelayEvent::BoxLeft(id) => {
                let node = self.boxes[id.index()].take().unwrap_or_else(|| {
                    panic!("box {id} left but was not present");
                });
                if node.is_poor(self.u_star) {
                    if let Some(delta) = self.plan.unassign(id) {
                        deltas.push(delta);
                    }
                } else {
                    self.evacuate(id, deltas)?;
                }
            }
            RelayEvent::UploadChanged(id, upload) => {
                let node = self.boxes[id.index()]
                    .as_mut()
                    .unwrap_or_else(|| panic!("box {id} changed upload but was not present"));
                let was_poor = node.is_poor(self.u_star);
                node.upload = upload;
                let now_poor = upload < self.u_star;
                match (was_poor, now_poor) {
                    (true, false) => {
                        // Promoted to rich: release its reservation; it may
                        // now host others (future placements will find it).
                        if let Some(delta) = self.plan.unassign(id) {
                            deltas.push(delta);
                        }
                    }
                    (false, true) => {
                        // Demoted to poor: its hosted reservations must
                        // migrate, and it needs a relay itself — both
                        // attempted even when the other fails.
                        let evacuated = self.evacuate(id, deltas);
                        let placed = self.place(id, Some(id), deltas);
                        evacuated.and(placed)?;
                    }
                    (true, true) => {
                        // Still poor, but the reservation size changed:
                        // keep the current relay when it still fits,
                        // migrate otherwise.
                        let need = relay_reservation(self.u_star, upload);
                        let current = self.plan.relay(id);
                        let old_need = self.plan.reservation_of(id).unwrap_or(Bandwidth::ZERO);
                        if let Some(relay) = current {
                            let fits = self.headroom(relay).is_some_and(|h| h + old_need >= need);
                            if fits {
                                deltas.push(self.plan.assign(id, relay, need));
                            } else {
                                deltas.push(self.plan.unassign(id).expect("assigned"));
                                self.place(id, None, deltas)?;
                            }
                        } else {
                            self.place(id, None, deltas)?;
                        }
                    }
                    (false, false) => {
                        // Still rich, but shrunk uploads may violate the
                        // bound: shed reservations until it holds again.
                        self.shed_overload(id, deltas)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Migrates every reservation hosted on `relay` elsewhere (descending
    /// need, lowest poor id on ties).
    fn evacuate(
        &mut self,
        relay: BoxId,
        deltas: &mut Vec<CompensationDelta>,
    ) -> Result<(), CoreError> {
        let mut hosted: Vec<(Bandwidth, BoxId)> = self
            .plan
            .assigned_to(relay)
            .into_iter()
            .map(|p| (self.plan.reservation_of(p).unwrap_or(Bandwidth::ZERO), p))
            .collect();
        hosted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut result = Ok(());
        for (_, poor) in hosted {
            // `place` migrates in one step (its delta records from → to);
            // when no relay fits, the reservation must still be released —
            // the host is gone either way — and the first uncovered box is
            // reported.
            if let Err(err) = self.place(poor, Some(relay), deltas) {
                deltas.push(self.plan.unassign(poor).expect("hosted on the relay"));
                if result.is_ok() {
                    result = Err(err);
                }
            }
        }
        result
    }

    /// Sheds reservations off `relay` (descending need, lowest poor id on
    /// ties) until `u_a ≥ u* + reserved(a)` holds again.
    fn shed_overload(
        &mut self,
        relay: BoxId,
        deltas: &mut Vec<CompensationDelta>,
    ) -> Result<(), CoreError> {
        let upload = self.boxes[relay.index()].expect("relay is present").upload;
        let mut hosted: Vec<(Bandwidth, BoxId)> = self
            .plan
            .assigned_to(relay)
            .into_iter()
            .map(|p| (self.plan.reservation_of(p).unwrap_or(Bandwidth::ZERO), p))
            .collect();
        hosted.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut result = Ok(());
        for (_, poor) in hosted {
            if upload >= self.u_star + self.plan.reserved(relay) {
                break;
            }
            if let Err(err) = self.place(poor, Some(relay), deltas) {
                deltas.push(self.plan.unassign(poor).expect("hosted on the relay"));
                if result.is_ok() {
                    result = Err(err);
                }
            }
        }
        result
    }

    /// Validates the upload-compensation bound over the current (churned)
    /// population, with the named errors of [`CompensationPlan::validate`]
    /// — the same shared checks ([`CompensationPlan::validate_over`]), so
    /// the static and churned validation paths cannot drift. Departed
    /// boxes are simply absent from the population (a departed relay still
    /// carrying an assignment reports as [`CoreError::RelayNotRich`]).
    pub fn validate(&self) -> Result<(), CoreError> {
        self.plan
            .validate_over(self.boxes.iter().flatten().copied())
    }

    /// Folds one round's forwarding demand into the utilization counters
    /// and returns the round's stats. `loads[b]` is the number of active
    /// relayed requests forwarding through box `b` this round (the engine
    /// counts them off the request attributions).
    pub fn note_round(&mut self, loads: &[u32]) -> RelayRoundStats {
        self.rounds += 1;
        let mut stats = RelayRoundStats::default();
        for (b, util) in self.util.iter_mut().enumerate() {
            let reserved = self.reserved_slots.get(b).copied().unwrap_or(0);
            let load = loads.get(b).copied().unwrap_or(0);
            if reserved > 0 {
                stats.relays += 1;
                stats.reserved_slots += reserved as usize;
            }
            if load == 0 {
                continue;
            }
            let forwarded = load.min(reserved);
            stats.relayed_requests += load as usize;
            stats.forwarded += forwarded as usize;
            stats.starved += (load - forwarded) as usize;
            if load >= reserved && reserved > 0 {
                stats.saturated_relays += 1;
                util.saturated_rounds += 1;
            }
            if load > reserved {
                util.oversubscribed_rounds += 1;
            }
            util.forwards += forwarded as u64;
            util.peak_load = util.peak_load.max(load);
        }
        stats
    }

    /// Cumulative utilization of every box that currently holds (or at
    /// some observed round held) forwarding work, ascending box id.
    pub fn utilization(&self) -> Vec<RelayUtilization> {
        self.util
            .iter()
            .copied()
            .filter(|u| u.reserved_slots > 0 || u.peak_load > 0 || u.assigned_poor > 0)
            .collect()
    }

    /// The relays whose forwarding demand exceeds their reservation, in
    /// ascending box id. `loads[b]` counts the relayed requests forwarding
    /// through box `b` this round, as for [`RelayBroker::note_round`].
    pub fn starved_relays(&self, loads: &[u32]) -> Vec<BoxId> {
        (0..loads.len())
            .filter(|&b| loads[b] > self.reserved_slots.get(b).copied().unwrap_or(0))
            .map(|b| BoxId(b as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::StorageSlots;

    fn node(id: u32, upload: f64) -> NodeBox {
        NodeBox::new(
            BoxId(id),
            Bandwidth::from_streams(upload),
            StorageSlots::from_slots(8),
        )
    }

    fn u_star() -> Bandwidth {
        Bandwidth::from_streams(1.2)
    }

    /// 2 rich relays (u = 6, headroom 4.8) and 2 poor boxes (u = 0.5,
    /// need 1.2 each).
    fn tests_broker() -> RelayBroker {
        let boxes = BoxSet::new(vec![node(0, 6.0), node(1, 6.0), node(2, 0.5), node(3, 0.5)]);
        RelayBroker::from_boxes(&boxes, u_star(), 4).unwrap()
    }

    #[test]
    fn builds_and_exposes_slot_table() {
        let broker = tests_broker();
        broker.validate().unwrap();
        // Reservation 1.2 streams × c = 4 → 4 forwarding slots per relay.
        let reserved = broker.reserved_slots();
        assert_eq!(reserved.len(), 4);
        assert_eq!(reserved.iter().sum::<u32>(), 2 * 4);
        assert_eq!(reserved[2], 0);
        assert_eq!(reserved[3], 0);
    }

    #[test]
    fn join_of_poor_box_places_on_largest_headroom() {
        let mut broker = tests_broker();
        let deltas = broker.apply(RelayEvent::BoxJoined(node(4, 0.5))).unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].poor, BoxId(4));
        assert_eq!(deltas[0].from, None);
        // Both relays carry one reservation (headroom tie 0.6) — the tie
        // breaks to the lowest id.
        let relay = deltas[0].to.unwrap();
        broker.validate().unwrap();
        // Deterministic: replaying the same history gives the same relay.
        let mut replay = tests_broker();
        let deltas2 = replay.apply(RelayEvent::BoxJoined(node(4, 0.5))).unwrap();
        assert_eq!(deltas2[0].to, Some(relay));
    }

    #[test]
    fn relay_departure_migrates_reservations() {
        let mut broker = tests_broker();
        let hosted = broker.plan().assigned_to(BoxId(0));
        let deltas = broker.apply(RelayEvent::BoxLeft(BoxId(0))).unwrap();
        broker.validate().unwrap();
        assert_eq!(deltas.len(), hosted.len(), "one migration delta each");
        for (&poor, delta) in hosted.iter().zip(&deltas) {
            assert_eq!(delta.from, Some(BoxId(0)));
            assert_eq!(delta.to, Some(BoxId(1)));
            assert_eq!(broker.plan().relay(poor), Some(BoxId(1)));
        }
        assert_eq!(broker.migrations(), hosted.len() as u64);
    }

    #[test]
    fn upload_demotion_evacuates_and_replans() {
        let mut broker = tests_broker();
        // Relay 0 drops below u*: its reservations move to relay 1 and it
        // becomes poor itself.
        let deltas = broker
            .apply(RelayEvent::UploadChanged(
                BoxId(0),
                Bandwidth::from_streams(0.5),
            ))
            .unwrap();
        broker.validate().unwrap();
        assert!(deltas
            .iter()
            .any(|d| d.poor == BoxId(0) && d.to == Some(BoxId(1))));
        assert_eq!(broker.plan().relay(BoxId(0)), Some(BoxId(1)));
        assert_eq!(broker.reserved_slots()[0], 0);
    }

    #[test]
    fn promotion_releases_the_reservation() {
        let mut broker = tests_broker();
        let relay = broker.plan().relay(BoxId(2)).unwrap();
        let before = broker.plan().reserved(relay);
        let deltas = broker
            .apply(RelayEvent::UploadChanged(
                BoxId(2),
                Bandwidth::from_streams(2.0),
            ))
            .unwrap();
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].to, None);
        assert!(broker.plan().reserved(relay) < before);
        broker.validate().unwrap();
    }

    #[test]
    fn infeasible_churn_yields_named_error() {
        let mut broker = tests_broker();
        broker.apply(RelayEvent::BoxLeft(BoxId(0))).unwrap();
        // The last relay leaves: both poor boxes are uncovered, and the
        // error names the first of them and its needed reservation.
        let err = broker.apply(RelayEvent::BoxLeft(BoxId(1))).unwrap_err();
        assert_eq!(
            err,
            CoreError::PoorUncovered {
                poor: BoxId(2),
                need: Bandwidth::from_streams(1.2),
            }
        );
        assert!(broker.validate().is_err());
    }

    #[test]
    fn failed_replan_keeps_broker_and_mirror_consistent() {
        let mut broker = tests_broker();
        let mut mirror = broker.plan().clone();
        for delta in broker.apply(RelayEvent::BoxLeft(BoxId(0))).unwrap() {
            mirror.apply_delta(&delta);
        }
        // The last relay leaves: the re-plan fails, but the released
        // reservations (the mutations that did happen) are still exposed
        // through last_deltas, the slot table is re-synced (no forwarding
        // slots credited to the departed box), and diagnostics stay
        // usable: no relay remains, so any forwarding demand starves.
        assert!(broker.apply(RelayEvent::BoxLeft(BoxId(1))).is_err());
        for delta in broker.last_deltas() {
            mirror.apply_delta(delta);
        }
        assert_eq!(&mirror, broker.plan(), "mirror diverged on the error path");
        assert_eq!(broker.reserved_slots()[1], 0, "departed relay kept slots");
        assert!(broker.starved_relays(&[0; 4]).is_empty());
        assert_eq!(broker.starved_relays(&[0, 1, 0, 0]), vec![BoxId(1)]);

        // A poor box joining an uncompensable system grows the slot table
        // with the universe even though placement fails.
        assert!(broker.apply(RelayEvent::BoxJoined(node(4, 0.5))).is_err());
        assert_eq!(broker.reserved_slots().len(), 5);
        assert!(broker.starved_relays(&[0; 5]).is_empty());
        assert_eq!(broker.starved_relays(&[0, 0, 0, 0, 2]), vec![BoxId(4)]);
    }

    #[test]
    fn round_accounting_tracks_saturation_and_starvation() {
        let mut broker = tests_broker();
        let relay = broker.plan().relay(BoxId(2)).unwrap();
        let mut loads = vec![0u32; 4];
        loads[relay.index()] = 6; // reservation is 4 slots
        let stats = broker.note_round(&loads);
        assert_eq!(stats.relayed_requests, 6);
        assert_eq!(stats.forwarded, 4);
        assert_eq!(stats.starved, 2);
        assert_eq!(stats.saturated_relays, 1);
        let util = broker.utilization();
        let relay_util = util.iter().find(|u| u.relay == relay).unwrap();
        assert_eq!(relay_util.peak_load, 6);
        assert_eq!(relay_util.forwards, 4);
        assert_eq!(relay_util.saturated_rounds, 1);
        assert_eq!(relay_util.oversubscribed_rounds, 1);
        // A calm round saturates nothing further.
        loads[relay.index()] = 1;
        let stats = broker.note_round(&loads);
        assert_eq!(stats.starved, 0);
        assert_eq!(stats.saturated_relays, 0);
    }

    #[test]
    fn diagnose_names_starved_reservations() {
        let broker = tests_broker();
        let relay = broker.plan().relay(BoxId(2)).unwrap();
        let other = BoxId(1 - relay.0);
        // 5 relayed requests through one relay with 4 reserved slots.
        let mut loads = vec![0u32; 4];
        loads[relay.index()] = 5;
        assert_eq!(broker.starved_relays(&loads), vec![relay]);
        // A round that uses every reserved slot is covered, not starved.
        loads[relay.index()] = 4;
        assert!(broker.starved_relays(&loads).is_empty());
        // Several starved relays, ascending id; a box with no reservation
        // starves on any forwarding demand.
        loads[relay.index()] = 6;
        loads[other.index()] = 5;
        loads[3] = 1;
        assert_eq!(
            broker.starved_relays(&loads),
            vec![BoxId(0), BoxId(1), BoxId(3)]
        );
    }

    #[test]
    fn stats_roundtrip_json() {
        let stats = RelayRoundStats {
            relays: 2,
            relayed_requests: 9,
            reserved_slots: 8,
            forwarded: 7,
            starved: 2,
            saturated_relays: 1,
        };
        assert_eq!(RelayRoundStats::from_json(&stats.to_json()).unwrap(), stats);
        let util = RelayUtilization {
            relay: BoxId(3),
            reserved_slots: 4,
            assigned_poor: 2,
            forwards: 100,
            peak_load: 6,
            saturated_rounds: 5,
            oversubscribed_rounds: 1,
        };
        assert_eq!(RelayUtilization::from_json(&util.to_json()).unwrap(), util);
    }
}
