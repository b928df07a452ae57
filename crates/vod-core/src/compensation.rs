//! Upload compensation for heterogeneous systems (Section 4).
//!
//! When some boxes have upload below a threshold `u* > 1` ("poor" boxes),
//! Theorem 2 requires the system to be `u*`-*upload-compensated*: every poor
//! box `b` is assigned a rich relay box `r(b)` on which an upload capacity of
//! `u* + 1 − 2·u_b` is statically reserved. Several poor boxes may share the
//! same relay as long as `u_a ≥ u* + Σ_{b : r(b)=a} (u* + 1 − 2·u_b)`.
//! It also requires the system to be `u*`-*storage-balanced*:
//! `2 ≤ d_b/u_b ≤ d/u*` for every box.

use crate::capacity::Bandwidth;
use crate::error::CoreError;
use crate::json::{obj, Json, JsonCodec, JsonError};
use crate::node::{BoxId, BoxSet};
use std::collections::HashMap;

/// The reservation a poor box needs on its relay: `u* + 1 − 2·u_b`
/// (clamped at zero, although for a genuinely poor box it is positive).
pub fn relay_reservation(u_star: Bandwidth, poor_upload: Bandwidth) -> Bandwidth {
    (u_star + Bandwidth::ONE_STREAM).saturating_sub(poor_upload.scale(2))
}

/// The assignment of poor boxes to rich relays, with reserved capacities.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompensationPlan {
    /// Relay box `r(b)` for each poor box `b`.
    relay_of: HashMap<BoxId, BoxId>,
    /// Reservation `u* + 1 − 2·u_b` held for each poor box on its relay.
    need_of: HashMap<BoxId, Bandwidth>,
    /// Total upload reserved on each rich box by its assigned poor boxes.
    reserved_on: HashMap<BoxId, Bandwidth>,
    /// The threshold `u*` used to build the plan.
    u_star: Bandwidth,
}

impl JsonCodec for CompensationPlan {
    fn to_json(&self) -> Json {
        obj(vec![
            ("relay_of", self.relay_of.to_json()),
            ("need_of", self.need_of.to_json()),
            ("reserved_on", self.reserved_on.to_json()),
            ("u_star", self.u_star.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        let relay_of: HashMap<BoxId, BoxId> = HashMap::from_json(json.field("relay_of")?)?;
        let need_of: HashMap<BoxId, Bandwidth> = HashMap::from_json(json.field("need_of")?)?;
        // Every assigned poor box carries its reservation, and nothing
        // else does: mutation releases exactly what was reserved.
        if need_of.len() != relay_of.len() || !need_of.keys().all(|b| relay_of.contains_key(b)) {
            return Err(JsonError::new(
                "`need_of` must list exactly the poor boxes of `relay_of`",
            ));
        }
        Ok(CompensationPlan {
            relay_of,
            need_of,
            reserved_on: HashMap::from_json(json.field("reserved_on")?)?,
            u_star: Bandwidth::from_json(json.field("u_star")?)?,
        })
    }
}

/// One reservation migration: poor box `poor` moves its reservation from
/// relay `from` to relay `to` (either end may be absent for pure
/// assignments/releases). Produced by churn re-planning (the `RelayBroker`
/// in `vod-sim`) and replayable onto a mirror plan with
/// [`CompensationPlan::apply_delta`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompensationDelta {
    /// The poor box whose reservation moves.
    pub poor: BoxId,
    /// The relay the reservation is released from (`None` for a fresh
    /// assignment).
    pub from: Option<BoxId>,
    /// The relay the reservation moves to (`None` when the box stops being
    /// relayed — it left, or is no longer poor).
    pub to: Option<BoxId>,
    /// The reserved capacity `u* + 1 − 2·u_b` being moved.
    pub reservation: Bandwidth,
}

impl JsonCodec for CompensationDelta {
    fn to_json(&self) -> Json {
        obj(vec![
            ("poor", self.poor.to_json()),
            ("from", self.from.to_json()),
            ("to", self.to.to_json()),
            ("reservation", self.reservation.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(CompensationDelta {
            poor: BoxId::from_json(json.field("poor")?)?,
            from: Option::from_json(json.field("from")?)?,
            to: Option::from_json(json.field("to")?)?,
            reservation: Bandwidth::from_json(json.field("reservation")?)?,
        })
    }
}

impl CompensationPlan {
    /// An empty plan (homogeneous systems, or systems with no poor box).
    pub fn empty(u_star: Bandwidth) -> Self {
        CompensationPlan {
            relay_of: HashMap::new(),
            need_of: HashMap::new(),
            reserved_on: HashMap::new(),
            u_star,
        }
    }

    /// The relay `r(b)` assigned to poor box `b`, if any.
    pub fn relay(&self, poor: BoxId) -> Option<BoxId> {
        self.relay_of.get(&poor).copied()
    }

    /// The reservation held for poor box `b` on its relay, if assigned.
    pub fn reservation_of(&self, poor: BoxId) -> Option<Bandwidth> {
        self.need_of.get(&poor).copied()
    }

    /// Assigns (or re-assigns) poor box `poor` to `relay` with the given
    /// reservation, returning the delta describing the move.
    pub fn assign(
        &mut self,
        poor: BoxId,
        relay: BoxId,
        reservation: Bandwidth,
    ) -> CompensationDelta {
        let from = self.release(poor);
        self.relay_of.insert(poor, relay);
        self.need_of.insert(poor, reservation);
        *self.reserved_on.entry(relay).or_insert(Bandwidth::ZERO) += reservation;
        CompensationDelta {
            poor,
            from,
            to: Some(relay),
            reservation,
        }
    }

    /// Removes poor box `poor` from the plan (it left, or stopped being
    /// poor), returning the delta, or `None` when it was not assigned.
    pub fn unassign(&mut self, poor: BoxId) -> Option<CompensationDelta> {
        let reservation = self.need_of.get(&poor).copied().unwrap_or(Bandwidth::ZERO);
        self.release(poor).map(|from| CompensationDelta {
            poor,
            from: Some(from),
            to: None,
            reservation,
        })
    }

    /// Drops `poor`'s current assignment (bookkeeping for
    /// [`CompensationPlan::assign`] / [`CompensationPlan::unassign`]).
    fn release(&mut self, poor: BoxId) -> Option<BoxId> {
        let relay = self.relay_of.remove(&poor)?;
        let need = self
            .need_of
            .remove(&poor)
            .unwrap_or_else(|| panic!("poor box {poor} has a relay but no tracked reservation"));
        let slot = self
            .reserved_on
            .get_mut(&relay)
            .expect("assigned relay has a reservation total");
        *slot = slot.saturating_sub(need);
        if *slot == Bandwidth::ZERO {
            self.reserved_on.remove(&relay);
        }
        Some(relay)
    }

    /// Replays a [`CompensationDelta`] onto this plan (e.g. to keep a mirror
    /// copy in sync with a re-planning broker).
    ///
    /// # Panics
    /// Panics when `delta.from` disagrees with the current assignment.
    pub fn apply_delta(&mut self, delta: &CompensationDelta) {
        assert_eq!(
            self.relay(delta.poor),
            delta.from,
            "delta source relay must match the tracked assignment"
        );
        match delta.to {
            Some(relay) => {
                self.assign(delta.poor, relay, delta.reservation);
            }
            None => {
                self.unassign(delta.poor);
            }
        }
    }

    /// Total upload reserved on rich box `a` by its assigned poor boxes.
    pub fn reserved(&self, rich: BoxId) -> Bandwidth {
        self.reserved_on
            .get(&rich)
            .copied()
            .unwrap_or(Bandwidth::ZERO)
    }

    /// The threshold `u*` this plan was built for.
    pub fn u_star(&self) -> Bandwidth {
        self.u_star
    }

    /// Number of poor boxes covered by the plan.
    pub fn covered_poor(&self) -> usize {
        self.relay_of.len()
    }

    /// Iterator over `(poor, relay)` pairs.
    pub fn assignments(&self) -> impl Iterator<Item = (BoxId, BoxId)> + '_ {
        self.relay_of.iter().map(|(&p, &r)| (p, r))
    }

    /// The poor boxes assigned to a given relay.
    pub fn assigned_to(&self, rich: BoxId) -> Vec<BoxId> {
        let mut v: Vec<BoxId> = self
            .relay_of
            .iter()
            .filter(|&(_, &r)| r == rich)
            .map(|(&p, _)| p)
            .collect();
        v.sort();
        v
    }

    /// Upload left on box `a` after subtracting its reservations.
    pub fn residual_upload(&self, boxes: &BoxSet, a: BoxId) -> Bandwidth {
        boxes.get(a).upload.saturating_sub(self.reserved(a))
    }

    /// Validates the plan against the paper's upload-compensation bound:
    /// for every relay `a`, `u_a ≥ u* + Σ reservations(a)`, every poor box
    /// is covered, and every relay is rich. Errors name the offending box
    /// and the violated bound ([`CoreError::PoorUncovered`],
    /// [`CoreError::RelayOverloaded`], [`CoreError::RelayNotRich`]).
    pub fn validate(&self, boxes: &BoxSet) -> Result<(), CoreError> {
        self.validate_over(boxes.iter().copied())
    }

    /// [`CompensationPlan::validate`] over an arbitrary (possibly churned)
    /// population — the single implementation of the bound checks, shared
    /// by the static path and the relay broker so the two cannot drift. A
    /// relay named by an assignment but absent from `boxes` counts as not
    /// rich.
    pub fn validate_over(
        &self,
        boxes: impl Iterator<Item = crate::node::NodeBox>,
    ) -> Result<(), CoreError> {
        // Report the lowest-id violator of each kind, so the diagnosis is
        // deterministic regardless of hash-map iteration order.
        let mut population: Vec<crate::node::NodeBox> = boxes.collect();
        population.sort_by_key(|b| b.id);
        let lookup = |id: BoxId| {
            population
                .binary_search_by_key(&id, |b| b.id)
                .ok()
                .map(|i| population[i])
        };
        // Every poor box must be covered.
        for b in &population {
            if b.is_poor(self.u_star) && !self.relay_of.contains_key(&b.id) {
                return Err(CoreError::PoorUncovered {
                    poor: b.id,
                    need: relay_reservation(self.u_star, b.upload),
                });
            }
        }
        // Relays must themselves be present and rich (checked before the
        // overload bound: a poor relay also looks overloaded, but naming
        // the real defect beats naming its symptom).
        let mut assignments: Vec<(BoxId, BoxId)> = self.assignments().collect();
        assignments.sort();
        for (poor, relay) in assignments {
            let rich = lookup(relay).is_some_and(|n| n.is_rich(self.u_star));
            if !rich {
                return Err(CoreError::RelayNotRich { poor, relay });
            }
        }
        // The bound itself: u_a ≥ u* + Σ reservations(a). An absent relay
        // carrying reservations was already reported above.
        let mut relays: Vec<(BoxId, Bandwidth)> =
            self.reserved_on.iter().map(|(&a, &r)| (a, r)).collect();
        relays.sort();
        for (relay, reserved) in relays {
            let Some(node) = lookup(relay) else { continue };
            if node.upload < self.u_star + reserved {
                return Err(CoreError::RelayOverloaded {
                    relay,
                    upload: node.upload,
                    required: self.u_star + reserved,
                });
            }
        }
        Ok(())
    }
}

/// Checks the `u*`-storage-balance condition: `2 ≤ d_b/u_b ≤ d/u*` for every
/// box with positive upload (boxes with zero upload trivially violate it).
pub fn check_storage_balance(boxes: &BoxSet, c: u16, u_star: Bandwidth) -> Result<(), CoreError> {
    let d = boxes.average_storage_videos(c);
    let upper = d / u_star.as_streams();
    for b in boxes.iter() {
        match b.storage_upload_ratio(c) {
            None => {
                return Err(CoreError::StorageUnbalanced {
                    box_id: b.id,
                    ratio: f64::INFINITY,
                    bounds: (2.0, upper),
                })
            }
            Some(r) => {
                if r < 2.0 - 1e-9 || r > upper + 1e-9 {
                    return Err(CoreError::StorageUnbalanced {
                        box_id: b.id,
                        ratio: r,
                        bounds: (2.0, upper),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Builds an upload-compensation plan with a first-fit-decreasing greedy
/// assignment of poor boxes onto rich boxes.
///
/// Poor boxes are processed by decreasing reservation need; each is assigned
/// to the rich box with the largest remaining headroom
/// (`u_a − u* − already reserved`). Returns an error when some poor box
/// cannot be placed — the system then is not `u*`-upload-compensable by this
/// heuristic (first-fit-decreasing is not complete, but exhaustive search is
/// exponential and the paper only needs existence under an average-capacity
/// slack, which the greedy heuristic achieves in practice).
pub fn compensate(boxes: &BoxSet, u_star: Bandwidth) -> Result<CompensationPlan, CoreError> {
    let mut plan = CompensationPlan::empty(u_star);
    let poor = boxes.poor_ids(u_star);
    if poor.is_empty() {
        return Ok(plan);
    }
    let rich = boxes.rich_ids(u_star);
    if rich.is_empty() {
        return Err(CoreError::CompensationInfeasible {
            unassigned_poor: poor.len(),
        });
    }

    // Remaining headroom on each rich box: u_a − u*.
    let mut headroom: Vec<(BoxId, Bandwidth)> = rich
        .iter()
        .map(|&a| (a, boxes.get(a).upload.saturating_sub(u_star)))
        .collect();

    // Poor boxes by decreasing reservation need.
    let mut needs: Vec<(BoxId, Bandwidth)> = poor
        .iter()
        .map(|&b| (b, relay_reservation(u_star, boxes.get(b).upload)))
        .collect();
    needs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    let mut unassigned = 0usize;
    for (poor_box, need) in needs {
        // Best-fit: rich box with the most remaining headroom.
        let best = headroom
            .iter_mut()
            .max_by_key(|(_, h)| *h)
            .expect("rich boxes present");
        if best.1 >= need {
            best.1 = best.1.saturating_sub(need);
            let relay = best.0;
            plan.assign(poor_box, relay, need);
        } else {
            unassigned += 1;
        }
    }

    if unassigned > 0 {
        return Err(CoreError::CompensationInfeasible {
            unassigned_poor: unassigned,
        });
    }
    plan.validate(boxes)?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::StorageSlots;
    use crate::node::NodeBox;

    fn mixed_population() -> BoxSet {
        // 4 poor boxes at u=0.5 and 4 rich boxes at u=3.0; u* = 1.2.
        // Reservation per poor box: 1.2 + 1 − 1.0 = 1.2.
        // Headroom per rich box: 3.0 − 1.2 = 1.8 -> one poor box each fits.
        let mut v = Vec::new();
        for i in 0..4u32 {
            v.push(NodeBox::new(
                BoxId(i),
                Bandwidth::from_streams(0.5),
                StorageSlots::from_slots(8),
            ));
        }
        for i in 4..8u32 {
            v.push(NodeBox::new(
                BoxId(i),
                Bandwidth::from_streams(3.0),
                StorageSlots::from_slots(48),
            ));
        }
        BoxSet::new(v)
    }

    #[test]
    fn relay_reservation_formula() {
        let u_star = Bandwidth::from_streams(1.2);
        let r = relay_reservation(u_star, Bandwidth::from_streams(0.5));
        assert_eq!(r, Bandwidth::from_streams(1.2));
        // Rich-ish box: clamped at 0 when 2·u_b exceeds u*+1.
        let r = relay_reservation(u_star, Bandwidth::from_streams(2.0));
        assert_eq!(r, Bandwidth::ZERO);
    }

    #[test]
    fn compensation_succeeds_on_mixed_population() {
        let boxes = mixed_population();
        let u_star = Bandwidth::from_streams(1.2);
        let plan = compensate(&boxes, u_star).unwrap();
        assert_eq!(plan.covered_poor(), 4);
        plan.validate(&boxes).unwrap();
        // Every relay is rich and keeps at least u* residual upload.
        for (_, relay) in plan.assignments() {
            assert!(boxes.get(relay).is_rich(u_star));
            assert!(plan.residual_upload(&boxes, relay) >= u_star);
        }
    }

    #[test]
    fn compensation_fails_without_rich_headroom() {
        // Rich boxes barely at u*: no headroom to absorb reservations.
        let v = vec![
            NodeBox::new(
                BoxId(0),
                Bandwidth::from_streams(0.5),
                StorageSlots::from_slots(8),
            ),
            NodeBox::new(
                BoxId(1),
                Bandwidth::from_streams(1.2),
                StorageSlots::from_slots(8),
            ),
        ];
        let boxes = BoxSet::new(v);
        let err = compensate(&boxes, Bandwidth::from_streams(1.2)).unwrap_err();
        assert!(matches!(err, CoreError::CompensationInfeasible { .. }));
    }

    #[test]
    fn compensation_fails_with_no_rich_box() {
        let boxes =
            BoxSet::homogeneous(4, Bandwidth::from_streams(0.9), StorageSlots::from_slots(8));
        assert!(matches!(
            compensate(&boxes, Bandwidth::from_streams(1.1)),
            Err(CoreError::CompensationInfeasible { unassigned_poor: 4 })
        ));
    }

    #[test]
    fn homogeneous_rich_population_needs_no_plan() {
        let boxes =
            BoxSet::homogeneous(4, Bandwidth::from_streams(1.5), StorageSlots::from_slots(8));
        let plan = compensate(&boxes, Bandwidth::from_streams(1.2)).unwrap();
        assert_eq!(plan.covered_poor(), 0);
        plan.validate(&boxes).unwrap();
    }

    #[test]
    fn storage_balance_check() {
        let c = 4;
        // d/u = 4 everywhere, d(avg) = 8, u* = 1.5 -> upper bound 8/1.5 ≈ 5.33.
        let boxes = BoxSet::new(vec![
            NodeBox::new(
                BoxId(0),
                Bandwidth::from_streams(1.0),
                StorageSlots::from_videos(4, c),
            ),
            NodeBox::new(
                BoxId(1),
                Bandwidth::from_streams(3.0),
                StorageSlots::from_videos(12, c),
            ),
        ]);
        assert!(check_storage_balance(&boxes, c, Bandwidth::from_streams(1.5)).is_ok());
        // Ratio below 2 violates the lower bound.
        let bad = BoxSet::new(vec![NodeBox::new(
            BoxId(0),
            Bandwidth::from_streams(4.0),
            StorageSlots::from_videos(4, c),
        )]);
        assert!(check_storage_balance(&bad, c, Bandwidth::from_streams(1.5)).is_err());
        // Zero-upload box violates it too.
        let zero = BoxSet::new(vec![NodeBox::new(
            BoxId(0),
            Bandwidth::ZERO,
            StorageSlots::from_videos(4, c),
        )]);
        assert!(check_storage_balance(&zero, c, Bandwidth::from_streams(1.5)).is_err());
    }

    #[test]
    fn validation_errors_name_the_offending_box_and_bound() {
        let boxes = mixed_population();
        let u_star = Bandwidth::from_streams(1.2);

        // Uncovered poor box: the lowest-id one is named, with its need.
        let empty = CompensationPlan::empty(u_star);
        assert_eq!(
            empty.validate(&boxes),
            Err(CoreError::PoorUncovered {
                poor: BoxId(0),
                need: Bandwidth::from_streams(1.2),
            })
        );

        // Overloaded relay: pile every reservation onto one rich box.
        let mut plan = CompensationPlan::empty(u_star);
        for poor in boxes.poor_ids(u_star) {
            plan.assign(
                poor,
                BoxId(4),
                relay_reservation(u_star, boxes.get(poor).upload),
            );
        }
        // 4 × 1.2 reserved on upload 3.0 < 1.2 + 4.8.
        assert_eq!(
            plan.validate(&boxes),
            Err(CoreError::RelayOverloaded {
                relay: BoxId(4),
                upload: Bandwidth::from_streams(3.0),
                required: Bandwidth::from_streams(6.0),
            })
        );

        // Poor relay: assign a poor box to another poor box.
        let mut plan = CompensationPlan::empty(u_star);
        plan.assign(BoxId(0), BoxId(1), Bandwidth::from_streams(1.2));
        for poor in [BoxId(1), BoxId(2), BoxId(3)] {
            plan.assign(poor, BoxId(4 + poor.0 - 1), Bandwidth::from_streams(1.2));
        }
        assert_eq!(
            plan.validate(&boxes),
            Err(CoreError::RelayNotRich {
                poor: BoxId(0),
                relay: BoxId(1),
            })
        );
    }

    #[test]
    fn deltas_migrate_reservations_and_replay() {
        let boxes = mixed_population();
        let u_star = Bandwidth::from_streams(1.2);
        let mut plan = compensate(&boxes, u_star).unwrap();
        let mut mirror = plan.clone();

        // Migrate poor box 0 to a specific relay and replay onto the mirror.
        let need = plan.reservation_of(BoxId(0)).unwrap();
        assert_eq!(need, Bandwidth::from_streams(1.2));
        let old_relay = plan.relay(BoxId(0)).unwrap();
        let new_relay = *[BoxId(4), BoxId(5)]
            .iter()
            .find(|&&r| r != old_relay)
            .unwrap();
        let delta = plan.assign(BoxId(0), new_relay, need);
        assert_eq!(delta.from, Some(old_relay));
        assert_eq!(delta.to, Some(new_relay));
        mirror.apply_delta(&delta);
        assert_eq!(mirror, plan);

        // Reserved totals moved with the box.
        assert_eq!(plan.relay(BoxId(0)), Some(new_relay));
        assert!(plan.reserved(old_relay) < plan.reserved(new_relay));

        // Unassign releases the reservation entirely.
        let delta = plan.unassign(BoxId(0)).unwrap();
        assert_eq!(delta.to, None);
        assert_eq!(delta.reservation, need);
        mirror.apply_delta(&delta);
        assert_eq!(mirror, plan);
        assert_eq!(plan.relay(BoxId(0)), None);
        assert_eq!(plan.reservation_of(BoxId(0)), None);
        // Unassigning again is a no-op.
        assert!(plan.unassign(BoxId(0)).is_none());
    }

    #[test]
    fn plan_json_without_matching_reservations_is_rejected() {
        // The pre-`need_of` format (no per-poor reservations) and a plan
        // whose reservations name other boxes are refused at parse, so a
        // parsed plan never releases an unknown amount.
        let mut relay_of = HashMap::new();
        relay_of.insert(BoxId(0), BoxId(1));
        let mut reserved_on = HashMap::new();
        reserved_on.insert(BoxId(1), Bandwidth::from_streams(1.2));
        let plan_json = |need_of: Option<HashMap<BoxId, Bandwidth>>| {
            let mut fields = vec![("relay_of", relay_of.to_json())];
            if let Some(need_of) = need_of {
                fields.push(("need_of", need_of.to_json()));
            }
            fields.push(("reserved_on", reserved_on.to_json()));
            fields.push(("u_star", Bandwidth::from_streams(1.2).to_json()));
            crate::json::obj(fields)
        };
        let err = CompensationPlan::from_json(&plan_json(None)).unwrap_err();
        assert!(err.to_string().contains("need_of"), "{err}");
        for keys in [vec![], vec![BoxId(2)], vec![BoxId(0), BoxId(2)]] {
            let need_of = keys
                .into_iter()
                .map(|b| (b, Bandwidth::from_streams(1.2)))
                .collect();
            let err = CompensationPlan::from_json(&plan_json(Some(need_of))).unwrap_err();
            assert!(err.to_string().contains("relay_of"), "{err}");
        }
        let need_of = [(BoxId(0), Bandwidth::from_streams(1.2))].into();
        let plan = CompensationPlan::from_json(&plan_json(Some(need_of))).unwrap();
        assert_eq!(
            plan.reservation_of(BoxId(0)),
            Some(Bandwidth::from_streams(1.2))
        );
    }

    #[test]
    fn plan_and_delta_roundtrip_json() {
        let boxes = mixed_population();
        let u_star = Bandwidth::from_streams(1.2);
        let plan = compensate(&boxes, u_star).unwrap();
        let json = plan.to_json();
        assert_eq!(CompensationPlan::from_json(&json).unwrap(), plan);

        let delta = CompensationDelta {
            poor: BoxId(2),
            from: Some(BoxId(5)),
            to: None,
            reservation: Bandwidth::from_streams(1.2),
        };
        assert_eq!(
            CompensationDelta::from_json(&delta.to_json()).unwrap(),
            delta
        );
    }

    #[test]
    fn multiple_poor_boxes_can_share_a_relay() {
        // One very rich box absorbs all reservations.
        let mut v = vec![NodeBox::new(
            BoxId(0),
            Bandwidth::from_streams(10.0),
            StorageSlots::from_slots(100),
        )];
        for i in 1..4u32 {
            v.push(NodeBox::new(
                BoxId(i),
                Bandwidth::from_streams(0.5),
                StorageSlots::from_slots(8),
            ));
        }
        let boxes = BoxSet::new(v);
        let u_star = Bandwidth::from_streams(1.2);
        let plan = compensate(&boxes, u_star).unwrap();
        assert_eq!(plan.covered_poor(), 3);
        assert_eq!(plan.assigned_to(BoxId(0)).len(), 3);
        // Reserved = 3 * 1.2 = 3.6; residual = 10 − 3.6 = 6.4 ≥ u*.
        assert_eq!(plan.reserved(BoxId(0)), Bandwidth::from_streams(3.6));
        assert_eq!(
            plan.residual_upload(&boxes, BoxId(0)),
            Bandwidth::from_streams(6.4)
        );
    }
}
