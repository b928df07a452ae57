//! The capacity ledger against an independent model.
//!
//! A seeded script churns boxes (`apply_churn`), opens and closes fault
//! windows (`apply_fault`, including `pct` 0 and 100 and windows that never
//! expire) and runs a repair budget, on a homogeneous and on a relayed
//! fleet. The test keeps its own per-box at-rest table — 0 for a dead box,
//! `⌊(u_b − Σ_p (u* + 1 − 2·u_p))·c⌋` for a live one, the sum over the live
//! poor boxes `p` the live plan relays through `b` (none on a homogeneous
//! fleet), with every upload from its own table — and its own list of open
//! windows. Around every round it checks the broker's reserved slots
//! against the same sums, that the round was scheduled against exactly
//! `Σ at-rest − Σ fault loss − repair budget` slots, and that no hold
//! outlived its round.

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROUNDS: u64 = 80;

/// An open fault window of the model: `(pct, until)`, `until == 0` never
/// expires.
type Window = Option<(u8, u64)>;

fn homogeneous(seed: u64) -> VideoSystem {
    let params = SystemParams::new(24, 2.0, 8, 4, 3, 1.3, 10);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::homogeneous(params, &RandomPermutationAllocator::new(3), &mut rng).unwrap()
}

fn relayed(seed: u64) -> VideoSystem {
    let c: u16 = 8;
    let mut uploads = vec![0.6f64; 4];
    uploads.extend(vec![2.6f64; 12]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let params = SystemParams::new(n, 1.6, d_avg.round() as u32, c, 3, 1.2, 10);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::heterogeneous(
        params,
        boxes,
        Catalog::uniform(6, 10, c),
        &RandomPermutationAllocator::new(3),
        Some(Bandwidth::from_streams(1.2)),
        &mut rng,
    )
    .unwrap()
}

/// What one scripted run exercised, so a vacuous script fails the test.
#[derive(Default)]
struct Coverage {
    churn_events: u32,
    fault_loss: u64,
    repair_slots: u64,
}

/// Runs `ROUNDS` scripted rounds on `sys`, checking the ledger against the
/// model after every one.
fn run_against_model(sys: &VideoSystem, seed: u64) -> Coverage {
    let n = sys.n();
    let c = sys.c();
    let u_star = Bandwidth::from_streams(1.2);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = Simulator::new(sys, SimConfig::new(ROUNDS).continue_on_failure());
    sim.attach_repair(RepairPlanner::for_system(sys, 3));
    let mut gen = SequentialViewing::new(n, sys.m(), NextVideoPolicy::RoundRobin, 1.3, seed);

    // The model's own tables: liveness and upload per box.
    let mut alive = vec![true; n];
    let mut upload: Vec<Bandwidth> = sys.boxes().iter().map(|b| b.upload).collect();
    let mut windows: Vec<Window> = vec![None; n];
    // The at-rest model: each box's reservation, summed from the live
    // plan's assignments of live poor boxes and the model's own uploads
    // (and checked against the broker's reserved slots), then its open
    // slots.
    let at_rest = |sim: &Simulator, alive: &[bool], upload: &[Bandwidth]| -> Vec<u32> {
        let mut reserved = vec![Bandwidth::ZERO; n];
        if let Some(broker) = sim.relay_broker() {
            for p in (0..n).filter(|&p| alive[p] && upload[p] < u_star) {
                if let Some(relay) = broker.plan().relay(BoxId(p as u32)) {
                    reserved[relay.index()] += relay_reservation(u_star, upload[p]);
                }
            }
            let slots: Vec<u32> = reserved.iter().map(|r| r.stripe_slots(c)).collect();
            assert_eq!(broker.reserved_slots(), slots, "reserved slots");
        }
        (0..n)
            .map(|b| {
                if alive[b] {
                    upload[b].saturating_sub(reserved[b]).stripe_slots(c)
                } else {
                    0
                }
            })
            .collect()
    };
    let mut coverage = Coverage::default();
    let uploads = [0.6, 1.0, 1.4, 2.0, 2.6, 3.2];

    for now in 0..ROUNDS {
        // Script this round's churn.
        if rng.gen_bool(0.4) {
            let b = rng.gen_range(0..n);
            let id = BoxId(b as u32);
            let new_upload = Bandwidth::from_streams(uploads[rng.gen_range(0..uploads.len())]);
            let dead = alive.iter().filter(|&&a| !a).count();
            let event = if !alive[b] {
                alive[b] = true;
                upload[b] = new_upload;
                ChurnEvent::Joined(NodeBox {
                    upload: new_upload,
                    ..*sys.boxes().get(id)
                })
            } else if rng.gen_bool(0.5) && dead < n / 4 {
                alive[b] = false;
                if rng.gen_bool(0.5) {
                    ChurnEvent::Left(id)
                } else {
                    ChurnEvent::Crashed(id)
                }
            } else {
                upload[b] = new_upload;
                ChurnEvent::UploadChanged(id, new_upload)
            };
            sim.apply_churn(event);
            coverage.churn_events += 1;
        }
        // Script this round's fault windows.
        for _ in 0..2 {
            if !rng.gen_bool(0.5) {
                continue;
            }
            let b = rng.gen_range(0..n);
            let box_id = BoxId(b as u32);
            let until = if rng.gen_bool(0.2) {
                0
            } else {
                now + rng.gen_range(1..5u64)
            };
            let event = match rng.gen_range(0..5u32) {
                0 => FaultEvent::Stalled { box_id, until },
                1 => FaultEvent::Restored { box_id },
                kind => FaultEvent::Degraded {
                    box_id,
                    pct: [0, 50, 100][kind as usize - 2],
                    until,
                },
            };
            windows[b] = match event {
                FaultEvent::Degraded { pct, until, .. } => Some((pct, until)),
                FaultEvent::Stalled { until, .. } => Some((0, until)),
                _ => None,
            };
            sim.apply_fault(event);
        }

        // Between rounds the table is at rest and agrees with the model.
        let before = at_rest(&sim, &alive, &upload);
        for (b, &slots) in before.iter().enumerate() {
            assert_eq!(
                sim.upload_slots(BoxId(b as u32)),
                slots,
                "round {now}: box {b} at rest"
            );
        }
        // The windows the round's fault drain sees: expired ones close.
        let mut loss = 0u64;
        for (b, window) in windows.iter_mut().enumerate() {
            if window.is_some_and(|(_, until)| until != 0 && until <= now) {
                *window = None;
            }
            if let Some((pct, _)) = *window {
                let cap = before[b] as u64;
                loss += cap - cap * pct as u64 / 100;
            }
        }

        sim.step(&mut gen);

        let m = sim.report_so_far().rounds.last().expect("round recorded");
        let repair = m.repair.map_or(0, |r| r.budget_slots as u64);
        let rest: u64 = before.iter().map(|&s| s as u64).sum();
        assert_eq!(
            m.upload_slots_available,
            rest - loss - repair,
            "round {now}: scheduled against the wrong budget \
             (at rest {rest}, fault loss {loss}, repair {repair})"
        );
        // Every hold was released: the table is back at rest.
        for (b, &slots) in at_rest(&sim, &alive, &upload).iter().enumerate() {
            assert_eq!(
                sim.upload_slots(BoxId(b as u32)),
                slots,
                "round {now}: box {b} kept a hold"
            );
        }
        coverage.fault_loss += loss;
        coverage.repair_slots += repair;
    }
    coverage
}

#[test]
fn ledger_matches_an_independent_model() {
    for seed in [3u64, 17, 40] {
        for (label, sys) in [
            ("homogeneous", homogeneous(seed)),
            ("relayed", relayed(seed)),
        ] {
            let coverage = run_against_model(&sys, seed);
            assert!(coverage.churn_events > 10, "{label} seed {seed}: churn");
            assert!(
                coverage.fault_loss > 0,
                "{label} seed {seed}: no fault loss"
            );
            assert!(coverage.repair_slots > 0, "{label} seed {seed}: no repair");
        }
    }
}
