//! Every failing round of a relayed fleet, diagnosed by the engine and
//! rechecked from what the scheduler was handed.
//!
//! Theorem 2 relays each poor box through a rich box whose reservation
//! `u* + 1 − 2·u_b` is disjoint from the open budgets the Lemma-1 matching
//! allocates. A failing round's `FailureRecord` therefore carries two
//! independent diagnoses:
//!
//! * the **supply witness** (`obstruction_size`, `obstruction_capacity`):
//!   the largest request set `X` of maximum Hall deficiency
//!   `|X| − U_{B(X)}` over the round's open capacities and candidate rows;
//! * the **starved relays**: every box whose forwarding demand (relayed
//!   requests, requester ≠ viewer) exceeds its reserved forwarding slots,
//!   in ascending box id.
//!
//! A chronically infeasible u*-compensated fleet is driven twice — as it
//! stands, then with scripted departures of relays whose poor boxes are
//! mid-playback, whose in-flight relayed requests keep naming the departed
//! relay and so starve it — and each record is rechecked against a brute
//! force over every box subset of the captured instance and an independent
//! count of the captured requests against the broker's reserved slots. A
//! digest of each run's records pins the diagnosis bit for bit.

use std::cell::RefCell;
use std::rc::Rc;

use p2p_vod::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The instance the engine handed the scheduler in the last round.
#[derive(Default)]
struct Captured {
    capacities: Vec<u32>,
    keys: Vec<RequestKey>,
    rows: Vec<Vec<BoxId>>,
}

/// Forwards every round to a [`MaxFlowScheduler`] through the slice-of-vecs
/// entry point (which the trait's view defaults bridge to) and keeps the
/// instance.
struct CapturingScheduler {
    inner: MaxFlowScheduler,
    captured: Rc<RefCell<Captured>>,
}

impl Scheduler for CapturingScheduler {
    fn schedule(&mut self, capacities: &[u32], candidates: &[Vec<BoxId>]) -> Vec<Option<BoxId>> {
        self.inner.schedule(capacities, candidates)
    }

    fn schedule_keyed(
        &mut self,
        capacities: &[u32],
        keys: &[RequestKey],
        candidates: &[Vec<BoxId>],
        out: &mut Vec<Option<BoxId>>,
    ) {
        let mut captured = self.captured.borrow_mut();
        captured.capacities = capacities.to_vec();
        captured.keys = keys.to_vec();
        captured.rows = candidates.to_vec();
        self.inner.schedule_keyed(capacities, keys, candidates, out);
    }

    fn name(&self) -> &'static str {
        "capturing max-flow"
    }
}

/// 4 poor boxes (u = 0.6) relayed by 8 rich ones (u = 2.4) at u* = 1.2,
/// one replica per stripe: the fleet is u*-compensable, but its supply is
/// too thin for poor-first multi-swarm demand.
fn starved_relayed_fleet() -> VideoSystem {
    let c: u16 = 4;
    let mut uploads = vec![0.6f64; 4];
    uploads.extend(vec![2.4f64; 8]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 4.0, c);
    let n = boxes.len();
    let k = 1u32;
    let catalog_size = (boxes.average_storage_videos(c) * n as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, 16, c);
    let params = SystemParams::new(n, boxes.average_upload(), 4, c, k, 1.5, 16);
    let mut rng = StdRng::seed_from_u64(29);
    VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        Some(Bandwidth::from_streams(1.2)),
        &mut rng,
    )
    .expect("fleet is u*-compensable")
}

/// `(max deficiency D, |X|)` over every box subset `S`, where
/// `X(S) = {x : row(x) ⊆ S}` and the deficiency is `|X(S)| − Σ_{b∈S} cap_b`;
/// `|X|` is the largest `X(S)` of deficiency `D` (the union of all
/// maximum-deficiency request sets).
fn brute_force_hall(capacities: &[u32], rows: &[Vec<BoxId>]) -> (i64, usize) {
    let n = capacities.len();
    assert!(n <= 16, "brute force over 2^{n} subsets");
    let masks: Vec<u32> = rows
        .iter()
        .map(|row| row.iter().fold(0u32, |m, b| m | 1 << b.index()))
        .collect();
    let (mut best, mut largest) = (0i64, 0usize);
    for s in 0u32..1 << n {
        let inside = masks.iter().filter(|&&m| m & !s == 0).count();
        let cap: i64 = (0..n)
            .filter(|&b| s & 1 << b != 0)
            .map(|b| capacities[b] as i64)
            .sum();
        let deficiency = inside as i64 - cap;
        if deficiency > best || (deficiency == best && inside > largest) {
            (best, largest) = (deficiency, inside);
        }
    }
    (best, largest)
}

/// What one run's rechecks saw.
#[derive(Default)]
struct Coverage {
    failures: usize,
    supply: usize,
    starved: usize,
    both: usize,
    departures: usize,
    digest_parts: Vec<u64>,
}

/// The departure run's script: from round 5, every 20th round the relay of
/// the lowest poor box that is mid-playback leaves, and rejoins 10 rounds
/// later, so the fleet never drops below 11 of its 12 boxes.
const DEPART_FROM: u64 = 5;
const DEPART_EVERY: u64 = 20;
const REJOIN_AFTER: u64 = 10;

fn run_and_recheck(departures: bool, rounds: u64) -> Coverage {
    let system = starved_relayed_fleet();
    let poor = system.boxes().poor_ids(Bandwidth::from_streams(1.2));
    let captured = Rc::new(RefCell::new(Captured::default()));
    let scheduler = Box::new(CapturingScheduler {
        inner: MaxFlowScheduler::new(),
        captured: captured.clone(),
    });
    let config = SimConfig::new(rounds).continue_on_failure();
    let mut sim = Simulator::with_scheduler(&system, config, scheduler);
    let mut demand = MultiSwarmChurn::new(system.m(), 3, 4, 1.5, 2)
        .with_rotation(4)
        .with_priority_boxes(poor.clone());
    let mut coverage = Coverage::default();
    let mut departed: Option<(BoxId, u64)> = None;
    for now in 0..rounds {
        if let Some((relay, _)) = departed.take_if(|&mut (_, back)| back == now) {
            sim.apply_churn(ChurnEvent::Joined(*system.boxes().get(relay)));
        }
        if departures && now >= DEPART_FROM && (now - DEPART_FROM).is_multiple_of(DEPART_EVERY) {
            let broker = sim.relay_broker().expect("relayed fleet");
            let relay = poor
                .iter()
                .filter(|&&p| sim.playback(p).is_some())
                .find_map(|&p| broker.plan().relay(p));
            if let Some(relay) = relay {
                sim.apply_churn(ChurnEvent::Left(relay));
                departed = Some((relay, now + REJOIN_AFTER));
                coverage.departures += 1;
            }
        }
        let failures_before = sim.report_so_far().failures.len();
        sim.step(&mut demand);
        let report = sim.report_so_far();
        if report.failures.len() == failures_before {
            continue;
        }
        let record = &report.failures[failures_before];
        assert_eq!(record.round, now);
        let captured = captured.borrow();
        coverage.failures += 1;

        // Supply witness: the largest maximum-deficiency request set.
        let (deficiency, largest) = brute_force_hall(&captured.capacities, &captured.rows);
        assert_eq!(
            record.unserved as i64, deficiency,
            "round {now}: the matching left other than the Hall deficiency unserved"
        );
        assert_eq!(record.obstruction_size, Some(largest), "round {now}");
        assert_eq!(
            record.obstruction_capacity,
            Some((largest as i64 - deficiency) as u64),
            "round {now}"
        );

        // Starved relays: forwarding demand per requester ≠ viewer, against
        // the reserved slots the broker holds once the round is folded in.
        let reserved = sim.relay_broker().expect("relayed fleet").reserved_slots();
        let mut loads = vec![0u32; reserved.len()];
        for key in &captured.keys {
            let playback = sim.playback(key.viewer).expect("a requesting viewer plays");
            let request = playback
                .active_requests(key.viewer, now)
                .into_iter()
                .find(|r| r.stripe == key.stripe)
                .expect("every scheduled key is an active request");
            if request.requester != request.viewer {
                loads[request.requester.index()] += 1;
            }
        }
        let starved: Vec<BoxId> = (0..reserved.len())
            .filter(|&b| loads[b] > reserved[b])
            .map(|b| BoxId(b as u32))
            .collect();
        assert_eq!(record.starved_relays, starved, "round {now}");

        let has_supply = record.obstruction_size.is_some();
        let has_starved = !record.starved_relays.is_empty();
        coverage.supply += usize::from(has_supply);
        coverage.starved += usize::from(has_starved);
        coverage.both += usize::from(has_supply && has_starved);
        coverage.digest_parts.push(p2p_vod::core::fx_hash(&(
            record.round,
            record.unserved,
            record.obstruction_size,
            record.obstruction_capacity,
            &record.starved_relays,
            &record.videos,
            record.fault_slots_lost,
        )));
    }
    coverage
}

/// The digest of every failure record of the static run, pinned when the
/// engine still diagnosed relayed rounds through a two-hop relay flow
/// network (supply and forwarding legs in one max flow): the Lemma-1 min
/// cut plus the reservation count reproduce that diagnosis bit for bit.
const STATIC_DIGEST: u64 = 0x1e26_8e6f_e108_ce4c;

/// The digest of every failure record of the departure run.
const DEPARTURE_DIGEST: u64 = 0xf648_3f87_ff84_defa;

#[test]
fn relayed_failures_are_diagnosed_by_the_min_cut_and_the_reservation_count() {
    let rounds = 120;
    let fixed = run_and_recheck(false, rounds);
    let departure = run_and_recheck(true, rounds);
    for (label, run) in [("static", &fixed), ("departure", &departure)] {
        assert!(run.failures > 0, "{label}: the fleet never failed");
        assert_eq!(
            run.supply, run.failures,
            "{label}: a failure without a witness"
        );
    }
    // Static reservations cover Theorem 2's worst case, so only a relay
    // that left under its poor boxes' in-flight requests starves — and
    // then in rounds that also fail on supply.
    assert_eq!(fixed.starved, 0);
    assert!(departure.departures > 0, "the script removed no relay");
    assert!(departure.starved > 0, "no failing round starved a relay");
    assert!(departure.both > 0, "no round had both diagnoses");
    let digest = p2p_vod::core::fx_hash(&fixed.digest_parts);
    assert_eq!(digest, STATIC_DIGEST, "static digest {digest:#018x}");
    let digest = p2p_vod::core::fx_hash(&departure.digest_parts);
    assert_eq!(digest, DEPARTURE_DIGEST, "departure digest {digest:#018x}");
}
