//! Delivery reliability: connection outcomes, retry/backoff state, and the
//! graceful-degradation controller.
//!
//! The paper treats a matched stripe connection as served, full stop. This
//! module makes the data path a state machine: every scheduled connection
//! resolves into [`DeliveryOutcome::Delivered`], [`DeliveryOutcome::Dropped`],
//! or [`DeliveryOutcome::Timeout`] — decided by a deterministic hash of
//! `(salt, round, viewer, stripe)` so the outcome is identical under every
//! scheduler pipeline — and a failed stream enters a per-request retry queue
//! with capped exponential backoff and a deadline (all integer round
//! arithmetic). While backing off, the stream's regular per-round request is
//! suppressed; when the backoff expires it re-enters the candidate/schedule
//! pipeline as a first-class request competing through the same Lemma-1
//! budgets. A stream that exhausts its attempts or its deadline is
//! abandoned for the rest of the playback.
//!
//! The [`DegradationController`] watches the windowed unserved ratio the
//! failure diagnoser reports and sheds load deterministically when the
//! system is chronically infeasible: new admissions are rejected (existing
//! playbacks' continuity outranks them) and optionally only the first
//! `c' < c` stripes are served (partial service). Both directions of the
//! mode switch carry a hysteresis dwell so the controller never flaps
//! round-to-round.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::{BoxId, FxHasher64, SortedSignature, StripeId};

/// How one scheduled connection resolved this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The stripe arrived; the round counts as served.
    Delivered,
    /// The connection dropped mid-round; the stream enters backoff.
    Dropped,
    /// The supplier was too slow; same backoff path, counted separately.
    Timeout,
}

/// What the retry queue says about a stream's request this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Healthy stream: emit the regular request.
    Emit,
    /// Backoff expired: emit the request as a retry re-entry.
    Retry,
    /// Backing off or abandoned: suppress the request this round.
    Suppress,
}

/// Retry/timeout/backoff policy, in integer rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryPolicy {
    /// Failures a stream survives before it is abandoned (0 = abandon on
    /// the first drop — the no-retry baseline).
    pub max_attempts: u32,
    /// Backoff cap in rounds: failure `k` waits `min(2^(k-1), cap)` rounds.
    pub backoff_cap: u64,
    /// A stream still undelivered this many rounds after its first failure
    /// is abandoned (the per-request deadline).
    pub deadline: u64,
}

impl Default for DeliveryPolicy {
    fn default() -> Self {
        DeliveryPolicy {
            max_attempts: 6,
            backoff_cap: 8,
            deadline: 24,
        }
    }
}

impl DeliveryPolicy {
    /// The no-retry baseline: a single failure abandons the stream.
    pub fn no_retry() -> Self {
        DeliveryPolicy {
            max_attempts: 0,
            ..DeliveryPolicy::default()
        }
    }
}

/// Per-stream retry state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamState {
    /// `attempts` failures so far; suppressed until `next_at`, abandoned
    /// if still failing past `first_failed + deadline`.
    Backoff {
        attempts: u32,
        first_failed: u64,
        next_at: u64,
    },
    /// Deadline or attempt budget exhausted: suppressed for the rest of
    /// the playback.
    Abandoned,
}

/// Per-round delivery observability, threaded into
/// [`RoundMetrics::delivery`](crate::metrics::RoundMetrics::delivery).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliveryRoundStats {
    /// Connections the scheduler assigned this round.
    pub scheduled: usize,
    /// Connections that delivered.
    pub delivered: usize,
    /// Connections that dropped.
    pub dropped: usize,
    /// Connections that timed out.
    pub timed_out: usize,
    /// Retry re-entries emitted into the request pipeline this round.
    pub retries: usize,
    /// Requests suppressed this round because their stream is backing off.
    pub in_backoff: usize,
    /// Streams abandoned this round (deadline or attempts exhausted).
    pub abandoned: usize,
    /// Viewers that lost at least one delivery this round (rebuffering).
    pub rebuffering: usize,
}

impl JsonCodec for DeliveryRoundStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("scheduled", self.scheduled.to_json()),
            ("delivered", self.delivered.to_json()),
            ("dropped", self.dropped.to_json()),
            ("timed_out", self.timed_out.to_json()),
            ("retries", self.retries.to_json()),
            ("in_backoff", self.in_backoff.to_json()),
            ("abandoned", self.abandoned.to_json()),
            ("rebuffering", self.rebuffering.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DeliveryRoundStats {
            scheduled: usize::from_json(json.field("scheduled")?)?,
            delivered: usize::from_json(json.field("delivered")?)?,
            dropped: usize::from_json(json.field("dropped")?)?,
            timed_out: usize::from_json(json.field("timed_out")?)?,
            retries: usize::from_json(json.field("retries")?)?,
            in_backoff: usize::from_json(json.field("in_backoff")?)?,
            abandoned: usize::from_json(json.field("abandoned")?)?,
            rebuffering: usize::from_json(json.field("rebuffering")?)?,
        })
    }
}

/// Whole-run delivery/degradation summary, derived from the per-round stats
/// at [`Simulator::into_report`](crate::Simulator::into_report) time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeliverySummary {
    /// Total connections delivered.
    pub delivered: u64,
    /// Total connections dropped.
    pub dropped: u64,
    /// Total connections timed out.
    pub timed_out: u64,
    /// Total retry re-entries.
    pub retries: u64,
    /// Total streams abandoned.
    pub abandoned: u64,
    /// Total viewer-rounds spent rebuffering.
    pub rebuffer_rounds: u64,
    /// Rounds spent in degraded mode.
    pub degraded_rounds: u64,
    /// New admissions shed while degraded.
    pub shed_demands: u64,
    /// Stripe requests suppressed by partial service while degraded.
    pub suppressed_stripes: u64,
}

impl DeliverySummary {
    /// Sums the per-round delivery and degradation stats of a report.
    pub fn from_rounds(rounds: &[crate::metrics::RoundMetrics]) -> Self {
        let mut sum = DeliverySummary::default();
        for round in rounds {
            if let Some(d) = &round.delivery {
                sum.delivered += d.delivered as u64;
                sum.dropped += d.dropped as u64;
                sum.timed_out += d.timed_out as u64;
                sum.retries += d.retries as u64;
                sum.abandoned += d.abandoned as u64;
                sum.rebuffer_rounds += d.rebuffering as u64;
            }
            if let Some(g) = &round.degradation {
                sum.degraded_rounds += g.degraded as u64;
                sum.shed_demands += g.shed_demands as u64;
                sum.suppressed_stripes += g.suppressed_stripes as u64;
            }
        }
        sum
    }
}

impl JsonCodec for DeliverySummary {
    fn to_json(&self) -> Json {
        obj(vec![
            ("delivered", self.delivered.to_json()),
            ("dropped", self.dropped.to_json()),
            ("timed_out", self.timed_out.to_json()),
            ("retries", self.retries.to_json()),
            ("abandoned", self.abandoned.to_json()),
            ("rebuffer_rounds", self.rebuffer_rounds.to_json()),
            ("degraded_rounds", self.degraded_rounds.to_json()),
            ("shed_demands", self.shed_demands.to_json()),
            ("suppressed_stripes", self.suppressed_stripes.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DeliverySummary {
            delivered: u64::from_json(json.field("delivered")?)?,
            dropped: u64::from_json(json.field("dropped")?)?,
            timed_out: u64::from_json(json.field("timed_out")?)?,
            retries: u64::from_json(json.field("retries")?)?,
            abandoned: u64::from_json(json.field("abandoned")?)?,
            rebuffer_rounds: u64::from_json(json.field("rebuffer_rounds")?)?,
            degraded_rounds: u64::from_json(json.field("degraded_rounds")?)?,
            shed_demands: u64::from_json(json.field("shed_demands")?)?,
            suppressed_stripes: u64::from_json(json.field("suppressed_stripes")?)?,
        })
    }
}

fn mix(salt: u64, round: u64, viewer: BoxId, stripe: StripeId, lane: u64) -> u64 {
    // splitmix64 over the packed key: deterministic, scheduler-invariant,
    // and independent across lanes (drop vs timeout draws).
    let key = salt
        ^ round.wrapping_mul(0xA076_1D64_78BD_642F)
        ^ ((viewer.0 as u64) << 32 | stripe.video.0 as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ (stripe.index as u64).wrapping_mul(0x8EBC_6AF0_9C88_C6E3)
        ^ lane.wrapping_mul(0x5895_58CB_3A8C_268B);
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delivery state machine the engine drives: per-connection outcome
/// hazards (base rates plus transient surges), per-stream retry/backoff
/// state, and the per-round counters behind [`DeliveryRoundStats`].
#[derive(Clone, Debug)]
pub struct DeliveryTracker {
    policy: DeliveryPolicy,
    salt: u64,
    drop_ppm: u32,
    timeout_ppm: u32,
    surge_ppm: u32,
    surge_until: u64,
    /// Streams in backoff or abandoned (a few dozen), probed once per
    /// request in `admit` and once per delivered connection. Nothing reads
    /// the map's iteration order: `push_signature` folds through
    /// [`SortedSignature`] and `forget_viewer` is a `retain`.
    streams: HashMap<(BoxId, StripeId), StreamState, BuildHasherDefault<FxHasher64>>,
    round: DeliveryRoundStats,
}

impl DeliveryTracker {
    /// A tracker with the given retry policy and no hazards (every
    /// connection delivers until [`DeliveryTracker::set_hazards`]).
    pub fn new(policy: DeliveryPolicy) -> Self {
        DeliveryTracker {
            policy,
            salt: 0,
            drop_ppm: 0,
            timeout_ppm: 0,
            surge_ppm: 0,
            surge_until: 0,
            streams: HashMap::default(),
            round: DeliveryRoundStats::default(),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> DeliveryPolicy {
        self.policy
    }

    /// Sets the outcome-hash salt and the base drop/timeout hazards
    /// (typically copied from the attached `FaultModel`).
    pub fn set_hazards(&mut self, salt: u64, drop_ppm: u32, timeout_ppm: u32) {
        self.salt = salt;
        self.drop_ppm = drop_ppm;
        self.timeout_ppm = timeout_ppm;
    }

    /// Opens (or extends) a delivery-hazard surge window: both hazards
    /// gain `add_ppm` until round `until`.
    pub fn apply_surge(&mut self, add_ppm: u32, until: u64) {
        self.surge_ppm = add_ppm;
        self.surge_until = until;
    }

    /// Resets the per-round counters and expires a finished surge window.
    pub fn begin_round(&mut self, now: u64) {
        self.round = DeliveryRoundStats::default();
        if self.surge_until != 0 && self.surge_until <= now {
            self.surge_until = 0;
            self.surge_ppm = 0;
        }
    }

    fn effective(&self, base: u32, now: u64) -> u32 {
        let surge = if self.surge_until > now {
            self.surge_ppm
        } else {
            0
        };
        (base + surge).min(1_000_000)
    }

    /// What to do with the stream's regular request this round: emit it,
    /// emit it as a retry re-entry, or suppress it (backing off or
    /// abandoned). Counts `retries`/`in_backoff` as a side effect.
    pub fn admit(&mut self, viewer: BoxId, stripe: StripeId, now: u64) -> Admission {
        match self.streams.get(&(viewer, stripe)) {
            None => Admission::Emit,
            Some(StreamState::Abandoned) => Admission::Suppress,
            Some(StreamState::Backoff { next_at, .. }) => {
                if *next_at > now {
                    self.round.in_backoff += 1;
                    Admission::Suppress
                } else {
                    self.round.retries += 1;
                    Admission::Retry
                }
            }
        }
    }

    /// Resolves one scheduled connection into its outcome and advances
    /// the stream's retry state: a delivery clears any backoff entry, a
    /// failure enters (or deepens) backoff — doubling the wait up to the
    /// policy cap — and abandons the stream once the attempt budget or
    /// the deadline is exhausted.
    pub fn resolve(&mut self, viewer: BoxId, stripe: StripeId, now: u64) -> DeliveryOutcome {
        self.round.scheduled += 1;
        let drop_ppm = self.effective(self.drop_ppm, now) as u64;
        let timeout_ppm = self.effective(self.timeout_ppm, now) as u64;
        let outcome =
            if drop_ppm > 0 && mix(self.salt, now, viewer, stripe, 1) % 1_000_000 < drop_ppm {
                DeliveryOutcome::Dropped
            } else if timeout_ppm > 0
                && mix(self.salt, now, viewer, stripe, 2) % 1_000_000 < timeout_ppm
            {
                DeliveryOutcome::Timeout
            } else {
                DeliveryOutcome::Delivered
            };
        let key = (viewer, stripe);
        match outcome {
            DeliveryOutcome::Delivered => {
                self.round.delivered += 1;
                self.streams.remove(&key);
            }
            DeliveryOutcome::Dropped | DeliveryOutcome::Timeout => {
                if outcome == DeliveryOutcome::Dropped {
                    self.round.dropped += 1;
                } else {
                    self.round.timed_out += 1;
                }
                let (attempts, first_failed) = match self.streams.get(&key) {
                    Some(StreamState::Backoff {
                        attempts,
                        first_failed,
                        ..
                    }) => (*attempts + 1, *first_failed),
                    // `resolve` is only called for scheduled requests and
                    // abandoned streams are never emitted, so any other
                    // state means this is the stream's first failure.
                    _ => (1, now),
                };
                let wait = (1u64 << (attempts - 1).min(62)).min(self.policy.backoff_cap);
                let next_at = now + wait;
                let state = if attempts > self.policy.max_attempts
                    || next_at > first_failed + self.policy.deadline
                {
                    self.round.abandoned += 1;
                    StreamState::Abandoned
                } else {
                    StreamState::Backoff {
                        attempts,
                        first_failed,
                        next_at,
                    }
                };
                self.streams.insert(key, state);
            }
        }
        outcome
    }

    /// Counts one viewer rebuffering this round (deduplicated by the
    /// engine's per-round viewer marks).
    pub fn note_rebuffer(&mut self) {
        self.round.rebuffering += 1;
    }

    /// Drops every stream of `viewer` (its playback ended or the box
    /// departed).
    pub fn forget_viewer(&mut self, viewer: BoxId) {
        self.streams.retain(|(v, _), _| *v != viewer);
    }

    /// The round's counters (call after delivery resolution).
    pub fn round_stats(&self) -> DeliveryRoundStats {
        self.round
    }

    /// Number of streams currently tracked (backing off or abandoned).
    pub fn tracked_streams(&self) -> usize {
        self.streams.len()
    }

    /// Folds the tracker's behavioural state into an engine state
    /// signature (order-insensitive, so the hash-map iteration order is
    /// irrelevant).
    pub fn push_signature(&self, sig: &mut SortedSignature) {
        for (&(viewer, stripe), state) in &self.streams {
            match state {
                StreamState::Backoff {
                    attempts,
                    first_failed,
                    next_at,
                } => sig.push(&(12u8, viewer, stripe, *attempts, *first_failed, *next_at)),
                StreamState::Abandoned => sig.push(&(12u8, viewer, stripe, u32::MAX, 0u64, 0u64)),
            }
        }
        if self.surge_until != 0 {
            sig.push(&(13u8, self.surge_ppm, self.surge_until));
        }
    }
}

/// Per-round degradation observability, threaded into
/// [`RoundMetrics::degradation`](crate::metrics::RoundMetrics::degradation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationRoundStats {
    /// Whether the round ran in degraded mode.
    pub degraded: bool,
    /// New admissions shed this round (degraded mode only).
    pub shed_demands: usize,
    /// Stripe requests suppressed by partial service this round.
    pub suppressed_stripes: usize,
    /// The controller's windowed unserved ratio after this round, in ppm.
    pub window_unserved_ppm: u32,
}

impl JsonCodec for DegradationRoundStats {
    fn to_json(&self) -> Json {
        obj(vec![
            ("degraded", self.degraded.to_json()),
            ("shed_demands", self.shed_demands.to_json()),
            ("suppressed_stripes", self.suppressed_stripes.to_json()),
            ("window_unserved_ppm", self.window_unserved_ppm.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DegradationRoundStats {
            degraded: bool::from_json(json.field("degraded")?)?,
            shed_demands: usize::from_json(json.field("shed_demands")?)?,
            suppressed_stripes: usize::from_json(json.field("suppressed_stripes")?)?,
            window_unserved_ppm: u32::from_json(json.field("window_unserved_ppm")?)?,
        })
    }
}

/// Graceful-degradation thresholds and hysteresis, in integer rounds and
/// parts per million.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradationConfig {
    /// Enter degraded mode when the windowed unserved ratio exceeds this.
    pub enter_ppm: u32,
    /// Leave degraded mode when the ratio falls below this (must be
    /// strictly below `enter_ppm` — the hysteresis band).
    pub exit_ppm: u32,
    /// Observation window in rounds.
    pub window: usize,
    /// Minimum dwell after any mode switch, in rounds: the controller
    /// cannot switch again before it elapses (no round-to-round flapping).
    pub cooldown: u64,
    /// Partial service while degraded: only the first `min_stripes`
    /// stripes of each playback are requested (0 disables partial
    /// service — degraded mode then only sheds admissions).
    pub min_stripes: u16,
}

impl Default for DegradationConfig {
    fn default() -> Self {
        DegradationConfig {
            enter_ppm: 150_000,
            exit_ppm: 20_000,
            window: 8,
            cooldown: 4,
            min_stripes: 0,
        }
    }
}

impl JsonCodec for DegradationConfig {
    fn to_json(&self) -> Json {
        obj(vec![
            ("enter_ppm", self.enter_ppm.to_json()),
            ("exit_ppm", self.exit_ppm.to_json()),
            ("window", self.window.to_json()),
            ("cooldown", self.cooldown.to_json()),
            ("min_stripes", self.min_stripes.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(DegradationConfig {
            enter_ppm: u32::from_json(json.field("enter_ppm")?)?,
            exit_ppm: u32::from_json(json.field("exit_ppm")?)?,
            window: usize::from_json(json.field("window")?)?,
            cooldown: u64::from_json(json.field("cooldown")?)?,
            min_stripes: u16::from_json(json.field("min_stripes")?)?,
        })
    }
}

/// The graceful-degradation controller: a fixed ring of recent
/// `(attempted, unserved)` observations, a two-threshold hysteresis band,
/// and a minimum dwell after every mode switch.
#[derive(Clone, Debug)]
pub struct DegradationController {
    config: DegradationConfig,
    /// Ring buffer of the last `window` rounds' (attempted, unserved).
    ring: Vec<(u64, u64)>,
    pos: usize,
    filled: usize,
    degraded: bool,
    /// No mode switch before this round (hysteresis dwell).
    locked_until: u64,
    /// Mode in force for the round being simulated (captured at
    /// `begin_round`, before the end-of-round observation can switch it).
    round_degraded: bool,
    round_shed: usize,
    round_suppressed: usize,
    last_ratio_ppm: u32,
    switches: u64,
}

impl DegradationController {
    /// A controller in normal mode with an empty observation window.
    pub fn new(config: DegradationConfig) -> Self {
        assert!(config.exit_ppm < config.enter_ppm, "hysteresis band empty");
        assert!(config.window >= 1, "window must be at least one round");
        assert!(config.cooldown >= 1, "cooldown must be at least one round");
        DegradationController {
            ring: vec![(0, 0); config.window],
            config,
            pos: 0,
            filled: 0,
            degraded: false,
            locked_until: 0,
            round_degraded: false,
            round_shed: 0,
            round_suppressed: 0,
            last_ratio_ppm: 0,
            switches: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> DegradationConfig {
        self.config
    }

    /// Whether the system is currently degraded.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Mode switches so far (enter + exit transitions).
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Captures the mode in force for this round and resets the per-round
    /// shed/suppression counters.
    pub fn begin_round(&mut self, _now: u64) {
        self.round_degraded = self.degraded;
        self.round_shed = 0;
        self.round_suppressed = 0;
    }

    /// The partial-service stripe limit in force this round, when any.
    pub fn active_stripe_limit(&self) -> Option<u16> {
        (self.round_degraded && self.config.min_stripes > 0).then_some(self.config.min_stripes)
    }

    /// Whether new admissions are shed this round (the mode captured at
    /// [`DegradationController::begin_round`], like the stripe limit).
    pub fn shedding(&self) -> bool {
        self.round_degraded
    }

    /// Counts one admission shed this round.
    pub fn note_shed(&mut self) {
        self.round_shed += 1;
    }

    /// Counts stripe requests suppressed by partial service this round.
    pub fn note_suppressed(&mut self, count: usize) {
        self.round_suppressed += count;
    }

    /// Folds this round's `(attempted, unserved)` into the window, applies
    /// the hysteresis state machine, and returns the round's stats. The
    /// mode switch (if any) takes effect from the *next* round.
    pub fn note_round(&mut self, now: u64, attempted: u64, unserved: u64) -> DegradationRoundStats {
        self.ring[self.pos] = (attempted, unserved);
        self.pos = (self.pos + 1) % self.ring.len();
        self.filled = (self.filled + 1).min(self.ring.len());
        let (mut total, mut bad) = (0u64, 0u64);
        for &(t, u) in self.ring.iter().take(self.filled.max(1)) {
            total += t;
            bad += u;
        }
        let ratio_ppm = (bad * 1_000_000).checked_div(total).unwrap_or(0) as u32;
        self.last_ratio_ppm = ratio_ppm;
        if now >= self.locked_until {
            if !self.degraded && ratio_ppm > self.config.enter_ppm {
                self.degraded = true;
                self.locked_until = now + self.config.cooldown;
                self.switches += 1;
            } else if self.degraded && ratio_ppm < self.config.exit_ppm {
                self.degraded = false;
                self.locked_until = now + self.config.cooldown;
                self.switches += 1;
            }
        }
        DegradationRoundStats {
            degraded: self.round_degraded,
            shed_demands: self.round_shed,
            suppressed_stripes: self.round_suppressed,
            window_unserved_ppm: ratio_ppm,
        }
    }

    /// Folds the controller's behavioural state into an engine state
    /// signature.
    pub fn push_signature(&self, sig: &mut SortedSignature) {
        sig.push(&(
            14u8,
            self.degraded,
            self.locked_until,
            self.pos as u32,
            self.filled as u32,
        ));
        for (slot, &(t, u)) in self.ring.iter().enumerate().take(self.filled) {
            sig.push(&(15u8, slot as u32, t, u));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::VideoId;

    fn stripe(v: u32, i: u16) -> StripeId {
        StripeId::new(VideoId(v), i)
    }

    #[test]
    fn outcomes_are_deterministic_and_salt_sensitive() {
        let mut a = DeliveryTracker::new(DeliveryPolicy::default());
        a.set_hazards(7, 200_000, 100_000);
        let mut b = a.clone();
        for round in 0..50 {
            a.begin_round(round);
            b.begin_round(round);
            for v in 0..8u32 {
                assert_eq!(
                    a.resolve(BoxId(v), stripe(0, 1), round),
                    b.resolve(BoxId(v), stripe(0, 1), round),
                );
            }
        }
        let mut c = DeliveryTracker::new(DeliveryPolicy::default());
        c.set_hazards(8, 200_000, 100_000);
        let mut differs = false;
        let mut a = DeliveryTracker::new(DeliveryPolicy::default());
        a.set_hazards(7, 200_000, 100_000);
        for round in 0..50 {
            a.begin_round(round);
            c.begin_round(round);
            for v in 0..8u32 {
                if a.resolve(BoxId(v), stripe(0, 1), round)
                    != c.resolve(BoxId(v), stripe(0, 1), round)
                {
                    differs = true;
                }
            }
        }
        assert!(differs, "different salts must give different outcomes");
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut t = DeliveryTracker::new(DeliveryPolicy {
            max_attempts: 10,
            backoff_cap: 4,
            deadline: 1_000,
        });
        t.set_hazards(1, 1_000_000, 0); // every connection drops
        let (v, s) = (BoxId(0), stripe(0, 0));
        let mut now = 0;
        let mut expected_wait = 1u64;
        for _ in 0..5 {
            t.begin_round(now);
            assert_ne!(t.admit(v, s, now), Admission::Suppress);
            assert_eq!(t.resolve(v, s, now), DeliveryOutcome::Dropped);
            // Suppressed for exactly `expected_wait` rounds.
            for wait in 1..expected_wait {
                t.begin_round(now + wait);
                assert_eq!(t.admit(v, s, now + wait), Admission::Suppress);
            }
            now += expected_wait;
            expected_wait = (expected_wait * 2).min(4);
        }
        // Once the wait elapses the stream re-enters as a retry, not backoff.
        t.begin_round(now);
        assert_eq!(t.admit(v, s, now), Admission::Retry);
        assert_eq!(t.round_stats().in_backoff, 0);
    }

    #[test]
    fn no_retry_abandons_on_first_failure() {
        let mut t = DeliveryTracker::new(DeliveryPolicy::no_retry());
        t.set_hazards(1, 1_000_000, 0);
        let (v, s) = (BoxId(3), stripe(1, 2));
        t.begin_round(0);
        assert_eq!(t.resolve(v, s, 0), DeliveryOutcome::Dropped);
        assert_eq!(t.round_stats().abandoned, 1);
        t.begin_round(1);
        assert_eq!(t.admit(v, s, 1), Admission::Suppress);
        assert_eq!(t.round_stats().in_backoff, 0, "abandoned ≠ backing off");
        t.forget_viewer(v);
        assert_eq!(t.tracked_streams(), 0);
        assert_eq!(t.admit(v, s, 2), Admission::Emit);
    }

    #[test]
    fn deadline_abandons_even_with_attempts_left() {
        let mut t = DeliveryTracker::new(DeliveryPolicy {
            max_attempts: 100,
            backoff_cap: 8,
            deadline: 3,
        });
        t.set_hazards(1, 1_000_000, 0);
        let (v, s) = (BoxId(0), stripe(0, 0));
        t.begin_round(0);
        t.resolve(v, s, 0); // fail 1: next_at 1, deadline 3
        t.begin_round(1);
        assert_eq!(t.admit(v, s, 1), Admission::Retry);
        t.resolve(v, s, 1); // fail 2: next_at 3 <= 3, still backing off
        t.begin_round(3);
        assert_eq!(t.admit(v, s, 3), Admission::Retry);
        t.resolve(v, s, 3); // fail 3: next_at 7 > 0 + 3 → abandoned
        assert_eq!(t.round_stats().abandoned, 1);
        assert_eq!(t.admit(v, s, 4), Admission::Suppress);
    }

    #[test]
    fn delivery_clears_backoff_state() {
        let mut t = DeliveryTracker::new(DeliveryPolicy::default());
        t.set_hazards(1, 1_000_000, 0);
        let (v, s) = (BoxId(0), stripe(0, 0));
        t.begin_round(0);
        t.resolve(v, s, 0);
        assert_eq!(t.tracked_streams(), 1);
        t.set_hazards(1, 0, 0); // network heals
        t.begin_round(1);
        assert_eq!(t.admit(v, s, 1), Admission::Retry);
        assert_eq!(t.resolve(v, s, 1), DeliveryOutcome::Delivered);
        assert_eq!(t.tracked_streams(), 0);
    }

    #[test]
    fn surge_raises_rates_then_expires() {
        let mut t = DeliveryTracker::new(DeliveryPolicy::default());
        t.set_hazards(1, 0, 0);
        t.apply_surge(1_000_000, 3);
        t.begin_round(1);
        assert_eq!(
            t.resolve(BoxId(0), stripe(0, 0), 1),
            DeliveryOutcome::Dropped
        );
        t.begin_round(3); // surge over
        t.forget_viewer(BoxId(0));
        assert_eq!(
            t.resolve(BoxId(0), stripe(0, 0), 3),
            DeliveryOutcome::Delivered
        );
    }

    #[test]
    fn controller_enters_and_exits_with_dwell() {
        let mut c = DegradationController::new(DegradationConfig {
            enter_ppm: 300_000,
            exit_ppm: 100_000,
            window: 2,
            cooldown: 2,
            min_stripes: 2,
        });
        assert!(!c.degraded());
        c.begin_round(0);
        let stats = c.note_round(0, 10, 8); // 80% unserved → enter
        assert!(!stats.degraded, "switch takes effect next round");
        assert!(c.degraded());
        assert_eq!(c.active_stripe_limit(), None, "limit follows round mode");
        c.begin_round(1);
        assert_eq!(c.active_stripe_limit(), Some(2));
        // Fully calm immediately, but the dwell holds the mode until
        // round 2 at the earliest.
        c.note_round(1, 10, 0);
        assert!(c.degraded(), "dwell prevents instant exit");
        c.begin_round(2);
        c.note_round(2, 10, 0);
        assert!(!c.degraded(), "calm window past the dwell exits");
        assert_eq!(c.switches(), 2);
    }

    #[test]
    fn controller_never_switches_twice_within_cooldown() {
        let mut c = DegradationController::new(DegradationConfig {
            enter_ppm: 300_000,
            exit_ppm: 100_000,
            window: 1,
            cooldown: 3,
            min_stripes: 0,
        });
        let mut last_switch_round: Option<u64> = None;
        let mut switches = 0;
        for now in 0..60u64 {
            c.begin_round(now);
            // Adversarial oscillation: alternate fully-bad and fully-good
            // rounds (window 1 makes the raw signal flap every round).
            let bad = if now % 2 == 0 { 10 } else { 0 };
            c.note_round(now, 10, bad);
            if c.switches() != switches {
                if let Some(prev) = last_switch_round {
                    assert!(now - prev >= 3, "switched at {prev} and again at {now}");
                }
                last_switch_round = Some(now);
                switches = c.switches();
            }
        }
        assert!(switches >= 2, "the oscillation must exercise switching");
    }

    #[test]
    fn stats_round_trip_through_json() {
        let d = DeliveryRoundStats {
            scheduled: 9,
            delivered: 5,
            dropped: 2,
            timed_out: 2,
            retries: 3,
            in_backoff: 4,
            abandoned: 1,
            rebuffering: 2,
        };
        let parsed =
            DeliveryRoundStats::from_json(&Json::parse(&d.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(parsed, d);
        let g = DegradationRoundStats {
            degraded: true,
            shed_demands: 2,
            suppressed_stripes: 6,
            window_unserved_ppm: 250_000,
        };
        let parsed =
            DegradationRoundStats::from_json(&Json::parse(&g.to_json().to_string()).unwrap())
                .unwrap();
        assert_eq!(parsed, g);
        let cfg = DegradationConfig::default();
        let parsed =
            DegradationConfig::from_json(&Json::parse(&cfg.to_json().to_string()).unwrap())
                .unwrap();
        assert_eq!(parsed, cfg);
    }
}
