//! Simulation metrics.
//!
//! The simulator records, per round and aggregated over the run, the
//! quantities the experiments report: served/unserved requests, upload
//! utilization, sourcing vs swarming split, start-up delays, and the
//! obstructions witnessing infeasible rounds.

use crate::candidates::CandidateStats;
use crate::delivery::{DegradationRoundStats, DeliveryRoundStats, DeliverySummary};
use crate::repair::RepairRoundStats;
use crate::scheduler::{RelayRoundStats, RelayUtilization};
use vod_core::json::{obj, Json, JsonCodec, JsonError};
use vod_core::{BoxId, VideoId};
use vod_obs::{RunProfile, StageTimings};

/// Per-round measurements.
#[derive(Clone, Debug, Default)]
pub struct RoundMetrics {
    /// The round these metrics describe.
    pub round: u64,
    /// New video demands accepted this round.
    pub new_demands: usize,
    /// Active stripe requests needing a connection this round.
    pub active_requests: usize,
    /// Requests satisfied from the requester's own static storage
    /// (no connection needed).
    pub self_served: usize,
    /// Requests served over the network this round.
    pub served: usize,
    /// Requests left unserved (stalls) this round.
    pub unserved: usize,
    /// Served requests whose supplier holds the stripe in its static
    /// allocation (the paper's *sourcing*).
    pub served_from_allocation: usize,
    /// Served requests whose supplier only has the stripe in its playback
    /// cache (the paper's *swarming*).
    pub served_from_cache: usize,
    /// Total upload slots available this round (Σ ⌊u_b·c⌋ net of relaying).
    pub upload_slots_available: u64,
    /// Number of boxes currently playing a video.
    pub viewers: usize,
    /// Largest swarm size this round.
    pub max_swarm: usize,
    /// Relay-subsystem observability (forwarding demand vs reserved
    /// capacity, saturation), when the system is heterogeneous with a
    /// compensation plan; `None` otherwise.
    pub relay: Option<RelayRoundStats>,
    /// Candidate-pipeline observability (index size, expiry/insert volume,
    /// build wall-clock; equality ignores the timing). `None` only in
    /// reports serialized before the pipeline existed.
    pub candidates: Option<CandidateStats>,
    /// Stripe-repair observability (queue depth, transfers, budget slots
    /// spent), when a repair planner is attached; `None` otherwise. Repair
    /// plans are scheduler-invariant, so equality compares this field
    /// across engine variants un-normalized.
    pub repair: Option<RepairRoundStats>,
    /// Delivery-reliability observability (outcome split, retries,
    /// backoff/abandonment, rebuffering viewers), when a delivery tracker
    /// is attached; `None` otherwise. Delivery outcomes are
    /// scheduler-invariant, so equality compares this un-normalized.
    pub delivery: Option<DeliveryRoundStats>,
    /// Graceful-degradation observability (mode, shed admissions,
    /// partial-service suppressions, windowed unserved ratio), when a
    /// degradation controller is attached; `None` otherwise.
    pub degradation: Option<DegradationRoundStats>,
    /// Per-stage wall-clock breakdown of the round, when a tracer was
    /// attached; `None` otherwise (including every report serialized
    /// before tracing existed). Pure timing: excluded from equality, so a
    /// traced round compares equal to an untraced one.
    pub timing: Option<StageTimings>,
}

impl PartialEq for RoundMetrics {
    fn eq(&self, other: &Self) -> bool {
        // `timing` is deliberately excluded: it is wall-clock only (see
        // [`vod_obs::TimingNeutral`]), and a `Some`-vs-`None` mismatch
        // between a traced and an untraced run must not fail the
        // bit-equality gates.
        self.round == other.round
            && self.new_demands == other.new_demands
            && self.active_requests == other.active_requests
            && self.self_served == other.self_served
            && self.served == other.served
            && self.unserved == other.unserved
            && self.served_from_allocation == other.served_from_allocation
            && self.served_from_cache == other.served_from_cache
            && self.upload_slots_available == other.upload_slots_available
            && self.viewers == other.viewers
            && self.max_swarm == other.max_swarm
            && self.relay == other.relay
            && self.candidates == other.candidates
            && self.repair == other.repair
            && self.delivery == other.delivery
            && self.degradation == other.degradation
    }
}

impl RoundMetrics {
    /// The round with everything that is the scheduler's *choice* blanked,
    /// for comparing runs whose schedulers differ (the matcher vs the naive
    /// reference, warm vs cold-started): the allocation/cache sourcing
    /// split — Lemma 1 fixes how many requests a round serves, not which
    /// supplier serves each, so two maximum flows may split `served`
    /// differently and only the sum, which stays compared, is
    /// schedule-invariant. Wall-clock timing is scrubbed
    /// through the [`vod_obs::TimingNeutral`] rule ([`CandidateStats`]
    /// equality already ignores build time, and equality here ignores
    /// `timing` — scrubbing keeps normalized records canonical for hashing
    /// and serialization too). Everything else must match bit for bit.
    pub fn normalized(&self) -> RoundMetrics {
        let mut m = self.clone();
        m.served_from_allocation = 0;
        m.served_from_cache = 0;
        if let Some(cand) = &mut m.candidates {
            vod_obs::TimingNeutral::scrub(cand);
        }
        m.timing = None;
        m
    }
}

impl JsonCodec for RoundMetrics {
    fn to_json(&self) -> Json {
        obj(vec![
            ("round", self.round.to_json()),
            ("new_demands", self.new_demands.to_json()),
            ("active_requests", self.active_requests.to_json()),
            ("self_served", self.self_served.to_json()),
            ("served", self.served.to_json()),
            ("unserved", self.unserved.to_json()),
            (
                "served_from_allocation",
                self.served_from_allocation.to_json(),
            ),
            ("served_from_cache", self.served_from_cache.to_json()),
            (
                "upload_slots_available",
                self.upload_slots_available.to_json(),
            ),
            ("viewers", self.viewers.to_json()),
            ("max_swarm", self.max_swarm.to_json()),
            ("relay", self.relay.to_json()),
            ("candidates", self.candidates.to_json()),
            ("repair", self.repair.to_json()),
            ("delivery", self.delivery.to_json()),
            ("degradation", self.degradation.to_json()),
            ("timing", self.timing.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RoundMetrics {
            round: u64::from_json(json.field("round")?)?,
            new_demands: usize::from_json(json.field("new_demands")?)?,
            active_requests: usize::from_json(json.field("active_requests")?)?,
            self_served: usize::from_json(json.field("self_served")?)?,
            served: usize::from_json(json.field("served")?)?,
            unserved: usize::from_json(json.field("unserved")?)?,
            served_from_allocation: usize::from_json(json.field("served_from_allocation")?)?,
            served_from_cache: usize::from_json(json.field("served_from_cache")?)?,
            upload_slots_available: u64::from_json(json.field("upload_slots_available")?)?,
            viewers: usize::from_json(json.field("viewers")?)?,
            max_swarm: usize::from_json(json.field("max_swarm")?)?,
            // Absent in reports serialized before the relay subsystem.
            relay: match json.field("relay") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
            // Absent in reports serialized before the candidate pipeline.
            candidates: match json.field("candidates") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
            // Absent in reports serialized before the repair planner.
            repair: match json.field("repair") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
            // Absent in reports serialized before delivery tracking.
            delivery: match json.field("delivery") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
            // Absent in reports serialized before the degradation
            // controller existed.
            degradation: match json.field("degradation") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
            // Absent in reports serialized before the tracer existed.
            timing: match json.field("timing") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
        })
    }
}

impl RoundMetrics {
    /// Fraction of available upload slots in use (0 when none available).
    pub fn utilization(&self) -> f64 {
        if self.upload_slots_available == 0 {
            0.0
        } else {
            self.served as f64 / self.upload_slots_available as f64
        }
    }

    /// Fraction of active requests that stalled this round.
    pub fn stall_rate(&self) -> f64 {
        if self.active_requests == 0 {
            0.0
        } else {
            self.unserved as f64 / self.active_requests as f64
        }
    }
}

/// A round in which the connection matching could not serve every request.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureRecord {
    /// The failing round.
    pub round: u64,
    /// Number of unserved requests.
    pub unserved: usize,
    /// Size of the obstruction (Hall-violating request set) extracted from
    /// the minimum cut, if obstruction collection was enabled.
    pub obstruction_size: Option<usize>,
    /// Upload capacity (stripe connections) of the obstruction's
    /// neighbourhood.
    pub obstruction_capacity: Option<u64>,
    /// Relays whose forwarding demand exceeded their reservation this
    /// round, ascending box id, when obstructions are collected
    /// (heterogeneous systems only; empty otherwise).
    pub starved_relays: Vec<BoxId>,
    /// Videos implicated in the unserved requests.
    pub videos: Vec<VideoId>,
    /// Upload slots removed from the round's capacity table by injected
    /// fault windows (0 when no faults were active — the round was
    /// infeasible on the allocation's own merits).
    pub fault_slots_lost: u64,
}

impl FailureRecord {
    /// Names the failure's cause: `"allocation"` when the round was
    /// infeasible at full capacity, `"fault-degraded"` when injected
    /// faults had removed upload slots the matching could have used.
    pub fn cause(&self) -> &'static str {
        if self.fault_slots_lost > 0 {
            "fault-degraded"
        } else {
            "allocation"
        }
    }
}

impl JsonCodec for FailureRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("round", self.round.to_json()),
            ("unserved", self.unserved.to_json()),
            ("obstruction_size", self.obstruction_size.to_json()),
            ("obstruction_capacity", self.obstruction_capacity.to_json()),
            ("starved_relays", self.starved_relays.to_json()),
            ("videos", self.videos.to_json()),
            ("fault_slots_lost", self.fault_slots_lost.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(FailureRecord {
            round: u64::from_json(json.field("round")?)?,
            unserved: usize::from_json(json.field("unserved")?)?,
            obstruction_size: Option::from_json(json.field("obstruction_size")?)?,
            obstruction_capacity: Option::from_json(json.field("obstruction_capacity")?)?,
            // Absent in reports serialized before the relay subsystem.
            starved_relays: match json.field("starved_relays") {
                Ok(value) => Vec::from_json(value)?,
                Err(_) => Vec::new(),
            },
            videos: Vec::from_json(json.field("videos")?)?,
            // Absent in reports serialized before fault injection.
            fault_slots_lost: match json.field("fault_slots_lost") {
                Ok(value) => u64::from_json(value)?,
                Err(_) => 0,
            },
        })
    }
}

/// One completed playback, for start-up delay and completion statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlaybackRecord {
    /// The viewer.
    pub box_id: BoxId,
    /// The video played.
    pub video: VideoId,
    /// Swarm entry round.
    pub entered_at: u64,
    /// Start-up delay in rounds.
    pub startup_delay: u64,
    /// Rounds during which at least one of its stripe requests stalled.
    pub stalled_rounds: u64,
}

impl JsonCodec for PlaybackRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            ("box_id", self.box_id.to_json()),
            ("video", self.video.to_json()),
            ("entered_at", self.entered_at.to_json()),
            ("startup_delay", self.startup_delay.to_json()),
            ("stalled_rounds", self.stalled_rounds.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(PlaybackRecord {
            box_id: BoxId::from_json(json.field("box_id")?)?,
            video: VideoId::from_json(json.field("video")?)?,
            entered_at: u64::from_json(json.field("entered_at")?)?,
            startup_delay: u64::from_json(json.field("startup_delay")?)?,
            stalled_rounds: u64::from_json(json.field("stalled_rounds")?)?,
        })
    }
}

/// Aggregated result of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimulationReport {
    /// Per-round metrics, in round order.
    pub rounds: Vec<RoundMetrics>,
    /// Failing rounds.
    pub failures: Vec<FailureRecord>,
    /// Completed (or still running at the end) playbacks.
    pub playbacks: Vec<PlaybackRecord>,
    /// Total demands accepted.
    pub total_demands: usize,
    /// Total demands rejected because the box was busy.
    pub rejected_demands: usize,
    /// True when the run was aborted on the first infeasible round.
    pub aborted: bool,
    /// Cumulative per-relay utilization of the reserved forwarding
    /// capacity (heterogeneous systems only; empty otherwise).
    pub relays: Vec<RelayUtilization>,
    /// Whole-run delivery/degradation summary, when a delivery tracker
    /// was attached; `None` otherwise (including every report serialized
    /// before delivery tracking existed).
    pub delivery: Option<DeliverySummary>,
    /// Whole-run per-stage profile (span counts, totals, log-bucketed
    /// latency histograms), when a tracer was attached; `None` otherwise.
    /// Pure timing: excluded from equality like `RoundMetrics::timing`.
    pub profile: Option<RunProfile>,
}

impl PartialEq for SimulationReport {
    fn eq(&self, other: &Self) -> bool {
        // `profile` is wall-clock only and deliberately excluded (see
        // [`RoundMetrics`]'s equality): traced and untraced runs of the
        // same schedule must compare equal.
        self.rounds == other.rounds
            && self.failures == other.failures
            && self.playbacks == other.playbacks
            && self.total_demands == other.total_demands
            && self.rejected_demands == other.rejected_demands
            && self.aborted == other.aborted
            && self.relays == other.relays
            && self.delivery == other.delivery
    }
}

impl JsonCodec for SimulationReport {
    fn to_json(&self) -> Json {
        obj(vec![
            ("rounds", self.rounds.to_json()),
            ("failures", self.failures.to_json()),
            ("playbacks", self.playbacks.to_json()),
            ("total_demands", self.total_demands.to_json()),
            ("rejected_demands", self.rejected_demands.to_json()),
            ("aborted", self.aborted.to_json()),
            ("relays", self.relays.to_json()),
            ("delivery", self.delivery.to_json()),
            ("profile", self.profile.to_json()),
        ])
    }
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(SimulationReport {
            rounds: Vec::from_json(json.field("rounds")?)?,
            failures: Vec::from_json(json.field("failures")?)?,
            playbacks: Vec::from_json(json.field("playbacks")?)?,
            total_demands: usize::from_json(json.field("total_demands")?)?,
            rejected_demands: usize::from_json(json.field("rejected_demands")?)?,
            aborted: bool::from_json(json.field("aborted")?)?,
            // Absent in reports serialized before the relay subsystem.
            relays: match json.field("relays") {
                Ok(value) => Vec::from_json(value)?,
                Err(_) => Vec::new(),
            },
            // Absent in reports serialized before delivery tracking.
            delivery: match json.field("delivery") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
            // Absent in reports serialized before the tracer existed.
            profile: match json.field("profile") {
                Ok(value) => Option::from_json(value)?,
                Err(_) => None,
            },
        })
    }
}

impl SimulationReport {
    /// Number of simulated rounds.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// True when every round was fully served.
    pub fn all_rounds_feasible(&self) -> bool {
        self.failures.is_empty()
    }

    /// Total stripe-request-rounds served over the run.
    pub fn total_served(&self) -> u64 {
        self.rounds.iter().map(|r| r.served as u64).sum()
    }

    /// Total stripe-request-rounds that stalled over the run.
    pub fn total_unserved(&self) -> u64 {
        self.rounds.iter().map(|r| r.unserved as u64).sum()
    }

    /// Fraction of request-rounds served (1.0 when nothing stalled).
    pub fn service_ratio(&self) -> f64 {
        let served = self.total_served();
        let total = served + self.total_unserved();
        if total == 0 {
            1.0
        } else {
            served as f64 / total as f64
        }
    }

    /// Mean upload utilization over rounds with any available capacity.
    pub fn mean_utilization(&self) -> f64 {
        let used: Vec<f64> = self
            .rounds
            .iter()
            .filter(|r| r.upload_slots_available > 0)
            .map(RoundMetrics::utilization)
            .collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64
        }
    }

    /// Peak upload utilization over the run.
    pub fn peak_utilization(&self) -> f64 {
        self.rounds
            .iter()
            .map(RoundMetrics::utilization)
            .fold(0.0, f64::max)
    }

    /// Share of network-served requests that came from playback caches
    /// (swarming) rather than the static allocation (sourcing).
    pub fn swarming_share(&self) -> f64 {
        let cache: u64 = self.rounds.iter().map(|r| r.served_from_cache as u64).sum();
        let alloc: u64 = self
            .rounds
            .iter()
            .map(|r| r.served_from_allocation as u64)
            .sum();
        if cache + alloc == 0 {
            0.0
        } else {
            cache as f64 / (cache + alloc) as f64
        }
    }

    /// Mean start-up delay over all playbacks (0 when none).
    pub fn mean_startup_delay(&self) -> f64 {
        if self.playbacks.is_empty() {
            0.0
        } else {
            self.playbacks
                .iter()
                .map(|p| p.startup_delay as f64)
                .sum::<f64>()
                / self.playbacks.len() as f64
        }
    }

    /// Maximum start-up delay over all playbacks.
    pub fn max_startup_delay(&self) -> u64 {
        self.playbacks
            .iter()
            .map(|p| p.startup_delay)
            .max()
            .unwrap_or(0)
    }

    /// Total forwarding units served from reserved relay capacity over the
    /// run (0 for homogeneous runs — no relays).
    pub fn total_forwarded(&self) -> u64 {
        self.rounds
            .iter()
            .filter_map(|r| r.relay.as_ref())
            .map(|r| r.forwarded as u64)
            .sum()
    }

    /// Total forwarding demand the static reservations could not cover
    /// over the run.
    pub fn total_forward_starved(&self) -> u64 {
        self.rounds
            .iter()
            .filter_map(|r| r.relay.as_ref())
            .map(|r| r.starved as u64)
            .sum()
    }

    /// Total connections lost to delivery faults (drops + timeouts) over
    /// the run (0 when no delivery tracker was attached).
    pub fn total_delivery_failures(&self) -> u64 {
        self.delivery.map(|d| d.dropped + d.timed_out).unwrap_or(0)
    }

    /// Rounds spent in degraded mode over the run (0 when no degradation
    /// controller was attached).
    pub fn degraded_rounds(&self) -> u64 {
        self.delivery.map(|d| d.degraded_rounds).unwrap_or(0)
    }

    /// Failing rounds attributable to injected faults (capacity removed
    /// by active fault windows when the matching came up short).
    pub fn fault_attributed_failures(&self) -> usize {
        self.failures
            .iter()
            .filter(|f| f.cause() == "fault-degraded")
            .count()
    }

    /// Fraction of playbacks that never stalled.
    pub fn smooth_playback_ratio(&self) -> f64 {
        if self.playbacks.is_empty() {
            return 1.0;
        }
        self.playbacks
            .iter()
            .filter(|p| p.stalled_rounds == 0)
            .count() as f64
            / self.playbacks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(served: usize, unserved: usize, slots: u64) -> RoundMetrics {
        RoundMetrics {
            served,
            unserved,
            upload_slots_available: slots,
            active_requests: served + unserved,
            ..RoundMetrics::default()
        }
    }

    #[test]
    fn utilization_and_stall_rate() {
        let r = round(6, 2, 12);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert!((r.stall_rate() - 0.25).abs() < 1e-12);
        let empty = RoundMetrics::default();
        assert_eq!(empty.utilization(), 0.0);
        assert_eq!(empty.stall_rate(), 0.0);
    }

    #[test]
    fn report_aggregates() {
        let report = SimulationReport {
            rounds: vec![round(4, 0, 8), round(8, 2, 8)],
            failures: vec![FailureRecord {
                round: 1,
                unserved: 2,
                obstruction_size: Some(3),
                obstruction_capacity: Some(1),
                starved_relays: Vec::new(),
                videos: vec![VideoId(0)],
                fault_slots_lost: 0,
            }],
            playbacks: vec![
                PlaybackRecord {
                    box_id: BoxId(0),
                    video: VideoId(0),
                    entered_at: 0,
                    startup_delay: 3,
                    stalled_rounds: 0,
                },
                PlaybackRecord {
                    box_id: BoxId(1),
                    video: VideoId(0),
                    entered_at: 1,
                    startup_delay: 5,
                    stalled_rounds: 2,
                },
            ],
            total_demands: 2,
            rejected_demands: 1,
            aborted: false,
            relays: Vec::new(),
            delivery: None,
            profile: None,
        };
        assert_eq!(report.round_count(), 2);
        assert!(!report.all_rounds_feasible());
        assert_eq!(report.total_served(), 12);
        assert_eq!(report.total_unserved(), 2);
        assert!((report.service_ratio() - 12.0 / 14.0).abs() < 1e-12);
        assert!((report.mean_utilization() - 0.75).abs() < 1e-12);
        assert_eq!(report.peak_utilization(), 1.0);
        assert_eq!(report.mean_startup_delay(), 4.0);
        assert_eq!(report.max_startup_delay(), 5);
        assert_eq!(report.smooth_playback_ratio(), 0.5);
    }

    #[test]
    fn swarming_share_counts_cache_served() {
        let mut r0 = round(10, 0, 20);
        r0.served_from_allocation = 6;
        r0.served_from_cache = 4;
        let report = SimulationReport {
            rounds: vec![r0],
            ..SimulationReport::default()
        };
        assert!((report.swarming_share() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_report_defaults() {
        let report = SimulationReport::default();
        assert_eq!(report.service_ratio(), 1.0);
        assert_eq!(report.mean_utilization(), 0.0);
        assert_eq!(report.smooth_playback_ratio(), 1.0);
        assert!(report.all_rounds_feasible());
    }
}
