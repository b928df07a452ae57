//! One rep of a simulator workload (everything but `threshold-search`):
//! rebuilt from the seed, warmed up, then stepped closed-loop — one
//! `Simulator::step` is issued after the previous one returns — on one
//! thread, with each step's host latency recorded.

use crate::layers::TracedRun;
use crate::stats::Checksum;
use crate::timed::{SharedLog, TimedGenerator, TimedScheduler, SPAN_STEP};
use crate::workloads::{build_generator, build_sim, build_system, Workload};
use std::time::Instant;
use vod_sim::{SimulationReport, TraceHandle};

/// The simulated (host-independent) outcome of the measured rounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimTotals {
    pub rounds: u64,
    pub attempted: u64,
    pub served: u64,
    pub unserved: u64,
    /// Scheduled connections that dropped or timed out.
    pub delivery_failed: u64,
    pub checksum: Checksum,
    pub max_startup_delay: u64,
}

impl SimTotals {
    /// Stripe-request-rounds unserved, dropped or timed out ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        (self.unserved + self.delivery_failed) as f64 / self.attempted.max(1) as f64
    }

    /// Adds another instance's totals (the checksum chains in order).
    pub fn merge(&mut self, other: &SimTotals) {
        self.rounds += other.rounds;
        self.attempted += other.attempted;
        self.served += other.served;
        self.unserved += other.unserved;
        self.delivery_failed += other.delivery_failed;
        self.checksum.push(other.checksum.value());
        self.max_startup_delay = self.max_startup_delay.max(other.max_startup_delay);
    }

    /// Folds `report.rounds[skip..]` in. Returns false when a round breaks
    /// `active = served + unserved + dropped + timed out`.
    pub fn absorb(&mut self, report: &SimulationReport, skip: usize) -> bool {
        let mut consistent = true;
        for r in &report.rounds[skip.min(report.rounds.len())..] {
            let lost = r.delivery.map_or(0, |d| d.dropped + d.timed_out);
            consistent &= r.active_requests == r.served + r.unserved + lost;
            self.rounds += 1;
            self.attempted += r.active_requests as u64;
            self.served += r.served as u64;
            self.unserved += r.unserved as u64;
            self.delivery_failed += lost as u64;
            self.checksum
                .push_round(r.active_requests, r.served, r.unserved);
        }
        self.max_startup_delay = self.max_startup_delay.max(report.max_startup_delay());
        consistent
    }
}

/// What one rep measured.
pub struct Rep {
    /// Seed to first round: system build, `Simulator::new` + attachments,
    /// generator.
    pub system_build_s: f64,
    pub sim_new_s: f64,
    pub generator_new_s: f64,
    /// Host latency of every `Simulator::step`, warm-up rounds first.
    pub step_ms: Vec<f64>,
    /// How many leading entries of `step_ms` are warm-up rounds.
    pub warmup: usize,
    /// Wall time of the measured rounds.
    pub measured_s: f64,
    /// Wall time of the whole rep: set-up, warm-up and measured rounds.
    pub wall_s: f64,
    pub report: SimulationReport,
    pub totals: SimTotals,
    pub rounds_consistent: bool,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.system_build_s + self.sim_new_s + self.generator_new_s
    }
}

/// Runs one untraced rep on the production default path (`Simulator::new`).
pub fn run_plain(w: Workload, seed: u64, measured_rounds: u64) -> Rep {
    run(w, seed, measured_rounds, None).0
}

/// Runs one traced rep: same workload, with the three pass-through wrappers,
/// the span log and the public `TraceHandle::recording` recorder switched on
/// after warm-up.
pub fn run_traced(w: Workload, seed: u64, measured_rounds: u64) -> (Rep, TracedRun) {
    let log = SharedLog::new();
    let (rep, solver_timed) = run(w, seed, measured_rounds, Some(&log));
    let mut traced = TracedRun::new(log, solver_timed);
    traced.sims = 1;
    traced.system_build_s = rep.system_build_s;
    traced.sim_new_s = rep.sim_new_s;
    traced.generator_new_s = rep.generator_new_s;
    traced.absorb_report(&rep.report, w.warmup_rounds() as usize);
    (rep, traced)
}

fn run(w: Workload, seed: u64, measured_rounds: u64, log: Option<&SharedLog>) -> (Rep, bool) {
    let warmup = w.warmup_rounds();
    let rep_start = Instant::now();
    let sys = build_system(w, seed);
    let system_build_s = rep_start.elapsed().as_secs_f64();

    let clock = Instant::now();
    let mut solver_timed = false;
    let scheduler = log.map(|log| {
        let (s, timed) = TimedScheduler::new(log.clone());
        solver_timed = timed;
        Box::new(s) as Box<dyn vod_sim::Scheduler>
    });
    let mut sim = build_sim(w, &sys, seed, warmup + measured_rounds, scheduler);
    let sim_new_s = clock.elapsed().as_secs_f64();

    let clock = Instant::now();
    let mut generator = build_generator(w, &sys, seed);
    let generator_new_s = clock.elapsed().as_secs_f64();
    if let Some(log) = log {
        generator = Box::new(TimedGenerator::new(generator, log.clone()));
    }

    let mut step_ms = Vec::with_capacity((warmup + measured_rounds) as usize);
    for _ in 0..warmup {
        let clock = Instant::now();
        sim.step(generator.as_mut());
        step_ms.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    if let Some(log) = log {
        log.lock().recording = true;
        // Ring capacity 1: only the recorder's per-stage totals are read.
        sim.attach_tracer(TraceHandle::recording(1));
    }

    let measured = Instant::now();
    for round in 0..measured_rounds {
        match log {
            None => {
                let clock = Instant::now();
                std::hint::black_box(sim.step(generator.as_mut()));
                step_ms.push(clock.elapsed().as_secs_f64() * 1e3);
            }
            Some(log) => {
                log.lock().round = warmup + round;
                let id = log.open(SPAN_STEP);
                std::hint::black_box(sim.step(generator.as_mut()));
                step_ms.push(log.close(id) as f64 / 1e6);
            }
        }
    }
    let measured_s = measured.elapsed().as_secs_f64();
    let wall_s = rep_start.elapsed().as_secs_f64();

    let report = sim.into_report();
    let mut totals = SimTotals::default();
    let rounds_consistent = totals.absorb(&report, warmup as usize);
    let rep = Rep {
        system_build_s,
        sim_new_s,
        generator_new_s,
        step_ms,
        warmup: warmup as usize,
        measured_s,
        wall_s,
        report,
        totals,
        rounds_consistent,
    };
    (rep, solver_timed)
}
