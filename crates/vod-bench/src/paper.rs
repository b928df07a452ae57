//! The paper's eight checkable claims, one function each.
//!
//! Every function runs its experiment at a [`Scale`], renders the tables
//! the experiment prints, and checks the directions those tables show at
//! both scales. A check holds, fails, or is not shown at this scale (a
//! vacuous bound, or no run in the regime the direction speaks about). The
//! `exp_paper` binary runs all of [`CLAIMS`] and exits non-zero if a check
//! fails; this module's tests run each claim at [`Scale::Quick`], so
//! `cargo test` gates the paper. A check asserts a direction, never a
//! particular cell, and no grid is tuned to make one appear; its statement
//! is the line its verdict prints.

use crate::{base_spec, build_system, search_config, Scale};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use vod_analysis::{
    estimate_failure_probability, first_moment_bound, fmt_prob, max_feasible_catalog, quantile,
    theorem1, theorem2, BoundParams, LowerBoundCheck, Summary, Table, TrialSpec, WorkloadKind,
};
use vod_core::{
    compensate, Allocator, Bandwidth, BoxSet, Catalog, FullReplicationAllocator,
    RandomIndependentAllocator, RandomPermutationAllocator, StorageSlots, SystemParams, VideoId,
    VideoSystem,
};
use vod_sim::{
    MaxFlowScheduler, NaiveScheduler, Scheduler, SimConfig, SimulationReport, Simulator,
};
use vod_workloads::{
    DemandGenerator, FlashCrowd, MultiSwarmChurn, NeverOwnedAttack, PoorBoxesSameVideo, ZipfDemand,
};

/// What one run shows of one direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The tables show the direction.
    Holds,
    /// The grid does not reach the direction at this scale.
    NotShown,
    /// The tables contradict the direction.
    Fails,
}

impl Verdict {
    /// `NotShown` unless the run reaches the direction; then whether it
    /// holds.
    fn of(shown: bool, holds: bool) -> Self {
        match (shown, holds) {
            (false, _) => Verdict::NotShown,
            (true, true) => Verdict::Holds,
            (true, false) => Verdict::Fails,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Holds => "holds",
            Verdict::NotShown => "not shown at this scale",
            Verdict::Fails => "FAILS",
        })
    }
}

/// One direction of a claim and what the run shows of it.
#[derive(Debug)]
pub(crate) struct Check {
    /// The direction, in the tables' terms.
    statement: String,
    /// What the run shows of it.
    verdict: Verdict,
}

/// One claim's run: its rendered tables and its checks.
#[derive(Debug)]
pub struct ClaimRun {
    /// The claim's number and short name.
    name: &'static str,
    /// The experiment headers, markdown tables and footnotes, as printed.
    pub tables: String,
    /// The directions checked against the tables.
    checks: Vec<Check>,
}

impl ClaimRun {
    fn new(name: &'static str) -> Self {
        ClaimRun {
            name,
            tables: String::new(),
            checks: Vec::new(),
        }
    }

    fn header(&mut self, experiment: &str, claim: &str, scale: Scale) {
        self.line(crate::header(experiment, claim, scale));
    }

    fn line(&mut self, text: impl AsRef<str>) {
        self.tables.push_str(text.as_ref());
        self.tables.push('\n');
    }

    fn table(&mut self, table: &Table) {
        self.line(table.to_markdown());
    }

    fn check(&mut self, statement: &str, verdict: Verdict) {
        let statement = statement.to_string();
        self.checks.push(Check { statement, verdict });
    }

    /// Records a direction the claim asserts: it holds or it fails.
    fn assert(&mut self, statement: &str, holds: bool) {
        self.check(statement, Verdict::of(true, holds));
    }

    /// The claim's verdict: `Fails` if any check fails, `NotShown` if no
    /// check is shown, `Holds` otherwise.
    pub fn verdict(&self) -> Verdict {
        let has = |v| self.checks.iter().any(|c| c.verdict == v);
        if has(Verdict::Fails) {
            Verdict::Fails
        } else if has(Verdict::Holds) {
            Verdict::Holds
        } else {
            Verdict::NotShown
        }
    }

    /// The claim's verdict line followed by one line per check.
    pub fn verdicts(&self) -> String {
        let mut out = format!("- claim {}: {}\n", self.name, self.verdict());
        for check in &self.checks {
            out += &format!("  - {}: {}\n", check.verdict, check.statement);
        }
        out
    }
}

/// A table whose columns are given the way its markdown header prints
/// them, separated by `" | "`.
fn table(title: impl Into<String>, columns: &str) -> Table {
    Table::new(title, &columns.split(" | ").collect::<Vec<_>>())
}

/// A row given the way it prints, cells separated by `" | "`.
fn cells(row: String) -> Vec<String> {
    row.split(" | ").map(str::to_string).collect()
}

/// True when every step of `values` satisfies `step(earlier, later)`.
fn stepwise<T>(values: &[T], step: impl Fn(&T, &T) -> bool) -> bool {
    values.windows(2).all(|w| step(&w[0], &w[1]))
}

/// The eight claims in PAPER.md's order.
pub const CLAIMS: [fn(Scale) -> ClaimRun; 8] = [
    threshold,
    linear_catalog,
    tradeoff,
    replication,
    theorem2_compensation,
    startup_delay,
    swarm_growth,
    allocation,
];

/// Claim 1 — the threshold at `u = 1`, with a constant catalog below it.
///
/// Sweeps `u` across 1 and estimates, over random permutation allocations,
/// the failure rate of three demand families; then, below `u = 1`, sweeps
/// the catalog across the `d·c` possession cap of Section 1.3 against the
/// never-owned attack.
pub fn threshold(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("1 (threshold at u = 1)");
    run.header(
        "E1 threshold — scalability threshold at u = 1",
        "u < 1 ⇒ catalog O(1); u > 1 ⇒ catalog Ω(n) serves any admissible demand (Sec. 1.3 + Thm 1)",
        scale,
    );
    let spec = base_spec(scale);
    let config = search_config(scale);
    let trials = config.trials_per_point;

    let mut rates = table(
        "Failure probability of a random allocation vs upload capacity",
        "u | catalog m | never-owned fail rate | flash-crowd fail rate | sequential fail rate | mean service ratio (seq)",
    );
    let (mut attack_wins_below, mut served_where_provisioned) = (true, true);
    for &u in &[0.6, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0] {
        let point = TrialSpec { u, ..spec };
        let [never, flash, seq] = [
            (WorkloadKind::NeverOwned, 0),
            (WorkloadKind::FlashCrowd, 1000),
            (WorkloadKind::Sequential, 2000),
        ]
        .map(|(kind, offset)| {
            let seed = config.base_seed + offset;
            estimate_failure_probability(&point, kind, trials, seed, config.threads)
        });
        if u < 1.0 {
            attack_wins_below &= never.failure_rate == 1.0;
        }
        if theorem1::min_stripes(u, spec.mu).is_some_and(|c_min| spec.c >= c_min) {
            served_where_provisioned &= [never, flash, seq].iter().all(|e| e.failure_rate == 0.0);
        }
        rates.push_row(cells(format!(
            "{u:.2} | {} | {:.2} | {:.2} | {:.2} | {:.3}",
            point.catalog_size(),
            never.failure_rate,
            flash.failure_rate,
            seq.failure_rate,
            seq.mean_service_ratio
        )));
    }
    run.table(&rates);
    run.line(format!(
        "(n = {}, d = {}, c = {}, k = {}, µ = {}, {} trials per point)",
        spec.n, spec.d, spec.c, spec.k, spec.mu, trials
    ));
    run.assert(
        "never-owned fails every trial at every u < 1",
        attack_wins_below,
    );
    run.assert(
        "every workload fails no trial wherever c > (2µ²−1)/(u−1)",
        served_where_provisioned,
    );

    run.header(
        "E10 lower bound — constant catalog below the threshold",
        "u < 1 and m > d·c ⇒ the never-owned adversary defeats every allocation (Sec. 1.3)",
        scale,
    );
    let cap = spec.d as usize * spec.c as usize; // d·c possession cap
    let mut catalogs = table(
        "Never-owned adversary vs catalog size",
        "u | catalog m | m ≤ d·c ? | allocation | adversary has leverage | all rounds feasible",
    );
    let (mut below_cap_served, mut above_cap_defeated) = (true, true);
    for &u in &[0.6, 0.8, 0.95] {
        for &m in &[cap / 2, cap, cap + spec.c as usize, 2 * cap, 4 * cap] {
            // Below the cap use full replication (the only strategy that can
            // work); above it fall back to the random allocation (nothing can
            // work, per the impossibility argument).
            let params = SystemParams::new(spec.n, u, spec.d, spec.c, 1, spec.mu, spec.duration);
            let mut rng = StdRng::seed_from_u64(31);
            let allocator: Box<dyn Allocator> = if m <= cap {
                Box::new(FullReplicationAllocator::new())
            } else {
                Box::new(RandomPermutationAllocator::new(1))
            };
            let Ok(system) =
                VideoSystem::homogeneous_with_catalog(params, m, allocator.as_ref(), &mut rng)
            else {
                continue;
            };
            let mut attack = NeverOwnedAttack::new(system.placement(), system.catalog(), spec.mu);
            let leverage = !attack.is_toothless();
            let report = Simulator::new(&system, SimConfig::new(spec.rounds)).run(&mut attack);
            let feasible = report.all_rounds_feasible();
            let possible = LowerBoundCheck::evaluate(spec.n, u, spec.d as f64, spec.c, m)
                .full_possession_possible;
            if possible {
                below_cap_served &= !leverage && feasible;
            } else {
                above_cap_defeated &= leverage && !feasible;
            }
            let name = allocator.name();
            catalogs.push_row(cells(format!(
                "{u:.2} | {m} | {possible} | {name} | {leverage} | {feasible}"
            )));
        }
    }
    run.table(&catalogs);
    run.line(format!(
        "(n = {}, d = {}, c = {}, cap d·c = {}; k = 1 above the cap)",
        spec.n, spec.d, spec.c, cap
    ));
    run.assert(
        "below u = 1, m ≤ d·c under full replication gives no leverage and is served",
        below_cap_served,
    );
    run.assert(
        "below u = 1, m > d·c gives leverage and an infeasible round",
        above_cap_defeated,
    );
    run
}

/// Claim 2 — the catalog grows linearly in `n` above the threshold.
///
/// Searches the largest catalog that sequential full-occupancy viewing
/// never stalls on as `n` grows, at two `u > 1`: Theorem 1's `Ω(n)` is
/// the storage-limited `d·n/k`.
pub fn linear_catalog(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("2 (catalog linear in n)");
    run.header(
        "E2 catalog scaling — catalog grows linearly in n for u > 1",
        "random allocation achieves m = d·n/k = Ω(n) (Theorem 1)",
        scale,
    );
    let spec = base_spec(scale);
    let config = search_config(scale);
    let sizes = scale.pick(&[16, 32, 48, 64][..], &[32, 64, 128, 192, 256]);

    let mut at_storage_limit = true;
    for &u in &[1.5, 2.0] {
        let mut scaling = table(
            format!("Largest feasible catalog vs n (u = {u})"),
            "n | storage-limited m = dn/k | measured max feasible m | Thm 1 analytic bound | m / n",
        );
        for &n in sizes {
            let point = TrialSpec { n, u, ..spec };
            let limit = point.catalog_size();
            let measured = max_feasible_catalog(&point, WorkloadKind::Sequential, limit, &config);
            at_storage_limit &= measured == limit;
            let bound = theorem1::catalog_bound(n, u, spec.d as f64, spec.mu);
            let per_box = measured as f64 / n as f64;
            scaling.push_row(cells(format!(
                "{n} | {limit} | {measured} | {bound:.1} | {per_box:.2}"
            )));
        }
        run.table(&scaling);
    }
    run.line(format!(
        "(d = {}, c = {}, k = {}, µ = {}, workload = sequential full occupancy)",
        spec.d, spec.c, spec.k, spec.mu
    ));
    run.assert(
        "the measured maximum catalog is d·n/k at every n",
        at_storage_limit,
    );
    run
}

/// Claim 3 — the catalog collapses like `(u−1)³` as `u → 1⁺`.
///
/// For a fixed uplink, a higher bitrate pushes `u` towards 1 and Theorem
/// 1's catalog bound falls like `(u−1)²·log((u+1)/2)`. Tabulates the bound,
/// its cubic asymptote and the catalog the simulator sustains.
pub fn tradeoff(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("3 (catalog collapse as u → 1⁺)");
    run.header(
        "E5 trade-off — catalog collapse as u → 1 (video quality trade-off)",
        "catalog bound ∝ (u−1)² log((u+1)/2) ~ (u−1)³ near the threshold (Conclusion)",
        scale,
    );
    let spec = base_spec(scale);
    let config = search_config(scale);
    let n_ref = 10_000usize; // reference fleet for the analytic columns

    let mut collapse = table(
        "Catalog vs normalized upload capacity",
        "u | Thm 1 bound (n = 10000) | (u-1)^3 × scale | measured max m (simulated n) | measured m / storage limit",
    );
    // Normalize the cubic shape so it matches the bound at u = 2.
    let bound_at_2 = theorem1::catalog_bound(n_ref, 2.0, spec.d as f64, spec.mu);
    let cubic_scale = bound_at_2 / theorem1::tradeoff_asymptotic(2.0);

    let (mut bounds, mut measured_column) = (Vec::new(), Vec::new());
    for &u in &[1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0, 2.5] {
        let bound = theorem1::catalog_bound(n_ref, u, spec.d as f64, spec.mu);
        let cubic = theorem1::tradeoff_asymptotic(u) * cubic_scale;
        let point = TrialSpec { u, ..spec };
        let limit = point.catalog_size();
        let measured = max_feasible_catalog(&point, WorkloadKind::Sequential, limit, &config);
        let share = measured as f64 / limit as f64;
        collapse.push_row(cells(format!(
            "{u:.2} | {bound:.0} | {cubic:.0} | {measured} | {share:.2}"
        )));
        bounds.push(bound);
        measured_column.push(measured);
    }
    run.table(&collapse);
    run.line(format!(
        "(simulated fleet n = {}, d = {}, c = {}, k = {}, µ = {}; analytic columns use n = {n_ref})",
        spec.n, spec.d, spec.c, spec.k, spec.mu
    ));
    run.assert(
        "the analytic bound increases in u",
        stepwise(&bounds, |a, b| a < b),
    );
    run.assert(
        "the measured maximum catalog does not decrease in u",
        stepwise(&measured_column, |a, b| a <= b),
    );
    run
}

/// Claim 4 — replication against the first-moment obstruction bound.
///
/// Sweeps the replication `k` and sets Lemma 4's first-moment bound on the
/// probability that a random allocation admits an obstruction (Equation 1)
/// beside the Monte-Carlo failure rate of two workloads. At `n ≤ 96` the
/// bound reads 1 (vacuous) at every `k`, so the comparison is not shown.
pub fn replication(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("4 (replication vs the first-moment bound)");
    run.header(
        "E3 replication — replicas per stripe vs obstruction probability",
        "k ≥ 5ν⁻¹ log d′/log u′ makes P(obstruction) vanish (Thm 1, Lemma 4, Eq. 1)",
        scale,
    );
    let spec = TrialSpec {
        u: 1.5,
        c: 8,
        ..base_spec(scale)
    };
    let config = search_config(scale);

    let prescribed = match theorem1::min_replication(spec.u, spec.d as f64, spec.c, spec.mu) {
        Some(k) => format!("k ≥ {k}"),
        None => {
            "no finite k (outside the theorem's hypotheses: u ≤ 1, ν ≤ 0 or u′ ≤ 1)".to_string()
        }
    };
    run.line(format!(
        "Theorem 1 prescription for (u = {}, d = {}, c = {}, µ = {}): {prescribed}\n",
        spec.u, spec.d, spec.c, spec.mu
    ));

    let mut sweep = table(
        "Replication sweep",
        "k | catalog m = dn/k | analytic first-moment bound | MC fail rate (flash crowd) | MC fail rate (sequential)",
    );
    let mut rows = Vec::new(); // (bound, flash rate, sequential rate) per k
    for &k in &[1u32, 2, 3, 4, 6, 8, 12, 16] {
        let point = TrialSpec { k, ..spec };
        let m = point.catalog_size();
        let (n, c, u, mu) = (point.n, point.c, point.u, point.mu);
        let bound = first_moment_bound(&BoundParams { n, m, c, k, u, mu });
        let [flash, seq] = [
            (WorkloadKind::FlashCrowd, 0),
            (WorkloadKind::Sequential, 500),
        ]
        .map(|(kind, offset)| {
            let (trials, seed) = (config.trials_per_point, config.base_seed + offset);
            estimate_failure_probability(&point, kind, trials, seed, config.threads).failure_rate
        });
        let shown_bound = fmt_prob(bound);
        sweep.push_row(cells(format!(
            "{k} | {m} | {shown_bound} | {flash:.2} | {seq:.2}"
        )));
        rows.push((bound, flash, seq));
    }
    run.table(&sweep);
    run.line(format!(
        "(n = {}, u = {}, d = {}, c = {}, µ = {}; bound of 1 means vacuous)",
        spec.n, spec.u, spec.d, spec.c, spec.mu
    ));
    run.assert(
        "the Monte-Carlo fail rate of both workloads does not increase in k",
        stepwise(&rows, |a, b| b.1 <= a.1 && b.2 <= a.2),
    );
    let informative: Vec<_> = rows.iter().filter(|row| row.0 < 1.0).collect();
    let within = informative.iter().all(|r| r.1 <= r.0 && r.2 <= r.0);
    let within_bound = Verdict::of(!informative.is_empty(), within);
    run.check(
        "the Monte-Carlo fail rate stays ≤ the first-moment bound where that is below 1",
        within_bound,
    );
    run
}

const U_STAR: f64 = 1.2;
const STRIPES: u16 = 8;

/// Builds a two-class fleet (`poor u = 0.6`, rich boxes at `rich_upload`,
/// storage 6× upload, `k = 3`, `µ = 1.2`), relayed at `u* = 1.2` when
/// `relay` is set; `None` when it is not compensable.
fn build_fleet(
    poor_count: usize,
    rich_count: usize,
    rich_upload: f64,
    relay: bool,
    duration: u32,
    seed: u64,
) -> Option<VideoSystem> {
    let c = STRIPES;
    let mut uploads = vec![0.6f64; poor_count];
    uploads.extend(vec![rich_upload; rich_count]);
    let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, c);
    let n = boxes.len();
    let d_avg = boxes.average_storage_videos(c);
    let avg_u = boxes.average_upload();
    let k = 3u32;
    let catalog_size = ((d_avg * n as f64) / k as f64).floor() as usize;
    let catalog = Catalog::uniform(catalog_size, duration, c);
    let params = SystemParams::new(n, avg_u, d_avg.round().max(1.0) as u32, c, k, 1.2, duration);
    let mut rng = StdRng::seed_from_u64(seed);
    VideoSystem::heterogeneous(
        params,
        boxes,
        catalog,
        &RandomPermutationAllocator::new(k),
        relay.then(|| Bandwidth::from_streams(U_STAR)),
        &mut rng,
    )
    .ok()
}

/// Runs the pile-on attack on a two-class fleet: whether every round was
/// feasible and the service ratio, or `None` when the fleet is not built
/// (not compensable).
fn run_fleet(poor: usize, rich: usize, relay: bool, scale: Scale) -> Option<(bool, f64)> {
    let system = build_fleet(poor, rich, 2.6, relay, scale.pick(32, 48), 2009)?;
    let u_star = Bandwidth::from_streams(U_STAR);
    let (poor, rich) = (
        system.boxes().poor_ids(u_star),
        system.boxes().rich_ids(u_star),
    );
    let (placement, catalog) = (system.placement(), system.catalog());
    let mut attack = PoorBoxesSameVideo::new(poor, rich, VideoId(0), placement, catalog, 1.2);
    let rounds = scale.pick(60u64, 120);
    let report = Simulator::new(&system, SimConfig::new(rounds)).run(&mut attack);
    Some((report.all_rounds_feasible(), report.service_ratio()))
}

/// A `run_fleet` cell: "feasible / service", or "not built".
fn fleet_cell(outcome: Option<(bool, f64)>) -> String {
    match outcome {
        Some((feasible, service)) => format!("{feasible} / {service:.3}"),
        None => "not built".to_string(),
    }
}

/// The relay series: a fleet of `total` boxes, two thirds poor, under
/// poor-box-prioritized multi-swarm churn (relay edges crossing swarms),
/// replayed through the max-flow scheduler and the textbook
/// `NaiveScheduler`, which shares no code with it; closes with the relay
/// utilization profile.
fn relay_series(run: &mut ClaimRun, scale: Scale, total: usize) {
    // Richer relays (u = 4.2, headroom 3.0) host several poor boxes each,
    // so one relay's forwarding demand spans several swarms at once.
    let poor_count = total * 2 / 3;
    let duration = scale.pick(24, 40);
    let system = build_fleet(poor_count, total - poor_count, 4.2, true, duration, 2009)
        .expect("two-thirds-poor fleet is u*-compensable with u = 4.2 relays");
    let poor = system.boxes().poor_ids(Bandwidth::from_streams(U_STAR));
    let rounds = scale.pick(40u64, 160);
    run.line(format!(
        "\n## Relay series — {} boxes ({} poor), {} videos, {} rounds of poor-first multi-swarm churn\n",
        system.n(),
        poor.len(),
        system.m(),
        rounds
    ));

    let replay = |scheduler: Box<dyn Scheduler>| -> SimulationReport {
        let mut gen = MultiSwarmChurn::new(system.m(), 6, 8, 1.2, 5)
            .with_rotation(6)
            .with_priority_boxes(poor.clone());
        let config = SimConfig::new(rounds).continue_on_failure();
        Simulator::with_scheduler(&system, config, scheduler).run(&mut gen)
    };
    let report = replay(Box::new(MaxFlowScheduler::new()));
    let naive = replay(Box::new(NaiveScheduler::new()));

    let mut totals = table(
        "Heterogeneous fleet under relayed churn (identical schedules enforced)",
        "scheduler | served | forwarded | fwd starved",
    );
    for (label, r) in [("max-flow", &report), ("naive (reference)", &naive)] {
        totals.push_row(cells(format!(
            "{label} | {} | {} | {}",
            r.total_served(),
            r.total_forwarded(),
            r.total_forward_starved()
        )));
    }
    run.table(&totals);

    let mut profile = table(
        "Relay utilization (reserved forwarding capacity vs observed load)",
        "relay | reserved slots | assigned poor | peak load | forwards | saturated rounds | oversubscribed rounds",
    );
    for u in report.relays.iter().take(12) {
        profile.push_row(cells(format!(
            "{} | {} | {} | {} | {} | {} | {}",
            u.relay,
            u.reserved_slots,
            u.assigned_poor,
            u.peak_load,
            u.forwards,
            u.saturated_rounds,
            u.oversubscribed_rounds
        )));
    }
    run.table(&profile);
    if report.relays.len() > 12 {
        run.line(format!("({} more relays elided)", report.relays.len() - 12));
    }
    let same_per_round = report.round_count() == naive.round_count()
        && report
            .rounds
            .iter()
            .zip(&naive.rounds)
            .all(|(a, b)| a.served == b.served && a.unserved == b.unserved);
    run.assert(
        "the relay series' max-flow and naive schedules serve the same counts in every round",
        same_per_round,
    );
}

/// Claim 5 — Theorem 2's upload compensation on heterogeneous fleets.
///
/// Sweeps the share of poor (deficient-upload) boxes in a two-class fleet:
/// the necessary condition `u > 1 + Δ(1)/n`, whether the fleet is
/// `u*`-compensable, and the pile-on attack against the relayed fleet and
/// the same fleet unrelayed; then runs the relay series.
pub fn theorem2_compensation(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("5 (Theorem 2's compensation)");
    run.header(
        "E6 heterogeneous — u*-balanced heterogeneous fleets (Theorem 2)",
        "u*-balanced systems scale via relaying; u > 1 + Δ(1)/n is necessary (Sec. 4)",
        scale,
    );
    let total = scale.pick(32usize, 64);

    let mut fleets = table(
        "Two-class fleet (poor u = 0.6, rich u = 2.6) under the pile-on attack",
        "poor fraction | avg u | 1 + Δ(1)/n | compensable at u*=1.2 | relayed: feasible / service | no relay: feasible / service",
    );
    let (mut compensated_feasible, mut short_infeasible) = (true, true);
    for &poor_fraction in &[0.25, 0.5, 0.625, 0.75, 0.875] {
        let poor = (total as f64 * poor_fraction).round() as usize;
        let rich = total - poor;
        let mut uploads = vec![0.6f64; poor];
        uploads.extend(vec![2.6f64; rich]);
        let boxes = VideoSystem::proportional_boxes(&uploads, 6.0, STRIPES);
        let (avg_u, necessary) = theorem2::necessary_condition(&boxes);
        let compensable = compensate(&boxes, Bandwidth::from_streams(U_STAR)).is_ok();
        let relayed = run_fleet(poor, rich, true, scale);
        let plain = run_fleet(poor, rich, false, scale);
        if compensable {
            compensated_feasible &= matches!(relayed, Some((true, _)));
        }
        if avg_u <= necessary {
            short_infeasible &= [relayed, plain].iter().flatten().all(|&(ok, _)| !ok);
        }
        let (relayed, plain) = (fleet_cell(relayed), fleet_cell(plain));
        fleets.push_row(cells(format!(
            "{poor_fraction:.3} | {avg_u:.2} | {necessary:.2} | {compensable} | {relayed} | {plain}"
        )));
    }
    run.table(&fleets);
    run.line(format!(
        "(n = {total}, storage/upload ratio 6, u* = {U_STAR}, k = 3, µ = 1.2)"
    ));
    run.assert(
        "every u*-compensable relayed fleet serves every round of the attack",
        compensated_feasible,
    );
    run.assert(
        "every built fleet with avg u ≤ 1 + Δ(1)/n has an infeasible round",
        short_infeasible,
    );
    relay_series(&mut run, scale, total);
    run
}

/// Claim 6 — start-up delay 3 under preloading.
///
/// The homogeneous preloading strategy starts a playback 3 rounds after
/// its demand; relaying doubles the request time scale (4 rounds for rich
/// boxes, 5 for relayed poor boxes). Measures the delay distribution under
/// Zipf arrivals and a flash crowd, and on a half-poor relayed fleet.
pub fn startup_delay(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("6 (start-up delay 3)");
    run.header(
        "E8 start-up delay — start-up delay of the preloading strategies",
        "3-round start-up in the homogeneous case; bounded (doubled time scale) with relaying (Sec. 3 & 4)",
        scale,
    );
    let spec = base_spec(scale);
    let rounds = spec.rounds + 40;
    let arrivals = spec.n / 8;

    let mut delays = table(
        "Start-up delay distribution (rounds)",
        "system | workload | playbacks | mean | p50 | p99 | max",
    );
    let mut row = |system: &VideoSystem, label: &str, gen: &mut dyn DemandGenerator| {
        let report = Simulator::new(system, SimConfig::new(rounds)).run(gen);
        let d: Vec<f64> = report
            .playbacks
            .iter()
            .map(|p| p.startup_delay as f64)
            .collect();
        let (max, mean) = (report.max_startup_delay(), report.mean_startup_delay());
        let (p50, p99) = (quantile(&d, 0.5), quantile(&d, 0.99));
        let count = d.len();
        delays.push_row(cells(format!(
            "{label} | {count} | {mean:.2} | {p50:.0} | {p99:.0} | {max}"
        )));
        max
    };

    let system = build_system(&spec, 3);
    let (m, mu) = (system.m(), spec.mu);
    let mut zipf = ZipfDemand::new(m, 0.9, arrivals, mu, 4);
    let mut crowd = FlashCrowd::single(VideoId(0), spec.n, m, mu, 5);
    let homogeneous_max = [
        row(&system, "homogeneous | zipf", &mut zipf),
        row(&system, "homogeneous | flash crowd", &mut crowd),
    ];
    // Heterogeneous fleet with relaying: half poor, half rich.
    let (poor, rich) = (spec.n / 2, spec.n - spec.n / 2);
    let fleet = build_fleet(poor, rich, 2.6, true, spec.duration, 6).expect("balanced fleet");
    let mut zipf = ZipfDemand::new(fleet.m(), 0.9, arrivals, 1.2, 7);
    let relayed_max = row(&fleet, "heterogeneous (relayed) | zipf", &mut zipf);

    run.table(&delays);
    run.line(format!(
        "(n = {}, homogeneous u = {}, heterogeneous mix 0.6/2.6 streams, {} rounds)",
        spec.n, spec.u, rounds
    ));
    run.assert(
        "the homogeneous start-up delay's maximum is 3 under both workloads",
        homogeneous_max == [3, 3],
    );
    run.assert(
        "no relayed playback waits more than 5 rounds",
        relayed_max <= 5,
    );
    run
}

/// Claim 7 — swarm growth `µ` against `c > (2µ²−1)/(u−1)`.
///
/// Simulates a maximal-growth flash crowd for each `(µ, c)`. Theorem 1 and
/// Lemma 2's preloading argument guarantee it is served once `c` clears
/// the condition; stalls below it are a prediction, and none appears on
/// the grid at either scale.
pub fn swarm_growth(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("7 (swarm growth c > (2µ²−1)/(u−1))");
    run.header(
        "E4 swarm growth — stripe count needed to absorb swarm growth",
        "c > (2µ²−1)/(u−1) suffices for maximal-growth crowds (Thm 1, Lemma 2)",
        scale,
    );
    let spec = TrialSpec {
        u: 1.5,
        k: 4,
        ..base_spec(scale)
    };
    let config = search_config(scale);

    let mut growth = table(
        "Flash-crowd failure rate vs (µ, c)",
        "µ | c_min (Thm 1) | c | fail rate | mean service ratio",
    );
    let (mut served_above, mut stall_below) = (true, false);
    for &mu in &[1.1, 1.3, 1.5, 1.8] {
        let c_min = theorem1::min_stripes(spec.u, mu).expect("u > 1");
        for &c in &[2u16, 4, 8, 16] {
            let point = TrialSpec { mu, c, ..spec };
            let (trials, seed) = (config.trials_per_point, config.base_seed);
            let est = estimate_failure_probability(
                &point,
                WorkloadKind::FlashCrowd,
                trials,
                seed,
                config.threads,
            );
            if c >= c_min {
                served_above &= est.failure_rate == 0.0;
            } else {
                stall_below |= est.failure_rate > 0.0;
            }
            growth.push_row(cells(format!(
                "{mu:.1} | {c_min} | {c} | {:.2} | {:.3}",
                est.failure_rate, est.mean_service_ratio
            )));
        }
    }
    run.table(&growth);
    run.line(format!(
        "(n = {}, u = {}, d = {}, k = {}; crowd = whole fleet on one video at growth µ)",
        spec.n, spec.u, spec.d, spec.k
    ));
    run.assert(
        "the flash crowd fails no trial wherever c ≥ c_min",
        served_above,
    );
    let below = Verdict::of(stall_below, true);
    run.check("some flash crowd stalls below c_min", below);
    run
}

/// Claim 8 — permutation against independent allocation.
///
/// Both allocations give the same feasibility bound, but the independent
/// one overloads boxes unless `c = Ω(log n)` (remark after Theorem 1).
/// Measures the maximum box load of both as `n` grows.
pub fn allocation(scale: Scale) -> ClaimRun {
    let mut run = ClaimRun::new("8 (permutation vs independent allocation)");
    run.header(
        "E7 allocation — permutation vs independent allocation load balance",
        "independent allocation needs c = Ω(log n) to respect box capacities w.h.p. (Thm 1 remark)",
        scale,
    );
    let (d, k) = (8u32, 4u32);
    let trials = scale.pick(5, 20);
    let sizes = scale.pick(&[32, 64, 128][..], &[32, 64, 128, 256, 512]);

    let mut permutation_fits = true;
    // Per n, the independent mean max load over d·c, in order of c.
    let mut relative_load = vec![Vec::new(); sizes.len()];
    for &c in &[2u16, 4, 8, 16] {
        let mut loads = table(
            format!("Maximum box load relative to capacity (c = {c})"),
            "n | capacity d·c | permutation max load | independent mean max load | independent worst max load | overflow fraction",
        );
        for (i, &n) in sizes.iter().enumerate() {
            let slots = d * c as u32;
            let storage = StorageSlots::from_slots(slots);
            let boxes = BoxSet::homogeneous(n, Bandwidth::from_streams(1.5), storage);
            let catalog = Catalog::uniform((d as usize * n) / k as usize, 60, c);

            let mut perm_max = 0usize;
            let mut indep_max = Vec::new();
            for t in 0..trials as u64 {
                let mut rng = StdRng::seed_from_u64(1000 + t);
                let p = RandomPermutationAllocator::new(k).allocate(&boxes, &catalog, &mut rng);
                perm_max = perm_max.max(p.expect("d·n/k videos fit n boxes").max_load());
                let mut rng = StdRng::seed_from_u64(5000 + t);
                let q =
                    RandomIndependentAllocator::unbounded(k).allocate(&boxes, &catalog, &mut rng);
                indep_max.push(q.expect("unbounded placement").max_load() as f64);
            }
            let overflow = indep_max.iter().filter(|&&l| l > slots as f64).count();
            let s = Summary::of(&indep_max);
            permutation_fits &= perm_max <= slots as usize;
            relative_load[i].push(s.mean / slots as f64);
            let overflow = overflow as f64 / trials as f64;
            loads.push_row(cells(format!(
                "{n} | {slots} | {perm_max} | {:.1} | {:.0} | {overflow:.2}",
                s.mean, s.max
            )));
        }
        run.table(&loads);
    }
    run.line(format!(
        "(d = {d}, k = {k}, {trials} allocations per point; overflow = max load exceeds d·c)"
    ));
    run.assert(
        "the permutation max load never exceeds d·c",
        permutation_fits,
    );
    run.assert(
        "the independent mean max load over d·c falls as c grows, at every n",
        relative_load.iter().all(|l| stepwise(l, |a, b| b < a)),
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test per claim: it runs at quick scale and fails on any failed
    /// check.
    macro_rules! gate {
        ($($test:ident: $claim:ident),* $(,)?) => {$(
            #[test]
            fn $test() {
                let run = $claim(Scale::Quick);
                assert!(!run.checks.is_empty(), "claim {} checks nothing", run.name);
                let shown = format!("\n{}\n{}", run.tables, run.verdicts());
                assert_ne!(run.verdict(), Verdict::Fails, "{shown}");
            }
        )*};
    }

    gate! {
        claim_1_threshold_holds: threshold,
        claim_2_linear_catalog_holds: linear_catalog,
        claim_3_tradeoff_holds: tradeoff,
        claim_4_replication_holds: replication,
        claim_5_theorem2_compensation_holds: theorem2_compensation,
        claim_6_startup_delay_holds: startup_delay,
        claim_7_swarm_growth_holds: swarm_growth,
        claim_8_allocation_holds: allocation,
    }

    #[test]
    fn a_claim_fails_on_one_failed_check_and_is_not_shown_with_none_shown() {
        let mut run = ClaimRun::new("test");
        run.check("vacuous", Verdict::of(false, false));
        assert_eq!(run.verdict(), Verdict::NotShown);
        run.assert("shown", true);
        assert_eq!(run.verdict(), Verdict::Holds);
        run.assert("contradicted", false);
        assert_eq!(run.verdict(), Verdict::Fails);
        assert!(run.verdicts().contains("  - FAILS: contradicted\n"));
    }
}
