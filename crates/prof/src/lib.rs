//! `mfd-prof` — the wall-clock profiling overlay for the synchronous engine.
//!
//! `mfd-trace` records *what* a run computed, on a virtual clock, as part of
//! the deterministic record. This crate records *where the wall-clock time
//! went* — and is built so the two can never contaminate each other: a
//! [`Profile`] attaches to [`mfd_runtime::ShardedExecutor::run_profiled`]
//! through the read-only [`Profiler`] hooks, which fire at the engine's
//! sequential points and only read there, so a profiled run is
//! **bit-identical** to an unprofiled one — same states, same meter, same
//! digest chain (pinned by the `integration_prof` proptests).
//!
//! What a [`Profile`] holds, per executed round, each fact once:
//!
//! * wall-clock **phase timings** (`scan`/`step`/`route`/`exchange`/
//!   `deliver`/`commit`) in fixed slots,
//! * per-shard **busy times** inside the three parallel phases,
//! * the **shard→shard traffic**, one entry per shard pair that talked,
//!   read from the router's destination buckets — per-shard sent and
//!   received counts are its row and column sums,
//! * per-shard **frontier sizes**.
//!
//! On top of the raw series: time [`Profile::attribution`] (how much of the
//! run's wall time lands in named phases — the remainder is reported, never
//! hidden), rayon occupancy and imbalance per phase, a
//! `Profile::straggler_report` naming the top-k culprit shards with their
//! frontier and traffic shares, a wall-clock Chrome-trace exporter
//! ([`chrome_profile`], one track per shard), and a perf-regression
//! localizer ([`first_regression`]) that binary-searches two per-round cost
//! series for the first regressed round — `first_divergence` for
//! performance, with a noise-calibrated threshold
//! ([`calibrate_threshold`]).
//!
//! The narrative guide is `docs/PROFILING.md`.

pub mod chrome;
pub mod localize;

pub use chrome::chrome_profile;
pub use localize::{calibrate_threshold, first_regression};

use mfd_runtime::profile::{
    Profiler, RoundSample, PHASES, PHASE_COMMIT, PHASE_DELIVER, PHASE_NAMES, PHASE_SCAN, PHASE_STEP,
};

/// A complete wall-clock profile of one run: every [`RoundSample`] the
/// engine recorded, plus the run-level frame (shard count, worker count,
/// init and total wall time).
///
/// Build one with [`Profile::new`], pass it to `run_profiled`,
/// then query it. All aggregate methods are pure reads over the recorded
/// samples.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Shards in the profiled engine.
    pub shards: usize,
    /// Effective rayon worker count of the run.
    pub threads: usize,
    /// Wall time of initialization (state init + round-0 digest seal).
    pub init_ns: u64,
    /// Total wall time of the run (init through the last round's exchange);
    /// 0 until the run completes normally.
    pub total_ns: u64,
    /// One sample per executed round, in round order.
    pub rounds: Vec<RoundSample>,
}

impl Profiler for Profile {
    fn begin(&mut self, shards: usize, threads: usize, init_ns: u64) {
        self.shards = shards;
        self.threads = threads;
        self.init_ns = init_ns;
        self.total_ns = 0;
        self.rounds.clear();
    }

    fn record_round(&mut self, sample: &RoundSample) {
        self.rounds.push(sample.clone());
    }

    fn finish(&mut self, total_ns: u64) {
        self.total_ns = total_ns;
    }
}

/// Aggregate statistics of one phase across a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Phase name (one of [`PHASE_NAMES`]).
    pub name: &'static str,
    /// Total wall time of the phase across all rounds.
    pub wall_ns: u64,
    /// Total per-shard busy time across all rounds (equals `wall_ns` for
    /// the sequential phases).
    pub busy_ns: u64,
    /// Busiest single shard's total busy time.
    pub max_shard_busy_ns: u64,
    /// Mean per-shard total busy time.
    pub mean_shard_busy_ns: f64,
    /// `max / mean` of per-shard busy totals (1.0 = perfectly balanced;
    /// 1.0 when the phase did no work).
    pub imbalance: f64,
    /// Fraction of `threads × wall_ns` covered by busy time: how much of
    /// the workers' capacity the phase actually used (sequential phases
    /// tend to `1/threads`).
    pub occupancy: f64,
}

/// One culprit shard in a [`StragglerReport`]: where its time, frontier and
/// traffic sit relative to the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Culprit {
    /// Shard index.
    pub shard: usize,
    /// This shard's total busy time in the report's phase.
    pub busy_ns: u64,
    /// Share of the phase's total busy time (0..=1).
    pub busy_share: f64,
    /// This shard's summed frontier size across rounds.
    pub frontier: u64,
    /// Share of the run's total frontier (0..=1).
    pub frontier_share: f64,
    /// Messages this shard sent across the run.
    pub sent: u64,
    /// Share of the run's total messages (0..=1).
    pub sent_share: f64,
}

/// The straggler report: per-phase balance statistics plus the top-k
/// culprit shards of one phase (see `Profile::straggler_report`).
#[derive(Debug, Clone, Default)]
pub struct StragglerReport {
    /// Aggregates for every phase, in [`PHASE_NAMES`] order.
    pub phases: [PhaseStats; PHASES],
    /// Wall time inside the observer's `round_sealed` hook summed over
    /// rounds — the digest-chain fold, broken out of the commit wall so a
    /// fat commit can be read as "fold cost" versus "resolution cost"
    /// (see [`Profile::seal_ns_total`]).
    pub seal_ns: u64,
    /// The phase the culprits are ranked by.
    pub culprit_phase: &'static str,
    /// Top-k shards by busy time in `culprit_phase`, descending.
    pub culprits: Vec<Culprit>,
}

/// `len` counters, with each `(index, count)` added to its counter.
pub(crate) fn tally(len: usize, counts: impl Iterator<Item = (usize, u64)>) -> Vec<u64> {
    let mut totals = vec![0u64; len];
    for (index, count) in counts {
        totals[index] += count;
    }
    totals
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Profile {
    /// An empty profile ready to attach to a run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executed rounds recorded.
    pub fn round_count(&self) -> u64 {
        self.rounds.len() as u64
    }

    /// Every traffic entry of the run, round after round.
    fn traffic(&self) -> impl Iterator<Item = &(usize, usize, u64)> {
        self.rounds.iter().flat_map(|r| &r.traffic)
    }

    /// Total messages across the run (sum of the traffic matrix).
    pub fn messages(&self) -> u64 {
        self.traffic().map(|&(_, _, count)| count).sum()
    }

    /// Per-phase wall time summed over rounds, in [`PHASE_NAMES`] order.
    pub fn phase_wall_totals(&self) -> [u64; PHASES] {
        let mut totals = [0u64; PHASES];
        for r in &self.rounds {
            for (t, w) in totals.iter_mut().zip(r.phase_wall_ns) {
                *t += w;
            }
        }
        totals
    }

    /// Per-round wall time of one phase, in round order — the series
    /// [`first_regression`] localizes over.
    pub fn phase_series(&self, phase: usize) -> Vec<u64> {
        self.rounds.iter().map(|r| r.phase_wall_ns[phase]).collect()
    }

    /// Per-shard busy time of one parallel phase summed over rounds
    /// (all zeros for the sequential phases, which have no per-shard
    /// decomposition).
    pub(crate) fn shard_busy_totals(&self, phase: usize) -> Vec<u64> {
        let mut totals = vec![0u64; self.shards];
        for r in &self.rounds {
            for (t, &ns) in totals.iter_mut().zip(&r.shard_busy_ns[phase]) {
                *t += ns;
            }
        }
        totals
    }

    /// Wall time attributed to named phases, including initialization.
    pub fn attributed_ns(&self) -> u64 {
        self.init_ns + self.phase_wall_totals().iter().sum::<u64>()
    }

    /// Wall time *not* attributed to any phase: fixpoint-detection scans of
    /// rounds that never executed, and loop overhead between phase stamps.
    /// Reported explicitly so attribution gaps are visible, never hidden.
    pub fn unattributed_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.attributed_ns())
    }

    /// Fraction of the run's total wall time attributed to named phases
    /// (1.0 when the run did not complete and `total_ns` is still 0).
    pub fn attribution(&self) -> f64 {
        if self.total_ns == 0 {
            return 1.0;
        }
        (self.attributed_ns().min(self.total_ns)) as f64 / self.total_ns as f64
    }

    /// Wall time inside `round_sealed` summed over rounds — the sequential
    /// digest-chain fold (for a `DigestSink`: each round's delta plus
    /// whichever rounds ran a sweep folding up to four queued rounds, so the
    /// per-round series is lumpy but the total is meaningful). A sub-span of
    /// the commit wall; 0 when tracing is disabled.
    pub fn seal_ns_total(&self) -> u64 {
        self.rounds.iter().map(|r| r.seal_ns).sum()
    }

    /// The measured commit share: commit wall summed over rounds divided by
    /// the total round wall (`wall_ns` summed over rounds). This is the
    /// thread-scaling ceiling imposed by the sequential resolution point —
    /// by Amdahl, the run cannot speed up past `1 / commit_frac` no matter
    /// the worker count. 0.0 when no rounds executed.
    pub fn commit_frac(&self) -> f64 {
        let round_wall: u64 = self.rounds.iter().map(|r| r.wall_ns).sum();
        if round_wall == 0 {
            return 0.0;
        }
        self.phase_wall_totals()[PHASE_COMMIT] as f64 / round_wall as f64
    }

    /// Total frontier (active vertices summed over rounds and shards).
    pub fn frontier_total(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| r.frontier.iter().map(|&f| f as u64).sum::<u64>())
            .sum()
    }

    /// Per-shard frontier totals across the run.
    pub fn frontier_totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.shards];
        for r in &self.rounds {
            for (t, &f) in totals.iter_mut().zip(&r.frontier) {
                *t += f as u64;
            }
        }
        totals
    }

    /// Per-shard sent-message totals (row sums of the summed traffic
    /// matrix).
    pub fn sent_totals(&self) -> Vec<u64> {
        tally(
            self.shards,
            self.traffic().map(|&(src, _, count)| (src, count)),
        )
    }

    /// Per-shard received-message totals (column sums of the summed traffic
    /// matrix): what each shard's mailboxes held after delivery, summed
    /// over rounds.
    pub fn delivered_totals(&self) -> Vec<u64> {
        tally(
            self.shards,
            self.traffic().map(|&(_, dst, count)| (dst, count)),
        )
    }

    /// The shard→shard traffic matrix summed over rounds, dense and
    /// row-major (`[src * shards + dst]`).
    pub fn traffic_totals(&self) -> Vec<u64> {
        let k = self.shards;
        tally(
            k * k,
            self.traffic()
                .map(|&(src, dst, count)| (src * k + dst, count)),
        )
    }

    /// Aggregate [`PhaseStats`] for one phase.
    pub fn phase_stats(&self, phase: usize) -> PhaseStats {
        let wall_ns = self.phase_wall_totals()[phase];
        let is_parallel = matches!(phase, PHASE_SCAN | PHASE_STEP | PHASE_DELIVER);
        let per_shard = self.shard_busy_totals(phase);
        let busy_ns = if is_parallel {
            per_shard.iter().sum()
        } else {
            wall_ns
        };
        let max = per_shard.iter().copied().max().unwrap_or(0);
        let mean = if self.shards == 0 {
            0.0
        } else {
            busy_ns as f64 / self.shards as f64
        };
        let imbalance = if is_parallel && mean > 0.0 {
            max as f64 / mean
        } else {
            1.0
        };
        let occupancy = if wall_ns == 0 {
            0.0
        } else {
            busy_ns as f64 / (self.threads.max(1) as f64 * wall_ns as f64)
        };
        PhaseStats {
            name: PHASE_NAMES[phase],
            wall_ns,
            busy_ns,
            max_shard_busy_ns: if is_parallel { max } else { wall_ns },
            mean_shard_busy_ns: mean,
            imbalance,
            occupancy,
        }
    }

    /// The straggler report: per-phase balance statistics, plus the top-`k`
    /// shards by busy time in the dominant *parallel* phase (the one with
    /// the largest wall total among scan/step/deliver), each annotated with
    /// its frontier and traffic shares — so a straggler can be read as
    /// "overloaded frontier", "traffic hot spot", or neither (pure compute
    /// skew).
    pub(crate) fn straggler_report(&self, k: usize) -> StragglerReport {
        let mut phases = [PhaseStats::default(); PHASES];
        for (p, slot) in phases.iter_mut().enumerate() {
            *slot = self.phase_stats(p);
        }
        let culprit_phase = [PHASE_SCAN, PHASE_STEP, PHASE_DELIVER]
            .into_iter()
            .max_by_key(|&p| phases[p].wall_ns)
            .unwrap_or(PHASE_STEP);
        let busy = self.shard_busy_totals(culprit_phase);
        let busy_total: u64 = busy.iter().sum();
        let frontier = self.frontier_totals();
        let frontier_total: u64 = frontier.iter().sum();
        let sent = self.sent_totals();
        let sent_total: u64 = sent.iter().sum();
        let mut order: Vec<usize> = (0..self.shards).collect();
        // Busy-time descending; shard index breaks ties deterministically.
        order.sort_by_key(|&s| (std::cmp::Reverse(busy[s]), s));
        let culprits = order
            .into_iter()
            .take(k)
            .map(|s| Culprit {
                shard: s,
                busy_ns: busy[s],
                busy_share: share(busy[s], busy_total),
                frontier: frontier[s],
                frontier_share: share(frontier[s], frontier_total),
                sent: sent[s],
                sent_share: share(sent[s], sent_total),
            })
            .collect();
        StragglerReport {
            phases,
            seal_ns: self.seal_ns_total(),
            culprit_phase: PHASE_NAMES[culprit_phase],
            culprits,
        }
    }

    /// A human-readable multi-line summary: attribution, per-phase walls
    /// with occupancy and imbalance, and the top-3 straggler shards.
    pub fn summary(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        out.push_str(&format!(
            "profile: {} shards x {} threads, {} rounds, {} messages\n",
            self.shards,
            self.threads,
            self.round_count(),
            self.messages(),
        ));
        out.push_str(&format!(
            "wall: total {:.3} ms, init {:.3} ms, attributed {:.1}% (unattributed {:.3} ms)\n",
            ms(self.total_ns),
            ms(self.init_ns),
            100.0 * self.attribution(),
            ms(self.unattributed_ns()),
        ));
        let report = self.straggler_report(3);
        for stats in &report.phases {
            out.push_str(&format!(
                "  {:<8} {:>10.3} ms  occupancy {:.2}  imbalance {:.2}\n",
                stats.name,
                ms(stats.wall_ns),
                stats.occupancy,
                stats.imbalance,
            ));
            if stats.name == PHASE_NAMES[PHASE_COMMIT] {
                out.push_str(&format!(
                    "           of which digest fold (seal) {:.3} ms; commit_frac {:.3}\n",
                    ms(report.seal_ns),
                    self.commit_frac(),
                ));
            }
        }
        out.push_str(&format!("stragglers ({} phase):\n", report.culprit_phase));
        for c in &report.culprits {
            out.push_str(&format!(
                "  shard {:>4}: busy {:>10.3} ms ({:.1}% of busy, frontier {:.1}%, sent {:.1}%)\n",
                c.shard,
                ms(c.busy_ns),
                100.0 * c.busy_share,
                100.0 * c.frontier_share,
                100.0 * c.sent_share,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_runtime::profile::PHASE_COMMIT;

    /// A hand-built two-shard, two-round profile with known numbers.
    fn sample_profile() -> Profile {
        let mut p = Profile::new();
        p.begin(2, 2, 1_000);
        let mut r1 = RoundSample {
            round: 1,
            start_ns: 1_000,
            wall_ns: 10_000,
            frontier: vec![10, 2],
            // Dense rows: [3, 4], [1, 2].
            traffic: vec![(0, 0, 3), (0, 1, 4), (1, 0, 1), (1, 1, 2)],
            ..RoundSample::default()
        };
        r1.shard_busy_ns[PHASE_SCAN] = vec![100, 300];
        r1.shard_busy_ns[PHASE_STEP] = vec![4_000, 1_000];
        r1.shard_busy_ns[PHASE_DELIVER] = vec![200, 200];
        r1.phase_wall_ns = [400, 4_100, 50, 60, 250, 3_000];
        r1.seal_ns = 500;
        let mut r2 = RoundSample {
            round: 2,
            start_ns: 11_000,
            wall_ns: 8_000,
            frontier: vec![5, 5],
            // Dense rows: [1, 1], [4, 4], in sweep order.
            traffic: vec![(0, 1, 1), (0, 0, 1), (1, 0, 4), (1, 1, 4)],
            ..RoundSample::default()
        };
        r2.shard_busy_ns[PHASE_SCAN] = vec![100, 100];
        r2.shard_busy_ns[PHASE_STEP] = vec![2_000, 2_000];
        r2.shard_busy_ns[PHASE_DELIVER] = vec![100, 300];
        r2.phase_wall_ns = [250, 2_200, 40, 50, 350, 2_500];
        r2.seal_ns = 300;
        p.record_round(&r1);
        p.record_round(&r2);
        p.finish(20_000);
        p
    }

    #[test]
    fn totals_and_attribution_add_up() {
        let p = sample_profile();
        assert_eq!(p.round_count(), 2);
        assert_eq!(p.messages(), 20);
        let walls = p.phase_wall_totals();
        assert_eq!(walls, [650, 6_300, 90, 110, 600, 5_500]);
        let attributed = 1_000 + walls.iter().sum::<u64>();
        assert_eq!(p.attributed_ns(), attributed);
        assert_eq!(p.unattributed_ns(), 20_000 - attributed);
        let frac = p.attribution();
        assert!((frac - attributed as f64 / 20_000.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_matrix_sums_match_sent_and_delivered() {
        let p = sample_profile();
        let m = p.traffic_totals();
        assert_eq!(m, vec![4, 5, 5, 6]);
        assert_eq!(p.sent_totals(), vec![9, 11], "row sums");
        assert_eq!(p.delivered_totals(), vec![9, 11], "column sums");
        assert_eq!(p.frontier_total(), 22);
        assert_eq!(p.frontier_totals(), vec![15, 7]);
    }

    #[test]
    fn phase_stats_imbalance_and_occupancy() {
        let p = sample_profile();
        let step = p.phase_stats(PHASE_STEP);
        assert_eq!(step.wall_ns, 6_300);
        assert_eq!(step.busy_ns, 9_000); // 6000 + 3000 per shard
        assert_eq!(step.max_shard_busy_ns, 6_000);
        // imbalance = 6000 / (9000/2)
        assert!((step.imbalance - 6_000.0 / 4_500.0).abs() < 1e-12);
        // occupancy = 9000 / (2 threads * 6300 wall)
        assert!((step.occupancy - 9_000.0 / 12_600.0).abs() < 1e-12);
        // Sequential phase: busy == wall, imbalance pinned to 1.
        let commit = p.phase_stats(PHASE_COMMIT);
        assert_eq!(commit.busy_ns, commit.wall_ns);
        assert_eq!(commit.imbalance, 1.0);
    }

    #[test]
    fn straggler_report_ranks_by_dominant_parallel_phase() {
        let p = sample_profile();
        let report = p.straggler_report(2);
        assert_eq!(report.culprit_phase, "step");
        assert_eq!(report.culprits.len(), 2);
        assert_eq!(report.culprits[0].shard, 0); // 6000 ns > 3000 ns
        assert!((report.culprits[0].busy_share - 6_000.0 / 9_000.0).abs() < 1e-12);
        assert!((report.culprits[0].frontier_share - 15.0 / 22.0).abs() < 1e-12);
        assert!((report.culprits[0].sent_share - 9.0 / 20.0).abs() < 1e-12);
        let summary = p.summary();
        assert!(summary.contains("2 shards x 2 threads"));
        assert!(summary.contains("stragglers (step phase)"));
    }

    #[test]
    fn commit_frac_and_seal_total_break_out_the_fold() {
        let p = sample_profile();
        assert_eq!(p.seal_ns_total(), 800);
        // commit walls 3000 + 2500 over round walls 10000 + 8000.
        assert!((p.commit_frac() - 5_500.0 / 18_000.0).abs() < 1e-12);
        let report = p.straggler_report(1);
        assert_eq!(report.seal_ns, 800);
        let summary = p.summary();
        assert!(summary.contains("digest fold (seal) 0.001 ms"));
        assert!(summary.contains("commit_frac 0.306"));
        // An empty profile divides by nothing.
        assert_eq!(Profile::new().commit_frac(), 0.0);
    }

    #[test]
    fn begin_resets_previous_recordings() {
        let mut p = sample_profile();
        p.begin(4, 1, 5);
        assert_eq!(p.rounds.len(), 0);
        assert_eq!(p.shards, 4);
        assert_eq!(p.total_ns, 0);
        assert_eq!(p.attribution(), 1.0, "incomplete run attributes fully");
    }
}
