//! Shared profiled-workload runner for the `report --section profile`
//! section and `mfd-debug profile`.
//!
//! One definition of the profiled workloads (algorithms, the run-and-verify
//! harness, the per-round CSV format; graph specs are
//! [`crate::parse_graph`]'s) so the CI-gated `BENCH_profile.json` rows, the
//! interactive `mfd-debug profile` subcommands, and
//! the localizer's CSV series can never drift onto different
//! configurations.
//!
//! Every profiled run here is **verified**: the same workload is executed
//! once more without the profiler and the states, meter statistics, and
//! digest chains are asserted bit-identical — the perturbation-freedom
//! contract of `mfd-prof`, enforced at the point where numbers are
//! published.

use std::hash::Hash;

use mfd_core::programs::{BfsProgram, VoronoiLddProgram};
use mfd_graph::Graph;
use mfd_prof::Profile;
use mfd_runtime::profile::{PHASES, PHASE_NAMES};
use mfd_runtime::{NodeProgram, ShardedConfig, ShardedExecutor};
use mfd_trace::DigestSink;

/// A profiled algorithm: BFS from vertex 0, or the Voronoi LDD wave with
/// `k` evenly spaced centers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// `BfsProgram { root: 0 }`.
    Bfs,
    /// `VoronoiLddProgram` with `k` centers at `(i * n) / k`.
    Ldd(usize),
}

impl Algo {
    /// Parses `"bfs"` or `"ldd-<k>"`.
    pub fn parse(spec: &str) -> Option<Algo> {
        if spec == "bfs" {
            return Some(Algo::Bfs);
        }
        let k = spec.strip_prefix("ldd-")?.parse().ok()?;
        (k > 0).then_some(Algo::Ldd(k))
    }

    /// Evenly spaced LDD centers for a graph of `n` vertices.
    pub(crate) fn centers(k: usize, n: usize) -> Vec<usize> {
        (0..k).map(|i| (i * n) / k).collect()
    }
}

/// A profiled, verified run: the wall-clock [`Profile`] plus the
/// deterministic scalars every benchmark row is keyed on.
#[derive(Debug)]
pub struct ProfiledRun {
    /// The recorded profile.
    pub profile: Profile,
    /// Digest-chain head of the run (identical to the unprofiled run's —
    /// asserted).
    pub digest_head: u64,
    /// Rounds executed.
    pub rounds: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Wall-clock milliseconds of the profiled run.
    pub elapsed_ms: f64,
}

/// Runs `program` on the sharded executor twice — profiled and plain — and
/// asserts the profiled run changed nothing: bit-identical states, meter
/// statistics, arena high-water marks, and digest chains. The profile's
/// rounds and traffic must account the run's rounds and messages exactly.
pub(crate) fn profile_sharded<P>(
    g: &Graph,
    program: &P,
    shards: usize,
    threads: usize,
    label: &str,
) -> ProfiledRun
where
    P: NodeProgram,
    P::State: Hash + PartialEq + std::fmt::Debug,
{
    let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads));
    let mut profile = Profile::new();
    let mut sink = DigestSink::new();
    let t0 = std::time::Instant::now();
    let run = exec
        .run_profiled(g, program, &mut sink, &mut profile)
        .expect("program is model-compliant");
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut plain_sink = DigestSink::new();
    let plain = exec
        .run_traced(g, program, &mut plain_sink)
        .expect("program is model-compliant");
    assert_eq!(run.states, plain.states, "{label}: profiled states differ");
    assert_eq!(run.rounds, plain.rounds, "{label}: profiled rounds differ");
    assert_eq!(
        run.messages, plain.messages,
        "{label}: profiled messages differ"
    );
    assert_eq!(
        run.meter.max_words_on_edge(),
        plain.meter.max_words_on_edge(),
        "{label}: profiled meter differs"
    );
    assert_eq!(run.arena, plain.arena, "{label}: profiled arena differs");
    assert_eq!(
        sink.heads(),
        plain_sink.heads(),
        "{label}: profiled digest chain differs"
    );

    assert_eq!(profile.round_count(), run.rounds, "{label}: profile rounds");
    assert_eq!(
        profile.messages(),
        run.messages,
        "{label}: profile messages"
    );
    ProfiledRun {
        profile,
        digest_head: sink.head(),
        rounds: run.rounds,
        messages: run.messages,
        elapsed_ms,
    }
}

/// Dispatches a parsed [`Algo`] onto the sharded runner.
pub fn profile_sharded_algo(
    g: &Graph,
    algo: Algo,
    shards: usize,
    threads: usize,
    label: &str,
) -> ProfiledRun {
    match algo {
        Algo::Bfs => profile_sharded(g, &BfsProgram { root: 0 }, shards, threads, label),
        Algo::Ldd(k) => {
            let centers = Algo::centers(k, g.n());
            let ldd = VoronoiLddProgram::new(g.n(), &centers);
            profile_sharded(g, &ldd, shards, threads, label)
        }
    }
}

/// Renders a profile's per-round phase walls as CSV — the series format
/// `mfd-debug profile localize` consumes. Columns: `round`, one `<phase>_ns` per
/// [`PHASE_NAMES`] entry, `wall_ns`.
pub fn rounds_csv(profile: &Profile) -> String {
    let mut out = String::from("round");
    for name in PHASE_NAMES {
        out.push_str(&format!(",{name}_ns"));
    }
    out.push_str(",wall_ns\n");
    for r in &profile.rounds {
        out.push_str(&r.round.to_string());
        for w in r.phase_wall_ns {
            out.push_str(&format!(",{w}"));
        }
        out.push_str(&format!(",{}\n", r.wall_ns));
    }
    out
}

/// One row of a [`rounds_csv`]: the round it describes, and its
/// `[phase walls.., wall]` cells (`PHASES + 1` of them).
pub type CsvRound = (u64, Vec<u64>);

/// Parses [`rounds_csv`] output back into per-round rows.
///
/// # Errors
///
/// A human-readable message naming the offending line.
pub fn parse_rounds_csv(text: &str) -> Result<Vec<CsvRound>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let at = i + 1;
        let cells: Vec<&str> = line.split(',').map(str::trim).collect();
        if cells.len() != PHASES + 2 {
            let got = cells.len();
            return Err(format!(
                "line {at}: expected {} columns, got {got}",
                PHASES + 2
            ));
        }
        let round = cells[0]
            .parse()
            .map_err(|_| format!("line {at}: round {:?} is not a number", cells[0]))?;
        let walls: Result<Vec<u64>, _> = cells[1..].iter().map(|c| c.parse()).collect();
        rows.push((round, walls.map_err(|e| format!("line {at}: {e}"))?));
    }
    Ok(rows)
}

/// Extracts one phase's per-round series from [`parse_rounds_csv`] rows.
/// `phase` is an index into [`PHASE_NAMES`], or `PHASES` for the total
/// round wall.
pub fn csv_phase_series(rows: &[CsvRound], phase: usize) -> Vec<u64> {
    rows.iter().map(|(_, walls)| walls[phase]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::gen;
    use mfd_runtime::profile::PHASE_STEP;

    #[test]
    fn specs_parse_and_reject() {
        assert_eq!(Algo::parse("bfs"), Some(Algo::Bfs));
        assert_eq!(Algo::parse("ldd-64"), Some(Algo::Ldd(64)));
        assert_eq!(Algo::parse("ldd-0"), None);
        assert_eq!(Algo::parse("dfs"), None);
    }

    /// The recorded traffic, densified, and its row and column sums account
    /// every message of a real sharded run exactly.
    #[test]
    fn traffic_matrix_sums_match_router_counts_exactly() {
        let g = gen::mesh(24, 24);
        let run = profile_sharded_algo(&g, Algo::Ldd(8), 5, 2, "test-mesh-24");
        let p = &run.profile;
        let matrix = p.traffic_totals();
        assert_eq!(matrix.len(), 25);
        assert_eq!(matrix.iter().sum::<u64>(), run.messages);
        assert_eq!(p.sent_totals().iter().sum::<u64>(), run.messages);
        assert_eq!(p.delivered_totals().iter().sum::<u64>(), run.messages);
        assert!(run.messages > 0);
    }

    #[test]
    fn csv_round_trips() {
        let g = gen::mesh(16, 16);
        let run = profile_sharded_algo(&g, Algo::Bfs, 4, 1, "test-mesh-16");
        let csv = rounds_csv(&run.profile);
        let rows = parse_rounds_csv(&csv).expect("own output parses");
        assert_eq!(rows.len() as u64, run.rounds);
        let rounds: Vec<u64> = rows.iter().map(|&(round, _)| round).collect();
        assert_eq!(rounds, (1..=run.rounds).collect::<Vec<_>>());
        assert_eq!(
            csv_phase_series(&rows, PHASE_STEP),
            run.profile.phase_series(PHASE_STEP)
        );
        assert!(parse_rounds_csv("round,bad\n1,2\n").is_err());
        let unnumbered = csv.replacen("\n1,", "\none,", 1);
        let err = parse_rounds_csv(&unnumbered).unwrap_err();
        assert_eq!(err, "line 2: round \"one\" is not a number");
    }
}
