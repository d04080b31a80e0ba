//! Shared profiled-workload runner for the `report --section profile`
//! section and the `profile` binary.
//!
//! One definition of the profiled workloads (graph specs, algorithms, the
//! run-and-verify harness, the per-round CSV format) so the CI-gated
//! `BENCH_profile.json` rows, the interactive `profile` subcommands, and
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
use mfd_graph::{gen, generators, Graph};
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
    pub fn centers(k: usize, n: usize) -> Vec<usize> {
        (0..k).map(|i| (i * n) / k).collect()
    }
}

/// Parses a graph spec: `mesh-<r>x<c>`, `rmat-<scale>-ef<ef>` or
/// `power-law-2^<k>` — the streaming-generator families of the `scale`
/// section, with the same seeds — or `tri-grid-<r>x<c>`, the
/// [`generators::triangulated_grid`] family.
pub fn parse_graph(spec: &str) -> Option<Graph> {
    if let Some(dims) = spec.strip_prefix("tri-grid-") {
        let (r, c) = dims.split_once('x')?;
        return Some(generators::triangulated_grid(
            r.parse().ok()?,
            c.parse().ok()?,
        ));
    }
    if let Some(dims) = spec.strip_prefix("mesh-") {
        let (r, c) = dims.split_once('x')?;
        return Some(gen::mesh(r.parse().ok()?, c.parse().ok()?));
    }
    if let Some(rest) = spec.strip_prefix("rmat-") {
        let (scale, ef) = rest.split_once("-ef")?;
        return Some(gen::rmat(scale.parse().ok()?, ef.parse().ok()?, 0x6d6664));
    }
    if let Some(k) = spec.strip_prefix("power-law-2^") {
        let k: u32 = k.parse().ok()?;
        let n = 1usize << k;
        return Some(gen::power_law(n, 4 * n, 2.5, 0x6d6664));
    }
    None
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

fn verify_consistency(run: &ProfiledRun, label: &str) {
    let p = &run.profile;
    assert_eq!(p.round_count(), run.rounds, "{label}: profile round count");
    assert_eq!(p.messages(), run.messages, "{label}: profile message count");
    // The traffic matrix must account the router exactly: row sums are the
    // per-shard send counts, column sums the per-shard receive counts.
    let matrix = p.traffic_totals();
    let sent = p.sent_totals();
    let delivered = p.delivered_totals();
    let k = p.shards;
    for s in 0..k {
        let row: u64 = (0..k).map(|d| matrix[s * k + d]).sum();
        let col: u64 = (0..k).map(|src| matrix[src * k + s]).sum();
        assert_eq!(row, sent[s], "{label}: traffic row sum, shard {s}");
        assert_eq!(col, delivered[s], "{label}: traffic column sum, shard {s}");
    }
    assert_eq!(
        sent.iter().sum::<u64>(),
        run.messages,
        "{label}: traffic total"
    );
}

/// Runs `program` on the sharded executor twice — profiled and plain — and
/// asserts the profiled run changed nothing: bit-identical states, meter
/// statistics, arena high-water marks, and digest chains.
pub fn profile_sharded<P>(
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

    let out = ProfiledRun {
        profile,
        digest_head: sink.head(),
        rounds: run.rounds,
        messages: run.messages,
        elapsed_ms,
    };
    verify_consistency(&out, label);
    out
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
/// `profile localize` consumes. Columns: `round`, one `<phase>_ns` per
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

/// Parses [`rounds_csv`] output back into per-round rows of
/// `[phase walls.., wall]` (`PHASES + 1` columns, round column dropped).
///
/// # Errors
///
/// A human-readable message naming the offending line.
pub fn parse_rounds_csv(text: &str) -> Result<Vec<Vec<u64>>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate().skip(1) {
        if line.trim().is_empty() {
            continue;
        }
        let cells: Vec<&str> = line.split(',').collect();
        if cells.len() != PHASES + 2 {
            return Err(format!(
                "line {}: expected {} columns, got {}",
                i + 1,
                PHASES + 2,
                cells.len()
            ));
        }
        let row: Result<Vec<u64>, _> = cells[1..].iter().map(|c| c.trim().parse()).collect();
        rows.push(row.map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(rows)
}

/// Extracts one phase's per-round series from [`parse_rounds_csv`] rows.
/// `phase` is an index into [`PHASE_NAMES`], or `PHASES` for the total
/// round wall.
pub fn csv_phase_series(rows: &[Vec<u64>], phase: usize) -> Vec<u64> {
    rows.iter().map(|r| r[phase]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_runtime::profile::PHASE_STEP;

    #[test]
    fn specs_parse_and_reject() {
        assert!(parse_graph("mesh-8x9").is_some());
        assert!(parse_graph("rmat-6-ef4").is_some());
        assert!(parse_graph("power-law-2^8").is_some());
        assert!(parse_graph("mesh-8").is_none());
        assert!(parse_graph("banana").is_none());
        assert!(parse_graph("tri-grid-5x5").is_some());
        assert!(parse_graph("tri-grid-5").is_none());
        assert_eq!(Algo::parse("bfs"), Some(Algo::Bfs));
        assert_eq!(Algo::parse("ldd-64"), Some(Algo::Ldd(64)));
        assert_eq!(Algo::parse("ldd-0"), None);
        assert_eq!(Algo::parse("dfs"), None);
    }

    /// The satellite unit test: the recorded traffic matrix's row and
    /// column sums equal the router's per-shard send and receive counts
    /// exactly, on a real sharded run.
    #[test]
    fn traffic_matrix_sums_match_router_counts_exactly() {
        let g = gen::mesh(24, 24);
        let run = profile_sharded_algo(&g, Algo::Ldd(8), 5, 2, "test-mesh-24");
        // `verify_consistency` inside already asserted row/column sums; pin
        // the headline numbers here too so the test fails readably if the
        // runner stops verifying.
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
        assert_eq!(
            csv_phase_series(&rows, PHASE_STEP),
            run.profile.phase_series(PHASE_STEP)
        );
        assert!(parse_rounds_csv("round,bad\n1,2\n").is_err());
    }
}
