//! Shared helpers for the `report` and `mfd-debug` binaries: the acceptance
//! families every gated claim is pinned on, the graph-spec resolver, and
//! markdown table formatting.
//!
//! Every experiment of the README's "Benchmarks and reports" section is a
//! `report` section (`cargo run --release -p mfd-bench --bin report`, which
//! prints every table); wall-clock timings are the `perf/` harness's job.
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-bench").

use mfd_graph::{gen, generators, Graph};
use mfd_routing::walks::WalkParams;
use mfd_runtime::{ExecutorConfig, ShardedConfig, ShardedExecutor};
use mfd_sim::{LatencyModel, SimConfig, SimEngine, Simulator};

pub mod json;
pub mod profiling;
pub mod replay;
pub mod series;
pub mod trace;

/// The engine behind every `engine=executor` series and journal (the label
/// names the synchronous semantics): one shard per worker of `config`.
pub fn sync_executor(config: &ExecutorConfig) -> ShardedExecutor {
    ShardedExecutor::new(ShardedConfig::per_thread(config))
}

/// The engine behind every `engine=sim` series and journal: the event engine
/// configured to match `config` at `latency`, its sessions run under `hook`.
pub fn sim_engine<F>(config: &ExecutorConfig, latency: LatencyModel, hook: F) -> SimEngine<F> {
    SimEngine(Simulator::new(SimConfig::matching(config, latency)), hook)
}

/// The gather acceptance families — the fixed `(name, graph)` set every
/// executed-gather claim is pinned on (report sections, integration tests,
/// baselines). One definition, so the CI-gated measurements and the test
/// suite can never drift onto different configurations.
pub fn acceptance_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("tri-grid-8x8", generators::triangulated_grid(8, 8)),
        ("wheel-64", generators::wheel(64)),
        ("hypercube-6", generators::hypercube(6)),
    ]
}

/// The forms of graph spec [`parse_graph`] accepts, as its error lists them.
const GRAPH_SPECS: &str = "tri-grid-<r>x<c>, mesh-<r>x<c>, wheel-<n>, hypercube-<d>, \
                           rmat-<scale>-ef<ef>, power-law-2^<k>";

/// Resolves a graph spec: `tri-grid-<r>x<c>`, `wheel-<n>` and
/// `hypercube-<d>` are the [`generators`] families — so the
/// [`acceptance_families`]' names resolve to their graphs — and
/// `mesh-<r>x<c>`, `rmat-<scale>-ef<ef>` and `power-law-2^<k>` the streaming
/// [`gen`] families of the `scale` section, with its seeds.
///
/// # Errors
///
/// A one-line message naming `spec` for a spec of no accepted form (listing
/// the forms), one whose size overflows, and one with no vertices.
pub fn parse_graph(spec: &str) -> Result<Graph, String> {
    const SEED: u64 = 0x6d6664;
    let num = |s: &str| s.parse::<usize>().ok();
    let dims = |s: &str| {
        s.split_once('x')
            .and_then(|(r, c)| Some((num(r)?, num(c)?)))
    };
    let pow2 = |k: usize| 1usize.checked_shl(u32::try_from(k).ok()?);
    let rmat = |s: &str| {
        s.split_once("-ef")
            .and_then(|(s, e)| Some((num(s)?, num(e)?)))
    };
    // `None` when the spec's vertex or edge count overflows.
    let graph = if let Some((r, c)) = spec.strip_prefix("tri-grid-").and_then(dims) {
        r.checked_mul(c)
            .map(|_| generators::triangulated_grid(r, c))
    } else if let Some((r, c)) = spec.strip_prefix("mesh-").and_then(dims) {
        r.checked_mul(c).map(|_| gen::mesh(r, c))
    } else if let Some(n) = spec.strip_prefix("wheel-").and_then(num) {
        if n < 4 {
            return Err(format!(
                "graph spec {spec:?}: a wheel has at least 4 vertices"
            ));
        }
        Some(generators::wheel(n))
    } else if let Some(d) = spec.strip_prefix("hypercube-").and_then(num) {
        pow2(d).map(|_| generators::hypercube(d))
    } else if let Some((scale, ef)) = spec.strip_prefix("rmat-").and_then(rmat) {
        let edges = pow2(scale).and_then(|n| n.checked_mul(ef));
        edges.map(|_| gen::rmat(scale as u32, ef, SEED))
    } else if let Some(k) = spec.strip_prefix("power-law-2^").and_then(num) {
        let sizes = pow2(k).and_then(|n| Some((n, n.checked_mul(4)?)));
        sizes.map(|(n, m)| gen::power_law(n, m, 2.5, SEED))
    } else {
        return Err(format!(
            "unknown graph spec {spec:?}; accepted forms: {GRAPH_SPECS}"
        ));
    };
    match graph {
        None => Err(format!("graph spec {spec:?} is too large to build")),
        Some(g) if g.n() == 0 => Err(format!("graph spec {spec:?} has no vertices")),
        Some(g) => Ok(g),
    }
}

/// The acceptance families' gather leader: the maximum-degree vertex.
pub fn acceptance_leader(g: &Graph) -> usize {
    (0..g.n()).max_by_key(|&v| g.degree(v)).expect("non-empty")
}

/// The executed-decomposition acceptance set: the gather acceptance
/// families zipped with the ε each `build_edt` claim is pinned at. One
/// definition shared by the `edt` report section (hence the CI-gated
/// `BENCH_edt.json` baselines) and the integration tests, so they can never
/// drift onto different instances.
pub fn edt_acceptance_families() -> Vec<(&'static str, Graph, f64)> {
    let eps = [
        ("tri-grid-8x8", 0.3),
        ("wheel-64", 0.4),
        ("hypercube-6", 0.3),
    ];
    let families = acceptance_families();
    assert_eq!(
        families.len(),
        eps.len(),
        "a new acceptance family needs an ε pin here"
    );
    families
        .into_iter()
        .zip(eps)
        .map(|((name, g), (pinned, e))| {
            assert_eq!(
                name, pinned,
                "acceptance families reordered under the ε pins"
            );
            (name, g, e)
        })
        .collect()
}

/// The walk-schedule planning parameters used on the acceptance families:
/// tighter caps than the library defaults keep the leader-local seed search
/// cheap; metered and executed share the resulting plan, so differentials
/// are unaffected.
pub fn acceptance_walk_params() -> WalkParams {
    WalkParams {
        max_seed_tries: 6,
        max_walks_per_message: 16,
        max_steps: 256,
        ..WalkParams::default()
    }
}

/// A simple markdown table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.into(),
        }
    }

    /// Adds a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Renders the table as markdown.
    pub(crate) fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("\n### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn families_are_nonempty_and_connected() {
        for (name, g) in acceptance_families() {
            assert!(g.n() > 0 && g.is_connected(), "{name}");
            assert_eq!(parse_graph(name), Ok(g), "{name}");
        }
        let err = parse_graph("k5").unwrap_err();
        assert!(err.contains("\"k5\"") && err.contains(GRAPH_SPECS), "{err}");
    }

    #[test]
    fn graph_specs_parse_and_reject() {
        for spec in ["mesh-8x9", "rmat-6-ef4", "power-law-2^8", "tri-grid-5x5"] {
            assert!(parse_graph(spec).is_ok(), "{spec}");
        }
        assert_eq!(parse_graph("wheel-12").unwrap().n(), 12);
        assert_eq!(parse_graph("hypercube-3").unwrap().m(), 12);
        for spec in ["mesh-8", "banana", "tri-grid-5", "wheel-x", "rmat-6"] {
            assert!(parse_graph(spec).unwrap_err().contains("accepted forms"));
        }
        // Degenerate and overflowing sizes are errors, never a panic or a
        // wrapped shift.
        for spec in [
            "mesh-0x0",
            "tri-grid-0x3",
            "wheel-3",
            "power-law-2^64",
            "power-law-2^63",
            "hypercube-64",
            "rmat-64-ef1",
            "mesh-4294967296x4294967296",
        ] {
            let err = parse_graph(spec).unwrap_err();
            assert!(err.contains(&format!("{spec:?}")), "{err}");
        }
    }
}
