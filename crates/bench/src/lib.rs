//! Shared helpers for the `report`, `replay`, `divergence` and `profile`
//! binaries: the acceptance families every gated claim is pinned on, and
//! markdown table formatting.
//!
//! Every experiment of the README's "Benchmarks and reports" section is a
//! `report` section (`cargo run --release -p mfd-bench --bin report`, which
//! prints every table); wall-clock timings are the `perf/` harness's job.
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-bench").

use mfd_graph::{generators, Graph};
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

/// The acceptance family called `name`; the error lists the valid names.
pub fn acceptance_family(name: &str) -> Result<Graph, String> {
    let families = acceptance_families();
    let names: Vec<&str> = families.iter().map(|(n, _)| *n).collect();
    let valid = names.join(", ");
    families
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, g)| g)
        .ok_or_else(|| format!("unknown graph family {name:?}; valid families: {valid}"))
}

/// How a command-line run that cannot go on ends, as its exit code.
#[derive(Debug, Clone, Copy)]
pub enum Exit {
    /// Input data that does not load or fit (a corrupt or truncated
    /// journal, an unparsable label, a checkpoint for another graph), or a
    /// run that fails the check it was asked for.
    Data = 1,
    /// A malformed command line.
    Usage = 2,
}

impl Exit {
    /// Prints `error: {msg}` to stderr and exits with this code.
    pub fn fail(self, msg: impl std::fmt::Display) -> ! {
        eprintln!("error: {msg}");
        std::process::exit(self as i32)
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
            assert_eq!(acceptance_family(name).unwrap().m(), g.m(), "{name}");
        }
        let err = acceptance_family("k5").unwrap_err();
        assert!(err.contains("\"k5\"") && err.contains("tri-grid-8x8, wheel-64, hypercube-6"));
    }
}
