//! Shared helpers for the benchmark harness: workload definitions and markdown table
//! formatting used by both the criterion benches and the `report` binary.
//!
//! Every experiment of the README's "Benchmarks and reports" section is regenerated either by
//! a bench target in `benches/` (which prints its table before the timing loops, so
//! `cargo bench` output contains the measured series) or by the `report` binary
//! (`cargo run --release -p mfd-bench --bin report`), which prints every table.
//!
//! A guided tour of this crate's role in the workspace lives in
//! `docs/ARCHITECTURE.md` (section "mfd-bench").

use mfd_graph::{generators, Graph};
use mfd_routing::walks::WalkParams;
use mfd_runtime::{ExecutorConfig, ShardedConfig, ShardedExecutor};

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

/// A named workload instance.
pub struct Workload {
    /// Short name used in table rows.
    pub name: String,
    /// The graph.
    pub graph: Graph,
}

impl Workload {
    /// Creates a workload.
    pub fn new(name: impl Into<String>, graph: Graph) -> Self {
        Workload {
            name: name.into(),
            graph,
        }
    }
}

/// Bounded-degree planar family (triangulated grids) at the given side lengths.
pub fn bounded_degree_family(sides: &[usize]) -> Vec<Workload> {
    sides
        .iter()
        .map(|&s| {
            Workload::new(
                format!("tri-grid-{s}x{s}"),
                generators::triangulated_grid(s, s),
            )
        })
        .collect()
}

/// Unbounded-degree planar family: random Apollonian networks (maximum degree grows
/// with n) and wheels.
pub fn unbounded_degree_family(sizes: &[usize]) -> Vec<Workload> {
    let mut v: Vec<Workload> = sizes
        .iter()
        .map(|&n| {
            Workload::new(
                format!("apollonian-{n}"),
                generators::random_apollonian(n, 0xA11),
            )
        })
        .collect();
    v.extend(
        sizes
            .iter()
            .map(|&n| Workload::new(format!("wheel-{n}"), generators::wheel(n.max(8)))),
    );
    v
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
    pub fn to_markdown(&self) -> String {
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
        for w in bounded_degree_family(&[6, 8]) {
            assert!(w.graph.is_connected());
        }
        for w in unbounded_degree_family(&[50]) {
            assert!(w.graph.is_connected());
        }
    }
}
