//! The (ε, D, T)-decomposition of Theorem 1.1.
//!
//! An `(ε, D, T)`-decomposition consists of a partition into clusters with at most
//! `ε|E|` crossing edges, cluster diameter at most `D`, a leader per cluster, and a
//! routing algorithm `A` that lets every vertex `v` of a cluster send `deg(v)`
//! messages to the leader (and receive answers back) in `T` rounds, in parallel over
//! all clusters.
//!
//! The construction follows the paper's architecture (Lemmas 5.3–5.5):
//!
//! 1. **Bottom-up merging** (Lemma 5.3): starting from singletons, repeatedly run the
//!    heavy-stars algorithm on the cluster graph — the per-cluster information needed
//!    by heavy-stars (the heaviest incident cluster) is obtained with an in-cluster
//!    gather — and merge the surviving stars after dropping light links.
//!    Each iteration reduces the inter-cluster edge fraction by a constant factor.
//! 2. **Leader refinement** (Lemmas 5.4/5.5): when cluster diameters exceed the
//!    `O(1/ε)` target, every leader gathers its cluster topology, locally computes a
//!    low-diameter decomposition of the cluster (Lemma 3.1 / `chop_ldd`), and
//!    distributes the refined assignment. Refinements spend a dedicated ε/2 budget of
//!    additional crossing edges, so the final fraction stays below ε.
//! 3. **Routing setup**: each cluster elects its maximum-degree vertex as leader and
//!    the routing algorithm `A` (BFS-tree pipeline, load balancing, or derandomized
//!    walk schedule, per configuration) is executed once to measure `T`.
//!
//! # Backend selection: charged vs executed rounds
//!
//! Every round of the construction is obtained through an [`EdtBackend`] —
//! the [`mfd_routing::backend::GatherBackend`] abstraction extended with the
//! cluster-graph-round realization the merging phase needs:
//!
//! * [`Metered`] ([`build_edt`]'s default): in-cluster gathers charge the
//!   paper's bounds via [`mfd_routing::gather::gather_to_leader`], and each
//!   cluster-graph round of heavy-stars charges `2(D + 1)` rounds (word
//!   down, boundary exchange, aggregate up). Centralized, cheap, and the
//!   executed mode's oracle.
//! * [`Executed`] ([`build_edt_with`]): every gather runs as a real
//!   [`mfd_runtime::NodeProgram`] — each phase hands the backend the clusters
//!   it has already induced ([`GatherJob`]), the backend selects a strategy
//!   per cluster ([`mfd_routing::programs::select_strategy_program`]) and
//!   runs the selected programs on one engine, all clusters of the phase in
//!   parallel ([`mfd_runtime::run_each`]) or one after the other on the
//!   `mfd-sim` event engine — and each cluster-graph round executes a
//!   [`ClusterRoundProgram`] on the whole graph. The synchronous engine
//!   under both is the sharded one ([`mfd_runtime::ShardedExecutor`]), and
//!   every layer reads the one [`Graph`] it was handed: nothing is
//!   converted. No
//!   [`RoundMeter::charge_rounds`] call remains on this path: rounds come
//!   from the engines' meters, and every executed figure is asserted `≤`
//!   the metered charge — always; the check has no switch — demoting the
//!   charged path from product to cross-checked upper bound.
//!
//! Both backends produce the *same clustering* (the clustering decisions are
//! deterministic and never depend on how rounds are accounted), so the modes
//! are differentially comparable end to end; the integration tests pin
//! partition equality, executed ≤ charged, and bit-identical executed runs
//! across the synchronous executor and `Fixed(1)` simulation.
//!
//! All rounds land on the returned [`RoundMeter`]; the phases are recorded so
//! the benchmark harness can report the construction-time/routing-time split of
//! Table 1.

use mfd_congest::RoundMeter;
use mfd_graph::Graph;
use mfd_routing::backend::{Executed, GatherBackend, GatherEngine, GatherJob, Metered};
use mfd_routing::gather::GatherStrategy;
use mfd_runtime::{ShardedConfig, ShardedExecutor};
use mfd_trace::TraceSink;

use crate::cluster_round::ClusterRoundProgram;
use crate::clustering::{max_diameter, Clustering};
use crate::heavy_stars::heavy_stars;
use crate::ldd::chop_ldd;

/// Configuration for [`build_edt`].
#[derive(Debug, Clone)]
pub struct EdtConfig {
    /// Target inter-cluster edge fraction ε ∈ (0, 1).
    pub epsilon: f64,
    /// Arboricity upper bound α of the (minor-free) input family; 3 covers planar
    /// graphs.
    pub alpha: usize,
    /// Chopping depth of the leader-local low-diameter decomposition (3 for planar).
    pub chop_depth: usize,
    /// Diameter target multiplier: clusters are refined once their diameter exceeds
    /// `diameter_slack · chop_depth / ε`.
    pub diameter_slack: usize,
    /// Gathering strategy used by the final routing algorithm `A`.
    pub routing_gather: GatherStrategy,
    /// Gathering strategy used during construction (topology / weight gathers).
    pub construction_gather: GatherStrategy,
    /// Failure fraction `f` handed to the expander gatherers.
    pub failure_fraction: f64,
    /// Maximum number of merge iterations.
    pub max_iterations: usize,
}

impl EdtConfig {
    /// Default configuration for a given ε: planar-grade constants, tree-pipeline
    /// routing.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must lie in (0, 1)");
        EdtConfig {
            epsilon,
            alpha: 3,
            chop_depth: 3,
            diameter_slack: 6,
            routing_gather: GatherStrategy::TreePipeline,
            construction_gather: GatherStrategy::TreePipeline,
            failure_fraction: 0.05,
            max_iterations: 80,
        }
    }

    /// Sets the routing strategy used by the final routing algorithm `A`.
    pub fn with_routing_gather(mut self, strategy: GatherStrategy) -> Self {
        self.routing_gather = strategy;
        self
    }

    /// The diameter target `diameter_slack · chop_depth / ε` used to trigger
    /// refinement.
    pub fn diameter_target(&self) -> usize {
        ((self.diameter_slack * self.chop_depth) as f64 / self.epsilon).ceil() as usize
    }
}

/// The metered charge for one cluster-graph round on clusters of diameter at
/// most `max_diam`: the leader word floods down (≤ `D` rounds), crosses the
/// boundary (1), and the foreign aggregate converges back (≤ `D + 1`) —
/// exactly what [`ClusterRoundProgram`]'s `2E + 2 ≤ 2(D + 1)` schedule
/// executes.
pub fn cluster_round_charge(max_diam: u64) -> u64 {
    2 * (max_diam + 1)
}

/// Inputs of one cluster-graph-round realization: the current clustering
/// with a leader and an O(log n)-bit word per cluster, plus the diameter
/// bound the metered charge is computed from.
#[derive(Debug)]
pub struct ClusterRoundSpec<'a> {
    /// The current partition.
    pub clustering: &'a Clustering,
    /// Leader vertex per cluster.
    pub leaders: &'a [usize],
    /// The word each leader disseminates.
    pub words: &'a [u64],
    /// Maximum induced cluster diameter (the `D` of the charge).
    pub max_diam: u64,
}

/// A gather backend that can also account the merging phase's cluster-graph
/// rounds — everything [`build_edt_with`] needs to obtain rounds.
pub trait EdtBackend: GatherBackend {
    /// Accounts `cg_rounds` cluster-graph rounds (leader word down, boundary
    /// exchange, aggregate up — see [`ClusterRoundProgram`]) on `meter`.
    fn cluster_graph_rounds(
        &self,
        g: &Graph,
        spec: &ClusterRoundSpec<'_>,
        cg_rounds: u64,
        meter: &mut RoundMeter,
    );
}

impl EdtBackend for Metered {
    fn cluster_graph_rounds(
        &self,
        _g: &Graph,
        spec: &ClusterRoundSpec<'_>,
        cg_rounds: u64,
        meter: &mut RoundMeter,
    ) {
        meter.charge_rounds(cg_rounds * cluster_round_charge(spec.max_diam));
    }
}

impl EdtBackend for Executed {
    fn cluster_graph_rounds(
        &self,
        g: &Graph,
        spec: &ClusterRoundSpec<'_>,
        cg_rounds: u64,
        meter: &mut RoundMeter,
    ) {
        if cg_rounds == 0 {
            return;
        }
        let program = ClusterRoundProgram::new(g, spec.clustering, spec.leaders, spec.words);
        let run_meter = match &self.engine {
            GatherEngine::Executor(config) => {
                ShardedExecutor::new(ShardedConfig::per_thread(config))
                    .run(g, &program)
                    .expect("the cluster-round realization is model-compliant")
                    .meter
            }
            GatherEngine::Sim(config) => {
                mfd_sim::Simulator::new(config.clone())
                    .run(g, &program)
                    .expect("the cluster-round realization is model-compliant")
                    .meter
            }
        };
        assert!(
            run_meter.rounds() <= cluster_round_charge(spec.max_diam),
            "cluster round executed {} rounds exceed the charge {}",
            run_meter.rounds(),
            cluster_round_charge(spec.max_diam)
        );
        // Every cluster-graph round runs the same dissemination pattern (only
        // the flooded words differ, which the meter does not see), so one
        // execution measures them all; its accounting is replayed per round.
        for _ in 0..cg_rounds {
            meter.merge_sequential(&run_meter);
        }
    }
}

/// The output of [`build_edt`].
#[derive(Debug, Clone)]
pub struct EdtDecomposition {
    /// The partition into clusters.
    pub clustering: Clustering,
    /// Leader vertex of each cluster (a vertex of the cluster with maximum degree).
    pub leaders: Vec<usize>,
    /// Target ε.
    pub epsilon_target: f64,
    /// Achieved inter-cluster edge fraction.
    pub epsilon_achieved: f64,
    /// Maximum induced cluster diameter (the `D` of the decomposition).
    pub diameter: usize,
    /// Measured routing time `T`: rounds to run the routing algorithm `A` once
    /// (all clusters in parallel).
    pub routing_rounds: u64,
    /// Rounds spent constructing the decomposition (excludes `routing_rounds`).
    pub construction_rounds: u64,
    /// Number of merge iterations executed.
    pub iterations: usize,
    /// Number of refinement passes executed.
    pub refinements: usize,
    /// Name of the routing strategy behind `A`.
    pub routing_strategy: &'static str,
    /// Minimum per-cluster delivered fraction observed when running `A` once.
    pub min_delivered_fraction: f64,
    /// Name of the backend the rounds came from (`"metered"` / `"executed"`).
    pub backend: &'static str,
}

impl EdtDecomposition {
    /// Checks the (ε, D) part of the decomposition: edge fraction within target and
    /// all clusters connected with diameter equal to the recorded value.
    pub fn is_valid(&self, g: &Graph) -> bool {
        self.epsilon_achieved <= self.epsilon_target + 1e-9
            && self.clustering.all_clusters_connected(g)
            && self.clustering.edge_fraction(g) <= self.epsilon_target + 1e-9
    }
}

/// Builds an (ε, D, T)-decomposition of `g` with [`Metered`] round accounting
/// and returns it together with the meter holding the full round accounting
/// (construction phases plus one execution of the routing algorithm).
///
/// # Example
///
/// ```
/// use mfd_core::edt::{build_edt, EdtConfig};
/// use mfd_graph::generators;
///
/// let g = generators::grid(10, 10);
/// let (d, meter) = build_edt(&g, &EdtConfig::new(0.3));
/// assert!(d.epsilon_achieved <= 0.3);
/// assert!(d.is_valid(&g));
/// assert!(meter.rounds() >= d.routing_rounds);
/// ```
pub fn build_edt(g: &Graph, config: &EdtConfig) -> (EdtDecomposition, RoundMeter) {
    build_edt_with(g, config, &Metered)
}

/// Builds an (ε, D, T)-decomposition with an explicit [`EdtBackend`] — pass
/// [`Metered`] for charged bounds or an [`Executed`] backend to run every
/// gather and cluster-graph round as a real program on an engine.
///
/// # Example
///
/// ```
/// use mfd_core::edt::{build_edt, build_edt_with, EdtConfig};
/// use mfd_graph::generators;
/// use mfd_routing::backend::Executed;
///
/// let g = generators::triangulated_grid(8, 8);
/// let config = EdtConfig::new(0.3);
/// let (metered, charged) = build_edt(&g, &config);
/// let (executed, spent) = build_edt_with(&g, &config, &Executed::default());
/// assert_eq!(metered.clustering, executed.clustering); // same decomposition
/// assert!(spent.rounds() <= charged.rounds()); // executed within the charge
/// ```
pub fn build_edt_with<B: EdtBackend>(
    g: &Graph,
    config: &EdtConfig,
    backend: &B,
) -> (EdtDecomposition, RoundMeter) {
    build_edt_traced(g, config, backend, &mut ())
}

/// Exists only for `perf/`, which calls [`build_edt_with`] by this name; the
/// next benchmark-only change deletes it.
pub fn build_edt_csr<B: EdtBackend>(
    g: &Graph,
    config: &EdtConfig,
    backend: &B,
) -> (EdtDecomposition, RoundMeter) {
    build_edt_with(g, config, backend)
}

/// [`build_edt_with`] with phase observability: every merge iteration,
/// refinement pass and the routing-`A` execution is bracketed by a span on
/// `sink` (`"merge"` / `"refine"` / `"routing"`, mirroring the meter's phase
/// records) carrying the rounds and messages that phase charged, and the
/// routing gathers emit one [`mfd_trace::Event::ClusterRun`] per cluster via
/// [`GatherBackend::gather_all_traced`].
///
/// `&mut ()` is the no-op sink; `build_edt_with` is exactly that call, so
/// tracing changes nothing about the decomposition or the accounting.
pub fn build_edt_traced<B: EdtBackend>(
    g: &Graph,
    config: &EdtConfig,
    backend: &B,
    sink: &mut dyn TraceSink,
) -> (EdtDecomposition, RoundMeter) {
    let mut meter = RoundMeter::new();
    let eps = config.epsilon;
    let merge_target = eps / 2.0;
    let mut refine_budget = eps / 2.0;
    let d_target = config.diameter_target();

    let mut clustering = Clustering::singletons(g);
    // The current clustering's per-cluster diameters: measured once after
    // every merge and every refinement, and read everywhere else.
    let mut diameters: Vec<Option<usize>> = vec![Some(0); g.n()];
    let mut iterations = 0usize;
    let mut refinements = 0usize;

    if g.m() > 0 {
        // ---- Phase 1 + 2: merging with interleaved diameter control. ----
        loop {
            let fraction = clustering.edge_fraction(g);
            if fraction <= merge_target || iterations >= config.max_iterations {
                break;
            }
            iterations += 1;
            meter.start_phase("merge");
            sink.span_open("merge");
            let spent = (meter.rounds(), meter.messages());
            let before = clustering.inter_cluster_edges(g);
            clustering = merge_step(
                g,
                &clustering,
                &diameters,
                fraction,
                config,
                backend,
                &mut meter,
            );
            let after = clustering.inter_cluster_edges(g);
            meter.end_phase();
            sink.span_close(
                "merge",
                meter.rounds() - spent.0,
                meter.messages() - spent.1,
            );
            diameters = clustering.cluster_diameters(g);
            if after >= before {
                // No progress is possible (e.g. every remaining link is light).
                break;
            }

            // Diameter control: refine clusters that grew beyond the O(1/ε) target.
            let max_diam = max_diameter(&diameters).unwrap_or(usize::MAX);
            if max_diam > d_target && refine_budget > eps / 4.0 {
                let this_budget = refine_budget / 2.0;
                refine_budget -= this_budget;
                meter.start_phase("refine");
                sink.span_open("refine");
                let spent = (meter.rounds(), meter.messages());
                clustering = refine_step(
                    g,
                    &clustering,
                    &diameters,
                    this_budget,
                    config,
                    backend,
                    &mut meter,
                );
                meter.end_phase();
                sink.span_close(
                    "refine",
                    meter.rounds() - spent.0,
                    meter.messages() - spent.1,
                );
                diameters = clustering.cluster_diameters(g);
                refinements += 1;
            }
        }

        // ---- Final refinement: enforce the diameter target with the remaining
        // budget. ----
        let max_diam = max_diameter(&diameters).unwrap_or(usize::MAX);
        if max_diam > d_target && refine_budget > 0.0 {
            meter.start_phase("refine");
            sink.span_open("refine");
            let spent = (meter.rounds(), meter.messages());
            clustering = refine_step(
                g,
                &clustering,
                &diameters,
                refine_budget,
                config,
                backend,
                &mut meter,
            );
            meter.end_phase();
            sink.span_close(
                "refine",
                meter.rounds() - spent.0,
                meter.messages() - spent.1,
            );
            diameters = clustering.cluster_diameters(g);
            refinements += 1;
        }
    }

    let construction_rounds = meter.rounds();

    // ---- Routing setup: leaders + one execution of the routing algorithm. ----
    meter.start_phase("routing");
    sink.span_open("routing");
    let spent = (meter.rounds(), meter.messages());
    let mut leaders = Vec::with_capacity(clustering.num_clusters());
    let mut jobs: Vec<GatherJob> = Vec::new();
    for members in clustering.clusters() {
        let leader = (0..members.len())
            .max_by_key(|&i| (g.degree(members[i]), members[i]))
            .expect("non-empty cluster");
        leaders.push(members[leader]);
        if members.len() > 1 {
            let (cluster, _) = g.induced_subgraph(members);
            jobs.push(GatherJob { cluster, leader });
        }
    }
    let reports = backend.gather_all_traced(
        &jobs,
        config.failure_fraction,
        &config.routing_gather,
        &mut meter,
        sink,
    );
    let mut min_delivered: f64 = 1.0;
    let mut strategy_name = "tree-pipeline";
    for report in &reports {
        strategy_name = report.strategy;
        min_delivered = min_delivered.min(report.delivered_fraction);
    }
    meter.end_phase();
    sink.span_close(
        "routing",
        meter.rounds() - spent.0,
        meter.messages() - spent.1,
    );
    let routing_rounds = meter.rounds() - construction_rounds;

    let epsilon_achieved = clustering.edge_fraction(g);
    let diameter = max_diameter(&diameters).unwrap_or(usize::MAX);
    (
        EdtDecomposition {
            clustering,
            leaders,
            epsilon_target: eps,
            epsilon_achieved,
            diameter,
            routing_rounds,
            construction_rounds,
            iterations,
            refinements,
            routing_strategy: strategy_name,
            min_delivered_fraction: min_delivered,
            backend: backend.name(),
        },
        meter,
    )
}

/// One heavy-stars merge step (Lemma 5.3): gathers the per-cluster neighbour weights,
/// runs heavy-stars on the cluster graph, drops light links and merges. The gathers
/// and the cluster-graph rounds all go through `backend`; `diameters` are the
/// clustering's per-cluster diameters (the `D` the cluster-graph rounds are charged
/// by).
fn merge_step<B: EdtBackend>(
    g: &Graph,
    clustering: &Clustering,
    diameters: &[Option<usize>],
    fraction: f64,
    config: &EdtConfig,
    backend: &B,
    meter: &mut RoundMeter,
) -> Clustering {
    let alpha = config.alpha.max(1) as f64;
    // Information gathering inside every non-singleton cluster so its leader can pick
    // the heaviest incident cluster (step 1 of heavy-stars). Runs in parallel. The
    // same per-cluster leaders anchor the cluster-graph rounds below.
    let mut jobs: Vec<GatherJob> = Vec::new();
    let mut leaders: Vec<usize> = Vec::with_capacity(clustering.num_clusters());
    for members in clustering.clusters() {
        if members.len() <= 1 {
            leaders.push(members[0]);
            continue;
        }
        let (cluster, _) = g.induced_subgraph(members);
        let leader = (0..cluster.n())
            .max_by_key(|&v| cluster.degree(v))
            .unwrap_or(0);
        leaders.push(members[leader]);
        if cluster.m() > 0 {
            jobs.push(GatherJob { cluster, leader });
        }
    }
    backend.gather_all(
        &jobs,
        config.failure_fraction,
        &config.construction_gather,
        meter,
    );

    let wg = clustering.cluster_graph(g);
    let hs = heavy_stars(&wg);
    let max_diam = max_diameter(diameters).unwrap_or(0) as u64;
    // Cole–Vishkin + star formation run on the cluster graph; each cluster-graph
    // round is realized (or charged) as one word-down / boundary-exchange /
    // aggregate-up cycle over the current clusters. The `+ 1` is steps 3–4:
    // disseminating and acknowledging the merge decisions below costs one
    // more cluster-graph round.
    let words: Vec<u64> = leaders.iter().map(|&l| l as u64).collect();
    let spec = ClusterRoundSpec {
        clustering,
        leaders: &leaders,
        words: &words,
        max_diam,
    };
    backend.cluster_graph_rounds(g, &spec, hs.cluster_graph_rounds + 1, meter);

    // Light-link filtering (Lemma 5.3, step 3): a leaf joins its star center only if
    // the connection is heavier than (ε'/32α)·vol(S).
    let threshold = fraction / (32.0 * alpha);
    let mut group: Vec<usize> = (0..clustering.num_clusters()).collect();
    for star in &hs.stars {
        for &leaf in &star.leaves {
            let weight = wg.weight(leaf, star.center) as f64;
            let vol: f64 = clustering
                .members(leaf)
                .iter()
                .map(|&v| g.degree(v) as f64)
                .sum();
            if weight > threshold * vol {
                group[leaf] = star.center;
            }
        }
    }
    clustering.merge_groups(&group)
}

/// One refinement step (Lemmas 5.4/5.5): every over-diameter cluster leader gathers
/// the cluster topology, computes a low-diameter decomposition locally with the given
/// edge budget, and distributes the new assignment (the distribution rides the
/// gather's echo phase, which both backends account). `diameters` are the
/// clustering's per-cluster diameters; a cluster is over-diameter past
/// [`EdtConfig::diameter_target`].
fn refine_step<B: EdtBackend>(
    g: &Graph,
    clustering: &Clustering,
    diameters: &[Option<usize>],
    edge_budget: f64,
    config: &EdtConfig,
    backend: &B,
    meter: &mut RoundMeter,
) -> Clustering {
    let d_target = config.diameter_target();
    let mut sub_label = vec![0usize; g.n()];
    let mut jobs: Vec<GatherJob> = Vec::new();
    for (c, &diam) in diameters.iter().enumerate() {
        let members = clustering.members(c);
        if members.len() <= 1 {
            continue;
        }
        if diam.unwrap_or(usize::MAX) <= d_target {
            continue;
        }
        let (cluster, _) = g.induced_subgraph(members);
        let leader = (0..cluster.n())
            .max_by_key(|&v| cluster.degree(v))
            .unwrap_or(0);
        // The leader-local refinement is free computation; only the gather
        // (topology up, assignment back down) costs rounds.
        let local = chop_ldd(&cluster, edge_budget.max(1e-6), config.chop_depth);
        for (i, &orig) in members.iter().enumerate() {
            sub_label[orig] = local.cluster_of(i) + 1;
        }
        jobs.push(GatherJob { cluster, leader });
    }
    backend.gather_all(
        &jobs,
        config.failure_fraction,
        &config.construction_gather,
        meter,
    );
    clustering.refine(g, &sub_label).split_into_components(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_routing::load_balance::LoadBalanceParams;
    use mfd_routing::walks::WalkParams;

    fn check(g: &Graph, eps: f64) -> (EdtDecomposition, RoundMeter) {
        let (d, meter) = build_edt(g, &EdtConfig::new(eps));
        assert!(
            d.epsilon_achieved <= eps + 1e-9,
            "achieved {} target {}",
            d.epsilon_achieved,
            eps
        );
        assert!(d.is_valid(g), "decomposition invalid");
        assert_eq!(d.leaders.len(), d.clustering.num_clusters());
        for (c, &leader) in d.leaders.iter().enumerate() {
            assert_eq!(d.clustering.cluster_of(leader), c);
        }
        assert!(meter.rounds() >= d.construction_rounds + d.routing_rounds);
        assert_eq!(d.backend, "metered");
        (d, meter)
    }

    #[test]
    fn grid_decomposes_within_budget() {
        let g = generators::grid(12, 12);
        let (d, _) = check(&g, 0.3);
        assert!(d.clustering.num_clusters() < g.n());
        assert!(
            d.diameter
                <= EdtConfig::new(0.3)
                    .diameter_target()
                    .max(g.diameter().unwrap())
        );
    }

    #[test]
    fn triangulated_grid_decomposes_within_budget() {
        let g = generators::triangulated_grid(10, 10);
        check(&g, 0.25);
    }

    #[test]
    fn apollonian_decomposes_within_budget() {
        let g = generators::random_apollonian(200, 5);
        check(&g, 0.3);
    }

    #[test]
    fn wheel_with_unbounded_degree_decomposes() {
        let g = generators::wheel(100);
        let (d, _) = check(&g, 0.4);
        assert!(d.min_delivered_fraction > 0.99);
    }

    #[test]
    fn tree_decomposes_with_tiny_epsilon() {
        let g = generators::random_tree(200, 9);
        let (d, _) = check(&g, 0.1);
        assert!(d.diameter <= EdtConfig::new(0.1).diameter_target());
    }

    /// [`Metered`], asserting that every cluster-graph round is charged by the
    /// current clustering's freshly measured maximum diameter.
    struct FreshDiameters;

    impl GatherBackend for FreshDiameters {
        fn name(&self) -> &'static str {
            Metered.name()
        }

        fn gather(
            &self,
            cluster: &Graph,
            leader: usize,
            f: f64,
            strategy: &GatherStrategy,
            meter: &mut RoundMeter,
        ) -> mfd_routing::gather::GatherReport {
            Metered.gather(cluster, leader, f, strategy, meter)
        }
    }

    impl EdtBackend for FreshDiameters {
        fn cluster_graph_rounds(
            &self,
            g: &Graph,
            spec: &ClusterRoundSpec<'_>,
            cg_rounds: u64,
            meter: &mut RoundMeter,
        ) {
            let fresh = spec.clustering.max_cluster_diameter(g);
            assert_eq!(spec.max_diam, fresh.unwrap_or(0) as u64, "a stale diameter");
            Metered.cluster_graph_rounds(g, spec, cg_rounds, meter);
        }
    }

    /// The construction measures each clustering's diameters once and carries
    /// them through merges and refinements. The instance refines inside the
    /// merge loop, merges again, and refines once more at the end, and both
    /// refinements split clusters: every merge must be charged by the fresh
    /// diameter, the returned `diameter` must be a fresh measurement's, the
    /// accounting must be the one of re-measuring every clustering (876
    /// rounds, 26 176 messages, 48 clusters of diameter 7), and the executed
    /// backend must still reproduce the metered partition.
    #[test]
    fn carried_diameters_stay_exact_through_refinement() {
        let g = generators::triangulated_grid(20, 20);
        // Refinement cuts a cluster only past its band width `4 · chop_depth / ε`,
        // so a shallow chop and a low target make both refinements split.
        let config = EdtConfig {
            chop_depth: 1,
            diameter_slack: 2,
            ..EdtConfig::new(0.8)
        };
        let (metered, charged) = build_edt(&g, &config);
        assert_eq!((metered.iterations, metered.refinements), (4, 2));
        assert_eq!(
            Some(metered.diameter),
            metered.clustering.max_cluster_diameter(&g)
        );
        assert_eq!(
            (metered.clustering.num_clusters(), metered.diameter),
            (48, 7)
        );
        assert_eq!((charged.rounds(), charged.messages()), (876, 26_176));
        let (checked, checked_meter) = build_edt_with(&g, &config, &FreshDiameters);
        assert_eq!(checked.clustering, metered.clustering);
        assert_eq!(checked_meter.rounds(), charged.rounds());
        let (executed, spent) = build_edt_with(&g, &config, &Executed::default());
        assert_eq!(executed.clustering, metered.clustering);
        assert_eq!(executed.diameter, metered.diameter);
        assert_eq!(
            (executed.iterations, executed.refinements),
            (metered.iterations, metered.refinements)
        );
        assert!(spent.rounds() <= charged.rounds());
    }

    #[test]
    fn smaller_epsilon_gives_larger_diameter_or_equal() {
        let g = generators::grid(16, 16);
        let (coarse, _) = build_edt(&g, &EdtConfig::new(0.5));
        let (fine, _) = build_edt(&g, &EdtConfig::new(0.1));
        assert!(fine.epsilon_achieved <= 0.1 + 1e-9);
        assert!(coarse.epsilon_achieved <= 0.5 + 1e-9);
        assert!(fine.diameter + 2 >= coarse.diameter);
    }

    #[test]
    fn routing_strategies_all_work() {
        let g = generators::triangulated_grid(8, 8);
        for strategy in [
            GatherStrategy::TreePipeline,
            GatherStrategy::LoadBalance(LoadBalanceParams::default()),
            GatherStrategy::WalkSchedule(WalkParams::default()),
        ] {
            let config = EdtConfig::new(0.3).with_routing_gather(strategy);
            let (d, meter) = build_edt(&g, &config);
            assert!(d.epsilon_achieved <= 0.3 + 1e-9);
            assert!(meter.rounds() > 0);
            assert!(d.routing_rounds > 0);
        }
    }

    #[test]
    fn edgeless_graph_is_trivially_decomposed() {
        let g = Graph::new(7);
        let (d, meter) = build_edt(&g, &EdtConfig::new(0.2));
        assert_eq!(d.clustering.num_clusters(), 7);
        assert_eq!(d.epsilon_achieved, 0.0);
        assert_eq!(meter.rounds(), 0);
    }

    #[test]
    fn construction_rounds_grow_mildly_with_size() {
        let small = generators::grid(8, 8);
        let large = generators::grid(20, 20);
        let (ds, _) = build_edt(&small, &EdtConfig::new(0.3));
        let (dl, _) = build_edt(&large, &EdtConfig::new(0.3));
        // Rounds are dominated by the per-iteration cluster work, which scales with
        // the O(1/ε) cluster diameter, not with n; allow generous slack.
        assert!(dl.construction_rounds < 50 * ds.construction_rounds.max(1));
    }

    #[test]
    fn executed_backend_reproduces_the_metered_partition_within_the_charge() {
        for (g, eps) in [
            (generators::triangulated_grid(8, 8), 0.3),
            (generators::wheel(64), 0.4),
            (generators::hypercube(6), 0.3),
        ] {
            let config = EdtConfig::new(eps);
            let (metered, charged) = build_edt(&g, &config);
            let (executed, spent) = build_edt_with(&g, &config, &Executed::default());
            assert_eq!(executed.backend, "executed");
            assert!(executed.is_valid(&g));
            assert_eq!(metered.clustering, executed.clustering);
            assert_eq!(metered.leaders, executed.leaders);
            assert_eq!(metered.iterations, executed.iterations);
            assert_eq!(metered.refinements, executed.refinements);
            assert!(
                spent.rounds() <= charged.rounds(),
                "executed {} rounds exceed the metered {} (n={})",
                spent.rounds(),
                charged.rounds(),
                g.n()
            );
            assert!(
                executed.construction_rounds <= metered.construction_rounds,
                "construction: executed {} > metered {}",
                executed.construction_rounds,
                metered.construction_rounds
            );
            assert!(executed.routing_rounds <= metered.routing_rounds);
        }
    }

    #[test]
    fn executed_backend_runs_identically_on_both_engines() {
        let g = generators::triangulated_grid(8, 8);
        let config = EdtConfig::new(0.3);
        let (a, ma) = build_edt_with(&g, &config, &Executed::default());
        let (b, mb) = build_edt_with(&g, &config, &Executed::sim(mfd_sim::SimConfig::default()));
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.leaders, b.leaders);
        assert_eq!(ma.rounds(), mb.rounds());
        assert_eq!(ma.messages(), mb.messages());
        assert_eq!(a.routing_rounds, b.routing_rounds);
        assert_eq!(a.construction_rounds, b.construction_rounds);
        assert_eq!(a.min_delivered_fraction, b.min_delivered_fraction);
    }

    /// The fixtures of `cluster_round.rs`: (graph, columns, block side).
    fn cluster_round_fixtures() -> Vec<(Graph, usize, usize)> {
        vec![
            (generators::triangulated_grid(8, 8), 8, 2),
            (generators::grid(6, 9), 9, 3),
            (generators::triangulated_grid(6, 6), 6, 2),
        ]
    }

    #[test]
    fn executed_cluster_graph_rounds_meter_what_either_reference_engine_meters() {
        use mfd_runtime::{Executor, ExecutorConfig};
        use mfd_sim::{LatencyModel, SimConfig, Simulator};
        for (g, cols, block) in cluster_round_fixtures() {
            let (clustering, leaders, words) = crate::cluster_round::tests::blocks(&g, cols, block);
            let program = ClusterRoundProgram::new(&g, &clustering, &leaders, &words);
            let reference = Executor::new(ExecutorConfig::default())
                .run(&g, &program)
                .unwrap()
                .meter;
            let sim_config =
                SimConfig::matching(&ExecutorConfig::default(), LatencyModel::Fixed(1));
            let simulated = Simulator::new(sim_config.clone())
                .run(&g, &program)
                .unwrap()
                .meter;
            let figures = |m: &RoundMeter| (m.rounds(), m.messages(), m.max_words_on_edge());
            assert_eq!(figures(&reference), figures(&simulated));

            let spec = ClusterRoundSpec {
                clustering: &clustering,
                leaders: &leaders,
                words: &words,
                max_diam: clustering.max_cluster_diameter(&g).unwrap() as u64,
            };
            for backend in [
                Executed::default(),
                Executed::executor(ExecutorConfig::with_threads(1)),
                Executed::executor(ExecutorConfig::with_threads(4)),
                Executed::sim(sim_config.clone()),
            ] {
                let mut once = RoundMeter::new();
                backend.cluster_graph_rounds(&g, &spec, 1, &mut once);
                assert_eq!(figures(&once), figures(&reference));
                // Further rounds replay the one execution's accounting.
                let mut thrice = RoundMeter::new();
                backend.cluster_graph_rounds(&g, &spec, 3, &mut thrice);
                assert_eq!(
                    figures(&thrice),
                    (
                        3 * reference.rounds(),
                        3 * reference.messages(),
                        reference.max_words_on_edge()
                    )
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceed the charge")]
    fn a_too_small_diameter_bound_trips_the_cluster_round_charge_check() {
        let g = generators::triangulated_grid(8, 8);
        let (clustering, leaders, words) = crate::cluster_round::tests::blocks(&g, 8, 2);
        // 2x2 blocks have diameter 1 and run 2E + 2 = 4 rounds; a claimed
        // diameter of 0 charges only 2.
        let spec = ClusterRoundSpec {
            clustering: &clustering,
            leaders: &leaders,
            words: &words,
            max_diam: 0,
        };
        Executed::default().cluster_graph_rounds(&g, &spec, 1, &mut RoundMeter::new());
    }
}
