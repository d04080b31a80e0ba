//! The seven workloads. Each is one instance plus one public call of the
//! workspace; `README.md` in this directory says which layer each isolates
//! and which open ROADMAP item it is there to show.

use std::hash::Hash;
use std::time::Instant;

use mfd_core::edt::{build_edt, build_edt_csr, build_edt_traced, EdtConfig};
use mfd_core::programs::{BfsProgram, VoronoiLddProgram, VoronoiState};
use mfd_graph::{gen, CsrGraph, Graph};
use mfd_prof::Profile;
use mfd_routing::backend::Executed;
use mfd_runtime::profile::{
    PHASE_COMMIT, PHASE_DELIVER, PHASE_EXCHANGE, PHASE_ROUTE, PHASE_SCAN, PHASE_STEP,
};
use mfd_runtime::{
    ArenaStats, Executor, ExecutorConfig, NodeProgram, RuntimeError, ShardedConfig,
    ShardedExecution, ShardedExecutor,
};
use mfd_sim::{LatencyModel, SimConfig, SimStats, Simulator};
use mfd_trace::{DigestSink, MetricsSink, NullSink};

use crate::harness::{Instance, Iter, Setup, DEFAULT_SEED};
use crate::metrics::{ratio, Values};
use crate::reference::{bfs_matches, checksum, ldd_labels, ldd_matches};

/// Shards of every sharded row (the `report --section scale` layout).
const SHARDS: usize = 64;
/// The ε of the decomposition row.
const EDT_EPSILON: f64 = 0.5;
/// The digest head `benches/baselines.json` gates for the `ldd_mesh` instance.
const LDD_MESH_HEAD: u64 = 0x13ab_0549_bcf5_369a;

/// Instance sizes: the measured ones, or a tenth of them for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn mesh(self, side: usize) -> CsrGraph {
        let side = match self {
            Scale::Full => side,
            Scale::Smoke => side / 10,
        };
        gen::mesh(side, side)
    }

    fn power_law(self) -> CsrGraph {
        let n = match self {
            Scale::Full => 1 << 20,
            Scale::Smoke => 1 << 14,
        };
        gen::power_law(n, 4 * n, 2.5, DEFAULT_SEED)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LddMesh,
    LddMeshT2,
    LddMeshDigest,
    BfsMesh,
    BfsPowerlaw,
    EdtMesh,
    SimLdd,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::LddMesh,
        Workload::LddMeshT2,
        Workload::LddMeshDigest,
        Workload::BfsMesh,
        Workload::BfsPowerlaw,
        Workload::EdtMesh,
        Workload::SimLdd,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LddMesh => "ldd_mesh",
            Workload::LddMeshT2 => "ldd_mesh_t2",
            Workload::LddMeshDigest => "ldd_mesh_digest",
            Workload::BfsMesh => "bfs_mesh",
            Workload::BfsPowerlaw => "bfs_powerlaw",
            Workload::EdtMesh => "edt_mesh",
            Workload::SimLdd => "sim_ldd",
        }
    }

    /// Why the workload exists (the sentence `BENCHMARK.json` records).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LddMesh => {
                "Flagship dense-frontier row, 1 thread: 1000x1000 mesh, Voronoi LDD, 41 fat rounds; \
                 deliver and step dominate, per-round overhead is negligible."
            }
            Workload::LddMeshT2 => {
                "Same instance on 2 threads: a 1-thread gain bought with a longer serial phase \
                 shows here as a loss."
            }
            Workload::LddMeshDigest => {
                "Observer-tax row: ldd_mesh sealed by a DigestSink; an incremental digest shows \
                 here and must not move ldd_mesh."
            }
            Workload::BfsMesh => {
                "Thin-frontier row: 500 rounds each paying an O(n) scan and clear; where \
                 worklists and edge-slot mailboxes show."
            }
            Workload::BfsPowerlaw => {
                "Same engine used the opposite way: 7 fat skewed rounds bypass per-round fixes, \
                 so a per-message tax shows as a loss."
            }
            Workload::EdtMesh => {
                "The paper's (eps, D, T)-decomposition end to end on the adjacency-map Executor; \
                 bypasses the sharded engine."
            }
            Workload::SimLdd => {
                "mfd-sim events per second under uniform 1..5 latencies; touches neither \
                 synchronous engine's round loop."
            }
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the instance `seed` names. The graphs, the BFS root and the
    /// LDD centres are those of `report --section scale` at every seed: the
    /// round and message counts are properties of that structure, and they
    /// are gated as exact (rotating the centres moves `ldd_mesh` between 40
    /// and 57 rounds, another power-law draw moves `bfs_powerlaw` between 7
    /// and 8). The seed moves every engine seed — the per-vertex random
    /// streams and, on `sim_ldd`, the latency drawn for every packet, hence
    /// the order of its events; the states must come out the same.
    pub fn setup(self, seed: u64, scale: Scale) -> Setup {
        let delta = seed ^ DEFAULT_SEED;
        let exec_config = |threads: usize| ExecutorConfig {
            threads,
            seed: ExecutorConfig::default().seed ^ delta,
            ..ExecutorConfig::default()
        };
        let sharded = |threads: usize| {
            ShardedExecutor::new(ShardedConfig::matching(&exec_config(threads), SHARDS))
        };
        let two_threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let t0 = Instant::now();
        match self {
            Workload::LddMesh | Workload::LddMeshT2 | Workload::LddMeshDigest => {
                let g = scale.mesh(1000);
                let gen_s = t0.elapsed().as_secs_f64();
                let centers = centers(g.n(), 1024);
                let program = VoronoiLddProgram::new(g.n(), &centers);
                let threads = if self == Workload::LddMeshT2 {
                    two_threads
                } else {
                    1
                };
                let exec = sharded(threads);
                let setup_s = t0.elapsed().as_secs_f64();
                let expected = ldd_labels(&g, &centers);
                let verify = move |states: &[VoronoiState]| ldd_matches(states, &expected);
                let digest = self == Workload::LddMeshDigest;
                let mut instance = Sharded::new(g, program, exec, digest, digest, Box::new(verify));
                // Checked at the default seed only, so that a change which
                // redefines the chain on purpose and refreshes the baselines
                // still passes at the seeds a driver picks.
                if scale == Scale::Full && seed == DEFAULT_SEED {
                    instance.head = Some(LDD_MESH_HEAD);
                }
                Setup {
                    instance: Box::new(instance),
                    setup_s,
                    gen_s,
                }
            }
            Workload::BfsMesh | Workload::BfsPowerlaw => {
                let mesh = self == Workload::BfsMesh;
                let g = if mesh {
                    scale.mesh(500)
                } else {
                    scale.power_law()
                };
                let gen_s = t0.elapsed().as_secs_f64();
                let program = BfsProgram { root: 0 };
                let exec = sharded(1);
                let setup_s = t0.elapsed().as_secs_f64();
                let expected = g.bfs_distances(0);
                let verify = move |states: &[_]| bfs_matches(states, &expected);
                // The digest's price on a thin frontier is recorded once, here.
                let instance = Sharded::new(g, program, exec, false, mesh, Box::new(verify));
                Setup {
                    instance: Box::new(instance),
                    setup_s,
                    gen_s,
                }
            }
            Workload::EdtMesh => {
                let g = scale.mesh(200);
                let gen_s = t0.elapsed().as_secs_f64();
                let config = EdtConfig::new(EDT_EPSILON);
                let backend = Executed::executor(exec_config(1));
                let setup_s = t0.elapsed().as_secs_f64();
                let graph = g.to_graph();
                Setup {
                    instance: Box::new(Edt {
                        g,
                        graph,
                        config,
                        backend,
                        best_traced: None,
                        clusters: 0,
                        eps_achieved: 0.0,
                    }),
                    setup_s,
                    gen_s,
                }
            }
            Workload::SimLdd => {
                let g = scale.mesh(150);
                let gen_s = t0.elapsed().as_secs_f64();
                let graph = g.to_graph();
                let program = VoronoiLddProgram::new(g.n(), &centers(g.n(), 64));
                let latency = LatencyModel::Uniform { lo: 1, hi: 5 };
                let sim = Simulator::new(SimConfig::matching(&exec_config(1), latency));
                let setup_s = t0.elapsed().as_secs_f64();
                let expected = Executor::new(exec_config(1))
                    .run(&graph, &program)
                    .expect("the LDD program is model-compliant")
                    .states;
                Setup {
                    instance: Box::new(Sim {
                        g,
                        graph,
                        program,
                        sim,
                        expected,
                        last: None,
                    }),
                    setup_s,
                    gen_s,
                }
            }
        }
    }
}

/// `k` centres spread evenly over `0..n`.
fn centers(n: usize, k: usize) -> Vec<usize> {
    (0..k).map(|i| i * n / k).collect()
}

/// Fastest of three executions of `f`, in seconds.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn graph_layers(g: &CsrGraph, out: &mut Values) {
    out.set("graph.n", g.n() as f64);
    out.set("graph.m", g.m() as f64);
    // offsets (n + 1 words) and targets (2m words), as `CsrGraph` stores them.
    let words = g.n() + 1 + 2 * g.m();
    out.set(
        "graph.csr_mb",
        (words * std::mem::size_of::<usize>()) as f64 / (1 << 20) as f64,
    );
}

// ---------------------------------------------------------------------------
// Sharded rows: one `ShardedExecutor` call on a CSR graph
// ---------------------------------------------------------------------------

/// The output check of a sharded row.
type Verify<S> = Box<dyn Fn(&[S]) -> bool>;

struct Sharded<P: NodeProgram> {
    g: CsrGraph,
    program: P,
    exec: ShardedExecutor,
    /// The public call is `run_traced` with a fresh `DigestSink` whose head
    /// is read inside the timed region; otherwise it is `run`.
    digest: bool,
    /// The traced pass also runs the *other* sink, to price the digest.
    digest_tax: bool,
    verify: Verify<P::State>,
    /// The digest head every sealed run must produce: the known one, or
    /// else that of the first sealed run.
    head: Option<u64>,
    arena: ArenaStats,
    /// Fastest profiled execution: its wall and its profile.
    best_profiled: Option<(f64, Profile)>,
    /// Fastest execution with the other sink.
    best_other_sink: f64,
}

impl<P: NodeProgram> Sharded<P>
where
    P::State: Hash,
{
    fn new(
        g: CsrGraph,
        program: P,
        exec: ShardedExecutor,
        digest: bool,
        digest_tax: bool,
        verify: Verify<P::State>,
    ) -> Self {
        Sharded {
            g,
            program,
            exec,
            digest,
            digest_tax,
            verify,
            head: None,
            arena: ArenaStats::default(),
            best_profiled: None,
            best_other_sink: f64::INFINITY,
        }
    }

    /// One timed call; the head (if sealed) is read before the clock stops.
    fn call(
        &self,
        digest: bool,
        profile: Option<&mut Profile>,
    ) -> Result<Timed<P::State>, RuntimeError> {
        let (exec, g, program) = (&self.exec, &self.g, &self.program);
        let t0 = Instant::now();
        let (run, head) = match (digest, profile) {
            (false, None) => (exec.run(g, program), None),
            (false, Some(p)) => (exec.run_profiled(g, program, &mut NullSink, p), None),
            (true, profile) => {
                let mut sink = DigestSink::new();
                let run = match profile {
                    None => exec.run_traced(g, program, &mut sink),
                    Some(p) => exec.run_profiled(g, program, &mut sink, p),
                };
                (run, Some(sink.head()))
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(Timed {
            wall_s,
            run: run?,
            head,
        })
    }
}

/// A sharded call that returned: its wall, its result and its digest head.
struct Timed<S> {
    wall_s: f64,
    run: ShardedExecution<S>,
    head: Option<u64>,
}

impl<P: NodeProgram> Instance for Sharded<P>
where
    P::State: Hash,
{
    fn traced_variants(&self) -> usize {
        2 + usize::from(self.digest_tax)
    }

    fn run(&mut self, variant: usize) -> Iter {
        let mut profile = (variant == 1).then(Profile::new);
        let digest = self.digest != (variant == 2);
        let Timed { wall_s, run, head } = match self.call(digest, profile.as_mut()) {
            Ok(timed) => timed,
            Err(e) => return Iter::failed(&e),
        };
        let t1 = Instant::now();
        let head_repeats = head.is_none_or(|h| {
            let expected = *self.head.get_or_insert(h);
            if h != expected {
                eprintln!("perf: digest head {h:016x}, expected {expected:016x}");
            }
            h == expected
        });
        let ok = head_repeats && (self.verify)(&run.states);
        let checksum = checksum(&run.states);
        let check_s = t1.elapsed().as_secs_f64();
        if ok {
            self.arena = run.arena;
            match (variant, profile) {
                (1, Some(p)) if self.best_profiled.as_ref().is_none_or(|b| wall_s < b.0) => {
                    self.best_profiled = Some((wall_s, p));
                }
                (2, _) => self.best_other_sink = self.best_other_sink.min(wall_s),
                _ => {}
            }
        }
        Iter {
            wall_s,
            check_s,
            rounds: run.rounds,
            messages: run.messages,
            checksum,
            ok,
        }
    }

    fn layers(&self, fastest_s: f64, out: &mut Values) {
        graph_layers(&self.g, out);
        out.set(
            "runtime.mailbox_slots_hwm",
            self.arena.mailbox_slots_hwm as f64,
        );
        out.set("runtime.route_slots_hwm", self.arena.route_slots_hwm as f64);
        if self.digest_tax && self.best_other_sink.is_finite() {
            let (sealed, bare) = if self.digest {
                (fastest_s, self.best_other_sink)
            } else {
                (self.best_other_sink, fastest_s)
            };
            out.set("trace.digest_tax_frac", ratio(sealed, bare) - 1.0);
        }
        let Some((profiled_s, p)) = &self.best_profiled else {
            return;
        };
        out.set("prof.tax_frac", ratio(*profiled_s, fastest_s) - 1.0);
        let ns = p.phase_wall_totals().map(|ns| ns as f64);
        let seal = p.seal_ns_total() as f64;
        let rounds = p.round_count() as f64;
        out.set("runtime.init_s", p.init_ns as f64 / 1e9);
        out.set("runtime.scan_s", ns[PHASE_SCAN] / 1e9);
        out.set("runtime.step_s", ns[PHASE_STEP] / 1e9);
        out.set("runtime.route_s", ns[PHASE_ROUTE] / 1e9);
        out.set("runtime.exchange_s", ns[PHASE_EXCHANGE] / 1e9);
        out.set("runtime.deliver_s", ns[PHASE_DELIVER] / 1e9);
        out.set("runtime.commit_s", ns[PHASE_COMMIT] / 1e9);
        out.set(
            "runtime.ns_per_round",
            ratio(ns[PHASE_SCAN] + ns[PHASE_COMMIT] - seal, rounds),
        );
        out.set(
            "runtime.ns_per_msg",
            ratio(
                ns[PHASE_ROUTE] + ns[PHASE_EXCHANGE] + ns[PHASE_DELIVER],
                p.messages() as f64,
            ),
        );
        out.set("runtime.frontier_total", p.frontier_total() as f64);
        out.set(
            "runtime.ns_per_vertex_step",
            ratio(ns[PHASE_STEP], p.frontier_total() as f64),
        );
        let step = p.phase_stats(PHASE_STEP);
        out.set("runtime.step_occupancy", step.occupancy);
        out.set("runtime.step_imbalance", step.imbalance);
        out.set(
            "runtime.deliver_imbalance",
            p.phase_stats(PHASE_DELIVER).imbalance,
        );
        out.set("runtime.attributed_frac", p.attribution());
        out.set("trace.seal_s", seal / 1e9);
        out.set("trace.ns_per_sealed_round", ratio(seal, rounds));
    }

    fn notes(&self) -> Vec<String> {
        self.head
            .map(|h| format!("digest head {h:016x}"))
            .into_iter()
            .collect()
    }
}

// ---------------------------------------------------------------------------
// edt_mesh: the (ε, D, T)-decomposition, executed
// ---------------------------------------------------------------------------

struct Edt {
    g: CsrGraph,
    /// The converted graph, for validity checks and the traced entry points
    /// (which take a `Graph`); the public call converts for itself.
    graph: Graph,
    config: EdtConfig,
    backend: Executed,
    /// Fastest traced build: its wall and its sink.
    best_traced: Option<(f64, MetricsSink)>,
    clusters: usize,
    eps_achieved: f64,
}

impl Instance for Edt {
    fn traced_variants(&self) -> usize {
        2
    }

    fn run(&mut self, variant: usize) -> Iter {
        let mut sink = MetricsSink::with_wall_clock();
        let t0 = Instant::now();
        let (d, meter) = if variant == 0 {
            build_edt_csr(&self.g, &self.config, &self.backend)
        } else {
            build_edt_traced(&self.graph, &self.config, &self.backend, &mut sink)
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let ok = d.epsilon_achieved <= EDT_EPSILON && d.is_valid(&self.graph);
        let checksum = checksum(d.clustering.labels());
        let check_s = t1.elapsed().as_secs_f64();
        if ok {
            self.clusters = d.clustering.num_clusters();
            self.eps_achieved = d.epsilon_achieved;
            if variant == 1 && self.best_traced.as_ref().is_none_or(|b| wall_s < b.0) {
                self.best_traced = Some((wall_s, sink));
            }
        }
        Iter {
            wall_s,
            check_s,
            rounds: meter.rounds(),
            messages: meter.messages(),
            checksum,
            ok,
        }
    }

    fn layers(&self, fastest_s: f64, out: &mut Values) {
        graph_layers(&self.g, out);
        let to_graph_s = best_of_3(|| self.g.to_graph());
        out.set("graph.to_graph_s", to_graph_s);
        out.set("core.clusters", self.clusters as f64);
        out.set("core.eps_achieved", self.eps_achieved);
        // Leader-local computation alone: the same construction with every
        // gather and cluster round charged instead of executed.
        let mut charged = 0;
        let metered_s = best_of_3(|| charged = build_edt(&self.graph, &self.config).1.rounds());
        out.set("core.metered_s", metered_s);
        out.set("congest.charged_rounds", charged as f64);
        // The traced entry point takes the converted graph, so it is compared
        // with the public call less its conversion.
        let executed_s = fastest_s - to_graph_s;
        out.set("routing.exec_s", executed_s - metered_s);
        let Some((traced_s, sink)) = &self.best_traced else {
            return;
        };
        out.set("prof.tax_frac", ratio(*traced_s, executed_s) - 1.0);
        let span_s = |name: &str| {
            sink.spans
                .iter()
                .filter(|s| s.name == name)
                .fold(0.0, |sum, s| sum + s.wall_nanos.unwrap_or(0) as f64 / 1e9)
        };
        out.set("core.merge_s", span_s("merge"));
        out.set("core.refine_s", span_s("refine"));
        out.set("core.routing_s", span_s("routing"));
        out.set(
            "core.merge_iters",
            sink.spans.iter().filter(|s| s.name == "merge").count() as f64,
        );
        out.set("routing.cluster_runs", sink.cluster_runs.len() as f64);
        out.set(
            "routing.max_cluster_rounds",
            sink.max_cluster_rounds() as f64,
        );
        out.set("routing.cluster_messages", sink.cluster_messages() as f64);
    }

    fn notes(&self) -> Vec<String> {
        vec![format!(
            "{} clusters, eps achieved {:.4}",
            self.clusters, self.eps_achieved
        )]
    }
}

// ---------------------------------------------------------------------------
// sim_ldd: the asynchronous simulator
// ---------------------------------------------------------------------------

struct Sim {
    g: CsrGraph,
    graph: Graph,
    program: VoronoiLddProgram,
    sim: Simulator,
    /// The synchronous `Executor`'s states on the same graph and seed.
    expected: Vec<VoronoiState>,
    /// Makespan and synchronizer statistics of the last run (deterministic).
    last: Option<(u64, SimStats)>,
}

impl Instance for Sim {
    fn traced_variants(&self) -> usize {
        // `mfd-sim` has no profiling entry point; its layer metrics come
        // from the statistics every run returns and the clock around it.
        1
    }

    fn run(&mut self, _variant: usize) -> Iter {
        let t0 = Instant::now();
        let run = self.sim.run(&self.graph, &self.program);
        let wall_s = t0.elapsed().as_secs_f64();
        let run = match run {
            Ok(run) => run,
            Err(e) => return Iter::failed(&e),
        };
        let t1 = Instant::now();
        let ok = run.states == self.expected;
        let checksum = checksum(&run.states);
        let check_s = t1.elapsed().as_secs_f64();
        self.last = Some((run.makespan, run.stats));
        Iter {
            wall_s,
            check_s,
            rounds: run.rounds,
            messages: run.messages,
            checksum,
            ok,
        }
    }

    fn layers(&self, fastest_s: f64, out: &mut Values) {
        graph_layers(&self.g, out);
        out.set("graph.to_graph_s", best_of_3(|| self.g.to_graph()));
        let Some((makespan, stats)) = &self.last else {
            return;
        };
        out.set("sim.packets", stats.packets as f64);
        out.set("sim.pure_pulses", stats.pure_pulses as f64);
        out.set("sim.payload_messages", stats.payload_messages as f64);
        out.set("sim.makespan", *makespan as f64);
        out.set(
            "sim.ns_per_packet",
            ratio(fastest_s * 1e9, stats.packets as f64),
        );
        out.set(
            "sim.sync_overhead",
            ratio(stats.packets as f64, stats.payload_messages as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolve() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("ldd"), None);
    }

    #[test]
    fn a_corrupted_output_is_a_failed_operation() {
        let setup = Workload::BfsMesh.setup(DEFAULT_SEED, Scale::Smoke);
        let mut honest = setup.instance;
        assert!(honest.run(0).ok);
        // The same run checked against a reference that is off by one.
        let g = Scale::Smoke.mesh(500);
        let mut wrong = g.bfs_distances(0);
        wrong[99] += 1;
        let lying = Sharded::new(
            g,
            BfsProgram { root: 0 },
            ShardedExecutor::new(ShardedConfig::with_shards_threads(SHARDS, 1)),
            false,
            false,
            Box::new(move |states: &[_]| bfs_matches(states, &wrong)),
        );
        let mut lying: Box<dyn Instance> = Box::new(lying);
        let m = crate::harness::measure(lying.as_mut(), 1, 2, 0.0);
        assert_eq!((m.attempted, m.failed), (3, 3));
        assert!(
            m.walls.is_empty(),
            "a failed operation contributes no timing"
        );
    }
}
