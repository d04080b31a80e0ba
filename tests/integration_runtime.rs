//! Cross-crate integration tests for the `mfd-runtime` execution engine:
//! differential validation of the node-program ports against the centralized
//! implementations on several graph families, model-compliance properties
//! (the executor never accepts a round the meter would reject — on the
//! production engine and the reference stepper alike), determinism across
//! shard and thread counts pinned against the reference stepper, and
//! cluster-scoped parallel composition.

use mfd_congest::{primitives, CongestError, Message, RoundMeter};
use mfd_core::cole_vishkin::{color_rooted_forest_scheduled, cv_schedule_len, is_proper_coloring};
use mfd_core::ldd::{chop_ldd, region_growing_ldd, voronoi_ldd};
use mfd_core::programs::{
    run_bfs, run_cole_vishkin, run_voronoi_ldd, BfsProgram, ColeVishkinProgram,
};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, Graph};
use mfd_runtime::{
    run_each, Envelope, Executor, ExecutorConfig, NodeCtx, NodeProgram, Outbox, RuntimeError,
    ShardedConfig, ShardedExecutor,
};
use mfd_sim::{SimConfig, Simulator};
use mfd_trace::DigestSink;
use proptest::prelude::*;

/// The acceptance families: a triangulated grid, a wheel (planar with a
/// Θ(n)-degree hub) and a hypercube (a non-minor-free control).
fn families() -> Vec<(&'static str, Graph)> {
    vec![
        ("triangulated_grid", generators::triangulated_grid(9, 9)),
        ("wheel", generators::wheel(64)),
        ("hypercube", generators::hypercube(6)),
    ]
}

fn executor() -> ShardedExecutor {
    ShardedExecutor::new(ShardedConfig::default())
}

/// The reference stepper the production engine is pinned against.
fn reference() -> Executor {
    Executor::new(ExecutorConfig::default())
}

#[test]
fn bfs_port_matches_centralized_on_all_families() {
    for (name, g) in families() {
        let mut meter = RoundMeter::new();
        let central = primitives::build_bfs_tree(&g, None, 0, &mut meter);
        let (run, dist_meter) = run_bfs(&g, 0, &executor()).unwrap();
        assert_eq!(run.parent, central.parent, "{name}: parents differ");
        assert_eq!(run.depth, central.depth, "{name}: depths differ");
        // Flooding takes exactly one round beyond the tree height (the last
        // level's announcements still have to be delivered).
        assert_eq!(dist_meter.rounds(), central.height as u64 + 1, "{name}");
        assert!(dist_meter.max_words_on_edge() <= dist_meter.capacity_words());
    }
}

#[test]
fn cole_vishkin_port_matches_centralized_on_all_families() {
    for (name, g) in families() {
        // Colour the BFS spanning forest of the family.
        let mut meter = RoundMeter::new();
        let tree = primitives::build_bfs_tree(&g, None, 0, &mut meter);
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let (coloring, cv_meter) = run_cole_vishkin(&g, &tree.parent, &id, &executor()).unwrap();
        let central = color_rooted_forest_scheduled(&tree.parent, &id, cv_schedule_len());
        assert_eq!(coloring.color, central.color, "{name}: colours differ");
        assert!(is_proper_coloring(&tree.parent, &coloring.color), "{name}");
        assert!(coloring.color.iter().all(|&c| c < 3), "{name}");
        // O(log* n) + O(1): the fixed schedule plus seven protocol rounds.
        assert_eq!(cv_meter.rounds(), cv_schedule_len() + 7, "{name}");
        assert!(cv_meter.max_words_on_edge() <= cv_meter.capacity_words());
    }
}

#[test]
fn voronoi_port_matches_centralized_on_all_families() {
    for (name, g) in families() {
        // Centers from the region-growing baseline's ball seeds.
        let rg = region_growing_ldd(&g, 0.3);
        let centers: Vec<usize> = rg
            .clusters()
            .map(|members| members.iter().copied().min().unwrap())
            .collect();
        let central = voronoi_ldd(&g, &centers);
        let (dist, meter) = run_voronoi_ldd(&g, &centers, &executor()).unwrap();
        assert_eq!(dist, central, "{name}: assignments differ");
        assert!(dist.all_clusters_connected(&g), "{name}");
        // The wave reaches every vertex within eccentricity-many rounds.
        assert!(meter.rounds() <= g.n() as u64 + 1, "{name}");
        assert!(meter.max_words_on_edge() <= meter.capacity_words());
    }
}

/// The engine is deterministic across thread counts (one shard per thread,
/// so the layout moves too) — and what it is deterministic *at* is the
/// reference stepper's run: states, meter and digest chain.
#[test]
fn executions_are_deterministic_across_thread_counts() {
    let g = generators::triangulated_grid(12, 12);
    let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
    let mut meter = RoundMeter::new();
    let tree = primitives::build_bfs_tree(&g, None, 0, &mut meter);
    let cv = ColeVishkinProgram::new(tree.parent.clone(), id);
    let bfs = BfsProgram { root: 5 };

    let mut cv_chain = DigestSink::new();
    let cv_ref = reference().run_traced(&g, &cv, &mut cv_chain).unwrap();
    let mut bfs_chain = DigestSink::new();
    let bfs_ref = reference().run_traced(&g, &bfs, &mut bfs_chain).unwrap();
    for threads in [1, 2, 8] {
        let at = format!("thread count {threads} changed the result");
        let cfg = ShardedConfig::per_thread(&ExecutorConfig::with_threads(threads));
        let exec = ShardedExecutor::new(cfg);
        let mut sink = DigestSink::new();
        let run = exec.run_traced(&g, &cv, &mut sink).unwrap();
        assert_eq!(run.states, cv_ref.states, "{at}");
        assert_eq!(run.meter.to_parts(), cv_ref.meter.to_parts(), "{at}");
        assert_eq!(sink.chain(), cv_chain.chain(), "{at}");
        let mut sink = DigestSink::new();
        let run = exec.run_traced(&g, &bfs, &mut sink).unwrap();
        assert_eq!(run.states, bfs_ref.states, "{at}");
        assert_eq!(run.meter.to_parts(), bfs_ref.meter.to_parts(), "{at}");
        assert_eq!(sink.chain(), bfs_chain.chain(), "{at}");
    }
}

#[test]
fn cluster_scoped_bfs_matches_per_cluster_centralized_runs() {
    let g = generators::triangulated_grid(10, 10);
    let clustering = chop_ldd(&g, 0.3, 3);
    let clusters: Vec<Vec<usize>> = clustering.clusters().map(|c| c.to_vec()).collect();
    let runs = run_each(clusters.len(), &ExecutorConfig::default(), |idx, engine| {
        let (view, _) = g.induced_subgraph(&clusters[idx]);
        let run = engine.run(&view, &BfsProgram { root: 0 })?;
        Ok((run.states, run.meter))
    })
    .unwrap();
    let mut folded = RoundMeter::new();
    folded.merge_parallel(runs.iter().map(|(_, m)| m));

    // Per-cluster differential check plus manual merge_parallel accounting.
    let mut expected = RoundMeter::new();
    let mut cluster_meters = Vec::new();
    for (c, members) in clusters.iter().enumerate() {
        let (sub, _) = g.induced_subgraph(members);
        let mut meter = RoundMeter::new();
        let central = primitives::build_bfs_tree(&sub, None, 0, &mut meter);
        let states = &runs[c].0;
        for (i, state) in states.iter().enumerate() {
            assert_eq!(
                state.depth.map_or(usize::MAX, |d| d as usize),
                central.depth[i],
                "cluster {c}, vertex {i}"
            );
        }
        let mut cluster_meter = RoundMeter::new();
        cluster_meter.charge_rounds(central.height as u64 + 1);
        cluster_meters.push(cluster_meter);
    }
    expected.merge_parallel(cluster_meters.iter());
    assert_eq!(folded.rounds(), expected.rounds());
    assert_eq!(
        folded.rounds(),
        runs.iter().map(|(_, m)| m.rounds()).max().unwrap()
    );

    // Scatter back to original vertex ids: every vertex got a depth.
    let mut depths = vec![usize::MAX; g.n()];
    for (members, (states, _)) in clusters.iter().zip(&runs) {
        for (&v, s) in members.iter().zip(states) {
            depths[v] = s.depth.map_or(usize::MAX, |d| d as usize);
        }
    }
    assert!(depths.iter().all(|&d| d != usize::MAX));
}

/// A program that performs exactly the sends it is told to and halts.
struct ScriptedSender {
    /// `(src, dst, copies)` triples, all executed in round 1.
    sends: Vec<(usize, usize, usize)>,
}

impl NodeProgram for ScriptedSender {
    type State = ();
    type Msg = u64;

    fn init(&self, _ctx: &NodeCtx) {}

    fn round(
        &self,
        ctx: &NodeCtx,
        _state: &mut (),
        _inbox: &[Envelope<u64>],
        out: &mut Outbox<'_, u64>,
    ) {
        for &(src, dst, copies) in &self.sends {
            if src == ctx.id {
                for _ in 0..copies {
                    out.send(dst, 1);
                }
            }
        }
    }

    fn halted(&self, ctx: &NodeCtx, _state: &()) -> bool {
        ctx.round >= 1
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The executor accepts a scripted round exactly when the meter accepts
    /// the same message multiset — it can never smuggle a round past the
    /// CONGEST model — and the reference stepper and the event engine at
    /// `Fixed(1)` reach the same verdict. Several sends per round, mostly
    /// along edges, overcommit several edges at once: every engine must name
    /// the same one, in every process.
    #[test]
    fn executor_never_accepts_a_round_the_meter_would_reject(
        n in 3usize..24,
        extra in 0usize..30,
        seed in 0u64..500,
        count in 1usize..8,
        script in 0u64..1_000_000,
    ) {
        let g = generators::random_gnm(n, n + extra, seed);
        let mut x = script;
        let mut draw = |bound: usize| {
            x = splitmix64(x);
            (x % bound as u64) as usize
        };
        let sends: Vec<(usize, usize, usize)> = (0..count)
            .map(|_| {
                let src = draw(n);
                let row = g.neighbors(src);
                let dst = if row.is_empty() || draw(4) == 0 {
                    draw(n)
                } else {
                    row[draw(row.len())]
                };
                (src, dst, 1 + draw(3))
            })
            .collect();
        // The round as the engines submit it: by sender, each in send order.
        let msgs: Vec<Message> = (0..n)
            .flat_map(|v| sends.iter().filter(move |s| s.0 == v))
            .flat_map(|&(src, dst, copies)| (0..copies).map(move |_| Message::word(src, dst)))
            .collect();
        let verdict = RoundMeter::new().check_round(&g, &msgs);
        let program = ScriptedSender { sends };
        let result = executor().run(&g, &program).map(|_| ());
        prop_assert_eq!(&result, &reference().run(&g, &program).map(|_| ()));
        let simulated = Simulator::new(SimConfig::default()).run(&g, &program);
        prop_assert_eq!(&result, &simulated.map(|_| ()));
        prop_assert_eq!(verdict.is_ok(), result.is_ok(),
            "meter verdict {:?} vs executor {:?}", verdict, result);
        if let Err(RuntimeError::Model(e)) = result {
            let expected = verdict.unwrap_err();
            prop_assert_eq!(e, expected);
        }
    }

    /// Legal scripted rounds execute with exactly the scripted message count
    /// and one round on the meter.
    #[test]
    fn legal_rounds_are_committed_with_exact_accounting(
        n in 4usize..30,
        seed in 0u64..500,
    ) {
        let g = generators::random_gnm(n, 2 * n, seed);
        // Script one legal one-word send per edge endpoint pair (both
        // directions), which is always within the default capacity.
        let sends: Vec<(usize, usize, usize)> = g
            .edges()
            .flat_map(|(u, v)| [(u, v, 1), (v, u, 1)])
            .collect();
        let expected = sends.len() as u64;
        let run = executor()
            .run(&g, &ScriptedSender { sends })
            .unwrap();
        prop_assert_eq!(run.rounds, 1);
        prop_assert_eq!(run.messages, expected);
        prop_assert!(run.meter.max_words_on_edge() <= run.meter.capacity_words());
    }
}

#[test]
fn self_send_is_rejected_as_non_edge() {
    let g = generators::path(3);
    let err = executor()
        .run(
            &g,
            &ScriptedSender {
                sends: vec![(1, 1, 1)],
            },
        )
        .unwrap_err();
    assert_eq!(
        err,
        RuntimeError::Model(CongestError::NotAnEdge { src: 1, dst: 1 })
    );
}

/// Records the neighbour row its engine hands each vertex, then halts.
struct RowEcho;

impl NodeProgram for RowEcho {
    type State = Vec<usize>;
    type Msg = u64;

    fn init(&self, ctx: &NodeCtx) -> Vec<usize> {
        ctx.neighbors.to_vec()
    }

    fn round(&self, _: &NodeCtx, _: &mut Vec<usize>, _: &[Envelope<u64>], _: &mut Outbox<'_, u64>) {
    }

    fn halted(&self, _: &NodeCtx, _: &Vec<usize>) -> bool {
        true
    }
}

/// Every engine hands a program the graph's own rows — increasing, whatever
/// order the edges were built from — with no engine-side copy or re-sort to
/// disagree about: the reference stepper, the sharded engine and the event
/// simulator all report `g.neighbors(v)` for every vertex.
#[test]
fn every_engine_hands_programs_the_graphs_sorted_rows() {
    let wheel = generators::wheel(24);
    let mut scrambled: Vec<(usize, usize)> = wheel.edges().map(|(u, v)| (v, u)).collect();
    scrambled.sort_unstable_by_key(|&(u, v)| splitmix64((u * 31 + v) as u64));
    let g = Graph::from_edges(wheel.n(), scrambled);
    assert_eq!(g, wheel);
    let rows: Vec<Vec<usize>> = g.vertices().map(|v| g.neighbors(v).to_vec()).collect();
    assert!(rows.iter().all(|row| row.windows(2).all(|w| w[0] < w[1])));
    let sim = mfd_sim::Simulator::new(mfd_sim::SimConfig::default());
    assert_eq!(reference().run(&g, &RowEcho).unwrap().states, rows);
    assert_eq!(executor().run(&g, &RowEcho).unwrap().states, rows);
    assert_eq!(sim.run(&g, &RowEcho).unwrap().states, rows);
}
