//! Profiler-layer acceptance: the `mfd-prof` overlay is perturbation-free.
//!
//! The tentpole property spans three crates (runtime hooks, the `Profile`
//! recorder, the bench harness), so it lives here: running a workload with
//! the profiler attached must be **bit-identical** to running it without —
//! final states, meter statistics, arena high-water marks, and the chained
//! per-round digests — across shard and thread counts, and against the
//! reference stepper's unprofiled run. The profiler only ever writes into its own sample buffer at
//! points that are already sequential, so the property should hold by
//! construction; this suite is the regression net under it.

use mfd_core::programs::{BfsProgram, VoronoiLddProgram};
use mfd_graph::{gen, generators, CsrGraph};
use mfd_prof::Profile;
use mfd_runtime::{Executor, ExecutorConfig, ShardedConfig, ShardedExecutor};
use mfd_trace::DigestSink;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Profiled ≡ unprofiled on the sharded engine, across shard and
    /// thread counts: states, meter, arena HWMs and digest chains.
    #[test]
    fn profiled_sharded_runs_are_bit_identical(
        rows in 3usize..9,
        cols in 3usize..9,
        shards in 1usize..9,
        threads in 1usize..5,
        centers in 1usize..5,
    ) {
        let csr = gen::mesh(rows, cols);
        let centers: Vec<usize> = (0..centers).map(|i| (i * csr.n()) / centers).collect();
        let ldd = VoronoiLddProgram::new(csr.n(), &centers);
        let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads));

        let mut profile = Profile::new();
        let mut sink = DigestSink::new();
        let profiled = exec
            .run_profiled(&csr, &ldd, &mut sink, &mut profile)
            .expect("ldd is model-compliant");

        let mut plain_sink = DigestSink::new();
        let plain = exec
            .run_traced(&csr, &ldd, &mut plain_sink)
            .expect("ldd is model-compliant");

        prop_assert_eq!(&profiled.states, &plain.states);
        prop_assert_eq!(profiled.rounds, plain.rounds);
        prop_assert_eq!(profiled.messages, plain.messages);
        prop_assert_eq!(
            profiled.meter.max_words_on_edge(),
            plain.meter.max_words_on_edge()
        );
        prop_assert_eq!(profiled.arena, plain.arena);
        prop_assert_eq!(sink.heads(), plain_sink.heads());

        // The profile itself is structurally coherent: one sample per
        // executed round, per-shard vectors sized to the shard count, and
        // message accounting that matches the run exactly.
        prop_assert_eq!(profile.round_count(), profiled.rounds);
        prop_assert_eq!(profile.messages(), profiled.messages);
        prop_assert_eq!(profile.shards, shards);
        for sample in &profile.rounds {
            prop_assert_eq!(sample.frontier.len(), profile.shards);
            prop_assert_eq!(sample.traffic.len(), profile.shards * profile.shards);
        }
    }

    /// The `engine=executor` layout — one shard per worker thread, as
    /// `ShardedConfig::per_thread` lays a synchronous run out — profiled, is
    /// bit-identical to the reference stepper's unprofiled run.
    #[test]
    fn profiled_executor_runs_are_bit_identical(
        side in 3usize..10,
        threads in 1usize..5,
        root in 0usize..9,
    ) {
        let g = generators::triangulated_grid(side, side);
        let bfs = BfsProgram { root: root % g.n() };
        let cfg = ExecutorConfig::with_threads(threads);
        let exec = ShardedExecutor::new(ShardedConfig::per_thread(&cfg));

        let mut profile = Profile::new();
        let mut sink = DigestSink::new();
        let profiled = exec
            .run_profiled(&CsrGraph::from_graph(&g), &bfs, &mut sink, &mut profile)
            .expect("bfs is model-compliant");

        let mut plain_sink = DigestSink::new();
        let plain = Executor::new(cfg)
            .run_traced(&g, &bfs, &mut plain_sink)
            .expect("bfs is model-compliant");

        prop_assert_eq!(&profiled.states, &plain.states);
        prop_assert_eq!(profiled.meter.to_parts(), plain.meter.to_parts());
        prop_assert_eq!(sink.heads(), plain_sink.heads());

        prop_assert_eq!(profile.shards, threads);
        prop_assert_eq!(profile.round_count(), profiled.rounds);
        prop_assert_eq!(profile.messages(), profiled.messages);
    }
}

/// The deterministic parts of two profiles of the same run are identical —
/// frontier sizes, send/receive counts, and the full traffic matrix — even
/// though the wall clocks differ.
#[test]
fn deterministic_profile_columns_are_run_invariant() {
    let csr = gen::mesh(20, 20);
    let centers: Vec<usize> = (0..8).map(|i| (i * csr.n()) / 8).collect();
    let ldd = VoronoiLddProgram::new(csr.n(), &centers);
    let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(6, 2));

    let run_once = || {
        let mut profile = Profile::new();
        let mut sink = DigestSink::new();
        exec.run_profiled(&csr, &ldd, &mut sink, &mut profile)
            .expect("ldd is model-compliant");
        profile
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.round_count(), b.round_count());
    assert_eq!(a.traffic_totals(), b.traffic_totals());
    assert_eq!(a.frontier_totals(), b.frontier_totals());
    assert_eq!(a.sent_totals(), b.sent_totals());
    assert_eq!(a.delivered_totals(), b.delivered_totals());
    assert_eq!(a.arena_series(), b.arena_series());
}

/// The sparse exchange moves only the buckets a round pushed into, and the
/// profiler still sees the whole shard→shard matrix: every entry of every
/// round equals the count recomputed from the graph and the sends (a BFS
/// vertex at depth `d` broadcasts in round `d + 1`, halted receivers
/// included), and the per-shard series add up to the meter's messages.
#[test]
fn traffic_matrix_matches_the_sends_whether_few_shard_pairs_talk_or_all() {
    // (graph, shards, whether every shard pair exchanges mail in some round)
    let cases = [
        (CsrGraph::from_graph(&generators::path(640)), 64, false),
        (gen::mesh(32, 32), 64, false),
        (CsrGraph::from_graph(&generators::complete(24)), 8, true),
    ];
    for (csr, shards, all_pairs_talk) in cases {
        let depth = csr.bfs_distances(0);
        let chunk = csr.n().div_ceil(shards);
        for threads in [1, 3] {
            let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads));
            let mut profile = Profile::new();
            let run = exec
                .run_profiled(
                    &csr,
                    &BfsProgram { root: 0 },
                    &mut DigestSink::new(),
                    &mut profile,
                )
                .expect("bfs is model-compliant");

            let mut messages = 0;
            for sample in &profile.rounds {
                let mut expected = vec![0u64; shards * shards];
                for v in (0..csr.n()).filter(|&v| depth[v] as u64 + 1 == sample.round) {
                    for &u in csr.neighbors(v) {
                        expected[v / chunk * shards + u / chunk] += 1;
                    }
                }
                assert_eq!(sample.traffic, expected, "round {}", sample.round);
                let round_messages: u64 = expected.iter().sum();
                let route_slots: usize = sample.route_slots.iter().sum();
                let delivered: usize = sample.delivered.iter().sum();
                assert_eq!(route_slots as u64, round_messages, "round {}", sample.round);
                assert_eq!(delivered as u64, round_messages, "round {}", sample.round);
                assert_eq!(sample.sent.iter().sum::<u64>(), round_messages);
                messages += round_messages;
            }
            assert_eq!(messages, run.messages);
            let talking = profile.traffic_totals().iter().filter(|&&t| t > 0).count();
            if all_pairs_talk {
                assert_eq!(talking, shards * shards);
            } else {
                assert!(
                    talking <= 5 * shards,
                    "{talking} of {} pairs",
                    shards * shards
                );
            }
        }
    }
}
