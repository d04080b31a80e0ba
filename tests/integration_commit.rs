//! Parallel-commit acceptance: the restructured commit phase — per-vertex
//! digests computed inside the parallel sweep, round digests folded by the
//! sink in sweeps of up to four queued rounds — must be *invisible* in every
//! observable value.
//!
//! Four properties are pinned here on a graph of 17 000 vertices, whose BFS
//! rounds touch few enough vertices that the sink queues several of them per
//! sweep (a round whose delta reaches the vector's length folds alone):
//!
//! 1. Sharded runs are bit-identical to the reference stepper — states,
//!    rounds, messages, meters, arena high-water marks, and chained digest
//!    heads — whatever the shard and thread counts.
//! 2. The batching sink (`DigestSink::new`) and the snapshot-keeping sink
//!    (`DigestSink::with_snapshots`), which folds every round at its seal,
//!    fold to the same chain on real engine runs.
//! 3. A run killed at a checkpoint — its export flushing a part-filled
//!    batch — and resumed is bit-identical: same final states, same chain
//!    head.
//! 4. `Reliable<P>` under i.i.d. loss keeps a deterministic, sink-mode-
//!    independent digest chain (the ARQ wrapper's states flow through the
//!    same commit path as everything else).

use mfd_bench::trace::DivergenceProbe;
use mfd_core::programs::BfsProgram;
use mfd_faults::{FaultModel, Reliable};
use mfd_graph::{gen, generators};
use mfd_runtime::{Executor, ExecutorConfig, SessionEngine, ShardedConfig, ShardedExecutor};
use mfd_sim::{LatencyModel, SimConfig, SimEngine, Simulator};
use mfd_trace::DigestSink;
use proptest::prelude::*;

/// A power-law graph of 17 000 vertices: round 0 reports every vertex and
/// folds alone, and BFS floods the giant component in a handful of rounds
/// whose deltas the sink batches — the test pays for folds, not for
/// diameter.
fn deferral_scale_graph() -> mfd_graph::Graph {
    gen::power_law(17_000, 51_000, 2.5, 0xC0117)
}

/// Sharded runs whose digest rounds fold in batches are bit-identical to
/// the unsharded engine across shard and thread counts: states, round and
/// message accounting, meters, arena high-water marks, and the chained
/// digest heads all agree.
#[test]
fn deferral_scale_runs_are_identical_across_threads_and_shards() {
    let g = deferral_scale_graph();
    let program = BfsProgram { root: 0 };

    let mut reference = DigestSink::new();
    let expected = Executor::new(ExecutorConfig::default())
        .run_traced(&g, &program, &mut reference)
        .unwrap();

    let mut arena_at_shards = std::collections::BTreeMap::new();
    for shards in [1usize, 7, 64] {
        for threads in [1usize, 4] {
            let mut sink = DigestSink::new();
            let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads))
                .run_traced(&g, &program, &mut sink)
                .unwrap();
            assert_eq!(
                run.states, expected.states,
                "states: shards={shards} threads={threads}"
            );
            assert_eq!(run.rounds, expected.rounds, "shards={shards}");
            assert_eq!(run.messages, expected.messages, "shards={shards}");
            assert_eq!(
                run.meter.max_words_on_edge(),
                expected.meter.max_words_on_edge(),
                "meter: shards={shards} threads={threads}"
            );
            assert_eq!(
                sink.heads(),
                reference.heads(),
                "digest chain: shards={shards} threads={threads}"
            );
            // Arena high-water marks are a function of the shard layout,
            // never of the thread count.
            if let Some(prev) = arena_at_shards.insert(shards, run.arena) {
                assert_eq!(
                    prev, run.arena,
                    "arena HWMs vary by threads at shards={shards}"
                );
            }
        }
    }
}

/// The batched fold and the snapshot sink's fold at every seal produce the
/// same chain on real engine runs — unsharded and sharded — on a graph
/// whose rounds actually queue into batches.
#[test]
fn deferred_and_eager_sinks_fold_the_same_chain_on_engine_runs() {
    let g = deferral_scale_graph();
    let program = BfsProgram { root: 0 };

    let mut deferred = DigestSink::new();
    Executor::new(ExecutorConfig::default())
        .run_traced(&g, &program, &mut deferred)
        .unwrap();
    let mut eager = DigestSink::with_snapshots();
    Executor::new(ExecutorConfig::default())
        .run_traced(&g, &program, &mut eager)
        .unwrap();
    assert_eq!(deferred.heads(), eager.heads(), "unsharded");
    assert_eq!(deferred.head(), eager.head(), "unsharded head");

    let mut deferred = DigestSink::new();
    ShardedExecutor::new(ShardedConfig::with_shards_threads(16, 4))
        .run_traced(&g, &program, &mut deferred)
        .unwrap();
    let mut eager = DigestSink::with_snapshots();
    ShardedExecutor::new(ShardedConfig::with_shards_threads(16, 4))
        .run_traced(&g, &program, &mut eager)
        .unwrap();
    assert_eq!(deferred.heads(), eager.heads(), "sharded");
}

/// Kill-and-resume is bit-identical across a part-filled batch: every
/// checkpoint of the run (its export flushes the queued rounds) resumes to
/// the uninterrupted run's final states and chain head under the
/// parallel-commit path.
#[test]
fn resumed_runs_cross_the_deferral_boundary_bit_identically() {
    let g = deferral_scale_graph();
    let program = BfsProgram { root: 0 };
    let exec = ShardedExecutor::new(ShardedConfig::with_shards_threads(16, 4));

    let mut sink = DigestSink::new();
    let mut cps = Vec::new();
    let mut session = exec.open(&g, &program, None, &mut sink).unwrap();
    while let Some(round) = session.step().unwrap() {
        if round % 2 == 0 {
            cps.push((session.checkpoint(), session.observer().export()));
        }
    }
    let full = session.finish();
    assert!(!cps.is_empty(), "the run must be long enough to checkpoint");

    for (cp, digests) in cps {
        let round = cp.round;
        let mut rsink = DigestSink::restore(digests);
        let mut session = exec.open(&g, &program, Some(cp), &mut rsink).unwrap();
        while session.step().unwrap().is_some() {}
        let resumed = session.finish();
        assert_eq!(resumed.states, full.states, "@{round}");
        assert_eq!(resumed.rounds, full.rounds, "@{round}");
        assert_eq!(resumed.messages, full.messages, "@{round}");
        assert_eq!(rsink.chain(), sink.chain(), "@{round}");
        assert_eq!(rsink.head(), sink.head(), "@{round}");
    }
}

/// `Reliable<P>` under i.i.d. loss journals a deterministic digest chain
/// through the restructured commit path: two identical faulted runs chain
/// identically, and the eager snapshot sink agrees with the default sink
/// on the faulted configuration.
#[test]
fn reliable_under_loss_chains_deterministically() {
    let g = generators::wheel(64);
    let program = Reliable::new(DivergenceProbe::clean(12));
    let model = FaultModel::iid_loss(0.25);
    let config = SimConfig::matching(
        &ExecutorConfig::default(),
        LatencyModel::Uniform { lo: 1, hi: 3 },
    );
    let sim = SimEngine(Simulator::new(config), model);

    let traced = |sink: &mut DigestSink| {
        let mut session = sim.open(&g, &program, None, sink).unwrap();
        while session.step().unwrap().is_some() {}
        session.finish().unwrap()
    };
    let mut a = DigestSink::new();
    let ra = traced(&mut a);
    let mut b = DigestSink::new();
    let rb = traced(&mut b);
    assert_eq!(a.chain(), b.chain(), "faulted chain is not run-invariant");
    assert_eq!(
        Reliable::<DivergenceProbe>::inner_states_cloned(&ra.run.states),
        Reliable::<DivergenceProbe>::inner_states_cloned(&rb.run.states),
    );

    let mut eager = DigestSink::with_snapshots();
    traced(&mut eager);
    assert_eq!(a.chain(), eager.chain(), "sink mode changed the chain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On arbitrary small graphs the parallel-commit sharded engine agrees
    /// with the unsharded reference in every observable — and its arena
    /// high-water marks are thread-invariant at a fixed shard count.
    #[test]
    fn parallel_commit_is_invariant_on_random_graphs(
        n in 2usize..48,
        extra in 0usize..48,
        seed in 0u64..1000,
        shards in 1usize..9,
    ) {
        let g = generators::random_gnm(n, n + extra, seed);
        let program = BfsProgram { root: 0 };

        let mut reference = DigestSink::new();
        let expected = Executor::new(ExecutorConfig::default())
            .run_traced(&g, &program, &mut reference)
            .unwrap();

        let mut arena = None;
        for threads in [1usize, 3] {
            let mut sink = DigestSink::new();
            let run = ShardedExecutor::new(ShardedConfig::with_shards_threads(shards, threads))
                .run_traced(&g, &program, &mut sink)
                .unwrap();
            prop_assert_eq!(&run.states, &expected.states);
            prop_assert_eq!(run.rounds, expected.rounds);
            prop_assert_eq!(run.messages, expected.messages);
            prop_assert_eq!(
                run.meter.max_words_on_edge(),
                expected.meter.max_words_on_edge()
            );
            prop_assert_eq!(sink.heads(), reference.heads());
            if let Some(prev) = arena.replace(run.arena) {
                prop_assert_eq!(prev, run.arena);
            }
        }
    }
}
