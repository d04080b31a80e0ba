//! Cross-crate integration tests for the `mfd-replay` checkpoint/resume
//! layer: property tests that a run killed at a random checkpoint and
//! resumed reproduces the uninterrupted run bit-for-bit — equal final
//! states and a digest chain equal round-for-round — for BFS and
//! Cole–Vishkin on both engines; that a gathered cluster under i.i.d. loss
//! with the `Reliable` adapter resumes bit-identically (ARQ transport state
//! travels in the checkpoint, fault fates are pure and re-derived); and
//! that journal serialization is a deterministic bijection (encode →
//! decode → encode is byte-identical, and identical runs journal identical
//! bytes).

use mfd_bench::replay::{
    executor_journal, executor_states_at, resume_executor, resume_sim, sim_journal, sim_states_at,
};
use mfd_bench::trace::DivergenceProbe;
use mfd_bench::{acceptance_families, acceptance_leader};
use mfd_congest::{primitives, RoundMeter};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram};
use mfd_faults::{FaultModel, Reliable};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, CsrGraph, Graph};
use mfd_replay::Journal;
use mfd_routing::programs::TreeGatherProgram;
use mfd_runtime::{Executor, ExecutorConfig};
use mfd_sim::{FaultOutcome, LatencyModel, NoFaults, SimConfig, Simulator};
use mfd_trace::{DigestSink, NullSink};
use proptest::prelude::*;

/// A random connected graph: a uniform random tree plus random chords.
fn random_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let tree = generators::random_tree(n, seed);
    generators::with_random_chords(&tree, extra, splitmix64(seed))
}

/// BFS spanning-forest parent pointers, for Cole–Vishkin instances.
fn spanning_forest(g: &Graph) -> Vec<usize> {
    let mut meter = RoundMeter::new();
    primitives::build_bfs_tree(g, None, 0, &mut meter)
        .parent
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill-and-resume is invisible: checkpoint a run every few rounds,
    /// pick one checkpoint at random (the "kill point"), resume from it
    /// with the digest sink restored alongside, and the continued run has
    /// the same final states, round/message accounting, and a digest chain
    /// equal round-for-round to the uninterrupted run — for BFS and
    /// Cole–Vishkin on the synchronous executor and on the event engine
    /// under skewed link latency.
    #[test]
    fn killed_and_resumed_runs_are_bit_identical_on_both_engines(
        n in 4usize..20,
        extra in 0usize..16,
        seed in 0u64..1_000_000,
        every in 1u64..5,
        pick in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        let csr = CsrGraph::from_graph(&g);
        let cfg = ExecutorConfig {
            seed: splitmix64(seed ^ 0x5EED),
            ..ExecutorConfig::default()
        };
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(spanning_forest(&g), id);
        let bfs = BfsProgram { root: 0 };
        let latency = LatencyModel::Uniform { lo: 1, hi: 3 };

        macro_rules! check {
            ($program:expr) => {{
                let exec = mfd_bench::sync_executor(&cfg);
                let mut sink = DigestSink::new();
                let mut cps = Vec::new();
                let mut session = exec.start(&csr, $program, &mut sink);
                while let Some(round) = session.step().unwrap() {
                    if round % every == 0 {
                        cps.push((session.checkpoint(), session.observer().export()));
                    }
                }
                let full = session.finish();
                // The journaled run is the reference stepper's run.
                let mut reference = DigestSink::new();
                let expected = Executor::new(cfg.clone())
                    .run_traced(&g, $program, &mut reference)
                    .unwrap();
                prop_assert_eq!(&full.states, &expected.states);
                prop_assert_eq!(sink.chain(), reference.chain());
                if !cps.is_empty() {
                    let (cp, digests) = cps.swap_remove((pick as usize) % cps.len());
                    let mut rsink = DigestSink::restore(digests);
                    let mut session = exec.restore(&csr, $program, cp, &mut rsink).unwrap();
                    while session.step().unwrap().is_some() {}
                    let resumed = session.finish();
                    prop_assert_eq!(&resumed.states, &full.states);
                    prop_assert_eq!(resumed.rounds, full.rounds);
                    prop_assert_eq!(resumed.messages, full.messages);
                    prop_assert_eq!(rsink.chain(), sink.chain());
                    prop_assert_eq!(rsink.head(), sink.head());
                }

                let sim = Simulator::new(SimConfig::matching(&cfg, latency.clone()));
                let mut sink = DigestSink::new();
                let mut cps = Vec::new();
                let mut session = sim.start(&g, $program, &NoFaults, &mut sink).unwrap();
                let mut next = every;
                while let Some(round) = session.step().unwrap() {
                    if round >= next {
                        cps.push((session.checkpoint(), session.observer().export()));
                        next = round + every;
                    }
                }
                let full = session.finish().unwrap().run;
                if !cps.is_empty() {
                    let (cp, digests) = cps.swap_remove((pick as usize) % cps.len());
                    let mut rsink = DigestSink::restore(digests);
                    let mut session = sim.restore(&g, $program, &NoFaults, cp, &mut rsink).unwrap();
                    while session.step().unwrap().is_some() {}
                    let resumed = session.finish().unwrap().run;
                    prop_assert_eq!(&resumed.states, &full.states);
                    prop_assert_eq!(resumed.rounds, full.rounds);
                    prop_assert_eq!(resumed.messages, full.messages);
                    prop_assert_eq!(resumed.makespan, full.makespan);
                    prop_assert_eq!(rsink.chain(), sink.chain());
                }
            }};
        }
        check!(&bfs);
        check!(&cv);
    }

    /// Journal serialization is a deterministic bijection: encode → decode
    /// → encode is byte-identical, and re-running the same configuration
    /// journals the same bytes — on both engines.
    #[test]
    fn journal_byte_roundtrip_is_deterministic(
        n in 4usize..20,
        extra in 0usize..16,
        seed in 0u64..1_000_000,
        rounds in 4u64..12,
        every in 1u64..5,
    ) {
        let g = random_connected(n, extra, seed);
        let cfg = ExecutorConfig {
            seed: splitmix64(seed ^ 0x10AD),
            ..ExecutorConfig::default()
        };
        let probe = DivergenceProbe::clean(rounds);
        let csr = CsrGraph::from_graph(&g);

        let a = executor_journal(&csr, &probe, &cfg, every, "prop/exec").unwrap();
        let b = executor_journal(&csr, &probe, &cfg, every, "prop/exec").unwrap();
        let bytes = a.journal.to_bytes();
        prop_assert_eq!(&bytes, &b.journal.to_bytes());
        let decoded = Journal::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&bytes, &decoded.to_bytes());

        let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
        let a = sim_journal(&g, &probe, &NoFaults, &cfg, latency.clone(), every, "prop/sim").unwrap();
        let b = sim_journal(&g, &probe, &NoFaults, &cfg, latency, every, "prop/sim").unwrap();
        let bytes = a.journal.to_bytes();
        prop_assert_eq!(&bytes, &b.journal.to_bytes());
        let decoded = Journal::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&bytes, &decoded.to_bytes());
    }

    /// Resuming through the byte codec (journal → decode → resume) lands on
    /// the same chain as the uninterrupted run, from every checkpoint the
    /// journal holds — the `replay` bin's `resume` subcommand as a property.
    #[test]
    fn every_journal_checkpoint_resumes_to_the_same_chain(
        n in 4usize..16,
        extra in 0usize..12,
        seed in 0u64..1_000_000,
        rounds in 4u64..10,
    ) {
        let g = random_connected(n, extra, seed);
        let cfg = ExecutorConfig::default();
        let probe = DivergenceProbe::clean(rounds);

        let csr = CsrGraph::from_graph(&g);
        let full = executor_journal(&csr, &probe, &cfg, 2, "prop/exec").unwrap();
        for cp in &full.journal.checkpoints {
            let r = resume_executor(&full.journal, cp.round, &csr, &probe, &cfg).unwrap();
            prop_assert_eq!(r.from_round, cp.round);
            prop_assert_eq!(r.sink.chain(), full.sink.chain());
            prop_assert_eq!(&r.run.states, &full.run.states);
        }

        let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
        let full = sim_journal(&g, &probe, &NoFaults, &cfg, latency.clone(), 2, "prop/sim").unwrap();
        for cp in &full.journal.checkpoints {
            let r = resume_sim(&full.journal, cp.round, &g, &probe, &NoFaults, &cfg, latency.clone())
                .unwrap();
            prop_assert_eq!(r.sink.chain(), full.sink.chain());
            prop_assert_eq!(&r.run.run.states, &full.run.run.states);
            prop_assert_eq!(r.run.run.makespan, full.run.run.makespan);
        }
    }
}

/// A gathered cluster under i.i.d. loss with `Reliable<TreeGatherProgram>`
/// resumes bit-identically: the checkpoint carries
/// the full ARQ transport state (send windows, reorder buffers, cumulative
/// acks) and the fault fates are pure in `(seed, edge, round, index)`, so
/// the continuation meets exactly the fate sequence the uninterrupted run
/// saw. Gather states hold floats (not hashable), so the comparison is on
/// the inner protocol states, aggregate ARQ statistics, and the run's
/// accounting rather than a digest chain.
#[test]
fn gathered_cluster_under_loss_resumes_bit_identically() {
    type P = TreeGatherProgram;
    for (name, g) in acceptance_families() {
        let leader = acceptance_leader(&g);
        let program = Reliable::new(TreeGatherProgram::new(&g, leader));
        let model = FaultModel::iid_loss(0.2);
        let cfg = ExecutorConfig::default();
        let sim = Simulator::new(SimConfig::matching(
            &cfg,
            LatencyModel::Uniform { lo: 1, hi: 3 },
        ));

        let mut sink = NullSink;
        let mut cps = Vec::new();
        let mut session = sim.start(&g, &program, &model, &mut sink).unwrap();
        let mut next = 8;
        while let Some(round) = session.step().unwrap() {
            if round >= next {
                cps.push(session.checkpoint());
                next = round + 8;
            }
        }
        let full = session.finish().unwrap();
        assert!(
            matches!(full.outcome, FaultOutcome::Completed),
            "{name}: the acceptance run must complete under 0.2 loss"
        );
        let stats = Reliable::<P>::stats(&full.run.states);
        assert!(stats.retransmitted > 0, "{name}: loss caused no ARQ work");
        assert!(!cps.is_empty(), "{name}: no checkpoints captured");

        // Resuming is a full suffix re-execution, so sample the earliest,
        // middle, and final checkpoints rather than paying for every one.
        let picks: Vec<usize> = [0, cps.len() / 2, cps.len() - 1]
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        for (i, cp) in cps.into_iter().enumerate() {
            if !picks.contains(&i) {
                continue;
            }
            let round = cp.round;
            let mut session = sim.restore(&g, &program, &model, cp, &mut sink).unwrap();
            while session.step().unwrap().is_some() {}
            let resumed = session.finish().unwrap();
            assert!(
                matches!(resumed.outcome, FaultOutcome::Completed),
                "{name}@{round}: resumed run did not complete"
            );
            assert_eq!(
                Reliable::<P>::inner_states_cloned(&resumed.run.states),
                Reliable::<P>::inner_states_cloned(&full.run.states),
                "{name}@{round}: inner gather states diverged after resume"
            );
            assert_eq!(
                Reliable::<P>::stats(&resumed.run.states),
                stats,
                "{name}@{round}: ARQ statistics diverged after resume"
            );
            assert_eq!(resumed.run.rounds, full.run.rounds, "{name}@{round}");
            assert_eq!(resumed.run.messages, full.run.messages, "{name}@{round}");
            assert_eq!(resumed.run.makespan, full.run.makespan, "{name}@{round}");
        }
    }
}

/// The faulted acceptance configuration journals through the byte codec and
/// resumes with the digest chain equal round-for-round — the
/// `report --section replay` in-process assertion, pinned here so the gate
/// cannot be weakened without a test noticing. The probe's u64 states keep
/// `ReliableState` hashable, so this configuration (unlike the float-state
/// gather above) carries a digest chain end-to-end.
#[test]
fn faulted_reliable_probe_journal_resumes_bit_identically() {
    let g = generators::wheel(32);
    let cfg = ExecutorConfig::default();
    let wrapped = Reliable::new(DivergenceProbe::clean(12));
    let model = FaultModel::iid_loss(0.25);
    let latency = LatencyModel::Uniform { lo: 1, hi: 3 };

    let full = sim_journal(
        &g,
        &wrapped,
        &model,
        &cfg,
        latency.clone(),
        5,
        "wheel-32/faulted",
    )
    .unwrap();
    assert!(matches!(full.run.outcome, FaultOutcome::Completed));
    assert!(
        full.journal.checkpoints.len() >= 2,
        "the run must be long enough to checkpoint more than once"
    );

    // The journal survives a byte round-trip and still resumes.
    let reloaded = Journal::from_bytes(&full.journal.to_bytes()).unwrap();
    for cp in &reloaded.checkpoints {
        let r = resume_sim(
            &reloaded,
            cp.round,
            &g,
            &wrapped,
            &model,
            &cfg,
            latency.clone(),
        )
        .unwrap();
        assert_eq!(r.from_round, cp.round);
        assert_eq!(r.sink.chain(), full.sink.chain(), "@{}", cp.round);
        assert_eq!(
            Reliable::<DivergenceProbe>::inner_states_cloned(&r.run.run.states),
            Reliable::<DivergenceProbe>::inner_states_cloned(&full.run.run.states),
            "@{}",
            cp.round
        );
    }
}

/// Time travel reaches every round of a journal, the last one included: the
/// event engine seals its final round in `finish`, past its last consistent
/// cut, and `replay dump --round <journal.rounds()>` used to panic there.
#[test]
fn states_at_reaches_the_last_round_on_both_engines() {
    let cfg = ExecutorConfig::default();
    let probe = DivergenceProbe::clean(16);
    let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
    for (name, g) in &acceptance_families() {
        let full = sim_journal(g, &probe, &NoFaults, &cfg, latency.clone(), 4, name).unwrap();
        let last = full.journal.rounds();
        for target in 1..=last {
            let (reached, states) =
                sim_states_at(&full.journal, target, g, &probe, &cfg, latency.clone()).unwrap();
            assert!(
                (target..=last).contains(&reached),
                "{name}: cut {reached} for round {target}"
            );
            if reached == last {
                assert_eq!(states, full.run.run.states, "{name}@{target}");
            }
        }

        let csr = CsrGraph::from_graph(g);
        let full = executor_journal(&csr, &probe, &cfg, 4, name).unwrap();
        let last = full.journal.rounds();
        let (reached, states) =
            executor_states_at(&full.journal, last, &csr, &probe, &cfg).unwrap();
        assert_eq!((reached, &states), (last, &full.run.states), "{name}");
    }
}
