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

use std::fmt::Debug;
use std::hash::Hash;

use mfd_bench::replay::{journal, resume, states_at};
use mfd_bench::trace::DivergenceProbe;
use mfd_bench::{acceptance_families, acceptance_leader};
use mfd_congest::{primitives, RoundMeter};
use mfd_core::programs::{BfsProgram, ColeVishkinProgram};
use mfd_faults::{FaultModel, Reliable};
use mfd_graph::properties::splitmix64;
use mfd_graph::{generators, Graph};
use mfd_replay::{to_bytes, Journal, Snapshot};
use mfd_routing::programs::TreeGatherProgram;
use mfd_runtime::{Executor, ExecutorConfig, NodeProgram, SessionEngine, ShardedExecutor};
use mfd_sim::{FaultOutcome, LatencyModel, NoFaults, SimConfig, SimEngine, Simulator};
use mfd_trace::{DigestSink, EngineKind, NullSink};
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

/// The two engines every property runs on: the executor, and the event
/// engine under skewed link latency.
fn engines(cfg: &ExecutorConfig) -> (ShardedExecutor, SimEngine<NoFaults>) {
    let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
    let sim = mfd_bench::sim_engine(cfg, latency, NoFaults);
    (mfd_bench::sync_executor(cfg), sim)
}

/// A finished run's final states, rounds and messages.
fn outcome<E: SessionEngine<P>, P: NodeProgram>(run: &E::Run) -> (&[P::State], u64, u64)
where
    P::State: Hash,
{
    let (states, meter) = E::outcome(run);
    (states, meter.rounds(), meter.messages())
}

/// Kill-and-resume on `engine`: checkpoint a run at the journal cadence
/// (the first round at least `every` past the previous checkpoint), pick
/// one checkpoint (the "kill point"), resume from it with the digest sink
/// restored alongside, and assert the continued run reports the same states,
/// rounds and messages and a chain equal round-for-round. Returns the
/// uninterrupted run, the resumed one (`None` when the run never reached a
/// checkpoint) and the chain.
fn kill_and_resume<E, P>(
    engine: &E,
    g: &Graph,
    program: &P,
    every: u64,
    pick: u64,
) -> (E::Run, Option<E::Run>, Vec<u64>)
where
    E: SessionEngine<P>,
    P: NodeProgram,
    P::State: Hash + Clone + PartialEq + Debug,
{
    let mut sink = DigestSink::new();
    let mut cps = Vec::new();
    let mut session = engine.open(g, program, None, &mut sink).unwrap();
    let mut next = every;
    while let Some(round) = E::step(&mut session).unwrap() {
        if round >= next {
            cps.push((E::checkpoint(&session), E::observer(&session).export()));
            next = round + every;
        }
    }
    let full = E::finish(session).unwrap();
    if cps.is_empty() {
        return (full, None, sink.chain());
    }
    let (cp, digests) = cps.swap_remove((pick as usize) % cps.len());
    let mut rsink = DigestSink::restore(digests);
    let mut session = engine.open(g, program, Some(cp), &mut rsink).unwrap();
    while E::step(&mut session).unwrap().is_some() {}
    let resumed = E::finish(session).unwrap();
    prop_assert_eq!(outcome::<E, P>(&resumed), outcome::<E, P>(&full));
    prop_assert_eq!(rsink.chain(), sink.chain());
    prop_assert_eq!(rsink.head(), sink.head());
    (full, Some(resumed), sink.chain())
}

/// Re-running the same configuration journals the same bytes, and
/// encode → decode → encode is byte-identical.
fn journals_are_a_byte_bijection<E>(engine: &E, g: &Graph, probe: &DivergenceProbe, every: u64)
where
    E: SessionEngine<DivergenceProbe>,
    E::Checkpoint: Snapshot,
{
    let a = journal(engine, g, probe, every, "prop").unwrap();
    let b = journal(engine, g, probe, every, "prop").unwrap();
    let bytes = a.journal.to_bytes();
    prop_assert_eq!(&bytes, &b.journal.to_bytes());
    let decoded = Journal::from_bytes(&bytes).unwrap();
    prop_assert_eq!(&bytes, &decoded.to_bytes());
}

/// A session opened from a decoded journal checkpoint captures, before it
/// steps, exactly the bytes it was opened from: the engine holds its state
/// in checkpoint form and adopts a restored checkpoint as it is.
fn reopened_checkpoint_is_its_payload<E, P>(engine: &E, g: &Graph, program: &P, journal: &Journal)
where
    E: SessionEngine<P>,
    E::Checkpoint: Snapshot,
    P: NodeProgram,
    P::State: Clone,
{
    for cp in &journal.checkpoints {
        let decoded = journal.decode_checkpoint(cp).unwrap();
        let mut sink = NullSink;
        let session = engine.open(g, program, Some(decoded), &mut sink).unwrap();
        let captured = to_bytes(&E::checkpoint(&session));
        prop_assert_eq!(captured, cp.payload.clone(), "@{}", cp.round);
    }
}

/// Every checkpoint of a journal, decoded and resumed, lands on the
/// uninterrupted run's chain, states and counts, and reopened captures its
/// own bytes. Returns the uninterrupted run and the resumed ones.
fn every_checkpoint_resumes<E>(
    engine: &E,
    g: &Graph,
    probe: &DivergenceProbe,
) -> (E::Run, Vec<E::Run>)
where
    E: SessionEngine<DivergenceProbe>,
    E::Checkpoint: Snapshot,
{
    let full = journal(engine, g, probe, 2, "prop").unwrap();
    reopened_checkpoint_is_its_payload(engine, g, probe, &full.journal);
    let mut resumed = Vec::new();
    for cp in &full.journal.checkpoints {
        let r = resume(engine, g, probe, &full.journal, cp.round).unwrap();
        prop_assert_eq!(r.from_round, cp.round);
        prop_assert_eq!(r.sink.chain(), full.sink.chain());
        let counts = outcome::<E, DivergenceProbe>(&r.run);
        prop_assert_eq!(counts, outcome::<E, DivergenceProbe>(&full.run));
        resumed.push(r.run);
    }
    (full.run, resumed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Kill-and-resume is invisible — for BFS and Cole–Vishkin on the
    /// synchronous executor and on the event engine under skewed link
    /// latency — and the executor's journaled run is the reference
    /// stepper's run.
    #[test]
    fn killed_and_resumed_runs_are_bit_identical_on_both_engines(
        n in 4usize..20,
        extra in 0usize..16,
        seed in 0u64..1_000_000,
        every in 1u64..5,
        pick in 0u64..1_000_000,
    ) {
        let g = random_connected(n, extra, seed);
        let cfg = ExecutorConfig {
            seed: splitmix64(seed ^ 0x5EED),
            ..ExecutorConfig::default()
        };
        let id: Vec<u64> = (0..g.n() as u64).map(splitmix64).collect();
        let cv = ColeVishkinProgram::new(spanning_forest(&g), id);
        let bfs = BfsProgram { root: 0 };
        let (exec, sim) = engines(&cfg);

        macro_rules! check {
            ($program:expr) => {{
                let (full, _, chain) = kill_and_resume(&exec, &g, $program, every, pick);
                let mut reference = DigestSink::new();
                let expected = Executor::new(cfg.clone())
                    .run_traced(&g, $program, &mut reference)
                    .unwrap();
                prop_assert_eq!(&full.states, &expected.states);
                prop_assert_eq!(chain, reference.chain());
                if let (full, Some(resumed), _) = kill_and_resume(&sim, &g, $program, every, pick) {
                    prop_assert_eq!(resumed.makespan, full.makespan);
                }
            }};
        }
        check!(&bfs);
        check!(&cv);
    }

    /// Journal serialization is a deterministic bijection on both engines.
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
        let (exec, sim) = engines(&cfg);
        journals_are_a_byte_bijection(&exec, &g, &probe, every);
        journals_are_a_byte_bijection(&sim, &g, &probe, every);
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
        let probe = DivergenceProbe::clean(rounds);
        let (exec, sim) = engines(&ExecutorConfig::default());
        every_checkpoint_resumes(&exec, &g, &probe);
        let (full, resumed) = every_checkpoint_resumes(&sim, &g, &probe);
        for run in resumed {
            prop_assert_eq!(run.makespan, full.makespan);
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
        let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
        let sim = SimEngine(Simulator::new(SimConfig::matching(&cfg, latency)), model);

        let mut sink = NullSink;
        let mut cps = Vec::new();
        let mut session = sim.open(&g, &program, None, &mut sink).unwrap();
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
            let mut session = sim.open(&g, &program, Some(cp), &mut sink).unwrap();
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
    let wrapped = Reliable::new(DivergenceProbe::clean(12));
    let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
    let sim = mfd_bench::sim_engine(
        &ExecutorConfig::default(),
        latency,
        FaultModel::iid_loss(0.25),
    );

    let full = journal(&sim, &g, &wrapped, 5, "wheel-32/faulted").unwrap();
    assert!(
        full.journal.checkpoints.len() >= 2,
        "the run must be long enough to checkpoint more than once"
    );

    // The journal survives a byte round-trip, reopens to its own bytes and
    // still resumes.
    let reloaded = Journal::from_bytes(&full.journal.to_bytes()).unwrap();
    reopened_checkpoint_is_its_payload(&sim, &g, &wrapped, &reloaded);
    for cp in &reloaded.checkpoints {
        let r = resume(&sim, &g, &wrapped, &reloaded, cp.round).unwrap();
        assert_eq!(r.from_round, cp.round);
        assert_eq!(r.sink.chain(), full.sink.chain(), "@{}", cp.round);
        assert_eq!(
            Reliable::<DivergenceProbe>::inner_states_cloned(&r.run.states),
            Reliable::<DivergenceProbe>::inner_states_cloned(&full.run.states),
            "@{}",
            cp.round
        );
    }
}

/// Time travel reaches every round of a journal, the last one included: the
/// event engine seals its final round in `finish`, past its last consistent
/// cut, and `replay dump --round <journal.rounds()>` used to panic there.
/// Every target lands on the nearest cut at or after it — on the executor,
/// the target itself.
fn states_at_reaches_every_round<E>(engine: &E, name: &str, g: &Graph)
where
    E: SessionEngine<DivergenceProbe>,
    E::Checkpoint: Snapshot,
{
    let probe = DivergenceProbe::clean(16);
    let full = journal(engine, g, &probe, 4, name).unwrap();
    let last = full.journal.rounds();
    let exact = full.journal.header.engine == EngineKind::Executor;
    for target in 1..=last {
        let (reached, states) = states_at(engine, g, &probe, &full.journal, target).unwrap();
        let cuts = if exact {
            target..=target
        } else {
            target..=last
        };
        assert!(
            cuts.contains(&reached),
            "{name}: cut {reached} for round {target}"
        );
        if reached == last {
            let (last_states, ..) = outcome::<E, DivergenceProbe>(&full.run);
            assert_eq!(states, last_states, "{name}@{target}");
        }
    }
}

#[test]
fn states_at_reaches_the_last_round_on_both_engines() {
    let (exec, sim) = engines(&ExecutorConfig::default());
    for (name, g) in &acceptance_families() {
        states_at_reaches_every_round(&exec, name, g);
        states_at_reaches_every_round(&sim, name, g);
    }
}
