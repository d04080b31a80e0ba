//! Demo of the `mfd-replay` checkpoint/replay layer: journals a run with
//! periodic checkpoints stamped against the digest chain, round-trips the
//! journal through its byte encoding, kills the run at a checkpoint and
//! resumes it bit-identically (digest heads equal round for round), and
//! time-travels to an arbitrary round without re-running from scratch —
//! then does it all again under ARQ reliable delivery on a lossy network,
//! where the checkpoint carries the full transport state.
//!
//! Run with: `cargo run --release --example replay_demo`

use mfd_bench::replay::{executor_journal, resume_executor, resume_sim, sim_journal};
use mfd_bench::trace::DivergenceProbe;
use mfd_faults::{FaultModel, Reliable};
use mfd_graph::{generators, CsrGraph};
use mfd_replay::Journal;
use mfd_runtime::{ExecCheckpoint, ExecutorConfig};
use mfd_sim::LatencyModel;
use mfd_trace::NullSink;

fn main() {
    let g = generators::triangulated_grid(8, 8);
    let csr = CsrGraph::from_graph(&g);
    let cfg = ExecutorConfig::default();
    let probe = DivergenceProbe::clean(16);
    println!(
        "graph: triangulated 8x8 grid, n = {}, m = {}\n",
        g.n(),
        g.m()
    );

    // 1. Journal a run: a checkpoint every 4 sealed rounds, each stamped
    //    with the digest-chain head at its round.
    let full = executor_journal(&csr, &probe, &cfg, 4, "demo/probe").expect("probe runs");
    println!(
        "journaled executor run: {} rounds, {} checkpoints, final head {:016x}",
        full.journal.rounds(),
        full.journal.checkpoints.len(),
        full.sink.head()
    );

    // 2. The journal is a verified byte format: encode, decode (which
    //    re-verifies stamps, chain contiguity and the re-folded links),
    //    and the bytes round-trip exactly.
    let bytes = full.journal.to_bytes();
    let reloaded = Journal::from_bytes(&bytes).expect("journal verifies");
    assert_eq!(bytes, reloaded.to_bytes());
    println!(
        "journal round-trips through {} bytes (verified on load)\n",
        bytes.len()
    );

    // 3. Kill and resume: restore the round-8 checkpoint and continue. The
    //    resumed digest chain equals the uninterrupted run's, round for
    //    round — the crash was invisible.
    let resumed = resume_executor(&reloaded, 8, &csr, &probe, &cfg).expect("journal resumes");
    assert_eq!(resumed.sink.chain(), full.sink.chain());
    assert_eq!(resumed.run.states, full.run.states);
    println!(
        "killed at round {}, replayed {} rounds: chain bit-identical over all {} rounds",
        resumed.from_round,
        resumed.rounds_replayed,
        reloaded.rounds()
    );

    // 4. Time travel: vertex states at round 10, reconstructed by stepping
    //    forward from the round-8 checkpoint — two rounds of work, not ten.
    let cp = reloaded
        .checkpoint_at(10)
        .expect("checkpoint below round 10");
    let restored: ExecCheckpoint<u64, u64> = reloaded.decode_checkpoint(cp).expect("decodes");
    let exec = mfd_bench::sync_executor(&cfg);
    let mut sink = NullSink;
    let mut session = exec
        .restore(&csr, &probe, restored, &mut sink)
        .expect("the journal's checkpoint fits its own graph");
    while session
        .step()
        .expect("probe runs")
        .expect("the run reaches round 10")
        < 10
    {}
    let states = session.finish().states;
    println!(
        "time travel from round {}: v0 state at round 10 is {:#018x}\n",
        cp.round, states[0]
    );

    // 5. The same guarantee under faults: wrap the probe in the ARQ adapter,
    //    lose 20% of packets i.i.d., journal, kill, resume. The checkpoint
    //    carries send windows, reorder buffers and cumulative acks; fault
    //    fates are pure in (seed, edge, round, index) and re-derived, so the
    //    continuation meets exactly the fate sequence the full run saw.
    let wrapped = Reliable::new(DivergenceProbe::clean(16));
    let model = FaultModel::iid_loss(0.2);
    let latency = LatencyModel::Uniform { lo: 1, hi: 3 };
    let faulted = sim_journal(
        &g,
        &wrapped,
        &model,
        &cfg,
        latency.clone(),
        8,
        "demo/faulted",
    )
    .expect("probe runs");
    let mid = &faulted.journal.checkpoints[faulted.journal.checkpoints.len() / 2];
    let resumed = resume_sim(
        &faulted.journal,
        mid.round,
        &g,
        &wrapped,
        &model,
        &cfg,
        latency,
    )
    .expect("journal resumes");
    assert_eq!(resumed.sink.chain(), faulted.sink.chain());
    println!(
        "under 20% loss + Reliable<probe>: {} rounds, {} messages of ARQ traffic, \
         killed at round {}, resumed bit-identically (head {:016x})",
        faulted.journal.rounds(),
        faulted.run.run.messages,
        mid.round,
        resumed.sink.head()
    );
}
