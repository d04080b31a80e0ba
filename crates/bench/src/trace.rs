//! Shared plumbing for the trace surface: the divergence probe program and
//! digest-chain runners used by the `divergence` bin, the `report --section
//! trace` rows and the repo-level integration tests. One definition, so the
//! CI-gated chains and the test suite can never drift onto different
//! instrumentation.

use mfd_graph::{CsrGraph, Graph};
use mfd_runtime::{
    Envelope, ExecutorConfig, NodeCtx, NodeProgram, Outbox, RuntimeError, ShardedExecution,
};
use mfd_sim::{LatencyModel, SimConfig, SimExecution, Simulator};
use mfd_trace::DigestSink;

/// A deterministic accumulator for divergence hunting: every vertex starts
/// at its id, folds each inbox message into its counter, stirs in the round
/// number and broadcasts the result for `rounds` rounds. An optional seeded
/// perturbation XORs one vertex's state at one exact round; because the
/// state is broadcast, the corruption propagates and every later round
/// digest differs too — the canonical "two runs part ways at round r"
/// instance the [`mfd_trace::first_divergence`] search is specified against.
#[derive(Debug, Clone, Copy)]
pub struct DivergenceProbe {
    /// Rounds to run (every vertex broadcasts through round `rounds`).
    pub rounds: u64,
    /// Optional `(round, vertex)` at which that vertex's state is perturbed.
    pub perturb: Option<(u64, usize)>,
}

impl DivergenceProbe {
    /// An unperturbed probe.
    pub fn clean(rounds: u64) -> Self {
        DivergenceProbe {
            rounds,
            perturb: None,
        }
    }

    /// A probe that corrupts `vertex`'s state at exactly `round`.
    pub fn perturbed(rounds: u64, round: u64, vertex: usize) -> Self {
        DivergenceProbe {
            rounds,
            perturb: Some((round, vertex)),
        }
    }
}

impl NodeProgram for DivergenceProbe {
    type State = u64;
    type Msg = u64;

    fn init(&self, ctx: &NodeCtx) -> u64 {
        ctx.id as u64
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut u64,
        inbox: &[Envelope<u64>],
        out: &mut Outbox<'_, u64>,
    ) {
        for env in inbox {
            *state = state.wrapping_mul(31).wrapping_add(env.msg);
        }
        *state = state.wrapping_add(ctx.round);
        if self.perturb == Some((ctx.round, ctx.id)) {
            *state ^= 0xDEAD_BEEF;
        }
        if ctx.round < self.rounds {
            out.broadcast(*state);
        }
    }

    fn halted(&self, ctx: &NodeCtx, _state: &u64) -> bool {
        ctx.round >= self.rounds
    }

    fn round_budget_hint(&self) -> Option<u64> {
        Some(self.rounds + 2)
    }
}

/// Runs `program` on the synchronous executor journaling the digest chain
/// (with per-vertex snapshots, so a divergence can be localized).
///
/// # Errors
///
/// Propagates the engine failure.
pub fn executor_chain<P>(
    g: &CsrGraph,
    program: &P,
    config: &ExecutorConfig,
) -> Result<(DigestSink, ShardedExecution<P::State>), RuntimeError>
where
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    let mut sink = DigestSink::with_snapshots();
    let run = crate::sync_executor(config).run_traced(g, program, &mut sink)?;
    Ok((sink, run))
}

/// Runs `program` on the event engine under `latency` (configuration matched
/// to `config`, as [`mfd_sim::run_both`] does) journaling the digest chain.
///
/// # Errors
///
/// Propagates the engine failure.
pub fn sim_chain<P>(
    g: &Graph,
    program: &P,
    config: &ExecutorConfig,
    latency: LatencyModel,
) -> Result<(DigestSink, SimExecution<P::State>), RuntimeError>
where
    P: NodeProgram,
    P::State: std::hash::Hash,
{
    let mut sink = DigestSink::with_snapshots();
    let run =
        Simulator::new(SimConfig::matching(config, latency)).run_traced(g, program, &mut sink)?;
    Ok((sink, run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_trace::first_divergence;

    #[test]
    fn probe_chains_agree_across_engines_and_divergence_is_pinpointed() {
        let g = generators::wheel(16);
        let csr = CsrGraph::from_graph(&g);
        let cfg = ExecutorConfig::default();
        let clean = DivergenceProbe::clean(8);
        let (a, _) = executor_chain(&csr, &clean, &cfg).unwrap();
        let (b, _) = sim_chain(&g, &clean, &cfg, LatencyModel::Fixed(1)).unwrap();
        assert_eq!(a.chain(), b.chain(), "engines agree on the clean probe");

        let (p, _) = executor_chain(&csr, &DivergenceProbe::perturbed(8, 5, 3), &cfg).unwrap();
        // Chain index == round: round 0 is the initial configuration.
        assert_eq!(first_divergence(&a.chain(), &p.chain()), Some(5));
        assert_eq!(DigestSink::diverging_vertices(&a, &p, 5), vec![3]);
    }
}
