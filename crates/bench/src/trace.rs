//! Shared plumbing for the trace surface: the divergence probe program and
//! [`chain`], the one digest-chain runner for any [`SessionEngine`], used by
//! `mfd-debug divergence`, the `report --section trace` rows and the
//! repo-level integration tests. One definition, so the CI-gated chains and
//! the test suite can never drift onto different instrumentation.

use mfd_graph::Graph;
use mfd_runtime::{Envelope, NodeCtx, NodeProgram, Outbox, RuntimeError, SessionEngine};
use mfd_trace::RunObserver;

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
        Some(self.rounds.saturating_add(2))
    }
}

/// Runs `program` to the end on `engine` under `observer` — a
/// [`DigestSink`](mfd_trace::DigestSink) journaling the chain (with
/// per-vertex snapshots to localize a divergence, or with a reference chain
/// to verify online), alone or composed with other sinks.
///
/// # Errors
///
/// Propagates the engine failure, a blown round budget included.
pub fn chain<E, P, O>(
    engine: &E,
    g: &Graph,
    program: &P,
    observer: &mut O,
) -> Result<E::Run, RuntimeError>
where
    E: SessionEngine<P>,
    P: NodeProgram,
    O: RunObserver<P::State>,
{
    let mut session = engine.open(g, program, None, observer)?;
    while E::step(&mut session)?.is_some() {}
    E::finish(session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_runtime::ExecutorConfig;
    use mfd_sim::{LatencyModel, NoFaults};
    use mfd_trace::{first_divergence, DigestSink};

    #[test]
    fn probe_chains_agree_across_engines_and_divergence_is_pinpointed() {
        let g = generators::wheel(16);
        let cfg = ExecutorConfig::default();
        let exec = crate::sync_executor(&cfg);
        let sim = crate::sim_engine(&cfg, LatencyModel::Fixed(1), NoFaults);
        let clean = DivergenceProbe::clean(8);
        let (mut a, mut b, mut p) = (
            DigestSink::with_snapshots(),
            DigestSink::with_snapshots(),
            DigestSink::with_snapshots(),
        );
        chain(&exec, &g, &clean, &mut a).unwrap();
        chain(&sim, &g, &clean, &mut b).unwrap();
        assert_eq!(a.chain(), b.chain(), "engines agree on the clean probe");

        chain(&exec, &g, &DivergenceProbe::perturbed(8, 5, 3), &mut p).unwrap();
        // Chain index == round: round 0 is the initial configuration.
        assert_eq!(first_divergence(&a.chain(), &p.chain()), Some(5));
        assert_eq!(DigestSink::diverging_vertices(&a, &p, 5), vec![3]);
    }
}
