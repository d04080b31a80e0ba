//! Gather-under-faults experiment harness.
//!
//! Three questions, answered with measurements rather than assumptions:
//!
//! 1. **Degradation** — what fraction of the §2 gather traffic still reaches
//!    the leader when the network drops, duplicates and reorders messages
//!    ([`gather_raw`])? Protocols with in-band control (the tree pipeline's
//!    done flags, the balancer's stop wave) usually *wedge* — they starve
//!    waiting for a lost control message, and the run reports how far they
//!    got.
//! 2. **Recovery** — wrap the same unmodified program in
//!    [`Reliable`] and the loss-free delivery (and therefore the exact
//!    loss-free delivered set) comes back, at a measured retransmit/ack
//!    overhead ([`gather_recovered`]).
//! 3. **Crash robustness** — crash-stop the gather leader, let the
//!    survivors re-elect ([`ReElectionProgram`]) and re-gather on the
//!    surviving cluster ([`crash_and_regather`]).

use mfd_graph::Graph;
use mfd_routing::programs::{execute_gather, ExecutedGather, GatherProgram, TreeGatherProgram};
use mfd_runtime::{ExecutorConfig, RuntimeError};
use mfd_sim::{SimConfig, Simulator};

use crate::election::ReElectionProgram;
use crate::models::FaultModel;
use crate::reliable::{Reliable, ReliableStats};

/// Outcome of one gather run under a fault model.
///
/// The report's `delivered_fraction` is replaced by the **leader-honest**
/// fraction ([`GatherProgram::leader_received`]): under faults, source-side
/// bookkeeping can look complete while the leader never heard the messages,
/// and it is the leader's receipts the experiments gate on.
#[derive(Debug, Clone)]
pub struct FaultImpact {
    /// The gather report extracted from the (possibly partial) final states.
    pub gather: ExecutedGather,
    /// Simulated makespan at completion or starvation.
    pub makespan: u64,
    /// Whether the run starved against its round budget.
    pub wedged: bool,
    /// Program messages the fault model destroyed.
    pub lost_messages: u64,
    /// Transport statistics, when the run went through [`Reliable`].
    pub reliable: Option<ReliableStats>,
}

/// Runs a gather program **raw** under `model`: losses reach the program.
///
/// # Errors
///
/// Propagates engine errors other than starvation (which is reported as
/// [`FaultImpact::wedged`] with partial results).
pub fn gather_raw<P: GatherProgram>(
    g: &Graph,
    program: &P,
    config: &SimConfig,
    model: &FaultModel,
) -> Result<FaultImpact, RuntimeError> {
    let run = Simulator::new(config.clone()).run_with_faults(g, program, model)?;
    let mut gather = program.executed_report(&run.run.states, run.run.rounds, run.run.messages);
    gather.delivered_fraction = leader_fraction(program, &run.run.states);
    Ok(FaultImpact {
        gather,
        makespan: run.run.makespan,
        wedged: run.outcome.is_wedged(),
        lost_messages: run.run.stats.lost_messages,
        reliable: None,
    })
}

/// The leader-honest delivered fraction of a (possibly partial) run.
fn leader_fraction<P: GatherProgram>(program: &P, states: &[P::State]) -> f64 {
    let total = program.total_messages();
    if total == 0 {
        1.0
    } else {
        program.leader_received(states) as f64 / total as f64
    }
}

/// Runs a gather program behind the [`Reliable`] adapter under `model`: the
/// program sees loss-free delivery; the report's rounds/messages are the
/// *transport's* (physical rounds, frames), so the recovery overhead is
/// visible next to the raw run.
///
/// # Errors
///
/// Propagates engine errors other than starvation.
pub fn gather_recovered<P>(
    g: &Graph,
    reliable: &Reliable<P>,
    config: &SimConfig,
    model: &FaultModel,
) -> Result<FaultImpact, RuntimeError>
where
    P: GatherProgram,
    P::State: Clone,
{
    let run = Simulator::new(config.clone()).run_with_faults(g, reliable, model)?;
    let mut gather = reliable.executed_report(&run.run.states, run.run.rounds, run.run.messages);
    gather.delivered_fraction = leader_fraction(reliable, &run.run.states);
    Ok(FaultImpact {
        gather,
        makespan: run.run.makespan,
        wedged: run.outcome.is_wedged(),
        lost_messages: run.run.stats.lost_messages,
        reliable: Some(Reliable::<P>::stats(&run.run.states)),
    })
}

/// Outcome of a crash → re-election → re-gather experiment.
#[derive(Debug, Clone)]
pub struct CrashRegather {
    /// Vertices the schedule crashed.
    pub crashed: Vec<usize>,
    /// Surviving vertices, ascending.
    pub survivors: Vec<usize>,
    /// Whether every survivor ended on the same post-crash belief.
    pub agreement: bool,
    /// The re-elected leader (survivor consensus; meaningful when
    /// `agreement` holds).
    pub elected: usize,
    /// Rounds the election protocol ran.
    pub election_rounds: u64,
    /// Heartbeat messages the election spent.
    pub election_messages: u64,
    /// The tree gather re-run on the surviving cluster, addressed to the
    /// re-elected leader.
    pub regather: ExecutedGather,
}

/// Crashes `initial_leader` at `crash_round`, lets the survivors re-elect a
/// leader, then re-runs a tree gather on the surviving induced subgraph
/// towards the winner.
///
/// # Errors
///
/// Propagates engine errors from either phase.
///
/// # Panics
///
/// Panics if the crash leaves no survivors.
pub fn crash_and_regather(
    g: &Graph,
    initial_leader: usize,
    crash_round: u64,
    detection_delay: u64,
    sim_config: &SimConfig,
    exec_config: &ExecutorConfig,
) -> Result<CrashRegather, RuntimeError> {
    let program = ReElectionProgram::new(initial_leader, g.n(), crash_round);
    let model = FaultModel::none()
        .with_crash(initial_leader, crash_round)
        .with_detection_delay(detection_delay);
    let run = Simulator::new(sim_config.clone()).run_with_faults(g, &program, &model)?;
    let survivors = run.survivors();
    assert!(!survivors.is_empty(), "crash schedule killed everyone");
    let crashed: Vec<usize> = (0..g.n()).filter(|&v| run.crashed[v]).collect();

    let beliefs: Vec<u64> = survivors
        .iter()
        .map(|&v| run.run.states[v].belief)
        .collect();
    let candidate = run.run.states[survivors[0]].candidate();
    let agreement =
        beliefs.windows(2).all(|w| w[0] == w[1]) && survivors.binary_search(&candidate).is_ok();
    // Without agreement (a disconnected survivor component can keep
    // believing in the dead leader forever — it never hears the new epoch),
    // the re-gather still runs, addressed to the largest survivor, and the
    // caller reads `agreement: false` for the verdict.
    let elected = if survivors.binary_search(&candidate).is_ok() {
        candidate
    } else {
        *survivors.last().expect("survivors are non-empty")
    };

    // Phase 2: gather on the surviving cluster, towards the new leader. The
    // induced subgraph renumbers vertices; map the winner through it.
    let (sub, _old_of_new) = g.induced_subgraph(&survivors);
    let sub_leader = survivors
        .binary_search(&elected)
        .expect("elected leader is a survivor by construction");
    let tree = TreeGatherProgram::new(&sub, sub_leader);
    let (regather, _) = execute_gather(&sub, &tree, exec_config)?;

    Ok(CrashRegather {
        crashed,
        survivors,
        agreement,
        elected,
        election_rounds: run.run.rounds,
        election_messages: run.run.messages,
        regather,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;

    #[test]
    fn raw_tree_gather_degrades_under_loss_and_recovers_behind_the_adapter() {
        let g = generators::triangulated_grid(6, 6);
        let leader = 0;
        let program = TreeGatherProgram::new(&g, leader);
        let config = SimConfig::default();
        let model = FaultModel::iid_loss(0.15);

        let clean = gather_raw(&g, &program, &config, &FaultModel::none()).unwrap();
        assert!(!clean.wedged);
        assert!((clean.gather.delivered_fraction - 1.0).abs() < 1e-12);

        let raw = gather_raw(&g, &program, &config, &model).unwrap();
        assert!(raw.lost_messages > 0);
        // The tree protocol's control plane starves under loss: either the
        // run wedges or some deliveries are gone.
        assert!(raw.wedged || raw.gather.delivered_fraction < 1.0);

        let recovered =
            gather_recovered(&g, &Reliable::new(program.clone()), &config, &model).unwrap();
        assert!(!recovered.wedged);
        assert!((recovered.gather.delivered_fraction - 1.0).abs() < 1e-12);
        let stats = recovered.reliable.unwrap();
        assert!(stats.retransmitted > 0);
        // The recovery is paid for in frames, and the report says how much.
        assert!(recovered.gather.messages > clean.gather.messages);
    }

    #[test]
    fn an_all_duplicating_network_cannot_inflate_the_leader_receipts() {
        // Every message is delivered twice; sequence numbers must reject the
        // copies, so the leader's receipt count equals the loss-free total
        // *exactly* — not merely clamped to it.
        use mfd_sim::{FaultHook, MessageFate};
        struct DupAll;
        impl FaultHook for DupAll {
            fn message_fate(
                &self,
                _seed: u64,
                _src: usize,
                _dst: usize,
                _round: u64,
                _index: usize,
            ) -> MessageFate {
                MessageFate::Duplicate { slip: 1 }
            }
        }
        let g = generators::triangulated_grid(5, 5);
        let program = TreeGatherProgram::new(&g, 0);
        let sim = Simulator::new(SimConfig::default());
        let dup = sim.run_with_faults(&g, &program, &DupAll).unwrap();
        assert!(!dup.outcome.is_wedged());
        assert_eq!(
            program.leader_received(&dup.run.states),
            program.total_messages() as u64
        );
        assert_eq!(
            dup.run.stats.duplicated_messages, dup.run.messages,
            "every message should have been duplicated"
        );
    }

    #[test]
    fn disconnected_survivors_report_disagreement_instead_of_panicking() {
        // The far component never hears of the crash: its survivors keep
        // believing in the dead leader, so there is no consensus — the
        // experiment must say so, not die on an unmappable winner.
        let g = generators::path(4).disjoint_union(&generators::path(3));
        let out = crash_and_regather(
            &g,
            0, // leader in the first component
            3,
            1,
            &SimConfig::default(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(out.crashed, vec![0]);
        assert!(!out.agreement, "disconnected survivors cannot agree");
        // The fallback re-gather is still addressed to a real survivor.
        assert!(out.survivors.contains(&out.elected));
    }

    #[test]
    fn crashing_the_leader_elects_the_max_survivor_and_regathers() {
        let g = generators::triangulated_grid(5, 5);
        let leader = 12; // center-ish
        let out = crash_and_regather(
            &g,
            leader,
            4,
            2,
            &SimConfig::default(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(out.crashed, vec![leader]);
        assert_eq!(out.survivors.len(), g.n() - 1);
        assert!(out.agreement, "survivors disagree on the new leader");
        assert_eq!(out.elected, g.n() - 1, "max-id survivor should win");
        // The surviving grid minus an interior vertex stays connected, so
        // the re-gather delivers everything.
        assert!((out.regather.delivered_fraction - 1.0).abs() < 1e-12);
        assert!(out.regather.rounds > 0);
    }
}
