//! Crash-robust leader re-election by heartbeat epochs.
//!
//! The gather programs all assume a designated leader; a crash-stop fault
//! can kill it. [`ReElectionProgram`] is the recovery protocol the
//! crash experiments run on the surviving cluster:
//!
//! * Every vertex broadcasts a heartbeat every round carrying its current
//!   **belief**, an `(epoch, candidate)` pair packed into one CONGEST word.
//!   All beliefs start at `(0, initial_leader)`.
//! * Because everyone heartbeats every round, silence is a verdict — but a
//!   *tuned* one: a neighbor is declared dead only after
//!   [`ReElectionProgram::missed_threshold`] **consecutive** missing
//!   heartbeats (default 3). One missing heartbeat reads as loss, `k` in a
//!   row as a crash; under message-loss rate `p` a false verdict needs `p^k`
//!   per edge per window, which is what lets the crash experiments compose
//!   with the loss models instead of assuming reliable links.
//! * A vertex that detects the death of its *believed leader* opens a new
//!   epoch: belief becomes `(epoch + 1, own id)`. Beliefs merge by
//!   lexicographic maximum, and any vertex holding a bumped epoch enrolls
//!   itself (`candidate = max(candidate, own id)`) — so the new epoch floods
//!   the surviving component and converges to the **largest surviving id**,
//!   while the dead leader, unable to speak, can never re-enter. A belief
//!   naming a neighbor the receiver has personally seen die is not adopted;
//!   it is answered with the next epoch.
//! * The protocol runs a fixed horizon of rounds (diameter + detection
//!   slack) and halts; the run is wedge-free by construction since every
//!   vertex broadcasts unconditionally.
//!
//! With `missed_threshold = 1` the program degenerates to the original
//! loss-intolerant detector; at the default of 3 it runs correctly under
//! moderate loss (tested), at the price of `k − 1` extra rounds of
//! detection latency folded into the horizon.

use mfd_runtime::{Envelope, NodeCtx, NodeProgram, Outbox};

/// Packs `(epoch, candidate)` into one comparable word.
fn pack(epoch: u64, candidate: usize) -> u64 {
    (epoch << 32) | candidate as u64
}

/// Unpacks a belief word into `(epoch, candidate)`.
pub(crate) fn unpack(belief: u64) -> (u64, usize) {
    (belief >> 32, (belief & 0xFFFF_FFFF) as usize)
}

/// Per-vertex state of [`ReElectionProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElectionState {
    /// Current `(epoch, candidate)` belief, packed (`unpack`).
    pub belief: u64,
    /// Neighbors this vertex has personally seen die (k missed heartbeats).
    pub dead: Vec<usize>,
    /// Consecutive missed heartbeats per neighbor (in `ctx.neighbors`
    /// order); reset by any received heartbeat.
    missed: Vec<u32>,
}

impl ElectionState {
    /// The currently believed leader.
    pub(crate) fn candidate(&self) -> usize {
        unpack(self.belief).1
    }

    /// The election epoch of the belief (0 = the initial leader).
    pub(crate) fn epoch(&self) -> u64 {
        unpack(self.belief).0
    }
}

/// Heartbeat-epoch leader re-election (module docs), run for a fixed round
/// horizon under a crash schedule.
#[derive(Debug, Clone)]
pub struct ReElectionProgram {
    /// The epoch-0 leader everyone starts believing in.
    pub initial_leader: usize,
    /// Rounds to run before halting (cover crash round + detection delay +
    /// missed-heartbeat window + surviving diameter, with slack).
    pub horizon: u64,
    /// Consecutive missing heartbeats before a neighbor is declared dead
    /// (≥ 1; the default 3 tolerates loss bursts of length 2).
    pub missed_threshold: u32,
}

/// Default missed-heartbeat window: silence must persist for three rounds.
pub(crate) const DEFAULT_MISSED_THRESHOLD: u32 = 3;

impl ReElectionProgram {
    /// Builds the protocol with the default detector and a horizon derived
    /// from the cluster size: `crash_round + n + 16 + threshold` covers
    /// detection plus any flood.
    pub(crate) fn new(initial_leader: usize, n: usize, crash_round: u64) -> Self {
        ReElectionProgram {
            initial_leader,
            horizon: crash_round + n as u64 + 16 + DEFAULT_MISSED_THRESHOLD as u64,
            missed_threshold: DEFAULT_MISSED_THRESHOLD,
        }
    }
}

impl NodeProgram for ReElectionProgram {
    type State = ElectionState;
    type Msg = u64;

    fn init(&self, ctx: &NodeCtx) -> ElectionState {
        ElectionState {
            belief: pack(0, self.initial_leader),
            dead: Vec::new(),
            missed: vec![0; ctx.degree()],
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut ElectionState,
        inbox: &[Envelope<u64>],
        out: &mut Outbox<'_, u64>,
    ) {
        // Merge incoming beliefs; beliefs naming a neighbor this vertex saw
        // die are countered with the next epoch instead of adopted.
        for env in inbox {
            let (epoch, candidate) = unpack(env.msg);
            let proposal = if state.dead.contains(&candidate) {
                pack(epoch + 1, ctx.id)
            } else {
                env.msg
            };
            state.belief = state.belief.max(proposal);
        }

        // Silence detection: everyone alive broadcasts every round, so from
        // round 2 on a missing heartbeat counts against the sender — and
        // `missed_threshold` *consecutive* misses are a crash verdict (a
        // single miss reads as message loss, not death).
        if ctx.round >= 2 {
            for (i, &u) in ctx.neighbors.iter().enumerate() {
                if state.dead.contains(&u) {
                    continue;
                }
                if inbox.iter().any(|env| env.src == u) {
                    state.missed[i] = 0;
                    continue;
                }
                state.missed[i] += 1;
                if state.missed[i] >= self.missed_threshold {
                    state.dead.push(u);
                    if state.candidate() == u {
                        state.belief = pack(state.epoch() + 1, ctx.id);
                    }
                }
            }
        }

        // A bumped epoch enrolls every survivor that hears of it, so the
        // flood converges to the largest surviving id.
        let (epoch, candidate) = unpack(state.belief);
        if epoch > 0 && ctx.id > candidate {
            state.belief = pack(epoch, ctx.id);
        }

        out.broadcast(state.belief);
    }

    fn halted(&self, ctx: &NodeCtx, _state: &ElectionState) -> bool {
        ctx.round >= self.horizon
    }

    fn round_budget_hint(&self) -> Option<u64> {
        Some(self.horizon + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_sim::{FaultOutcome, SimConfig, Simulator};

    use crate::models::FaultModel;

    #[test]
    fn without_crashes_everyone_keeps_the_initial_leader() {
        let g = generators::triangulated_grid(4, 4);
        let program = ReElectionProgram::new(3, g.n(), 0);
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &program, &FaultModel::none())
            .unwrap();
        assert_eq!(run.outcome, FaultOutcome::Completed);
        for s in &run.run.states {
            assert_eq!(s.epoch(), 0);
            assert_eq!(s.candidate(), 3);
            assert!(s.dead.is_empty());
        }
    }

    #[test]
    fn survivors_agree_on_the_largest_surviving_id() {
        let g = generators::wheel(16); // hub 0, rim 1..=15
        let leader = 0;
        let crash_round = 3;
        let program = ReElectionProgram::new(leader, g.n(), crash_round);
        let model = FaultModel::none()
            .with_crash(leader, crash_round)
            .with_detection_delay(2);
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &program, &model)
            .unwrap();
        assert_eq!(run.outcome, FaultOutcome::Completed);
        assert_eq!(run.survivors(), (1..16).collect::<Vec<_>>());
        for v in run.survivors() {
            let s = &run.run.states[v];
            assert!(s.epoch() >= 1, "vertex {v} never left epoch 0");
            assert_eq!(s.candidate(), 15, "vertex {v} disagrees");
        }
    }

    #[test]
    fn election_composes_with_message_loss() {
        // The point of the k-missed detector: crash the leader *and* lose 5%
        // of all heartbeats. Single missing heartbeats are forgiven, the
        // crashed leader's permanent silence is not, and the survivors still
        // converge on the largest surviving id.
        let g = generators::wheel(16);
        let leader = 0;
        let crash_round = 3;
        let program = ReElectionProgram::new(leader, g.n(), crash_round);
        assert_eq!(program.missed_threshold, 3);
        let model = FaultModel::iid_loss(0.05)
            .with_crash(leader, crash_round)
            .with_detection_delay(2);
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &program, &model)
            .unwrap();
        assert_eq!(run.outcome, FaultOutcome::Completed);
        for v in run.survivors() {
            let s = &run.run.states[v];
            assert!(s.epoch() >= 1, "vertex {v} never left epoch 0");
            assert_eq!(s.candidate(), 15, "vertex {v} disagrees");
            // Nobody read a lost heartbeat as a death verdict.
            assert_eq!(s.dead, vec![leader], "vertex {v} false-detected");
        }
    }

    #[test]
    fn a_unit_threshold_reproduces_the_loss_intolerant_detector() {
        // Regression guard for the old semantics: with k = 1 a single
        // missing heartbeat is an immediate verdict.
        let g = generators::cycle(8);
        let mut program = ReElectionProgram::new(7, g.n(), 4);
        program.missed_threshold = 1;
        let model = FaultModel::none().with_crash(2, 4);
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &program, &model)
            .unwrap();
        assert!(run.run.states[1].dead.contains(&2));
        assert!(run.run.states[3].dead.contains(&2));
    }

    #[test]
    fn non_leader_crashes_do_not_trigger_an_election() {
        let g = generators::cycle(8);
        let program = ReElectionProgram::new(7, g.n(), 4);
        let model = FaultModel::none().with_crash(2, 4);
        let run = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &program, &model)
            .unwrap();
        for v in run.survivors() {
            let s = &run.run.states[v];
            assert_eq!(s.epoch(), 0, "vertex {v} bumped the epoch needlessly");
            assert_eq!(s.candidate(), 7);
        }
        // The crash was still observed by 2's neighbors.
        assert!(run.run.states[1].dead.contains(&2));
        assert!(run.run.states[3].dead.contains(&2));
    }
}
