//! Deterministic fault models for the event engine.
//!
//! A [`FaultModel`] bundles the four fault axes the delivery hook supports —
//! message loss ([`LossModel`]), duplication, reordering-by-slippage and
//! crash-stop vertices — into one [`mfd_sim::FaultHook`] implementation. All
//! randomness flows through the workspace's splitmix64 discipline, keyed on
//! `(seed, edge, round, message index)` through dedicated stream salts, so:
//!
//! * faulty runs are bit-for-bit reproducible and tie-break independent
//!   (fates are pure functions of the run configuration, never of event
//!   scheduling);
//! * fault randomness never perturbs program or latency randomness — a model
//!   with all rates at zero yields a simulation *identical* to the clean one,
//!   which the zero-fault identity suites pin down.
//!
//! The Gilbert–Elliott burst model is the one stateful channel: each edge
//! direction carries a two-state (good/bad) Markov chain stepped once per
//! round. The chain is itself a pure function of `(seed, edge, round)` —
//! the implementation memoizes each edge's state sequence internally, so
//! query order cannot matter.

use std::cell::RefCell;
use std::collections::BTreeMap;

use mfd_graph::properties::splitmix64;
use mfd_runtime::NodeRng;
use mfd_sim::{FaultHook, MessageFate};

/// Stream salt separating per-message fault randomness from program and
/// latency randomness.
const FAULT_STREAM: u64 = 0x6661_756c_7473_0a00;
/// Stream salt for the Gilbert–Elliott per-edge channel chains.
const BURST_STREAM: u64 = 0x6275_7273_7479_0a00;

/// The per-message loss process of a [`FaultModel`].
#[derive(Debug, Clone, Default)]
pub enum LossModel {
    /// No losses.
    #[default]
    None,
    /// Every message is lost independently with probability `p`.
    Iid {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Gilbert–Elliott burst loss: each edge direction is a two-state
    /// Markov channel stepped once per round; messages are lost with the
    /// current state's loss probability. Captures the bursty outages (a
    /// flapping link, a congested queue) that i.i.d. loss cannot.
    GilbertElliott {
        /// Per-round probability of a good edge turning bad.
        p_enter_bad: f64,
        /// Per-round probability of a bad edge recovering.
        p_exit_bad: f64,
        /// Loss probability while the edge is good.
        loss_good: f64,
        /// Loss probability while the edge is bad.
        loss_bad: f64,
    },
}

/// A deterministic, seed-keyed fault model: loss, duplication, reordering
/// and crash-stop vertices, pluggable into
/// [`mfd_sim::Simulator::run_with_faults`].
///
/// [`FaultModel::default`] (= [`FaultModel::none`]) injects nothing and is
/// bit-for-bit identical to a clean simulation.
#[derive(Debug, Default)]
pub struct FaultModel {
    /// The loss process.
    pub loss: LossModel,
    /// Probability that a delivered message is also duplicated (the copy
    /// arrives 1..=`max_slip` rounds late).
    pub duplicate_p: f64,
    /// Probability that a message slips 1..=`max_slip` rounds — reordering
    /// beyond latency jitter, since younger same-edge traffic overtakes it.
    pub slip_p: f64,
    /// Largest slip, in rounds (clamped to ≥ 1 whenever a slip fires).
    pub max_slip: u64,
    /// Crash schedule: `(vertex, round)` pairs; the vertex executes local
    /// rounds `1..round` and then crash-stops silently.
    pub crashes: Vec<(usize, u64)>,
    /// Ticks until neighbors' failure detectors notice a crash.
    pub detection_delay: u64,
    /// Memoized Gilbert–Elliott chains: per `(seed, src, dst)`, the
    /// bad-state flag for rounds `1..` (single-threaded interior
    /// mutability; contents are a pure function of the key, and keying by
    /// seed keeps a model reused across differently-seeded runs honest).
    chains: RefCell<BTreeMap<(u64, usize, usize), Vec<bool>>>,
}

impl Clone for FaultModel {
    fn clone(&self) -> Self {
        FaultModel {
            loss: self.loss.clone(),
            duplicate_p: self.duplicate_p,
            slip_p: self.slip_p,
            max_slip: self.max_slip,
            crashes: self.crashes.clone(),
            detection_delay: self.detection_delay,
            // The memo is pure derived state; a clone re-derives it.
            chains: RefCell::new(BTreeMap::new()),
        }
    }
}

impl FaultModel {
    /// The identity model: nothing is ever lost, duplicated, slipped or
    /// crashed.
    pub fn none() -> Self {
        FaultModel::default()
    }

    /// I.i.d. message loss with probability `p`.
    pub fn iid_loss(p: f64) -> Self {
        FaultModel {
            loss: LossModel::Iid { p },
            ..FaultModel::default()
        }
    }

    /// Gilbert–Elliott burst loss (see [`LossModel::GilbertElliott`]).
    pub fn burst_loss(p_enter_bad: f64, p_exit_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        FaultModel {
            loss: LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            },
            ..FaultModel::default()
        }
    }

    /// A mixed model: i.i.d. loss plus duplication and slippage.
    pub fn chaos(loss_p: f64, duplicate_p: f64, slip_p: f64, max_slip: u64) -> Self {
        FaultModel {
            loss: LossModel::Iid { p: loss_p },
            duplicate_p,
            slip_p,
            max_slip,
            ..FaultModel::default()
        }
    }

    /// Adds a crash: `vertex` executes local rounds `1..round`, then dies.
    pub fn with_crash(mut self, vertex: usize, round: u64) -> Self {
        self.crashes.push((vertex, round));
        self
    }

    /// Sets the failure-detector delay, in ticks.
    pub(crate) fn with_detection_delay(mut self, ticks: u64) -> Self {
        self.detection_delay = ticks;
        self
    }

    /// Whether the edge `src → dst` is in the bad state while `src` executes
    /// `round` (Gilbert–Elliott only; `false` otherwise).
    fn bad_state(&self, seed: u64, src: usize, dst: usize, round: u64) -> bool {
        let LossModel::GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            ..
        } = self.loss
        else {
            return false;
        };
        let mut chains = self.chains.borrow_mut();
        let chain = chains.entry((seed, src, dst)).or_default();
        // Extend the chain deterministically: one keyed draw per round,
        // starting from the good state at round 1.
        while chain.len() < round as usize {
            let prev = chain.last().copied().unwrap_or(false);
            let r = chain.len() as u64 + 1;
            let mut rng = stream_rng(BURST_STREAM, seed, src, dst, r, 0);
            let u = unit(&mut rng);
            chain.push(if prev {
                u >= p_exit_bad
            } else {
                u < p_enter_bad
            });
        }
        chain[round as usize - 1]
    }
}

impl FaultHook for FaultModel {
    fn message_fate(
        &self,
        seed: u64,
        src: usize,
        dst: usize,
        round: u64,
        index: usize,
    ) -> MessageFate {
        let mut rng = stream_rng(FAULT_STREAM, seed, src, dst, round, index);
        let loss_p = match &self.loss {
            LossModel::None => 0.0,
            LossModel::Iid { p } => *p,
            LossModel::GilbertElliott {
                loss_good,
                loss_bad,
                ..
            } => {
                if self.bad_state(seed, src, dst, round) {
                    *loss_bad
                } else {
                    *loss_good
                }
            }
        };
        if unit(&mut rng) < loss_p {
            return MessageFate::Drop;
        }
        if unit(&mut rng) < self.slip_p {
            return MessageFate::Slip {
                slip: 1 + rng.below(self.max_slip.max(1)),
            };
        }
        if unit(&mut rng) < self.duplicate_p {
            return MessageFate::Duplicate {
                slip: 1 + rng.below(self.max_slip.max(1)),
            };
        }
        MessageFate::Deliver
    }

    fn crash_round(&self, vertex: usize) -> Option<u64> {
        self.crashes
            .iter()
            .filter(|&&(v, _)| v == vertex)
            .map(|&(_, r)| r)
            .min()
    }

    fn detection_delay(&self) -> u64 {
        self.detection_delay.max(1)
    }
}

/// The deterministic per-(stream, edge, round, index) random chain.
fn stream_rng(salt: u64, seed: u64, src: usize, dst: usize, round: u64, index: usize) -> NodeRng {
    let mut s = splitmix64(seed ^ salt);
    s = splitmix64(s ^ src as u64);
    s = splitmix64(s ^ dst as u64);
    s = splitmix64(s ^ round);
    s = splitmix64(s ^ index as u64);
    NodeRng::from_seed(s)
}

/// A uniform draw in `[0, 1)` (53 mantissa bits).
fn unit(rng: &mut NodeRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_models_always_deliver() {
        for model in [
            FaultModel::none(),
            FaultModel::iid_loss(0.0),
            FaultModel::burst_loss(0.1, 0.3, 0.0, 0.0),
            FaultModel::chaos(0.0, 0.0, 0.0, 4),
        ] {
            for round in 1..200 {
                for index in 0..3 {
                    assert_eq!(
                        model.message_fate(0xFEED, 0, 1, round, index),
                        MessageFate::Deliver
                    );
                }
            }
        }
    }

    #[test]
    fn fates_are_pure_functions_of_the_key() {
        let a = FaultModel::chaos(0.2, 0.1, 0.1, 3);
        let b = a.clone();
        let mut seen_drop = false;
        let mut seen_other = false;
        for round in 1..400 {
            let fa = a.message_fate(7, 2, 3, round, 0);
            assert_eq!(fa, b.message_fate(7, 2, 3, round, 0));
            // Query order must not matter either (fresh model, same key).
            let c = FaultModel::chaos(0.2, 0.1, 0.1, 3);
            assert_eq!(fa, c.message_fate(7, 2, 3, round, 0));
            seen_drop |= fa == MessageFate::Drop;
            seen_other |= fa != MessageFate::Drop;
        }
        assert!(seen_drop && seen_other);
    }

    #[test]
    fn gilbert_elliott_chains_are_query_order_independent_and_bursty() {
        let loss = |m: &FaultModel, round| m.message_fate(42, 0, 1, round, 0) == MessageFate::Drop;
        let forward = FaultModel::burst_loss(0.05, 0.25, 0.0, 1.0);
        let fwd: Vec<bool> = (1..1000).map(|r| loss(&forward, r)).collect();
        let backward = FaultModel::burst_loss(0.05, 0.25, 0.0, 1.0);
        let bwd: Vec<bool> = (1..1000).rev().map(|r| loss(&backward, r)).collect();
        let mut rev = bwd.clone();
        rev.reverse();
        assert_eq!(fwd, rev);
        // Bursts: with loss_bad = 1 and loss_good = 0, losses come in runs
        // whose mean length (1/p_exit ≈ 4) exceeds the i.i.d. expectation.
        let losses = fwd.iter().filter(|&&l| l).count();
        let runs = fwd.windows(2).filter(|w| w[1] && !w[0]).count().max(1);
        assert!(losses > 0, "bad state never entered in 1000 rounds");
        assert!(
            losses as f64 / runs as f64 > 2.0,
            "losses are not bursty: {losses} losses in {runs} runs"
        );
    }

    #[test]
    fn gilbert_elliott_model_reuse_across_seeds_matches_fresh_models() {
        // A model instance queried under seed A must serve seed B exactly
        // what a fresh instance would — the chain memo is keyed by seed.
        let reused = FaultModel::burst_loss(0.1, 0.3, 0.0, 1.0);
        let a: Vec<MessageFate> = (1..200)
            .map(|r| reused.message_fate(1, 0, 1, r, 0))
            .collect();
        let b: Vec<MessageFate> = (1..200)
            .map(|r| reused.message_fate(2, 0, 1, r, 0))
            .collect();
        let fresh = FaultModel::burst_loss(0.1, 0.3, 0.0, 1.0);
        let b_fresh: Vec<MessageFate> = (1..200)
            .map(|r| fresh.message_fate(2, 0, 1, r, 0))
            .collect();
        assert_eq!(b, b_fresh, "reused model served a stale chain");
        assert_ne!(a, b, "different seeds should give different chains");
    }

    #[test]
    fn crash_schedule_takes_the_earliest_round() {
        let m = FaultModel::none().with_crash(3, 10).with_crash(3, 5);
        assert_eq!(m.crash_round(3), Some(5));
        assert_eq!(m.crash_round(4), None);
        assert_eq!(m.detection_delay(), 1); // clamped
        assert_eq!(m.with_detection_delay(7).detection_delay(), 7);
    }

    #[test]
    fn observed_loss_rate_tracks_the_configured_probability() {
        let m = FaultModel::iid_loss(0.3);
        let n = 20_000;
        let mut drops = 0;
        for round in 1..=n {
            if m.message_fate(1, 0, 1, round, 0) == MessageFate::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed loss rate {rate}");
    }
}
