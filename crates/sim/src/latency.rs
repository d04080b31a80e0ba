//! Pluggable per-edge message latency models.
//!
//! A latency model answers one question: how many simulated ticks does the
//! packet a vertex sends along an edge in a given round spend in flight?
//! Randomized models are sampled through the workspace's shared splitmix64
//! discipline, keyed on `(seed, src, dst, round)` — a pure function of the
//! run configuration, never of event scheduling — so every simulation is
//! bit-for-bit reproducible and independent of event-queue tie-breaking.

use mfd_graph::properties::splitmix64;
use mfd_graph::WeightedGraph;
use mfd_runtime::NodeRng;

/// Stream salt separating latency randomness from program randomness
/// ([`mfd_runtime::NodeCtx::rng`] chains the same seed without it).
const LATENCY_STREAM: u64 = 0x6c61_7465_6e63_790a;

/// Per-edge, per-round message delay distribution, in simulated ticks.
///
/// All sampled delays are clamped to at least one tick: a message sent while
/// executing round `r` can never influence the same round, mirroring the
/// synchronous schedule where round-`r` sends arrive in round `r + 1`.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Every message takes exactly `d` ticks (`d` is clamped to ≥ 1).
    /// `Fixed(1)` makes the asynchronous simulation collapse onto the
    /// synchronous schedule: the α-synchronizer executes pulse `r` at tick
    /// `r - 1` everywhere, and final states equal the synchronous
    /// [`mfd_runtime::Executor`]'s bit for bit.
    Fixed(u64),
    /// Uniform integer delay in `lo..=hi` (unbiased, via
    /// [`NodeRng::below`] rejection sampling).
    Uniform {
        /// Smallest delay (clamped to ≥ 1).
        lo: u64,
        /// Largest delay (must be ≥ `lo`).
        hi: u64,
    },
    /// A discrete Pareto tail: delay `⌊min · U^(-1/alpha)⌋` for uniform
    /// `U ∈ (0, 1]`, truncated to `cap`. Small `alpha` (e.g. 1.1–1.5) gives
    /// the occasional enormous straggler link that makes asynchronous
    /// executions interesting; `cap` keeps makespans finite.
    HeavyTail {
        /// Scale: the minimum (and most likely) delay, clamped to ≥ 1.
        min: u64,
        /// Tail exponent; must be positive. Smaller is heavier.
        alpha: f64,
        /// Upper truncation for sampled delays.
        cap: u64,
    },
    /// Deterministic per-edge delays read from a [`WeightedGraph`]: the delay
    /// of `{u, v}` is its edge weight (absent or zero-weight edges fall back
    /// to 1 tick). This plugs the decomposition layer's weighted quotient
    /// graphs straight in as heterogeneous link maps.
    PerEdge(WeightedGraph),
}

impl LatencyModel {
    /// Delay, in ticks, of the packet sent from `src` to `dst` while
    /// executing round `round`, under the given run seed.
    ///
    /// Pure in all four arguments; always ≥ 1.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `hi < lo` or a `HeavyTail` model has a
    /// non-positive `alpha`.
    pub(crate) fn sample(&self, seed: u64, src: usize, dst: usize, round: u64) -> u64 {
        match self {
            LatencyModel::Fixed(d) => (*d).max(1),
            LatencyModel::PerEdge(weights) => weights.weight(src, dst).max(1),
            LatencyModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency range is empty");
                let lo = (*lo).max(1);
                let hi = (*hi).max(lo);
                lo + edge_rng(seed, src, dst, round).below(hi - lo + 1)
            }
            LatencyModel::HeavyTail { min, alpha, cap } => {
                assert!(*alpha > 0.0, "heavy-tail exponent must be positive");
                let min = (*min).max(1);
                // U in (0, 1]: 53 uniform mantissa bits, shifted off zero.
                let bits = edge_rng(seed, src, dst, round).next_u64() >> 11;
                let u = (bits + 1) as f64 / (1u64 << 53) as f64;
                let delay = min as f64 * u.powf(-1.0 / alpha);
                ((delay as u64).max(min)).min((*cap).max(min))
            }
        }
    }
}

/// The deterministic per-(edge, round) random stream.
fn edge_rng(seed: u64, src: usize, dst: usize, round: u64) -> NodeRng {
    let mut s = splitmix64(seed ^ LATENCY_STREAM);
    s = splitmix64(s ^ src as u64);
    s = splitmix64(s ^ dst as u64);
    s = splitmix64(s ^ round);
    NodeRng::from_seed(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_and_per_edge_are_deterministic_and_clamped() {
        assert_eq!(LatencyModel::Fixed(0).sample(1, 0, 1, 1), 1);
        assert_eq!(LatencyModel::Fixed(7).sample(1, 0, 1, 1), 7);
        let w = WeightedGraph::from_edges(3, [(0, 1, 5)]);
        let m = LatencyModel::PerEdge(w);
        assert_eq!(m.sample(9, 0, 1, 3), 5);
        assert_eq!(m.sample(9, 1, 0, 3), 5);
        // Absent edge: fall back to one tick.
        assert_eq!(m.sample(9, 1, 2, 3), 1);
    }

    #[test]
    fn uniform_stays_in_range_and_is_a_pure_function() {
        let m = LatencyModel::Uniform { lo: 2, hi: 6 };
        for round in 1..200 {
            let d = m.sample(0xFEED, 3, 4, round);
            assert!((2..=6).contains(&d));
            assert_eq!(d, m.sample(0xFEED, 3, 4, round), "same key, same delay");
        }
        // Different seeds give different streams (overwhelmingly).
        let same = (1..100)
            .filter(|&r| m.sample(1, 0, 1, r) == m.sample(2, 0, 1, r))
            .count();
        assert!(same < 90);
    }

    #[test]
    fn heavy_tail_respects_min_and_cap() {
        let m = LatencyModel::HeavyTail {
            min: 2,
            alpha: 1.2,
            cap: 50,
        };
        let mut seen_above_min = false;
        for round in 1..500 {
            let d = m.sample(7, 0, 1, round);
            assert!((2..=50).contains(&d));
            seen_above_min |= d > 2;
        }
        assert!(seen_above_min, "tail never fired in 500 samples");
    }

    #[test]
    fn directions_sample_independently() {
        let m = LatencyModel::Uniform { lo: 1, hi: 1000 };
        let forward: Vec<u64> = (1..50).map(|r| m.sample(5, 2, 3, r)).collect();
        let backward: Vec<u64> = (1..50).map(|r| m.sample(5, 3, 2, r)).collect();
        assert_ne!(forward, backward);
    }
}
