//! The reliable-delivery adapter: wrap any [`NodeProgram`], run it on a
//! lossy network, get loss-free semantics back.
//!
//! [`Reliable<P>`] is itself a `NodeProgram`, so it runs unmodified on every
//! engine; its *physical* rounds carry one [`Frame`] per edge per round — the
//! α-synchronizer pulse with transport metadata piggybacked — while the
//! wrapped program advances through *logical* rounds gated on provably
//! complete inboxes. The transport is a classic per-edge ARQ:
//!
//! * **Sequence numbers.** Every inner message queued on an edge gets the
//!   next per-edge sequence number; receivers deduplicate and reorder by it,
//!   so duplication and slippage faults are absorbed outright.
//! * **Cumulative acks.** Every frame carries the receiver's in-order prefix
//!   count for the reverse direction. Acks are idempotent summaries, so lost
//!   ack frames cost nothing — the next frame repeats them.
//! * **Timeout retransmission.** A sender whose oldest unacked message has
//!   seen no ack progress for `TIMEOUT` (4) physical rounds resends from the
//!   unacked prefix. Retransmissions ride later frames, whose fault fates
//!   are sampled independently, so every message is delivered eventually
//!   (with probability 1 under any loss rate < 1).
//! * **Round boundaries.** Frames also repeat the sender's last completed
//!   inner round and the cumulative message count queued through it. A
//!   vertex runs inner round `k + 1` only when, for every neighbor, it holds
//!   that neighbor's traffic complete up to its announced boundary covering
//!   round `k` — restoring the exact synchronous inbox contract, so the
//!   inner program's trajectory is *bit-for-bit* the loss-free one.
//!
//! Termination uses a linger close (the TIME_WAIT of this protocol): once a
//! vertex's inner program has halted, all its sends are acked, and every
//! neighbor has announced a final boundary it has fully received, it keeps
//! answering with pure ack frames for `LINGER` (8) more rounds — giving its
//! final acks and fin flags that many independent chances to survive the
//! fault process — and then halts. Two-generals says certainty is
//! impossible; the linger makes the residual wedge probability `p^LINGER`
//! per edge, and determinism makes any given seed's outcome reproducible.
//!
//! **Peer-crash cutoff.** A live peer frames every physical round, so total
//! silence is a verdict the transport can act on: a neighbor that has sent
//! nothing for `PEER_CUTOFF` (24) rounds while its edge is still unsettled
//! is presumed crash-stopped and *excused* — retransmissions to it cease,
//! its round boundary is waived from the inbox gate, and the close handshake
//! no longer waits for its acks or fin. Under pure loss a false verdict
//! needs 24 consecutive frame losses (probability `p^24` per edge), so loss
//! recovery is unaffected while crash experiments run *through* the
//! adapter: losses are repaired, crashes surface to the inner program as the
//! permanent silence they are.
//!
//! **The state is its own checkpoint.** [`ReliableState`] and its per-edge
//! [`EdgeTx`] / [`EdgeRx`] windows are plain data with public fields, so
//! `mfd-replay` encodes them as they are and a resumed run continues
//! ARQ-state-for-ARQ-state. A checkpoint decoded from bytes is outside
//! input: [`Reliable`]'s [`NodeProgram::fits`] refuses a state with a window
//! count other than the vertex's degree, a window with `acked > tx_next`,
//! `tx_next > sent.len()`, `delivered > prefix` or a pending key below
//! `delivered`, or more payload frames than frames — then the wrapped
//! program's own `fits` judges its state — and both engines' `open` answer
//! that with a typed `CheckpointMismatch` instead of a panic at the first
//! step.
//!
//! Overhead is measured, not hidden: [`Reliable::stats`] aggregates frames,
//! fresh vs. retransmitted payload and ack-only pulses from the final
//! states, reported next to the engines' usual `RoundMeter` accounting.

use std::collections::BTreeMap;

use mfd_congest::CongestError;
use mfd_routing::programs::GatherProgram;
use mfd_runtime::{Envelope, NodeCtx, NodeProgram, Outbox, RuntimeMessage};
use mfd_trace::{Event, TraceSink};

/// One transport frame: the per-edge, per-physical-round unit of the
/// adapter. Metadata (ack, boundary, fin) is cumulative/sticky and repeated
/// in every frame, so individual frame losses never lose information —
/// only payload needs retransmission.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame<M> {
    /// Receiver-direction cumulative ack: in-order messages received.
    pub ack: u64,
    /// The sender's last completed inner round on this edge...
    pub boundary_round: u64,
    /// ...and the cumulative message count queued through it.
    pub boundary_cum: u64,
    /// The sender's inner program has halted; the boundary is final.
    pub fin: bool,
    /// `(seq, inner round, message)` entries — fresh or retransmitted.
    pub payload: Vec<(u64, u64, M)>,
}

impl<M: RuntimeMessage> RuntimeMessage for Frame<M> {
    /// Payload words, floored at one: the transport header (a few counters
    /// and flags) is O(log n) bits and rides the mandatory CONGEST word, the
    /// standard piggybacking idealization — an empty frame is the pure
    /// ack/boundary pulse.
    fn words(&self) -> usize {
        self.payload
            .iter()
            .map(|(_, _, m)| m.words())
            .sum::<usize>()
            .max(1)
    }
}

/// Per-edge sender state.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct EdgeTx<M> {
    /// Every message ever queued on this edge: `sent[seq] = (round, msg)`.
    pub sent: Vec<(u64, M)>,
    /// Peer's cumulative in-order ack.
    pub acked: u64,
    /// First never-transmitted sequence number.
    pub tx_next: u64,
    /// Physical round of the last ack advance (retransmission backoff).
    pub last_progress: u64,
}

/// Per-edge receiver state.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct EdgeRx<M> {
    /// Received, not yet delivered: `seq -> (inner round, msg)`.
    pub pending: BTreeMap<u64, (u64, M)>,
    /// Sequence numbers `0..prefix` have all been received.
    pub prefix: u64,
    /// Sequence numbers `0..delivered` were handed to the inner program.
    pub delivered: u64,
    /// Peer's announced boundary, max-merged over all frames seen.
    pub peer_round: u64,
    /// Cumulative count at that boundary.
    pub peer_cum: u64,
    /// Peer announced its boundary as final.
    pub peer_fin: bool,
    /// Last physical round a frame arrived from the peer (0 = never).
    pub last_heard: u64,
    /// Peer presumed crash-stopped (the silence cutoff fired): excused from
    /// the gate and the close handshake, no longer framed.
    pub dead: bool,
}

/// State of one vertex of [`Reliable<P>`] (`S = P::State`, `M = P::Msg`):
/// the wrapped program's state plus the transport machinery, as plain data.
///
/// It is its own checkpoint: `mfd-replay` encodes these fields in
/// declaration order, and the derived `Hash` visits them in the same order,
/// so digest chains over wrapped runs discriminate transport-level
/// divergence too, not just the inner trajectory — a resumed run matches
/// ARQ-state-for-ARQ-state. A state decoded from bytes is checked by
/// [`NodeProgram::fits`] before an engine adopts it.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct ReliableState<S, M> {
    /// The wrapped program's state, advanced exactly as on a loss-free
    /// network.
    pub inner: S,
    /// Completed inner rounds.
    pub inner_round: u64,
    /// Whether the wrapped program has halted.
    pub inner_halted: bool,
    /// Per-edge sender state, in sorted-adjacency slot order.
    pub tx: Vec<EdgeTx<M>>,
    /// Per-edge receiver state, in sorted-adjacency slot order.
    pub rx: Vec<EdgeRx<M>>,
    /// Physical round at which the linger close expires.
    pub close_at: Option<u64>,
    /// The close handshake finished; the vertex halts.
    pub done: bool,
    /// Frames sent (one per edge per physical round until halting).
    pub frames_sent: u64,
    /// Frames that carried at least one payload message.
    pub payload_frames: u64,
    /// First-time payload transmissions.
    pub fresh_sent: u64,
    /// Retransmitted payload entries.
    pub retransmitted: u64,
    /// Messages handed to the inner program.
    pub delivered_inner: u64,
    /// Neighbors this vertex excused as crash-stopped (silence cutoff).
    pub peers_excused: u64,
    /// Transport events recorded during the run (only with
    /// [`Reliable::with_trace`]): `(round, kind, peer, count)`, kind 0 a
    /// retransmission burst, 1 an excusal, 2 the close. Drained into a sink
    /// by [`Reliable::drain_trace`].
    pub trace_log: Vec<(u64, u8, usize, u64)>,
}

/// [`ReliableState::trace_log`] kind: a timeout retransmission burst.
const TRACE_RETRANSMIT: u8 = 0;
/// [`ReliableState::trace_log`] kind: a peer excused as crash-stopped.
const TRACE_EXCUSE: u8 = 1;
/// [`ReliableState::trace_log`] kind: the linger close was scheduled.
const TRACE_CLOSE: u8 = 2;

/// Aggregated transport statistics of a completed [`Reliable<P>`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReliableStats {
    /// Total frames sent.
    pub frames: u64,
    /// Frames carrying payload.
    pub payload_frames: u64,
    /// Pure ack/boundary pulses.
    pub ack_frames: u64,
    /// First-time payload transmissions (equals the inner program's send
    /// count).
    pub fresh: u64,
    /// Retransmitted payload entries.
    pub retransmitted: u64,
    /// Messages delivered to inner programs.
    pub delivered_inner: u64,
    /// Peer-crash excusals issued (one per vertex per silent dead neighbor).
    pub excused: u64,
}

impl ReliableStats {
    /// Retransmitted entries per fresh message — the loss-recovery overhead.
    pub fn retransmit_overhead(&self) -> f64 {
        self.retransmitted as f64 / (self.fresh.max(1)) as f64
    }
}

/// Wraps a [`NodeProgram`] with per-edge sequence numbers, cumulative acks
/// and timeout retransmission, turning a lossy simulated network back into a
/// reliable one (module docs).
#[derive(Debug, Clone)]
pub struct Reliable<P> {
    inner: P,
    trace: bool,
}

/// Physical rounds without ack progress before outstanding payload is
/// retransmitted.
const TIMEOUT: u64 = 4;

/// Physical rounds a vertex keeps framing after its close condition holds.
const LINGER: u64 = 8;

/// Physical rounds of total silence on an unsettled edge after which the
/// peer is presumed crash-stopped (a false verdict under loss `p` has
/// probability `p^PEER_CUTOFF` per edge).
const PEER_CUTOFF: u64 = 24;

/// Payload words per frame (a frame carries at least one entry regardless).
const MAX_FRAME_WORDS: usize = 1;

/// Inner rounds an isolated (or fully caught-up) vertex may run per physical
/// round, bounding the catch-up loop.
const CATCHUP_ROUNDS: u64 = 64;

/// Physical-round budget multiplier over the inner program's hint.
const BUDGET_FACTOR: u64 = 8;

impl<P: NodeProgram> Reliable<P> {
    /// Wraps `inner` with the fixed transport (timeout 4, linger 8, peer
    /// cutoff 24, one payload word per frame).
    pub fn new(inner: P) -> Self {
        Reliable {
            inner,
            trace: false,
        }
    }

    /// Records transport events (retransmissions, excusals, link closes)
    /// into each vertex's state for [`Reliable::drain_trace`]. Off by
    /// default so untraced runs stay bit-identical to the pre-trace adapter.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Borrows the wrapped program's states out of a run's final states.
    pub fn inner_states(states: &[ReliableState<P::State, P::Msg>]) -> Vec<&P::State> {
        states.iter().map(|s| &s.inner).collect()
    }

    /// Clones the wrapped program's states out of a run's final states.
    pub fn inner_states_cloned(states: &[ReliableState<P::State, P::Msg>]) -> Vec<P::State>
    where
        P::State: Clone,
    {
        states.iter().map(|s| s.inner.clone()).collect()
    }

    /// Aggregates the transport statistics of a run.
    pub fn stats(states: &[ReliableState<P::State, P::Msg>]) -> ReliableStats {
        let mut out = ReliableStats::default();
        for s in states {
            out.frames += s.frames_sent;
            out.payload_frames += s.payload_frames;
            out.fresh += s.fresh_sent;
            out.retransmitted += s.retransmitted;
            out.delivered_inner += s.delivered_inner;
            out.excused += s.peers_excused;
        }
        out.ack_frames = out.frames - out.payload_frames;
        out
    }

    /// Replays the transport events recorded by a [`Reliable::with_trace`]
    /// run into `sink` as [`Event::Retransmit`] / [`Event::Excuse`] /
    /// [`Event::LinkClose`], sorted by `(round, vertex, kind, peer)` — the engines
    /// step vertices in parallel, so events are journaled per vertex during
    /// the run and serialized deterministically here, after it.
    ///
    /// Without `with_trace` the logs are empty and this is a no-op.
    pub fn drain_trace(states: &[ReliableState<P::State, P::Msg>], sink: &mut dyn TraceSink) {
        let mut log: Vec<(u64, usize, u8, usize, u64)> = states
            .iter()
            .enumerate()
            .flat_map(|(v, s)| {
                s.trace_log
                    .iter()
                    .map(move |&(round, kind, peer, count)| (round, v, kind, peer, count))
            })
            .collect();
        log.sort_unstable();
        for (round, vertex, kind, peer, count) in log {
            let event = match kind {
                TRACE_RETRANSMIT => Event::Retransmit {
                    vertex,
                    peer,
                    round,
                    count,
                },
                TRACE_EXCUSE => Event::Excuse {
                    vertex,
                    peer,
                    round,
                },
                _ => Event::LinkClose { vertex, round },
            };
            sink.event(&event);
        }
    }

    /// Neighbor slot of `v` in the sorted adjacency.
    fn slot(ctx: &NodeCtx, v: usize) -> usize {
        ctx.neighbors
            .binary_search(&v)
            .expect("frame from a non-neighbor")
    }

    /// Whether inner round `k` may run: for every neighbor, its announced
    /// boundary covers round `k - 1` (or is final) and all traffic through
    /// that boundary has been received. Excused (presumed-crashed) peers are
    /// waived — the inner program sees from them exactly the permanent
    /// silence a real crash produces.
    fn gate(state: &ReliableState<P::State, P::Msg>, k: u64) -> bool {
        state.rx.iter().all(|rx| {
            rx.dead || ((rx.peer_fin || rx.peer_round >= k - 1) && rx.prefix >= rx.peer_cum)
        })
    }
}

impl<P: NodeProgram> NodeProgram for Reliable<P> {
    type State = ReliableState<P::State, P::Msg>;
    type Msg = Frame<P::Msg>;

    fn init(&self, ctx: &NodeCtx) -> Self::State {
        let inner = self.inner.init(ctx);
        let inner_halted = self.inner.halted(ctx, &inner);
        let deg = ctx.degree();
        ReliableState {
            inner,
            inner_round: 0,
            inner_halted,
            tx: (0..deg)
                .map(|_| EdgeTx {
                    sent: Vec::new(),
                    acked: 0,
                    tx_next: 0,
                    last_progress: 0,
                })
                .collect(),
            rx: (0..deg)
                .map(|_| EdgeRx {
                    pending: BTreeMap::new(),
                    prefix: 0,
                    delivered: 0,
                    peer_round: 0,
                    peer_cum: 0,
                    peer_fin: false,
                    last_heard: 0,
                    dead: false,
                })
                .collect(),
            close_at: None,
            // An isolated vertex with a halted program has nothing to close;
            // anyone with neighbors still owes them fin frames.
            done: inner_halted && deg == 0,
            frames_sent: 0,
            payload_frames: 0,
            fresh_sent: 0,
            retransmitted: 0,
            delivered_inner: 0,
            peers_excused: 0,
            trace_log: Vec::new(),
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut Self::State,
        inbox: &[Envelope<Frame<P::Msg>>],
        out: &mut Outbox<'_, Frame<P::Msg>>,
    ) {
        let r = ctx.round;

        // 1. Absorb incoming frames: acks, boundaries, payload. Duplicate
        //    and out-of-order deliveries (the faults this adapter exists to
        //    absorb) are resolved here by sequence number.
        for env in inbox {
            let i = Self::slot(ctx, env.src);
            let frame = &env.msg;
            if frame.ack > state.tx[i].acked {
                state.tx[i].acked = frame.ack;
                state.tx[i].last_progress = r;
            }
            let rx = &mut state.rx[i];
            rx.last_heard = r;
            rx.peer_round = rx.peer_round.max(frame.boundary_round);
            rx.peer_cum = rx.peer_cum.max(frame.boundary_cum);
            rx.peer_fin |= frame.fin;
            for (seq, round, msg) in &frame.payload {
                if *seq < rx.delivered || rx.pending.contains_key(seq) {
                    continue; // duplicate
                }
                rx.pending.insert(*seq, (*round, msg.clone()));
                while rx.pending.contains_key(&rx.prefix) {
                    rx.prefix += 1;
                }
            }
        }

        // 1b. Peer-crash cutoff: a live peer frames every round, so total
        //     silence for `PEER_CUTOFF` rounds on an edge that is not
        //     settled (fin seen, boundary received, everything acked — then
        //     silence is a normal close) is a crash verdict. The peer is
        //     excused: no more frames, no more waiting.
        for i in 0..ctx.degree() {
            let rx = &state.rx[i];
            let tx = &state.tx[i];
            let settled =
                rx.peer_fin && rx.prefix >= rx.peer_cum && tx.acked == tx.sent.len() as u64;
            if !rx.dead && !settled && r.saturating_sub(rx.last_heard) >= PEER_CUTOFF {
                state.rx[i].dead = true;
                state.peers_excused += 1;
                if self.trace {
                    state.trace_log.push((r, TRACE_EXCUSE, ctx.neighbors[i], 0));
                }
            }
        }

        // 2. Drive the inner program through every logical round whose inbox
        //    is provably complete (several can unblock at once after a
        //    retransmission lands).
        for _ in 0..CATCHUP_ROUNDS {
            if state.inner_halted {
                break;
            }
            let k = state.inner_round + 1;
            if !Self::gate(state, k) {
                break;
            }
            let mut inner_inbox: Vec<Envelope<P::Msg>> = Vec::new();
            for (i, &u) in ctx.neighbors.iter().enumerate() {
                let rx = &mut state.rx[i];
                while rx.delivered < rx.prefix {
                    match rx.pending.get(&rx.delivered) {
                        Some(&(round, _)) if round < k => {
                            let (_, msg) = rx.pending.remove(&rx.delivered).unwrap();
                            inner_inbox.push(Envelope { src: u, msg });
                            rx.delivered += 1;
                        }
                        _ => break,
                    }
                }
            }
            state.delivered_inner += inner_inbox.len() as u64;

            let ictx = ctx.at_round(k);
            let mut ibox: Outbox<'_, P::Msg> = Outbox::new(ctx.id, ctx.neighbors);
            self.inner
                .round(&ictx, &mut state.inner, &inner_inbox, &mut ibox);
            state.inner_halted = self.inner.halted(&ictx, &state.inner);
            state.inner_round = k;
            if let Some(err) = ibox.violation() {
                // Replay the inner program's illegal send on the wrapper's
                // outbox so the engine aborts with the same verdict.
                let CongestError::NotAnEdge { dst, .. } = *err else {
                    unreachable!("send-time violations are always NotAnEdge");
                };
                out.send(
                    dst,
                    Frame {
                        ack: 0,
                        boundary_round: 0,
                        boundary_cum: 0,
                        fin: false,
                        payload: Vec::new(),
                    },
                );
                return;
            }
            for (dst, msg, _words) in ibox.into_sends() {
                let i = Self::slot(ctx, dst);
                state.tx[i].sent.push((k, msg));
            }
        }

        // 3. Closing: once the inner program has halted, everything sent is
        //    acked and every neighbor's final boundary is fully received,
        //    linger (pure ack frames keep flowing) and then halt. Excused
        //    peers can neither ack nor announce — they are waived.
        if state.close_at.is_none()
            && state.inner_halted
            && state
                .tx
                .iter()
                .zip(&state.rx)
                .all(|(t, x)| x.dead || t.acked == t.sent.len() as u64)
            && state
                .rx
                .iter()
                .all(|x| x.dead || (x.peer_fin && x.prefix >= x.peer_cum))
        {
            state.close_at = Some(r + LINGER);
            if self.trace {
                state.trace_log.push((r, TRACE_CLOSE, 0, 0));
            }
        }
        state.done = state.close_at.is_some_and(|c| r >= c);

        // 4. Emit one frame per edge: retransmissions first (they unblock
        //    the receiver), then fresh payload, within the per-frame word
        //    budget; metadata rides every frame regardless. Excused peers
        //    get nothing — the retransmission leak this cutoff closes.
        for (i, &u) in ctx.neighbors.iter().enumerate() {
            if state.rx[i].dead {
                continue;
            }
            let mut payload: Vec<(u64, u64, P::Msg)> = Vec::new();
            let mut words = 0usize;
            let mut retransmitted = 0u64;
            let mut fresh = 0u64;
            let fits = |words: &mut usize, w: usize, empty: bool| {
                if *words + w > MAX_FRAME_WORDS && !empty {
                    false
                } else {
                    *words += w;
                    true
                }
            };
            let tx = &mut state.tx[i];
            let had_outstanding = tx.acked < tx.tx_next;
            if had_outstanding && r.saturating_sub(tx.last_progress) >= TIMEOUT {
                for seq in tx.acked..tx.tx_next {
                    let (round, msg) = &tx.sent[seq as usize];
                    if !fits(&mut words, msg.words(), payload.is_empty()) {
                        break;
                    }
                    payload.push((seq, *round, msg.clone()));
                    retransmitted += 1;
                }
                tx.last_progress = r; // back off until the next timeout
            }
            while (tx.tx_next as usize) < tx.sent.len() {
                let (round, msg) = &tx.sent[tx.tx_next as usize];
                if !fits(&mut words, msg.words(), payload.is_empty()) {
                    break;
                }
                payload.push((tx.tx_next, *round, msg.clone()));
                tx.tx_next += 1;
                fresh += 1;
            }
            // The retransmission clock starts when data first becomes
            // outstanding, not at round zero — otherwise a first send late
            // in the run would look instantly timed out.
            if !had_outstanding && tx.acked < tx.tx_next {
                tx.last_progress = r;
            }
            let boundary_cum = tx.sent.len() as u64;
            if self.trace && retransmitted > 0 {
                state
                    .trace_log
                    .push((r, TRACE_RETRANSMIT, u, retransmitted));
            }
            state.retransmitted += retransmitted;
            state.fresh_sent += fresh;
            state.frames_sent += 1;
            if !payload.is_empty() {
                state.payload_frames += 1;
            }
            out.send(
                u,
                Frame {
                    ack: state.rx[i].prefix,
                    boundary_round: state.inner_round,
                    boundary_cum,
                    fin: state.inner_halted,
                    payload,
                },
            );
        }
    }

    fn halted(&self, _ctx: &NodeCtx, state: &Self::State) -> bool {
        state.done
    }

    fn round_budget_hint(&self) -> Option<u64> {
        self.inner
            .round_budget_hint()
            .map(|h| h.saturating_mul(BUDGET_FACTOR) + LINGER + PEER_CUTOFF + 512)
    }

    /// A restored state fits its vertex when every index and subtraction
    /// `round` and [`Reliable::stats`] make on it stays in range — one send
    /// and one receive window per neighbor, `tx_next <= sent.len()` (a
    /// retransmission reads `sent[acked..tx_next]`), `payload_frames <=
    /// frames_sent` (`stats` subtracts them) — and every window is in the
    /// order a run keeps it: `acked <= tx_next`, `delivered <= prefix`, no
    /// pending key below `delivered` — and every counter the next round
    /// increments is one a run of `ctx.round` rounds can reach: at most one
    /// frame per edge per round, at most `CATCHUP_ROUNDS` inner rounds per
    /// round. The wrapped program's own `fits` judges its state.
    fn fits(&self, ctx: &NodeCtx, state: &Self::State) -> bool {
        let windows = state.tx.iter().zip(&state.rx).all(|(tx, rx)| {
            let first_pending = rx.pending.first_key_value().map(|(&seq, _)| seq);
            tx.acked <= tx.tx_next
                && tx.tx_next <= tx.sent.len() as u64
                && rx.delivered <= rx.prefix
                && first_pending.is_none_or(|seq| seq >= rx.delivered)
        });
        state.tx.len() == ctx.degree()
            && state.rx.len() == ctx.degree()
            && windows
            && state.payload_frames <= state.frames_sent
            && state.frames_sent <= ctx.round.saturating_mul(ctx.degree() as u64)
            && state.inner_round <= ctx.round.saturating_mul(CATCHUP_ROUNDS)
            && self
                .inner
                .fits(&ctx.at_round(state.inner_round), &state.inner)
    }
}

impl<P> GatherProgram for Reliable<P>
where
    P: GatherProgram,
    P::State: Clone,
{
    fn strategy_name(&self) -> &'static str {
        self.inner.strategy_name()
    }

    fn total_messages(&self) -> usize {
        self.inner.total_messages()
    }

    fn per_vertex_delivered(&self, states: &[Self::State]) -> Vec<usize> {
        let inner = Self::inner_states_cloned(states);
        self.inner.per_vertex_delivered(&inner)
    }

    fn leader_received(&self, states: &[Self::State]) -> u64 {
        let inner = Self::inner_states_cloned(states);
        self.inner.leader_received(&inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_graph::generators;
    use mfd_runtime::SessionEngine;
    use mfd_runtime::{Executor, ExecutorConfig};
    use mfd_sim::{FaultOutcome, SimConfig, SimEngine, Simulator};

    use crate::models::FaultModel;

    /// Every vertex broadcasts its id for two rounds, then sums three rounds
    /// of receipts — enough traffic to make losses visible.
    struct Chatter;

    impl NodeProgram for Chatter {
        type State = (u64, u64);
        type Msg = u64;

        fn init(&self, _ctx: &NodeCtx) -> (u64, u64) {
            (0, 0)
        }

        fn round(
            &self,
            ctx: &NodeCtx,
            state: &mut (u64, u64),
            inbox: &[Envelope<u64>],
            out: &mut Outbox<'_, u64>,
        ) {
            for env in inbox {
                state.0 += env.msg;
                state.1 += 1;
            }
            if ctx.round <= 2 {
                out.broadcast(ctx.id as u64 + ctx.round);
            }
        }

        fn halted(&self, ctx: &NodeCtx, _state: &(u64, u64)) -> bool {
            ctx.round >= 3
        }
    }

    #[test]
    fn loss_free_wrapped_run_matches_the_plain_program_exactly() {
        let g = generators::triangulated_grid(5, 6);
        let plain = Executor::new(ExecutorConfig::default())
            .run(&g, &Chatter)
            .unwrap();
        let sim = Simulator::new(SimConfig::default());
        let wrapped = sim.run(&g, &Reliable::new(Chatter)).unwrap();
        assert_eq!(
            plain.states,
            Reliable::<Chatter>::inner_states_cloned(&wrapped.states)
        );
        let stats = Reliable::<Chatter>::stats(&wrapped.states);
        assert_eq!(stats.retransmitted, 0);
        assert_eq!(stats.fresh, plain.messages);
        assert_eq!(stats.delivered_inner, plain.messages);
        // Lockstep: inner round k runs at physical round k, plus the close
        // handshake tail (fin exchange + linger).
        assert!(wrapped.rounds >= plain.rounds);
        assert!(wrapped.rounds <= plain.rounds + 8 + 3);
    }

    #[test]
    fn heavy_iid_loss_is_fully_repaired() {
        let g = generators::wheel(24);
        let model = FaultModel::iid_loss(0.3);
        let sim = Simulator::new(SimConfig::default());
        let clean = Executor::new(ExecutorConfig::default())
            .run(&g, &Chatter)
            .unwrap();

        // Raw: the program mis-counts (losses reach the inbox contract).
        let raw = sim.run_with_faults(&g, &Chatter, &model).unwrap();
        assert!(raw.run.stats.lost_messages > 0);
        assert_ne!(clean.states, raw.run.states);

        // Wrapped: every vertex computes the loss-free answer.
        let wrapped = sim
            .run_with_faults(&g, &Reliable::new(Chatter), &model)
            .unwrap();
        assert_eq!(wrapped.outcome, FaultOutcome::Completed);
        assert_eq!(
            clean.states,
            Reliable::<Chatter>::inner_states_cloned(&wrapped.run.states)
        );
        let stats = Reliable::<Chatter>::stats(&wrapped.run.states);
        assert!(stats.retransmitted > 0, "no retransmissions under 30% loss");
        assert!(stats.retransmit_overhead() > 0.0);
        assert!(stats.ack_frames > 0);
    }

    #[test]
    fn duplication_and_reordering_are_absorbed_by_sequence_numbers() {
        let g = generators::cycle(10);
        let model = FaultModel::chaos(0.0, 0.3, 0.3, 4);
        let clean = Executor::new(ExecutorConfig::default())
            .run(&g, &Chatter)
            .unwrap();
        let wrapped = Simulator::new(SimConfig::default())
            .run_with_faults(&g, &Reliable::new(Chatter), &model)
            .unwrap();
        assert_eq!(wrapped.outcome, FaultOutcome::Completed);
        assert!(
            wrapped.run.stats.slipped_messages + wrapped.run.stats.duplicated_messages > 0,
            "the chaos model never fired"
        );
        assert_eq!(
            clean.states,
            Reliable::<Chatter>::inner_states_cloned(&wrapped.run.states)
        );
    }

    #[test]
    fn faulty_wrapped_runs_are_reproducible() {
        let g = generators::triangulated_grid(4, 5);
        let model = FaultModel::chaos(0.2, 0.1, 0.1, 3);
        let sim = Simulator::new(SimConfig::default());
        let a = sim
            .run_with_faults(&g, &Reliable::new(Chatter), &model)
            .unwrap();
        let b = sim
            .run_with_faults(&g, &Reliable::new(Chatter), &model)
            .unwrap();
        assert_eq!(a.run.rounds, b.run.rounds);
        assert_eq!(a.run.messages, b.run.messages);
        assert_eq!(a.run.makespan, b.run.makespan);
        assert_eq!(
            Reliable::<Chatter>::stats(&a.run.states),
            Reliable::<Chatter>::stats(&b.run.states)
        );
        assert_eq!(
            Reliable::<Chatter>::inner_states_cloned(&a.run.states),
            Reliable::<Chatter>::inner_states_cloned(&b.run.states)
        );
    }

    #[test]
    fn dead_peers_are_excused_instead_of_retransmitted_forever() {
        // Crash one rim vertex mid-run *and* lose 20% of the frames: the
        // adapter must repair the losses, presume the silent peer dead after
        // the cutoff, stop retransmitting to it, and still close — the crash
        // experiments can finally run through the adapter instead of raw.
        let g = generators::wheel(12);
        let crashed = 3usize;
        let model = FaultModel::iid_loss(0.2)
            .with_crash(crashed, 2)
            .with_detection_delay(2);
        let sim = Simulator::new(SimConfig::default());
        let run = sim
            .run_with_faults(&g, &Reliable::new(Chatter), &model)
            .unwrap();
        assert_eq!(run.outcome, FaultOutcome::Completed);
        assert!(run.crashed[crashed]);
        let stats = Reliable::<Chatter>::stats(&run.run.states);
        // Both neighbors of the crashed vertex (hub + two rim neighbors)
        // issued an excusal; nobody else fell silent for a whole cutoff.
        assert_eq!(stats.excused, 3);
        // And the verdict is reproducible bit-for-bit.
        let again = sim
            .run_with_faults(&g, &Reliable::new(Chatter), &model)
            .unwrap();
        assert_eq!(
            Reliable::<Chatter>::stats(&again.run.states).excused,
            stats.excused
        );
        assert_eq!(
            Reliable::<Chatter>::inner_states_cloned(&again.run.states),
            Reliable::<Chatter>::inner_states_cloned(&run.run.states)
        );
    }

    #[test]
    fn loss_free_runs_never_excuse_anyone() {
        let g = generators::triangulated_grid(4, 4);
        let run = Simulator::new(SimConfig::default())
            .run(&g, &Reliable::new(Chatter))
            .unwrap();
        assert_eq!(Reliable::<Chatter>::stats(&run.states).excused, 0);
    }

    #[test]
    fn checkpointed_faulted_reliable_run_resumes_bit_identically() {
        // The acceptance configuration of the checkpoint/replay layer: a
        // wrapped program under i.i.d. loss, checkpointed mid-repair, must
        // resume onto the same fate sequence and land in the same states.
        let g = generators::wheel(12);
        let model = FaultModel::iid_loss(0.25);
        let sim = SimEngine(Simulator::new(SimConfig::default()), model);
        let program = Reliable::new(Chatter);

        let mut sink = mfd_trace::NullSink;
        let mut checkpoints = Vec::new();
        let mut session = sim.open(&g, &program, None, &mut sink).unwrap();
        let mut next = 3;
        while let Some(round) = session.step().unwrap() {
            if round >= next {
                checkpoints.push(session.checkpoint());
                next = round + 3;
            }
        }
        let full = session.finish().unwrap();
        assert_eq!(full.outcome, FaultOutcome::Completed);
        assert!(
            Reliable::<Chatter>::stats(&full.run.states).retransmitted > 0,
            "loss never fired; the test exercises nothing"
        );
        assert!(checkpoints.len() >= 2, "run too short to checkpoint");

        for cp in checkpoints {
            let mut session = sim.open(&g, &program, Some(cp), &mut sink).unwrap();
            while session.step().unwrap().is_some() {}
            let resumed = session.finish().unwrap();
            assert_eq!(resumed.outcome, full.outcome);
            assert_eq!(resumed.run.rounds, full.run.rounds);
            assert_eq!(resumed.run.messages, full.run.messages);
            assert_eq!(resumed.run.makespan, full.run.makespan);
            assert_eq!(
                resumed.run.stats.lost_messages,
                full.run.stats.lost_messages
            );
            assert_eq!(
                Reliable::<Chatter>::stats(&resumed.run.states),
                Reliable::<Chatter>::stats(&full.run.states)
            );
            assert_eq!(
                Reliable::<Chatter>::inner_states_cloned(&resumed.run.states),
                Reliable::<Chatter>::inner_states_cloned(&full.run.states)
            );
        }
    }

    #[test]
    fn frames_declare_honest_word_counts() {
        let empty: Frame<u64> = Frame {
            ack: 3,
            boundary_round: 2,
            boundary_cum: 3,
            fin: false,
            payload: Vec::new(),
        };
        assert_eq!(empty.words(), 1);
        let loaded = Frame {
            payload: vec![(0, 1, 7u64)],
            ..empty.clone()
        };
        assert_eq!(loaded.words(), 1);
    }
}
