//! Shared program-driving building blocks.
//!
//! Every execution engine — the synchronous [`crate::ShardedExecutor`] (and
//! its reference stepper) here, the asynchronous simulator in `mfd-sim` — drives a
//! [`NodeProgram`] the same way: hand the vertex its inbox, collect its sends
//! through a validated [`crate::Outbox`], observe the halting transition, and
//! convert the sends into [`mfd_congest::Message`]s for meter submission. This
//! module is that common substrate, factored out so engines cannot drift in
//! how they interpret a program.

use mfd_congest::{CongestError, Message};
use mfd_graph::Graph;
use rayon::prelude::*;

use crate::program::{Envelope, NodeCtx, NodeProgram, Outbox, SendBuf};

/// Everything one vertex produced in one executed round: its queued sends
/// (destination, payload, size in words), whether it halted, and any model
/// violation its [`crate::Outbox`] recorded at send time.
#[derive(Debug)]
pub struct VertexRound<M> {
    /// Messages queued this round, in send order, in the storage the caller
    /// supplied.
    pub sends: SendBuf<M>,
    /// Whether the vertex reports halted after this round.
    pub halted: bool,
    /// First model violation recorded at send time (a non-edge send), if any.
    pub violation: Option<CongestError>,
}

/// Runs one round of `program` on one vertex: consume `inbox`, mutate `state`,
/// collect sends through a fresh validated outbox, and re-evaluate halting.
///
/// Engines differ in *when* they call this (lockstep sweeps vs. event-driven
/// pulses) and in how they deliver the resulting sends; the per-vertex
/// semantics are identical by construction.
///
/// `sends` is the storage the step fills (emptied first) and hands back in
/// [`VertexRound::sends`] — see [`SendBuf`] for who recycles it.
pub fn step_vertex<P: NodeProgram>(
    program: &P,
    ctx: &NodeCtx<'_>,
    state: &mut P::State,
    inbox: &[Envelope<P::Msg>],
    sends: SendBuf<P::Msg>,
) -> VertexRound<P::Msg> {
    let mut out = Outbox::with_buf(ctx.id, ctx.neighbors, sends);
    program.round(ctx, state, inbox, &mut out);
    let halted = program.halted(ctx, state);
    VertexRound {
        sends: out.buf,
        halted,
        violation: out.violation,
    }
}

/// Per-vertex sorted adjacency lists (computed in parallel).
///
/// Sorted neighbor lists give [`crate::Outbox::send`] O(log deg) edge checks
/// and pin the inbox ordering contract (messages arrive in increasing sender
/// order) down to a plain sort.
pub fn sorted_adjacency(g: &Graph) -> Vec<Vec<usize>> {
    (0..g.n())
        .into_par_iter()
        .map(|v| {
            let mut a = g.neighbors(v).to_vec();
            a.sort_unstable();
            a
        })
        .collect()
}

/// Converts one vertex's sends into meter [`Message`]s.
pub fn to_messages<M>(src: usize, sends: &[(usize, M, usize)]) -> Vec<Message> {
    sends
        .iter()
        .map(|&(dst, _, words)| Message { src, dst, words })
        .collect()
}
