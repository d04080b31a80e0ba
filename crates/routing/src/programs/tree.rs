//! The executed BFS-tree pipelined gather.
//!
//! Protocol (all phases overlap — deep vertices upcast while the BFS wave is
//! still spreading below them, and the leader echoes answers while the gather
//! is still draining):
//!
//! 1. **Wave** — the leader floods depth announcements; a vertex adopts the
//!    smallest announcing neighbor as parent (exactly the
//!    [`mfd_congest::primitives::build_bfs_tree`] parent rule), answers the
//!    parent with an `Adopt`, and forwards the wave. Hearing `Announce` or
//!    `Adopt` from every neighbor classifies them all as parent, sibling or
//!    child.
//! 2. **Upcast** — every vertex holds `deg(v)` unit messages; each round a
//!    vertex with pending messages forwards one to its parent (one word per
//!    tree edge per round — the CONGEST-width pipeline). Termination is
//!    in-band: the final message carries a `last` flag once all children have
//!    reported their subtrees complete (or a bare `Done` if the flag has no
//!    message left to ride on).
//! 3. **Echo** — the leader bounces every received message straight back down
//!    the edge it arrived on; an inner vertex keeps the first `deg(v)`
//!    answers for itself and forwards the rest to its children, each of which
//!    is owed exactly as many answers as it sent up. A vertex halts when its
//!    subtree is drained and its answers have arrived, so the program
//!    terminates without any extra control round.
//!
//! On a connected cluster the executed round count lands inside the metered
//! [`crate::gather::tree_gather`] charge (BFS + pipelined upcast + pipelined
//! downcast) because the three phases overlap here and run sequentially
//! there. On a disconnected cluster only the leader's component gathers;
//! unreached vertices sit quiescent (the executor's fixpoint break ends the
//! run) or time out after `n` rounds (the `mfd-sim` engine), the same
//! deliberate trade [`mfd_core`-style BFS programs] make.
//!
//! Scheduling is exact: a vertex is
//! [quiescent](mfd_runtime::NodeProgram::quiescent) whenever an empty-inbox
//! round would be a no-op — unreached, or announced with nothing to upcast
//! and nothing to echo — so the synchronous engines step a vertex only in
//! the rounds where it has mail or work. Most of a gather is waiting (for
//! the wave, for a child's upcast, for answers), so this skips most vertex
//! steps while states, rounds and messages stay exactly those of stepping
//! every live vertex every round.

use mfd_graph::Graph;
use mfd_runtime::{Envelope, NodeCtx, NodeProgram, Outbox, RuntimeMessage};

use super::GatherProgram;

/// Message vocabulary of the tree gather. Every variant fits one O(log n)-bit
/// CONGEST word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMsg {
    /// BFS wave: the sender's depth.
    Announce(u32),
    /// The sender adopted the receiver as its BFS parent.
    Adopt,
    /// One unit message moving towards the leader; `last` marks the sender's
    /// subtree as completely drained. The per-edge sequence number (an
    /// O(log n)-bit counter riding the same CONGEST word) lets receivers
    /// reject the duplicated or stale copies fault models inject — upcast
    /// receipts feed the leader-honest delivered metric, which must never
    /// over-report.
    Up {
        /// Position in the sender's upcast stream on this edge.
        seq: u32,
        /// Whether this is the sender's final upcast message.
        last: bool,
    },
    /// The sender's subtree is drained and no message is left to carry the
    /// flag.
    Done,
    /// One unit answer moving away from the leader.
    Down,
}

impl RuntimeMessage for TreeMsg {}

/// Per-vertex state of [`TreeGatherProgram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeGatherState {
    /// BFS depth, once the wave arrives (0 at the leader).
    pub depth: Option<u32>,
    /// BFS parent (`None` for the leader and unreached vertices).
    pub parent: Option<usize>,
    /// Unit messages received back from the leader (== `deg(v)` on
    /// completion).
    pub self_received: u64,
    announced: bool,
    resolved: usize,
    /// Neighbors whose wave message (`Announce`/`Adopt`) was processed,
    /// sorted — duplicates injected by fault models classify nobody twice.
    classified: Vec<usize>,
    /// Adopted children, ascending (all `Adopt`s arrive in one round).
    children: Vec<usize>,
    /// Messages received from each child (the echo quota owed back to it).
    up_from: Vec<u64>,
    /// Per child: high-water mark of accepted upcast sequence numbers
    /// (next acceptable `seq`); duplicates and stale slipped copies fall
    /// below it and are ignored.
    up_next: Vec<u32>,
    child_done: Vec<bool>,
    pending_up: u64,
    /// Sequence number of this vertex's next upcast message.
    up_seq: u32,
    sent_done: bool,
    down_assigned: Vec<u64>,
    down_sent: Vec<u64>,
    done: bool,
}

impl TreeGatherState {
    /// Slot of `v` among the adopted children, or `None` for a sender this
    /// vertex never adopted. On a reliable network the `None` case is
    /// unreachable (up/done traffic only arrives from adopted children); on
    /// a faulty one a dropped `Adopt` makes it real, and the receiver's only
    /// sound move is to ignore the orphaned traffic — the degradation the
    /// fault experiments measure.
    fn child_index(&self, v: usize) -> Option<usize> {
        self.children.binary_search(&v).ok()
    }

    /// Registers a wave message from `v`; `false` for a duplicate.
    fn classify(&mut self, v: usize) -> bool {
        match self.classified.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.classified.insert(pos, v);
                self.resolved += 1;
                true
            }
        }
    }

    fn subtree_ready(&self, degree: usize) -> bool {
        self.resolved == degree && self.child_done.iter().all(|&d| d)
    }

    fn echo_complete(&self) -> bool {
        self.down_sent
            .iter()
            .zip(&self.up_from)
            .all(|(sent, quota)| sent == quota)
    }
}

/// The BFS-tree pipelined gather as a real message-passing program; executed
/// counterpart of [`crate::gather::tree_gather`].
#[derive(Debug, Clone)]
pub struct TreeGatherProgram {
    root: usize,
    degrees: Vec<usize>,
    total_messages: usize,
    budget: u64,
}

impl TreeGatherProgram {
    /// Builds the program gathering `deg(v)` messages from every vertex of
    /// `cluster` to `leader` (and echoing answers back).
    ///
    /// # Panics
    ///
    /// Panics if `leader` is out of range.
    pub fn new(cluster: &Graph, leader: usize) -> Self {
        assert!(leader < cluster.n().max(1), "leader out of range");
        let n = cluster.n() as u64;
        let m = cluster.m() as u64;
        TreeGatherProgram {
            root: leader,
            degrees: (0..cluster.n()).map(|v| cluster.degree(v)).collect(),
            total_messages: 2 * cluster.m(),
            // Wave + upcast + echo each fit in n + 2m rounds; 4× covers their
            // (already overlapped) sum with room for the control tail.
            budget: 4 * (n + 2 * m) + 16,
        }
    }
}

impl NodeProgram for TreeGatherProgram {
    type State = TreeGatherState;
    type Msg = TreeMsg;

    fn init(&self, ctx: &NodeCtx) -> TreeGatherState {
        let is_root = ctx.id == self.root;
        let deg = ctx.degree();
        TreeGatherState {
            depth: is_root.then_some(0),
            parent: None,
            announced: false,
            resolved: 0,
            classified: Vec::new(),
            children: Vec::new(),
            up_from: Vec::new(),
            up_next: Vec::new(),
            child_done: Vec::new(),
            pending_up: if is_root { 0 } else { deg as u64 },
            up_seq: 0,
            sent_done: false,
            down_assigned: Vec::new(),
            down_sent: Vec::new(),
            // The leader's own messages never travel.
            self_received: if is_root { deg as u64 } else { 0 },
            // Isolated vertices (including an isolated leader) have nothing
            // to gather.
            done: deg == 0,
        }
    }

    fn round(
        &self,
        ctx: &NodeCtx,
        state: &mut TreeGatherState,
        inbox: &[Envelope<TreeMsg>],
        out: &mut Outbox<'_, TreeMsg>,
    ) {
        let was_announced = state.announced;
        for env in inbox {
            match env.msg {
                // A wave message classifies its sender exactly once; a
                // duplicated copy (fault injection) must not count twice.
                TreeMsg::Announce(d) => {
                    if state.classify(env.src) && state.depth.is_none() {
                        // The inbox is sorted by sender, so the first
                        // announcement is the smallest-id neighbor one
                        // level up — the build_bfs_tree parent rule.
                        state.depth = Some(d + 1);
                        state.parent = Some(env.src);
                    }
                }
                TreeMsg::Adopt => {
                    if state.classify(env.src) {
                        // Keep the per-child vectors aligned and sorted even
                        // if a slipped adoption arrives out of order.
                        let pos = state.children.binary_search(&env.src).unwrap_err();
                        state.children.insert(pos, env.src);
                        state.up_from.insert(pos, 0);
                        state.up_next.insert(pos, 0);
                        state.child_done.insert(pos, false);
                        state.down_assigned.insert(pos, 0);
                        state.down_sent.insert(pos, 0);
                    }
                }
                TreeMsg::Up { seq, last } => {
                    let Some(i) = state.child_index(env.src) else {
                        continue; // orphaned by a lost Adopt
                    };
                    if seq < state.up_next[i] {
                        continue; // duplicated or stale slipped copy
                    }
                    state.up_next[i] = seq + 1;
                    state.up_from[i] += 1;
                    if ctx.id == self.root {
                        // The leader bounces every message straight back.
                        state.down_assigned[i] += 1;
                    } else {
                        state.pending_up += 1;
                    }
                    if last {
                        state.child_done[i] = true;
                    }
                }
                TreeMsg::Done => {
                    if let Some(i) = state.child_index(env.src) {
                        state.child_done[i] = true;
                    }
                }
                TreeMsg::Down => {
                    if state.self_received < ctx.degree() as u64 {
                        state.self_received += 1;
                    } else {
                        // A duplicated answer can arrive with every quota
                        // already filled; it has no owner and is dropped.
                        let _fed = state.down_assigned.iter_mut().zip(&state.up_from).any(
                            |(assigned, quota)| {
                                if *assigned < *quota {
                                    *assigned += 1;
                                    true
                                } else {
                                    false
                                }
                            },
                        );
                    }
                }
            }
        }

        let Some(depth) = state.depth else {
            // Not reached yet. No wave takes longer than n rounds, so after
            // that the vertex is provably outside the leader's component.
            if ctx.round > ctx.n as u64 {
                state.done = true;
            }
            return;
        };

        if !was_announced {
            // Adoption round (round 1 at the leader): join the wave. The
            // parent edge carries the adoption instead of an announcement.
            state.announced = true;
            for &u in ctx.neighbors {
                if state.parent == Some(u) {
                    out.send(u, TreeMsg::Adopt);
                } else {
                    out.send(u, TreeMsg::Announce(depth));
                }
            }
        } else {
            // Upcast: one pipelined message per round towards the leader,
            // with the done flag riding on the last one.
            if let Some(p) = state.parent {
                if !state.sent_done {
                    let ready = state.subtree_ready(ctx.degree());
                    if state.pending_up > 0 {
                        let last = state.pending_up == 1 && ready;
                        let seq = state.up_seq;
                        state.up_seq += 1;
                        out.send(p, TreeMsg::Up { seq, last });
                        state.pending_up -= 1;
                        if last {
                            state.sent_done = true;
                        }
                    } else if ready {
                        out.send(p, TreeMsg::Done);
                        state.sent_done = true;
                    }
                }
            }
            // Echo: child edges are disjoint, so every owed child advances in
            // parallel, one answer per edge per round.
            for i in 0..state.children.len() {
                if state.down_sent[i] < state.down_assigned[i] {
                    out.send(state.children[i], TreeMsg::Down);
                    state.down_sent[i] += 1;
                }
            }
        }

        state.done = if ctx.id == self.root {
            state.subtree_ready(ctx.degree()) && state.echo_complete()
        } else {
            state.sent_done && state.self_received == ctx.degree() as u64 && state.echo_complete()
        };
    }

    fn halted(&self, _ctx: &NodeCtx, state: &TreeGatherState) -> bool {
        state.done
    }

    fn round_budget_hint(&self) -> Option<u64> {
        Some(self.budget + 8)
    }

    /// A vertex is quiescent when it has nothing left to do on an empty
    /// inbox:
    ///
    /// * **unreached** — pure frontier-waiting, the same deliberate
    ///   timeout-vs-fixpoint trade `mfd_core::programs::BfsProgram`
    ///   documents: on disconnected clusters the executor ends at the
    ///   fixpoint while the simulator runs the `round > n` timeout; public
    ///   outputs agree everywhere;
    /// * **announced and idle** — no upcast to send (no pending message and
    ///   no `Done` owed, or already sent) and no answer owed to any child:
    ///   the vertex is only waiting for mail. Such a round is a strict no-op
    ///   (nothing is sent and `done` is recomputed from unchanged state), so
    ///   skipping it changes no state, round or message count.
    ///
    /// A vertex that holds its depth but has not announced yet (the leader
    /// before round 1) always has work. The answer reads state and the
    /// degree only, so it is round-stable.
    fn quiescent(&self, ctx: &NodeCtx, state: &TreeGatherState) -> bool {
        if state.depth.is_none() {
            return true;
        }
        let upcast = state.parent.is_some()
            && !state.sent_done
            && (state.pending_up > 0 || state.subtree_ready(ctx.degree()));
        let echo = (state.down_sent.iter())
            .zip(&state.down_assigned)
            .any(|(sent, assigned)| sent < assigned);
        state.announced && !upcast && !echo
    }
}

impl GatherProgram for TreeGatherProgram {
    fn strategy_name(&self) -> &'static str {
        "tree-pipeline"
    }

    fn total_messages(&self) -> usize {
        self.total_messages
    }

    fn per_vertex_delivered(&self, states: &[TreeGatherState]) -> Vec<usize> {
        states
            .iter()
            .enumerate()
            .map(|(v, s)| {
                if s.depth.is_some() {
                    self.degrees[v]
                } else {
                    0
                }
            })
            .collect()
    }

    /// The per-vertex counts above are source-side (wave coverage — exact on
    /// completed runs, where the pipeline provably drains); under fault
    /// injection the honest number is what the leader actually heard: its
    /// children's upcast messages plus its own `deg` that never travel.
    /// Upcast sequence numbers make each receipt count at most once, so
    /// this can never exceed the total — deliberately unclamped, so any
    /// over-counting bug would surface as a fraction above one.
    fn leader_received(&self, states: &[TreeGatherState]) -> u64 {
        states.get(self.root).map_or(0, |s| {
            let from_children: u64 = s.up_from.iter().sum();
            from_children + self.degrees[self.root] as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfd_congest::RoundMeter;
    use mfd_graph::generators;
    use mfd_runtime::{Executor, ExecutorConfig};

    fn run(g: &Graph, leader: usize) -> (super::super::ExecutedGather, Vec<TreeGatherState>) {
        let program = TreeGatherProgram::new(g, leader);
        let (report, exec) =
            super::super::execute_gather(g, &program, &ExecutorConfig::default()).unwrap();
        (report, exec.states)
    }

    #[test]
    fn gathers_and_echoes_everything_on_a_path() {
        let g = generators::path(6);
        let (report, states) = run(&g, 0);
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
        assert_eq!(report.total_messages, 2 * g.m());
        for (v, s) in states.iter().enumerate() {
            assert_eq!(s.self_received, g.degree(v) as u64, "vertex {v}");
        }
    }

    #[test]
    fn executed_rounds_fit_the_metered_charge() {
        for (g, leader) in [
            (generators::triangulated_grid(8, 8), 0),
            (generators::wheel(64), 0),
            (generators::hypercube(5), 0),
            (generators::path(40), 0),
            (generators::star(30), 0),
        ] {
            let mut meter = RoundMeter::new();
            let charged = crate::gather::tree_gather(&g, leader, &mut meter);
            let (report, _) = run(&g, leader);
            assert!(
                report.rounds <= charged.rounds,
                "executed {} > charged {} on n={} m={}",
                report.rounds,
                charged.rounds,
                g.n(),
                g.m()
            );
            assert!((report.delivered_fraction - charged.delivered_fraction).abs() < 1e-12);
            assert_eq!(report.per_vertex_delivered, charged.per_vertex_delivered);
        }
    }

    #[test]
    fn parents_match_the_metered_bfs_tree() {
        let g = generators::triangulated_grid(5, 7);
        let mut meter = RoundMeter::new();
        let tree = mfd_congest::primitives::build_bfs_tree(&g, None, 3, &mut meter);
        let program = TreeGatherProgram::new(&g, 3);
        let exec = Executor::new(ExecutorConfig::default())
            .run(&g, &program)
            .unwrap();
        for v in 0..g.n() {
            let expected = (tree.parent[v] != usize::MAX).then_some(tree.parent[v]);
            assert_eq!(exec.states[v].parent, expected, "vertex {v}");
            assert_eq!(
                exec.states[v].depth.map(|d| d as usize),
                (tree.depth[v] != usize::MAX).then_some(tree.depth[v])
            );
        }
    }

    #[test]
    fn disconnected_cluster_gathers_the_leader_component_only() {
        let g = generators::path(4).disjoint_union(&generators::cycle(3));
        let (report, states) = run(&g, 0);
        assert!(states[..4].iter().all(|s| s.depth.is_some()));
        assert!(states[4..].iter().all(|s| s.depth.is_none()));
        let delivered: usize = report.per_vertex_delivered.iter().sum();
        assert_eq!(delivered, 2 * 3); // the path's 2m
    }

    #[test]
    fn empty_and_isolated_clusters_are_free() {
        let g = Graph::new(4);
        let (report, _) = run(&g, 0);
        assert_eq!(report.rounds, 0);
        assert!((report.delivered_fraction - 1.0).abs() < 1e-12);
    }
}
