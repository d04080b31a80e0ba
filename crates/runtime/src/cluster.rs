//! Cluster-scoped execution: run node programs independently on
//! vertex-disjoint clusters, in parallel, with the paper's parallel-composition
//! accounting (rounds = max over clusters, messages = sum).
//!
//! [`run_each`] is the one batch runner: it builds one sharded CSR engine
//! ([`ShardedExecutor`]) per call, shares the configured workers out among
//! the clusters and hands each cluster's closure that engine — what runs is
//! the closure's business, so a batch may mix program types freely (one
//! concrete `engine.run(view, &program)` per cluster, no wrapper program).
//! [`run_on_clusters`] is its homogeneous caller: one program type, each
//! cluster a [`CsrGraph`] view induced from the ambient graph
//! ([`CsrGraph::induced_subgraph`]). A round of a cluster costs its frontier
//! and its messages, not its size. The engine enforces the CONGEST model per
//! cluster exactly as it does on a whole graph, and is bit-identical to the
//! reference stepper ([`crate::Executor`]) on the induced adjacency-map
//! subgraph — the oracle the tests below compare against.

use mfd_congest::RoundMeter;
use mfd_graph::CsrGraph;
use rayon::prelude::*;

use crate::executor::{ExecutorConfig, RuntimeError};
use crate::program::NodeProgram;
use crate::sharded::{ShardedConfig, ShardedExecutor};

/// Result of running a program on every cluster of a partition.
#[derive(Debug)]
pub struct ClusterExecution<S> {
    /// Original vertex ids of each cluster (as passed in).
    pub members: Vec<Vec<usize>>,
    /// Final states per cluster, aligned with `members` (state `i` of cluster
    /// `c` belongs to original vertex `members[c][i]`).
    pub cluster_states: Vec<Vec<S>>,
    /// Parallel-composition meter: rounds advanced by the maximum over
    /// clusters, messages by the sum — [`RoundMeter::merge_parallel`]
    /// semantics, since vertex-disjoint clusters only use their own edges.
    pub meter: RoundMeter,
    /// Rounds of the slowest cluster (equals `meter.rounds()`).
    pub max_rounds: u64,
    /// Rounds executed by each cluster individually, aligned with `members`
    /// (the per-cluster numbers the parallel merge folds into `max_rounds`).
    pub cluster_rounds: Vec<u64>,
    /// Messages sent by each cluster individually, aligned with `members`.
    pub cluster_messages: Vec<u64>,
}

impl<S> ClusterExecution<S> {
    /// Scatters per-cluster states back to a dense per-original-vertex vector
    /// via `extract`, with `default` for vertices outside every cluster.
    pub fn scatter<T: Clone>(
        &self,
        n: usize,
        default: T,
        mut extract: impl FnMut(&S) -> T,
    ) -> Vec<T> {
        let mut out = vec![default; n];
        for (cluster, states) in self.members.iter().zip(&self.cluster_states) {
            for (&v, s) in cluster.iter().zip(states) {
                out[v] = extract(s);
            }
        }
        out
    }
}

/// Runs one program per cluster on the induced subgraphs of vertex-disjoint
/// clusters of `g`, in parallel across clusters ([`run_each`]).
///
/// `make_program` receives `(cluster index, induced subgraph, original ids)`
/// and returns the program for that cluster; vertex `i` of the subgraph is
/// original vertex `members[i]`. The outputs do not depend on the thread
/// count.
///
/// # Errors
///
/// Returns the first (by cluster index) [`RuntimeError`] if any cluster run
/// fails; accounting from other clusters is discarded.
///
/// # Panics
///
/// Panics, before anything runs, if a cluster contains an out-of-range vertex
/// or a vertex appears twice — in one cluster or in two; the message names
/// the vertex and the clusters.
pub fn run_on_clusters<P, F>(
    g: &CsrGraph,
    clusters: &[Vec<usize>],
    make_program: F,
    config: &ExecutorConfig,
) -> Result<ClusterExecution<P::State>, RuntimeError>
where
    P: NodeProgram,
    F: Fn(usize, &CsrGraph, &[usize]) -> P + Sync,
{
    assert_disjoint(g.n(), clusters);
    let runs = run_each(clusters.len(), config, |idx, engine| {
        let (sub, members) = g.induced_subgraph(&clusters[idx]);
        let run = engine.run(&sub, &make_program(idx, &sub, &members))?;
        Ok((run.states, run.meter))
    })?;
    let mut meter = RoundMeter::with_capacity(config.capacity_words);
    meter.merge_parallel(runs.iter().map(|(_, m)| m));
    Ok(ClusterExecution {
        members: clusters.to_vec(),
        max_rounds: meter.rounds(),
        meter,
        cluster_rounds: runs.iter().map(|(_, m)| m.rounds()).collect(),
        cluster_messages: runs.iter().map(|(_, m)| m.messages()).collect(),
        cluster_states: runs.into_iter().map(|(states, _)| states).collect(),
    })
}

/// One pass over all member lists: every vertex in range and listed once.
fn assert_disjoint(n: usize, clusters: &[Vec<usize>]) {
    // `owner[v]` is 1 + the cluster that listed `v`, 0 while nobody has.
    let mut owner = vec![0usize; n];
    for (idx, cluster) in clusters.iter().enumerate() {
        for &v in cluster {
            assert!(
                v < n,
                "cluster {idx} contains vertex {v}, out of range for a graph on {n} vertices"
            );
            assert!(
                owner[v] == 0,
                "clusters must be vertex-disjoint: vertex {v} is in cluster {} and again in \
                 cluster {idx}",
                owner[v] - 1
            );
            owner[v] = idx + 1;
        }
    }
}

/// Each cluster's share of `threads` workers: all of them for a single
/// cluster, 1 once there are as many clusters as threads.
fn threads_per_cluster(threads: usize, clusters: usize) -> usize {
    (threads / clusters.max(1)).max(1)
}

/// The batch runner: `run_one(c, engine)` executes cluster `c` — any program
/// on any view, disjointness of the clusters being the caller's to guarantee
/// — on the one engine built for this call, and returns that cluster's
/// output and meter; all of them come back in cluster order, ready for
/// [`RoundMeter::merge_parallel`].
///
/// The configured worker threads are shared out among the clusters: with at
/// least as many clusters as threads every cluster runs single-threaded on
/// one shard (the cluster-level parallelism already saturates the machine);
/// with fewer, each cluster gets `threads / clusters` workers and as many
/// shards, so no more than `threads` workers ever run.
///
/// # Errors
///
/// Returns the first (by cluster index) error any `run_one` returned.
pub fn run_each<T, F>(
    clusters: usize,
    config: &ExecutorConfig,
    run_one: F,
) -> Result<Vec<(T, RoundMeter)>, RuntimeError>
where
    T: Send,
    F: Fn(usize, &ShardedExecutor) -> Result<(T, RoundMeter), RuntimeError> + Sync,
{
    let threads = if config.threads > 0 {
        config.threads
    } else {
        rayon::current_num_threads()
    };
    let per_cluster = threads_per_cluster(threads, clusters);
    let engine = ShardedExecutor::new(ShardedConfig::matching(
        &ExecutorConfig {
            threads: per_cluster,
            ..config.clone()
        },
        per_cluster,
    ));

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool construction cannot fail");
    let runs: Vec<Result<(T, RoundMeter), RuntimeError>> = pool.install(|| {
        (0..clusters)
            .into_par_iter()
            .map(|idx| run_one(idx, &engine))
            .collect()
    });
    runs.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::tests::Mixer;
    use crate::executor::Executor;
    use mfd_graph::generators;

    #[test]
    fn workers_are_shared_out_among_the_clusters() {
        for (threads, clusters, share) in [
            (4, 1, 4),
            (4, 2, 2),
            (4, 3, 1),
            (4, 4, 1),
            (4, 100, 1),
            (8, 3, 2),
            (1, 0, 1),
        ] {
            assert_eq!(threads_per_cluster(threads, clusters), share);
            // Never more workers than configured while clusters are scarce.
            assert!(clusters >= threads || clusters * share <= threads);
        }
    }

    /// `parts` vertex-disjoint clusters of the 8x8 triangulated grid (column
    /// strips), each listed in a scrambled order.
    fn strips(parts: usize) -> Vec<Vec<usize>> {
        (0..parts)
            .map(|p| {
                let mut members: Vec<usize> = (0..64).filter(|v| v % 8 * parts / 8 == p).collect();
                members.reverse();
                members.rotate_left(p + 1);
                members
            })
            .collect()
    }

    #[test]
    fn clusters_match_per_cluster_executor_runs_at_every_thread_count() {
        let g = generators::triangulated_grid(8, 8);
        let csr = CsrGraph::from_graph(&g);
        // `Mixer` folds its inbox in order and draws from the per-vertex RNG,
        // so states pin sender order, local numbering, seed and round count.
        let program = Mixer { rounds: 7 };
        // 1 and 2 clusters leave threads to spare at 2 and 4 threads (inner
        // shards > 1); 8 clusters are the one-shard-per-cluster branch.
        for parts in [1, 2, 8] {
            let clusters = strips(parts);
            let expected: Vec<_> = clusters
                .iter()
                .map(|members| {
                    let (sub, _) = g.induced_subgraph(members);
                    Executor::new(ExecutorConfig::default())
                        .run(&sub, &program)
                        .unwrap()
                })
                .collect();
            for threads in [1, 2, 4] {
                let config = ExecutorConfig::with_threads(threads);
                let run = run_on_clusters(&csr, &clusters, |_, _, _| Mixer { rounds: 7 }, &config)
                    .unwrap();
                let case = format!("{parts} clusters, {threads} threads");
                assert_eq!(run.members, clusters, "{case}");
                for (c, reference) in expected.iter().enumerate() {
                    assert_eq!(
                        run.cluster_states[c], reference.states,
                        "{case}, cluster {c}"
                    );
                    assert_eq!(
                        run.cluster_rounds[c], reference.rounds,
                        "{case}, cluster {c}"
                    );
                    assert_eq!(
                        run.cluster_messages[c], reference.messages,
                        "{case}, cluster {c}"
                    );
                }
                let mut folded = RoundMeter::new();
                folded.merge_parallel(expected.iter().map(|e| &e.meter));
                assert_eq!(run.meter.rounds(), folded.rounds(), "{case}");
                assert_eq!(run.max_rounds, folded.rounds(), "{case}");
                assert_eq!(run.meter.messages(), folded.messages(), "{case}");
                assert_eq!(
                    run.meter.max_words_on_edge(),
                    folded.max_words_on_edge(),
                    "{case}"
                );

                // The batch runner itself, on views induced up front.
                let views: Vec<CsrGraph> =
                    clusters.iter().map(|m| csr.induced_subgraph(m).0).collect();
                let again = run_each(views.len(), &config, |idx, engine| {
                    let run = engine.run(&views[idx], &program)?;
                    Ok((run.states, run.meter))
                })
                .unwrap();
                for (c, (states, meter)) in again.iter().enumerate() {
                    assert_eq!(states, &run.cluster_states[c], "{case}");
                    assert_eq!(meter.rounds(), run.cluster_rounds[c], "{case}");
                    assert_eq!(meter.messages(), run.cluster_messages[c], "{case}");
                }
            }
        }
    }

    #[test]
    fn no_clusters_is_an_empty_run() {
        let csr = CsrGraph::from_graph(&generators::path(4));
        let run = run_on_clusters(
            &csr,
            &[],
            |_, _, _| Mixer { rounds: 3 },
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert!(run.cluster_states.is_empty());
        assert_eq!((run.max_rounds, run.meter.messages()), (0, 0));
    }

    #[test]
    #[should_panic(
        expected = "clusters must be vertex-disjoint: vertex 5 is in cluster 0 and again in cluster 2"
    )]
    fn a_vertex_shared_by_two_clusters_is_rejected_up_front() {
        let csr = CsrGraph::from_graph(&generators::path(12));
        let clusters = [vec![4, 5, 6], vec![0, 1], vec![7, 5]];
        let _ = run_on_clusters(
            &csr,
            &clusters,
            |_, _, _| Mixer { rounds: 1 },
            &ExecutorConfig::default(),
        );
    }

    #[test]
    #[should_panic(
        expected = "cluster 1 contains vertex 12, out of range for a graph on 12 vertices"
    )]
    fn an_out_of_range_member_is_rejected_up_front() {
        let csr = CsrGraph::from_graph(&generators::path(12));
        let _ = run_on_clusters(
            &csr,
            &[vec![0, 1], vec![11, 12]],
            |_, _, _| Mixer { rounds: 1 },
            &ExecutorConfig::default(),
        );
    }
}
