//! Cluster-scoped execution: run node programs independently on
//! vertex-disjoint clusters, in parallel, with the paper's parallel-composition
//! accounting (rounds = max over clusters, messages = sum).
//!
//! [`run_each`] is the one batch runner: it builds one sharded engine
//! ([`ShardedExecutor`]) per call, shares the configured workers out among
//! the clusters and hands each cluster's closure that engine — what runs is
//! the closure's business, so a batch may mix program types freely (one
//! concrete `engine.run(view, &program)` per cluster, no wrapper program,
//! each view typically induced from the ambient graph by
//! [`Graph::induced_subgraph`](mfd_graph::Graph::induced_subgraph)).
//! A round of a cluster costs its frontier and its messages, not its size.
//! The engine enforces the CONGEST model per cluster exactly as it does on a
//! whole graph, and is bit-identical to the reference stepper
//! ([`crate::Executor`]) on the same induced subgraph — the oracle the tests
//! below compare against.

use mfd_congest::RoundMeter;
use rayon::prelude::*;

use crate::executor::{ExecutorConfig, RuntimeError};
use crate::sharded::{ShardedConfig, ShardedExecutor};

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
                let runs = run_each(clusters.len(), &config, |idx, engine| {
                    let (view, _) = g.induced_subgraph(&clusters[idx]);
                    let run = engine.run(&view, &program)?;
                    Ok((run.states, run.meter))
                })
                .unwrap();
                let case = format!("{parts} clusters, {threads} threads");
                assert_eq!(runs.len(), clusters.len(), "{case}");
                for (c, ((states, meter), reference)) in runs.iter().zip(&expected).enumerate() {
                    assert_eq!(states, &reference.states, "{case}, cluster {c}");
                    assert_eq!(meter.rounds(), reference.rounds, "{case}, cluster {c}");
                    assert_eq!(meter.messages(), reference.messages, "{case}, cluster {c}");
                }
                let mut run = RoundMeter::with_capacity(config.capacity_words);
                run.merge_parallel(runs.iter().map(|(_, m)| m));
                let mut folded = RoundMeter::new();
                folded.merge_parallel(expected.iter().map(|e| &e.meter));
                assert_eq!(run.rounds(), folded.rounds(), "{case}");
                assert_eq!(run.messages(), folded.messages(), "{case}");
                assert_eq!(
                    run.max_words_on_edge(),
                    folded.max_words_on_edge(),
                    "{case}"
                );
            }
        }
    }
}
