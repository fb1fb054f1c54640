//! The shared local enumeration behind the dense listing paths.
//!
//! The `congested-clique` and `naive-broadcast` algorithms end in one dense
//! local step — enumerate every `K_p` of an (aggregate) graph into the
//! run's [`CliqueSink`] — and the CONGEST drivers (`general`/`fast-k4`'s
//! final broadcast, `eden-k4`'s naive finish) end in the same step over
//! their surviving graph. This module is that step's single implementation —
//! sequential by default, sharded through `graphcore::ordered_merge` when
//! the validated [`Parallelism`](crate::Parallelism) knob resolves above one
//! thread and the host has more than one core. Both paths run the kernel
//! the graph's `CliqueIndex` picks; nothing in the configuration chooses it.
//!
//! The parallel path keeps the engine's exactly-once deterministic emission
//! contract by construction: producers claim contiguous shards of the
//! degeneracy ordering from a [`ShardedEnumerator`] and fill one
//! [`ShardBuffer`] per shard; only the orchestrating thread touches the real
//! sink, replaying buffers in ascending shard order. Shard boundaries vary
//! with the thread count but their concatenation is always the full root
//! sequence, so the accept sequence is byte-identical to the sequential
//! path's (`DESIGN.md` §8). Saturation stops the replay immediately and
//! tells the workers to abandon their remaining shards and the ones they are
//! filling.

use crate::config::ListingConfig;
use crate::sink::CliqueSink;
use graphcore::{cliques, Graph};

/// Emits every `p`-clique of `graph` into `sink` exactly once, in the
/// deterministic sequential order, honouring saturation. Uses
/// [`ListingConfig::effective_threads`] to decide between the sequential and
/// the sharded parallel path; callers are algorithms that opted into sharded
/// local enumeration.
///
/// Returns the thread count the enumeration **actually** fanned out to
/// (1 = sequential). This is what `RunReport.parallelism.threads_used`
/// records: a grant can exceed it on degenerate inputs (single-shard plans,
/// already-saturated sinks) and on hosts with fewer cores than the grant,
/// and scaling reports must not attribute such runs to the granted thread
/// count.
pub(crate) fn stream_cliques(
    graph: &Graph,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) -> usize {
    if sink.is_saturated() {
        return 1;
    }
    let threads = config.effective_threads(true);
    if threads > 1 && config.p >= 3 {
        // Build the snapshot artifact (ordering + DAG + bitsets) once and
        // hand it to the sharded path — the same build/query split the
        // `query` crate's GraphSnapshot amortises across whole batches.
        let index = cliques::CliqueIndex::build(graph);
        return parallel_stream(graph, &index, config, threads, sink);
    }
    cliques::for_each_clique_while(graph, config.p, |c| {
        sink.accept(c);
        !sink.is_saturated()
    });
    1
}

/// The sharded path: fan shards out through
/// [`graphcore::ordered_merge::ordered_merge`] (the single orchestration
/// shared with the cluster fan-out of `arb_list` and the query crate's batch
/// and delta fan-outs — fan-out rule, stop flag, ordered replay and
/// backpressure live there), with one gated
/// [`ShardBuffer`](crate::sink::ShardBuffer) per shard bridging the
/// enumeration to the `dyn CliqueSink`: once the sink saturates, producers
/// abandon the shards they are filling, as `arb_list`'s clusters do. Only
/// this thread ever touches `sink`. Returns the fan-out the merge ran on
/// ([`graphcore::ordered_merge::fanout`] of the grant and the shard count);
/// a fan-out of 1 enumerates inline, without buffering.
fn parallel_stream(
    graph: &Graph,
    index: &cliques::CliqueIndex,
    config: &ListingConfig,
    threads: usize,
    sink: &mut dyn CliqueSink,
) -> usize {
    use crate::sink::GatedBuffer;
    use graphcore::cliques::{ShardedEnumerator, SHARDS_PER_THREAD};
    use graphcore::ordered_merge::{fanout, ordered_merge};
    use std::sync::atomic::{AtomicBool, Ordering};

    let p = config.p;
    let enumerator =
        ShardedEnumerator::with_index(graph, index, p, threads.saturating_mul(SHARDS_PER_THREAD));
    let shards = enumerator.num_shards();
    let threads_used = fanout(threads, shards);
    if threads_used <= 1 {
        index.for_each_clique_while(graph, p, |c| {
            sink.accept(c);
            !sink.is_saturated()
        });
        return 1;
    }
    // Raised once the sink saturates, so producers stop mid-shard.
    let stop = AtomicBool::new(false);
    ordered_merge(
        shards,
        threads,
        |shard| {
            let mut gated = GatedBuffer::new(shard, p, &stop);
            enumerator.for_each_in_shard_while(shard, |c| {
                gated.accept(c);
                !gated.is_saturated()
            });
            gated.buffer
        },
        |buffer| {
            let accepting = buffer.replay_into(sink);
            stop.store(!accepting, Ordering::Relaxed);
            accepting
        },
    );
    threads_used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ListingConfig, Parallelism};
    use crate::sink::{CollectSink, FirstK};
    use graphcore::gen;

    fn config(p: usize, parallelism: Parallelism) -> ListingConfig {
        ListingConfig {
            parallelism,
            ..ListingConfig::for_p(p)
        }
    }

    #[test]
    fn stream_matches_ground_truth_at_every_setting() {
        let g = gen::erdos_renyi(60, 0.3, 4);
        for p in [3usize, 4, 5] {
            let truth = cliques::list_cliques(&g, p);
            for parallelism in [
                Parallelism::Off,
                Parallelism::Threads(1),
                Parallelism::Threads(2),
                Parallelism::Threads(8),
            ] {
                let mut sink = CollectSink::new();
                stream_cliques(&g, &config(p, parallelism), &mut sink);
                assert_eq!(sink.sorted(), truth, "p={p} {parallelism:?}");
            }
        }
    }

    #[test]
    fn saturated_sinks_get_the_sequential_prefix() {
        let g = gen::complete_graph(16);
        let mut reference = FirstK::new(7);
        stream_cliques(&g, &config(4, Parallelism::Off), &mut reference);
        for threads in [2usize, 8] {
            let mut first = FirstK::new(7);
            stream_cliques(&g, &config(4, Parallelism::Threads(threads)), &mut first);
            assert_eq!(first.cliques, reference.cliques, "threads={threads}");
        }
        // An already-saturated sink costs nothing.
        let mut full = FirstK::new(0);
        stream_cliques(&g, &config(4, Parallelism::Threads(4)), &mut full);
        assert!(full.cliques.is_empty());
    }
}
