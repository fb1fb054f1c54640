//! Algorithm ARB-LIST (Theorem 2.9).
//!
//! One invocation of ARB-LIST takes the current graph `G = (V, E_s ∪ E_r)`
//! together with an orientation of out-degree at most the arboricity bound
//! `n^d`, runs the expander decomposition on `E_r`, brings the relevant
//! outside edges into every cluster, performs the sparsity-aware in-cluster
//! listing, and returns
//!
//! * `Ê_m` — the goal edges, all of whose `K_p` instances were listed and
//!   which can therefore be removed from the graph;
//! * `E'_s` — new low-arboricity edges (with their peeling orientation) to be
//!   merged into `E_s`;
//! * `Ê_r`  — the remaining edges (`E'_r` plus the bad-bad edges), at most a
//!   quarter of the incoming `E_r`.
//!
//! The listed instances are streamed into the caller's [`CliqueSink`]. For
//! the general algorithm, one invocation emits each clique at most once (a
//! per-invocation [`Dedup`] layer absorbs the cross-cluster overlap), and
//! cliques listed by *different* invocations are structurally distinct
//! because every listed clique contains a goal edge and goal edges are
//! removed from the graph. For the fast-`K_4` variant the emission can
//! contain duplicates (the light-node listing overlaps the in-cluster
//! listing and later invocations): its callers wrap the **whole run** in a
//! single `Dedup` — see `driver::run_congest` — which is both necessary for
//! cross-invocation duplicates and sufficient for the in-invocation ones, so
//! this function adds no second layer.
//!
//! # Cluster-parallel execution
//!
//! The paper's clusters are independent by construction: each one pools
//! knowledge, reshuffles edges and lists the `K_p` instances of its own goal
//! edges without reading any other cluster's state (Sections 2.4.2–2.4.3).
//! This function exploits that with a plan/execute split: the per-cluster
//! work is a pure *produce* step (`run_cluster` — knowledge gathering,
//! in-cluster listing and the fast-`K_4` light listing, all emitting into a
//! private [`ShardBuffer`]), and the mutation of the invocation outcome plus
//! the replay into the real sink is a *consume* step executed **only on the
//! calling thread, in ascending cluster order**. Under a
//! [`Parallelism`](crate::Parallelism) grant above one thread, contiguous
//! cluster ranges (size-balanced by goal-edge count through
//! [`balanced_ranges`](graphcore::ordered_merge::balanced_ranges)) fan out
//! over the same
//! [`ordered_merge`](graphcore::ordered_merge) orchestrator that drives the
//! sharded dense enumeration; the sequential path runs the identical
//! produce/consume code inline, so the emitted clique sequence, the round
//! breakdown and the diagnostics are byte-identical at any thread count.
//! Every cluster's rounds are always accounted — consumption never stops
//! early — while replay into a saturated sink is skipped, matching the sink
//! contract's "saturation skips local enumeration, never communication".

use crate::cluster_knowledge::gather_cluster_knowledge;
use crate::config::{ListingConfig, Variant};
use crate::result::{phase, Diagnostics, Rounds};
use crate::sink::{CliqueSink, Dedup, ShardBuffer};
use crate::sparse_listing::{cluster_listing, SparseListingInput};
use expander::{decompose, Cluster};
use graphcore::{EdgeSet, Graph, Orientation};
use std::collections::BTreeMap;

/// Cluster-range tasks planned per worker thread by the cluster fan-out:
/// oversubscription lets fast workers steal the tail instead of idling
/// behind one expensive cluster, while each task stays large enough to
/// amortise its buffer.
const CLUSTER_TASKS_PER_THREAD: usize = 4;

/// Result of one ARB-LIST invocation (the listed cliques are streamed to the
/// sink, not returned).
#[derive(Clone, Debug, Default)]
pub struct ArbListOutcome {
    /// The goal edges `Ê_m` (removed from the graph by the caller).
    pub goal_edges: EdgeSet,
    /// New `E_s` edges produced by the decomposition's peeling.
    pub es_added: EdgeSet,
    /// Out-neighbour lists of the peeling orientation of `es_added`.
    pub es_out: Vec<Vec<u32>>,
    /// The new remainder `Ê_r`.
    pub er_new: EdgeSet,
    /// Round breakdown of this invocation.
    pub rounds: Rounds,
    /// Diagnostics of this invocation.
    pub diagnostics: Diagnostics,
    /// Worker threads the cluster fan-out actually used (1 = the clusters ran
    /// inline on the calling thread). Never exceeds the number of cluster
    /// tasks, so a large grant over few clusters is not misreported as real
    /// fan-out.
    pub threads_used: usize,
}

/// Everything one cluster contributes back to its ARB-LIST invocation: the
/// work-item payload of the cluster fan-out. Produced (possibly on a worker
/// thread) without touching any shared mutable state; merged into the
/// [`ArbListOutcome`] and replayed into the sink in ascending cluster order.
struct ClusterYield {
    goal_edges: EdgeSet,
    bad_edges: EdgeSet,
    cluster_edge_count: usize,
    max_learned_words: u64,
    heavy_upload_rounds: u64,
    light_probe_rounds: u64,
    listing_rounds: Rounds,
    light_listing_rounds: u64,
    emissions: ShardBuffer,
}

/// A [`ShardBuffer`] whose saturation mirrors a shared stop flag: the
/// consume step raises the flag once the *real* sink saturates, and
/// producers — inline or on worker threads — observe it through the
/// ordinary [`CliqueSink::is_saturated`] probes of the in-cluster listing,
/// stopping their enumeration early instead of buffering cliques that the
/// replay guard would discard anyway.
///
/// The flag never changes what reaches the sink: it is raised only while
/// the sink is saturated, consumption is strictly ascending, and a yield
/// consumed after the raise is not replayed at all — so a buffer truncated
/// by the flag is never the one being replayed. It is purely a
/// work-avoidance signal, which is what keeps `FirstK`-style runs as cheap
/// as they were when clusters streamed straight into the sink.
struct GatedBuffer<'a> {
    buffer: ShardBuffer,
    stop: &'a std::sync::atomic::AtomicBool,
}

impl CliqueSink for GatedBuffer<'_> {
    fn accept(&mut self, clique: &[u32]) {
        self.buffer.accept(clique);
    }

    fn is_saturated(&self) -> bool {
        self.stop.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Runs one invocation of ARB-LIST, emitting every listed `K_p` into `sink`.
///
/// * `graph`, `orientation`: the current graph `(V, E_s ∪ E_r)` and an
///   orientation of out-degree at most `arboricity_bound`;
/// * `er`: the current `E_r` (the edges the decomposition is applied to);
/// * `arboricity_bound`: the bound `n^d` on the out-degree of `orientation`;
/// * `delta`: the decomposition parameter δ with `n^δ ≈ n^d / (2 log n)`.
// The argument list mirrors the parameter list of Theorem 2.9's ARB-LIST;
// collapsing it into a struct would obscure the correspondence to the paper.
#[allow(clippy::too_many_arguments)]
pub fn arb_list(
    graph: &Graph,
    orientation: &Orientation,
    er: &EdgeSet,
    arboricity_bound: usize,
    delta: f64,
    config: &ListingConfig,
    seed: u64,
    sink: &mut dyn CliqueSink,
) -> ArbListOutcome {
    let n = graph.num_vertices();
    let mut outcome = ArbListOutcome {
        es_out: vec![Vec::new(); n],
        ..Default::default()
    };
    // A clique can contain goal edges of several clusters, and the fast-K4
    // light listing overlaps the in-cluster listing. For the general
    // algorithm a per-invocation Dedup absorbs that overlap (and suffices,
    // because emissions of different invocations are structurally disjoint);
    // for the fast-K4 variant the caller already wraps the whole run in a
    // Dedup — see `driver::run_congest` — so a second layer here would only
    // double the memory.
    let mut dedup;
    let sink: &mut dyn CliqueSink = match config.variant {
        Variant::General => {
            dedup = Dedup::new(sink);
            &mut dedup
        }
        Variant::FastK4 => sink,
    };

    // --- Expander decomposition on E_r (Theorem 2.3) -----------------------
    let er_graph = Graph::from_edge_set(n, er).expect("E_r endpoints are in range");
    let decomposition = decompose(&er_graph, delta, &config.decomposition, seed);
    outcome.rounds.add(
        phase::DECOMPOSITION,
        config.charge_policy.decomposition_rounds(n, delta),
    );
    outcome.diagnostics.decompositions = 1;
    outcome.diagnostics.clusters = decomposition.clusters.len();
    outcome.diagnostics.arb_iterations = 1;

    // E'_s joins E_s; E'_r starts the new remainder.
    outcome.es_added = decomposition.es.clone();
    for (u, v) in decomposition.es_orientation.edges() {
        outcome.es_out[u as usize].push(v);
    }
    outcome.er_new = decomposition.er.clone();

    if decomposition.clusters.is_empty() {
        return outcome;
    }

    // Cluster-membership broadcast: one round, all clusters in parallel.
    outcome.rounds.add(phase::MEMBERSHIP, 1);

    let em_graph = decomposition.em_graph(n);
    let heavy_threshold = match config.variant {
        Variant::General => config.heavy_threshold(n),
        // Section 3: heavy means at least n^{d-1/3} cluster neighbours.
        Variant::FastK4 => (arboricity_bound as f64 / (n.max(2) as f64).powf(1.0 / 3.0)).max(1.0),
    };

    let clusters = &decomposition.clusters;
    // The per-cluster E'_m edge sets double as the fan-out's balancing
    // weights: a cluster's listing work scales with its goal-edge count.
    let cluster_ems: Vec<EdgeSet> = clusters
        .iter()
        .map(|c| c.edges_within(&decomposition.em))
        .collect();

    // Work-avoidance flag shared between the consume step (which raises it
    // once the real sink saturates) and the producers (whose gated buffers
    // report it as saturation, aborting further enumeration).
    let stop_listing = std::sync::atomic::AtomicBool::new(sink.is_saturated());

    // --- Produce: everything one cluster computes on its own ---------------
    // Pure function of shared read-only state (plus the advisory stop flag),
    // so the orchestrator may run it on any worker thread. Emissions land in
    // a private per-cluster buffer.
    let run_cluster = |index: usize| -> ClusterYield {
        let cluster: &Cluster = &clusters[index];
        let cluster_em = &cluster_ems[index];
        let knowledge = gather_cluster_knowledge(
            graph,
            orientation,
            cluster,
            cluster_em,
            heavy_threshold,
            config,
        );
        let mut emissions = GatedBuffer {
            buffer: ShardBuffer::new(index, config.p),
            stop: &stop_listing,
        };

        // In-cluster sparsity-aware listing.
        let input = SparseListingInput {
            cluster,
            em_graph: &em_graph,
            known_edges: &knowledge.known_edges,
            goal_edges: &knowledge.goal_edges,
            learned_words: &knowledge.learned_words,
            n,
            arboricity_bound,
        };
        let listing = cluster_listing(&input, config, seed ^ cluster.id as u64, &mut emissions);

        // Fast K4 variant: C-light nodes list the instances whose outside edge
        // touches a light node, sequentially over the clusters (Section 3).
        let light_listing_rounds = if config.variant == Variant::FastK4 {
            light_node_listing(graph, cluster, heavy_threshold, &mut emissions)
        } else {
            0
        };

        let max_learned_words = knowledge.max_learned_words();
        ClusterYield {
            goal_edges: knowledge.goal_edges,
            bad_edges: knowledge.bad_edges,
            cluster_edge_count: cluster_em.len(),
            max_learned_words,
            heavy_upload_rounds: knowledge.heavy_upload_rounds,
            light_probe_rounds: knowledge.light_probe_rounds,
            listing_rounds: listing.rounds,
            light_listing_rounds,
            emissions: emissions.buffer,
        }
    };

    // Per-phase maxima across clusters (clusters operate in parallel on
    // disjoint edge sets; the light listing of the fast K4 variant is the one
    // sequential exception).
    let mut max_heavy = 0u64;
    let mut max_probe = 0u64;
    let mut sequential_light_listing = 0u64;
    let mut per_cluster_rounds: Vec<Rounds> = Vec::new();

    // --- Consume: merge one cluster's yield, ascending cluster order -------
    // Runs only on the calling thread. Rounds and diagnostics are always
    // merged (communication happens regardless of how much output the client
    // consumes); only the emission replay honours saturation.
    let mut consume = |y: ClusterYield| {
        outcome.diagnostics.cluster_edges += y.cluster_edge_count;
        max_heavy = max_heavy.max(y.heavy_upload_rounds);
        max_probe = max_probe.max(y.light_probe_rounds);
        outcome.diagnostics.bad_edges += y.bad_edges.len();
        outcome.diagnostics.max_learned_words = outcome
            .diagnostics
            .max_learned_words
            .max(y.max_learned_words);

        // Bad-bad edges are deferred to Ê_r.
        for e in y.bad_edges.iter() {
            outcome.er_new.insert(e);
        }
        for e in y.goal_edges.iter() {
            outcome.goal_edges.insert(e);
        }

        per_cluster_rounds.push(y.listing_rounds);
        sequential_light_listing += y.light_listing_rounds;

        if !sink.is_saturated() {
            y.emissions.replay_into(sink);
        }
        if sink.is_saturated() {
            stop_listing.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    };

    // --- Execute: fan the cluster tasks out, or run them inline ------------
    // Under a thread grant, clusters are grouped into contiguous,
    // goal-edge-balanced ranges and driven through the shared ordered-merge
    // orchestrator; consumption is strictly ascending and never stops early
    // (every cluster's rounds count), so the merged outcome is byte-identical
    // to the inline loop at any thread count. `threads_used` records the
    // worker count the fan-out actually reached (1 = the inline loop ran).
    let threads = config.effective_threads(true);
    let threads_used = if threads > 1 && clusters.len() > 1 {
        let weights: Vec<u64> = cluster_ems.iter().map(|em| 1 + em.len() as u64).collect();
        let tasks = graphcore::ordered_merge::balanced_ranges(
            &weights,
            threads.saturating_mul(CLUSTER_TASKS_PER_THREAD),
        );
        graphcore::ordered_merge::ordered_merge(
            tasks.len(),
            threads,
            |task| {
                let (start, end) = tasks[task];
                (start as usize..end as usize)
                    .map(&run_cluster)
                    .collect::<Vec<ClusterYield>>()
            },
            |yields| {
                for y in yields {
                    consume(y);
                }
                true
            },
        );
        threads.min(tasks.len())
    } else {
        for index in 0..clusters.len() {
            consume(run_cluster(index));
        }
        1
    };
    outcome.threads_used = threads_used;

    outcome.rounds.add(phase::HEAVY_UPLOAD, max_heavy);
    outcome.rounds.add(phase::LIGHT_PROBES, max_probe);
    outcome
        .rounds
        .add(phase::LIGHT_LISTING, sequential_light_listing);
    // The in-cluster phases run in parallel across clusters: charge the
    // per-phase maximum.
    for phase_name in [
        phase::ID_ASSIGNMENT,
        phase::RESHUFFLE,
        phase::PARTITION_BROADCAST,
        phase::PART_EXCHANGE,
    ] {
        let max_rounds = per_cluster_rounds
            .iter()
            .map(|r| r.for_phase(phase_name))
            .max()
            .unwrap_or(0);
        outcome.rounds.add(phase_name, max_rounds);
    }

    outcome
}

/// The light-node listing of Section 3: every `C`-light node asks all its
/// neighbours about each of its cluster neighbours and lists the `K_4`
/// instances it sees, emitting them into `sink`. Returns the rounds used
/// (for this cluster).
///
/// Outside nodes are visited in ascending identifier order so the emission
/// order is deterministic.
fn light_node_listing(
    graph: &Graph,
    cluster: &Cluster,
    heavy_threshold: f64,
    sink: &mut dyn CliqueSink,
) -> u64 {
    let mut max_rounds = 0u64;
    // Identify the C-light outside neighbours and their cluster neighbours.
    let mut outside: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &u in &cluster.vertices {
        for &v in graph.neighbors(u) {
            if !cluster.contains(v) {
                outside.entry(v).or_default().push(u);
            }
        }
    }
    // Scratch buffers reused across all (u, w) pairs: N(u) ∩ N(w), then that
    // intersected with N(v). Merge-based — no per-pair allocation and no
    // per-candidate has_edge probe.
    let mut uw_common: Vec<u32> = Vec::new();
    let mut witnesses: Vec<u32> = Vec::new();
    for (&v, cluster_neighbors) in &outside {
        if cluster_neighbors.len() as f64 > heavy_threshold {
            continue; // heavy: handled inside the cluster
        }
        // v broadcasts each cluster neighbour to all its own neighbours and
        // receives one answer word per (cluster neighbour, neighbour) pair.
        max_rounds = max_rounds.max(2 * cluster_neighbors.len() as u64);
        // v now knows, for every cluster neighbour u and every neighbour y of
        // v, whether {u, y} is an edge; list the K4s it sees. The witnesses y
        // are exactly N(u) ∩ N(w) ∩ N(v), ascending (which keeps the emission
        // order of the former filter loop).
        for (i, &u) in cluster_neighbors.iter().enumerate() {
            for &w in &cluster_neighbors[i + 1..] {
                if !graph.has_edge(u, w) {
                    continue;
                }
                graph.common_neighbors_into(u, w, &mut uw_common);
                graphcore::intersect_sorted_into(&uw_common, graph.neighbors(v), &mut witnesses);
                for &y in &witnesses {
                    sink.accept(&graphcore::canonical_clique(&[v, u, w, y]));
                }
            }
        }
    }
    max_rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use graphcore::{gen, Clique};
    use std::collections::HashSet;

    fn run_arb(graph: &Graph, p: usize, variant: Variant) -> (ArbListOutcome, HashSet<Clique>) {
        let orientation = Orientation::from_degeneracy(graph);
        let a = orientation.max_out_degree().max(1);
        let er = graph.edge_set();
        let n = graph.num_vertices() as f64;
        // Use the paper's δ when the arboricity is large enough, and a mild
        // default (0.5) otherwise — callers outside tests only invoke
        // ARB-LIST through LIST, which enforces the precondition.
        let delta = ((a as f64 / (2.0 * n.log2())).max(n.powf(0.5))).ln() / n.ln();
        let config = ListingConfig {
            variant,
            ..ListingConfig::for_p(p)
        };
        let mut sink = CollectSink::new();
        let outcome = arb_list(
            graph,
            &orientation,
            &er,
            a,
            delta.clamp(0.05, 0.95),
            &config,
            7,
            &mut sink,
        );
        (outcome, sink.into_cliques())
    }

    #[test]
    fn er_shrinks_and_partition_is_consistent() {
        let g = gen::erdos_renyi(150, 0.3, 3);
        let (out, _) = run_arb(&g, 4, Variant::General);
        let total = out.goal_edges.len() + out.es_added.len() + out.er_new.len();
        assert_eq!(total, g.num_edges(), "ARB-LIST must partition the edges");
        assert!(out.goal_edges.is_disjoint(&out.es_added));
        assert!(out.goal_edges.is_disjoint(&out.er_new));
        assert!(out.es_added.is_disjoint(&out.er_new));
        assert!(
            out.er_new.len() <= g.num_edges() / 4,
            "|Ê_r| = {} > |E_r|/4 = {}",
            out.er_new.len(),
            g.num_edges() / 4
        );
    }

    #[test]
    fn lists_every_clique_with_a_goal_edge() {
        let g = gen::erdos_renyi(100, 0.3, 11);
        let (out, listed) = run_arb(&g, 4, Variant::General);
        let all = graphcore::cliques::list_cliques(&g, 4);
        for clique in &all {
            let has_goal = clique.iter().enumerate().any(|(i, &a)| {
                clique[i + 1..]
                    .iter()
                    .any(|&b| out.goal_edges.contains_pair(a, b))
            });
            if has_goal {
                assert!(
                    listed.contains(clique),
                    "K4 {clique:?} with a goal edge was not listed"
                );
            }
        }
        // Everything listed must be a real clique.
        for clique in &listed {
            assert!(graphcore::cliques::is_clique(&g, clique));
            assert_eq!(clique.len(), 4);
        }
    }

    #[test]
    fn fast_k4_variant_also_covers_goal_edges() {
        let g = gen::erdos_renyi(100, 0.3, 13);
        let (out, listed) = run_arb(&g, 4, Variant::FastK4);
        let all = graphcore::cliques::list_cliques(&g, 4);
        for clique in &all {
            let has_goal = clique.iter().enumerate().any(|(i, &a)| {
                clique[i + 1..]
                    .iter()
                    .any(|&b| out.goal_edges.contains_pair(a, b))
            });
            if has_goal {
                assert!(
                    listed.contains(clique),
                    "K4 {clique:?} with a goal edge was not listed by the fast variant"
                );
            }
        }
    }

    #[test]
    fn k5_instances_with_goal_edges_are_listed() {
        let (g, _) = gen::planted_cliques(120, 0.2, 3, 5, 5);
        let (out, listed) = run_arb(&g, 5, Variant::General);
        let all = graphcore::cliques::list_cliques(&g, 5);
        assert!(!all.is_empty());
        for clique in &all {
            let has_goal = clique.iter().enumerate().any(|(i, &a)| {
                clique[i + 1..]
                    .iter()
                    .any(|&b| out.goal_edges.contains_pair(a, b))
            });
            if has_goal {
                assert!(listed.contains(clique), "K5 {clique:?} missing");
            }
        }
    }

    #[test]
    fn sparse_graph_produces_no_clusters_and_no_goal_edges() {
        let g = gen::path_graph(100);
        let (out, listed) = run_arb(&g, 4, Variant::General);
        assert!(out.goal_edges.is_empty());
        assert_eq!(out.es_added.len(), g.num_edges());
        assert!(listed.is_empty());
        assert_eq!(out.diagnostics.clusters, 0);
    }

    #[test]
    fn rounds_are_recorded_per_phase() {
        let g = gen::erdos_renyi(120, 0.35, 17);
        let (out, _) = run_arb(&g, 4, Variant::General);
        assert!(out.rounds.for_phase(phase::DECOMPOSITION) > 0);
        if out.diagnostics.clusters > 0 {
            assert!(out.rounds.for_phase(phase::MEMBERSHIP) > 0);
            assert!(out.rounds.for_phase(phase::PART_EXCHANGE) > 0);
        }
        assert_eq!(out.rounds.total(), out.rounds.iter().map(|(_, r)| r).sum());
    }

    #[test]
    fn general_invocations_emit_each_clique_exactly_once() {
        // For the general algorithm, raw CountSink totals must match the
        // distinct set even though the cross-cluster path can find a clique
        // twice — the per-invocation Dedup absorbs the overlap. The fast-K4
        // variant deliberately has no inner layer (its drivers dedup the
        // whole run), so its raw count may only overshoot, never undershoot.
        let g = gen::erdos_renyi(100, 0.35, 19);
        let orientation = Orientation::from_degeneracy(&g);
        let a = orientation.max_out_degree().max(1);
        let er = g.edge_set();
        let n = g.num_vertices() as f64;
        let delta =
            (((a as f64 / (2.0 * n.log2())).max(n.powf(0.5))).ln() / n.ln()).clamp(0.05, 0.95);

        let config = ListingConfig::for_p(4);
        let mut count = crate::sink::CountSink::new();
        arb_list(&g, &orientation, &er, a, delta, &config, 7, &mut count);
        let (_, listed) = run_arb(&g, 4, Variant::General);
        assert_eq!(count.count as usize, listed.len());

        let fast_config = ListingConfig {
            variant: Variant::FastK4,
            ..config
        };
        let mut fast_count = crate::sink::CountSink::new();
        arb_list(
            &g,
            &orientation,
            &er,
            a,
            delta,
            &fast_config,
            7,
            &mut fast_count,
        );
        let (_, fast_listed) = run_arb(&g, 4, Variant::FastK4);
        assert!(fast_count.count as usize >= fast_listed.len());
    }

    /// A sink recording the exact accept sequence (never saturates).
    #[derive(Default)]
    struct TraceSink {
        accepts: Vec<Clique>,
    }

    impl CliqueSink for TraceSink {
        fn accept(&mut self, clique: &[u32]) {
            self.accepts.push(clique.to_vec());
        }
    }

    #[test]
    fn dedup_exists_for_duplicates_not_order() {
        // The Dedup layers of the pipeline absorb *structural* duplicates —
        // a clique containing several goal edges (of one cluster or of
        // overlapping clusters) is found once per goal edge. They are NOT
        // needed to repair iteration order: with the flat dense-id tables,
        // the raw (pre-dedup) emission sequence of the fast-K4 variant —
        // which runs without any inner Dedup — is identical from run to run.
        let g = gen::erdos_renyi(90, 0.35, 23);
        let orientation = Orientation::from_degeneracy(&g);
        let a = orientation.max_out_degree().max(1);
        let er = g.edge_set();
        let n = g.num_vertices() as f64;
        let delta =
            (((a as f64 / (2.0 * n.log2())).max(n.powf(0.5))).ln() / n.ln()).clamp(0.05, 0.95);
        let config = ListingConfig {
            variant: Variant::FastK4,
            ..ListingConfig::for_p(4)
        };

        let mut first = TraceSink::default();
        arb_list(&g, &orientation, &er, a, delta, &config, 7, &mut first);
        let mut second = TraceSink::default();
        arb_list(&g, &orientation, &er, a, delta, &config, 7, &mut second);
        assert_eq!(
            first.accepts, second.accepts,
            "raw pre-dedup emission order must be deterministic"
        );

        // The duplicates a Dedup would drop are genuine re-findings of the
        // same clique, so deduplication changes multiplicities only — never
        // membership.
        let distinct: HashSet<Clique> = first.accepts.iter().cloned().collect();
        assert!(
            first.accepts.len() >= distinct.len(),
            "raw emission may repeat structurally shared cliques"
        );
        let (_, deduped) = run_arb(&g, 4, Variant::FastK4);
        assert_eq!(distinct, deduped);
    }
}
