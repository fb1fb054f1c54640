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
//! * `E'_s` — new low-arboricity edges, as the out-lists of their peeling
//!   orientation, to be merged into `E_s`;
//! * `Ê_r`  — the remaining edges (`E'_r` plus the bad-bad edges), at most a
//!   quarter of the incoming `E_r`.
//!
//! Every edge set on this path is a sorted list of canonical pairs
//! `(u, v)`, `u < v`; [`arb_list`] is the [`EdgeSet`] adapter over it.
//!
//! The listed instances are streamed into the caller's [`CliqueSink`], each
//! once per run, with no set of emitted cliques. Inside one cluster the
//! in-cluster listing emits each clique once, at its smallest goal edge (see
//! [`sparse_listing`](crate::sparse_listing)). Across clusters an ownership
//! rule applies: cluster `c` lists every clique holding one of its goal
//! edges (the knowledge guarantee of Section 2.4.1), so the replay of a later
//! cluster skips each clique holding a goal edge of `c`, a pair inside `c`
//! found by binary search in `c`'s sorted goal list. Clusters replay in
//! ascending order, so the emission is the first occurrences of all their
//! listings. Different invocations list distinct cliques, because every
//! in-cluster clique holds a goal edge and goal edges leave the graph.
//!
//! The fast-`K_4` light-node listing (Section 3) can find a clique again: its
//! cluster's in-cluster listing or a second light node may list it, and a
//! light clique need not hold a goal edge, so it can survive into later
//! invocations and the final broadcast. Each cluster buffers its light rows
//! apart and replays them after its in-cluster rows, and three rules keep
//! the emission the first occurrences of every listing in the run:
//!
//! * the ownership rule above skips light rows too;
//! * a cluster's light listing skips a clique its own in-cluster listing
//!   emits: one holding a goal edge of the cluster whose six edges are all
//!   known to it, since step 5 lists exactly those;
//! * the run keeps a set of the light cliques forwarded so far
//!   (`LightCliques`): a light row is forwarded only if it is new to the
//!   set, and in-cluster rows and the final broadcast skip its members. On
//!   runs without an outside light node the set stays empty and nothing
//!   looks it up.
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
//! the replay into the real sink (with the ownership rule) is a *consume*
//! step executed **only on the calling thread, in ascending cluster order**.
//! When the fan-out rule
//! ([`fanout`]) of the [`Parallelism`](crate::Parallelism) grant, the
//! cluster count and the host's cores is above one thread, contiguous
//! cluster ranges (size-balanced by goal-edge count through
//! [`balanced_ranges`]) fan out over the same
//! [`ordered_merge`](graphcore::ordered_merge) orchestrator that drives the
//! sharded dense enumeration; the sequential path runs the identical
//! produce/consume code inline, so the emitted clique sequence, the round
//! breakdown and the diagnostics are byte-identical at any thread count.
//! Every cluster's rounds are always accounted — consumption never stops
//! early — while replay into a saturated sink is skipped, matching the sink
//! contract's "saturation skips local enumeration, never communication".

use crate::cluster_knowledge::{gather_knowledge, ClusterKnowledge};
use crate::config::{ListingConfig, Variant};
use crate::result::{phase, Diagnostics, Rounds};
use crate::sink::{CliqueSink, ShardBuffer};
use crate::sparse_listing::{cluster_listing, SparseListingInput};
use expander::{decompose_sorted, Cluster, SortedDecomposition};
use graphcore::ordered_merge::{balanced_ranges, fanout, ordered_merge};
use graphcore::{Edge, EdgeSet, Graph, Orientation};
use std::collections::{BTreeMap, HashSet};

/// Cluster-range tasks planned per granted thread by the cluster fan-out:
/// oversubscription lets fast workers steal the tail instead of idling
/// behind one expensive cluster, while each task stays large enough to
/// amortise its buffer.
const CLUSTER_TASKS_PER_THREAD: usize = 4;

/// The `K_4`s a run's fast-`K_4` light listing forwarded so far (see the
/// module docs). The ids come from the caller's graph, so the set keeps the
/// default hasher.
pub(crate) type LightCliques = HashSet<[u32; 4]>;

/// The [`LightCliques`] key of a `K_4` row. The light listing runs at
/// `p = 4` only, so a non-empty set only ever meets rows of width 4.
pub(crate) fn light_key(clique: &[u32]) -> [u32; 4] {
    clique.try_into().expect("light cliques are K_4s")
}

/// Result of one ARB-LIST invocation (the listed cliques are streamed to the
/// sink, not returned). The pipeline holds its edge sets as sorted lists of
/// canonical pairs; [`arb_list`] returns them as [`EdgeSet`]s.
#[derive(Clone, Debug, Default)]
pub struct ArbListOutcome<Edges = EdgeSet> {
    /// The goal edges `Ê_m` (removed from the graph by the caller).
    pub goal_edges: Edges,
    /// Out-neighbour lists of the peeling orientation of the new `E_s`
    /// edges `E'_s`.
    pub es_out: Vec<Vec<u32>>,
    /// The new remainder `Ê_r`.
    pub er_new: Edges,
    /// Round breakdown of this invocation.
    pub rounds: Rounds,
    /// Diagnostics of this invocation.
    pub diagnostics: Diagnostics,
    /// Threads the cluster fan-out actually ran on, the calling thread
    /// included (1 = the clusters ran inline on the calling thread):
    /// [`fanout`] of the grant and the
    /// cluster tasks, so a large grant over few clusters or few cores is not
    /// misreported as real fan-out.
    pub threads_used: usize,
}

/// Everything one cluster contributes back to its ARB-LIST invocation: the
/// work-item payload of the cluster fan-out. Produced (possibly on a worker
/// thread) without touching any shared mutable state; merged into the
/// [`ArbListOutcome`] and replayed into the sink in ascending cluster order.
struct ClusterYield {
    goal_edges: Vec<(u32, u32)>,
    bad_edges: Vec<(u32, u32)>,
    cluster_edge_count: usize,
    max_learned_words: u64,
    heavy_upload_rounds: u64,
    light_probe_rounds: u64,
    listing_rounds: Rounds,
    light_listing_rounds: u64,
    /// The in-cluster listing's rows.
    emissions: ShardBuffer,
    /// The fast-`K_4` light listing's rows, replayed after `emissions`.
    light_emissions: ShardBuffer,
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

/// Runs one invocation of ARB-LIST, emitting every listed `K_p` into `sink`,
/// each once. `er` and the outcome's edge sets are [`EdgeSet`]s, converted
/// here from and to the sorted lists the pipeline runs on.
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
    let mut er: Vec<(u32, u32)> = er.iter().map(Edge::endpoints).collect();
    er.sort_unstable();
    let s = arb_list_sorted(
        graph,
        orientation,
        &er,
        arboricity_bound,
        delta,
        config,
        seed,
        &mut LightCliques::new(),
        sink,
    );
    let set = |edges: Vec<(u32, u32)>| edges.into_iter().map(Edge::from).collect();
    ArbListOutcome {
        goal_edges: set(s.goal_edges),
        es_out: s.es_out,
        er_new: set(s.er_new),
        rounds: s.rounds,
        diagnostics: s.diagnostics,
        threads_used: s.threads_used,
    }
}

/// [`arb_list`] on sorted lists of canonical pairs: `er` in, and the
/// outcome's goal edges and `Ê_r` out. `light` is the run's set of light
/// cliques forwarded so far; this invocation adds its own.
#[allow(clippy::too_many_arguments)]
pub(crate) fn arb_list_sorted(
    graph: &Graph,
    orientation: &Orientation,
    er: &[(u32, u32)],
    arboricity_bound: usize,
    delta: f64,
    config: &ListingConfig,
    seed: u64,
    light: &mut LightCliques,
    sink: &mut dyn CliqueSink,
) -> ArbListOutcome<Vec<(u32, u32)>> {
    let n = graph.num_vertices();
    let mut outcome = ArbListOutcome {
        es_out: vec![Vec::new(); n],
        ..Default::default()
    };

    // --- Expander decomposition on E_r (Theorem 2.3) -----------------------
    let er_graph = Graph::from_edges(n, er).expect("E_r endpoints are in range");
    let SortedDecomposition {
        cluster_edges,
        er,
        es_orientation,
        clusters,
        cluster_of,
    } = decompose_sorted(&er_graph, delta, &config.decomposition, seed);
    outcome.rounds.add(
        phase::DECOMPOSITION,
        config.charge_policy.decomposition_rounds(n, delta),
    );
    outcome.diagnostics.decompositions = 1;
    outcome.diagnostics.clusters = clusters.len();
    outcome.diagnostics.arb_iterations = 1;

    // E'_s joins E_s; E'_r starts the new remainder.
    for (u, v) in es_orientation.edges() {
        outcome.es_out[u as usize].push(v);
    }
    outcome.er_new = er;

    if clusters.is_empty() {
        return outcome;
    }

    // Cluster-membership broadcast: one round, all clusters in parallel.
    outcome.rounds.add(phase::MEMBERSHIP, 1);

    let em_edges: Vec<(u32, u32)> = cluster_edges.concat();
    let em_graph = Graph::from_edges(n, &em_edges).expect("E_m endpoints are in range");
    let heavy_threshold = heavy_threshold(config, n, arboricity_bound);

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
        let cluster_em = &cluster_edges[index];
        let knowledge = gather_knowledge(
            graph,
            orientation,
            cluster,
            &cluster_of,
            cluster_em.iter().map(|&e| Edge::from(e)),
            heavy_threshold,
            config,
        );
        let gated = |width| GatedBuffer {
            buffer: ShardBuffer::new(index, width),
            stop: &stop_listing,
        };
        let mut emissions = gated(config.p);

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
        let mut light_emissions = gated(4);
        let light_listing_rounds = if config.variant == Variant::FastK4 && config.p == 4 {
            light_node_listing(
                graph,
                cluster,
                &cluster_of,
                heavy_threshold,
                |clique| listed_in_cluster(&knowledge, clique),
                &mut light_emissions,
            )
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
            light_emissions: light_emissions.buffer,
        }
    };

    // Per-phase maxima across clusters (clusters operate in parallel on
    // disjoint edge sets; the light listing of the fast K4 variant is the one
    // sequential exception).
    let mut max_heavy = 0u64;
    let mut max_probe = 0u64;
    let mut sequential_light_listing = 0u64;
    let mut per_cluster_rounds: Vec<Rounds> = Vec::new();
    // The sorted goal lists of the clusters consumed so far, by cluster id.
    let mut goals: Vec<Vec<(u32, u32)>> = Vec::with_capacity(clusters.len());

    // --- Consume: merge one cluster's yield, ascending cluster order -------
    // Runs only on the calling thread. Rounds and diagnostics are always
    // merged (communication happens regardless of how much output the client
    // consumes); only the emission replay honours saturation. The replay
    // skips the cliques an earlier cluster owns and the light cliques the run
    // already forwarded (see the module docs).
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
        outcome.er_new.extend_from_slice(&y.bad_edges);

        per_cluster_rounds.push(y.listing_rounds);
        sequential_light_listing += y.light_listing_rounds;

        // An earlier cluster `c` owns the cliques holding one of its goal
        // edges: a pair inside `c` found in `c`'s sorted goal list. Cluster 0
        // has no earlier cluster.
        let index = goals.len();
        let owned_earlier = |clique: &[u32]| {
            clique
                .iter()
                .enumerate()
                .any(|(i, &a)| match cluster_of[a as usize] {
                    Some(c) if c < index => clique[i + 1..].iter().any(|&b| {
                        cluster_of[b as usize] == Some(c) && goals[c].binary_search(&(a, b)).is_ok()
                    }),
                    _ => false,
                })
        };
        if !sink.is_saturated()
            && y.emissions.replay_unless(sink, |clique| {
                (index > 0 && owned_earlier(clique))
                    || (!light.is_empty() && light.contains(&light_key(clique)))
            })
        {
            y.light_emissions.replay_unless(sink, |clique| {
                (index > 0 && owned_earlier(clique)) || !light.insert(light_key(clique))
            });
        }
        if sink.is_saturated() {
            stop_listing.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        goals.push(y.goal_edges);
    };

    // --- Execute: fan the cluster tasks out, or run them inline ------------
    // Under a thread grant, clusters are grouped into contiguous,
    // goal-edge-balanced ranges and driven through the shared ordered-merge
    // orchestrator; consumption is strictly ascending and never stops early
    // (every cluster's rounds count), so the merged outcome is byte-identical
    // to the inline loop at any thread count. `threads_used` records the
    // fan-out the merge actually ran on (1 = the inline loop ran).
    let threads = config.effective_threads(true);
    let threads_used = if fanout(threads, clusters.len()) > 1 {
        // A cluster's listing work scales with its goal-edge count.
        let weights: Vec<u64> = cluster_edges.iter().map(|em| 1 + em.len() as u64).collect();
        let tasks = balanced_ranges(&weights, threads.saturating_mul(CLUSTER_TASKS_PER_THREAD));
        ordered_merge(
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
        fanout(threads, tasks.len())
    } else {
        for index in 0..clusters.len() {
            consume(run_cluster(index));
        }
        1
    };
    outcome.threads_used = threads_used;
    outcome.goal_edges = goals.concat();
    outcome.goal_edges.sort_unstable();
    outcome.er_new.sort_unstable();

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

/// The number of cluster neighbours above which an outside node is heavy.
fn heavy_threshold(config: &ListingConfig, n: usize, arboricity_bound: usize) -> f64 {
    match config.variant {
        Variant::General => config.heavy_threshold(n),
        // Section 3: heavy means at least n^{d-1/3} cluster neighbours.
        Variant::FastK4 => (arboricity_bound as f64 / (n.max(2) as f64).powf(1.0 / 3.0)).max(1.0),
    }
}

/// Whether a cluster's in-cluster listing emits `clique`: step 5 lists
/// exactly the `K_p`s of the known graph that hold a goal edge.
fn listed_in_cluster(knowledge: &ClusterKnowledge, clique: &[u32; 4]) -> bool {
    let known = |(a, b)| {
        let edges = &knowledge.known_edges;
        edges.binary_search(&(a, b)).is_ok() || edges.binary_search(&(b, a)).is_ok()
    };
    let pairs = || (0..4).flat_map(|i| (i + 1..4).map(move |j| (clique[i], clique[j])));
    pairs().any(|e| knowledge.goal_edges.binary_search(&e).is_ok()) && pairs().all(known)
}

/// The light-node listing of Section 3: every `C`-light node asks all its
/// neighbours about each of its cluster neighbours and lists the `K_4`
/// instances it sees, emitting into `sink` those `skip` does not hold.
/// Returns the rounds used (for this cluster).
///
/// Outside nodes are visited in ascending identifier order so the emission
/// order is deterministic; `cluster_of` is the decomposition's membership
/// table.
fn light_node_listing(
    graph: &Graph,
    cluster: &Cluster,
    cluster_of: &[Option<usize>],
    heavy_threshold: f64,
    skip: impl Fn(&[u32; 4]) -> bool,
    sink: &mut dyn CliqueSink,
) -> u64 {
    let mut max_rounds = 0u64;
    // Identify the C-light outside neighbours and their cluster neighbours.
    let mut outside: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &u in &cluster.vertices {
        for &v in graph.neighbors(u) {
            if cluster_of[v as usize] != Some(cluster.id) {
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
                    // Four distinct vertices: y is a neighbour of v, u and w.
                    let mut clique = [v, u, w, y];
                    clique.sort_unstable();
                    if !skip(&clique) {
                        sink.accept(&clique);
                    }
                }
            }
        }
    }
    max_rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster_knowledge::gather_cluster_knowledge;
    use crate::sink::{CountSink, FirstK};
    use crate::Parallelism;
    use expander::decompose;
    use graphcore::{cliques::EdgeCliqueEnumerator, gen, Clique};
    use std::collections::HashSet;

    /// The new `E_s` edges of an invocation, read off its out-lists.
    fn es_added(out: &ArbListOutcome) -> EdgeSet {
        let es = out.es_out.iter().enumerate();
        es.flat_map(|(u, vs)| vs.iter().map(move |&v| Edge::new(u as u32, v)))
            .collect()
    }

    fn run_arb(graph: &Graph, p: usize, variant: Variant) -> (ArbListOutcome, HashSet<Clique>) {
        let (outcome, trace) = run_arb_traced(graph, p, variant);
        (outcome, trace.into_iter().collect())
    }

    /// [`run_arb`] keeping the raw accept sequence, repeats included.
    fn run_arb_traced(graph: &Graph, p: usize, variant: Variant) -> (ArbListOutcome, Vec<Clique>) {
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
        let mut sink = TraceSink::default();
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
        (outcome, sink.accepts)
    }

    #[test]
    fn er_shrinks_and_partition_is_consistent() {
        let g = gen::erdos_renyi(150, 0.3, 3);
        let (out, _) = run_arb(&g, 4, Variant::General);
        let es = es_added(&out);
        let total = out.goal_edges.len() + es.len() + out.er_new.len();
        assert_eq!(total, g.num_edges(), "ARB-LIST must partition the edges");
        assert!(out.goal_edges.is_disjoint(&es));
        assert!(out.goal_edges.is_disjoint(&out.er_new));
        assert!(es.is_disjoint(&out.er_new));
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
        assert_eq!(es_added(&out).len(), g.num_edges());
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
        // Raw CountSink totals must match the distinct set even where a
        // clique holds goal edges of two clusters (the ownership rule emits
        // it only from the first of them) or where the fast-K4 light listing
        // finds it again (the light rules skip the repeat; the three blocks
        // with K_{3,3} bridges have light outside nodes).
        for g in [
            gen::erdos_renyi(100, 0.35, 19),
            three_blocks(&dense_bridges(3)),
        ] {
            let (orientation, a, delta) = invocation_inputs(&g);
            let er = g.edge_set();
            for variant in [Variant::General, Variant::FastK4] {
                let config = ListingConfig {
                    variant,
                    ..ListingConfig::for_p(4)
                };
                let mut count = CountSink::new();
                arb_list(&g, &orientation, &er, a, delta, &config, 7, &mut count);
                let (_, listed) = run_arb(&g, 4, variant);
                assert_eq!(count.count as usize, listed.len(), "{variant:?}");
            }
        }
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

    /// Every cluster's in-cluster listing and light listing with no rule
    /// applied, clusters ascending.
    fn raw_listings(
        graph: &Graph,
        orientation: &Orientation,
        er: &[(u32, u32)],
        arboricity_bound: usize,
        delta: f64,
        config: &ListingConfig,
        seed: u64,
    ) -> Vec<(Vec<Clique>, Vec<Clique>)> {
        let n = graph.num_vertices();
        let er_graph = Graph::from_edges(n, er).unwrap();
        let d = decompose_sorted(&er_graph, delta, &config.decomposition, seed);
        let em_graph = Graph::from_edges(n, &d.cluster_edges.concat()).unwrap();
        let threshold = heavy_threshold(config, n, arboricity_bound);
        let listings = d.clusters.iter().zip(&d.cluster_edges);
        listings
            .map(|(cluster, em)| {
                let em = em.iter().map(|&e| Edge::from(e));
                let k =
                    gather_cluster_knowledge(graph, orientation, cluster, em, threshold, config);
                let input = SparseListingInput {
                    cluster,
                    em_graph: &em_graph,
                    known_edges: &k.known_edges,
                    goal_edges: &k.goal_edges,
                    learned_words: &k.learned_words,
                    n,
                    arboricity_bound,
                };
                let (mut in_cluster, mut light) = (TraceSink::default(), TraceSink::default());
                cluster_listing(&input, config, seed ^ cluster.id as u64, &mut in_cluster);
                light_node_listing(
                    graph,
                    cluster,
                    &d.cluster_of,
                    threshold,
                    |_| false,
                    &mut light,
                );
                (in_cluster.accepts, light.accepts)
            })
            .collect()
    }

    /// Raw listings concatenated: the sequence whose first occurrences an
    /// invocation emits.
    fn rows(listings: &[(Vec<Clique>, Vec<Clique>)]) -> Vec<Clique> {
        listings
            .iter()
            .flat_map(|(a, b)| a.iter().chain(b))
            .cloned()
            .collect()
    }

    /// The first occurrence of each clique, in order.
    fn first_occurrences(rows: &[Clique]) -> Vec<Clique> {
        let mut seen = HashSet::new();
        rows.iter().filter(|c| seen.insert(*c)).cloned().collect()
    }

    #[test]
    fn light_repeats_are_skipped_by_rule_not_by_order() {
        // With K_{3,3} bridges the three blocks' clusters have light outside
        // nodes, and their light listings find cliques again: some that the
        // cluster's in-cluster listing emits, and some that two light nodes
        // see. The emission skips those repeats by rule, with no set of
        // emitted cliques, and the rules change multiplicities only: the
        // emission is the first occurrences of every cluster's in-cluster
        // and light listings, clusters ascending. With the flat dense-id
        // tables it is also identical from run to run.
        let g = three_blocks(&dense_bridges(3));
        let (orientation, a, delta) = invocation_inputs(&g);
        let er: Vec<(u32, u32)> = g.edges().collect();
        let config = ListingConfig::fast_k4();
        let run = || {
            let mut trace = TraceSink::default();
            let er = er.iter().map(|&e| Edge::from(e)).collect();
            arb_list(&g, &orientation, &er, a, delta, &config, 7, &mut trace);
            trace.accepts
        };
        let first = run();
        assert_eq!(first, run(), "the emission order must be deterministic");

        let listings = raw_listings(&g, &orientation, &er, a, delta, &config, 7);
        assert!(
            listings
                .iter()
                .any(|(in_cluster, light)| light.iter().any(|c| in_cluster.contains(c))),
            "no light clique is listed in-cluster"
        );
        assert!(
            listings
                .iter()
                .any(|(_, light)| first_occurrences(light).len() < light.len()),
            "no light clique is seen by two light nodes"
        );
        assert_eq!(first, first_occurrences(&rows(&listings)));
    }

    #[test]
    fn a_light_row_holding_an_earlier_goal_edge_is_owned_by_it() {
        // Vertices 0 and 1 of block 0 are adjacent to 40..45 of block 1, so
        // they are heavy for block 1's cluster, which learns their edges and
        // lists the cliques through both blocks in-cluster at block 1's goal
        // edges. Vertices 40..45 see only 0 and 1 of block 0, so they are
        // light for its cluster, which the decomposition numbers after block
        // 1's, and list the same cliques again as its light rows; the
        // ownership rule skips those.
        let bridges: Vec<(u32, u32)> = (40..45).flat_map(|b| [(0, b), (1, b)]).collect();
        let g = three_blocks(&bridges);
        let (orientation, a, delta) = invocation_inputs(&g);
        let er: Vec<(u32, u32)> = g.edges().collect();
        let config = ListingConfig::fast_k4();
        let listings = raw_listings(&g, &orientation, &er, a, delta, &config, 7);
        let owned = |c: usize, row: &Clique| {
            listings[..c]
                .iter()
                .any(|(in_cluster, _)| in_cluster.contains(row))
        };
        assert!(
            listings
                .iter()
                .enumerate()
                .any(|(c, (_, light))| light.iter().any(|row| owned(c, row))),
            "no light row repeats an earlier cluster's in-cluster row"
        );
        let mut trace = TraceSink::default();
        let er_set = er.iter().map(|&e| Edge::from(e)).collect();
        arb_list(&g, &orientation, &er_set, a, delta, &config, 7, &mut trace);
        assert_eq!(trace.accepts, first_occurrences(&rows(&listings)));
    }

    #[test]
    fn the_fast_k4_variant_at_p5_lists_only_k5s() {
        // `ListingConfig::validate` rejects the pair; unvalidated, the
        // public `arb_list` runs no light listing, whose K_4 rows would
        // misalign a buffer of width 5.
        let g = gen::rmat(8, 16, (0.57, 0.19, 0.19, 0.05), 3);
        let (orientation, a, delta) = invocation_inputs(&g);
        let config = ListingConfig {
            variant: Variant::FastK4,
            ..ListingConfig::for_p(5)
        };
        assert!(config.validate().is_err());
        let mut trace = TraceSink::default();
        let out = arb_list(
            &g,
            &orientation,
            &g.edge_set(),
            a,
            delta,
            &config,
            7,
            &mut trace,
        );
        assert!(out.diagnostics.clusters > 0);
        assert!(!trace.accepts.is_empty());
        for clique in &trace.accepts {
            assert_eq!(clique.len(), 5);
            assert!(graphcore::cliques::is_clique(&g, clique), "{clique:?}");
        }
        assert_eq!(out.rounds.for_phase(phase::LIGHT_LISTING), 0);
    }

    /// Asserts that `rows` lists every `K_4` of `graph` once.
    fn assert_lists_each_once(graph: &Graph, rows: &[Clique]) {
        let distinct: HashSet<&Clique> = rows.iter().collect();
        assert_eq!(distinct.len(), rows.len(), "a clique was emitted twice");
        let all = graphcore::cliques::list_cliques(graph, 4);
        assert_eq!(
            distinct,
            all.iter().collect(),
            "the listing is not complete"
        );
    }

    /// `graph` without `removed`.
    fn without(graph: &Graph, removed: &[(u32, u32)]) -> Graph {
        graph.without_edges_of(&Graph::from_edges(graph.num_vertices(), removed).unwrap())
    }

    /// The final broadcast's rows on `graph` with no light clique skipped.
    fn final_rows(graph: &Graph, config: &ListingConfig) -> Vec<Clique> {
        let mut rows = TraceSink::default();
        crate::list::list_remaining(graph, config, &LightCliques::new(), &mut rows);
        rows.accepts
    }

    /// The edges of er(40, 0.5) with the given seed, shifted by `offset`.
    fn block(seed: u64, offset: u32) -> Vec<(u32, u32)> {
        let g = gen::erdos_renyi(40, 0.5, seed);
        g.edges().map(|(u, v)| (u + offset, v + offset)).collect()
    }

    /// The `K_4` of `a`, `b` and two outside nodes `x`, `y` adjacent to each
    /// other and to both of them, and its five edges besides `{a, b}`.
    fn light_pair(a: u32, b: u32, x: u32, y: u32) -> (Clique, [(u32, u32); 5]) {
        (vec![a, b, x, y], [(a, x), (b, x), (a, y), (b, y), (x, y)])
    }

    #[test]
    fn a_clique_two_light_nodes_see_is_emitted_once() {
        // One dense block; x = 40 and y = 41 are adjacent to each other and
        // to both ends of the block's edge {a, b} only. Both are light, so
        // the cluster does not know {x, y}: its in-cluster listing misses
        // {a, b, x, y}, both light nodes list it, and the run's light-clique
        // set forwards it once.
        let mut edges = block(1, 0);
        let (a, b) = edges[0];
        let (clique, extra) = light_pair(a, b, 40, 41);
        edges.extend(extra);
        let g = Graph::from_edges(42, &edges).unwrap();
        let (orientation, bound, delta) = invocation_inputs(&g);
        let er: Vec<(u32, u32)> = g.edges().collect();
        let config = ListingConfig::fast_k4();

        let d = decompose_sorted(&g, delta, &config.decomposition, 7);
        let c = d.cluster_of[a as usize].expect("a lies in a cluster");
        assert_eq!(d.cluster_of[b as usize], Some(c));
        assert!(d.cluster_edges[c].binary_search(&(a, b)).is_ok());
        assert_eq!((d.cluster_of[40], d.cluster_of[41]), (None, None));
        let raw = rows(&raw_listings(
            &g,
            &orientation,
            &er,
            bound,
            delta,
            &config,
            7,
        ));
        assert_eq!(raw.iter().filter(|&r| *r == clique).count(), 2);

        let mut light = LightCliques::new();
        let mut trace = TraceSink::default();
        let out = arb_list_sorted(
            &g,
            &orientation,
            &er,
            bound,
            delta,
            &config,
            7,
            &mut light,
            &mut trace,
        );
        assert!(light.contains(&light_key(&clique)), "the set was not hit");
        assert_eq!(trace.accepts, first_occurrences(&raw));
        let rest = without(&g, &out.goal_edges);
        crate::list::list_remaining(&rest, &config, &light, &mut trace);
        assert_lists_each_once(&g, &trace.accepts);
    }

    #[test]
    fn a_light_clique_without_a_goal_edge_is_not_listed_again() {
        // Two dense blocks, P on 0..40 and Q on 38..78, share a = 38 and
        // b = 39; x = 78 and y = 79 are adjacent to each other and to a and
        // b. The first invocation's E_r is P without {a, b}, so {a, b} and Q
        // lie in E_s: P's cluster holds a and b, every vertex of Q or
        // {x, y} adjacent to both is a light outside node, and the light
        // cliques {a, b, ·, ·} they see hold no goal edge. They survive the
        // invocation, so the final broadcast (a), or a second invocation
        // whose Q cluster lists them in-cluster (b), finds them again.
        let (a, b) = (38, 39);
        let mut edges = block(1, 0);
        let er: Vec<(u32, u32)> = edges.iter().copied().filter(|&e| e != (a, b)).collect();
        edges.extend(block(2, 38));
        let (clique, extra) = light_pair(a, b, 78, 79);
        edges.extend(extra);
        edges.push((a, b));
        let g = Graph::from_edges(80, &edges).unwrap();
        let (orientation, bound, delta) = invocation_inputs(&g);
        let config = ListingConfig::fast_k4();

        let raw = rows(&raw_listings(
            &g,
            &orientation,
            &er,
            bound,
            delta,
            &config,
            7,
        ));
        let mut light = LightCliques::new();
        let mut trace = TraceSink::default();
        let out = arb_list_sorted(
            &g,
            &orientation,
            &er,
            bound,
            delta,
            &config,
            7,
            &mut light,
            &mut trace,
        );
        assert_eq!(trace.accepts, first_occurrences(&raw));
        assert!(light.contains(&light_key(&clique)));
        assert!(out.goal_edges.binary_search(&(a, b)).is_err());
        let rest = without(&g, &out.goal_edges);

        // (a) The final broadcast right away.
        let rest_rows = final_rows(&rest, &config);
        assert!(
            rest_rows.iter().any(|c| light.contains(&light_key(c))),
            "the set was not hit"
        );
        let mut then_final = TraceSink {
            accepts: trace.accepts.clone(),
        };
        crate::list::list_remaining(&rest, &config, &light, &mut then_final);
        assert_eq!(
            then_final.accepts,
            first_occurrences(&[raw.clone(), rest_rows].concat())
        );
        assert_lists_each_once(&g, &then_final.accepts);

        // (b) A second invocation on all of what is left, then the final
        // broadcast. A light clique of the first whose four vertices lie in
        // one cluster of the second is an in-cluster row there.
        let (orientation, bound, delta) = invocation_inputs(&rest);
        let er: Vec<(u32, u32)> = rest.edges().collect();
        let raw_again = rows(&raw_listings(
            &rest,
            &orientation,
            &er,
            bound,
            delta,
            &config,
            8,
        ));
        let d = decompose_sorted(&rest, delta, &config.decomposition, 8);
        let in_one_cluster = |c: &Clique| {
            d.cluster_of[c[0] as usize]
                .is_some_and(|k| c.iter().all(|&v| d.cluster_of[v as usize] == Some(k)))
        };
        assert!(
            raw_again
                .iter()
                .any(|c| light.contains(&light_key(c)) && in_one_cluster(c)),
            "the set was not hit"
        );
        let out = arb_list_sorted(
            &rest,
            &orientation,
            &er,
            bound,
            delta,
            &config,
            8,
            &mut light,
            &mut trace,
        );
        let last = without(&rest, &out.goal_edges);
        let last_rows = final_rows(&last, &config);
        crate::list::list_remaining(&last, &config, &light, &mut trace);
        assert_eq!(
            trace.accepts,
            first_occurrences(&[raw, raw_again, last_rows].concat())
        );
        assert_lists_each_once(&g, &trace.accepts);
    }

    /// Three dense blocks, each an er(40, 0.5), joined in a path by one edge
    /// each, plus a sparse tail that peels into E_s; `bridges` more edges
    /// are added.
    fn three_blocks(bridges: &[(u32, u32)]) -> Graph {
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (block, seed) in [(0u32, 1u64), (1, 2), (2, 3)] {
            let offset = 40 * block;
            edges.extend(
                gen::erdos_renyi(40, 0.5, seed)
                    .edges()
                    .map(|(u, v)| (u + offset, v + offset)),
            );
        }
        edges.extend([(0, 40), (41, 80)]);
        edges.extend((120..139).map(|v| (v, v + 1)));
        edges.extend_from_slice(bridges);
        Graph::from_edges(140, &edges).unwrap()
    }

    #[test]
    fn the_one_pass_split_equals_edges_within_for_every_cluster() {
        // The decomposition splits E_m by cluster as it accepts each one;
        // the split equals `edges_within` of the set form.
        let g = three_blocks(&[]);
        let config = ListingConfig::for_p(4).decomposition;
        let sorted = decompose_sorted(&g, 0.5, &config, 7);
        let decomposition = decompose(&g, 0.5, &config, 7);
        assert!(decomposition.clusters.len() >= 3);
        let em_edges = sorted.cluster_edges.concat();
        assert_eq!(
            Graph::from_edges(140, &em_edges).unwrap(),
            decomposition.em_graph(140)
        );
        assert_eq!(sorted.cluster_edges.len(), decomposition.clusters.len());
        for (cluster, em) in decomposition.clusters.iter().zip(&sorted.cluster_edges) {
            assert!(em.windows(2).all(|w| w[0] < w[1]), "not sorted");
            let set: EdgeSet = em.iter().map(|&e| Edge::from(e)).collect();
            assert_eq!(set, cluster.edges_within(&decomposition.em));
        }
    }

    /// Complete bipartite bridges between the first `size` vertices of
    /// blocks 0 and 1 and of blocks 1 and 2 of [`three_blocks`].
    fn dense_bridges(size: u32) -> Vec<(u32, u32)> {
        let mut bridges = Vec::new();
        for (from, to) in [(0u32, 40u32), (40, 80)] {
            for a in from..from + size {
                bridges.extend((to..to + size).map(|b| (a, b)));
            }
        }
        bridges
    }

    /// The orientation, arboricity bound and δ of an invocation whose `E_r`
    /// is all of `graph`.
    fn invocation_inputs(graph: &Graph) -> (Orientation, usize, f64) {
        let orientation = Orientation::from_degeneracy(graph);
        let a = orientation.max_out_degree().max(1);
        let n = graph.num_vertices() as f64;
        let delta = ((a as f64 / (2.0 * n.log2())).max(n.powf(0.5))).ln() / n.ln();
        (orientation, a, delta.clamp(0.05, 0.95))
    }

    /// Cliques that hold goal edges of two clusters: the three blocks, with
    /// `K_{4,4}` bridges between blocks 0 and 1 and between blocks 1 and 2,
    /// still split into three clusters, and a `K_4` with an edge inside each
    /// end of a bridge holds goal edges of both ends. Each cluster lists
    /// every clique through each of its goal edges (the knowledge guarantee
    /// of Section 2.4.1), in sorted goal-edge order and ascending canonical
    /// order within an edge, so the raw trace must be the first occurrences
    /// of those listings concatenated in ascending cluster order, computed
    /// here from the graph and the goal edges alone. It must not depend on
    /// the sink's prefix or the thread grant.
    #[test]
    fn cliques_of_two_clusters_are_emitted_once_by_the_first() {
        let g = three_blocks(&dense_bridges(4));
        let (orientation, a, delta) = invocation_inputs(&g);
        let er = g.edge_set();
        let config = ListingConfig::for_p(4);
        let run = |config: &ListingConfig, sink: &mut dyn CliqueSink| {
            arb_list(&g, &orientation, &er, a, delta, config, 7, sink)
        };
        let mut raw = TraceSink::default();
        let out = run(&config, &mut raw);
        assert_eq!(out.diagnostics.clusters, 3);

        // Each cluster's goal edges, by the decomposition arb_list ran.
        let d = decompose_sorted(&g, delta, &config.decomposition, 7);
        let mut goals: Vec<Vec<(u32, u32)>> = vec![Vec::new(); d.clusters.len()];
        for e in out.goal_edges.to_sorted_vec() {
            let cluster = d.cluster_of[e.u() as usize].expect("a goal edge lies in a cluster");
            goals[cluster].push(e.endpoints());
        }
        let mut enumerator = EdgeCliqueEnumerator::new(&g, 4);
        let mut seen = HashSet::new();
        let (mut oracle, mut owned_earlier) = (Vec::new(), 0);
        for cluster_goals in &goals {
            let mut listing: Vec<Clique> = Vec::new();
            let mut listed = HashSet::new();
            for &(u, v) in cluster_goals {
                enumerator.for_each_containing_edge_while(u, v, g.neighbors(u), |c| {
                    if listed.insert(c.to_vec()) {
                        listing.push(c.to_vec());
                    }
                    true
                });
            }
            for clique in listing {
                if seen.insert(clique.clone()) {
                    oracle.push(clique);
                } else {
                    owned_earlier += 1;
                }
            }
        }
        assert!(
            owned_earlier > 0,
            "no clique holds goal edges of two clusters"
        );
        assert_eq!(raw.accepts, oracle);

        for k in [1, 17, 1000] {
            let mut first = FirstK::new(k);
            run(&config, &mut first);
            assert_eq!(first.cliques, oracle[..k.min(oracle.len())], "k={k}");
        }
        for grant in [
            Parallelism::Off,
            Parallelism::Threads(1),
            Parallelism::Threads(2),
            Parallelism::Threads(3),
            Parallelism::Threads(8),
        ] {
            let granted = ListingConfig {
                parallelism: grant,
                ..config
            };
            let mut trace = TraceSink::default();
            let again = run(&granted, &mut trace);
            assert_eq!(trace.accepts, oracle, "{grant:?}");
            assert_eq!(again.goal_edges, out.goal_edges, "{grant:?}");
            assert_eq!(again.er_new, out.er_new, "{grant:?}");
            assert_eq!(again.rounds, out.rounds, "{grant:?}");
        }
    }

    #[test]
    fn one_cluster_lists_each_clique_once_without_a_dedup() {
        // A tripartite background is K4-free; two in-part edges add K4s that
        // hold several goal edges each. The decomposition keeps the whole
        // graph as one cluster, so there is no outside node and no light
        // listing, and the fast-K4 variant runs without an inner Dedup: a
        // clique found at two of its goal edges would reach the sink twice.
        let mut edges: Vec<(u32, u32)> = gen::multipartite(60, 3, 0.8, 5).edges().collect();
        edges.extend([(0, 3), (1, 4)]);
        let g = Graph::from_edges(60, &edges).unwrap();
        let (out, raw) = run_arb_traced(&g, 4, Variant::FastK4);
        assert_eq!(out.diagnostics.clusters, 1);
        assert_eq!(out.diagnostics.cluster_edges, g.num_edges());
        let distinct: HashSet<&Clique> = raw.iter().collect();
        assert!(!distinct.is_empty());
        assert_eq!(raw.len(), distinct.len(), "a clique was emitted twice");
    }
}
