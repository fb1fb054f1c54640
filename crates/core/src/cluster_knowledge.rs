//! Bringing the relevant outside edges into a cluster (Section 2.4.1).
//!
//! For a cluster `C` produced by the expander decomposition, the listing step
//! must know every edge that can participate in a `K_p` together with a goal
//! edge of `C` (Challenge 1 of the paper). This module implements the
//! heavy/light machinery:
//!
//! * outside neighbours with many cluster neighbours (**heavy**) upload their
//!   outgoing edges into the cluster, split across their cluster neighbours;
//! * cluster nodes with too many light neighbours are **bad**; cluster edges
//!   between two bad nodes stop being goal edges and are deferred to `Ê_r`;
//! * the remaining (**good**) cluster nodes probe each of their outside
//!   neighbours with their list of light neighbours and learn which of those
//!   pairs are edges (and their orientation).
//!
//! The function returns the cluster's pooled knowledge together with the exact
//! per-node communication loads, from which the caller charges rounds.
//!
//! All bookkeeping is flat and order-structural: cluster membership is read
//! from a dense table of each vertex's cluster, outside neighbours are
//! classified from a sorted run-length scan, heavy/light/bad memberships are
//! sorted vectors probed by binary search, per-node loads live in a
//! rank-keyed [`DenseTable`], and the pooled edge list is sorted + deduped
//! once at the end. No `HashMap`/`HashSet` survives on this path, so both the
//! values *and every intermediate iteration order* are deterministic — the
//! property the cluster-parallel fan-out of `arb_list` relies on.

use crate::config::{ListingConfig, Variant};
use expander::{Cluster, DenseTable};
use graphcore::{Edge, Graph, Orientation};

/// Pooled knowledge of one cluster after the edge-learning phase.
#[derive(Clone, Debug, Default)]
pub struct ClusterKnowledge {
    /// All edges known to some node of the cluster, as oriented pairs
    /// `(source, target)` (oriented according to the global orientation of
    /// the current graph), deduplicated and sorted.
    pub known_edges: Vec<(u32, u32)>,
    /// Goal edges: the cluster's `E'_m` edges minus the bad-bad edges, as
    /// sorted canonical pairs.
    pub goal_edges: Vec<(u32, u32)>,
    /// Bad-bad edges, to be moved to `Ê_r`, as sorted canonical pairs.
    pub bad_edges: Vec<(u32, u32)>,
    /// Per-cluster-node words learned from outside the cluster (heavy uploads
    /// plus probe replies), keyed by the node's **dense rank** of Lemma 2.5
    /// (its position in the sorted cluster vertex list). Remark 2.10 bounds
    /// the maximum.
    pub learned_words: DenseTable,
    /// Rounds needed by the heavy-upload phase for this cluster
    /// (`max_v ceil(words(v) / g_{v,C})`).
    pub heavy_upload_rounds: u64,
    /// Rounds needed by the light-probe phase for this cluster
    /// (`2 · max_u u_light` over good nodes `u`).
    pub light_probe_rounds: u64,
    /// Number of outside neighbours classified heavy.
    pub heavy_count: usize,
    /// Number of outside neighbours classified light.
    pub light_count: usize,
    /// Number of bad cluster nodes.
    pub bad_node_count: usize,
}

impl ClusterKnowledge {
    /// Maximum number of outside words learned by a single cluster node.
    pub fn max_learned_words(&self) -> u64 {
        self.learned_words.max()
    }
}

/// Runs the edge-learning phase for one cluster.
///
/// * `graph` and `orientation` describe the **current** graph of the enclosing
///   LIST invocation (communication still happens along its edges, which are a
///   subgraph of the input graph).
/// * `cluster_em` yields the `E'_m` edges of this cluster, in any order.
/// * `heavy_threshold` is the number of cluster neighbours above which an
///   outside node is heavy (`n^{1/4}` in the general algorithm,
///   `n^{d−1/3}` in the fast `K_4` variant).
pub fn gather_cluster_knowledge(
    graph: &Graph,
    orientation: &Orientation,
    cluster: &Cluster,
    cluster_em: impl IntoIterator<Item = Edge>,
    heavy_threshold: f64,
    config: &ListingConfig,
) -> ClusterKnowledge {
    let mut cluster_of = vec![None; graph.num_vertices()];
    for &v in &cluster.vertices {
        cluster_of[v as usize] = Some(cluster.id);
    }
    gather_knowledge(
        graph,
        orientation,
        cluster,
        &cluster_of,
        cluster_em,
        heavy_threshold,
        config,
    )
}

/// [`gather_cluster_knowledge`] reading cluster membership from
/// `cluster_of`, the decomposition's table of each vertex's cluster.
pub(crate) fn gather_knowledge(
    graph: &Graph,
    orientation: &Orientation,
    cluster: &Cluster,
    cluster_of: &[Option<usize>],
    cluster_em: impl IntoIterator<Item = Edge>,
    heavy_threshold: f64,
    config: &ListingConfig,
) -> ClusterKnowledge {
    let n = graph.num_vertices();
    let inside = |v: u32| cluster_of[v as usize] == Some(cluster.id);
    let words = config.words_per_edge;
    let mut knowledge = ClusterKnowledge {
        learned_words: DenseTable::new(cluster.len()),
        ..ClusterKnowledge::default()
    };
    // Collected with duplicates (heavy uploads re-record edges a cluster
    // node already knows) and sorted + deduplicated once in `finalize` — a
    // flat replacement for the old `HashSet` pool with a structural final
    // order.
    let mut known: Vec<(u32, u32)> = Vec::new();

    // Every edge incident to a cluster node (in the current graph) is known to
    // that node; record it oriented by the global orientation, once: an edge
    // between two cluster nodes from its smaller endpoint. `N(u)` and
    // `out(u)` are both sorted, so one merge finds the edges leaving `u`;
    // only the others probe `out(v)`. The same scan collects every outside
    // endpoint, to classify outside neighbours as heavy or light.
    let mut outside: Vec<u32> = Vec::new();
    for &u in &cluster.vertices {
        let out_u = orientation.out_neighbors(u);
        let mut at = 0;
        for &v in graph.neighbors(u) {
            if !inside(v) {
                outside.push(v);
            } else if v < u {
                continue;
            }
            while out_u.get(at).is_some_and(|&w| w < v) {
                at += 1;
            }
            known.push(if out_u.get(at) == Some(&v) {
                (u, v)
            } else {
                oriented(orientation, v, u)
            });
        }
    }

    // The run length of an outside endpoint *is* its number of cluster
    // neighbours. Both lists come out sorted by identifier.
    outside.sort_unstable();
    // Heavy neighbours keep their cluster degree (needed for the upload
    // schedule); light neighbours only need membership.
    let mut heavy: Vec<(u32, u32)> = Vec::new();
    let mut light: Vec<u32> = Vec::new();
    for run in outside.chunk_by(|a, b| a == b) {
        let degree = run.len() as u32;
        if f64::from(degree) > heavy_threshold {
            heavy.push((run[0], degree));
        } else {
            light.push(run[0]);
        }
    }
    knowledge.heavy_count = heavy.len();
    knowledge.light_count = light.len();

    // Heavy upload: each heavy node splits its outgoing edges across its
    // cluster neighbours (round-robin), which determines both who learns what
    // and the per-edge word count (and hence the phase's round cost). Heavy
    // nodes are visited in ascending identifier order.
    let mut heavy_rounds = 0u64;
    let mut receivers: Vec<u32> = Vec::new();
    for &(v, degree) in &heavy {
        let out = orientation.out_neighbors(v);
        if out.is_empty() {
            continue;
        }
        let g = u64::from(degree).max(1);
        let upload_words = words * out.len() as u64;
        heavy_rounds = heavy_rounds.max(upload_words.div_ceil(g));
        // Receivers: the cluster neighbours of v, in identifier order.
        receivers.clear();
        receivers.extend(graph.neighbors(v).iter().copied().filter(|&u| inside(u)));
        for (i, &w) in out.iter().enumerate() {
            known.push((v, w));
            let receiver = receivers[i % receivers.len()];
            let rank = cluster_rank(cluster, receiver);
            knowledge.learned_words.add(rank, words);
        }
    }
    knowledge.heavy_upload_rounds = heavy_rounds;

    let mut em: Vec<(u32, u32)> = cluster_em.into_iter().map(Edge::endpoints).collect();
    em.sort_unstable();
    // The fast K4 variant stops here: edges involving light nodes are listed
    // by the light nodes themselves (Section 3), not brought into the cluster.
    if config.variant == Variant::FastK4 {
        knowledge.goal_edges = em;
        return finalize(knowledge, known);
    }

    // Bad nodes: cluster nodes with too many light neighbours. Light
    // neighbour lists are indexed by the node's dense rank; the bad list
    // comes out sorted because cluster vertices are scanned in rank order.
    let bad_threshold = config.bad_node_threshold(n);
    let mut light_neighbors: Vec<Vec<u32>> = Vec::with_capacity(cluster.len());
    let mut bad: Vec<u32> = Vec::new();
    for &u in &cluster.vertices {
        let mut lights = Vec::new();
        graphcore::intersect_sorted_into(graph.neighbors(u), &light, &mut lights);
        if lights.len() as f64 > bad_threshold {
            bad.push(u);
        }
        light_neighbors.push(lights);
    }
    knowledge.bad_node_count = bad.len();

    // Edges between two bad nodes stop being goal edges; both lists keep
    // `em`'s order.
    let is_bad = |v: u32| bad.binary_search(&v).is_ok();
    (knowledge.bad_edges, knowledge.goal_edges) =
        em.into_iter().partition(|&(u, v)| is_bad(u) && is_bad(v));

    // Light probes: every good cluster node tells each of its outside
    // neighbours about its light neighbours; the outside neighbour answers
    // which of them it is adjacent to (and the edge's orientation). The
    // answer set is `lights ∩ N(v)` — a sorted merge over the CSR rows into a
    // reused scratch buffer, not a has_edge probe per pair.
    let mut probe_rounds = 0u64;
    let mut adjacent_lights: Vec<u32> = Vec::new();
    for (rank, &u) in cluster.vertices.iter().enumerate() {
        if is_bad(u) {
            continue;
        }
        let lights = &light_neighbors[rank];
        if lights.is_empty() {
            continue;
        }
        let outside: Vec<u32> = graph
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&v| !inside(v))
            .collect();
        if outside.is_empty() {
            continue;
        }
        // Request: one word per light neighbour; reply: one word per light
        // neighbour (adjacency + direction bit), on each incident edge.
        probe_rounds = probe_rounds.max(2 * lights.len() as u64);
        for &v in &outside {
            graphcore::intersect_sorted_into(lights, graph.neighbors(v), &mut adjacent_lights);
            for &w in &adjacent_lights {
                known.push(oriented(orientation, v, w));
            }
            knowledge
                .learned_words
                .add(rank, words * lights.len() as u64);
        }
    }
    knowledge.light_probe_rounds = probe_rounds;

    finalize(knowledge, known)
}

/// The dense rank (Lemma 2.5) of a cluster member.
fn cluster_rank(cluster: &Cluster, v: u32) -> usize {
    cluster
        .vertices
        .binary_search(&v)
        .unwrap_or_else(|_| panic!("{v} is not a member of cluster {}", cluster.id))
}

fn finalize(mut knowledge: ClusterKnowledge, mut known: Vec<(u32, u32)>) -> ClusterKnowledge {
    known.sort_unstable();
    known.dedup();
    knowledge.known_edges = known;
    knowledge
}

/// Orients an undirected edge `{u, v}` according to `orientation`, falling
/// back to `(min, max)` for edges the orientation does not cover (which can
/// only happen for edges the caller already removed from the orientation; the
/// fallback keeps the bookkeeping total).
fn oriented(orientation: &Orientation, u: u32, v: u32) -> (u32, u32) {
    match orientation.source_of(u, v) {
        Some(src) => (src, Edge::new(u, v).other(src)),
        None => (u.min(v), u.max(v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::{gen, EdgeSet};
    use std::collections::HashSet;

    /// A graph made of a dense cluster (K6 on 0..6) plus outside nodes:
    /// a heavy node 6 adjacent to every cluster node, and light nodes 7, 8
    /// adjacent to one cluster node each; 7 and 8 are adjacent to each other
    /// and to 6.
    fn clustered_graph() -> (Graph, Cluster, EdgeSet) {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6u32 {
                edges.push((u, v));
            }
        }
        for u in 0..6u32 {
            edges.push((u, 6));
        }
        edges.push((0, 7));
        edges.push((1, 8));
        edges.push((7, 8));
        edges.push((6, 7));
        edges.push((6, 8));
        let g = Graph::from_edges(9, &edges).unwrap();
        let cluster = Cluster::new(0, (0..6).collect());
        let em: EdgeSet = g
            .edges()
            .filter(|&(u, v)| u < 6 && v < 6)
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        (g, cluster, em)
    }

    #[test]
    fn heavy_and_light_classification() {
        let (g, cluster, em) = clustered_graph();
        let o = Orientation::from_degeneracy(&g);
        let cfg = ListingConfig::for_p(4);
        // Threshold 3: node 6 (6 cluster neighbours) is heavy; 7, 8 are light.
        let k = gather_cluster_knowledge(&g, &o, &cluster, &em, 3.0, &cfg);
        assert_eq!(k.heavy_count, 1);
        assert_eq!(k.light_count, 2);
        assert_eq!(k.bad_node_count, 0);
        assert_eq!(k.goal_edges.len(), em.len());
        assert!(k.bad_edges.is_empty());
        // The probes of good nodes 0 and 1 towards the shared heavy neighbour
        // 6 reveal the outside edges {6,7} and {6,8}. The edge {7,8} is not
        // required to be known: it cannot form a K4 with any cluster edge (no
        // two cluster nodes are adjacent to both 7 and 8), which is exactly
        // the guarantee of Section 2.4.2.
        let undirected: HashSet<(u32, u32)> = k
            .known_edges
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        assert!(undirected.contains(&(6, 7)), "edge {{6,7}} not learned");
        assert!(undirected.contains(&(6, 8)), "edge {{6,8}} not learned");
        // The heavy node's own edges into the cluster are known anyway.
        assert!(undirected.contains(&(0, 6)));
    }

    #[test]
    fn fast_k4_skips_probes() {
        let (g, cluster, em) = clustered_graph();
        let o = Orientation::from_degeneracy(&g);
        let cfg = ListingConfig::fast_k4();
        let k = gather_cluster_knowledge(&g, &o, &cluster, &em, 3.0, &cfg);
        assert_eq!(k.light_probe_rounds, 0);
        assert_eq!(k.goal_edges.len(), em.len());
        assert_eq!(k.bad_node_count, 0);
    }

    #[test]
    fn bad_nodes_defer_edges() {
        let (g, cluster, em) = clustered_graph();
        let o = Orientation::from_degeneracy(&g);
        // Force every cluster node with at least one light neighbour to be bad.
        let cfg = ListingConfig {
            bad_node_factor: 0.0,
            ..ListingConfig::for_p(4)
        };
        let k = gather_cluster_knowledge(&g, &o, &cluster, &em, 3.0, &cfg);
        // Nodes 0 and 1 have light neighbours (7 and 8) => both bad => the
        // edge {0,1} is a bad edge.
        assert_eq!(k.bad_node_count, 2);
        assert!(k.bad_edges.contains(&(0, 1)));
        assert_eq!(k.goal_edges.len() + k.bad_edges.len(), em.len());
    }

    #[test]
    fn loads_and_rounds_are_positive_for_heavy_uploads() {
        let (g, cluster, em) = clustered_graph();
        let o = Orientation::from_degeneracy(&g);
        let cfg = ListingConfig::for_p(4);
        let k = gather_cluster_knowledge(&g, &o, &cluster, &em, 3.0, &cfg);
        if o.out_degree(6) > 0 {
            assert!(k.heavy_upload_rounds >= 1);
            assert!(k.max_learned_words() >= cfg.words_per_edge);
        }
        // The learned-word table is keyed by cluster rank and covers every
        // member.
        assert_eq!(k.learned_words.len(), cluster.len());
        // Probe rounds reflect the largest light list of a good node (at most
        // one light neighbour each here).
        assert!(k.light_probe_rounds <= 2);
    }

    #[test]
    fn knowledge_is_structurally_deterministic() {
        // Two runs must agree *representationally* — same sorted edge list,
        // same rank-keyed load table — not merely as sets. This is the flat
        // replacement for the old hash-pool, whose iteration order varied.
        let g = gen::erdos_renyi(60, 0.35, 11);
        let o = Orientation::from_degeneracy(&g);
        let cfg = ListingConfig::for_p(4);
        let cluster = Cluster::new(0, (0..20).collect());
        let em: EdgeSet = g
            .edges()
            .filter(|&(u, v)| u < 20 && v < 20)
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        let a = gather_cluster_knowledge(&g, &o, &cluster, &em, cfg.heavy_threshold(60), &cfg);
        let b = gather_cluster_knowledge(&g, &o, &cluster, &em, cfg.heavy_threshold(60), &cfg);
        assert_eq!(a.known_edges, b.known_edges);
        assert!(a.known_edges.windows(2).all(|w| w[0] < w[1]), "not sorted");
        assert_eq!(a.learned_words, b.learned_words);
    }

    #[test]
    fn every_clique_edge_is_known_for_goal_edges() {
        // Random graph: check the §2.4.2 guarantee empirically — every K4
        // containing a goal edge has all its edges in the known pool.
        let g = gen::erdos_renyi(60, 0.35, 11);
        let o = Orientation::from_degeneracy(&g);
        let cfg = ListingConfig::for_p(4);
        // Build one synthetic "cluster": a dense neighbourhood.
        let vertices: Vec<u32> = (0..20).collect();
        let cluster = Cluster::new(0, vertices.clone());
        let em: EdgeSet = g
            .edges()
            .filter(|&(u, v)| u < 20 && v < 20)
            .map(|(u, v)| Edge::new(u, v))
            .collect();
        let k = gather_cluster_knowledge(&g, &o, &cluster, &em, cfg.heavy_threshold(60), &cfg);
        let known: HashSet<(u32, u32)> = k
            .known_edges
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        for clique in graphcore::cliques::list_cliques(&g, 4) {
            let has_goal = clique.iter().enumerate().any(|(i, &a)| {
                clique[i + 1..]
                    .iter()
                    .any(|&b| k.goal_edges.binary_search(&(a, b)).is_ok())
            });
            if !has_goal {
                continue;
            }
            for (i, &a) in clique.iter().enumerate() {
                for &b in &clique[i + 1..] {
                    assert!(
                        known.contains(&(a.min(b), a.max(b))),
                        "edge {{{a},{b}}} of K4 {clique:?} unknown to the cluster"
                    );
                }
            }
        }
    }
}
