//! Construction and validation of δ-expander decompositions (Definition 2.2).

use crate::cluster::Cluster;
use congest::{ChargePolicy, PrimitiveKind};
use graphcore::{spectral, Edge, EdgeSet, Graph, Orientation};
use serde::{Deserialize, Serialize};

/// Tuning knobs of the decomposition construction.
///
/// The defaults implement the guarantees of Definition 2.2 with the hidden
/// constants instantiated as follows: clusters must have minimum internal
/// degree at least `degree_fraction · n^δ`, their estimated mixing time must
/// be at most `mixing_factor · log2(n)^mixing_exponent`, and at most
/// `max_er_fraction · |E|` edges may be placed in `E_r`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DecompositionConfig {
    /// Fraction of `n^δ` required as the minimum internal degree of a cluster.
    pub degree_fraction: f64,
    /// Multiplier of the polylogarithmic mixing-time acceptance threshold.
    pub mixing_factor: f64,
    /// Exponent of the `log2 n` term in the mixing-time acceptance threshold.
    pub mixing_exponent: u32,
    /// Maximum fraction of the input edges that may be assigned to `E_r`
    /// (the paper requires `1/6`).
    pub max_er_fraction: f64,
}

impl Default for DecompositionConfig {
    fn default() -> Self {
        DecompositionConfig {
            degree_fraction: 0.5,
            mixing_factor: 4.0,
            mixing_exponent: 2,
            max_er_fraction: 1.0 / 6.0,
        }
    }
}

impl DecompositionConfig {
    /// Minimum internal degree required of cluster nodes for an `n`-node graph.
    pub fn degree_threshold(&self, n: usize, delta: f64) -> usize {
        let raw = (n.max(1) as f64).powf(delta) * self.degree_fraction;
        raw.ceil().max(1.0) as usize
    }

    /// Mixing-time acceptance threshold for an `n`-node graph.
    pub fn mixing_limit(&self, n: usize) -> f64 {
        self.mixing_factor * (n.max(2) as f64).log2().powi(self.mixing_exponent as i32)
    }
}

/// A violation of the decomposition guarantees, reported by
/// [`Decomposition::verify`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Violation {
    /// `E_m`, `E_s`, `E_r` do not partition the input edge set.
    NotAPartition {
        /// Number of input edges.
        expected: usize,
        /// Sum of the three parts (after checking pairwise disjointness).
        found: usize,
    },
    /// `|E_r|` exceeds the allowed fraction of `|E|`.
    ErTooLarge {
        /// Number of edges in `E_r`.
        er: usize,
        /// Maximum allowed.
        limit: usize,
    },
    /// A cluster node has too small an internal degree.
    LowClusterDegree {
        /// Cluster identifier.
        cluster: usize,
        /// Minimum internal degree found.
        found: usize,
        /// Required minimum.
        required: usize,
    },
    /// A cluster mixes too slowly.
    SlowMixing {
        /// Cluster identifier.
        cluster: usize,
        /// Estimated mixing time.
        mixing_time: f64,
        /// Acceptance threshold.
        limit: f64,
    },
    /// The `E_s` orientation has a vertex with too many outgoing edges.
    EsOutDegreeTooHigh {
        /// Offending vertex.
        vertex: u32,
        /// Its out-degree.
        out_degree: usize,
        /// The bound `n^δ`.
        limit: usize,
    },
    /// The `E_s` orientation does not cover exactly the `E_s` edges.
    EsOrientationMismatch,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NotAPartition { expected, found } => {
                write!(
                    f,
                    "edge parts do not partition the input ({found} != {expected})"
                )
            }
            Violation::ErTooLarge { er, limit } => write!(f, "|E_r| = {er} exceeds limit {limit}"),
            Violation::LowClusterDegree {
                cluster,
                found,
                required,
            } => {
                write!(f, "cluster {cluster} has min degree {found} < {required}")
            }
            Violation::SlowMixing {
                cluster,
                mixing_time,
                limit,
            } => {
                write!(
                    f,
                    "cluster {cluster} mixing time {mixing_time:.1} exceeds {limit:.1}"
                )
            }
            Violation::EsOutDegreeTooHigh {
                vertex,
                out_degree,
                limit,
            } => {
                write!(f, "E_s out-degree of {vertex} is {out_degree} > {limit}")
            }
            Violation::EsOrientationMismatch => write!(f, "E_s orientation does not match E_s"),
        }
    }
}

/// A δ-expander decomposition of a graph.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// The δ parameter the decomposition was built for.
    pub delta: f64,
    /// Minimum internal degree required of cluster nodes.
    pub degree_threshold: usize,
    /// Cluster edges.
    pub em: EdgeSet,
    /// Low-arboricity edges, oriented by [`Decomposition::es_orientation`].
    pub es: EdgeSet,
    /// Leftover edges (at most a sixth of the input).
    pub er: EdgeSet,
    /// Orientation of `E_s` with out-degree at most `n^δ`.
    pub es_orientation: Orientation,
    /// The clusters (connected components of `E_m` with at least two nodes).
    pub clusters: Vec<Cluster>,
    /// For every vertex, the id of the cluster containing it (if any).
    pub cluster_of: Vec<Option<usize>>,
    /// Configuration used during construction (also used by `verify`).
    pub config: DecompositionConfig,
}

impl Decomposition {
    /// The cluster containing vertex `v`, if any.
    pub fn cluster_containing(&self, v: u32) -> Option<&Cluster> {
        self.cluster_of[v as usize].map(|i| &self.clusters[i])
    }

    /// Builds the subgraph consisting of the `E_m` edges only.
    pub fn em_graph(&self, n: usize) -> Graph {
        Graph::from_edge_set(n, &self.em).expect("E_m endpoints are in range")
    }

    /// Rounds charged for constructing this decomposition distributively
    /// (Theorem 2.3: `~O(n^{1-δ})`).
    pub fn charged_rounds(&self, n: usize, policy: &ChargePolicy) -> u64 {
        policy.decomposition_rounds(n, self.delta)
    }

    /// The primitive kind under which the construction cost is charged.
    pub fn primitive_kind() -> PrimitiveKind {
        PrimitiveKind::ExpanderDecomposition
    }

    /// Checks every guarantee of Definition 2.2 against the original graph
    /// and returns all violations found (empty means the decomposition is
    /// valid).
    ///
    /// # Errors
    ///
    /// Returns the list of violations if any guarantee fails.
    pub fn verify(&self, graph: &Graph) -> Result<(), Vec<Violation>> {
        let mut violations = Vec::new();
        let n = graph.num_vertices();

        // Partition check.
        let total = self.em.len() + self.es.len() + self.er.len();
        let disjoint = self.em.is_disjoint(&self.es)
            && self.em.is_disjoint(&self.er)
            && self.es.is_disjoint(&self.er);
        let all_present = self
            .em
            .iter()
            .chain(self.es.iter())
            .chain(self.er.iter())
            .all(|e| graph.has_edge(e.u(), e.v()));
        if !disjoint || !all_present || total != graph.num_edges() {
            violations.push(Violation::NotAPartition {
                expected: graph.num_edges(),
                found: total,
            });
        }

        // E_r size.
        let limit = (self.config.max_er_fraction * graph.num_edges() as f64).floor() as usize;
        if self.er.len() > limit {
            violations.push(Violation::ErTooLarge {
                er: self.er.len(),
                limit,
            });
        }

        // Cluster guarantees.
        let em_graph = self.em_graph(n);
        let mixing_limit = self.config.mixing_limit(n);
        for cluster in &self.clusters {
            let min_deg = cluster.min_internal_degree(&em_graph);
            if min_deg < self.degree_threshold {
                violations.push(Violation::LowClusterDegree {
                    cluster: cluster.id,
                    found: min_deg,
                    required: self.degree_threshold,
                });
            }
            let mixing = cluster.mixing_time(&em_graph);
            if !mixing.is_finite() || mixing > mixing_limit {
                violations.push(Violation::SlowMixing {
                    cluster: cluster.id,
                    mixing_time: mixing,
                    limit: mixing_limit,
                });
            }
        }

        // E_s orientation: coverage and out-degree bound of n^δ.
        let es_limit = (n.max(1) as f64).powf(self.delta).ceil() as usize;
        let mut oriented = EdgeSet::new();
        for (u, v) in self.es_orientation.edges() {
            oriented.insert(Edge::new(u, v));
        }
        if oriented != self.es {
            violations.push(Violation::EsOrientationMismatch);
        }
        for v in 0..n as u32 {
            let d = self.es_orientation.out_degree(v);
            if d > es_limit {
                violations.push(Violation::EsOutDegreeTooHigh {
                    vertex: v,
                    out_degree: d,
                    limit: es_limit,
                });
            }
        }

        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// Builds a δ-expander decomposition of `graph`.
///
/// The construction peels vertices of remaining degree below the cluster
/// degree threshold into `E_s` (oriented away from the peeled vertex, which
/// bounds the out-degree and hence the arboricity), and refines the remaining
/// dense components by sweep cuts on the second eigenvector of the lazy
/// random walk until every component mixes fast enough to be accepted as a
/// cluster. Cut edges go to `E_r`; if the `E_r` budget (`|E|/6` by default)
/// would be exceeded, the component is accepted as-is so the budget guarantee
/// always holds.
pub fn decompose(
    graph: &Graph,
    delta: f64,
    config: &DecompositionConfig,
    _seed: u64,
) -> Decomposition {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let threshold = config.degree_threshold(n, delta);
    let mixing_limit = config.mixing_limit(n);
    let er_budget = (config.max_er_fraction * m as f64).floor() as usize;

    // Remaining graph as sorted adjacency rows.
    let mut remaining: Vec<Vec<u32>> = (0..n as u32).map(|v| graph.neighbors(v).to_vec()).collect();
    // One vertex mask shared by the helpers below; each leaves it all false.
    let mut mask = vec![false; n];

    // E_s is kept as its orientation: the out-lists of the peeled vertices.
    let mut es_out: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut er = EdgeSet::new();
    let mut em = EdgeSet::new();
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut cluster_of: Vec<Option<usize>> = vec![None; n];

    // Global peel.
    let all: Vec<u32> = (0..n as u32).collect();
    peel(&mut remaining, &all, threshold, &mut es_out, &mut mask);

    // Component queue.
    let mut queue: Vec<Vec<u32>> = components(&remaining, &all, &mut mask);

    while let Some(component) = queue.pop() {
        if component.len() < 2 {
            continue;
        }
        let sub = subgraph(&remaining, n, &component, &mut mask);
        // One eigenpair per component: the mixing test and the sweep cut
        // share it.
        let eigenpair = spectral::second_eigenpair(&sub, &component);
        let mixing = spectral::mixing_time(component.len(), eigenpair.as_ref().map(|e| e.0));
        let mixes = mixing.is_finite() && mixing <= mixing_limit;
        let cut_edges = match &eigenpair {
            Some((_, vector)) if !mixes => sweep_cut(&sub, &component, vector, &mut mask),
            _ => Vec::new(),
        };

        if cut_edges.is_empty() || er.len() + cut_edges.len() > er_budget {
            // Accept the component as a cluster: it mixes fast enough, or no
            // cut was found, or the cut would break the E_r budget, which
            // takes precedence so the |E_r| <= |E|/6 guarantee always holds.
            accept_cluster(
                &component,
                &sub,
                &mut em,
                &mut clusters,
                &mut cluster_of,
                &mut remaining,
            );
            continue;
        }

        // Apply the cut: the crossing edges go to E_r.
        for e in &cut_edges {
            er.insert(*e);
            remove_from_row(&mut remaining[e.u() as usize], e.v());
            remove_from_row(&mut remaining[e.v() as usize], e.u());
        }
        // Degrees dropped: re-peel within the component, then re-split it into
        // connected components and keep refining.
        peel(
            &mut remaining,
            &component,
            threshold,
            &mut es_out,
            &mut mask,
        );
        queue.extend(components(&remaining, &component, &mut mask));
    }

    let es_orientation = Orientation::from_out_lists(es_out);
    let es = es_orientation
        .edges()
        .map(|(u, v)| Edge::new(u, v))
        .collect();
    Decomposition {
        delta,
        degree_threshold: threshold,
        em,
        es,
        er,
        es_orientation,
        clusters,
        cluster_of,
        config: *config,
    }
}

/// Removes `w` from the sorted row, where it is present.
fn remove_from_row(row: &mut Vec<u32>, w: u32) {
    if let Ok(position) = row.binary_search(&w) {
        row.remove(position);
    }
}

/// Repeatedly removes vertices (restricted to `scope`) whose remaining degree
/// is below `threshold`, assigning their remaining incident edges to `E_s`
/// oriented away from the removed vertex (appended to its `es_out` list).
/// `queued` marks the stack.
fn peel(
    remaining: &mut [Vec<u32>],
    scope: &[u32],
    threshold: usize,
    es_out: &mut [Vec<u32>],
    queued: &mut [bool],
) {
    let peelable = |row: &Vec<u32>| !row.is_empty() && row.len() < threshold;
    let mut stack: Vec<u32> = scope
        .iter()
        .copied()
        .filter(|&v| peelable(&remaining[v as usize]))
        .collect();
    for &v in &stack {
        queued[v as usize] = true;
    }
    while let Some(v) = stack.pop() {
        queued[v as usize] = false;
        if !peelable(&remaining[v as usize]) {
            continue;
        }
        let nbrs = std::mem::take(&mut remaining[v as usize]);
        for &w in &nbrs {
            remove_from_row(&mut remaining[w as usize], v);
            if peelable(&remaining[w as usize]) && !queued[w as usize] {
                queued[w as usize] = true;
                stack.push(w);
            }
        }
        es_out[v as usize].extend_from_slice(&nbrs);
    }
}

/// Connected components of the remaining graph restricted to `scope`, which
/// is sorted (only vertices with at least one remaining edge are reported).
/// `unseen` marks the in-scope vertices not yet reached.
fn components(remaining: &[Vec<u32>], scope: &[u32], unseen: &mut [bool]) -> Vec<Vec<u32>> {
    for &v in scope {
        unseen[v as usize] = !remaining[v as usize].is_empty();
    }
    let mut out = Vec::new();
    for &start in scope {
        if !unseen[start as usize] {
            continue;
        }
        let mut stack = vec![start];
        unseen[start as usize] = false;
        let mut comp = Vec::new();
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &w in &remaining[v as usize] {
                if unseen[w as usize] {
                    unseen[w as usize] = false;
                    stack.push(w);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Materialises the remaining edges among `component` as a graph (keeping the
/// original vertex identifiers). `member` marks the component meanwhile.
fn subgraph(remaining: &[Vec<u32>], n: usize, component: &[u32], member: &mut [bool]) -> Graph {
    for &v in component {
        member[v as usize] = true;
    }
    let mut edges = Vec::new();
    for &v in component {
        for &w in &remaining[v as usize] {
            if v < w && member[w as usize] {
                edges.push((v, w));
            }
        }
    }
    for &v in component {
        member[v as usize] = false;
    }
    Graph::from_edges(n, &edges).expect("remaining edges are in range")
}

fn accept_cluster(
    component: &[u32],
    sub: &Graph,
    em: &mut EdgeSet,
    clusters: &mut Vec<Cluster>,
    cluster_of: &mut [Option<usize>],
    remaining: &mut [Vec<u32>],
) {
    let id = clusters.len();
    em.extend(sub.edges().map(|(u, v)| Edge::new(u, v)));
    for &v in component {
        cluster_of[v as usize] = Some(id);
        remaining[v as usize].clear();
    }
    clusters.push(Cluster::new(id, component.to_vec()));
}

/// Finds the prefix of the ordering of `component` by its entry of the
/// second eigenvector `vector` with minimum conductance, and returns the
/// edges of `sub` crossing it (empty if no prefix has a non-degenerate
/// conductance). `in_prefix` marks the prefix meanwhile.
fn sweep_cut(sub: &Graph, component: &[u32], vector: &[f64], in_prefix: &mut [bool]) -> Vec<Edge> {
    let mut order: Vec<usize> = (0..component.len()).collect();
    order.sort_by(|&a, &b| {
        vector[a]
            .partial_cmp(&vector[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    let total_volume: usize = component.iter().map(|&v| sub.degree(v)).sum();
    let scanned = &order[..component.len() - 1];
    let mut volume = 0usize;
    let mut cut = 0usize;
    let mut best: Option<(usize, f64)> = None;
    for (i, &idx) in scanned.iter().enumerate() {
        let v = component[idx];
        let internal = sub
            .neighbors(v)
            .iter()
            .filter(|&&w| in_prefix[w as usize])
            .count();
        volume += sub.degree(v);
        cut = cut + sub.degree(v) - 2 * internal;
        in_prefix[v as usize] = true;
        let denom = volume.min(total_volume - volume);
        if denom == 0 {
            continue;
        }
        let conductance = cut as f64 / denom as f64;
        if best.is_none_or(|(_, c)| conductance < c) {
            best = Some((i, conductance));
        }
    }
    // Shrink the marked prefix to the best one, read the crossing edges off
    // it, then clear it.
    let side_len = best.map_or(0, |(i, _)| i + 1);
    for &idx in &scanned[side_len..] {
        in_prefix[component[idx] as usize] = false;
    }
    let mut crossing = Vec::new();
    if side_len > 0 {
        for &u in component {
            for &w in sub.neighbors(u) {
                if u < w && in_prefix[u as usize] != in_prefix[w as usize] {
                    crossing.push(Edge::new(u, w));
                }
            }
        }
    }
    for &idx in &scanned[..side_len] {
        in_prefix[component[idx] as usize] = false;
    }
    crossing
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphcore::gen;

    /// Two `er(120, 0.35)` blocks joined by eight edges. The joined graph
    /// mixes too slowly, so the sweep cut fires and the bridges go to `E_r`.
    fn two_blocks() -> Graph {
        let mut edges: Vec<(u32, u32)> = gen::erdos_renyi(120, 0.35, 3).edges().collect();
        edges.extend(
            gen::erdos_renyi(120, 0.35, 4)
                .edges()
                .map(|(u, v)| (u + 120, v + 120)),
        );
        edges.extend((0..8u32).map(|i| (7 * i, 120 + 11 * i)));
        Graph::from_edges(240, &edges).unwrap()
    }

    /// FNV-1a over the clusters' sorted vertex lists, in cluster order.
    fn cluster_digest(d: &Decomposition) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for cluster in &d.clusters {
            for word in cluster
                .vertices
                .iter()
                .map(|&v| u64::from(v))
                .chain([u64::MAX])
            {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        hash
    }

    /// The decompositions of the `experiments e4` workloads and of
    /// [`two_blocks`], pinned: cluster count, `|E_m|`, `|E_s|`, `|E_r|` and
    /// [`cluster_digest`], per δ.
    #[test]
    fn pinned_decompositions_of_the_experiment_workloads() {
        let pins: [(&str, f64, usize, usize, usize, usize, u64); 18] = [
            ("er(300,0.15)", 0.4, 1, 6779, 0, 0, 0xeff0e6aef67ada49),
            ("er(300,0.15)", 0.5, 1, 6779, 0, 0, 0xeff0e6aef67ada49),
            ("er(300,0.15)", 0.6, 1, 6779, 0, 0, 0xeff0e6aef67ada49),
            ("er(300,0.35)", 0.4, 1, 15754, 0, 0, 0xeff0e6aef67ada49),
            ("er(300,0.35)", 0.5, 1, 15754, 0, 0, 0xeff0e6aef67ada49),
            ("er(300,0.35)", 0.6, 1, 15754, 0, 0, 0xeff0e6aef67ada49),
            ("ba(350,6)", 0.4, 1, 2079, 0, 0, 0x97703e711e34e63c),
            ("ba(350,6)", 0.5, 0, 0, 2079, 0, 0xcbf29ce484222325),
            ("ba(350,6)", 0.6, 0, 0, 2079, 0, 0xcbf29ce484222325),
            ("rmat(9,8)", 0.4, 1, 2163, 678, 0, 0xc92f13ee9101adfb),
            ("rmat(9,8)", 0.5, 1, 1704, 1137, 0, 0xeb2486557b13beff),
            ("rmat(9,8)", 0.6, 0, 0, 2841, 0, 0xcbf29ce484222325),
            ("turan(300,3,0.8)", 0.4, 1, 24050, 0, 0, 0xeff0e6aef67ada49),
            ("turan(300,3,0.8)", 0.5, 1, 24050, 0, 0, 0xeff0e6aef67ada49),
            ("turan(300,3,0.8)", 0.6, 1, 24050, 0, 0, 0xeff0e6aef67ada49),
            ("two_blocks", 0.4, 2, 5000, 0, 8, 0x38c4d63cb4335155),
            ("two_blocks", 0.5, 2, 5000, 0, 8, 0x38c4d63cb4335155),
            ("two_blocks", 0.6, 2, 5000, 0, 8, 0x38c4d63cb4335155),
        ];
        let workloads: Vec<(&str, Graph)> = vec![
            ("er(300,0.15)", gen::erdos_renyi(300, 0.15, 3)),
            ("er(300,0.35)", gen::erdos_renyi(300, 0.35, 3)),
            ("ba(350,6)", gen::barabasi_albert(350, 6, 3)),
            ("rmat(9,8)", gen::rmat(9, 8, (0.57, 0.19, 0.19, 0.05), 3)),
            ("turan(300,3,0.8)", gen::multipartite(300, 3, 0.8, 3)),
            ("two_blocks", two_blocks()),
        ];
        let mut cells = pins.iter();
        for (label, graph) in &workloads {
            for delta in [0.4, 0.5, 0.6] {
                let &(pin_label, pin_delta, clusters, em, es, er, digest) =
                    cells.next().expect("one pin per cell");
                assert_eq!((pin_label, pin_delta), (*label, delta));
                let d = decompose(graph, delta, &DecompositionConfig::default(), 1);
                assert_eq!(
                    (d.clusters.len(), d.em.len(), d.es.len(), d.er.len()),
                    (clusters, em, es, er),
                    "{label} at δ = {delta}"
                );
                assert_eq!(cluster_digest(&d), digest, "{label} at δ = {delta}");
                d.verify(graph).expect("valid decomposition");
            }
        }
        assert!(cells.next().is_none());
    }

    #[test]
    fn dense_random_graph_forms_one_cluster() {
        let g = gen::erdos_renyi(120, 0.4, 3);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid decomposition");
        assert!(!d.clusters.is_empty());
        // Most edges should live in E_m for a dense expander-like graph.
        assert!(d.em.len() > g.num_edges() / 2, "em = {}", d.em.len());
        assert!(d.er.len() <= g.num_edges() / 6);
    }

    #[test]
    fn sparse_graph_goes_entirely_to_es() {
        let g = gen::path_graph(200);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid decomposition");
        assert!(d.clusters.is_empty());
        assert_eq!(d.es.len(), g.num_edges());
        assert!(d.er.is_empty());
    }

    #[test]
    fn two_dense_communities_joined_by_a_bridge() {
        // Two K_20's joined by a single edge: the bridge should not prevent
        // finding two well-mixing clusters (it is either cut into E_r or the
        // merged component already mixes well enough to be accepted).
        let mut edges = Vec::new();
        for u in 0..20u32 {
            for v in (u + 1)..20u32 {
                edges.push((u, v));
                edges.push((u + 20, v + 20));
            }
        }
        edges.push((0, 20));
        let g = Graph::from_edges(40, &edges).unwrap();
        let d = decompose(&g, 0.6, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid decomposition");
        assert!(!d.clusters.is_empty());
        let clustered: usize = d.clusters.iter().map(Cluster::len).sum();
        assert!(clustered >= 38, "only {clustered} vertices clustered");
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let g = Graph::new(0);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        d.verify(&g).expect("valid");
        let g1 = Graph::new(5);
        let d1 = decompose(&g1, 0.5, &DecompositionConfig::default(), 1);
        d1.verify(&g1).expect("valid");
        assert!(d1.clusters.is_empty() && d1.em.is_empty() && d1.es.is_empty());
    }

    #[test]
    fn partition_is_exact_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::erdos_renyi(150, 0.1, seed);
            let d = decompose(&g, 0.4, &DecompositionConfig::default(), seed);
            d.verify(&g).expect("valid decomposition");
            assert_eq!(d.em.len() + d.es.len() + d.er.len(), g.num_edges());
        }
    }

    #[test]
    fn es_orientation_out_degree_is_bounded() {
        let g = gen::barabasi_albert(300, 4, 9);
        let delta = 0.5;
        let d = decompose(&g, delta, &DecompositionConfig::default(), 2);
        d.verify(&g).expect("valid decomposition");
        let limit = (300f64).powf(delta).ceil() as usize;
        assert!(d.es_orientation.max_out_degree() <= limit);
    }

    #[test]
    fn charged_rounds_follow_theorem_2_3() {
        let g = gen::erdos_renyi(100, 0.3, 3);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        let bare = ChargePolicy::bare();
        assert_eq!(d.charged_rounds(10_000, &bare), 100); // 10000^{0.5}
        assert_eq!(
            Decomposition::primitive_kind(),
            PrimitiveKind::ExpanderDecomposition
        );
    }

    #[test]
    fn cluster_lookup() {
        let g = gen::complete_graph(30);
        let d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        assert_eq!(d.clusters.len(), 1);
        let c = d.cluster_containing(3).expect("vertex 3 clustered");
        assert_eq!(c.len(), 30);
        assert!(d.em_graph(30).num_edges() > 0);
    }

    #[test]
    fn verify_detects_corruption() {
        let g = gen::complete_graph(20);
        let mut d = decompose(&g, 0.5, &DecompositionConfig::default(), 1);
        // Corrupt: move a cluster edge into E_r without removing it from E_m.
        let edge = d.em.iter().next().unwrap();
        d.er.insert(edge);
        let violations = d.verify(&g).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::NotAPartition { .. })));
        assert!(!format!("{}", violations[0]).is_empty());
    }
}
