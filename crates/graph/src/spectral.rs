//! Conductance and mixing-time estimation.
//!
//! Definition 2.1 of the paper requires clusters whose mixing time is
//! polylogarithmic. The decomposition substrate validates its output with the
//! estimates implemented here: the conductance of candidate cuts and the
//! spectral gap of the lazy random walk, from which the mixing time follows
//! (up to constants) as `t_mix ≈ log(n) / gap`.

use crate::Graph;

/// Volume of a vertex set: sum of degrees (within `graph`).
///
/// # Panics
///
/// Panics if a vertex of `set` is out of range.
pub fn volume(graph: &Graph, set: &[u32]) -> usize {
    set.iter().map(|&v| graph.degree(v)).sum()
}

/// Number of edges with exactly one endpoint in `set`.
///
/// # Panics
///
/// Panics if a vertex of `set` is out of range.
pub fn cut_size(graph: &Graph, set: &[u32]) -> usize {
    let marker = membership(graph.num_vertices(), set);
    let mut cut = 0;
    for &v in set {
        for &w in graph.neighbors(v) {
            if !marker[w as usize] {
                cut += 1;
            }
        }
    }
    cut
}

/// Conductance of the cut `(set, V \ set)`: `cut / min(vol(set), vol(rest))`.
///
/// Returns `f64::INFINITY` when either side has zero volume (the cut is
/// degenerate and should not be used).
///
/// # Panics
///
/// Panics if a vertex of `set` is out of range.
pub fn conductance(graph: &Graph, set: &[u32]) -> f64 {
    let vol_s = volume(graph, set);
    let vol_total = 2 * graph.num_edges();
    let vol_rest = vol_total.saturating_sub(vol_s);
    if vol_s == 0 || vol_rest == 0 {
        return f64::INFINITY;
    }
    cut_size(graph, set) as f64 / vol_s.min(vol_rest) as f64
}

/// Estimates the spectral gap `1 - λ₂` of the lazy random walk on the
/// subgraph induced by `vertices`, via power iteration with the stationary
/// component projected out.
///
/// Returns 0.0 if the induced subgraph is disconnected or has fewer than two
/// vertices with positive degree, or if a vertex is out of range, since then
/// the walk does not mix.
pub fn spectral_gap(graph: &Graph, vertices: &[u32]) -> f64 {
    gap(second_eigenpair(graph, vertices).map(|(lambda, _)| lambda))
}

/// Estimates the second eigenvalue and the corresponding eigenvector of the
/// lazy random walk on the subgraph induced by `vertices`.
///
/// The returned vector is aligned with `vertices` (entry `i` corresponds to
/// `vertices[i]`). Returns `None` when the induced subgraph is disconnected,
/// contains isolated vertices or has fewer than two vertices, or when
/// `vertices` repeats a vertex or names one that is out of range — in those
/// cases the walk does not mix and no meaningful second eigenpair exists.
///
/// The eigenvector is the input to the sweep-cut refinement used by the
/// expander decomposition: sorting vertices by their entry and scanning
/// prefixes finds a cut of conductance close to the best achievable
/// (Cheeger's inequality).
pub fn second_eigenpair(graph: &Graph, vertices: &[u32]) -> Option<(f64, Vec<f64>)> {
    let k = vertices.len();
    if k < 2 {
        return None;
    }
    // Dense indices 0..k for the vertex set; a repeated or out-of-range
    // vertex has no well-defined walk.
    let mut position = vec![u32::MAX; graph.num_vertices()];
    for (i, &v) in vertices.iter().enumerate() {
        let slot = position.get_mut(v as usize)?;
        if *slot != u32::MAX {
            return None;
        }
        *slot = i as u32;
    }
    // The induced subgraph as a dense CSR, read straight from `graph`:
    // neighbours without a position lie outside the set and are skipped.
    // Row order and per-row neighbour order are those of `graph`, so the
    // result equals the one on `graph.induced_keep_ids(vertices)`.
    let mut row_offsets = Vec::with_capacity(k + 1);
    row_offsets.push(0usize);
    let mut row_targets: Vec<u32> = Vec::new();
    for &v in vertices {
        row_targets.extend(
            graph
                .neighbors(v)
                .iter()
                .map(|&w| position[w as usize])
                .filter(|&j| j != u32::MAX),
        );
        row_offsets.push(row_targets.len());
    }
    // The walk must cover all of `vertices`: isolated vertices or
    // disconnection mean no mixing.
    if !is_connected(&row_offsets, &row_targets) {
        return None;
    }

    let degrees: Vec<f64> = row_offsets
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64)
        .collect();
    let total_degree: f64 = degrees.iter().sum();
    // Stationary distribution of the lazy walk: π(v) ∝ deg(v).
    let pi: Vec<f64> = degrees.iter().map(|d| d / total_degree).collect();
    // The walk's off-diagonal weight 1/(2 deg), precomputed so the
    // per-edge work is one add.
    let half_inverse_degree: Vec<f64> = degrees.iter().map(|d| 0.5 / d).collect();

    // Power iteration on P = 1/2 I + 1/2 D^{-1} A (row-stochastic), estimating
    // the second eigenvalue by projecting out the stationary left-eigenvector.
    // We work with the reversible walk, so we symmetrise using the π inner
    // product: project x ← x − (Σ π_v x_v) · 1.
    //
    // Each row is summed in four independent accumulators and scaled once,
    // and the projection, the norm of the new vector and the norm of the old
    // one share the passes they need anyway. The estimate agrees with the
    // plain per-edge loop, kept as the test reference, to rounding only:
    // within 1e-12 for λ and 1e-9 per vector entry on the tested inputs.
    let mut x: Vec<f64> = (0..k)
        .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
        .collect();
    project_out_constant(&mut x, &pi);
    normalise(&mut x);
    let mut lambda = 0.0f64;
    let iterations = 200.max(4 * (k as f64).ln() as usize);
    let mut y = vec![0.0f64; k];
    for _ in 0..iterations {
        let mut mean = 0.0f64;
        let mut x_norm_sq = 0.0f64;
        for i in 0..k {
            let row = &row_targets[row_offsets[i]..row_offsets[i + 1]];
            let yi = 0.5 * x[i] + half_inverse_degree[i] * row_sum(&x, row);
            y[i] = yi;
            mean += yi * pi[i];
            x_norm_sq += x[i] * x[i];
        }
        let mut norm_sq = 0.0f64;
        for v in &mut y {
            *v -= mean;
            norm_sq += *v * *v;
        }
        let norm = norm_sq.sqrt();
        if norm < 1e-14 {
            // x was (numerically) in the span of the stationary vector:
            // the walk mixes essentially instantly.
            return Some((0.0, x));
        }
        lambda = norm / x_norm_sq.sqrt().max(1e-300);
        let scale = 1.0 / norm;
        for v in &mut y {
            *v *= scale;
        }
        // `y` is fully rewritten at the top of the next iteration, so the
        // buffers can simply trade places — no per-iteration allocation.
        std::mem::swap(&mut x, &mut y);
    }
    Some((lambda.clamp(0.0, 1.0), x))
}

/// Estimated mixing time of the lazy random walk on the subgraph induced by
/// `vertices`: `ln(n) / gap`, or `f64::INFINITY` if the gap is zero (which
/// includes a vertex out of range).
pub fn mixing_time_estimate(graph: &Graph, vertices: &[u32]) -> f64 {
    mixing_time(
        vertices.len(),
        second_eigenpair(graph, vertices).map(|(lambda, _)| lambda),
    )
}

/// The mixing-time estimate `ln(k) / gap` of a lazy walk on `vertex_count`
/// vertices from its second eigenvalue `lambda`, as returned by
/// [`second_eigenpair`] (`None`: the walk does not mix). `f64::INFINITY` when
/// the gap is zero. Lets a caller that also needs the eigenvector compute
/// the eigenpair once.
pub fn mixing_time(vertex_count: usize, lambda: Option<f64>) -> f64 {
    let gap = gap(lambda);
    if gap <= 0.0 {
        return f64::INFINITY;
    }
    (vertex_count.max(2) as f64).ln() / gap
}

fn gap(lambda: Option<f64>) -> f64 {
    lambda.map_or(0.0, |lambda| (1.0 - lambda).clamp(0.0, 1.0))
}

/// `Σ x[j]` over one CSR row, in four independent accumulators so the adds
/// do not form one dependent chain.
fn row_sum(x: &[f64], row: &[u32]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut quads = row.chunks_exact(4);
    for quad in &mut quads {
        acc[0] += x[quad[0] as usize];
        acc[1] += x[quad[1] as usize];
        acc[2] += x[quad[2] as usize];
        acc[3] += x[quad[3] as usize];
    }
    for (slot, &j) in quads.remainder().iter().enumerate() {
        acc[slot] += x[j as usize];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

fn membership(n: usize, set: &[u32]) -> Vec<bool> {
    let mut marker = vec![false; n];
    for &v in set {
        marker[v as usize] = true;
    }
    marker
}

/// Whether the dense CSR is connected (every row reachable from row 0).
fn is_connected(row_offsets: &[usize], row_targets: &[u32]) -> bool {
    let k = row_offsets.len() - 1;
    let mut seen = vec![false; k];
    let mut stack = vec![0u32];
    seen[0] = true;
    let mut count = 0;
    while let Some(i) = stack.pop() {
        count += 1;
        for &j in &row_targets[row_offsets[i as usize]..row_offsets[i as usize + 1]] {
            if !seen[j as usize] {
                seen[j as usize] = true;
                stack.push(j);
            }
        }
    }
    count == k
}

fn project_out_constant(x: &mut [f64], pi: &[f64]) {
    let mean: f64 = x.iter().zip(pi).map(|(a, p)| a * p).sum();
    for v in x.iter_mut() {
        *v -= mean;
    }
}

fn normalise(x: &mut [f64]) {
    let norm = l2(x);
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

fn l2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The per-edge power iteration this module ran before the row sums:
    /// every neighbour's term divided by the degree and added to one
    /// accumulator, on a copy of the induced subgraph. Kept as the reference
    /// the rewritten loop is held to. Inputs must be connected.
    fn reference_second_eigenpair(graph: &Graph, vertices: &[u32]) -> (f64, Vec<f64>) {
        let sub = graph.induced_keep_ids(vertices);
        let k = vertices.len();
        let mut position = vec![u32::MAX; sub.num_vertices()];
        for (i, &v) in vertices.iter().enumerate() {
            position[v as usize] = i as u32;
        }
        let mut row_offsets = vec![0usize];
        let mut row_targets: Vec<u32> = Vec::new();
        for &v in vertices {
            for &w in sub.neighbors(v) {
                row_targets.push(position[w as usize]);
            }
            row_offsets.push(row_targets.len());
        }
        let degrees: Vec<f64> = vertices.iter().map(|&v| sub.degree(v) as f64).collect();
        let total_degree: f64 = degrees.iter().sum();
        let pi: Vec<f64> = degrees.iter().map(|d| d / total_degree).collect();
        let mut x: Vec<f64> = (0..k)
            .map(|i| ((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        project_out_constant(&mut x, &pi);
        normalise(&mut x);
        let mut lambda = 0.0f64;
        let iterations = 200.max(4 * (k as f64).ln() as usize);
        let mut y = vec![0.0f64; k];
        for _ in 0..iterations {
            for i in 0..k {
                let mut acc = 0.5 * x[i];
                let d = degrees[i];
                for &j in &row_targets[row_offsets[i]..row_offsets[i + 1]] {
                    acc += 0.5 * x[j as usize] / d;
                }
                y[i] = acc;
            }
            project_out_constant(&mut y, &pi);
            let norm = l2(&y);
            if norm < 1e-14 {
                return (0.0, x);
            }
            lambda = norm / l2(&x).max(1e-300);
            for v in &mut y {
                *v /= norm;
            }
            std::mem::swap(&mut x, &mut y);
        }
        (lambda.clamp(0.0, 1.0), x)
    }

    /// Two `er(40, 0.5)` blocks joined by three edges: a graph with a sparse
    /// cut, whose second eigenvector separates the blocks.
    fn two_blocks() -> Graph {
        let a = gen::erdos_renyi(40, 0.5, 1);
        let b = gen::erdos_renyi(40, 0.5, 2);
        let mut edges: Vec<(u32, u32)> = a.edges().collect();
        edges.extend(b.edges().map(|(u, v)| (u + 40, v + 40)));
        edges.extend([(0, 40), (13, 57), (29, 71)]);
        Graph::from_edges(80, &edges).unwrap()
    }

    #[test]
    fn volume_and_cut() {
        let g = gen::path_graph(4); // 0-1-2-3
        assert_eq!(volume(&g, &[1, 2]), 4);
        assert_eq!(cut_size(&g, &[1, 2]), 2);
        assert_eq!(cut_size(&g, &[0, 1, 2, 3]), 0);
        assert!((conductance(&g, &[1, 2]) - 2.0 / 2.0).abs() < 1e-12);
        assert!(conductance(&g, &[]).is_infinite());
    }

    #[test]
    fn complete_graph_mixes_fast() {
        let g = gen::complete_graph(20);
        let all: Vec<u32> = (0..20).collect();
        let gap = spectral_gap(&g, &all);
        assert!(gap > 0.3, "gap = {gap}");
        let t = mixing_time_estimate(&g, &all);
        assert!(t < 12.0, "mixing time {t}");
    }

    #[test]
    fn path_mixes_slowly() {
        let g = gen::path_graph(64);
        let all: Vec<u32> = (0..64).collect();
        let gap_path = spectral_gap(&g, &all);
        let gap_complete = spectral_gap(&gen::complete_graph(64), &all);
        assert!(
            gap_path < gap_complete / 10.0,
            "{gap_path} vs {gap_complete}"
        );
    }

    #[test]
    fn disconnected_sets_do_not_mix() {
        let g = gen::path_graph(6);
        // {0, 5} induces no edges.
        assert_eq!(spectral_gap(&g, &[0, 5]), 0.0);
        assert!(mixing_time_estimate(&g, &[0, 5]).is_infinite());
        // Singleton and empty sets.
        assert_eq!(spectral_gap(&g, &[2]), 0.0);
        assert_eq!(spectral_gap(&g, &[]), 0.0);
        // {0, 1} and {4, 5} are edges but not connected to each other, and
        // 3 is isolated within {0, 1, 3}.
        assert!(second_eigenpair(&g, &[0, 1, 4, 5]).is_none());
        assert!(second_eigenpair(&g, &[0, 1, 3]).is_none());
        // A repeated vertex is not a vertex set.
        assert!(second_eigenpair(&g, &[0, 1, 1]).is_none());
    }

    #[test]
    fn out_of_range_vertices_do_not_mix() {
        let g = gen::complete_graph(5);
        assert!(second_eigenpair(&g, &[0, 1, 9]).is_none());
        assert_eq!(spectral_gap(&g, &[0, 1, 9]), 0.0);
        assert!(mixing_time_estimate(&g, &[0, 1, 9]).is_infinite());
        assert!(mixing_time_estimate(&g, &[0, 1, 2]).is_finite());
    }

    #[test]
    fn random_dense_graph_has_polylog_mixing() {
        let g = gen::erdos_renyi(128, 0.3, 5);
        let all: Vec<u32> = (0..128).collect();
        let t = mixing_time_estimate(&g, &all);
        let polylog = (128f64).ln().powi(2);
        assert!(t < 3.0 * polylog, "mixing time {t} not polylog ({polylog})");
    }

    #[test]
    fn the_eigenpair_reads_the_induced_subgraph_in_place() {
        let dense = gen::erdos_renyi(100, 0.35, 3);
        let evens: Vec<u32> = (0..100).step_by(2).collect();
        let shuffled: Vec<u32> = (0..100).map(|i| (i * 37) % 100).collect();
        let blocks = two_blocks();
        let left: Vec<u32> = (0..40).collect();
        for (graph, vertices) in [
            (&dense, &evens),
            (&dense, &shuffled),
            (&blocks, &left),
            (&blocks, &(0..80).collect()),
        ] {
            let direct = second_eigenpair(graph, vertices).expect("connected");
            let copied =
                second_eigenpair(&graph.induced_keep_ids(vertices), vertices).expect("connected");
            assert_eq!(direct.0.to_bits(), copied.0.to_bits());
            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            assert_eq!(bits(&direct.1), bits(&copied.1));
        }
    }

    #[test]
    fn the_eigenpair_matches_the_per_edge_reference() {
        let inputs = [
            gen::erdos_renyi(100, 0.35, 3),
            gen::planted_cliques(120, 0.1, 4, 6, 1).0,
            two_blocks(),
            gen::multipartite(60, 3, 0.8, 5),
        ];
        for graph in &inputs {
            let all: Vec<u32> = (0..graph.num_vertices() as u32).collect();
            let (lambda, vector) = second_eigenpair(graph, &all).expect("connected");
            let (ref_lambda, ref_vector) = reference_second_eigenpair(graph, &all);
            assert!(
                (lambda - ref_lambda).abs() <= 1e-12,
                "λ {lambda} vs reference {ref_lambda}"
            );
            let drift = vector
                .iter()
                .zip(&ref_vector)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            assert!(drift <= 1e-9, "eigenvector drift {drift}");
        }
    }
}
