//! Algorithm LIST (Theorem 2.8): halve the arboricity while listing every
//! `K_p` that touches a removed edge.
//!
//! LIST repeatedly applies ARB-LIST to the pair `(E_s, E_r)`, starting from
//! `E_s = ∅`, `E_r = E`. Each application moves the listed goal edges `Ê_m`
//! out of the graph, grows `E_s` by the decomposition's low-arboricity part
//! and shrinks `E_r` by at least a factor 4, so after `O(log n)` iterations
//! `E_r` is empty and the surviving edge set `E_s` has arboricity at most
//! `n^δ · log n ≤ A/2`, together with an explicit orientation.
//!
//! `E_r` and the goal edges are sorted lists of canonical pairs and `E_s` is
//! a list of arcs `(source, target)`, which becomes the returned orientation
//! once per call; the goal edges leave the working graph and its orientation
//! by one merge per row.
//!
//! Listed instances are streamed into the caller's [`CliqueSink`], each
//! once, with no set of emitted cliques. Successive ARB-LIST invocations
//! emit disjoint in-cluster listings because every such clique contains a
//! goal edge and goal edges are removed from the working graph before the
//! next invocation, and one invocation emits each clique once. The
//! fast-`K_4` light-node listing can find a clique without a goal edge, which
//! survives into later invocations and the final broadcast; the run's set of
//! light cliques (`LightCliques`) covers those repeats (see
//! [`arb_list`](crate::arb_list)). The drivers own that set and pass it
//! through `list_once_in_run` to the final broadcast
//! (`list_remaining`); the public [`list_once`] starts a fresh one.

use crate::arb_list::{arb_list_sorted, light_key, LightCliques};
use crate::config::ListingConfig;
use crate::result::{Diagnostics, Rounds};
use crate::sink::CliqueSink;
use graphcore::{Graph, Orientation};

/// Result of one LIST invocation (the listed cliques are streamed to the
/// sink, not returned).
#[derive(Clone, Debug, Default)]
pub struct ListOutcome {
    /// The surviving graph `(V, Ẽ_s)`, whose arboricity is at most half the
    /// input bound.
    pub remaining: Graph,
    /// An orientation of the surviving graph with correspondingly bounded
    /// out-degree.
    pub remaining_orientation: Orientation,
    /// Round breakdown.
    pub rounds: Rounds,
    /// Diagnostics.
    pub diagnostics: Diagnostics,
    /// Largest worker fan-out any ARB-LIST invocation actually reached
    /// (0 when no invocation ran; callers clamp to at least 1).
    pub threads_used: usize,
}

/// Runs LIST once on `graph` with the given orientation and arboricity bound,
/// emitting every listed `K_p` (each instance with at least one edge outside
/// the returned graph) into `sink`, each once.
///
/// `arboricity_bound` is the paper's `A = n^d` (we use the maximum out-degree
/// of `orientation`); the caller must ensure `A / (2 log n) > 1`, which the
/// driver's termination condition guarantees.
pub fn list_once(
    graph: &Graph,
    orientation: &Orientation,
    arboricity_bound: usize,
    config: &ListingConfig,
    seed: u64,
    sink: &mut dyn CliqueSink,
) -> ListOutcome {
    list_once_in_run(
        graph,
        orientation,
        arboricity_bound,
        config,
        seed,
        &mut LightCliques::new(),
        sink,
    )
}

/// [`list_once`] within a run: `light` is the run's set of light cliques
/// forwarded so far, which this invocation skips and adds to.
pub(crate) fn list_once_in_run(
    graph: &Graph,
    orientation: &Orientation,
    arboricity_bound: usize,
    config: &ListingConfig,
    seed: u64,
    light: &mut LightCliques,
    sink: &mut dyn CliqueSink,
) -> ListOutcome {
    let n = graph.num_vertices();
    let slack = config.arboricity_slack(n);

    // Theorem 2.8 requires n^{p/(p+2)} < A / (2 log n); when the arboricity is
    // already that small the invocation is a no-op and the caller's final
    // broadcast handles the rest.
    if (arboricity_bound as f64) / slack <= 1.0 {
        return ListOutcome {
            remaining: graph.clone(),
            remaining_orientation: orientation.clone(),
            ..Default::default()
        };
    }

    // n^δ = A / (2 log n)  ⇒  δ = ln(A / slack) / ln n.
    let target = (arboricity_bound as f64 / slack).max(1.5);
    let delta = (target.ln() / (n.max(2) as f64).ln()).clamp(0.05, 0.95);

    let mut outcome = ListOutcome::default();
    let mut current = graph.clone();
    let mut current_orientation = orientation.clone();
    let mut es_arcs: Vec<(u32, u32)> = Vec::new();
    let mut er: Vec<(u32, u32)> = graph.edges().collect();

    let mut iterations = 0usize;
    while !er.is_empty() && iterations < config.max_arb_iterations {
        iterations += 1;
        let step = arb_list_sorted(
            &current,
            &current_orientation,
            &er,
            arboricity_bound,
            delta,
            config,
            seed.wrapping_add(iterations as u64),
            light,
            sink,
        );
        outcome.rounds.absorb(&step.rounds);
        outcome.diagnostics.absorb(&step.diagnostics);
        outcome.threads_used = outcome.threads_used.max(step.threads_used);

        // Merge E'_s, kept as its orientation's arcs.
        es_arcs.extend(step.es_arcs);

        // Remove the listed goal edges from the working graph.
        if !step.goal_edges.is_empty() {
            let goal = Graph::from_edges(n, &step.goal_edges).expect("goal edges are in range");
            current = current.without_edges_of(&goal);
            current_orientation = current_orientation.without_edges_of(&goal);
        }

        let previous_er = er.len();
        er = step.er_new;
        if er.len() >= previous_er && previous_er > 0 {
            // No progress (degenerate configuration); fold the remainder into
            // E_s and stop — correctness is preserved because unlisted edges
            // simply survive to the next driver iteration.
            break;
        }
    }

    // Whatever is left of E_r survives as part of the remaining graph.
    es_arcs.extend(er);

    outcome.remaining_orientation = Orientation::from_arcs(n, es_arcs);
    let es: Vec<(u32, u32)> = outcome.remaining_orientation.edges().collect();
    outcome.remaining = Graph::from_edges(n, &es).expect("E_s endpoints are in range");
    outcome
}

/// The final broadcast's local listing: streams the `K_p`s of the remaining
/// `graph` into `sink`, skipping the light cliques the run already forwarded.
/// Returns the fan-out the enumeration ran on.
pub(crate) fn list_remaining(
    graph: &Graph,
    config: &ListingConfig,
    light: &LightCliques,
    sink: &mut dyn CliqueSink,
) -> usize {
    if light.is_empty() {
        return crate::local::stream_cliques(graph, config, sink);
    }
    crate::local::stream_cliques(graph, config, &mut Unlisted { light, inner: sink })
}

/// Forwards the cliques outside a run's light-clique set.
struct Unlisted<'a> {
    light: &'a LightCliques,
    inner: &'a mut dyn CliqueSink,
}

impl CliqueSink for Unlisted<'_> {
    fn accept(&mut self, clique: &[u32]) {
        if !self.light.contains(&light_key(clique)) {
            self.inner.accept(clique);
        }
    }

    fn is_saturated(&self) -> bool {
        self.inner.is_saturated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CollectSink;
    use graphcore::{gen, Clique};
    use std::collections::HashSet;

    fn run_list(graph: &Graph, p: usize) -> (ListOutcome, HashSet<Clique>) {
        let orientation = Orientation::from_degeneracy(graph);
        let a = orientation.max_out_degree().max(1);
        let config = ListingConfig::for_p(p);
        let mut sink = CollectSink::new();
        let outcome = list_once(graph, &orientation, a, &config, 5, &mut sink);
        (outcome, sink.into_cliques())
    }

    #[test]
    fn removed_edges_have_their_cliques_listed() {
        let g = gen::erdos_renyi(120, 0.3, 7);
        let (out, listed) = run_list(&g, 4);
        let remaining_edges = out.remaining.edge_set();
        for clique in graphcore::cliques::list_cliques(&g, 4) {
            let touches_removed = clique.iter().enumerate().any(|(i, &a)| {
                clique[i + 1..]
                    .iter()
                    .any(|&b| g.has_edge(a, b) && !remaining_edges.contains_pair(a, b))
            });
            if touches_removed {
                assert!(
                    listed.contains(&clique),
                    "K4 {clique:?} touching a removed edge was not listed"
                );
            }
        }
    }

    #[test]
    fn arboricity_roughly_halves() {
        let g = gen::erdos_renyi(150, 0.4, 3);
        let orientation = Orientation::from_degeneracy(&g);
        let a = orientation.max_out_degree().max(1);
        let (out, _) = run_list(&g, 4);
        let new_bound = out.remaining_orientation.max_out_degree();
        assert!(
            new_bound <= a,
            "out-degree bound did not decrease: {new_bound} > {a}"
        );
        // The surviving orientation covers exactly the surviving edges.
        assert!(out.remaining_orientation.covers_exactly(&out.remaining));
    }

    #[test]
    fn listed_cliques_are_real() {
        let g = gen::erdos_renyi(100, 0.3, 9);
        let (_, listed) = run_list(&g, 4);
        for clique in &listed {
            assert!(
                graphcore::cliques::is_clique(&g, clique),
                "{clique:?} is not a clique"
            );
        }
    }

    #[test]
    fn sparse_input_passes_through() {
        let g = gen::cycle_graph(60);
        let (out, listed) = run_list(&g, 4);
        assert!(listed.is_empty());
        assert_eq!(out.remaining.num_edges(), g.num_edges());
    }

    #[test]
    fn terminates_within_iteration_cap() {
        let g = gen::erdos_renyi(140, 0.35, 21);
        let (out, _) = run_list(&g, 5);
        assert!(out.diagnostics.arb_iterations <= ListingConfig::for_p(5).max_arb_iterations);
        assert!(out.diagnostics.decompositions >= 1);
    }
}
