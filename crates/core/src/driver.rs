//! The top-level `K_p` listing driver (Theorems 1.1 and 1.2).
//!
//! The driver applies Algorithm LIST on a sequence of graphs with
//! geometrically decreasing arboricity. Once the arboricity bound drops below
//! the termination threshold (`n^{max(p/(p+2), 3/4)}` for the general
//! algorithm, `n^{2/3}` for the fast `K_4` variant), every node broadcasts its
//! remaining outgoing edges to its neighbours and the remaining instances are
//! listed locally.
//!
//! The driver is reached through the [`Engine`](crate::Engine) (algorithms
//! `general` and `fast-k4`), which streams the listed cliques into a
//! [`CliqueSink`]. The pre-Engine free functions (`list_kp`,
//! `list_kp_with_mode`) survived PR 2 as deprecated wrappers and were removed
//! in the following release.
//!
//! A `general` run emits each clique once with no set of emitted cliques
//! (see [`list`](crate::list)); a `fast-k4` run keeps one run-level
//! [`Dedup`], because its light-node listing can repeat a clique.

use crate::config::{ListingConfig, Variant};
use crate::list::list_once;
use crate::result::{phase, Diagnostics, Rounds};
use crate::sink::{CliqueSink, Dedup};
use graphcore::{Graph, Orientation};

/// Runs the CONGEST driver (general or fast-`K_4`, per `config.variant`),
/// emitting every listed clique into `sink` exactly once, and returns the
/// measured rounds, diagnostics, and the largest worker fan-out any stage
/// actually reached (for `RunReport.parallelism.threads_used`).
///
/// The caller is responsible for validating `config`
/// ([`ListingConfig::validate`]); the [`Engine`](crate::Engine) builder does
/// this. Degenerate graphs (fewer than `p` vertices, no edges) cost nothing.
pub(crate) fn run_congest(
    graph: &Graph,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) -> (Rounds, Diagnostics, usize) {
    match config.variant {
        // The fast-K4 light-node listing can emit cliques that do not contain
        // a goal edge and therefore survive into later iterations or the
        // final broadcast: dedup across the whole run to keep the engine's
        // exactly-once contract.
        Variant::FastK4 => {
            let mut dedup = Dedup::new(sink);
            run_congest_inner(graph, config, &mut dedup)
        }
        // The general algorithm only ever lists cliques containing a goal
        // edge of the current iteration, and goal edges are removed before
        // the next one; within an iteration ARB-LIST's ownership rule emits
        // each clique once. Exactly-once holds without a set.
        Variant::General => run_congest_inner(graph, config, sink),
    }
}

fn run_congest_inner(
    graph: &Graph,
    config: &ListingConfig,
    mut sink: impl CliqueSink,
) -> (Rounds, Diagnostics, usize) {
    let n = graph.num_vertices();
    let mut rounds = Rounds::new();
    let mut diagnostics = Diagnostics::default();
    let mut threads_used = 1usize;
    if n < config.p || graph.num_edges() == 0 {
        return (rounds, diagnostics, threads_used);
    }

    let mut current = graph.clone();
    let mut orientation = Orientation::from_degeneracy(&current);
    let slack = config.arboricity_slack(n);
    let termination = (n.max(2) as f64).powf(config.termination_exponent());

    for iteration in 0..config.max_list_iterations {
        let a = orientation.max_out_degree().max(1);
        // Theorem 2.8 requires n^{p/(p+2)} < A / (2 log n); the driver keeps
        // iterating while the stronger termination threshold still holds.
        if (a as f64) / slack <= termination {
            break;
        }
        let step = list_once(
            &current,
            &orientation,
            a,
            config,
            config.seed.wrapping_add(iteration as u64 * 7919),
            &mut sink,
        );
        rounds.absorb(&step.rounds);
        diagnostics.absorb(&step.diagnostics);
        threads_used = threads_used.max(step.threads_used);
        diagnostics.list_iterations += 1;

        let new_a = step.remaining_orientation.max_out_degree().max(1);
        current = step.remaining;
        orientation = step.remaining_orientation;
        if new_a >= a {
            // No progress is possible (e.g. the graph is already below the
            // threshold in practice); fall through to the final broadcast.
            break;
        }
    }

    // Final phase: every node broadcasts its remaining outgoing edges to all
    // of its neighbours. Each edge {v, w} then carries out-deg(v) + out-deg(w)
    // edge descriptions, so the phase costs (max out-degree) edge-messages.
    let final_rounds = (orientation.max_out_degree() as u64).max(1) * config.words_per_edge;
    if current.num_edges() > 0 {
        rounds.add(phase::FINAL_BROADCAST, final_rounds);
        // Every member of a surviving clique sees all of the clique's edges
        // (its own incident ones plus the broadcast out-edges of the other
        // members), so the union of the node outputs is exactly the set of
        // K_p instances of the surviving graph. These cliques are disjoint
        // from the streamed ones for the general algorithm (each of those
        // lost a goal edge); the fast-K4 wrapper dedups. The enumeration is
        // one dense local pass over the surviving graph, so it runs through
        // the shared `local::stream_cliques` path — sharded across worker
        // threads under a `Parallelism` grant, byte-identical either way.
        threads_used = threads_used.max(crate::local::stream_cliques(&current, config, &mut sink));
    }
    (rounds, diagnostics, threads_used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExchangeMode;
    use crate::engine::Engine;
    use crate::verify::verify_cliques;
    use graphcore::gen;

    fn general(p: usize, seed: u64) -> Engine {
        Engine::builder()
            .p(p)
            .algorithm("general")
            .seed(seed)
            .build()
            .expect("valid engine")
    }

    #[test]
    fn complete_graph_is_fully_listed() {
        let g = gen::complete_graph(12);
        for p in [3, 4, 5] {
            let (report, cliques) = general(p, 0xC11).collect(&g);
            verify_cliques(&g, p, &cliques).expect("complete listing");
            assert!(report.total_rounds() > 0);
        }
    }

    #[test]
    fn dense_random_graphs_are_fully_listed() {
        for seed in [1, 2] {
            let g = gen::erdos_renyi(90, 0.35, seed);
            for p in [4, 5] {
                let (_, cliques) = general(p, seed).collect(&g);
                verify_cliques(&g, p, &cliques)
                    .unwrap_or_else(|e| panic!("seed {seed}, p {p}: {e}"));
            }
        }
    }

    #[test]
    fn fast_k4_variant_is_complete() {
        for seed in [3, 4] {
            let g = gen::erdos_renyi(90, 0.35, seed);
            let engine = Engine::builder()
                .p(4)
                .algorithm("fast-k4")
                .seed(seed)
                .build()
                .unwrap();
            let (_, cliques) = engine.collect(&g);
            verify_cliques(&g, 4, &cliques).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn planted_cliques_are_listed() {
        let (g, planted) = gen::planted_cliques(100, 0.05, 3, 6, 9);
        let (_, cliques) = general(6, 0xC11).collect(&g);
        for c in &planted {
            assert!(cliques.contains(&c.vertices), "planted K6 missing");
        }
        verify_cliques(&g, 6, &cliques).expect("complete K6 listing");
    }

    #[test]
    fn graphs_without_cliques_yield_nothing() {
        let g = gen::complete_bipartite(20, 20);
        let (_, count) = general(4, 0xC11).count(&g);
        assert_eq!(count, 0);
        let empty = Graph::new(30);
        let (report, count) = general(4, 0xC11).count(&empty);
        assert_eq!(count, 0);
        assert_eq!(report.total_rounds(), 0);
    }

    #[test]
    fn tiny_graphs_are_handled() {
        let g = gen::complete_graph(3);
        let (_, count) = general(4, 0xC11).count(&g);
        assert_eq!(count, 0);
        let g = gen::complete_graph(4);
        let (report, count) = general(4, 0xC11).count(&g);
        assert_eq!(count, 1);
        assert_eq!(report.sink.emitted, 1);
    }

    #[test]
    fn both_variants_agree_on_the_output_set() {
        let g = gen::erdos_renyi(80, 0.3, 31);
        let (_, general_cliques) = general(4, 0xC11).collect(&g);
        let fast = Engine::builder().p(4).algorithm("fast-k4").build().unwrap();
        let (_, fast_cliques) = fast.collect(&g);
        assert_eq!(general_cliques, fast_cliques);
    }

    #[test]
    fn dense_mode_lists_the_same_cliques() {
        let g = gen::erdos_renyi(80, 0.3, 37);
        let sparse = general(4, 0xC11);
        let dense = Engine::builder()
            .p(4)
            .exchange_mode(ExchangeMode::DenseAssumption)
            .build()
            .unwrap();
        let (sparse_report, sparse_cliques) = sparse.collect(&g);
        let (dense_report, dense_cliques) = dense.collect(&g);
        assert_eq!(sparse_cliques, dense_cliques);
        assert!(dense_report.total_rounds() >= sparse_report.total_rounds());
    }
}
