//! A simplified stand-in for the `K_4` listing algorithm of Eden, Fiat,
//! Fischer, Kuhn and Oshman (DISC 2019), which runs in `O(n^{5/6 + o(1)})`
//! rounds.
//!
//! The paper improves on Eden et al. in two ways this baseline deliberately
//! lacks: (1) the outer iteration that couples the in-cluster minimum degree
//! with the arboricity of the remaining graph, and (2) the sparsity-aware
//! in-cluster listing. This stand-in therefore runs a **single** pass of the
//! cluster pipeline (no arboricity halving) with the **dense-assumption**
//! exchange, followed by the naive broadcast on whatever is left. It is not a
//! line-by-line reimplementation of Eden et al., but it reproduces the
//! qualitative behaviour the comparison experiment needs: correct output and
//! a round complexity that sits between the naive baseline and the paper's
//! algorithm on dense inputs.
//!
//! The baseline is reached through the [`Engine`](crate::Engine) (algorithm
//! `eden-k4`), whose [`prepare`](crate::ListingAlgorithm::prepare) pass pins
//! the dense exchange and the single-pass iteration cap.
//!
//! Like a `fast-k4` run, the pass keeps one set of the cliques its light-node
//! listing forwarded, which the final broadcast skips (see
//! [`arb_list`](crate::arb_list)); there is no set of emitted cliques.

use crate::arb_list::LightCliques;
use crate::config::ListingConfig;
use crate::list::{list_once_in_run, list_remaining};
use crate::result::{phase, Diagnostics, Rounds};
use crate::sink::CliqueSink;
use graphcore::{Graph, Orientation};

/// Runs the Eden-style baseline, emitting every listed `K_4` into `sink`
/// exactly once, and returns the measured rounds, diagnostics, and the
/// largest worker fan-out any stage actually reached.
pub(crate) fn run_streaming(
    graph: &Graph,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) -> (Rounds, Diagnostics, usize) {
    let mut rounds = Rounds::new();
    let mut diagnostics = Diagnostics::default();
    let n = graph.num_vertices();
    if n < 4 || graph.num_edges() == 0 {
        return (rounds, diagnostics, 1);
    }
    let orientation = Orientation::from_degeneracy(graph);
    let a = orientation.max_out_degree().max(1);

    // A single decomposition-and-list pass with the generic (dense) exchange.
    let mut light = LightCliques::new();
    let step = list_once_in_run(
        graph,
        &orientation,
        a,
        config,
        config.seed,
        &mut light,
        sink,
    );
    rounds.absorb(&step.rounds);
    diagnostics.absorb(&step.diagnostics);
    let mut threads_used = step.threads_used.max(1);

    // No further iterations: finish with the naive broadcast on the remaining
    // graph.
    let remaining = step.remaining;
    if remaining.num_edges() > 0 {
        rounds.add(
            phase::FINAL_BROADCAST,
            (remaining.max_degree() as u64).max(1),
        );
        // Dense local pass over the remainder: shared sharded path.
        threads_used = threads_used.max(list_remaining(&remaining, config, &light, sink));
    }
    (rounds, diagnostics, threads_used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::verify::verify_cliques;
    use graphcore::gen;

    fn eden(seed: u64) -> Engine {
        Engine::builder()
            .p(4)
            .algorithm("eden-k4")
            .seed(seed)
            .build()
            .expect("valid engine")
    }

    #[test]
    fn output_is_complete() {
        let g = gen::erdos_renyi(80, 0.3, 3);
        let (_, listed) = eden(1).collect(&g);
        verify_cliques(&g, 4, &listed).expect("complete K4 listing");
    }

    #[test]
    fn costs_at_least_as_much_as_the_papers_algorithm_on_dense_inputs() {
        let g = gen::erdos_renyi(150, 0.5, 7);
        let fast = Engine::builder().p(4).algorithm("fast-k4").build().unwrap();
        let (ours, _) = fast.collect(&g);
        let (eden_report, _) = eden(7).collect(&g);
        assert!(
            eden_report.total_rounds() >= ours.total_rounds(),
            "eden-style {} < ours {}",
            eden_report.total_rounds(),
            ours.total_rounds()
        );
    }

    #[test]
    fn emission_is_exactly_once() {
        let g = gen::erdos_renyi(90, 0.35, 11);
        let (report, listed) = eden(11).collect(&g);
        let (_, count) = eden(11).count(&g);
        assert_eq!(count as usize, listed.len());
        assert_eq!(report.sink.emitted, count);
    }

    #[test]
    fn trivial_inputs() {
        assert_eq!(eden(0).count(&Graph::new(3)).1, 0);
        assert_eq!(eden(0).count(&gen::path_graph(10)).1, 0);
    }
}
