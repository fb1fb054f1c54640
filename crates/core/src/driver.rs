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
//! A run emits each clique once with no set of emitted cliques (see
//! [`list`](crate::list)). A `fast-k4` run keeps one set of the cliques its
//! light-node listing forwarded, which stays empty unless an outside node is
//! light.

use crate::arb_list::LightCliques;
use crate::config::ListingConfig;
use crate::list::{list_once_in_run, list_remaining};
use crate::result::{phase, Diagnostics, Rounds};
use crate::sink::CliqueSink;
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
    let mut light = LightCliques::new();

    for iteration in 0..config.max_list_iterations {
        let a = orientation.max_out_degree().max(1);
        // Theorem 2.8 requires n^{p/(p+2)} < A / (2 log n); the driver keeps
        // iterating while the stronger termination threshold still holds.
        if (a as f64) / slack <= termination {
            break;
        }
        let step = list_once_in_run(
            &current,
            &orientation,
            a,
            config,
            config.seed.wrapping_add(iteration as u64 * 7919),
            &mut light,
            sink,
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
        // from the in-cluster ones (each of those lost a goal edge); the
        // fast-K4 light cliques among them are skipped. The enumeration is
        // one dense local pass over the surviving graph, so it runs through
        // the shared `local::stream_cliques` path — sharded across worker
        // threads under a `Parallelism` grant, byte-identical either way.
        threads_used = threads_used.max(list_remaining(&current, config, &light, sink));
    }
    (rounds, diagnostics, threads_used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExchangeMode;
    use crate::engine::Engine;
    use crate::sink::FirstK;
    use crate::verify::verify_cliques;
    use crate::Parallelism;
    use graphcore::{gen, Clique};
    use std::collections::HashSet;

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

    /// R-MAT quadrant weights of the pinned cells.
    const RMAT: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);
    /// The FNV-1a offset basis.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a over `bytes`, continuing from `hash`.
    fn fnv(hash: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(hash, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The little-endian bytes of a clique sequence.
    fn clique_bytes(cliques: &[Clique]) -> impl Iterator<Item = u8> + '_ {
        cliques.iter().flatten().flat_map(|v| v.to_le_bytes())
    }

    /// A sink recording the exact accept sequence.
    #[derive(Default)]
    struct TraceSink(Vec<Clique>);

    impl CliqueSink for TraceSink {
        fn accept(&mut self, clique: &[u32]) {
            self.0.push(clique.to_vec());
        }
    }

    /// One pinned cell: an experiment-scale `p = 4` run on one of the two
    /// R-MAT graphs, with the digests of its emission (rows and FNV-1a of
    /// the accept sequence), of its `to_json`, and of the `FirstK` prefixes
    /// at k = 1, 17 and 1000 with their reports.
    struct Pin {
        graph: usize,
        algorithm: &'static str,
        termination: Option<f64>,
        slack: Option<f64>,
        digests: (usize, u64, u64, u64),
    }

    /// The digests of the emission a run-level `Dedup` over the raw
    /// listings gives, computed with such a `Dedup` in place. The cells with
    /// an override and the `eden-k4` cells run LIST iterations, where the
    /// raw listings repeat cliques (21 times per run on rmat(7,16,4), 39 on
    /// rmat(8,16,3)).
    const PINS: [Pin; 8] = [
        Pin {
            graph: 0,
            algorithm: "fast-k4",
            termination: None,
            slack: None,
            digests: (
                9361,
                0xb7f3_a6d6_b30e_f28d,
                0x1dc3_0412_3c35_b7b1,
                0xec21_9f4a_1890_969e,
            ),
        },
        Pin {
            graph: 0,
            algorithm: "fast-k4",
            termination: Some(0.3),
            slack: None,
            digests: (
                9361,
                0x7e3d_d4c1_2249_ea4d,
                0x3e95_495f_a816_ec37,
                0x7e34_0236_b18d_c5ee,
            ),
        },
        Pin {
            graph: 0,
            algorithm: "fast-k4",
            termination: Some(0.1),
            slack: Some(0.5),
            digests: (
                9361,
                0x7e3d_d4c1_2249_ea4d,
                0xa61c_c368_8319_739b,
                0x4c9e_a8b1_ec43_9756,
            ),
        },
        Pin {
            graph: 0,
            algorithm: "eden-k4",
            termination: None,
            slack: None,
            digests: (
                9361,
                0x7e3d_d4c1_2249_ea4d,
                0x7ebd_303e_41d9_0763,
                0x8508_2db5_4ebc_479a,
            ),
        },
        Pin {
            graph: 1,
            algorithm: "fast-k4",
            termination: None,
            slack: None,
            digests: (
                35313,
                0x3358_20bc_876f_b8d5,
                0x1aeb_b708_7caf_606d,
                0xe14e_ce2f_679f_da62,
            ),
        },
        Pin {
            graph: 1,
            algorithm: "fast-k4",
            termination: Some(0.3),
            slack: None,
            digests: (
                35313,
                0x0924_a291_a08c_96d5,
                0x244d_d424_e8e9_d700,
                0x164d_d5fd_21c7_60e8,
            ),
        },
        Pin {
            graph: 1,
            algorithm: "fast-k4",
            termination: Some(0.1),
            slack: Some(0.5),
            digests: (
                35313,
                0x0924_a291_a08c_96d5,
                0x032a_56b2_6282_d9c5,
                0x728c_0602_8949_89ed,
            ),
        },
        Pin {
            graph: 1,
            algorithm: "eden-k4",
            termination: None,
            slack: None,
            digests: (
                35313,
                0x0924_a291_a08c_96d5,
                0x8eb0_4d2d_14df_521f,
                0x391a_0da7_5cb2_0b17,
            ),
        },
    ];

    #[test]
    fn fast_k4_and_eden_k4_match_the_pinned_digests() {
        let graphs = [gen::rmat(7, 16, RMAT, 4), gen::rmat(8, 16, RMAT, 3)];
        let totals = graphs
            .each_ref()
            .map(|g| graphcore::cliques::list_cliques(g, 4).len());
        for pin in &PINS {
            let g = &graphs[pin.graph];
            for grant in [
                Parallelism::Off,
                Parallelism::Threads(1),
                Parallelism::Threads(2),
                Parallelism::Threads(3),
                Parallelism::Threads(8),
            ] {
                let mut builder = Engine::builder()
                    .p(4)
                    .algorithm(pin.algorithm)
                    .experiment_scale()
                    .parallelism(grant);
                if let Some(exponent) = pin.termination {
                    builder = builder.termination_exponent(exponent);
                }
                if let Some(slack) = pin.slack {
                    builder = builder.arboricity_slack(slack);
                }
                let engine = builder.build().unwrap();
                let cell = format!(
                    "{} on graph {} ({:?}, {:?}) at {grant:?}",
                    pin.algorithm, pin.graph, pin.termination, pin.slack
                );
                let mut trace = TraceSink::default();
                let report = engine.run(g, &mut trace);
                let trace = trace.0;
                let distinct: HashSet<&Clique> = trace.iter().collect();
                assert_eq!(distinct.len(), trace.len(), "{cell}: a repeat");
                assert_eq!(trace.len(), totals[pin.graph], "{cell}: a miss");
                let mut first_k = FNV_OFFSET;
                for k in [1, 17, 1000] {
                    let mut first = FirstK::new(k);
                    let prefix = engine.run(g, &mut first);
                    assert_eq!(first.cliques, trace[..k], "{cell}, k={k}");
                    first_k = fnv(
                        fnv(first_k, clique_bytes(&first.cliques)),
                        prefix.to_json().into_bytes(),
                    );
                }
                let digests = (
                    trace.len(),
                    fnv(FNV_OFFSET, clique_bytes(&trace)),
                    fnv(FNV_OFFSET, report.to_json().into_bytes()),
                    first_k,
                );
                assert_eq!(digests, pin.digests, "{cell}");
            }
        }
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
