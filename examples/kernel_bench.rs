//! Kernel selection walkthrough: run the recursive and trie enumeration
//! kernels side by side on one dense and one sparse workload, cross-check
//! that they count exactly the same cliques, and show which kernel the
//! `CliqueIndex` picks on each graph. Each kernel is forced through the
//! index's bench hook and timed twice: visiting each clique, and through the
//! count-only descent (`CliqueIndex::count_cliques_forced`), which must give
//! the same number without visiting any.
//!
//! ```text
//! cargo run --release --example kernel_bench
//! ```
//!
//! The dense workload is a 6-partite Turán-style graph (every candidate set
//! is large, so the trie kernel's one-off induced-subgraph materialisation
//! amortises over a deep subtree and its pivot shortcut fires constantly);
//! the sparse workload is a low-degeneracy Erdős–Rényi graph, where
//! candidate sets are tiny and the recursive kernel's plain merges win —
//! which is exactly why the index picks a different kernel on each.

use std::time::Instant;

use distributed_clique_listing::graphcore::cliques::{count_cliques, CliqueIndex, KernelChoice};
use distributed_clique_listing::graphcore::gen;
use distributed_clique_listing::graphcore::graph::Graph;

/// Times one full `p`-clique enumeration on a forced kernel.
fn timed_count(graph: &Graph, index: &CliqueIndex, p: usize, kernel: KernelChoice) -> (u64, f64) {
    let start = Instant::now();
    let mut count = 0u64;
    index.for_each_clique_while_forced(graph, p, kernel, |_| {
        count += 1;
        true
    });
    (count, start.elapsed().as_secs_f64() * 1e3)
}

/// Times one count-only `p`-clique count on a forced kernel.
fn timed_count_only(
    graph: &Graph,
    index: &CliqueIndex,
    p: usize,
    kernel: KernelChoice,
) -> (u64, f64) {
    let start = Instant::now();
    let count = index
        .count_cliques_forced(graph, p, kernel)
        .expect("example counts fit in a u64");
    (count, start.elapsed().as_secs_f64() * 1e3)
}

fn compare(label: &str, graph: &Graph, p: usize) {
    let index = CliqueIndex::build(graph);
    println!(
        "\n{label}: n = {}, m = {}, degeneracy = {}, p = {p}",
        graph.num_vertices(),
        graph.num_edges(),
        index.degeneracy()
    );
    println!("  the index picks: {}", index.kernel());
    let mut counts = Vec::new();
    let mut times = Vec::new();
    for kernel in [KernelChoice::Recursive, KernelChoice::Trie] {
        let (count, ms) = timed_count(graph, &index, p, kernel);
        let (only, only_ms) = timed_count_only(graph, &index, p, kernel);
        println!(
            "  {:<9} -> {count} cliques in {ms:8.1} ms visiting, {only_ms:8.1} ms count-only \
             (ratio {:.2})",
            kernel.name(),
            only_ms / ms.max(1e-9),
        );
        assert_eq!(only, count, "{label} {kernel}: count-only != visiting");
        counts.push(count);
        times.push(ms);
    }
    // The kernels must agree exactly — with each other and with the
    // one-shot ground-truth entry point (the index's own choice).
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "kernels disagree on {label}: {counts:?}"
    );
    assert_eq!(
        counts[0],
        count_cliques(graph, p) as u64,
        "{label} ground truth"
    );
    println!(
        "  counts agree; trie speedup over recursive = {:.2}x",
        times[0] / times[1].max(1e-9)
    );
}

fn main() {
    // Dense: the Turán graph T(n, 3) — the extremal K4-free graph, so the
    // K4 enumeration is pure intersection work with zero emissions. This is
    // the shape the trie kernel dominates (the `kernel-sweep` bench leg's
    // criterion cell).
    let turan = gen::multipartite(450, 3, 1.0, 7);
    compare("turan T(450,3) (K4-free)", &turan, 4);

    // Dense with cliques: a 6-partite Turán-style graph, so the count
    // cross-check exercises a clique-rich dense enumeration too.
    let dense = gen::multipartite(90, 6, 1.0, 7);
    compare("dense 6-partite (K4)", &dense, 4);

    // Sparse: low-degeneracy random graph, the recursive kernel's home turf.
    let sparse = gen::erdos_renyi(3000, 0.004, 9);
    compare("sparse er (K3)", &sparse, 3);

    println!("\nall kernel outputs agreed with the sequential ground truth");
}
