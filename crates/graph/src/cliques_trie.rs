//! The induced-subgraph-trie enumeration kernel (DIST-style) and the rule by
//! which a [`CliqueIndex`](super::CliqueIndex) picks between it and the
//! classic recursive kernel.
//!
//! The recursive kernel of [`super`] re-intersects every candidate set
//! against global CSR rows (or global adjacency bitsets): each node of the
//! search tree pays `O(|C|)` probes into an `n`-bit row. The trie kernel
//! instead *materialises* the induced subgraph of a root's candidate set
//! once — a dense local re-labelling `0..k` with one `⌈k/64⌉`-word
//! upper-triangular adjacency row per candidate (row `u` holds only the
//! neighbours above `u`) — and represents every deeper candidate set as a
//! word mask over those local ids. The whole subtree below the root (the
//! trie of clique prefixes starting at that root) then reuses the one
//! materialisation: a child candidate set is one AND per word
//! (`current & row(u)`) instead of `O(|C|)` probes. Since `k` is bounded by
//! the degeneracy, the masks are a handful of words on real graphs.
//!
//! On top of the masks sits a pivot rule in the Bron–Kerbosch spirit,
//! restricted to the only case where skipping recursion cannot perturb the
//! emission order: when the *entire* candidate set is a clique (the pivot —
//! the first vertex of the scan — and every other member see all `|C| - 1`
//! others), every subset completes, so the kernel emits the
//! `C(|C|, needed)` combinations directly in lexicographic order — exactly
//! the order the recursion would have produced — without building any child
//! masks. The check scans masked row popcounts and exits at the first
//! witness vertex missing a later neighbour, so failed checks cost one row
//! scan, not `|C|`.
//!
//! Byte-identity is the contract: local ids are assigned in ascending global
//! order and masks are iterated in ascending bit order, so the emission
//! sequence (and therefore every early-stop prefix and every serialised
//! report downstream) is identical to the recursive kernel's. The kernel
//! differential battery in `tests/kernel_differential.rs` enforces this over
//! clique sizes, workload families, seeds and thread grants.
//!
//! Which kernel runs is not an option: the index picks it once, at build
//! time, by the degeneracy rule documented on [`KernelChoice`], and only
//! tests and benches force the other one. See `DESIGN.md` §14 for the trie layout, the memory-budget
//! interaction with the global bitset table, and the selection rule.

use super::NeighborBitsets;
use crate::graph::Graph;
use crate::orientation::OrientedDag;
use serde::{Deserialize, Serialize};

/// Which enumeration kernel drives the ordered clique search.
///
/// The choice controls only *wall-clock* behaviour: both kernels emit the
/// same cliques in the same order, byte for byte (the kernel differential
/// battery holds them to that). [`CliqueIndex::build`](super::CliqueIndex::build)
/// makes it once per graph: the trie from a degeneracy of
/// [`AUTO_TRIE_DEGENERACY`] on, as long as the largest candidate set's node
/// fits [`TRIE_NODE_WORD_BUDGET`], and the recursive kernel otherwise. Dense
/// graphs, where the materialisation amortises over a deep subtree, get the
/// trie; sparse graphs, where candidate sets are tiny and the local
/// re-labelling would dominate, keep the recursive kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelChoice {
    /// The classic per-root recursive kernel: sorted-merge / global-bitset
    /// candidate intersections, no per-root materialisation.
    Recursive,
    /// The induced-subgraph-trie kernel: materialise each root's candidate
    /// subgraph once, run the subtree on local word masks, emit complete
    /// candidate sets as combination blocks.
    Trie,
}

/// Degeneracy at or above which an index picks the trie kernel.
///
/// The materialisation of one root costs `k²/2` adjacency probes for a
/// candidate set of size `k` (folded 64 to a stored word when the members
/// have global bitset rows); the subtree below it has up to `k^{p-2}` nodes
/// that each save `Ω(k)` probe work. Below ~32 candidates the saved probes
/// fit in a couple of cache lines anyway and the re-labelling overhead wins;
/// from a few dozen candidates onward the masks win clearly (see the
/// `kernel-sweep` bench leg).
pub const AUTO_TRIE_DEGENERACY: usize = 32;

/// Word budget for a single materialised trie node (`k` rows of `⌈k/64⌉`
/// words). The same 16 MiB ceiling as the global bitset table
/// (`BITSET_WORD_BUDGET`): a candidate set too large to materialise under it
/// falls back to the recursive kernel, which needs no per-root storage —
/// output is identical either way, so the fallback is purely a memory
/// decision.
pub const TRIE_NODE_WORD_BUDGET: usize = 1 << 21;

impl KernelChoice {
    /// The kernel an index picks for a graph of degeneracy `degeneracy`
    /// whose largest candidate set has `largest` members: the trie from
    /// [`AUTO_TRIE_DEGENERACY`] on, the recursive kernel below it, and the
    /// recursive kernel whenever the trie's node would overflow
    /// [`TRIE_NODE_WORD_BUDGET`]. Pure and host-independent, so every build
    /// of the same graph picks the same kernel on every machine.
    pub(crate) fn for_graph(degeneracy: usize, largest: usize) -> KernelChoice {
        let wanted = if degeneracy >= AUTO_TRIE_DEGENERACY {
            KernelChoice::Trie
        } else {
            KernelChoice::Recursive
        };
        wanted.within_budget(largest)
    }

    /// `self`, except that a trie whose node of `largest` members would
    /// overflow [`TRIE_NODE_WORD_BUDGET`] runs the recursive kernel.
    pub(crate) fn within_budget(self, largest: usize) -> KernelChoice {
        match self {
            KernelChoice::Trie if node_fits_budget(largest) => KernelChoice::Trie,
            _ => KernelChoice::Recursive,
        }
    }

    /// Stable lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            KernelChoice::Recursive => "recursive",
            KernelChoice::Trie => "trie",
        }
    }
}

impl std::fmt::Display for KernelChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One materialised trie node: the induced subgraph of a candidate set,
/// re-labelled to dense local ids `0..k` (ascending global order, so local
/// bit order equals global emission order) with one packed upper-triangular
/// row per member. Reused across roots — `materialize` only grows the
/// buffers.
pub(crate) struct InducedNode {
    /// Members of the candidate set, ascending global ids.
    verts: Vec<u32>,
    /// Words per local adjacency row: `⌈verts.len()/64⌉`.
    stride: usize,
    /// `verts.len()` packed rows of `stride` words each; bit `j` of row `i`
    /// is set iff `j > i` and `verts[i]` and `verts[j]` are adjacent in the
    /// host graph. Every pair is stored once, in the row of its lower id.
    rows: Vec<u64>,
}

impl InducedNode {
    pub(crate) fn new() -> Self {
        InducedNode {
            verts: Vec::new(),
            stride: 0,
            rows: Vec::new(),
        }
    }

    /// Builds the induced subgraph of `verts` (sorted ascending, no
    /// duplicates), one row at a time. A member with a global bitset row
    /// folds up to 64 probes into each word without branching and stores the
    /// word once; a member without one walks its CSR row in a sorted merge.
    pub(crate) fn materialize(&mut self, graph: &Graph, bitsets: &NeighborBitsets, verts: &[u32]) {
        let k = verts.len();
        self.verts.clear();
        self.verts.extend_from_slice(verts);
        self.stride = k.div_ceil(64);
        self.rows.clear();
        self.rows.resize(k * self.stride, 0);
        for (i, &u) in verts.iter().enumerate() {
            let out = &mut self.rows[i * self.stride..(i + 1) * self.stride];
            if let Some(row) = bitsets.row(u) {
                for (wi, slot) in out.iter_mut().enumerate().skip((i + 1) >> 6) {
                    let lo = (wi << 6).max(i + 1);
                    let mut word = 0u64;
                    for (j, &w) in (lo..).zip(&verts[lo..k.min((wi + 1) << 6)]) {
                        word |= (row[w as usize >> 6] >> (w & 63) & 1) << (j & 63);
                    }
                    *slot = word;
                }
            } else {
                let nbrs = graph.neighbors(u);
                let (mut a, mut b) = (i + 1, 0usize);
                while a < k && b < nbrs.len() {
                    match verts[a].cmp(&nbrs[b]) {
                        std::cmp::Ordering::Less => a += 1,
                        std::cmp::Ordering::Greater => b += 1,
                        std::cmp::Ordering::Equal => {
                            out[a >> 6] |= 1u64 << (a & 63);
                            a += 1;
                            b += 1;
                        }
                    }
                }
            }
        }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.stride..(i + 1) * self.stride]
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.verts.len()
    }
}

/// All per-enumeration scratch of the trie kernel: the one materialised node
/// plus the per-depth mask arena and the combination buffers. One kernel per
/// concurrent enumeration (a shard, a full listing, a count);
/// nothing is shared, so `&CliqueIndex` callers stay `Sync`.
pub(crate) struct TrieKernel {
    node: InducedNode,
    /// Flat per-depth mask arena: `needed` levels of `stride` words, resized
    /// per root.
    masks: Vec<u64>,
    /// Set-bit positions of a complete candidate set (combination emission).
    bits: Vec<u32>,
    /// Current combination indices into `bits`.
    combo: Vec<u32>,
}

impl TrieKernel {
    pub(crate) fn new() -> Self {
        TrieKernel {
            node: InducedNode::new(),
            masks: Vec::new(),
            bits: Vec::new(),
            combo: Vec::new(),
        }
    }

    /// Trie-kernel counterpart of the recursive `enumerate_roots`: same root
    /// loop, same skip condition, byte-identical emission order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn enumerate_roots(
        &mut self,
        graph: &Graph,
        bitsets: &NeighborBitsets,
        dag: &OrientedDag,
        p: usize,
        roots: &[u32],
        stack: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
        visit: &mut impl FnMut(&[u32]) -> bool,
    ) -> bool {
        for &v in roots {
            let candidates = dag.out_neighbors(v);
            if candidates.len() + 1 < p {
                continue;
            }
            stack.push(v);
            self.node.materialize(graph, bitsets, candidates);
            let keep_going = self.descend_full(p, stack, scratch, visit);
            stack.pop();
            if !keep_going {
                return false;
            }
        }
        true
    }

    /// Count-only counterpart of [`TrieKernel::enumerate_roots`]: the number
    /// of `p`-cliques rooted in `roots`, or `None` when it does not fit in a
    /// `u64`. Visits no clique (see [`count_descend`]).
    pub(crate) fn count_roots(
        &mut self,
        graph: &Graph,
        bitsets: &NeighborBitsets,
        dag: &OrientedDag,
        p: usize,
        roots: &[u32],
    ) -> Option<u64> {
        let mut total = 0u64;
        for &v in roots {
            let candidates = dag.out_neighbors(v);
            if candidates.len() + 1 < p {
                continue;
            }
            self.node.materialize(graph, bitsets, candidates);
            self.fill_full_mask(p - 1);
            total = total.checked_add(count_descend(&self.node, p - 1, &mut self.masks)?)?;
        }
        Some(total)
    }

    /// Sizes the mask arena for `needed` levels and sets the first level to
    /// every member of the materialised node.
    fn fill_full_mask(&mut self, needed: usize) {
        let k = self.node.len();
        let stride = self.node.stride;
        self.masks.clear();
        self.masks.resize(needed * stride, 0);
        for w in 0..stride {
            self.masks[w] = u64::MAX;
        }
        if !k.is_multiple_of(64) && stride > 0 {
            self.masks[stride - 1] = u64::MAX >> (64 - (k % 64));
        }
    }

    /// Runs the masked search over the *whole* materialised node (full
    /// initial mask). The stack already holds the clique prefix.
    pub(crate) fn descend_full(
        &mut self,
        p: usize,
        stack: &mut Vec<u32>,
        scratch: &mut Vec<u32>,
        visit: &mut impl FnMut(&[u32]) -> bool,
    ) -> bool {
        self.fill_full_mask(p - stack.len());
        descend(
            &self.node,
            p,
            &mut self.masks,
            stack,
            &mut self.bits,
            &mut self.combo,
            scratch,
            visit,
        )
    }
}

/// Whether a candidate set of `k` members fits the per-node word budget.
fn node_fits_budget(k: usize) -> bool {
    k.saturating_mul(k.div_ceil(64)) <= TRIE_NODE_WORD_BUDGET
}

/// The masked recursion. `masks` holds the current level's candidate mask in
/// its first `stride` words and the deeper levels' buffers behind it (one
/// `split_at_mut` per level, mirroring the recursive kernel's arena split).
/// Emission order, prune behaviour and early-stop semantics are exactly the
/// recursive kernel's; see the module docs for the order argument.
#[allow(clippy::too_many_arguments)]
fn descend(
    node: &InducedNode,
    p: usize,
    masks: &mut [u64],
    stack: &mut Vec<u32>,
    bits: &mut Vec<u32>,
    combo: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
    visit: &mut impl FnMut(&[u32]) -> bool,
) -> bool {
    let stride = node.stride;
    let (current, deeper) = masks.split_at_mut(stride);
    let needed = p - stack.len();
    // Count of candidates not yet iterated past (including the one about to
    // be processed) — the masked analogue of `candidates.len() - i`.
    let mut remaining: usize = current.iter().map(|w| w.count_ones() as usize).sum();
    if remaining < needed {
        return true;
    }
    let completing = stack.len() + 1 == p;
    // Pivot shortcut: when the candidate set is itself a clique, every
    // `needed`-subset completes, in exactly lexicographic (= DFS) order.
    if !completing && is_complete(node, current, remaining) {
        return emit_combinations(node, current, needed, stack, bits, combo, scratch, visit);
    }
    for wi in 0..stride {
        let mut word = current[wi];
        while word != 0 {
            if remaining < needed {
                return true;
            }
            let i = (wi << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            remaining -= 1;
            stack.push(node.verts[i]);
            let keep_going = if completing {
                scratch.clear();
                scratch.extend_from_slice(stack);
                scratch.sort_unstable();
                visit(scratch)
            } else {
                child_mask(current, node.row(i), &mut deeper[..stride]);
                descend(node, p, deeper, stack, bits, combo, scratch, visit)
            };
            stack.pop();
            if !keep_going {
                return false;
            }
        }
    }
    true
}

/// Count-only counterpart of [`descend`]: the number of `needed`-cliques
/// inside the masked candidate set, or `None` when it overflows `u64`.
/// Nothing is visited: the last level is the mask's popcount, the level
/// above it is the number of edges inside the set (`Σ popcount(C & row(i))`
/// over the members `i`, each edge counted once from its lower endpoint's
/// upper-triangular row), and a complete set contributes
/// `C(|C|, needed)` directly — the count the combination shortcut of
/// [`descend`] would have emitted one by one.
fn count_descend(node: &InducedNode, needed: usize, masks: &mut [u64]) -> Option<u64> {
    let stride = node.stride;
    let (current, deeper) = masks.split_at_mut(stride);
    let k: usize = current.iter().map(|w| w.count_ones() as usize).sum();
    if k < needed {
        return Some(0);
    }
    match needed {
        1 => return Some(k as u64),
        2 => {
            let mut edges = 0u64;
            for (wi, &mword) in current.iter().enumerate() {
                let mut word = mword;
                while word != 0 {
                    let row = node.row((wi << 6) + word.trailing_zeros() as usize);
                    word &= word - 1;
                    for (&r, &m) in row.iter().zip(current.iter()) {
                        edges += u64::from((r & m).count_ones());
                    }
                }
            }
            return Some(edges);
        }
        _ => {}
    }
    if is_complete(node, current, k) {
        return binomial(k, needed);
    }
    let mut total = 0u64;
    let mut remaining = k;
    for wi in 0..stride {
        let mut word = current[wi];
        while word != 0 {
            // The visiting search's prune: too few candidates remain.
            if remaining < needed {
                return Some(total);
            }
            let i = (wi << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            remaining -= 1;
            child_mask(current, node.row(i), &mut deeper[..stride]);
            total = total.checked_add(count_descend(node, needed - 1, deeper)?)?;
        }
    }
    Some(total)
}

/// `C(n, r)`, or `None` when it does not fit in a `u64`.
///
/// Multiplies up `C(n, i + 1) = C(n, i) · (n - i) / (i + 1)`, exact at every
/// step, in `u128` over `i < min(r, n - r)`. Those partial binomials only
/// grow, so the first one past `u64::MAX` proves the result overflows too.
fn binomial(n: usize, r: usize) -> Option<u64> {
    if r > n {
        return Some(0);
    }
    let mut acc = 1u64;
    for i in 0..r.min(n - r) {
        acc = u64::try_from(u128::from(acc) * (n - i) as u128 / (i + 1) as u128).ok()?;
    }
    Some(acc)
}

/// Writes `current ∩ row` into `out` — the deeper candidate set after
/// committing to the local vertex that owns `row`. The row already holds
/// only the ids above its owner.
#[inline]
fn child_mask(current: &[u64], row: &[u64], out: &mut [u64]) {
    for ((o, &c), &r) in out.iter_mut().zip(current).zip(row) {
        *o = c & r;
    }
}

/// Whether the masked candidate set (of popcount `k`) induces a complete
/// subgraph: every member's masked row holds every mask bit above it, so the
/// `m`-th member in ascending order sees `k - 1 - m` of them. The scan order
/// doubles as the pivot rule — the first member missing a later neighbour is
/// the witness and aborts the scan, so failures cost one row.
fn is_complete(node: &InducedNode, mask: &[u64], k: usize) -> bool {
    let mut above = k;
    for (wi, &mword) in mask.iter().enumerate() {
        let mut word = mword;
        while word != 0 {
            let i = (wi << 6) + word.trailing_zeros() as usize;
            word &= word - 1;
            above -= 1;
            let row = node.row(i);
            let mut seen = 0usize;
            for (&r, &m) in row.iter().zip(mask).skip(wi) {
                seen += (r & m).count_ones() as usize;
            }
            if seen != above {
                return false;
            }
        }
    }
    true
}

/// Emits every `needed`-subset of the (complete) masked candidate set in
/// lexicographic local-id order — the exact order the recursion would have
/// produced — honouring the visitor's early stop.
#[allow(clippy::too_many_arguments)]
fn emit_combinations(
    node: &InducedNode,
    mask: &[u64],
    needed: usize,
    stack: &[u32],
    bits: &mut Vec<u32>,
    combo: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
    visit: &mut impl FnMut(&[u32]) -> bool,
) -> bool {
    bits.clear();
    for (wi, &mword) in mask.iter().enumerate() {
        let mut word = mword;
        while word != 0 {
            bits.push(((wi << 6) + word.trailing_zeros() as usize) as u32);
            word &= word - 1;
        }
    }
    let k = bits.len();
    debug_assert!(needed >= 2 && k >= needed);
    combo.clear();
    combo.extend(0..needed as u32);
    loop {
        scratch.clear();
        scratch.extend_from_slice(stack);
        for &c in combo.iter() {
            scratch.push(node.verts[bits[c as usize] as usize]);
        }
        scratch.sort_unstable();
        if !visit(scratch) {
            return false;
        }
        // Advance to the next lexicographic combination.
        let mut idx = needed;
        loop {
            if idx == 0 {
                return true;
            }
            idx -= 1;
            if (combo[idx] as usize) < k - (needed - idx) {
                break;
            }
        }
        combo[idx] += 1;
        for j in (idx + 1)..needed {
            combo[j] = combo[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn materialised_node_mirrors_the_host_adjacency() {
        let g = gen::erdos_renyi(70, 0.3, 5);
        let bitsets = NeighborBitsets::none(g.num_vertices());
        let verts: Vec<u32> = (10..40u32).collect();
        let mut node = InducedNode::new();
        node.materialize(&g, &bitsets, &verts);
        assert_eq!(node.len(), verts.len());
        for (i, &u) in verts.iter().enumerate() {
            for (j, &w) in verts.iter().enumerate() {
                let bit = node.row(i)[j >> 6] >> (j & 63) & 1 == 1;
                assert_eq!(bit, j > i && g.has_edge(u, w), "{u}-{w}");
            }
        }
    }

    /// The three row sources a member can meet: a global bitset row for
    /// every vertex, for about half of them (the rest merge), and for none.
    fn row_sources(g: &Graph) -> [(&'static str, NeighborBitsets); 3] {
        let mean_degree = g.num_edges() * 2 / g.num_vertices();
        [
            ("bitset rows", NeighborBitsets::build(g, 1)),
            ("mixed", NeighborBitsets::build(g, mean_degree)),
            ("merges", NeighborBitsets::none(g.num_vertices())),
        ]
    }

    /// `k` members spread over the whole id range, so one local word draws
    /// its probes from several global bitset words.
    fn spread_members(g: &Graph, k: usize) -> Vec<u32> {
        let n = g.num_vertices();
        (0..k).map(|i| (i * n / k) as u32).collect()
    }

    #[test]
    fn node_rows_are_upper_triangular_from_every_row_source() {
        let g = gen::erdos_renyi(300, 0.3, 11);
        for (source, bitsets) in row_sources(&g) {
            for k in [1usize, 63, 64, 65, 128, 129] {
                let verts = spread_members(&g, k);
                let mut node = InducedNode::new();
                node.materialize(&g, &bitsets, &verts);
                assert_eq!(node.len(), k);
                assert_eq!(node.row(0).len(), k.div_ceil(64), "{source}, k={k}");
                for (i, &u) in verts.iter().enumerate() {
                    // Every bit of the row, padding past `k` included.
                    for j in 0..node.stride * 64 {
                        let bit = node.row(i)[j >> 6] >> (j & 63) & 1 == 1;
                        let want = verts.get(j).is_some_and(|&w| j > i && g.has_edge(u, w));
                        assert_eq!(bit, want, "{source}, k={k}: row {i}, bit {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn completeness_agrees_with_a_pairwise_check_on_random_masks() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        // A sparse and a near-complete host: greedy cliques in the second
        // span all three words of a 129-member node.
        for g in [
            gen::erdos_renyi(300, 0.3, 3),
            gen::erdos_renyi(200, 0.97, 4),
        ] {
            let (mut complete, mut incomplete) = (0, 0);
            for (source, bitsets) in row_sources(&g) {
                for k in [1usize, 63, 64, 65, 128, 129] {
                    let verts = spread_members(&g, k);
                    let mut node = InducedNode::new();
                    node.materialize(&g, &bitsets, &verts);
                    for trial in 0..40 {
                        let mut members: Vec<usize> =
                            (0..k).filter(|_| rng.gen_bool(0.5)).collect();
                        if trial % 2 == 0 {
                            // Greedy clique, then at most one intruder.
                            let mut clique: Vec<usize> = Vec::new();
                            for &j in &members {
                                if clique.iter().all(|&i| g.has_edge(verts[i], verts[j])) {
                                    clique.push(j);
                                }
                            }
                            if trial % 4 == 0 {
                                clique.push(rng.gen_range(0..k));
                                clique.sort_unstable();
                                clique.dedup();
                            }
                            members = clique;
                        }
                        let mut mask = vec![0u64; node.stride];
                        for &j in &members {
                            mask[j >> 6] |= 1u64 << (j & 63);
                        }
                        let pairwise = members.iter().enumerate().all(|(a, &i)| {
                            members[a + 1..]
                                .iter()
                                .all(|&j| g.has_edge(verts[i], verts[j]))
                        });
                        if pairwise {
                            complete += 1;
                        } else {
                            incomplete += 1;
                        }
                        assert_eq!(
                            is_complete(&node, &mask, members.len()),
                            pairwise,
                            "{source}, k={k}, trial {trial}: {members:?}"
                        );
                    }
                }
            }
            assert!(complete > 20 && incomplete > 20, "{complete}/{incomplete}");
        }
    }

    #[test]
    fn binomials_are_exact_up_to_u64_and_none_past_it() {
        assert_eq!(binomial(5, 7), Some(0));
        assert_eq!(binomial(0, 0), Some(1));
        assert_eq!(binomial(12, 4), Some(495));
        // The symmetric form never passes through C(70, 35).
        assert_eq!(binomial(70, 69), Some(70));
        // The naive u64 recurrence wraps on this one.
        assert_eq!(binomial(66, 33), Some(7_219_428_434_016_265_740));
        assert_eq!(binomial(67, 33), Some(14_226_520_737_620_288_370));
        assert_eq!(binomial(68, 34), None);
        assert_eq!(binomial(70, 35), None);
    }

    #[test]
    fn node_budget_guard() {
        assert!(node_fits_budget(0));
        assert!(node_fits_budget(1000));
        assert!(!node_fits_budget(100_000));
    }

    #[test]
    fn resolution_is_pure_in_strategy_and_degeneracy() {
        // A forced kernel keeps itself whatever the graph (inside the node
        // budget); the index's own pick flips at AUTO_TRIE_DEGENERACY.
        assert_eq!(
            KernelChoice::Recursive.within_budget(10_000),
            KernelChoice::Recursive
        );
        assert_eq!(KernelChoice::Trie.within_budget(0), KernelChoice::Trie);
        let below = AUTO_TRIE_DEGENERACY - 1;
        assert_eq!(
            KernelChoice::for_graph(below, below),
            KernelChoice::Recursive
        );
        assert_eq!(
            KernelChoice::for_graph(AUTO_TRIE_DEGENERACY, AUTO_TRIE_DEGENERACY),
            KernelChoice::Trie
        );
    }

    #[test]
    fn complete_candidate_sets_emit_combination_blocks() {
        // A complete graph: every root's candidate set is a clique, so the
        // pivot shortcut covers the whole enumeration and must reproduce the
        // recursive kernel's order exactly.
        let g = gen::complete_graph(12);
        for p in [3usize, 4, 5] {
            let mut recursive = Vec::new();
            super::super::for_each_clique(&g, p, |c| recursive.push(c.to_vec()));
            let index = super::super::CliqueIndex::build(&g);
            let mut trie = Vec::new();
            assert!(
                index.for_each_clique_while_forced(&g, p, KernelChoice::Trie, |c| {
                    trie.push(c.to_vec());
                    true
                })
            );
            assert_eq!(trie, recursive, "p={p}");
        }
    }
}
