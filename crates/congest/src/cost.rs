//! Round accounting for black-box primitives with proven round bounds.
//!
//! The clique-listing algorithm uses two primitives whose distributed
//! implementations are taken as black boxes by the paper:
//!
//! * the expander decomposition of Chang, Pettie and Zhang (Theorem 2.3),
//!   which runs in `~O(n^{1-δ})` rounds, and
//! * intra-cluster routing in almost-mixing time (Theorem 2.4), which delivers
//!   any communication pattern where every cluster node sends and receives at
//!   most `O(n^δ · 2^{O(√log n)})` messages in `~O(2^{O(√log n)})` rounds.
//!
//! Re-deriving those constructions at message fidelity is out of scope for the
//! reproduction (see `DESIGN.md` §2); instead the caller performs the data
//! movement and charges the ledger with the round cost the corresponding
//! theorem guarantees for the observed load. The polylogarithmic factor hidden
//! in the `~O` notation is configurable via [`ChargePolicy`] so that the shape
//! of the measured curves can be shown to be robust to that choice.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which black-box primitive a charge corresponds to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PrimitiveKind {
    /// Expander decomposition construction (Theorem 2.3): `~O(n^{1-δ})` rounds.
    ExpanderDecomposition,
    /// Intra-cluster routing (Theorem 2.4): rounds proportional to
    /// `max_load / cluster_bandwidth`, up to polylog factors.
    IntraClusterRouting,
    /// Intra-cluster identifier assignment (Lemma 2.5): `O(polylog n)` rounds.
    ClusterIdAssignment,
    /// A direct broadcast over graph edges accounted analytically (used for
    /// phases whose load is uniform and therefore not worth simulating
    /// message-by-message).
    DirectExchange,
    /// Acknowledgement and retransmission overhead of the reliable transport
    /// ([`crate::reliable`]) — the extra words a lossy link costs on top of
    /// the fault-free schedule.
    ReliableTransport,
}

impl PrimitiveKind {
    /// Human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveKind::ExpanderDecomposition => "expander-decomposition",
            PrimitiveKind::IntraClusterRouting => "intra-cluster-routing",
            PrimitiveKind::ClusterIdAssignment => "cluster-id-assignment",
            PrimitiveKind::DirectExchange => "direct-exchange",
            PrimitiveKind::ReliableTransport => "reliable-transport",
        }
    }
}

/// Policy translating per-node loads into charged rounds.
///
/// The defaults follow the statements of the theorems with the
/// polylogarithmic factor instantiated as `log2(n)^polylog_exponent`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ChargePolicy {
    /// Exponent of the `log2(n)` factor applied to charged primitives
    /// (`0` disables the polylog factor entirely).
    pub polylog_exponent: u32,
    /// If true, the `2^{O(√log n)}` factor of Theorem 2.4 is also applied to
    /// routing charges. The paper argues (footnote 6) that this factor can be
    /// removed for the final complexities, so it defaults to `false`.
    pub apply_subpolynomial_factor: bool,
}

impl Default for ChargePolicy {
    fn default() -> Self {
        ChargePolicy {
            polylog_exponent: 1,
            apply_subpolynomial_factor: false,
        }
    }
}

impl ChargePolicy {
    /// A policy with no hidden factors at all: charges exactly
    /// `ceil(load / bandwidth)` rounds. Useful for ablations.
    pub fn bare() -> Self {
        ChargePolicy {
            polylog_exponent: 0,
            apply_subpolynomial_factor: false,
        }
    }

    /// The polylogarithmic factor for an `n`-node graph under this policy.
    pub fn polylog_factor(&self, n: usize) -> u64 {
        if self.polylog_exponent == 0 {
            return 1;
        }
        let log = (n.max(2) as f64).log2().ceil() as u64;
        log.saturating_pow(self.polylog_exponent).max(1)
    }

    /// The `2^{O(√log n)}` factor (with the constant in the exponent set to 1).
    pub fn subpolynomial_factor(&self, n: usize) -> u64 {
        if !self.apply_subpolynomial_factor {
            return 1;
        }
        let log = (n.max(2) as f64).log2();
        2f64.powf(log.sqrt()).ceil() as u64
    }

    /// Rounds charged for constructing a δ-expander decomposition on an
    /// `n`-node graph (Theorem 2.3): `~O(n^{1-δ})`.
    pub fn decomposition_rounds(&self, n: usize, delta: f64) -> u64 {
        let base = (n.max(2) as f64).powf(1.0 - delta).ceil() as u64;
        base.max(1) * self.polylog_factor(n)
    }

    /// Rounds charged for routing inside a cluster whose per-node bandwidth is
    /// `bandwidth` words per round, when the maximum number of words any node
    /// must send or receive is `max_load` (Theorem 2.4).
    pub fn routing_rounds(&self, n: usize, max_load: u64, bandwidth: u64) -> u64 {
        let bandwidth = bandwidth.max(1);
        let base = max_load.div_ceil(bandwidth).max(1);
        base * self.polylog_factor(n) * self.subpolynomial_factor(n)
    }

    /// Rounds charged for the intra-cluster ID assignment of Lemma 2.5.
    pub fn id_assignment_rounds(&self, n: usize) -> u64 {
        self.polylog_factor(n).max(1)
    }
}

/// Accumulates charged rounds, broken down by primitive.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CostLedger {
    charges: BTreeMap<PrimitiveKind, u64>,
    total: u64,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charges `rounds` rounds to `kind`.
    pub fn charge(&mut self, kind: PrimitiveKind, rounds: u64) {
        *self.charges.entry(kind).or_insert(0) += rounds;
        self.total += rounds;
    }

    /// Total charged rounds.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rounds charged to a particular primitive.
    pub fn for_kind(&self, kind: PrimitiveKind) -> u64 {
        self.charges.get(&kind).copied().unwrap_or(0)
    }

    /// Iterates over `(primitive, rounds)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (PrimitiveKind, u64)> + '_ {
        self.charges.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another ledger into this one.
    pub fn absorb(&mut self, other: &CostLedger) {
        for (kind, rounds) in other.iter() {
            self.charge(kind, rounds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_has_polylog() {
        let p = ChargePolicy::default();
        assert_eq!(p.polylog_factor(1024), 10);
        assert_eq!(p.subpolynomial_factor(1024), 1);
    }

    #[test]
    fn bare_policy_is_exact() {
        let p = ChargePolicy::bare();
        assert_eq!(p.routing_rounds(1 << 20, 100, 10), 10);
        assert_eq!(p.routing_rounds(1 << 20, 101, 10), 11);
        assert_eq!(p.routing_rounds(1 << 20, 0, 10), 1);
    }

    #[test]
    fn decomposition_rounds_scale_with_delta() {
        let p = ChargePolicy::bare();
        let loose = p.decomposition_rounds(10_000, 0.25);
        let tight = p.decomposition_rounds(10_000, 0.75);
        assert!(loose > tight);
        assert_eq!(tight, 10); // 10000^{0.25} = 10
    }

    #[test]
    fn ledger_accumulates() {
        let mut ledger = CostLedger::new();
        ledger.charge(PrimitiveKind::IntraClusterRouting, 5);
        ledger.charge(PrimitiveKind::IntraClusterRouting, 7);
        ledger.charge(PrimitiveKind::ExpanderDecomposition, 3);
        assert_eq!(ledger.total(), 15);
        assert_eq!(ledger.for_kind(PrimitiveKind::IntraClusterRouting), 12);
        assert_eq!(ledger.for_kind(PrimitiveKind::ClusterIdAssignment), 0);

        let mut other = CostLedger::new();
        other.charge(PrimitiveKind::ClusterIdAssignment, 2);
        ledger.absorb(&other);
        assert_eq!(ledger.total(), 17);
        assert_eq!(ledger.iter().count(), 3);
    }

    #[test]
    fn primitive_names_are_distinct() {
        let kinds = [
            PrimitiveKind::ExpanderDecomposition,
            PrimitiveKind::IntraClusterRouting,
            PrimitiveKind::ClusterIdAssignment,
            PrimitiveKind::DirectExchange,
            PrimitiveKind::ReliableTransport,
        ];
        let names: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}
