//! Expander decomposition substrate for CONGEST clique listing.
//!
//! The clique-listing algorithms of Censor-Hillel, Le Gall and Leitersdorf
//! (PODC 2020) consume the δ-expander decomposition interface of Chang, Pettie
//! and Zhang (Definition 2.2 of the paper): the edge set is split into
//! `E = E_m ∪ E_s ∪ E_r` where
//!
//! * every connected component of `E_m` with more than one node is an
//!   `n^δ`-**cluster** — all its nodes have `E_m`-degree `Ω(n^δ)` and the
//!   component mixes in polylogarithmic time;
//! * `E_s` has arboricity at most `n^δ` and comes with an orientation of
//!   out-degree at most `n^δ`;
//! * `E_r` contains at most `|E|/6` leftover edges, to be handled by later
//!   iterations of the calling algorithm.
//!
//! This crate builds such a decomposition ([`decomposition::decompose`]),
//! validates its guarantees ([`decomposition::Decomposition::verify`]),
//! assigns per-cluster dense identifiers (Lemma 2.5, [`ids`]) and provides the
//! load-accounted intra-cluster router of Theorem 2.4 ([`routing`]).
//!
//! The construction itself is a sequential peeling + sweep-cut procedure whose
//! *round cost* is charged according to Theorem 2.3 (`~O(n^{1-δ})`); see
//! `DESIGN.md` §2 for the substitution argument.
//!
//! # Example
//!
//! ```
//! use expander::{decompose, DecompositionConfig};
//! use graphcore::gen;
//!
//! let graph = gen::erdos_renyi(200, 0.3, 7);
//! let decomposition = decompose(&graph, 0.5, &DecompositionConfig::default(), 1);
//! decomposition.verify(&graph).expect("decomposition guarantees hold");
//! assert!(decomposition.er.len() <= graph.num_edges() / 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod decomposition;
pub mod ids;
pub mod routing;

pub use cluster::Cluster;
pub use decomposition::{
    decompose, decompose_sorted, Decomposition, DecompositionConfig, SortedDecomposition, Violation,
};
pub use ids::{ClusterIds, DenseTable, PairTable};
pub use routing::{ClusterRouter, RoutingOutcome};
