//! Synchronous message-passing simulator for the CONGEST and CONGESTED CLIQUE
//! models of distributed computing.
//!
//! The simulator is the substrate on which the clique-listing algorithms of
//! Censor-Hillel, Le Gall and Leitersdorf (PODC 2020) are executed and their
//! round complexity is measured.
//!
//! # Model
//!
//! In the **CONGEST** model the `n`-node input graph is also the communication
//! graph. Computation proceeds in synchronous rounds; in every round each node
//! may send a message of `O(log n)` bits over each of its incident edges.
//! In the **CONGESTED CLIQUE** model the communication graph is the complete
//! graph on the `n` nodes regardless of the input graph.
//!
//! The simulator enforces the bandwidth constraint: every directed edge can
//! carry at most [`NetworkConfig::bandwidth_words`] machine words (each word
//! standing for one `O(log n)`-bit message) per round. Messages submitted in
//! excess of the capacity are queued and delivered in later rounds, so an
//! algorithm that over-subscribes a link simply takes more rounds — exactly as
//! in the model.
//!
//! # Charged primitives
//!
//! The clique-listing paper invokes two black-box primitives with proven round
//! bounds (the expander decomposition of Chang et al. and the intra-cluster
//! routing of Ghaffari et al.). Those are accounted for with a [`CostLedger`]:
//! the data movement is performed by the caller, and the ledger is charged the
//! number of rounds the corresponding theorem guarantees for the observed
//! per-node load. Simulated rounds and charged rounds are reported separately
//! and summed into [`RoundReport::total_rounds`].
//!
//! # Parallel execution
//!
//! `Network::run_parallel` steps node programs on all cores while remaining
//! observationally identical to the sequential `Network::run` (same traces,
//! round counts and outputs); see the documentation on the parallel `impl`
//! block in [`network`].
//!
//! # Example
//!
//! ```
//! use congest::{Network, NetworkConfig, NodeProgram, Context, Status, Topology, NodeId};
//!
//! /// Every node learns the maximum identifier among its neighbours.
//! struct MaxOfNeighbours {
//!     best: u64,
//! }
//!
//! impl NodeProgram for MaxOfNeighbours {
//!     type Message = u64;
//!     fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
//!         let me = ctx.id().index() as u64;
//!         ctx.broadcast(me);
//!         self.best = me;
//!     }
//!     fn on_round(&mut self, _ctx: &mut Context<'_, u64>, incoming: &[(NodeId, u64)]) -> Status {
//!         for (_, v) in incoming {
//!             self.best = self.best.max(*v);
//!         }
//!         Status::Done
//!     }
//! }
//!
//! let topo = Topology::path(4);
//! let mut net = Network::new(topo, NetworkConfig::default(), |_id| MaxOfNeighbours { best: 0 });
//! let report = net.run(16);
//! assert!(report.simulated_rounds >= 1);
//! assert_eq!(net.program(congest::NodeId::new(1)).best, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clique;
pub mod cost;
pub mod faults;
pub mod metrics;
pub mod network;
pub mod node;
pub mod reliable;
pub mod rng;
pub mod topology;
pub mod trace;

pub use clique::CongestedClique;
pub use cost::{ChargePolicy, CostLedger, PrimitiveKind};
pub use faults::{FaultError, FaultPlan, FaultPlanBuilder};
pub use metrics::{LinkStats, Metrics, RoundReport};
pub use network::{Network, NetworkConfig, NetworkError};
pub use node::{Context, NodeId, NodeProgram, Status};
pub use reliable::{Packet, ReliableConfig, ReliableTransport, TransportStats};
pub use rng::DeterministicRng;
pub use topology::{Topology, TopologyError};
pub use trace::{MemorySink, NullSink, TraceEvent, TraceSink};

/// Number of bits assumed to fit into a single CONGEST message word.
///
/// The model allows `O(log n)` bits per message; the simulator treats one
/// "word" as one message. Payloads wider than a word must be split by the
/// caller (e.g. an edge `{u, v}` counts as two words).
pub const WORD_BITS: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_bits_is_sane() {
        // Compile-time check: a word must hold at least one 32-bit identifier.
        const { assert!(WORD_BITS >= 32) }
    }
}
