//! The trivial broadcast baseline: every node sends its full neighbourhood to
//! every neighbour and lists the cliques it sees. `Θ(Δ)` rounds in CONGEST.
//!
//! The analytic baseline is reached through the [`Engine`](crate::Engine)
//! (algorithm `naive-broadcast`); [`simulate_naive_broadcast`] additionally
//! runs the same protocol message-by-message on the `congest` simulator and
//! is the validation path for the analytic round count.

use crate::config::ListingConfig;
use crate::result::{phase, ListingResult, Rounds};
use crate::sink::CliqueSink;
use congest::{
    Context, FaultPlan, MemorySink, Network, NetworkConfig, NodeId, NodeProgram, Packet,
    ReliableTransport, RoundReport, Status, Topology, TraceEvent, TransportStats,
};
use graphcore::{cliques, Graph};
use std::collections::HashSet;
use std::sync::Arc;

/// Number of CONGEST rounds the naive broadcast takes on `graph`: the maximum
/// degree (each edge must carry one identifier per neighbour of its endpoint,
/// pipelined one per round).
pub fn naive_broadcast_rounds(graph: &Graph) -> u64 {
    graph.max_degree() as u64
}

/// Runs the naive baseline analytically: charges `Δ` rounds and emits the
/// full listing into `sink` (every clique is seen by each of its members,
/// since a member learns all edges among its neighbours). Also returns the
/// worker fan-out the local enumeration actually reached.
pub(crate) fn run_streaming(
    graph: &Graph,
    config: &ListingConfig,
    sink: &mut dyn CliqueSink,
) -> (Rounds, usize) {
    let mut rounds = Rounds::new();
    if graph.num_edges() == 0 {
        return (rounds, 1);
    }
    rounds.add(phase::FINAL_BROADCAST, naive_broadcast_rounds(graph));
    // After the broadcast every node knows its closed neighbourhood's edges,
    // so the union of node outputs is one dense local enumeration — the
    // engine may shard it across threads without changing the output.
    let threads_used = crate::local::stream_cliques(graph, config, sink);
    (rounds, threads_used)
}

/// Runs the message-level naive broadcast ([`NaiveBroadcastProgram`]) on the
/// CONGEST topology of `graph` and returns the simulator report together with
/// the union of the node outputs.
///
/// This is the simulated counterpart of the analytic `naive-broadcast`
/// engine algorithm; the two must agree on the listing, and the simulated
/// round count matches [`naive_broadcast_rounds`] up to `O(1)` start-up
/// slack. Node programs are stepped on all cores by `congest`'s
/// deterministic parallel executor, which is what makes large-`n`
/// simulations tractable.
pub fn simulate_naive_broadcast(
    graph: &Graph,
    p: usize,
    max_rounds: u64,
) -> (RoundReport, ListingResult) {
    let topology = Topology::from_edge_list(graph.num_vertices(), graph.edges());
    let mut net = Network::new(topology, NetworkConfig::default(), |_| {
        NaiveBroadcastProgram::new(p)
    });
    let report = net.run_parallel(max_rounds);

    let mut result = ListingResult::new();
    result
        .rounds
        .add(phase::FINAL_BROADCAST, report.simulated_rounds);
    for program in net.into_programs() {
        for clique in program.listed {
            result.cliques.insert(clique);
        }
    }
    (report, result)
}

/// Everything a fault-injected message-level run produced: the simulator
/// report, the (possibly partial) listing, the aggregated transport counters
/// and the number of messages the fault plan destroyed in flight.
#[derive(Clone, Debug)]
pub struct FaultySimulation {
    /// The simulator's round report.
    pub report: RoundReport,
    /// Rounds plus the union of node listings (partial if transports gave up
    /// or nodes crash-stopped).
    pub result: ListingResult,
    /// Transport counters summed across every node.
    pub transport: TransportStats,
    /// Messages destroyed in flight by the fault plan (sum of the
    /// [`TraceEvent::Dropped`] events).
    pub dropped_messages: u64,
}

/// Runs the naive broadcast message-by-message under `plan`, with every node
/// wrapping its sends in a [`ReliableTransport`] endpoint.
///
/// This is the fault-model counterpart of [`simulate_naive_broadcast`]: the
/// same protocol, but each neighbour-identifier broadcast goes through the
/// ack/retransmit transport, so listings survive seeded message loss —
/// byte-identical to the fault-free listing, at the cost of the extra rounds
/// and overhead words recorded in the returned [`FaultySimulation`]. The run
/// is deterministic in `(graph, p, plan)`: the fault decisions are
/// content-addressed by `(round, link)` and the transport holds no
/// randomness, so repeated runs (and parallel-executor runs) replay exactly.
///
/// # Panics
///
/// Panics if `plan` references nodes or links outside the graph's topology.
pub fn simulate_naive_broadcast_with_faults(
    graph: &Graph,
    p: usize,
    max_rounds: u64,
    plan: FaultPlan,
) -> FaultySimulation {
    let topology = Topology::from_edge_list(graph.num_vertices(), graph.edges());
    let mut net = Network::new(topology, NetworkConfig::default(), |_| {
        ReliableNaiveBroadcastProgram::new(p)
    });
    net.set_fault_plan(plan)
        .unwrap_or_else(|e| panic!("fault plan does not fit the topology: {e}"));
    let sink = Arc::new(MemorySink::new());
    net.set_trace_sink(sink.clone());
    let report = net.run_parallel(max_rounds);

    let mut result = ListingResult::new();
    result
        .rounds
        .add(phase::FINAL_BROADCAST, report.simulated_rounds);
    let mut transport = TransportStats::default();
    for program in net.into_programs() {
        transport.absorb(&program.transport.stats());
        for clique in program.listed {
            result.cliques.insert(clique);
        }
    }
    let dropped_messages = sink
        .events()
        .iter()
        .map(|e| match e {
            TraceEvent::Dropped { messages, .. } => *messages,
            _ => 0,
        })
        .sum();
    FaultySimulation {
        report,
        result,
        transport,
        dropped_messages,
    }
}

/// The message-level naive broadcast with every send wrapped in a
/// [`ReliableTransport`] endpoint: the fault-tolerant twin of
/// [`NaiveBroadcastProgram`], used by [`simulate_naive_broadcast_with_faults`].
pub struct ReliableNaiveBroadcastProgram {
    /// Clique size to list.
    pub p: usize,
    /// Adjacency knowledge accumulated so far: `(a, b)` pairs with `a < b`.
    pub known: HashSet<(u32, u32)>,
    /// Neighbour identifiers left to broadcast.
    pending: Vec<u32>,
    /// The cliques this node has listed (computed when it finishes).
    pub listed: Vec<Vec<u32>>,
    /// This node's transport endpoint.
    pub transport: ReliableTransport<u32>,
    done_broadcasting: bool,
}

impl ReliableNaiveBroadcastProgram {
    /// Creates the program for one node.
    pub fn new(p: usize) -> Self {
        ReliableNaiveBroadcastProgram {
            p,
            known: HashSet::new(),
            pending: Vec::new(),
            listed: Vec::new(),
            transport: ReliableTransport::with_defaults(),
            done_broadcasting: false,
        }
    }

    fn list_local(&mut self, me: u32, n: usize) {
        let edges: Vec<(u32, u32)> = self.known.iter().copied().collect();
        if let Ok(local) = Graph::from_edges(n, &edges) {
            for clique in cliques::list_cliques(&local, self.p) {
                if clique.contains(&me) {
                    self.listed.push(clique);
                }
            }
        }
    }
}

impl NodeProgram for ReliableNaiveBroadcastProgram {
    type Message = Packet<u32>;

    fn on_start(&mut self, ctx: &mut Context<'_, Packet<u32>>) {
        let me = ctx.id().index() as u32;
        self.pending = ctx.neighbors().iter().map(|v| v.index() as u32).collect();
        for &w in &self.pending {
            self.known.insert((me.min(w), me.max(w)));
        }
    }

    fn on_round(
        &mut self,
        ctx: &mut Context<'_, Packet<u32>>,
        incoming: &[(NodeId, Packet<u32>)],
    ) -> Status {
        let me = ctx.id().index() as u32;
        for (sender, w) in self.transport.poll(ctx, incoming) {
            let s = sender.index() as u32;
            if s != w {
                self.known.insert((s.min(w), s.max(w)));
            }
        }
        // One neighbour identifier per round, like the unreliable program —
        // but through the transport, which paces, acks and retransmits.
        if let Some(w) = self.pending.pop() {
            self.transport.broadcast(ctx, w);
            return Status::Running;
        }
        if !self.transport.idle() {
            return Status::Running;
        }
        if !self.done_broadcasting {
            self.done_broadcasting = true;
            self.list_local(me, ctx.num_nodes());
        }
        // Done nodes are still stepped whenever their inbox is non-empty, so
        // late retransmissions from slower neighbours keep getting acked.
        Status::Done
    }

    fn message_words(&self, message: &Packet<u32>) -> u32 {
        message.words(1)
    }
}

/// A message-level implementation of the naive baseline for the CONGEST
/// simulator: each node broadcasts the identifiers of its neighbours, one per
/// round per edge, then lists the `p`-cliques it can certify.
///
/// Used in tests and examples to validate that the analytic round count of
/// [`naive_broadcast_rounds`] matches an actual synchronous execution.
pub struct NaiveBroadcastProgram {
    /// Clique size to list.
    pub p: usize,
    /// Adjacency knowledge accumulated so far: `(a, b)` pairs with `a < b`.
    pub known: HashSet<(u32, u32)>,
    /// Neighbour identifiers left to broadcast.
    pending: Vec<u32>,
    /// The cliques this node has listed (computed when it finishes).
    pub listed: Vec<Vec<u32>>,
    done_broadcasting: bool,
}

impl NaiveBroadcastProgram {
    /// Creates the program for one node.
    pub fn new(p: usize) -> Self {
        NaiveBroadcastProgram {
            p,
            known: HashSet::new(),
            pending: Vec::new(),
            listed: Vec::new(),
            done_broadcasting: false,
        }
    }

    fn list_local(&mut self, me: u32, n: usize) {
        let edges: Vec<(u32, u32)> = self.known.iter().copied().collect();
        if let Ok(local) = Graph::from_edges(n, &edges) {
            for clique in cliques::list_cliques(&local, self.p) {
                if clique.contains(&me) {
                    self.listed.push(clique);
                }
            }
        }
    }
}

impl NodeProgram for NaiveBroadcastProgram {
    type Message = u32;

    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        let me = ctx.id().index() as u32;
        self.pending = ctx.neighbors().iter().map(|v| v.index() as u32).collect();
        for &w in &self.pending {
            self.known.insert((me.min(w), me.max(w)));
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u32>, incoming: &[(NodeId, u32)]) -> Status {
        let me = ctx.id().index() as u32;
        // Record edges reported by neighbours: sender s says "w is my
        // neighbour", i.e. the edge {s, w} exists.
        for &(sender, w) in incoming {
            let s = sender.index() as u32;
            if s != w {
                self.known.insert((s.min(w), s.max(w)));
            }
        }
        // Broadcast one pending neighbour identifier per round (one word per
        // edge per round — the CONGEST bandwidth).
        if let Some(w) = self.pending.pop() {
            ctx.broadcast(w);
            return Status::Running;
        }
        if !self.done_broadcasting {
            self.done_broadcasting = true;
            self.list_local(me, ctx.num_nodes());
        }
        Status::Done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::verify::verify_cliques;
    use congest::{Network, NetworkConfig, Topology};
    use graphcore::gen;

    fn naive_engine(p: usize) -> Engine {
        Engine::builder()
            .p(p)
            .algorithm("naive-broadcast")
            .build()
            .expect("valid engine")
    }

    #[test]
    fn analytic_baseline_lists_everything() {
        let g = gen::erdos_renyi(60, 0.3, 3);
        let (report, cliques) = naive_engine(4).collect(&g);
        verify_cliques(&g, 4, &cliques).expect("complete listing");
        assert_eq!(report.total_rounds(), g.max_degree() as u64);
    }

    #[test]
    fn simulated_baseline_matches_analytic_round_count() {
        let g = gen::erdos_renyi(24, 0.35, 5);
        let topo = Topology::from_edge_list(g.num_vertices(), g.edges());
        let mut net = Network::new(topo, NetworkConfig::default(), |_| {
            NaiveBroadcastProgram::new(3)
        });
        let report = net.run(10_000);
        assert!(report.terminated);
        // The simulated execution needs Δ broadcast rounds plus O(1) slack for
        // start-up and the final listing round.
        let delta = naive_broadcast_rounds(&g);
        assert!(report.simulated_rounds >= delta);
        assert!(report.simulated_rounds <= delta + 3);

        // Union of outputs equals ground truth.
        let mut union: HashSet<Vec<u32>> = HashSet::new();
        for (_, program) in net.programs() {
            for c in &program.listed {
                union.insert(c.clone());
            }
        }
        let truth: HashSet<Vec<u32>> = cliques::list_cliques(&g, 3).into_iter().collect();
        assert_eq!(union, truth);
    }

    #[test]
    fn simulate_helper_agrees_with_analytic() {
        let g = gen::erdos_renyi(30, 0.3, 8);
        let (report, result) = simulate_naive_broadcast(&g, 4, 10_000);
        assert!(report.terminated);
        let (_, analytic) = naive_engine(4).collect(&g);
        let mut simulated: Vec<Vec<u32>> = result.cliques.iter().cloned().collect();
        simulated.sort_unstable();
        assert_eq!(simulated, analytic);
        assert!(report.simulated_rounds >= naive_broadcast_rounds(&g));
    }

    #[test]
    fn empty_graph_costs_nothing() {
        let (report, count) = naive_engine(4).count(&Graph::new(10));
        assert_eq!(count, 0);
        assert_eq!(report.total_rounds(), 0);
    }

    #[test]
    fn reliable_simulation_matches_the_plain_one_when_fault_free() {
        let g = gen::erdos_renyi(20, 0.4, 13);
        let (_, plain) = simulate_naive_broadcast(&g, 3, 10_000);
        let faulty = simulate_naive_broadcast_with_faults(&g, 3, 10_000, FaultPlan::fault_free());
        assert!(faulty.report.terminated);
        assert_eq!(faulty.result.cliques, plain.cliques);
        assert_eq!(faulty.transport.retransmits, 0);
        assert_eq!(faulty.dropped_messages, 0);
    }

    #[test]
    fn reliable_simulation_survives_seeded_loss_with_the_same_listing() {
        let g = gen::erdos_renyi(20, 0.4, 13);
        let reference =
            simulate_naive_broadcast_with_faults(&g, 3, 10_000, FaultPlan::fault_free());
        let plan = FaultPlan::builder(0xBEEF)
            .drop_probability(0.05)
            .build()
            .unwrap();
        let lossy = simulate_naive_broadcast_with_faults(&g, 3, 20_000, plan.clone());
        assert!(lossy.report.terminated);
        assert_eq!(
            lossy.result.cliques, reference.result.cliques,
            "reliable transport must mask seeded loss"
        );
        assert!(lossy.dropped_messages > 0, "the plan must actually drop");
        assert!(lossy.transport.retransmits > 0);
        assert!(lossy.report.simulated_rounds >= reference.report.simulated_rounds);
        // Determinism: the same (graph, p, plan) replays byte-identically.
        let again = simulate_naive_broadcast_with_faults(&g, 3, 20_000, plan);
        assert_eq!(again.result.cliques, lossy.result.cliques);
        assert_eq!(again.transport, lossy.transport);
        assert_eq!(again.report.simulated_rounds, lossy.report.simulated_rounds);
    }
}
