//! Regression test for the multi-threaded round executor: it must be
//! *observationally identical* to the sequential one — identical traces,
//! identical round reports (counts and traffic metrics) and identical
//! listings — for any thread count.

use distributed_clique_listing::cliquelist::baselines::NaiveBroadcastProgram;
use distributed_clique_listing::congest::{
    Context, MemorySink, Network, NetworkConfig, NodeId, NodeProgram, RoundReport, Status,
    Topology, TraceEvent,
};
use distributed_clique_listing::graphcore::gen;
use std::collections::HashSet;
use std::sync::Arc;

/// Runs `factory`-built programs over `topology` with the given executor and
/// returns the trace, the report and the final programs.
fn execute<P>(
    topology: Topology,
    seed: u64,
    max_rounds: u64,
    factory: impl FnMut(NodeId) -> P,
    threads: Option<usize>,
) -> (Vec<TraceEvent>, RoundReport, Vec<P>)
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
{
    let sink = Arc::new(MemorySink::new());
    let mut net = Network::new(topology, NetworkConfig::default().with_seed(seed), factory);
    net.set_trace_sink(sink.clone());
    let report = match threads {
        None => net.run(max_rounds),
        Some(t) => net.run_parallel_with_threads(t, max_rounds),
    };
    (sink.events(), report, net.into_programs())
}

fn congest_topology(n: usize, p: f64, seed: u64) -> Topology {
    let graph = gen::erdos_renyi(n, p, seed);
    Topology::from_edge_list(graph.num_vertices(), graph.edges())
}

#[test]
fn parallel_naive_listing_matches_sequential_exactly() {
    let n = 40;
    for topo_seed in [3u64, 11] {
        let topology = congest_topology(n, 0.25, topo_seed);
        let (seq_trace, seq_report, seq_programs) = execute(
            topology.clone(),
            topo_seed,
            10_000,
            |_| NaiveBroadcastProgram::new(3),
            None,
        );
        for threads in [1usize, 2, 4, 7] {
            let (par_trace, par_report, par_programs) = execute(
                topology.clone(),
                topo_seed,
                10_000,
                |_| NaiveBroadcastProgram::new(3),
                Some(threads),
            );
            assert_eq!(
                seq_trace, par_trace,
                "trace diverged with {threads} threads (seed {topo_seed})"
            );
            assert_eq!(
                seq_report, par_report,
                "round report diverged with {threads} threads (seed {topo_seed})"
            );
            let seq_listing: Vec<&Vec<u32>> = seq_programs.iter().flat_map(|p| &p.listed).collect();
            let par_listing: Vec<&Vec<u32>> = par_programs.iter().flat_map(|p| &p.listed).collect();
            assert_eq!(
                seq_listing, par_listing,
                "listings diverged with {threads} threads (seed {topo_seed})"
            );
        }
        assert!(seq_report.terminated);
        let union: HashSet<&Vec<u32>> = seq_programs.iter().flat_map(|p| &p.listed).collect();
        assert!(!union.is_empty(), "workload listed no triangles; weak test");
    }
}

/// A randomized gossip program: every round each node asks its RNG for a
/// neighbour and forwards the largest value seen so far. Exercises per-node
/// RNG streams under the parallel executor — any cross-thread perturbation of
/// randomness would change the message pattern and with it trace and metrics.
struct RandomGossip {
    best: u64,
    rounds_left: u32,
}

impl NodeProgram for RandomGossip {
    type Message = u64;

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        self.best = ctx.id().index() as u64;
        let degree = ctx.degree();
        if degree > 0 {
            let pick = ctx.rng().below(degree as u64) as usize;
            let to = ctx.neighbors()[pick];
            ctx.send(to, self.best);
        }
    }

    fn on_round(&mut self, ctx: &mut Context<'_, u64>, incoming: &[(NodeId, u64)]) -> Status {
        for &(_, v) in incoming {
            self.best = self.best.max(v);
        }
        if self.rounds_left == 0 {
            return Status::Done;
        }
        self.rounds_left -= 1;
        let degree = ctx.degree();
        if degree > 0 {
            let pick = ctx.rng().below(degree as u64) as usize;
            let to = ctx.neighbors()[pick];
            ctx.send(to, self.best);
        }
        Status::Running
    }
}

#[test]
fn parallel_rng_streams_match_sequential() {
    let topology = congest_topology(64, 0.15, 17);
    let factory = |_| RandomGossip {
        best: 0,
        rounds_left: 25,
    };
    let (seq_trace, seq_report, seq_programs) = execute(topology.clone(), 99, 1_000, factory, None);
    for threads in [2usize, 5] {
        let (par_trace, par_report, par_programs) =
            execute(topology.clone(), 99, 1_000, factory, Some(threads));
        assert_eq!(seq_trace, par_trace, "{threads} threads: trace diverged");
        assert_eq!(seq_report, par_report, "{threads} threads: report diverged");
        let seq_best: Vec<u64> = seq_programs.iter().map(|p| p.best).collect();
        let par_best: Vec<u64> = par_programs.iter().map(|p| p.best).collect();
        assert_eq!(seq_best, par_best, "{threads} threads: state diverged");
    }
    assert!(seq_report.metrics.messages_sent > 0);
}
