//! The fault differential battery: the determinism contract extended to
//! injected faults.
//!
//! Three families of guarantees are pinned here:
//!
//! * **Fault-free equivalence** — an engine carrying the default (inert)
//!   [`Resilience`] envelope produces reports, listings and outcomes
//!   byte-identical to an engine with no envelope at all, for every
//!   registered algorithm.
//! * **Loss masking** — under seeded drop plans the reliable transport
//!   reproduces the fault-free listing exactly (message-level and
//!   engine-level), with the retransmission overhead recorded explicitly.
//! * **Graceful degradation** — crash-stop schedules and round budgets yield
//!   deterministic `Degraded`/`Aborted` outcomes and partial listings
//!   instead of panics or hangs; replaying the same `(seed, plan)` pair is
//!   byte-identical, at any thread grant.

use distributed_clique_listing::cliquelist::{
    algorithms, baselines, Engine, Parallelism, Resilience, RunOutcome,
};
use distributed_clique_listing::congest::{
    FaultPlan, MemorySink, Network, NetworkConfig, Topology, TraceEvent,
};
use distributed_clique_listing::graphcore::{gen, Clique, Graph};
use std::sync::Arc;

fn engine(p: usize, name: &str, resilience: Option<Resilience>) -> Engine {
    let mut builder = Engine::builder().p(p).algorithm(name).seed(7);
    if let Some(resilience) = resilience {
        builder = builder.resilience(resilience);
    }
    builder
        .build()
        .unwrap_or_else(|e| panic!("{name} p={p}: {e}"))
}

#[test]
fn fault_free_envelope_is_byte_identical_for_every_algorithm() {
    let graph = gen::erdos_renyi(60, 0.3, 7);
    for algorithm in algorithms() {
        let info = algorithm.info();
        for p in [3usize, 4] {
            if !info.supports_p(p) {
                continue;
            }
            let bare = engine(p, info.name, None);
            let envel = engine(p, info.name, Some(Resilience::fault_free()));
            let (bare_report, bare_cliques) = bare.collect(&graph);
            let (env_report, env_cliques) = envel.collect(&graph);
            assert_eq!(
                bare_report.to_json(),
                env_report.to_json(),
                "{} p={p}: inert envelope changed the report",
                info.name
            );
            assert_eq!(bare_cliques, env_cliques, "{} p={p}", info.name);
            assert_eq!(env_report.outcome, RunOutcome::Complete);
            assert!(!env_report.to_json().contains("\"outcome\""));
        }
    }
}

#[test]
fn lossy_plans_with_reliable_transport_keep_the_listing_and_charge_retransmit() {
    let graph = gen::erdos_renyi(60, 0.3, 7);
    let (reference_report, reference_cliques) = engine(4, "general", None).collect(&graph);
    for drop_ppm in [10_000u64, 50_000] {
        let plan = FaultPlan::builder(0xFA17)
            .drop_probability(drop_ppm as f64 / 1_000_000.0)
            .build()
            .unwrap();
        let lossy = engine(4, "general", Some(Resilience::with_plan(plan)));
        let (report, cliques) = lossy.collect(&graph);
        assert_eq!(
            cliques, reference_cliques,
            "drop {drop_ppm}ppm: the reliable transport must mask the loss"
        );
        assert_eq!(report.outcome, RunOutcome::Complete);
        assert!(
            report.to_json().contains("\"retransmit\":"),
            "drop {drop_ppm}ppm: overhead must be recorded as a phase"
        );
        assert!(
            report.total_rounds() > reference_report.total_rounds(),
            "drop {drop_ppm}ppm: recovery costs extra rounds"
        );
        // Replay: the same (seed, plan) is byte-identical.
        let (again, again_cliques) = lossy.collect(&graph);
        assert_eq!(again.to_json(), report.to_json());
        assert_eq!(again_cliques, cliques);
    }
}

#[test]
fn loss_without_reliable_transport_degrades() {
    let graph = gen::erdos_renyi(50, 0.3, 5);
    let plan = FaultPlan::builder(3)
        .drop_probability(0.05)
        .build()
        .unwrap();
    let resilience = Resilience {
        reliable_transport: false,
        ..Resilience::with_plan(plan)
    };
    let (report, _) = engine(4, "general", Some(resilience)).collect(&graph);
    let RunOutcome::Degraded(reason) = &report.outcome else {
        panic!("expected Degraded, got {:?}", report.outcome);
    };
    assert!(reason.contains("without reliable transport"), "{reason}");
    assert!(report.to_json().contains("\"status\":\"degraded\""));
    // Fully lossy links cannot be masked even by the reliable transport.
    let dead = FaultPlan::builder(3).drop_probability(1.0).build().unwrap();
    let (report, _) = engine(4, "general", Some(Resilience::with_plan(dead))).collect(&graph);
    assert!(matches!(&report.outcome, RunOutcome::Degraded(r) if r.contains("fully lossy")));
}

#[test]
fn crash_plans_yield_a_deterministic_partial_listing() {
    let graph = gen::erdos_renyi(50, 0.3, 5);
    let (_, full) = engine(4, "general", None).collect(&graph);
    let crashed = [0u32, 3];
    let mut plan = FaultPlan::builder(11);
    for &node in &crashed {
        plan = plan.crash(node as usize, 1);
    }
    let resilience = Resilience::with_plan(plan.build().unwrap());
    let eng = engine(4, "general", Some(resilience));
    let (report, partial) = eng.collect(&graph);

    // The partial listing is exactly the fault-free one minus the cliques
    // owned (canonical minimum vertex) by a crashed node.
    let expected: Vec<Clique> = full
        .iter()
        .filter(|c| !crashed.contains(&c[0]))
        .cloned()
        .collect();
    assert!(
        expected.len() < full.len(),
        "weak workload: no clique owned by a crashed node"
    );
    assert_eq!(partial, expected);
    let RunOutcome::Degraded(reason) = &report.outcome else {
        panic!("expected Degraded, got {:?}", report.outcome);
    };
    assert!(reason.contains("2 node(s) crash-stopped"), "{reason}");

    // Byte-identical replay.
    let (again, again_cliques) = eng.collect(&graph);
    assert_eq!(again.to_json(), report.to_json());
    assert_eq!(again_cliques, partial);

    // And byte-identical across thread grants (sharded enumeration).
    for threads in [1usize, 2, 8] {
        let granted = Engine::builder()
            .p(4)
            .algorithm("general")
            .seed(7)
            .parallelism(Parallelism::Threads(threads))
            .resilience(eng.resilience().clone())
            .build()
            .unwrap();
        let (grant_report, grant_cliques) = granted.collect(&graph);
        assert_eq!(grant_cliques, partial, "{threads} threads");
        assert_eq!(grant_report.outcome, report.outcome, "{threads} threads");
    }
}

#[test]
fn crashing_every_node_aborts_instead_of_panicking() {
    let graph = gen::erdos_renyi(8, 0.5, 2);
    let mut plan = FaultPlan::builder(1);
    for node in 0..8 {
        plan = plan.crash(node, 1);
    }
    let resilience = Resilience::with_plan(plan.build().unwrap());
    let (report, cliques) = engine(3, "general", Some(resilience)).collect(&graph);
    assert_eq!(report.outcome, RunOutcome::Aborted);
    assert!(cliques.is_empty());
    assert_eq!(report.sink.emitted, 0);
    assert!(report
        .to_json()
        .ends_with(",\"outcome\":{\"status\":\"aborted\"}}"));
}

#[test]
fn round_budgets_degrade_or_abort_deterministically() {
    // A run that emits output but blows the budget is Degraded...
    let graph = gen::erdos_renyi(50, 0.3, 5);
    let tight = Resilience {
        max_rounds: Some(1),
        ..Resilience::default()
    };
    let (report, cliques) = engine(4, "general", Some(tight.clone())).collect(&graph);
    assert!(!cliques.is_empty(), "weak workload: nothing listed");
    let RunOutcome::Degraded(reason) = &report.outcome else {
        panic!("expected Degraded, got {:?}", report.outcome);
    };
    assert!(reason.contains("round budget exhausted"), "{reason}");
    assert!(report.total_rounds() > 1);

    // ...while a run that emits nothing at all is Aborted.
    let barren = gen::erdos_renyi(40, 0.05, 3);
    let (report, cliques) = engine(5, "general", Some(tight)).collect(&barren);
    assert!(cliques.is_empty(), "weak workload: K_5s exist after all");
    assert_eq!(report.outcome, RunOutcome::Aborted);

    // A generous budget leaves the run Complete and the report untouched.
    let roomy = Resilience {
        max_rounds: Some(u64::MAX),
        ..Resilience::default()
    };
    let (bare, bare_cliques) = engine(4, "general", None).collect(&graph);
    let (capped, capped_cliques) = engine(4, "general", Some(roomy)).collect(&graph);
    assert_eq!(capped.to_json(), bare.to_json());
    assert_eq!(capped_cliques, bare_cliques);
}

#[test]
fn message_level_loss_is_masked_at_every_drop_rate() {
    let graph = gen::erdos_renyi(20, 0.4, 13);
    let reference =
        baselines::simulate_naive_broadcast_with_faults(&graph, 3, 20_000, FaultPlan::fault_free());
    assert!(reference.report.terminated);
    assert!(!reference.result.cliques.is_empty(), "weak workload");
    for drop_ppm in [0u64, 10_000, 50_000] {
        let plan = FaultPlan::builder(0xD0_0D)
            .drop_probability(drop_ppm as f64 / 1_000_000.0)
            .build()
            .unwrap();
        let run = baselines::simulate_naive_broadcast_with_faults(&graph, 3, 20_000, plan.clone());
        assert!(run.report.terminated, "drop {drop_ppm}ppm: did not quiesce");
        assert_eq!(
            run.result.cliques, reference.result.cliques,
            "drop {drop_ppm}ppm: listing diverged"
        );
        if drop_ppm == 0 {
            assert_eq!(run.transport.retransmits, 0);
            assert_eq!(run.dropped_messages, 0);
        } else {
            assert!(run.dropped_messages > 0, "drop {drop_ppm}ppm: plan inert");
            assert!(run.transport.retransmits > 0);
            assert!(run.report.simulated_rounds >= reference.report.simulated_rounds);
        }
        // Replay determinism of the full simulation.
        let again = baselines::simulate_naive_broadcast_with_faults(&graph, 3, 20_000, plan);
        assert_eq!(again.transport, run.transport);
        assert_eq!(again.report.simulated_rounds, run.report.simulated_rounds);
        assert_eq!(again.result.cliques, run.result.cliques);
    }
}

/// Builds the CONGEST topology of a small lossy workload and returns the
/// trace events of one execution.
fn faulty_trace(graph: &Graph, plan: &FaultPlan, threads: Option<usize>) -> Vec<TraceEvent> {
    let topology = Topology::from_edge_list(graph.num_vertices(), graph.edges());
    let mut net = Network::new(topology, NetworkConfig::default(), |_| {
        baselines::ReliableNaiveBroadcastProgram::new(3)
    });
    net.set_fault_plan(plan.clone()).unwrap();
    let sink = Arc::new(MemorySink::new());
    net.set_trace_sink(sink.clone());
    let report = match threads {
        None => net.run(20_000),
        Some(t) => net.run_parallel_with_threads(t, 20_000),
    };
    assert!(report.terminated);
    sink.events()
}

#[test]
fn fault_event_sequences_replay_identically() {
    let graph = gen::erdos_renyi(30, 0.25, 17);
    let plan = FaultPlan::builder(0x5EED)
        .drop_probability(0.1)
        .crash(2, 5)
        .build()
        .unwrap();
    let reference = faulty_trace(&graph, &plan, None);
    assert!(
        reference
            .iter()
            .any(|e| matches!(e, TraceEvent::Dropped { .. })),
        "weak plan: nothing dropped"
    );
    assert!(
        reference
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeCrashed { .. })),
        "weak plan: nobody crashed"
    );
    // Repeated runs replay the exact event sequence...
    assert_eq!(faulty_trace(&graph, &plan, None), reference);
    // ...and so does the parallel executor at every thread grant.
    for threads in [1usize, 2, 8] {
        assert_eq!(
            faulty_trace(&graph, &plan, Some(threads)),
            reference,
            "trace diverged with {threads} threads"
        );
    }
}
