//! The synchronous round executor.

use crate::cost::{ChargePolicy, CostLedger, PrimitiveKind};
use crate::faults::FaultPlan;
use crate::metrics::{Metrics, RoundReport};
use crate::node::{Context, NodeId, NodeProgram, Status};
use crate::rng::DeterministicRng;
use crate::topology::Topology;
use crate::trace::{NullSink, TraceEvent, TraceSink};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Messages addressed to (or received from) specific nodes.
type Mailbox<M> = Vec<(NodeId, M)>;

/// Outcome of stepping one node: `(node index, new status, produced outbox,
/// emitted trace events)`.
type NodeOutcome<M> = (usize, Status, Mailbox<M>, Vec<TraceEvent>);

/// A rejected network construction or configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetworkError {
    /// The configured per-link bandwidth is zero.
    ZeroBandwidth,
    /// A fault plan schedules a crash for a node outside the topology.
    CrashNodeOutOfRange {
        /// The out-of-range node index.
        node: usize,
        /// Number of nodes in the topology.
        num_nodes: usize,
    },
    /// A fault plan references a directed link index outside the topology.
    OutageLinkOutOfRange {
        /// The out-of-range link index.
        link: usize,
        /// Number of directed links in the topology.
        num_links: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::ZeroBandwidth => {
                write!(f, "bandwidth must be at least one word per round")
            }
            NetworkError::CrashNodeOutOfRange { node, num_nodes } => write!(
                f,
                "fault plan schedules a crash for node {node}, but the topology has {num_nodes} \
                 nodes"
            ),
            NetworkError::OutageLinkOutOfRange { link, num_links } => write!(
                f,
                "fault plan references directed link {link}, but the topology has {num_links} \
                 directed links"
            ),
        }
    }
}

impl std::error::Error for NetworkError {}

/// Configuration of a simulated network.
#[derive(Clone, Copy, Debug)]
pub struct NetworkConfig {
    /// Words each directed edge can carry per round. The CONGEST model allows
    /// one `O(log n)`-bit message per edge per round, i.e. `1`.
    pub bandwidth_words: u32,
    /// Seed from which all per-node random generators are derived.
    pub seed: u64,
    /// Policy used when charging rounds for black-box primitives.
    pub charge_policy: ChargePolicy,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            bandwidth_words: 1,
            seed: 0xC11C_0E15,
            charge_policy: ChargePolicy::default(),
        }
    }
}

impl NetworkConfig {
    /// Returns a copy of the configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy of the configuration with a different bandwidth.
    pub fn with_bandwidth(mut self, words: u32) -> Self {
        assert!(words > 0, "bandwidth must be at least one word per round");
        self.bandwidth_words = words;
        self
    }
}

/// A synchronous network executing one [`NodeProgram`] per node.
///
/// See the crate-level documentation for an end-to-end example.
pub struct Network<P: NodeProgram> {
    topology: Topology,
    config: NetworkConfig,
    programs: Vec<P>,
    rngs: Vec<DeterministicRng>,
    statuses: Vec<Status>,
    /// FIFO queue of `(message, width-in-words)` pairs per directed link,
    /// indexed by the topology's dense link index ([`Topology::link_index`]).
    /// Link indices are lexicographic in `(src, dst)`, so iterating the flat
    /// vector reproduces the delivery order of the former
    /// `BTreeMap<(src, dst), _>` exactly — deterministic across runs and
    /// identical between the sequential and parallel executors — while
    /// `enqueue`/`deliver` touch a plain array slot instead of paying a tree
    /// lookup per message.
    queues: Vec<VecDeque<(P::Message, u32)>>,
    /// Number of messages currently queued across all links (keeps
    /// [`Network::is_quiescent`] O(1) in the link count).
    queued_messages: usize,
    ledger: CostLedger,
    metrics: Metrics,
    round: u64,
    sink: Arc<dyn TraceSink>,
    /// The installed fault schedule, if any. `None` behaves exactly like
    /// [`FaultPlan::fault_free`] without paying any per-round plan queries.
    fault_plan: Option<FaultPlan>,
    /// Crash-stop flags, set when the plan's crash round arrives.
    crashed: Vec<bool>,
}

impl<P: NodeProgram> Network<P> {
    /// Creates a network over `topology`, instantiating one program per node
    /// through `factory`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero bandwidth); use
    /// [`Network::try_new`] for a typed rejection.
    pub fn new(
        topology: Topology,
        config: NetworkConfig,
        factory: impl FnMut(NodeId) -> P,
    ) -> Self {
        Self::try_new(topology, config, factory).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a network over `topology`, validating the configuration and
    /// returning a typed [`NetworkError`] instead of panicking on bad input.
    pub fn try_new(
        topology: Topology,
        config: NetworkConfig,
        factory: impl FnMut(NodeId) -> P,
    ) -> Result<Self, NetworkError> {
        if config.bandwidth_words == 0 {
            return Err(NetworkError::ZeroBandwidth);
        }
        let n = topology.num_nodes();
        let mut factory = factory;
        let programs: Vec<P> = (0..n).map(|i| factory(NodeId::new(i))).collect();
        let rngs = (0..n)
            .map(|i| DeterministicRng::for_node(config.seed, i))
            .collect();
        let queues = (0..topology.num_directed_links())
            .map(|_| VecDeque::new())
            .collect();
        Ok(Network {
            topology,
            config,
            programs,
            rngs,
            statuses: vec![Status::Running; n],
            queues,
            queued_messages: 0,
            ledger: CostLedger::new(),
            metrics: Metrics::default(),
            round: 0,
            sink: Arc::new(NullSink),
            fault_plan: None,
            crashed: vec![false; n],
        })
    }

    /// Installs a trace sink receiving [`TraceEvent`]s.
    pub fn set_trace_sink(&mut self, sink: Arc<dyn TraceSink>) {
        self.sink = sink;
    }

    /// Installs a fault schedule, validating it against the topology. Faults
    /// injected by the plan surface as [`TraceEvent::Dropped`] and
    /// [`TraceEvent::NodeCrashed`] events in the trace sink.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), NetworkError> {
        let num_nodes = self.topology.num_nodes();
        let num_links = self.topology.num_directed_links();
        if let Some(&(node, _)) = plan.crashes().iter().find(|&&(v, _)| v >= num_nodes) {
            return Err(NetworkError::CrashNodeOutOfRange { node, num_nodes });
        }
        if let Some(link) = plan.max_referenced_link().filter(|&l| l >= num_links) {
            return Err(NetworkError::OutageLinkOutOfRange { link, num_links });
        }
        self.fault_plan = Some(plan);
        Ok(())
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether `node` has crash-stopped under the installed fault plan.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed[node.index()]
    }

    /// The communication topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The network configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Immutable access to the program of node `id`.
    pub fn program(&self, id: NodeId) -> &P {
        &self.programs[id.index()]
    }

    /// Mutable access to the program of node `id`.
    pub fn program_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.programs[id.index()]
    }

    /// Iterates over `(node, program)` pairs.
    pub fn programs(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.programs
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId::new(i), p))
    }

    /// Consumes the network and returns the node programs, in node order.
    pub fn into_programs(self) -> Vec<P> {
        self.programs
    }

    /// The ledger of charged (non-simulated) rounds.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// Charges `rounds` rounds of primitive `kind` to the execution.
    pub fn charge(&mut self, kind: PrimitiveKind, rounds: u64) {
        self.ledger.charge(kind, rounds);
    }

    /// Current round number (0 before the execution starts).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Runs the network until every node is done and no messages are in
    /// flight, or until `max_rounds` rounds have been simulated.
    ///
    /// Returns a [`RoundReport`]; `terminated` is `false` if the round limit
    /// was hit first.
    pub fn run(&mut self, max_rounds: u64) -> RoundReport {
        self.start();
        while self.round < max_rounds {
            if self.is_quiescent() {
                return self.report(true);
            }
            self.step();
        }
        let quiescent = self.is_quiescent();
        self.report(quiescent)
    }

    /// Calls `on_start` on every node and enqueues the produced messages.
    /// Calling it twice is a no-op after the first call via [`Network::run`],
    /// but it is exposed for callers that drive the network round by round.
    pub fn start(&mut self) {
        if self.round > 0 {
            return;
        }
        for i in 0..self.programs.len() {
            let mut outbox: Vec<(NodeId, P::Message)> = Vec::new();
            let mut events: Vec<TraceEvent> = Vec::new();
            let mut ctx = Context {
                id: NodeId::new(i),
                round: 0,
                topology: &self.topology,
                rng: &mut self.rngs[i],
                outbox: &mut outbox,
                events: &mut events,
            };
            self.programs[i].on_start(&mut ctx);
            self.record_events(events);
            self.enqueue_from(NodeId::new(i), outbox);
        }
    }

    /// Whether every node is done and all link queues are empty.
    pub fn is_quiescent(&self) -> bool {
        self.queued_messages == 0 && self.statuses.iter().all(|&s| s == Status::Done)
    }

    /// Executes one synchronous round: delivers up to the per-link bandwidth
    /// from each queue, then invokes `on_round` on every node.
    pub fn step(&mut self) {
        self.round += 1;
        let (inboxes, words_delivered) = self.deliver();

        // Phase 2: local computation and message submission.
        for (i, inbox) in inboxes.iter().enumerate() {
            if self.statuses[i] == Status::Done && inbox.is_empty() {
                continue;
            }
            let mut outbox: Vec<(NodeId, P::Message)> = Vec::new();
            let mut events: Vec<TraceEvent> = Vec::new();
            let mut ctx = Context {
                id: NodeId::new(i),
                round: self.round,
                topology: &self.topology,
                rng: &mut self.rngs[i],
                outbox: &mut outbox,
                events: &mut events,
            };
            let status = self.programs[i].on_round(&mut ctx, inbox);
            self.integrate_node_round(i, status, outbox, events);
        }

        self.sink.record(TraceEvent::RoundCompleted {
            round: self.round,
            words_delivered,
        });
    }

    /// Phase 1 of a round: delivers up to the per-link bandwidth from each
    /// queue. Returns the per-node inboxes (each ordered by `(src, dst)` link
    /// identifier, deterministically — the flat queue vector is laid out in
    /// that order) and the number of words delivered.
    fn deliver(&mut self) -> (Vec<Mailbox<P::Message>>, u64) {
        let n = self.programs.len();
        self.apply_crashes();
        let bandwidth = match self
            .fault_plan
            .as_ref()
            .and_then(|p| p.bandwidth_cap(self.round))
        {
            Some(cap) => u64::from(cap.min(self.config.bandwidth_words)),
            None => u64::from(self.config.bandwidth_words),
        };
        let mut inboxes: Vec<Mailbox<P::Message>> = vec![Vec::new(); n];
        // Nothing in flight: skip the link scan entirely (common on the
        // quiescence-detection tail, where nodes still compute but no
        // messages remain).
        if self.queued_messages == 0 {
            return (inboxes, 0);
        }
        let mut recv_words: Vec<u64> = vec![0; n];
        let mut words_delivered = 0u64;
        let mut popped = 0usize;
        let mut delivered = 0u64;
        for src in 0..n {
            let source = NodeId::new(src);
            let range = self.topology.link_range(source);
            let neighbors = self.topology.neighbors(source);
            for (offset, (queue, &dst)) in self.queues[range.clone()]
                .iter_mut()
                .zip(neighbors)
                .enumerate()
            {
                if queue.is_empty() {
                    continue;
                }
                let link = range.start + offset;
                // A crashed destination consumes nothing: its link drains in
                // one round (the receiver is gone, bandwidth is moot).
                if self.crashed[dst.index()] {
                    let (messages, words) = drain_queue(queue);
                    popped += messages as usize;
                    self.sink.record(TraceEvent::Dropped {
                        round: self.round,
                        link,
                        messages,
                        words,
                    });
                    continue;
                }
                // During an outage the link transmits nothing; queued
                // messages wait out the window rather than being lost.
                if self
                    .fault_plan
                    .as_ref()
                    .is_some_and(|p| p.link_down(self.round, link))
                {
                    continue;
                }
                // One content-addressed decision per (round, link): a lossy
                // round loses every message the link carries this round
                // (burst loss). Lost messages still consume bandwidth — they
                // were transmitted, then lost in flight.
                let lossy = self
                    .fault_plan
                    .as_ref()
                    .is_some_and(|p| p.drops(self.round, link));
                let mut lost_messages = 0u64;
                let mut lost_words = 0u64;
                let mut budget = bandwidth;
                while budget > 0 {
                    match queue.front() {
                        Some((_, words)) if u64::from(*words) <= budget => {
                            let (msg, words) = queue.pop_front().expect("front checked above");
                            popped += 1;
                            budget -= u64::from(words);
                            if lossy {
                                lost_messages += 1;
                                lost_words += u64::from(words);
                            } else {
                                delivered += 1;
                                words_delivered += u64::from(words);
                                recv_words[dst.index()] += u64::from(words);
                                inboxes[dst.index()].push((source, msg));
                            }
                        }
                        // A message wider than the remaining budget waits for
                        // the next round (no fragmentation), unless it is
                        // wider than the whole bandwidth, in which case it
                        // takes the full link for ceil(words / bandwidth)
                        // rounds; we model that by letting it through alone
                        // when the budget is fresh.
                        Some((_, words))
                            if u64::from(*words) > bandwidth && budget == bandwidth =>
                        {
                            let (msg, words) = queue.pop_front().expect("front checked above");
                            popped += 1;
                            if lossy {
                                lost_messages += 1;
                                lost_words += u64::from(words);
                            } else {
                                delivered += 1;
                                words_delivered += u64::from(words);
                                recv_words[dst.index()] += u64::from(words);
                                inboxes[dst.index()].push((source, msg));
                            }
                            budget = 0;
                        }
                        _ => break,
                    }
                }
                if lost_messages > 0 {
                    self.sink.record(TraceEvent::Dropped {
                        round: self.round,
                        link,
                        messages: lost_messages,
                        words: lost_words,
                    });
                }
            }
        }
        self.queued_messages -= popped;
        self.metrics.messages_delivered += delivered;
        for &w in &recv_words {
            self.metrics.max_node_recv_per_round = self.metrics.max_node_recv_per_round.max(w);
        }
        (inboxes, words_delivered)
    }

    /// Applies the fault plan's crash schedule for the current round: the
    /// crashing node computes nothing from this round on, its outgoing
    /// backlog is discarded and its status becomes [`Status::Done`] so the
    /// network can still reach quiescence. Runs on the main thread in both
    /// executors, in ascending node order (the plan keeps crashes sorted).
    fn apply_crashes(&mut self) {
        let Some(plan) = self.fault_plan.as_ref() else {
            return;
        };
        if plan.crashes().is_empty() {
            return;
        }
        let due: Vec<usize> = plan
            .crashes()
            .iter()
            .filter(|&&(_, round)| round == self.round)
            .map(|&(node, _)| node)
            .collect();
        for node in due {
            self.crashed[node] = true;
            self.statuses[node] = Status::Done;
            self.sink.record(TraceEvent::NodeCrashed {
                node: NodeId::new(node),
                round: self.round,
            });
            // Discard the crashed node's outgoing backlog: messages it
            // queued but had not yet transmitted die with it.
            let range = self.topology.link_range(NodeId::new(node));
            for (offset, queue) in self.queues[range.clone()].iter_mut().enumerate() {
                if queue.is_empty() {
                    continue;
                }
                let (messages, words) = drain_queue(queue);
                self.queued_messages -= messages as usize;
                self.sink.record(TraceEvent::Dropped {
                    round: self.round,
                    link: range.start + offset,
                    messages,
                    words,
                });
            }
        }
    }

    /// Records node-program-emitted trace events (buffered through
    /// [`Context::emit`]) into the sink.
    fn record_events(&self, events: Vec<TraceEvent>) {
        for event in events {
            self.sink.record(event);
        }
    }

    /// Applies the outcome of one node's `on_round` call: records the
    /// events the program emitted and the done-transition trace event,
    /// stores the new status and enqueues the produced messages. Both
    /// executors call this in ascending node order, which keeps traces and
    /// metrics identical between them.
    fn integrate_node_round(
        &mut self,
        i: usize,
        status: Status,
        outbox: Vec<(NodeId, P::Message)>,
        events: Vec<TraceEvent>,
    ) {
        self.record_events(events);
        if status == Status::Done && self.statuses[i] == Status::Running {
            self.sink.record(TraceEvent::NodeDone {
                node: NodeId::new(i),
                round: self.round,
            });
        }
        self.statuses[i] = status;
        self.enqueue_from(NodeId::new(i), outbox);
    }

    fn enqueue_from(&mut self, src: NodeId, messages: Vec<(NodeId, P::Message)>) {
        let mut sent_words = 0u64;
        for (dst, msg) in messages {
            let words = self.programs[src.index()].message_words(&msg).max(1);
            sent_words += u64::from(words);
            self.metrics.messages_sent += 1;
            self.metrics.words_sent += u64::from(words);
            let link = self
                .topology
                .link_index(src, dst)
                .expect("Context::send only accepts neighbouring destinations");
            let queue = &mut self.queues[link];
            queue.push_back((msg, words));
            self.queued_messages += 1;
            let queued: u64 = queue.iter().map(|(_, w)| u64::from(*w)).sum();
            self.metrics.max_link_queue = self.metrics.max_link_queue.max(queued);
        }
        self.metrics.max_node_send_per_round = self.metrics.max_node_send_per_round.max(sent_words);
    }

    fn report(&self, terminated: bool) -> RoundReport {
        RoundReport {
            simulated_rounds: self.round,
            charged_rounds: self.ledger.total(),
            metrics: self.metrics.clone(),
            terminated,
        }
    }
}

/// Empties a link queue, returning `(messages, words)` discarded.
fn drain_queue<M>(queue: &mut VecDeque<(M, u32)>) -> (u64, u64) {
    let messages = queue.len() as u64;
    let words = queue.iter().map(|(_, w)| u64::from(*w)).sum();
    queue.clear();
    (messages, words)
}

/// The deterministic multi-threaded round executor.
///
/// Node programs are stepped concurrently on `threads` OS threads (the crate
/// has no external dependencies, so the fan-out uses [`std::thread::scope`]
/// rather than rayon). Determinism is preserved by construction:
///
/// * each node already owns an independent [`DeterministicRng`] stream, so the
///   interleaving of node computations cannot perturb randomness;
/// * message delivery happens before any node computes, and submitted messages
///   only become visible in the next round, so intra-round compute order is
///   semantically irrelevant;
/// * per-node outboxes are collected and merged **in ascending `NodeId`
///   order**, so link queues, metrics and trace events are byte-identical to
///   the sequential executor's.
///
/// The regression test `tests/parallel_determinism.rs` asserts that
/// [`Network::run`] and [`Network::run_parallel`] produce identical traces,
/// round counts and listings.
impl<P> Network<P>
where
    P: NodeProgram + Send,
    P::Message: Send + Sync,
{
    /// Like [`Network::run`], but steps node programs on all available cores.
    pub fn run_parallel(&mut self, max_rounds: u64) -> RoundReport {
        self.run_parallel_with_threads(default_threads(), max_rounds)
    }

    /// Like [`Network::run_parallel`] with an explicit thread count.
    ///
    /// The thread count influences wall-clock time only, never results.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_parallel_with_threads(&mut self, threads: usize, max_rounds: u64) -> RoundReport {
        assert!(threads > 0, "need at least one executor thread");
        self.start_parallel(threads);
        while self.round < max_rounds {
            if self.is_quiescent() {
                return self.report(true);
            }
            self.step_parallel(threads);
        }
        let quiescent = self.is_quiescent();
        self.report(quiescent)
    }

    /// Parallel counterpart of [`Network::start`].
    pub fn start_parallel(&mut self, threads: usize) {
        if self.round > 0 {
            return;
        }
        let n = self.programs.len();
        let inboxes: Vec<Mailbox<P::Message>> = vec![Vec::new(); n];
        let outputs = Self::compute_round(
            &mut self.programs,
            &mut self.rngs,
            &self.statuses,
            &inboxes,
            &self.topology,
            0,
            threads,
            true,
        );
        for (i, _, outbox, events) in outputs {
            self.record_events(events);
            self.enqueue_from(NodeId::new(i), outbox);
        }
    }

    /// Parallel counterpart of [`Network::step`].
    pub fn step_parallel(&mut self, threads: usize) {
        self.round += 1;
        let (inboxes, words_delivered) = self.deliver();
        let outputs = Self::compute_round(
            &mut self.programs,
            &mut self.rngs,
            &self.statuses,
            &inboxes,
            &self.topology,
            self.round,
            threads,
            false,
        );
        for (i, status, outbox, events) in outputs {
            self.integrate_node_round(i, status, outbox, events);
        }
        self.sink.record(TraceEvent::RoundCompleted {
            round: self.round,
            words_delivered,
        });
    }

    /// Steps every active node on a pool of scoped threads, each thread owning
    /// a contiguous chunk of nodes. Returns `(node, status, outbox)` triples
    /// in ascending node order.
    #[allow(clippy::too_many_arguments)]
    fn compute_round<'a>(
        programs: &'a mut [P],
        rngs: &'a mut [DeterministicRng],
        statuses: &'a [Status],
        inboxes: &'a [Mailbox<P::Message>],
        topology: &'a Topology,
        round: u64,
        threads: usize,
        starting: bool,
    ) -> Vec<NodeOutcome<P::Message>> {
        let n = programs.len();
        if n == 0 {
            return Vec::new();
        }
        let chunk = n.div_ceil(threads.min(n));
        let chunk_outputs: Vec<Vec<NodeOutcome<P::Message>>> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            let programs = programs.chunks_mut(chunk);
            let rngs = rngs.chunks_mut(chunk);
            let statuses = statuses.chunks(chunk);
            let inboxes = inboxes.chunks(chunk);
            for (ci, (((programs, rngs), statuses), inboxes)) in
                programs.zip(rngs).zip(statuses).zip(inboxes).enumerate()
            {
                handles.push(scope.spawn(move || {
                    let base = ci * chunk;
                    let mut out = Vec::with_capacity(programs.len());
                    for (j, program) in programs.iter_mut().enumerate() {
                        let inbox = &inboxes[j];
                        if !starting && statuses[j] == Status::Done && inbox.is_empty() {
                            continue;
                        }
                        let mut outbox = Vec::new();
                        let mut events = Vec::new();
                        let mut ctx = Context {
                            id: NodeId::new(base + j),
                            round,
                            topology,
                            rng: &mut rngs[j],
                            outbox: &mut outbox,
                            events: &mut events,
                        };
                        let status = if starting {
                            program.on_start(&mut ctx);
                            statuses[j]
                        } else {
                            program.on_round(&mut ctx, inbox)
                        };
                        out.push((base + j, status, outbox, events));
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("node program panicked"))
                .collect()
        });
        chunk_outputs.into_iter().flatten().collect()
    }
}

/// Number of worker threads [`Network::run_parallel`] uses: the machine's
/// available parallelism, or 1 if it cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Floods a single token from node 0 along a path; used to check that
    /// bandwidth limits and termination behave as expected.
    struct Flood {
        seen: bool,
    }

    impl NodeProgram for Flood {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.id().index() == 0 {
                self.seen = true;
                ctx.broadcast(1);
            }
        }

        fn on_round(&mut self, ctx: &mut Context<'_, u64>, incoming: &[(NodeId, u64)]) -> Status {
            if !incoming.is_empty() && !self.seen {
                self.seen = true;
                ctx.broadcast(1);
            }
            Status::Done
        }
    }

    #[test]
    fn flood_reaches_everyone_on_a_path() {
        let topo = Topology::path(6);
        let mut net = Network::new(topo, NetworkConfig::default(), |_| Flood { seen: false });
        let report = net.run(100);
        assert!(report.terminated);
        // Token must travel 5 hops.
        assert!(report.simulated_rounds >= 5);
        assert!(net.programs().all(|(_, p)| p.seen));
    }

    /// Node 0 sends `k` messages to node 1 over a single edge; with bandwidth 1
    /// this must take at least `k` rounds.
    struct Burst {
        k: u64,
        received: u64,
    }

    impl NodeProgram for Burst {
        type Message = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            if ctx.id().index() == 0 {
                for i in 0..self.k {
                    ctx.send(NodeId::new(1), i);
                }
            }
        }

        fn on_round(&mut self, _ctx: &mut Context<'_, u64>, incoming: &[(NodeId, u64)]) -> Status {
            self.received += incoming.len() as u64;
            Status::Done
        }
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let k = 17;
        let mut net = Network::new(topo, NetworkConfig::default(), |_| Burst { k, received: 0 });
        let report = net.run(1000);
        assert!(report.terminated);
        assert_eq!(net.program(NodeId::new(1)).received, k);
        assert!(
            report.simulated_rounds >= k,
            "rounds {} < k {}",
            report.simulated_rounds,
            k
        );
        assert_eq!(report.metrics.messages_sent, k);
    }

    #[test]
    fn wider_bandwidth_is_faster() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let k = 32;
        let config = NetworkConfig::default().with_bandwidth(8);
        let mut net = Network::new(topo, config, |_| Burst { k, received: 0 });
        let report = net.run(1000);
        assert!(report.terminated);
        assert!(report.simulated_rounds <= k / 8 + 2);
    }

    #[test]
    fn round_limit_reports_non_termination() {
        let topo = Topology::from_edges(2, &[(0, 1)]);
        let mut net = Network::new(topo, NetworkConfig::default(), |_| Burst {
            k: 100,
            received: 0,
        });
        let report = net.run(3);
        assert!(!report.terminated);
        assert_eq!(report.simulated_rounds, 3);
    }

    #[test]
    fn charges_show_up_in_report() {
        let topo = Topology::path(3);
        let mut net = Network::new(topo, NetworkConfig::default(), |_| Flood { seen: false });
        net.charge(PrimitiveKind::ExpanderDecomposition, 42);
        let report = net.run(10);
        assert_eq!(report.charged_rounds, 42);
        assert_eq!(report.total_rounds(), report.simulated_rounds + 42);
    }

    #[test]
    #[should_panic(expected = "non-neighbour")]
    fn sending_to_non_neighbour_panics() {
        struct Bad;
        impl NodeProgram for Bad {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
                if ctx.id().index() == 0 {
                    ctx.send(NodeId::new(2), 1);
                }
            }
            fn on_round(&mut self, _: &mut Context<'_, u64>, _: &[(NodeId, u64)]) -> Status {
                Status::Done
            }
        }
        let topo = Topology::path(3);
        let mut net = Network::new(topo, NetworkConfig::default(), |_| Bad);
        net.run(2);
    }

    #[test]
    #[should_panic(expected = "at least one word")]
    fn zero_bandwidth_rejected() {
        let _ = NetworkConfig::default().with_bandwidth(0);
    }
}
