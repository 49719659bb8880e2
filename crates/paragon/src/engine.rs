//! Deterministic discrete-event engine.
//!
//! The engine owns the global event queue, the node programs, and one
//! [`IoService`] (the file-system model). It executes node programs in
//! global simulated-time order with deterministic tie-breaking (FIFO by
//! event sequence number), handles blocking and unblocking for every
//! [`Step`] kind (compute, sync/async I/O, barriers, eager sends, blocking
//! receives, broadcasts), and routes I/O calls to the service, which answers
//! by scheduling completions and private timers through [`Sched`].
//!
//! The engine knows nothing about files, striping, or access modes: that is
//! the service's business. The service knows nothing about blocking: that is
//! the engine's.

use crate::mesh::{CommCosts, Mesh};
use crate::program::{GroupId, IoRequest, IoResult, IoToken, NodeProgram, Resume, Step};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::NodeId;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// The file-system side of the simulation.
///
/// `submit` is called once per I/O step; the service must eventually call
/// [`Sched::complete_io`] with the same token (possibly scheduling private
/// timers first and finishing the work in [`IoService::on_timer`]).
pub trait IoService {
    /// Handle an I/O call issued by `node` at time `now`. `is_async` is true
    /// when the call came from [`Step::IoAsync`] (the service may account for
    /// it differently, e.g. tracing an `AsynchRead` instead of a `Read`).
    fn submit(
        &mut self,
        node: NodeId,
        now: SimTime,
        req: IoRequest,
        token: IoToken,
        is_async: bool,
        sched: &mut Sched,
    );

    /// A timer armed via [`Sched::timer`] fired.
    fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched);

    /// The run is about to start (time zero, before any node resumes): arm
    /// any standing timers the service needs — e.g. absolute-time fault
    /// injection from a [`crate::fault::FaultSchedule`]. Default: nothing.
    fn on_start(&mut self, sched: &mut Sched) {
        let _ = sched;
    }

    /// Client-side cost of *issuing* an asynchronous operation. The issuing
    /// node resumes after this long; the operation itself completes whenever
    /// the service says so.
    fn issue_cost(&self, node: NodeId, req: &IoRequest) -> SimDuration {
        let _ = (node, req);
        SimDuration::ZERO
    }

    /// Notification that `node` blocked on an asynchronous operation against
    /// `file` from `wait_start` to `wait_end` — the `iowait` interval the
    /// paper reports for RENDER (Table 3). Default: ignore.
    fn on_iowait(&mut self, node: NodeId, file: u32, wait_start: SimTime, wait_end: SimTime) {
        let _ = (node, file, wait_start, wait_end);
    }

    /// The run finished at `now`: flush any buffered state (write-behind
    /// buffers, open summaries). Default: nothing.
    fn on_run_end(&mut self, now: SimTime) {
        let _ = now;
    }
}

/// Buffered scheduling interface handed to the service.
#[derive(Debug, Default)]
pub struct Sched {
    completions: Vec<(IoToken, SimTime, IoResult)>,
    timers: Vec<(SimTime, u64)>,
}

impl Sched {
    /// An empty scheduling buffer. Wrapper services (e.g. a burst-log tier
    /// fronting an inner backend) hand a private `Sched` to the wrapped
    /// service so they can inspect and filter its completions before
    /// forwarding them to the engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Complete the I/O identified by `token` at time `at`.
    pub fn complete_io(&mut self, token: IoToken, at: SimTime, result: IoResult) {
        self.completions.push((token, at, result));
    }

    /// Arm a service-private timer that fires [`IoService::on_timer`] at
    /// `at` with the given timer id.
    pub fn timer(&mut self, at: SimTime, timer: u64) {
        self.timers.push((at, timer));
    }

    /// Drain the buffered completions in place (wrapper-service filtering
    /// hook); the buffer keeps its capacity for the next call.
    pub fn take_completions(&mut self) -> std::vec::Drain<'_, (IoToken, SimTime, IoResult)> {
        self.completions.drain(..)
    }

    /// Drain the buffered timers in place (wrapper-service filtering hook).
    pub fn take_timers(&mut self) -> std::vec::Drain<'_, (SimTime, u64)> {
        self.timers.drain(..)
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Resume(NodeId, Resume),
    IoComplete(IoToken, IoResult),
    ServiceTimer(u64),
}

#[derive(Debug, Clone, Copy)]
enum TokenState {
    /// Node blocked on a synchronous call.
    Sync(NodeId, u32),
    /// Async in flight, nobody waiting yet.
    AsyncPending(NodeId, u32),
    /// Async in flight, issuer blocked in IoWait since the given time.
    AsyncWaited(NodeId, u32, SimTime),
    /// Async completed, result parked until the issuer waits (file id kept
    /// for the `on_iowait` notification).
    AsyncDone(IoResult, u32),
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: Vec<NodeId>,
}

#[derive(Debug, Default)]
struct BroadcastState {
    arrived: Vec<NodeId>,
    bytes: u64,
}

/// One eager-message channel: messages from one sender to one receiver under
/// one tag. Channels live in a per-receiver table, located through a keyed
/// slot index ([`ChanIndex`]) — many-to-one patterns (gateways, collectives)
/// give busy receivers hundreds of channels, so a linear scan would be
/// quadratic in traffic.
#[derive(Debug, Default)]
struct Channel {
    /// FIFO of in-flight messages: (arrival time, bytes).
    queue: VecDeque<(SimTime, u64)>,
    /// Receiver blocked on this channel (at most one: receives are issued by
    /// the receiving node itself).
    waiting: bool,
}

/// Single-word mixer for the channel slot index: `(from, tag)` packs into
/// one `u64`, hashed with a multiply + xor-shift. Fixed seed, so fully
/// deterministic (the index is only ever probed by key, never iterated).
#[derive(Default)]
struct ChanHash(u64);

impl Hasher for ChanHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("channel keys hash via write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-receiver map from packed `(from, tag)` to slot in the channel table.
type ChanIndex = HashMap<u64, u32, BuildHasherDefault<ChanHash>>;

/// Hot-path counters the engine maintains for free (plain integer updates on
/// state it already touches); read out once per run via [`Engine::perf`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnginePerf {
    /// Total events processed.
    pub events: u64,
    /// Peak pending events across all lanes of the event queue.
    pub heap_peak: u64,
    /// Peak number of buffered (sent, not yet received) eager messages.
    pub channel_peak: u64,
}

/// Default liveness-watchdog deadline: 10⁷ simulated seconds, orders of
/// magnitude beyond any legitimate run in this repository, so arming it
/// can never change a healthy result — it only converts an otherwise
/// unbounded stuck run into a terminating one with a typed [`HangReport`].
pub const DEFAULT_WATCHDOG: SimTime = SimTime(10_000_000 * 1_000_000_000);

/// Why the liveness watchdog declared a run stuck rather than finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HangReason {
    /// The event queue drained with programs unfinished — a deadlock or
    /// missing partner: no future event can wake the parked nodes.
    Exhausted,
    /// Simulated time crossed the watchdog deadline with programs still
    /// unfinished — a livelock (e.g. an unbounded retry loop) that keeps
    /// generating events without ever finishing.
    DeadlineExceeded {
        /// The armed deadline that was crossed.
        deadline: SimTime,
    },
}

/// Typed diagnosis of a stuck run, produced when the liveness watchdog
/// (see [`Engine::set_watchdog`]) distinguishes "stuck" from "finished":
/// which nodes are parked, which I/O requests never completed, and how many
/// service timers were abandoned in the event queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HangReport {
    /// Simulated time at which the hang was declared.
    pub at: SimTime,
    /// What tripped the watchdog.
    pub reason: HangReason,
    /// Nodes whose programs never reached `Done`.
    pub parked_nodes: Vec<NodeId>,
    /// I/O tokens still in flight (issued but never completed).
    pub pending_requests: Vec<IoToken>,
    /// Service timers abandoned unprocessed in the event queue.
    pub killed_timers: u64,
}

/// Final run statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Time of the last processed event.
    pub wall: SimTime,
    /// Total events processed.
    pub events: u64,
    /// Nodes whose programs reached `Done`.
    pub nodes_done: u32,
    /// Nodes still blocked when the event queue drained (deadlock or missing
    /// partner); empty on a clean run.
    pub blocked: Vec<NodeId>,
    /// Liveness-watchdog diagnosis; `Some` only when a watchdog was armed
    /// and the run was declared stuck rather than finished or crash-cut.
    pub hang: Option<HangReport>,
}

impl EngineReport {
    /// True when every node finished and no watchdog tripped.
    pub fn clean(&self) -> bool {
        self.blocked.is_empty() && self.hang.is_none()
    }
}

/// Hard safety limit on processed events (runaway-program backstop).
const MAX_EVENTS: u64 = 2_000_000_000;

/// The discrete-event engine.
///
/// All hot-path state is dense and index-addressed: event payloads live in a
/// slab and the event queue holds only their slot indices, eager messages in
/// per-receiver channel tables, barrier/broadcast state in vectors indexed by
/// group id, and I/O token state in a sliding window keyed by the token's
/// offset from the oldest live token. The only ordering authority is the
/// queue's `(time, seq)` order, so none of this affects event order. The
/// queue keeps three lanes — events at the current instant in a FIFO, pushes
/// at or after the last one in a monotone lane, everything else in a binary
/// heap — and pops them in exactly that global order.
pub struct Engine<S: IoService> {
    /// Pending events; also owns the clock (the time of the last pop).
    queue: EventQueue,
    /// Event payload slab, addressed by the slot index the queue carries.
    slab: Vec<Ev>,
    free: Vec<u32>,
    programs: Vec<Box<dyn NodeProgram>>,
    done: Vec<bool>,
    service: S,
    /// The one scheduling buffer handed to the service; drained in place
    /// after every call.
    sched: Sched,
    mesh: Mesh,
    comm: CommCosts,
    groups: Vec<Vec<NodeId>>,
    /// Barrier/broadcast rendezvous state, indexed by `GroupId`.
    barriers: Vec<BarrierState>,
    broadcasts: Vec<BroadcastState>,
    /// Eager-message channels, indexed by receiving node.
    channels: Vec<Vec<Channel>>,
    /// Per-receiver `(from, tag)` → channel-slot index.
    chan_slots: Vec<ChanIndex>,
    /// Live token states in a sliding window: `tokens[t - token_base]` is the
    /// state of token `t`. Tokens are issued sequentially and retired roughly
    /// in order, so the window stays small.
    tokens: VecDeque<Option<TokenState>>,
    token_base: IoToken,
    next_token: IoToken,
    events_processed: u64,
    channel_buffered: u64,
    channel_peak: u64,
    /// Liveness-watchdog deadline: a run whose simulated time crosses this
    /// with programs unfinished is declared stuck (see [`HangReport`]).
    watchdog: Option<SimTime>,
}

impl<S: IoService> Engine<S> {
    /// Build an engine over `programs` (node `i` runs `programs[i]`) with the
    /// given mesh/interconnect parameters and file-system service. Group 0 is
    /// pre-registered as "all nodes".
    pub fn new(
        mesh: Mesh,
        comm: CommCosts,
        programs: Vec<Box<dyn NodeProgram>>,
        service: S,
    ) -> Engine<S> {
        assert!(
            programs.len() as u32 <= mesh.compute_nodes,
            "more programs than compute nodes"
        );
        let n = programs.len();
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let done = vec![false; n];
        // In steady state each node has at most a few events in flight
        // (resume + an async completion or message); pre-size the queue and
        // slab so neither reallocates mid-run.
        let cap = 4 * n + 16;
        let mut channels = Vec::with_capacity(n);
        channels.resize_with(n, Vec::new);
        let mut chan_slots = Vec::with_capacity(n);
        chan_slots.resize_with(n, ChanIndex::default);
        Engine {
            queue: EventQueue::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            programs,
            done,
            service,
            sched: Sched::default(),
            mesh,
            comm,
            groups: vec![all],
            barriers: vec![BarrierState::default()],
            broadcasts: vec![BroadcastState::default()],
            channels,
            chan_slots,
            tokens: VecDeque::new(),
            token_base: 1,
            next_token: 1,
            events_processed: 0,
            channel_buffered: 0,
            channel_peak: 0,
            watchdog: None,
        }
    }

    /// Arm the liveness watchdog at [`DEFAULT_WATCHDOG`] — the idiom for
    /// tests and sweeps that drive the engine directly rather than through
    /// a harness that picks its own deadline.
    pub fn set_default_watchdog(&mut self) {
        self.set_watchdog(DEFAULT_WATCHDOG);
    }

    /// Arm the liveness watchdog: if simulated time crosses `deadline` while
    /// any program is unfinished, or the event queue drains with programs
    /// unfinished, the run stops and the report carries a typed
    /// [`HangReport`] instead of spinning until the event budget blows.
    /// (A zero-time livelock — events that never advance the clock — is
    /// still caught by the hard `MAX_EVENTS` backstop.)
    pub fn set_watchdog(&mut self, deadline: SimTime) {
        self.watchdog = Some(deadline);
    }

    /// Register a node group for barriers/broadcasts; returns its id.
    pub fn add_group(&mut self, nodes: Vec<NodeId>) -> GroupId {
        assert!(!nodes.is_empty(), "empty group");
        self.groups.push(nodes);
        self.barriers.push(BarrierState::default());
        self.broadcasts.push(BroadcastState::default());
        (self.groups.len() - 1) as GroupId
    }

    /// Hot-path counters for this run so far.
    pub fn perf(&self) -> EnginePerf {
        EnginePerf {
            events: self.events_processed,
            heap_peak: self.queue.peak() as u64,
            channel_peak: self.channel_peak,
        }
    }

    /// Access the service (e.g. to extract its tracer after the run).
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Consume the engine, returning the service.
    pub fn into_service(self) -> S {
        self.service
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = ev;
                slot
            }
            None => {
                // Checked: a wrapped slot index would silently alias another
                // event's payload and corrupt the queue.
                let slot = u32::try_from(self.slab.len()).expect("event slab exceeds u32 slots");
                self.slab.push(ev);
                slot
            }
        };
        self.queue.push(at, slot);
    }

    /// Find (or create) the channel carrying messages `from -> to` under
    /// `tag`; returns its index in `to`'s channel table.
    fn channel_index(&mut self, to: NodeId, from: NodeId, tag: u32) -> usize {
        let table = &mut self.channels[to as usize];
        let slot = self.chan_slots[to as usize]
            .entry((from as u64) << 32 | tag as u64)
            .or_insert_with(|| {
                table.push(Channel::default());
                u32::try_from(table.len() - 1).expect("channel table exceeds u32 slots")
            });
        *slot as usize
    }

    fn token_index(&self, token: IoToken) -> Option<usize> {
        if token < self.token_base {
            return None;
        }
        let i = (token - self.token_base) as usize;
        (i < self.tokens.len()).then_some(i)
    }

    fn token_insert(&mut self, state: TokenState) -> IoToken {
        let token = self.next_token;
        self.next_token += 1;
        self.tokens.push_back(Some(state));
        token
    }

    /// Drop retired tokens off the front so the window tracks the live range.
    fn compact_tokens(&mut self) {
        while matches!(self.tokens.front(), Some(None)) {
            self.tokens.pop_front();
            self.token_base += 1;
        }
    }

    /// Drain buffered scheduling into the queue, leaving `sched` empty with
    /// its capacity; returns whether anything was scheduled (a no-effect
    /// timer should not extend the reported wall time).
    fn drain_sched(&mut self, sched: &mut Sched) -> bool {
        let any = !sched.completions.is_empty() || !sched.timers.is_empty();
        for (token, at, result) in sched.completions.drain(..) {
            self.push(at.max(self.queue.now()), Ev::IoComplete(token, result));
        }
        for (at, timer) in sched.timers.drain(..) {
            self.push(at.max(self.queue.now()), Ev::ServiceTimer(timer));
        }
        any
    }

    /// Make one `call` on the service with the engine's one `Sched`, then
    /// queue what it scheduled; returns whether anything was scheduled.
    fn call_service(&mut self, call: impl FnOnce(&mut S, &mut Sched)) -> bool {
        let mut sched = std::mem::take(&mut self.sched);
        call(&mut self.service, &mut sched);
        let any = self.drain_sched(&mut sched);
        self.sched = sched;
        any
    }

    /// Run to completion (event queue drained). Returns run statistics.
    pub fn run(&mut self) -> EngineReport {
        self.run_until(SimTime(u64::MAX))
    }

    /// Run until the event queue drains or simulated time would pass
    /// `stop`: events at `t <= stop` are processed, everything later is
    /// abandoned in the queue. This models a hard application crash at
    /// `stop` — in-flight work simply never completes, and the report's
    /// `blocked` list names the nodes that died mid-program. A `stop` of
    /// `SimTime(u64::MAX)` is an ordinary full run.
    pub fn run_until(&mut self, stop: SimTime) -> EngineReport {
        self.call_service(|service, sched| service.on_start(sched));
        for node in 0..self.programs.len() as NodeId {
            self.push(SimTime::ZERO, Ev::Resume(node, Resume::Start));
        }
        // Wall time excludes trailing no-effect service timers (e.g. a
        // periodic flush firing long after the programs finished with
        // nothing left to flush).
        let mut wall = SimTime::ZERO;
        let mut hang: Option<HangReport> = None;
        while let Some(t) = self.queue.peek_time() {
            if t > stop {
                break;
            }
            if let Some(deadline) = self.watchdog {
                if t > deadline && !self.done.iter().all(|d| *d) {
                    hang = Some(self.hang_report(t, HangReason::DeadlineExceeded { deadline }));
                    break;
                }
            }
            let (_, slot) = self.queue.pop().expect("peeked event vanished");
            let ev = self.slab[slot as usize];
            self.free.push(slot);
            self.events_processed += 1;
            assert!(
                self.events_processed < MAX_EVENTS,
                "event budget exceeded: runaway program?"
            );
            match ev {
                Ev::Resume(node, resume) => {
                    self.step_node(node, resume);
                    wall = self.queue.now();
                }
                Ev::IoComplete(token, result) => {
                    self.io_complete(token, result);
                    wall = self.queue.now();
                }
                Ev::ServiceTimer(timer) => {
                    let now = self.queue.now();
                    if self.call_service(|service, sched| service.on_timer(now, timer, sched)) {
                        wall = now;
                    }
                }
            }
        }
        self.service.on_run_end(self.queue.now());
        let blocked: Vec<NodeId> = (0..self.programs.len() as NodeId)
            .filter(|&n| !self.done[n as usize])
            .collect();
        // Quiescence check: every queue lane drained (nothing was abandoned
        // past a crash cut or a tripped deadline) yet programs never
        // finished — that is "stuck", not "finished".
        if hang.is_none() && self.watchdog.is_some() && self.queue.is_empty() && !blocked.is_empty()
        {
            hang = Some(self.hang_report(self.queue.now(), HangReason::Exhausted));
        }
        EngineReport {
            wall,
            events: self.events_processed,
            nodes_done: self.done.iter().filter(|d| **d).count() as u32,
            blocked,
            hang,
        }
    }

    /// Snapshot the stuck state: parked nodes, in-flight I/O tokens, and the
    /// service timers that will never fire.
    fn hang_report(&self, at: SimTime, reason: HangReason) -> HangReport {
        let parked_nodes: Vec<NodeId> = (0..self.programs.len() as NodeId)
            .filter(|&n| !self.done[n as usize])
            .collect();
        let pending_requests: Vec<IoToken> = self
            .tokens
            .iter()
            .enumerate()
            .filter_map(|(i, st)| match st {
                Some(
                    TokenState::Sync(..)
                    | TokenState::AsyncPending(..)
                    | TokenState::AsyncWaited(..),
                ) => Some(self.token_base + i as IoToken),
                _ => None,
            })
            .collect();
        let killed_timers = self
            .queue
            .slots()
            .filter(|&slot| matches!(self.slab[slot as usize], Ev::ServiceTimer(_)))
            .count() as u64;
        HangReport {
            at,
            reason,
            parked_nodes,
            pending_requests,
            killed_timers,
        }
    }

    fn step_node(&mut self, node: NodeId, resume: Resume) {
        if self.done[node as usize] {
            return;
        }
        let step = self.programs[node as usize].step(node, resume);
        match step {
            Step::Compute(d) => {
                let at = self.queue.now() + d;
                self.push(at, Ev::Resume(node, Resume::Computed));
            }
            Step::Io(req) => {
                let token = self.token_insert(TokenState::Sync(node, req.file));
                self.submit(node, req, token, false);
            }
            Step::IoAsync(req) => {
                let token = self.token_insert(TokenState::AsyncPending(node, req.file));
                let issue = self.service.issue_cost(node, &req);
                self.submit(node, req, token, true);
                let at = self.queue.now() + issue;
                self.push(at, Ev::Resume(node, Resume::IoIssued(token)));
            }
            Step::IoWait(token) => {
                let i = self
                    .token_index(token)
                    .unwrap_or_else(|| panic!("IoWait on unknown token {token}"));
                match self.tokens[i] {
                    Some(TokenState::AsyncDone(result, file)) => {
                        self.tokens[i] = None;
                        self.compact_tokens();
                        self.service
                            .on_iowait(node, file, self.queue.now(), self.queue.now());
                        let at = self.queue.now();
                        self.push(at, Ev::Resume(node, Resume::IoWaited(result)));
                    }
                    Some(TokenState::AsyncPending(owner, file)) => {
                        debug_assert_eq!(owner, node, "waiting on another node's token");
                        self.tokens[i] =
                            Some(TokenState::AsyncWaited(node, file, self.queue.now()));
                    }
                    Some(other) => panic!("IoWait on non-async token {token}: {other:?}"),
                    None => panic!("IoWait on unknown token {token}"),
                }
            }
            Step::Barrier(group) => {
                let size = self.group(group).len();
                debug_assert!(
                    self.group(group).contains(&node),
                    "node {node} not in group {group}"
                );
                let state = &mut self.barriers[group as usize];
                state.arrived.push(node);
                if state.arrived.len() == size {
                    let members = std::mem::take(&mut state.arrived);
                    let size = u32::try_from(size).expect("group size exceeds u32");
                    let release = self.queue.now() + self.mesh.barrier_time(&self.comm, size);
                    for member in members {
                        self.push(release, Ev::Resume(member, Resume::BarrierDone));
                    }
                }
            }
            Step::Send { to, bytes, tag } => {
                let hops = self.mesh.compute_hops(node, to);
                let arrival = self.queue.now() + self.mesh.msg_time(&self.comm, hops, bytes);
                let i = self.channel_index(to, node, tag);
                let ch = &mut self.channels[to as usize][i];
                if ch.waiting {
                    ch.waiting = false;
                    self.push(arrival, Ev::Resume(to, Resume::Received(bytes)));
                } else {
                    ch.queue.push_back((arrival, bytes));
                    self.channel_buffered += 1;
                    self.channel_peak = self.channel_peak.max(self.channel_buffered);
                }
                let resumed = self.queue.now() + self.comm.sw_overhead;
                self.push(resumed, Ev::Resume(node, Resume::Sent));
            }
            Step::Recv { from, tag } => {
                let i = self.channel_index(node, from, tag);
                let ch = &mut self.channels[node as usize][i];
                if let Some((arrival, bytes)) = ch.queue.pop_front() {
                    self.channel_buffered -= 1;
                    let at = arrival.max(self.queue.now());
                    self.push(at, Ev::Resume(node, Resume::Received(bytes)));
                } else {
                    debug_assert!(!ch.waiting, "double recv on ({from}, {node}, {tag})");
                    ch.waiting = true;
                }
            }
            Step::Broadcast { root, bytes, group } => {
                let size = self.group(group).len();
                debug_assert!(
                    self.group(group).contains(&node),
                    "node {node} not in group {group}"
                );
                let state = &mut self.broadcasts[group as usize];
                state.arrived.push(node);
                if node == root {
                    state.bytes = bytes;
                }
                if state.arrived.len() == size {
                    let members = std::mem::take(&mut state.arrived);
                    let payload = state.bytes;
                    state.bytes = 0;
                    let size = u32::try_from(size).expect("group size exceeds u32");
                    let done =
                        self.queue.now() + self.mesh.broadcast_time(&self.comm, size, payload);
                    for member in members {
                        self.push(done, Ev::Resume(member, Resume::BroadcastDone));
                    }
                }
            }
            Step::Done => {
                self.done[node as usize] = true;
            }
        }
    }

    /// Hand one I/O call to the service and queue what it scheduled.
    fn submit(&mut self, node: NodeId, req: IoRequest, token: IoToken, is_async: bool) {
        let now = self.queue.now();
        self.call_service(|service, sched| service.submit(node, now, req, token, is_async, sched));
    }

    fn io_complete(&mut self, token: IoToken, result: IoResult) {
        let state = self.token_index(token).and_then(|i| self.tokens[i].take());
        match state {
            Some(TokenState::Sync(node, _file)) => {
                self.compact_tokens();
                let at = self.queue.now();
                self.push(at, Ev::Resume(node, Resume::IoDone(result)));
            }
            Some(TokenState::AsyncPending(_node, file)) => {
                // Completed before anyone waited: park the result in place.
                let i = self.token_index(token).expect("token window moved");
                self.tokens[i] = Some(TokenState::AsyncDone(result, file));
            }
            Some(TokenState::AsyncWaited(node, file, wait_start)) => {
                self.compact_tokens();
                self.service
                    .on_iowait(node, file, wait_start, self.queue.now());
                let at = self.queue.now();
                self.push(at, Ev::Resume(node, Resume::IoWaited(result)));
            }
            Some(TokenState::AsyncDone(..)) | None => {
                panic!("duplicate or unknown completion for token {token}")
            }
        }
    }

    fn group(&self, id: GroupId) -> &[NodeId] {
        &self.groups[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{IoVerb, ScriptOp, ScriptProgram};

    /// A trivial service: every operation takes a fixed 1 ms.
    struct FixedService {
        latency: SimDuration,
        submitted: Vec<(NodeId, IoVerb)>,
        iowaits: Vec<(NodeId, SimDuration)>,
    }

    impl FixedService {
        fn new() -> FixedService {
            FixedService {
                latency: SimDuration::from_millis(1),
                submitted: Vec::new(),
                iowaits: Vec::new(),
            }
        }
    }

    impl IoService for FixedService {
        fn submit(
            &mut self,
            node: NodeId,
            now: SimTime,
            req: IoRequest,
            token: IoToken,
            _is_async: bool,
            sched: &mut Sched,
        ) {
            self.submitted.push((node, req.verb));
            sched.complete_io(
                token,
                now + self.latency,
                IoResult {
                    bytes: req.bytes,
                    queued: SimDuration::ZERO,
                    service: self.latency,
                    fault: None,
                },
            );
        }

        fn on_timer(&mut self, _now: SimTime, _timer: u64, _sched: &mut Sched) {}

        fn issue_cost(&self, _node: NodeId, _req: &IoRequest) -> SimDuration {
            SimDuration::from_micros(10)
        }

        fn on_iowait(&mut self, node: NodeId, _file: u32, s: SimTime, e: SimTime) {
            self.iowaits.push((node, e.since(s)));
        }
    }

    fn engine_for(progs: Vec<Vec<ScriptOp>>) -> Engine<FixedService> {
        let n = progs.len() as u32;
        let mesh = Mesh::for_nodes(n.max(2), 1);
        let programs: Vec<Box<dyn NodeProgram>> = progs
            .into_iter()
            .map(|ops| Box::new(ScriptProgram::new(ops)) as Box<dyn NodeProgram>)
            .collect();
        Engine::new(mesh, CommCosts::default(), programs, FixedService::new())
    }

    #[test]
    fn compute_advances_time() {
        let mut e = engine_for(vec![vec![ScriptOp::Compute(SimDuration::from_secs(3))]]);
        let report = e.run();
        assert!(report.clean());
        assert_eq!(report.wall, SimTime(3_000_000_000));
        assert_eq!(report.nodes_done, 1);
    }

    #[test]
    fn sync_io_blocks_for_service_latency() {
        let mut e = engine_for(vec![vec![
            ScriptOp::Io(IoRequest::read(1, 100)),
            ScriptOp::Io(IoRequest::write(1, 100)),
        ]]);
        let report = e.run();
        assert!(report.clean());
        assert_eq!(report.wall, SimTime(2_000_000));
        assert_eq!(
            e.service().submitted,
            vec![(0, IoVerb::Read), (0, IoVerb::Write)]
        );
    }

    #[test]
    fn async_io_overlaps_with_compute() {
        // Async read (1 ms) issued, then 5 ms of compute, then wait: total
        // should be ~5 ms (+ issue cost), not 6 ms.
        let mut e = engine_for(vec![vec![
            ScriptOp::IoAsync(IoRequest::read(1, 100)),
            ScriptOp::Compute(SimDuration::from_millis(5)),
            ScriptOp::WaitOldest,
        ]]);
        let report = e.run();
        assert!(report.clean());
        assert!(report.wall < SimTime(5_200_000), "wall {}", report.wall);
        // The wait found the result ready: zero recorded iowait.
        assert_eq!(e.service().iowaits.len(), 1);
        assert_eq!(e.service().iowaits[0].1, SimDuration::ZERO);
    }

    #[test]
    fn async_io_wait_blocks_when_not_ready() {
        let mut e = engine_for(vec![vec![
            ScriptOp::IoAsync(IoRequest::read(1, 100)),
            ScriptOp::WaitOldest,
        ]]);
        let report = e.run();
        assert!(report.clean());
        // Wait started at issue-cost (10 us), completion at 1 ms.
        let wait = e.service().iowaits[0].1;
        assert_eq!(wait, SimDuration(990_000));
    }

    #[test]
    fn barrier_synchronizes_nodes() {
        // Node 0 computes 1 ms, node 1 computes 10 ms; both then barrier and
        // finish together.
        let mut e = engine_for(vec![
            vec![
                ScriptOp::Compute(SimDuration::from_millis(1)),
                ScriptOp::Barrier(0),
            ],
            vec![
                ScriptOp::Compute(SimDuration::from_millis(10)),
                ScriptOp::Barrier(0),
            ],
        ]);
        let report = e.run();
        assert!(report.clean());
        assert!(report.wall >= SimTime(10_000_000));
    }

    #[test]
    fn send_recv_rendezvous_both_orders() {
        // Order 1: send first.
        let mut e = engine_for(vec![
            vec![ScriptOp::Send {
                to: 1,
                bytes: 1000,
                tag: 5,
            }],
            vec![ScriptOp::Recv { from: 0, tag: 5 }],
        ]);
        assert!(e.run().clean());
        // Order 2: receiver blocks first (receiver is delayed less than the
        // sender's compute).
        let mut e = engine_for(vec![
            vec![
                ScriptOp::Compute(SimDuration::from_millis(5)),
                ScriptOp::Send {
                    to: 1,
                    bytes: 1000,
                    tag: 5,
                },
            ],
            vec![ScriptOp::Recv { from: 0, tag: 5 }],
        ]);
        let report = e.run();
        assert!(report.clean());
        assert!(report.wall >= SimTime(5_000_000));
    }

    #[test]
    fn tags_keep_messages_apart() {
        let mut e = engine_for(vec![
            vec![
                ScriptOp::Send {
                    to: 1,
                    bytes: 10,
                    tag: 1,
                },
                ScriptOp::Send {
                    to: 1,
                    bytes: 20,
                    tag: 2,
                },
            ],
            vec![
                // Receive tag 2 first, then tag 1.
                ScriptOp::Recv { from: 0, tag: 2 },
                ScriptOp::Recv { from: 0, tag: 1 },
            ],
        ]);
        assert!(e.run().clean());
    }

    #[test]
    fn broadcast_releases_whole_group() {
        let mut e = engine_for(vec![
            vec![ScriptOp::Broadcast {
                root: 0,
                bytes: 1 << 20,
                group: 0,
            }],
            vec![
                ScriptOp::Compute(SimDuration::from_millis(3)),
                ScriptOp::Broadcast {
                    root: 0,
                    bytes: 1 << 20,
                    group: 0,
                },
            ],
        ]);
        let report = e.run();
        assert!(report.clean());
        // Broadcast cannot complete before the latest arrival.
        assert!(report.wall >= SimTime(3_000_000));
    }

    #[test]
    fn subgroup_barrier_excludes_outsiders() {
        let mesh = Mesh::for_nodes(3, 1);
        let programs: Vec<Box<dyn NodeProgram>> = vec![
            // Node 0 never joins the group barrier.
            Box::new(ScriptProgram::new(vec![ScriptOp::Compute(
                SimDuration::from_millis(1),
            )])),
            Box::new(ScriptProgram::new(vec![ScriptOp::Barrier(1)])),
            Box::new(ScriptProgram::new(vec![ScriptOp::Barrier(1)])),
        ];
        let mut e = Engine::new(mesh, CommCosts::default(), programs, FixedService::new());
        let g = e.add_group(vec![1, 2]);
        assert_eq!(g, 1);
        let report = e.run();
        assert!(report.clean());
    }

    #[test]
    fn missing_partner_reports_blocked() {
        let mut e = engine_for(vec![vec![ScriptOp::Recv { from: 1, tag: 0 }], vec![]]);
        let report = e.run();
        assert!(!report.clean());
        assert_eq!(report.blocked, vec![0]);
        assert_eq!(report.nodes_done, 1);
    }

    #[test]
    fn repeated_barriers_reuse_group_state() {
        // Ten consecutive barriers on the same group must all release.
        let progs = (0..3)
            .map(|_| {
                let mut ops = Vec::new();
                for _ in 0..10 {
                    ops.push(ScriptOp::Compute(SimDuration(100)));
                    ops.push(ScriptOp::Barrier(0));
                }
                ops
            })
            .collect();
        let mut e = engine_for(progs);
        let report = e.run();
        assert!(report.clean());
    }

    #[test]
    fn repeated_broadcasts_reuse_group_state() {
        let progs = (0..3)
            .map(|_| {
                (0..5)
                    .map(|_| ScriptOp::Broadcast {
                        root: 1,
                        bytes: 4096,
                        group: 0,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut e = engine_for(progs);
        assert!(e.run().clean());
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn iowait_on_unknown_token_panics() {
        struct Bad;
        impl NodeProgram for Bad {
            fn step(&mut self, _: NodeId, _: crate::program::Resume) -> crate::program::Step {
                crate::program::Step::IoWait(999)
            }
        }
        let mesh = Mesh::for_nodes(2, 1);
        let mut e = Engine::new(
            mesh,
            CommCosts::default(),
            vec![Box::new(Bad)],
            FixedService::new(),
        );
        let _ = e.run();
    }

    #[test]
    fn unwaited_async_completes_without_resume() {
        // A program that issues async I/O and finishes without waiting must
        // not deadlock or panic; the completion is simply parked.
        let mut e = engine_for(vec![vec![
            ScriptOp::IoAsync(IoRequest::read(1, 64)),
            ScriptOp::Compute(SimDuration::from_millis(5)),
        ]]);
        let report = e.run();
        assert!(report.clean());
    }

    #[test]
    fn deterministic_event_order() {
        let build = || {
            engine_for(vec![
                vec![
                    ScriptOp::Io(IoRequest::read(1, 10)),
                    ScriptOp::Barrier(0),
                    ScriptOp::Io(IoRequest::write(1, 10)),
                ],
                vec![
                    ScriptOp::Io(IoRequest::read(2, 10)),
                    ScriptOp::Barrier(0),
                    ScriptOp::Io(IoRequest::write(2, 10)),
                ],
            ])
        };
        let mut a = build();
        let mut b = build();
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra, rb);
        assert_eq!(a.service().submitted, b.service().submitted);
    }

    /// A service that never completes requests and keeps re-arming a timer:
    /// the shape of a livelocked retry loop.
    struct BlackHoleService {
        next_timer: u64,
    }

    impl IoService for BlackHoleService {
        fn submit(
            &mut self,
            _node: NodeId,
            now: SimTime,
            _req: IoRequest,
            _token: IoToken,
            _is_async: bool,
            sched: &mut Sched,
        ) {
            sched.timer(now + SimDuration::from_millis(10), self.next_timer);
            self.next_timer += 1;
        }

        fn on_timer(&mut self, now: SimTime, _timer: u64, sched: &mut Sched) {
            sched.timer(now + SimDuration::from_millis(10), self.next_timer);
            self.next_timer += 1;
        }
    }

    #[test]
    fn watchdog_trips_on_livelock_with_typed_report() {
        let mesh = Mesh::for_nodes(2, 1);
        let programs: Vec<Box<dyn NodeProgram>> = vec![
            Box::new(ScriptProgram::new(vec![ScriptOp::Io(IoRequest::read(
                1, 64,
            ))])),
            Box::new(ScriptProgram::new(vec![])),
        ];
        let mut e = Engine::new(
            mesh,
            CommCosts::default(),
            programs,
            BlackHoleService { next_timer: 0 },
        );
        e.set_watchdog(SimTime(0) + SimDuration::from_secs(1));
        let report = e.run();
        assert!(!report.clean());
        let hang = report.hang.expect("watchdog must trip");
        assert_eq!(
            hang.reason,
            HangReason::DeadlineExceeded {
                deadline: SimTime(0) + SimDuration::from_secs(1)
            }
        );
        assert!(hang.at > SimTime(0) + SimDuration::from_secs(1));
        assert_eq!(hang.parked_nodes, vec![0]);
        assert_eq!(hang.pending_requests.len(), 1, "the read never completed");
        assert_eq!(hang.killed_timers, 1, "the re-armed timer was abandoned");
        // Far fewer events than the livelock would otherwise generate.
        assert!(report.events < 1000);
    }

    #[test]
    fn watchdog_reports_exhausted_heap_as_stuck() {
        let mut e = engine_for(vec![vec![ScriptOp::Recv { from: 1, tag: 0 }], vec![]]);
        e.set_watchdog(SimTime(u64::MAX - 1));
        let report = e.run();
        assert!(!report.clean());
        assert_eq!(report.blocked, vec![0]);
        let hang = report.hang.expect("quiescence with parked nodes is a hang");
        assert_eq!(hang.reason, HangReason::Exhausted);
        assert_eq!(hang.parked_nodes, vec![0]);
        assert_eq!(hang.killed_timers, 0);
    }

    /// A service that never completes a request: each submit arms a
    /// request deadline 600 s out, as `FsCore` does under a fault schedule,
    /// and optionally a retry timer that re-arms itself every `retry`.
    struct DeadlineService {
        retry: Option<SimDuration>,
    }

    impl IoService for DeadlineService {
        fn submit(
            &mut self,
            _node: NodeId,
            now: SimTime,
            _req: IoRequest,
            _token: IoToken,
            _is_async: bool,
            sched: &mut Sched,
        ) {
            sched.timer(now + SimDuration::from_secs(600), 0);
            if let Some(retry) = self.retry {
                sched.timer(now + retry, 1);
            }
        }

        fn on_timer(&mut self, now: SimTime, timer: u64, sched: &mut Sched) {
            if let (1, Some(retry)) = (timer, self.retry) {
                sched.timer(now + retry, 1);
            }
        }
    }

    /// Node 0 computes 1 s and finishes; node 1 issues one read that never
    /// completes. The 1 s resume opens the monotone lane, so the read's
    /// deadline lands behind it there and any retry timer in the heap.
    fn deadline_engine(retry: Option<SimDuration>) -> Engine<DeadlineService> {
        let programs: Vec<Box<dyn NodeProgram>> = vec![
            Box::new(ScriptProgram::new(vec![ScriptOp::Compute(
                SimDuration::from_secs(1),
            )])),
            Box::new(ScriptProgram::new(vec![ScriptOp::Io(IoRequest::read(
                1, 64,
            ))])),
        ];
        Engine::new(
            Mesh::for_nodes(2, 1),
            CommCosts::default(),
            programs,
            DeadlineService { retry },
        )
    }

    #[test]
    fn watchdog_sees_every_queue_lane() {
        // Crash cut with the only abandoned event in the monotone lane: the
        // queue is not drained, so this is a crash, not an exhausted hang.
        let mut e = deadline_engine(None);
        e.set_default_watchdog();
        let report = e.run_until(SimTime(0) + SimDuration::from_secs(2));
        assert_eq!(e.queue.lane_lens(), (0, 1, 0));
        assert_eq!(report.blocked, vec![1]);
        assert_eq!(
            report.hang, None,
            "a non-empty monotone lane is not quiescence"
        );

        // Tripped deadline with one abandoned timer in the monotone lane and
        // one in the heap: both are counted.
        let mut e = deadline_engine(Some(SimDuration::from_secs(10)));
        e.set_watchdog(SimTime(0) + SimDuration::from_secs(15));
        let report = e.run();
        assert_eq!(e.queue.lane_lens(), (0, 1, 1));
        let hang = report.hang.expect("watchdog must trip");
        assert!(matches!(hang.reason, HangReason::DeadlineExceeded { .. }));
        assert_eq!(hang.pending_requests.len(), 1);
        assert_eq!(hang.killed_timers, 2);

        // The same-instant lane is empty at any stop, since its events sit at
        // the clock, which never passes a stop or a tripped deadline; so
        // place abandoned timers there directly and take the snapshot.
        let mut e = deadline_engine(None);
        let now = e.queue.now();
        e.push(now, Ev::ServiceTimer(7));
        e.push(now, Ev::Resume(0, Resume::Start));
        e.push(now, Ev::ServiceTimer(8));
        assert_eq!(e.queue.lane_lens(), (3, 0, 0));
        assert!(!e.queue.is_empty(), "a non-empty FIFO is not quiescence");
        assert_eq!(e.hang_report(now, HangReason::Exhausted).killed_timers, 2);
        e.push(now + SimDuration::from_secs(600), Ev::ServiceTimer(9));
        e.push(now + SimDuration::from_secs(5), Ev::ServiceTimer(10));
        assert_eq!(e.queue.lane_lens(), (3, 1, 1));
        let hang = e.hang_report(now, HangReason::Exhausted);
        assert_eq!(hang.killed_timers, 4, "timers in all three lanes");
    }

    #[test]
    fn watchdog_stays_quiet_on_clean_and_crash_cut_runs() {
        // Clean run: deadline far out, programs finish, no report.
        let mut e = engine_for(vec![vec![ScriptOp::Compute(SimDuration::from_secs(3))]]);
        e.set_watchdog(SimTime(0) + SimDuration::from_secs(100));
        let report = e.run();
        assert!(report.clean());
        assert_eq!(report.hang, None);

        // Crash cut: abandoned events past `stop` are a crash, not a hang.
        let mut e = engine_for(vec![vec![ScriptOp::Compute(SimDuration::from_secs(3))]]);
        e.set_watchdog(SimTime(0) + SimDuration::from_secs(100));
        let report = e.run_until(SimTime(0) + SimDuration::from_secs(1));
        assert_eq!(report.hang, None);
        assert_eq!(report.blocked, vec![0]);
    }
}
