//! A threaded message-passing runtime: the NCCL-equivalent substrate,
//! and the only code in this crate that moves data between ranks.
//!
//! Every simulated rank runs on its **own OS thread** with only
//! point-to-point channels between them (MPMC channels), and the
//! collectives are each rank's local program — exactly the structure
//! of Algorithm 1 and Algorithm 3 in the paper:
//!
//! * [`Communicator::ialltoall_v`] — the All-to-All, linear or 2DH
//!   (bucket by destination local rank, intra-node exchange, re-bucket
//!   by destination node, inter-node exchange — Figure 15 — with each
//!   rank only ever touching its own buffers);
//! * ring [`Communicator::all_gather`] and
//!   [`Communicator::all_reduce_sum`].
//!
//! [`crate::flex::flex_all_to_all`] is a per-rank view over
//! [`Communicator::ialltoall_v`].
//!
//! # One All-to-All
//!
//! One issue function and one [`CommHandle`] state machine move
//! *ragged* per-destination buffers (`Vec<Vec<f32>>`, any lengths,
//! empties legal) without blocking: the linear route is one phase; the
//! 2DH route runs intra-node → re-bucket → inter-node, its hop
//! messages carrying an in-band header of segment lengths (checked on
//! receive, refused on send past 2^24 — [`CommError::Malformed`]).
//! Everything else is a view of it:
//!
//! | entry point | is |
//! |---|---|
//! | [`Communicator::all_to_all_v`] | issue linear + `wait` |
//! | [`Communicator::all_to_all_v_2dh`] | issue 2DH + `wait` |
//! | [`Communicator::all_to_all`] | `W` equal buffers → linear → concatenate |
//! | [`Communicator::all_to_all_2dh`] | `W` equal buffers → 2DH → concatenate |
//!
//! Every operation returns `Result<_, CommError>` instead of
//! panicking, so rank programs can surface failures (and the
//! `check-sched` deterministic scheduler can inject them) without
//! unwinding across threads.
//!
//! The transport is pluggable: production runs use MPMC channels, wired
//! up by [`crate::group::RankGroup`] (the resident rank threads; its
//! one-shot run over a plain group is [`run_threaded`], re-exported
//! here); under `feature = "check-sched"` the same `Communicator` can
//! instead be backed by the adversarial deterministic scheduler in
//! `crate::sched`, whose ranks run on a `RankGroup` too.
//!
//! # Reliability layer
//!
//! A [`ReliableConfig`] passed to [`crate::group::RankGroup::new`]
//! arms an optional end-to-end reliability protocol on top of the same
//! collectives, used by the conformance harness to prove graceful
//! degradation under injected faults ([`crate::fault::FaultPlan`]):
//!
//! * every data send is kept in a per-collective **retransmit log**;
//! * a receiver whose wait exceeds the [`RetryPolicy`] timeout sends a
//!   `Retry` request to the expected source and backs off
//!   exponentially; the source re-serves the payload from its log;
//! * receivers **dedupe** data messages by `(src, tag)` (tags are
//!   never reused within a run), so duplicated or late-plus-
//!   retransmitted deliveries collapse to one;
//! * each collective ends with an **ack phase**: a rank announces
//!   completion to every peer and waits for all peers' announcements,
//!   serving retry requests meanwhile — so a sender stays reachable
//!   until every receiver has recovered;
//! * exhausted retries surface [`CommError::Timeout`] — never a hang
//!   (every wait is bounded) and never a corrupted tensor (a failed
//!   collective returns no buffer at all and drains its mailbox).
//!
//! When no reliability config is armed, none of this state exists and
//! the hot path is exactly the plain channel send/recv.
//!
//! Tests assert both routes bit-equal to the sequential oracle
//! [`crate::linear_all_to_all`], which shares no code with them.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use tutel_obs::trace::{FlowKind, Tracer, TRACK_COMM};
use tutel_obs::Telemetry;

use crate::error::CommError;
use crate::fault::{FaultAction, FaultPlan};
use crate::wait::poll_then_park;
use crate::{AllToAllAlgo, Topology};

pub use crate::group::run_threaded;

/// Message class on the wire. Control traffic (`Retry`, `Ack`) exists
/// only under the reliability layer and is handled inline by the
/// reliable receive loop — it is never parked in the mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MsgKind {
    /// Collective payload.
    Data,
    /// "Re-send me your message under `tag`" (payload empty).
    Retry,
    /// "I have completed the current collective" (payload empty).
    Ack,
}

impl MsgKind {
    /// The trace-layer class of this message.
    fn flow_kind(self) -> FlowKind {
        match self {
            MsgKind::Data => FlowKind::Data,
            MsgKind::Retry => FlowKind::Retry,
            MsgKind::Ack => FlowKind::Ack,
        }
    }
}

/// A tagged point-to-point message. `seq` numbers the transmission
/// attempt for `(src → dst, tag, kind)` — `0` for the first physical
/// send, incrementing for duplicates and retransmits — so the causal
/// tracer can bind every wire transmission to exactly one receive
/// even when the reliability layer re-sends. It is `0` (and unused)
/// when tracing is disabled.
struct Message {
    src: usize,
    tag: u64,
    kind: MsgKind,
    seq: u32,
    payload: Vec<f32>,
}

/// Timeout/retry schedule for the reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial wait before the first retry request.
    pub timeout: Duration,
    /// Retry requests per receive before giving up with
    /// [`CommError::Timeout`]. `0` means fail on the first timeout.
    pub max_retries: u32,
    /// Multiplier applied to the wait after each timeout
    /// (exponential backoff).
    pub backoff: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Duration::from_millis(50),
            max_retries: 3,
            backoff: 2,
        }
    }
}

/// Reliability-layer configuration for [`crate::group::RankGroup::new`].
#[derive(Clone, Default)]
pub struct ReliableConfig {
    /// Timeout/retry schedule.
    pub policy: RetryPolicy,
    /// Optional fault injection applied to data sends.
    pub plan: Option<FaultPlan>,
    /// Sink for `comm.retry.*` counters and gauges (shared across
    /// ranks; pass [`Telemetry::disabled`] to opt out).
    pub telemetry: Telemetry,
}

/// Mutable reliability bookkeeping (interior-mutable so `send` can
/// stay `&self`).
#[derive(Default)]
struct RelState {
    /// Retransmit log for the current collective: `(peer, tag)` →
    /// payload. Cleared when the ack phase completes — after which no
    /// peer can still request a retry for this collective (its retry
    /// requests order before its ack on the same FIFO channel).
    log: HashMap<(usize, u64), Vec<f32>>,
    /// Data identities already accepted, for dedupe. Kept for the
    /// communicator's lifetime: tags are monotone per pair, so the set
    /// grows with total traffic, bounded by the run length.
    seen: HashSet<(usize, u64)>,
    /// `(peer, epoch)` acknowledgements received. Epoch-tagged so a
    /// fast peer's ack for collective `k+1` (which FIFO ordering
    /// guarantees arrives after its ack for `k`) can never satisfy the
    /// wait for collective `k`.
    acks: HashSet<(usize, u64)>,
    /// Sends held back by [`FaultAction::Delay`], flushed (late) at
    /// the start of the ack phase. The transmission number was
    /// assigned (and the flow edge stamped) at logical send time, so
    /// the trace shows the whole in-flight window.
    delayed: Vec<(usize, u64, u32, Vec<f32>)>,
    /// Completed-collective count; the tag under which this rank's
    /// acks are sent.
    epoch: u64,
}

/// The armed reliability layer of one communicator.
struct Reliability {
    policy: RetryPolicy,
    plan: Option<FaultPlan>,
    obs: Telemetry,
    state: RefCell<RelState>,
}

/// The `comm.retry.*` counter names the reliability layer maintains;
/// the ack phase mirrors each as a gauge of the same name.
const RETRY_COUNTERS: &[&str] = &[
    "comm.retry.requests",
    "comm.retry.retransmits",
    "comm.retry.timeouts",
    "comm.retry.dup_discards",
    "comm.retry.injected_drops",
    "comm.retry.injected_dups",
    "comm.retry.injected_delays",
];

/// The wire under a [`Communicator`]: real channels for production
/// runs, or the deterministic scheduler when model checking.
enum Endpoint {
    /// One MPMC channel per rank.
    Channel {
        senders: Vec<Sender<Message>>,
        receiver: Receiver<Message>,
    },
    /// Scheduler-mediated transport (see [`crate::sched`]).
    #[cfg(feature = "check-sched")]
    Sched(std::sync::Arc<crate::sched::SchedNet>),
}

/// One rank's endpoint in a [`crate::group::RankGroup`] (or a one-shot
/// [`run_threaded`] run): point-to-point sends/receives plus the
/// collectives built on them.
///
/// Not `Clone`: exactly one communicator exists per rank per group.
/// Its mailbox must be empty wherever a healthy run ends — a parked
/// message means some collective sent under a tag nobody consumed. A
/// resident group audits that after every run (`Communicator::audit`); a
/// communicator dropped at the end of a healthy run panics on it.
pub struct Communicator {
    rank: usize,
    topology: Topology,
    endpoint: Endpoint,
    /// Out-of-order arrivals parked until requested, keyed by
    /// `(src, tag)`. Entries are removed as soon as they drain so the
    /// map stays empty across healthy collectives.
    mailbox: HashMap<(usize, u64), Vec<Vec<f32>>>,
    /// Monotone per-collective tag so concurrent collectives on the
    /// same communicator pair never mix messages. Never reset: in a
    /// resident group, step n + 1's tags are all fresh, so nothing
    /// step n left on the wire can be taken for step n + 1's data.
    next_tag: u64,
    /// The first error any operation returned. Once set, the
    /// communicator is poisoned: the drop-time mailbox audit is off (a
    /// failed run legitimately strands messages) and a resident group
    /// is typed-dead with this error.
    failure: RefCell<Option<CommError>>,
    /// Armed by a [`ReliableConfig`]; `None` keeps the plain
    /// fast path (and is always `None` on the sched endpoint, whose
    /// delivery faults live in the scheduler itself).
    reliability: Option<Reliability>,
    /// Causal tracer for this rank; disabled (one branch per call, no
    /// clock or allocation) unless the run was started with an enabled
    /// [`Telemetry`] handle.
    tracer: Tracer,
    /// Transmission-attempt counters per `(peer, tag, kind)`, backing
    /// the `seq` stamp on [`Message`]. Only touched when the tracer is
    /// enabled.
    send_seqs: RefCell<HashMap<(usize, u64, u8), u32>>,
    /// Total `f32` elements this rank has physically transmitted as
    /// collective payload (`Data` messages only; duplicates and
    /// retransmits count each wire copy). Serving layers read this to
    /// attribute per-step All-to-All volume without touching the hot
    /// path — it is a plain counter bump on an already-owned cell.
    sent_elems: Cell<u64>,
}

impl Communicator {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total ranks.
    pub fn world_size(&self) -> usize {
        self.topology.world_size()
    }

    /// The cluster topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Builds a scheduler-backed communicator for one rank of a
    /// [`crate::sched::run_sched`] run.
    #[cfg(feature = "check-sched")]
    pub(crate) fn with_sched(
        rank: usize,
        topology: Topology,
        net: std::sync::Arc<crate::sched::SchedNet>,
    ) -> Self {
        Communicator {
            rank,
            topology,
            endpoint: Endpoint::Sched(net),
            mailbox: HashMap::new(),
            next_tag: 0,
            failure: RefCell::new(None),
            reliability: None,
            tracer: Tracer::disabled(),
            send_seqs: RefCell::new(HashMap::new()),
            sent_elems: Cell::new(0),
        }
    }

    /// One communicator per rank of `topology`, joined by one MPMC
    /// channel per rank: the only place channel-backed communicators
    /// are built. `reliable` arms the reliability layer on every rank
    /// (sharing its telemetry); `tel` gives each rank its tracer.
    pub(crate) fn mesh(
        topology: Topology,
        reliable: Option<&ReliableConfig>,
        tel: &Telemetry,
    ) -> Vec<Communicator> {
        let n = topology.world_size();
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        (receivers.into_iter().enumerate())
            .map(|(rank, receiver)| Communicator {
                rank,
                topology,
                endpoint: Endpoint::Channel {
                    senders: senders.clone(),
                    receiver,
                },
                mailbox: HashMap::new(),
                next_tag: 0,
                failure: RefCell::new(None),
                reliability: reliable.map(|c| Reliability {
                    policy: c.policy,
                    plan: c.plan,
                    obs: c.telemetry.clone(),
                    state: RefCell::new(RelState::default()),
                }),
                tracer: tel.tracer(rank),
                send_seqs: RefCell::new(HashMap::new()),
                sent_elems: Cell::new(0),
            })
            .collect()
    }

    /// The step-boundary audit of a resident run: the check a dropped
    /// communicator makes at join, returned as a value. A poisoned
    /// communicator reports its first error; a healthy one must have
    /// consumed every message it parked. A leak poisons the
    /// communicator too, so it is reported once, as the run's error,
    /// and never again by the drop-time audit.
    ///
    /// Only parked messages are audited, as at join. A healthy run
    /// leaves nothing else behind: every plain send is received, and
    /// the only reliable traffic that can outlive a run is a late
    /// duplicate or retransmit, which the next run's receive discards
    /// through the dedupe set (kept for the communicator's life for
    /// exactly that reason).
    ///
    /// # Errors
    ///
    /// The poisoning error, or [`CommError::Leaked`] naming each
    /// stranded `(src, tag)`.
    pub(crate) fn audit(&mut self) -> Result<(), CommError> {
        if let Some(err) = self.failure.borrow().clone() {
            return Err(err);
        }
        if self.mailbox.is_empty() {
            return Ok(());
        }
        let detail = self.mailbox_detail();
        self.fail(CommError::Leaked {
            rank: self.rank,
            detail,
        })
    }

    /// What the mailbox holds, for the two audits' messages.
    fn mailbox_detail(&self) -> String {
        let detail: Vec<String> = (self.mailbox.iter())
            .map(|((src, tag), q)| format!("{} from rank {src} under tag {tag}", q.len()))
            .collect();
        detail.join(", ")
    }

    /// Total `f32` elements transmitted on the wire as collective
    /// payload so far (control traffic excluded). Monotone for the
    /// communicator's life, across a resident group's runs; the serve
    /// executor samples it around each micro-batch step to report
    /// per-step communication volume.
    pub fn sent_payload_elems(&self) -> u64 {
        self.sent_elems.get()
    }

    /// This rank's causal tracer (disabled unless the run was started
    /// through a traced runner). Layers above the communicator — the
    /// overlap engine, the harness — record their own tracks on it so
    /// all of a rank's activity shares one timeline.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Messages currently parked in the mailbox: nonzero after a
    /// collective means a send was never matched by a recv.
    pub fn parked_messages(&self) -> usize {
        self.mailbox.values().map(Vec::len).sum()
    }

    /// Discards parked messages (the `check-sched` harness reports
    /// them itself and must suppress the drop-time audit).
    #[cfg(feature = "check-sched")]
    pub(crate) fn clear_mailbox(&mut self) {
        self.mailbox.clear();
    }

    /// Poisons the communicator with `err` (the first error sticks) and
    /// returns it.
    fn fail<T>(&self, err: CommError) -> Result<T, CommError> {
        self.failure.borrow_mut().get_or_insert_with(|| err.clone());
        Err(err)
    }

    /// Sends `payload` to `peer` under `tag`.
    ///
    /// Under the reliability layer the payload is first recorded in
    /// the retransmit log, then the [`FaultPlan`] (if any) decides how
    /// the wire transmission happens; a dropped or delayed first
    /// transmission is still recoverable from the log.
    ///
    /// # Errors
    ///
    /// [`CommError::PeerOutOfRange`] for a bad `peer`;
    /// [`CommError::Disconnected`] if the run has been torn down.
    pub fn send(&self, peer: usize, tag: u64, payload: Vec<f32>) -> Result<(), CommError> {
        if peer >= self.world_size() {
            return self.fail(CommError::PeerOutOfRange {
                peer,
                world: self.world_size(),
            });
        }
        let Some(rel) = &self.reliability else {
            return self.send_raw(peer, tag, MsgKind::Data, payload);
        };
        rel.state
            .borrow_mut()
            .log
            .insert((peer, tag), payload.clone());
        let action = match rel.plan {
            Some(plan) => plan.action(self.rank, peer, tag),
            None => FaultAction::Deliver,
        };
        match action {
            FaultAction::Deliver => self.send_raw(peer, tag, MsgKind::Data, payload),
            FaultAction::Drop => {
                // Withhold the first transmission; the peer recovers
                // it from the log via a Retry request.
                rel.obs.add_counter("comm.retry.injected_drops", 1);
                Ok(())
            }
            FaultAction::Duplicate => {
                rel.obs.add_counter("comm.retry.injected_dups", 1);
                self.send_raw(peer, tag, MsgKind::Data, payload.clone())?;
                self.send_raw(peer, tag, MsgKind::Data, payload)
            }
            FaultAction::Delay(_) => {
                rel.obs.add_counter("comm.retry.injected_delays", 1);
                // The sender logically transmits *now*; only the wire
                // delivers late. Stamping the flow send here (and
                // reusing the seq at the flush) puts the full in-flight
                // time on this edge, so the analyzer can attribute the
                // delivery latency to this rank.
                let seq = self.next_seq(peer, tag, MsgKind::Data);
                self.tracer
                    .flow_send(peer, tag, seq, FlowKind::Data, payload.len() as u64 * 4);
                rel.state
                    .borrow_mut()
                    .delayed
                    .push((peer, tag, seq, payload));
                Ok(())
            }
        }
    }

    /// Transmits directly on the endpoint, bypassing the fault plan
    /// and retransmit log — used for control traffic and retransmits.
    /// (The sched endpoint carries no `kind`: reliability is never
    /// armed there, so only `Data` ever reaches it.)
    fn send_raw(
        &self,
        peer: usize,
        tag: u64,
        kind: MsgKind,
        payload: Vec<f32>,
    ) -> Result<(), CommError> {
        let seq = self.next_seq(peer, tag, kind);
        // Stamped before the wire hands the message over, so a flow
        // edge's send timestamp always precedes its receive.
        self.tracer
            .flow_send(peer, tag, seq, kind.flow_kind(), payload.len() as u64 * 4);
        self.send_wire(peer, tag, kind, seq, payload)
    }

    /// The physical handover under an already-assigned (and already
    /// flow-stamped) transmission number — the tail of [`send_raw`],
    /// called directly when flushing delayed sends whose flow edge was
    /// stamped at logical send time.
    fn send_wire(
        &self,
        peer: usize,
        tag: u64,
        kind: MsgKind,
        seq: u32,
        payload: Vec<f32>,
    ) -> Result<(), CommError> {
        if kind == MsgKind::Data {
            self.sent_elems
                .set(self.sent_elems.get() + payload.len() as u64);
        }
        match &self.endpoint {
            Endpoint::Channel { senders, .. } => {
                let msg = Message {
                    src: self.rank,
                    tag,
                    kind,
                    seq,
                    payload,
                };
                match senders[peer].send(msg) {
                    Ok(()) => Ok(()),
                    Err(_) => self.fail(CommError::Disconnected { rank: self.rank }),
                }
            }
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(net) => match net.send(self.rank, peer, tag, payload) {
                Ok(()) => Ok(()),
                Err(e) => self.fail(e),
            },
        }
    }

    /// Next transmission-attempt number for `(peer, tag, kind)` —
    /// always `0` when tracing is off, so untraced runs never touch
    /// the counter map.
    fn next_seq(&self, peer: usize, tag: u64, kind: MsgKind) -> u32 {
        if !self.tracer.is_enabled() {
            return 0;
        }
        let mut seqs = self.send_seqs.borrow_mut();
        let slot = seqs.entry((peer, tag, kind as u8)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// Waits for the next raw arrival, whatever its source or tag:
    /// polls, then parks (see [`poll_then_park`]).
    fn recv_any(&mut self) -> Result<Message, CommError> {
        match &mut self.endpoint {
            Endpoint::Channel { receiver, .. } => match poll_then_park(receiver, None) {
                Ok(m) => Ok(m),
                Err(_) => self.fail(CommError::Disconnected { rank: self.rank }),
            },
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(net) => match net.recv(self.rank) {
                Ok((src, tag, payload)) => Ok(Message {
                    src,
                    tag,
                    kind: MsgKind::Data,
                    seq: 0,
                    payload,
                }),
                Err(e) => self.fail(e),
            },
        }
    }

    /// Pops a parked message for `(src, tag)` if one is waiting.
    fn take_parked(&mut self, src: usize, tag: u64) -> Option<Vec<f32>> {
        let queue = self.mailbox.get_mut(&(src, tag))?;
        // Queues are created non-empty and removed when drained, so a
        // present entry always yields a message.
        let payload = queue.remove(0);
        if queue.is_empty() {
            self.mailbox.remove(&(src, tag));
        }
        Some(payload)
    }

    /// Receives the next message from `src` under `tag`, parking any
    /// other arrivals in the mailbox. A channel-backed communicator
    /// waits by polling its channel, yielding between tries, for up to
    /// 50 µs, and only then blocks its thread, so a message sent within
    /// that window costs no wake. Under the reliability layer the wait
    /// is bounded by the [`RetryPolicy`] and retry requests are issued
    /// on timeout.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] if a peer exited mid-collective;
    /// [`CommError::Deadlock`] under the deterministic scheduler;
    /// [`CommError::Timeout`] when an armed retry budget is exhausted.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        if let Some(payload) = self.take_parked(src, tag) {
            return Ok(payload);
        }
        if self.reliability.is_some() {
            return self.recv_reliable(src, tag);
        }
        loop {
            let msg = self.recv_any()?;
            self.tracer
                .flow_recv(msg.src, msg.tag, msg.seq, msg.kind.flow_kind(), true);
            if msg.src == src && msg.tag == tag {
                return Ok(msg.payload);
            }
            self.mailbox
                .entry((msg.src, msg.tag))
                .or_default()
                .push(msg.payload);
        }
    }

    /// Waits up to `timeout` for the next raw arrival, polling before
    /// it parks as [`Self::recv_any`] does; `Ok(None)` on timeout.
    /// Channel endpoint only in practice (the sched endpoint has no
    /// clock and falls back to its own blocking recv).
    fn recv_any_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, CommError> {
        match &mut self.endpoint {
            Endpoint::Channel { receiver, .. } => match poll_then_park(receiver, Some(timeout)) {
                Ok(m) => Ok(Some(m)),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    self.fail(CommError::Disconnected { rank: self.rank })
                }
            },
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(net) => match net.recv(self.rank) {
                Ok((src, tag, payload)) => Ok(Some(Message {
                    src,
                    tag,
                    kind: MsgKind::Data,
                    seq: 0,
                    payload,
                })),
                Err(e) => self.fail(e),
            },
        }
    }

    /// Returns the next raw arrival if one is already queued, without
    /// blocking. The sched endpoint always reports `None`: its
    /// deliveries only happen at quiescence, so polling can make no
    /// progress there — handle waits fall back to the blocking path,
    /// which the scheduler mediates deterministically.
    fn try_recv_any(&mut self) -> Option<Message> {
        match &mut self.endpoint {
            Endpoint::Channel { receiver, .. } => receiver.try_recv().ok(),
            #[cfg(feature = "check-sched")]
            Endpoint::Sched(_) => None,
        }
    }

    /// Drains every arrival already queued on the endpoint into the
    /// mailbox without blocking. Under the reliability layer, control
    /// traffic (`Retry`/`Ack`) is handled inline and data is deduped —
    /// exactly as the blocking receive loop would.
    fn drain_incoming(&mut self) -> Result<(), CommError> {
        while let Some(msg) = self.try_recv_any() {
            if self.reliability.is_some() {
                self.handle_reliable_arrival(msg, None)?;
            } else {
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, msg.kind.flow_kind(), true);
                self.mailbox
                    .entry((msg.src, msg.tag))
                    .or_default()
                    .push(msg.payload);
            }
        }
        Ok(())
    }

    /// Processes one arrival under the reliability layer: dedupes and
    /// parks data (returning it instead if it matches `want`), serves
    /// `Retry` requests from the retransmit log, and records acks.
    fn handle_reliable_arrival(
        &mut self,
        msg: Message,
        want: Option<(usize, u64)>,
    ) -> Result<Option<Vec<f32>>, CommError> {
        let Some(rel) = &self.reliability else {
            return Ok(None);
        };
        match msg.kind {
            MsgKind::Data => {
                let fresh = rel.state.borrow_mut().seen.insert((msg.src, msg.tag));
                // `accepted: false` marks the duplicate edge: a
                // retransmit that raced the original (or an injected
                // duplicate) still binds to its own send, so the
                // timeline shows the redundant transmission.
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, FlowKind::Data, fresh);
                if !fresh {
                    // A duplicate or a retransmit that raced the
                    // original (or a delayed copy we already
                    // recovered): drop it.
                    rel.obs.add_counter("comm.retry.dup_discards", 1);
                    return Ok(None);
                }
                if want == Some((msg.src, msg.tag)) {
                    return Ok(Some(msg.payload));
                }
                self.mailbox
                    .entry((msg.src, msg.tag))
                    .or_default()
                    .push(msg.payload);
                Ok(None)
            }
            MsgKind::Retry => {
                // The peer timed out waiting for our `msg.tag`; serve
                // it from the log. An unknown tag means we have not
                // sent it yet — ignore; the regular send (or the
                // peer's next retry) will satisfy it.
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, FlowKind::Retry, true);
                let logged = rel.state.borrow().log.get(&(msg.src, msg.tag)).cloned();
                if let Some(payload) = logged {
                    rel.obs.add_counter("comm.retry.retransmits", 1);
                    self.tracer.instant(TRACK_COMM, "retransmit");
                    // send_raw bumps the Data seq, so the retransmit
                    // becomes a flow edge distinct from the original.
                    self.send_raw(msg.src, msg.tag, MsgKind::Data, payload)?;
                }
                Ok(None)
            }
            MsgKind::Ack => {
                self.tracer
                    .flow_recv(msg.src, msg.tag, msg.seq, FlowKind::Ack, true);
                rel.state.borrow_mut().acks.insert((msg.src, msg.tag));
                Ok(None)
            }
        }
    }

    /// The bounded receive loop used when reliability is armed.
    fn recv_reliable(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        let policy = match &self.reliability {
            Some(rel) => rel.policy,
            // recv() dispatches here only when armed.
            None => RetryPolicy::default(),
        };
        let mut wait = policy.timeout;
        let mut attempts: u32 = 0;
        loop {
            // A retransmit may have been parked while other traffic
            // was being serviced.
            if let Some(payload) = self.take_parked(src, tag) {
                return Ok(payload);
            }
            match self.recv_any_timeout(wait)? {
                Some(msg) => {
                    if let Some(payload) = self.handle_reliable_arrival(msg, Some((src, tag)))? {
                        return Ok(payload);
                    }
                }
                None => {
                    attempts += 1;
                    if attempts > policy.max_retries {
                        if let Some(rel) = &self.reliability {
                            rel.obs.add_counter("comm.retry.timeouts", 1);
                        }
                        // A failed collective must not strand parked
                        // messages: drain them so the join-time audit
                        // sees a clean (if poisoned) mailbox.
                        self.mailbox.clear();
                        return self.fail(CommError::Timeout {
                            rank: self.rank,
                            peer: src,
                            tag,
                            attempts,
                        });
                    }
                    if let Some(rel) = &self.reliability {
                        rel.obs.add_counter("comm.retry.requests", 1);
                    }
                    self.send_raw(src, tag, MsgKind::Retry, Vec::new())?;
                    wait = wait.saturating_mul(policy.backoff.max(1));
                }
            }
        }
    }

    /// Closes a collective under the reliability layer: flushes
    /// delayed sends, announces completion to every peer, and waits
    /// for every peer's announcement while serving their retry
    /// requests — so this rank stays reachable until all receivers
    /// have recovered. Drops the `finished` tags from the retransmit
    /// log afterwards (FIFO ordering puts a peer's last possible retry
    /// before its ack) and mirrors the `comm.retry.*` counters as
    /// gauges. Only the finished tags are dropped — with non-blocking
    /// handles, another collective's sends may already be logged and
    /// must stay recoverable until *its* epilogue runs.
    fn collective_epilogue(&mut self, finished: &[u64]) -> Result<(), CommError> {
        if self.reliability.is_none() {
            return Ok(());
        }
        let _span = self.tracer.span(TRACK_COMM, "ack_phase");
        let delayed: Vec<(usize, u64, u32, Vec<f32>)> = match &self.reliability {
            Some(rel) => rel.state.borrow_mut().delayed.drain(..).collect(),
            None => Vec::new(),
        };
        for (peer, tag, seq, payload) in delayed {
            self.send_wire(peer, tag, MsgKind::Data, seq, payload)?;
        }
        let (policy, epoch) = match &self.reliability {
            Some(rel) => (rel.policy, rel.state.borrow().epoch),
            None => return Ok(()),
        };
        let n = self.world_size();
        if n > 1 {
            for peer in 0..n {
                if peer != self.rank {
                    self.send_raw(peer, epoch, MsgKind::Ack, Vec::new())?;
                }
            }
            let mut wait = policy.timeout;
            let mut attempts: u32 = 0;
            loop {
                let missing = match &self.reliability {
                    Some(rel) => {
                        let st = rel.state.borrow();
                        (0..n).find(|p| *p != self.rank && !st.acks.contains(&(*p, epoch)))
                    }
                    None => None,
                };
                let Some(peer) = missing else { break };
                match self.recv_any_timeout(wait)? {
                    Some(msg) => {
                        self.handle_reliable_arrival(msg, None)?;
                    }
                    None => {
                        // Acks ride the raw channel (never faulted),
                        // so a missing ack means the peer died or
                        // failed — keep the wait bounded.
                        attempts += 1;
                        if attempts > policy.max_retries {
                            if let Some(rel) = &self.reliability {
                                rel.obs.add_counter("comm.retry.timeouts", 1);
                            }
                            self.mailbox.clear();
                            return self.fail(CommError::Timeout {
                                rank: self.rank,
                                peer,
                                tag: 0,
                                attempts,
                            });
                        }
                        wait = wait.saturating_mul(policy.backoff.max(1));
                    }
                }
            }
        }
        if let Some(rel) = &self.reliability {
            let mut st = rel.state.borrow_mut();
            st.log.retain(|(_, t), _| !finished.contains(t));
            st.acks.retain(|(_, e)| *e > epoch);
            st.epoch += 1;
            drop(st);
            for name in RETRY_COUNTERS {
                let v = rel.obs.counter_value(name).unwrap_or(0);
                rel.obs.set_gauge(name, v as f64);
            }
        }
        Ok(())
    }

    fn fresh_tag(&mut self) -> u64 {
        self.next_tag += 1;
        self.next_tag
    }

    fn require_divisible(&self, len: usize, chunks: usize) -> Result<usize, CommError> {
        if chunks == 0 || !len.is_multiple_of(chunks) {
            return self.fail(CommError::Indivisible { len, chunks });
        }
        Ok(len / chunks)
    }

    /// Poisons the communicator and builds the typed error for a
    /// payload exchanged with `peer` whose count header is unusable.
    /// Public for the one codec above the communicator
    /// (`tutel::overlap::exchange_bins`): a run that rejected a payload
    /// skips the join-time mailbox audit like any failed run.
    pub fn malformed<T>(&self, peer: usize, detail: String) -> Result<T, CommError> {
        let rank = self.rank;
        self.fail(CommError::Malformed { rank, peer, detail })
    }

    /// Appends `counts` to `buf` as an in-band `f32` header.
    ///
    /// # Errors
    ///
    /// [`CommError::Malformed`] for a count above 2^24, past which
    /// `count as f32` silently rounds.
    pub fn encode_counts(
        &self,
        peer: usize,
        counts: impl IntoIterator<Item = usize>,
        buf: &mut Vec<f32>,
    ) -> Result<(), CommError> {
        for count in counts {
            if count > MAX_WIRE_COUNT {
                return self.malformed(peer, format!("count {count} is inexact in f32"));
            }
            buf.push(count as f32);
        }
        Ok(())
    }

    /// Reads the `n`-count header at the front of a payload received
    /// from `peer` and checks it against the body it announces, the
    /// counted items laid out `(R, unit)` with `R = Σ counts`.
    ///
    /// # Errors
    ///
    /// [`CommError::Malformed`] unless the header is present, every
    /// entry is an integer in `0..=2^24`, and `n + R · unit` is exactly
    /// the payload length — a header from another rank is outside
    /// input and never trusted to index a slice.
    pub fn decode_counts(
        &self,
        peer: usize,
        buf: &[f32],
        n: usize,
        unit: usize,
    ) -> Result<Vec<usize>, CommError> {
        let valid = |c: &f32| (0.0..=MAX_WIRE_COUNT as f32).contains(c) && c.fract() == 0.0;
        let header = buf.get(..n).filter(|h| h.iter().all(valid));
        let counts: Vec<usize> = header.unwrap_or(&[]).iter().map(|&c| c as usize).collect();
        let body = counts.iter().sum::<usize>().checked_mul(unit);
        if header.is_none() || body.and_then(|b| b.checked_add(n)) != Some(buf.len()) {
            let seen = &buf[..buf.len().min(n)];
            return self.malformed(
                peer,
                format!(
                    "header {seen:?} (of {n}, x{unit}) vs {} elements",
                    buf.len()
                ),
            );
        }
        Ok(counts)
    }

    /// One 2DH hop message: the segments' lengths, then the segments.
    fn pack(&self, peer: usize, segs: &[&[f32]]) -> Result<Vec<f32>, CommError> {
        let mut buf = Vec::with_capacity(segs.len() + segs.iter().map(|s| s.len()).sum::<usize>());
        self.encode_counts(peer, segs.iter().map(|s| s.len()), &mut buf)?;
        segs.iter().for_each(|seg| buf.extend_from_slice(seg));
        Ok(buf)
    }

    /// Splits a 2DH hop message from `peer` into its `nseg` segments.
    fn unpack(&self, peer: usize, buf: &[f32], nseg: usize) -> Result<Vec<Vec<f32>>, CommError> {
        let mut at = nseg;
        let lens = self.decode_counts(peer, buf, nseg, 1)?;
        Ok(lens
            .into_iter()
            .map(|len| {
                at += len;
                buf[at - len..at].to_vec()
            })
            .collect())
    }

    /// This rank's 2DH coordinates: `(gpus per node, nodes, node,
    /// local rank)`.
    fn grid(&self) -> (usize, usize, usize, usize) {
        let topo = &self.topology;
        (
            topo.gpus_per_node(),
            topo.nnodes(),
            topo.node_of(self.rank),
            topo.local_rank(self.rank),
        )
    }

    /// The All-to-All: sends `sends[d]` to rank `d` verbatim and
    /// returns a [`CommHandle`] that completes as peers' buffers
    /// arrive. Buffers may have any lengths, including zero (an expert
    /// that received no tokens); lengths ride the messages, so no
    /// count pre-exchange is needed. Every other All-to-All entry
    /// point is a view of this one (see the
    /// [module docs](self#one-all-to-all)).
    ///
    /// * [`AllToAllAlgo::Linear`] (Algorithm 1): one message per peer.
    /// * [`AllToAllAlgo::TwoDh`] (Algorithm 3): buckets by destination
    ///   local rank and exchanges intra-node; once every intra-node
    ///   bucket has landed (during `poll` or `wait`) re-buckets by
    ///   destination node and exchanges inter-node among
    ///   same-local-rank peers. Each hop message carries an in-band
    ///   header of its segment lengths. Both phase tags are allocated
    ///   here, so tag lockstep across ranks does not depend on *when*
    ///   each rank's poll observes the phase change.
    ///
    /// All first-phase sends are issued eagerly, so peers can complete
    /// whether or not this rank ever polls.
    ///
    /// # Errors
    ///
    /// [`CommError::Indivisible`] if `sends.len()` is not the world
    /// size, [`CommError::Malformed`] for a segment too long for the
    /// header, plus any transport error during issue.
    pub fn ialltoall_v(
        &mut self,
        algo: AllToAllAlgo,
        mut sends: Vec<Vec<f32>>,
    ) -> Result<CommHandle, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "ialltoall_v.issue");
        let (n, me) = (self.world_size(), self.rank);
        if sends.len() != n {
            let len = sends.len();
            return self.fail(CommError::Indivisible { len, chunks: n });
        }
        let mut out = vec![Vec::new(); n];
        let mut handle = match algo {
            AllToAllAlgo::Linear => {
                let tag = self.fresh_tag();
                for (peer, buf) in sends.into_iter().enumerate() {
                    if peer == me {
                        out[me] = buf;
                    } else {
                        self.send(peer, tag, buf)?;
                    }
                }
                let pending = (0..n).filter(|&s| s != me).collect();
                CommHandle {
                    tags: vec![tag],
                    out,
                    pending,
                    state: HandleState::Direct,
                }
            }
            AllToAllAlgo::TwoDh => {
                let (m, nnodes, node, local) = self.grid();
                let tags = vec![self.fresh_tag(), self.fresh_tag()];
                let mates = (node * m..(node + 1) * m).filter(|&r| r != me);
                for dst in mates.clone() {
                    let segs: Vec<&[f32]> = (0..nnodes)
                        .map(|dst_node| sends[dst_node * m + dst % m].as_slice())
                        .collect();
                    let payload = self.pack(dst, &segs)?;
                    self.send(dst, tags[0], payload)?;
                }
                // Every bucket holds `nnodes` segments from the start,
                // so a handle that rejected a bucket can still promote.
                let mut phase2 = vec![vec![Vec::new(); nnodes]; m];
                phase2[local] = (0..nnodes)
                    .map(|dst_node| std::mem::take(&mut sends[dst_node * m + local]))
                    .collect();
                CommHandle {
                    tags,
                    out,
                    pending: mates.collect(),
                    state: HandleState::Intra(phase2),
                }
            }
        };
        // Early arrivals may already be parked (a faster peer's sends
        // land before we issue), and degenerate grids have no one to
        // wait for: absorb now, which also runs the 2DH promotion.
        handle.absorb(self)?;
        Ok(handle)
    }

    /// Blocking ragged linear All-to-All: [`Communicator::ialltoall_v`]
    /// issued and waited.
    ///
    /// # Errors
    ///
    /// As [`Communicator::ialltoall_v`] and [`CommHandle::wait`].
    pub fn all_to_all_v(&mut self, sends: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_to_all_v");
        self.ialltoall_v(AllToAllAlgo::Linear, sends.to_vec())?
            .wait(self)
    }

    /// Blocking ragged 2DH All-to-All: bitwise the result of
    /// [`Communicator::all_to_all_v`], only the route differs.
    ///
    /// # Errors
    ///
    /// As [`Communicator::ialltoall_v`] and [`CommHandle::wait`].
    pub fn all_to_all_v_2dh(&mut self, sends: &[Vec<f32>]) -> Result<Vec<Vec<f32>>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_to_all_v_2dh");
        self.ialltoall_v(AllToAllAlgo::TwoDh, sends.to_vec())?
            .wait(self)
    }

    /// Equal-chunk linear All-to-All over the `(W, chunk)` layout: the
    /// uniform-count view of [`Communicator::ialltoall_v`].
    ///
    /// # Errors
    ///
    /// [`CommError::Indivisible`] if `input.len()` is not divisible by
    /// the world size, plus any transport error.
    pub fn all_to_all(&mut self, input: &[f32]) -> Result<Vec<f32>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_to_all");
        self.all_to_all_uniform(AllToAllAlgo::Linear, input)
    }

    /// Equal-chunk 2DH All-to-All over the `(W, chunk)` layout: the
    /// uniform-count view of the 2DH route (so its hop messages carry
    /// the segment header too).
    ///
    /// # Errors
    ///
    /// As [`Communicator::all_to_all`].
    pub fn all_to_all_2dh(&mut self, input: &[f32]) -> Result<Vec<f32>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_to_all_2dh");
        self.all_to_all_uniform(AllToAllAlgo::TwoDh, input)
    }

    /// Splits `input` into `W` equal buffers, exchanges them, and
    /// concatenates what arrived in source order.
    fn all_to_all_uniform(
        &mut self,
        algo: AllToAllAlgo,
        input: &[f32],
    ) -> Result<Vec<f32>, CommError> {
        let n = self.world_size();
        let chunk = self.require_divisible(input.len(), n)?;
        let sends = (0..n).map(|d| input[d * chunk..(d + 1) * chunk].to_vec());
        Ok(self
            .ialltoall_v(algo, sends.collect())?
            .wait(self)?
            .concat())
    }

    /// Ring all-gather: returns the concatenation of every rank's
    /// `input` in rank order (layout `(W, shard)`), moving one shard
    /// per ring step.
    ///
    /// # Errors
    ///
    /// [`CommError::Malformed`] if a shard arriving from the previous
    /// rank is not `input.len()` long (ranks passed unequal inputs),
    /// plus any transport error. A bad shard is skipped, not copied,
    /// and the ring still runs to the end, so no peer blocks on this
    /// rank.
    pub fn all_gather(&mut self, input: &[f32]) -> Result<Vec<f32>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_gather");
        let n = self.world_size();
        let shard = input.len();
        let tag = self.fresh_tag();
        let mut out = vec![0.0f32; n * shard];
        out[self.rank * shard..(self.rank + 1) * shard].copy_from_slice(input);
        let next = (self.rank + 1) % n;
        let prev = (self.rank + n - 1) % n;
        let mut bad = None;
        // At step s, forward the shard that originated at rank - s.
        let mut carry = input.to_vec();
        for s in 0..n.saturating_sub(1) {
            self.send(next, tag + s as u64 * 0x10000, carry)?;
            carry = self.recv(prev, tag + s as u64 * 0x10000)?;
            let origin = (self.rank + n - 1 - s) % n;
            if carry.len() == shard {
                out[origin * shard..(origin + 1) * shard].copy_from_slice(&carry);
            } else {
                bad.get_or_insert((origin, carry.len()));
            }
        }
        let tags: Vec<u64> = (0..n.saturating_sub(1))
            .map(|s| tag + s as u64 * 0x10000)
            .collect();
        self.collective_epilogue(&tags)?;
        match bad {
            Some((origin, len)) => self.malformed(
                prev,
                format!("rank {origin}'s shard has {len} elements, not {shard}"),
            ),
            None => Ok(out),
        }
    }

    /// Ring all-reduce (sum): reduce-scatter pass followed by an
    /// all-gather pass over the `(W, shard)` split, each moving
    /// `input.len()/n` per step.
    ///
    /// # Errors
    ///
    /// [`CommError::Indivisible`] if `input.len()` is not divisible by
    /// the world size; [`CommError::Malformed`] if a shard arriving
    /// from the previous rank is not `input.len()/n` long (it is
    /// neither summed nor copied, and the ring still runs to the end);
    /// plus any transport error.
    pub fn all_reduce_sum(&mut self, input: &[f32]) -> Result<Vec<f32>, CommError> {
        let _span = self.tracer.span(TRACK_COMM, "all_reduce_sum");
        let n = self.world_size();
        if n == 1 {
            return Ok(input.to_vec());
        }
        let shard = self.require_divisible(input.len(), n)?;
        let next = (self.rank + 1) % n;
        let prev = (self.rank + n - 1) % n;
        let mut buf = input.to_vec();
        let mut bad = None;
        let tag = self.fresh_tag();
        // Reduce-scatter: after n−1 steps, rank r owns the full sum of
        // shard (r+1) mod n.
        for s in 0..n - 1 {
            let send_idx = (self.rank + n - s) % n;
            let recv_idx = (self.rank + n - 1 - s) % n;
            self.send(
                next,
                tag + s as u64 * 0x10000,
                buf[send_idx * shard..(send_idx + 1) * shard].to_vec(),
            )?;
            let payload = self.recv(prev, tag + s as u64 * 0x10000)?;
            if payload.len() != shard {
                bad.get_or_insert(payload.len());
                continue;
            }
            for (o, v) in buf[recv_idx * shard..(recv_idx + 1) * shard]
                .iter_mut()
                .zip(payload)
            {
                *o += v;
            }
        }
        // All-gather the reduced shards around the ring.
        let tag_ag = self.fresh_tag();
        for s in 0..n - 1 {
            let send_idx = (self.rank + 1 + n - s) % n;
            let recv_idx = (self.rank + n - s) % n;
            self.send(
                next,
                tag_ag + s as u64 * 0x10000,
                buf[send_idx * shard..(send_idx + 1) * shard].to_vec(),
            )?;
            let payload = self.recv(prev, tag_ag + s as u64 * 0x10000)?;
            if payload.len() != shard {
                bad.get_or_insert(payload.len());
                continue;
            }
            buf[recv_idx * shard..(recv_idx + 1) * shard].copy_from_slice(&payload);
        }
        let tags: Vec<u64> = (0..n - 1)
            .flat_map(|s| [tag + s as u64 * 0x10000, tag_ag + s as u64 * 0x10000])
            .collect();
        self.collective_epilogue(&tags)?;
        match bad {
            Some(len) => self.malformed(prev, format!("shard of {len} elements, not {shard}")),
            None => Ok(buf),
        }
    }
}

/// Largest count the in-band `f32` headers carry: every integer up to
/// 2^24 round-trips through `f32` exactly.
const MAX_WIRE_COUNT: usize = 1 << 24;

/// What the sources an in-flight All-to-All still waits on deliver.
enum HandleState {
    /// Linear: each source's buffer, verbatim.
    Direct,
    /// 2DH, intra-node exchange in flight. Node-mates' buckets land
    /// here (phase 2 of Figure 15): `[src_local][dst_node]` is the
    /// buffer from `(node, src_local)` bound for `(dst_node, local)`.
    Intra(Vec<Vec<Vec<f32>>>),
    /// 2DH, inter-node exchange in flight (phases 3–4 have run):
    /// same-local-rank peers' buckets, one segment per source GPU.
    Inter,
}

/// An in-flight All-to-All issued by [`Communicator::ialltoall_v`].
///
/// The handle owns the collective's receive state; pass the same
/// communicator it was issued on back into [`CommHandle::poll`] to
/// make non-blocking progress and [`CommHandle::wait`] to block for
/// completion.
///
/// Under the reliability layer, the closing ack/epoch exchange runs
/// in `wait` only — never in `poll` — so every rank executes its
/// epilogues in identical program order (the epoch counters stay in
/// lockstep exactly when ranks wait their handles in the same order,
/// which deterministic rank programs do by construction).
///
/// A handle must be drained with `wait` before the communicator is
/// dropped, even on error paths: an abandoned handle strands its
/// peers' messages in the mailbox and the join-time audit will panic.
pub struct CommHandle {
    /// Every tag this collective sends under (one per phase); the
    /// epilogue in `wait` retires exactly these from the retransmit
    /// log.
    tags: Vec<u64>,
    /// Received buffers by source rank, filled as they arrive.
    out: Vec<Vec<f32>>,
    /// Source ranks whose message of the current phase has not
    /// arrived yet.
    pending: Vec<usize>,
    state: HandleState,
}

impl CommHandle {
    /// Whether every buffer has arrived. A complete handle's `wait`
    /// returns without blocking on data (the reliability epilogue, if
    /// armed, still runs there).
    pub fn is_complete(&self) -> bool {
        self.pending.is_empty() && !matches!(self.state, HandleState::Intra(_))
    }

    /// Makes non-blocking progress: drains arrivals already queued on
    /// the endpoint, absorbs the buffers this collective was waiting
    /// for, and advances the 2DH phase machine. Returns
    /// [`Self::is_complete`].
    ///
    /// # Errors
    ///
    /// Propagates transport errors from draining or from issuing the
    /// 2DH inter-node phase, and [`CommError::Malformed`] for a hop
    /// message whose segment header does not match its payload.
    pub fn poll(&mut self, comm: &mut Communicator) -> Result<bool, CommError> {
        comm.drain_incoming()?;
        self.absorb(comm)?;
        Ok(self.is_complete())
    }

    /// Blocks until the collective completes, closes it (the
    /// reliability epilogue runs under this handle's tags), and
    /// returns the received buffers in source order.
    ///
    /// # Errors
    ///
    /// [`CommError::Disconnected`] if a peer exited mid-collective;
    /// [`CommError::Deadlock`] under the deterministic scheduler;
    /// [`CommError::Timeout`] when an armed retry budget is exhausted;
    /// [`CommError::Malformed`] as for [`Self::poll`].
    pub fn wait(mut self, comm: &mut Communicator) -> Result<Vec<Vec<f32>>, CommError> {
        let _span = comm.tracer.span(TRACK_COMM, "ialltoall_v.wait");
        loop {
            // Absorb leaves an incomplete handle with a pending
            // source: an intra-node phase that has nothing left to
            // wait for is promoted on the spot.
            self.absorb(comm)?;
            let Some(&src) = self.pending.first() else {
                break;
            };
            let payload = comm.recv(src, self.tag())?;
            self.accept(comm, src, payload)?;
        }
        comm.collective_epilogue(&self.tags)?;
        Ok(self.out)
    }

    /// The tag the pending sources send under: the second one once
    /// the inter-node phase is issued.
    fn tag(&self) -> u64 {
        self.tags[usize::from(matches!(self.state, HandleState::Inter))]
    }

    /// Files the current phase's payload from `src`. The source leaves
    /// the pending list before its header is checked, so a handle that
    /// rejected a payload never blocks on that source again.
    fn accept(
        &mut self,
        comm: &Communicator,
        src: usize,
        payload: Vec<f32>,
    ) -> Result<(), CommError> {
        let (m, nnodes, ..) = comm.grid();
        self.pending.retain(|&s| s != src);
        match &mut self.state {
            HandleState::Direct => self.out[src] = payload,
            HandleState::Intra(phase2) => phase2[src % m] = comm.unpack(src, &payload, nnodes)?,
            HandleState::Inter => {
                let from_node = &mut self.out[src / m * m..][..m];
                for (slot, seg) in from_node.iter_mut().zip(comm.unpack(src, &payload, m)?) {
                    *slot = seg;
                }
            }
        }
        Ok(())
    }

    /// Absorbs every already-parked buffer this handle is waiting for
    /// and, once the last intra-node bucket has landed, runs 2DH
    /// phases 3–4 (re-bucket + inter-node sends). Never blocks and
    /// never runs the epilogue.
    fn absorb(&mut self, comm: &mut Communicator) -> Result<(), CommError> {
        loop {
            let tag = self.tag();
            while let Some(src) =
                (self.pending.iter().copied()).find(|&src| comm.mailbox.contains_key(&(src, tag)))
            {
                // Only a source with a parked message was named, so
                // the take always yields.
                if let Some(payload) = comm.take_parked(src, tag) {
                    self.accept(comm, src, payload)?;
                }
            }
            let HandleState::Intra(phase2) = &mut self.state else {
                return Ok(());
            };
            if !self.pending.is_empty() {
                return Ok(());
            }
            let (m, nnodes, node, local) = comm.grid();
            for dst_node in (0..nnodes).filter(|&d| d != node) {
                let segs: Vec<&[f32]> = phase2.iter().map(|b| b[dst_node].as_slice()).collect();
                let payload = comm.pack(dst_node * m + local, &segs)?;
                comm.send(dst_node * m + local, self.tags[1], payload)?;
            }
            for (slot, bucket) in self.out[node * m..].iter_mut().zip(phase2) {
                *slot = std::mem::take(&mut bucket[node]);
            }
            let peers = (0..nnodes).filter(|&nd| nd != node);
            self.pending = peers.map(|nd| nd * m + local).collect();
            self.state = HandleState::Inter;
            // The moment the phase machine promotes from the
            // intra-node to the inter-node exchange — visible on the
            // timeline between the two tag families' flow edges. Go
            // around again: inter-node buckets from faster peers may
            // already be parked.
            comm.tracer.instant(TRACK_COMM, "2dh.promote");
        }
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // Mailbox audit at join: a healthy run consumes every message
        // it was sent. Skipped when the run already failed (poisoned
        // or panicking) — stranded messages are expected then.
        if !std::thread::panicking() && self.failure.get_mut().is_none() && !self.mailbox.is_empty()
        {
            // check:allow(no_panic, join-time audit must abort the rank on leaked messages)
            panic!(
                "rank {}: mailbox not empty at join: {}",
                self.rank,
                self.mailbox_detail()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{linear_all_to_all, RankBuffers, RankGroup};

    fn labeled(n: usize, chunk: usize) -> RankBuffers {
        (0..n)
            .map(|s| (0..n * chunk).map(|i| (s * n * chunk + i) as f32).collect())
            .collect()
    }

    #[test]
    fn threaded_linear_matches_sequential() {
        let topo = Topology::new(2, 3);
        let bufs = labeled(6, 4);
        let expect = linear_all_to_all(&bufs);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            comm.all_to_all(&bufs_ref[comm.rank()]).unwrap()
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn threaded_2dh_matches_sequential() {
        let topo = Topology::new(2, 4);
        let bufs = labeled(8, 3);
        let expect = linear_all_to_all(&bufs);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            comm.all_to_all_2dh(&bufs_ref[comm.rank()]).unwrap()
        });
        assert_eq!(got, expect);
    }

    #[test]
    fn threaded_2dh_single_node() {
        let topo = Topology::single_node(4);
        let bufs = labeled(4, 2);
        let expect = linear_all_to_all(&bufs);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            comm.all_to_all_2dh(&bufs_ref[comm.rank()]).unwrap()
        });
        assert_eq!(got, expect);
    }

    /// Ragged per-destination buffers: rank `r` sends `r*n + d` copies
    /// of a labeled value to rank `d`, so every (src, dst) length is
    /// distinct and several are zero.
    fn ragged_sends(n: usize, rank: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|d| vec![(rank * 100 + d) as f32; (rank * n + d) % 7])
            .collect()
    }

    #[test]
    fn threaded_all_to_all_v_delivers_ragged_buffers() {
        let n = 6;
        let topo = Topology::new(2, 3);
        let got = run_threaded(topo, |mut comm| {
            comm.all_to_all_v(&ragged_sends(n, comm.rank())).unwrap()
        });
        for (rank, recvd) in got.into_iter().enumerate() {
            for (src, buf) in recvd.into_iter().enumerate() {
                assert_eq!(buf, ragged_sends(n, src)[rank], "src {src} → dst {rank}");
            }
        }
    }

    #[test]
    fn threaded_all_to_all_v_2dh_matches_linear_v() {
        let n = 8;
        let topo = Topology::new(2, 4);
        let got = run_threaded(topo, |mut comm| {
            let sends = ragged_sends(n, comm.rank());
            let lin = comm.all_to_all_v(&sends).unwrap();
            let hier = comm.all_to_all_v_2dh(&sends).unwrap();
            assert_eq!(lin, hier, "2DH v-route diverged from linear v");
            lin
        });
        for (rank, recvd) in got.into_iter().enumerate() {
            for (src, buf) in recvd.into_iter().enumerate() {
                assert_eq!(buf, ragged_sends(n, src)[rank]);
            }
        }
    }

    #[test]
    fn all_to_all_v_rejects_wrong_send_count() {
        let topo = Topology::single_node(2);
        let got = run_threaded(topo, |mut comm| {
            comm.all_to_all_v(&[vec![1.0]]).is_err() && comm.all_to_all_v_2dh(&[]).is_err()
        });
        assert!(got.into_iter().all(|b| b));
    }

    #[test]
    fn threaded_all_gather() {
        let topo = Topology::new(2, 2);
        let got = run_threaded(topo, |mut comm| {
            let mine = vec![comm.rank() as f32 * 10.0, comm.rank() as f32 * 10.0 + 1.0];
            comm.all_gather(&mine).unwrap()
        });
        let expect: Vec<f32> = vec![0.0, 1.0, 10.0, 11.0, 20.0, 21.0, 30.0, 31.0];
        for r in got {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn threaded_all_reduce_sum() {
        let topo = Topology::new(1, 4);
        let got = run_threaded(topo, |mut comm| {
            let mine: Vec<f32> = (0..8).map(|i| (comm.rank() * 8 + i) as f32).collect();
            comm.all_reduce_sum(&mine).unwrap()
        });
        // Sum over ranks of (r*8 + i) = 4i + 8·(0+1+2+3) = 4i + 48.
        let expect: Vec<f32> = (0..8).map(|i| 4.0 * i as f32 + 48.0).collect();
        for r in got {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn sent_payload_elems_counts_data_volume() {
        // A 4-rank linear all-to-all sends chunk-sized payloads to the
        // 3 peers (the self-chunk is a local copy, not a wire send).
        let topo = Topology::single_node(4);
        let chunk = 5;
        let bufs = labeled(4, chunk);
        let bufs_ref = &bufs;
        let counts = run_threaded(topo, |mut comm| {
            let before = comm.sent_payload_elems();
            assert_eq!(before, 0);
            comm.all_to_all(&bufs_ref[comm.rank()]).unwrap();
            comm.sent_payload_elems() - before
        });
        for c in counts {
            assert_eq!(c, 3 * chunk as u64);
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        // Two all-to-alls in a row with different data: tags must keep
        // them separate even though ranks proceed at different speeds.
        let topo = Topology::new(2, 2);
        let a = labeled(4, 2);
        let b: RankBuffers = a
            .iter()
            .map(|r| r.iter().map(|v| v + 1000.0).collect())
            .collect();
        let (ea, eb) = (linear_all_to_all(&a), linear_all_to_all(&b));
        let (ra, rb) = (&a, &b);
        let got = run_threaded(topo, |mut comm| {
            let first = comm.all_to_all(&ra[comm.rank()]).unwrap();
            let second = comm.all_to_all(&rb[comm.rank()]).unwrap();
            (first, second)
        });
        for (rank, (first, second)) in got.into_iter().enumerate() {
            assert_eq!(first, ea[rank]);
            assert_eq!(second, eb[rank]);
        }
    }

    #[test]
    fn single_rank_degenerate_cases() {
        let topo = Topology::single_node(1);
        let got = run_threaded(topo, |mut comm| {
            let a = comm.all_to_all(&[1.0, 2.0]).unwrap();
            let b = comm.all_reduce_sum(&[3.0]).unwrap();
            let c = comm.all_gather(&[4.0]).unwrap();
            (a, b, c)
        });
        assert_eq!(got[0], (vec![1.0, 2.0], vec![3.0], vec![4.0]));
    }

    #[test]
    fn indivisible_buffer_is_a_typed_error() {
        let topo = Topology::new(1, 2);
        let got = run_threaded(topo, |mut comm| comm.all_to_all(&[1.0, 2.0, 3.0]));
        for r in got {
            assert_eq!(r, Err(CommError::Indivisible { len: 3, chunks: 2 }));
        }
    }

    #[test]
    fn send_to_bad_peer_is_a_typed_error() {
        let topo = Topology::single_node(1);
        let got = run_threaded(topo, |comm| comm.send(5, 0, vec![1.0]));
        assert_eq!(got[0], Err(CommError::PeerOutOfRange { peer: 5, world: 1 }));
    }

    #[test]
    fn mailbox_drains_to_empty_after_out_of_order_arrivals() {
        // Rank 1 sends two tags before rank 0 asks for either; rank
        // 0's selective recv parks one, then drains it — the mailbox
        // entry must be removed, not left as an empty Vec.
        let topo = Topology::new(1, 2);
        let got = run_threaded(topo, |mut comm| {
            if comm.rank() == 1 {
                comm.send(0, 7, vec![7.0]).unwrap();
                comm.send(0, 8, vec![8.0]).unwrap();
                0
            } else {
                let b = comm.recv(1, 8).unwrap();
                let a = comm.recv(1, 7).unwrap();
                assert_eq!((a, b), (vec![7.0], vec![8.0]));
                comm.parked_messages()
            }
        });
        assert_eq!(got[0], 0, "drained mailbox entry was not removed");
    }

    use crate::fault::FaultPlan;
    use tutel_obs::Telemetry;

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            timeout: Duration::from_millis(20),
            max_retries,
            backoff: 2,
        }
    }

    #[test]
    fn reliable_without_faults_matches_plain_run() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 3);
        let bufs_ref = &bufs;
        let program = |mut comm: Communicator| {
            let a = comm.all_to_all(&bufs_ref[comm.rank()]).unwrap();
            let b = comm.all_to_all_2dh(&bufs_ref[comm.rank()]).unwrap();
            let c = comm.all_gather(&bufs_ref[comm.rank()]).unwrap();
            let d = comm.all_reduce_sum(&bufs_ref[comm.rank()]).unwrap();
            (a, b, c, d)
        };
        let plain = run_threaded(topo, program);
        let reliable = RankGroup::new(
            topo,
            Some(ReliableConfig::default()),
            &Telemetry::disabled(),
        )
        .run_once(program);
        assert_eq!(plain, reliable);
    }

    #[test]
    fn injected_faults_recover_to_identical_results() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 3);
        let bufs_ref = &bufs;
        let program = |mut comm: Communicator| {
            let a = comm.all_to_all(&bufs_ref[comm.rank()]).unwrap();
            let b = comm.all_to_all_2dh(&bufs_ref[comm.rank()]).unwrap();
            let c = comm.all_gather(&bufs_ref[comm.rank()]).unwrap();
            let d = comm.all_reduce_sum(&bufs_ref[comm.rank()]).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            (a, b, c, d)
        };
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(
                FaultPlan::new(0xFA17)
                    .with_drops(20)
                    .with_duplicates(20)
                    .with_delays(20, 2),
            ),
            telemetry: telemetry.clone(),
        };
        let reliable = RankGroup::new(topo, Some(cfg), &Telemetry::disabled()).run_once(program);
        assert_eq!(plain, reliable, "faulted run diverged from plain run");
        let injected = telemetry
            .counter_value("comm.retry.injected_drops")
            .unwrap_or(0)
            + telemetry
                .counter_value("comm.retry.injected_dups")
                .unwrap_or(0)
            + telemetry
                .counter_value("comm.retry.injected_delays")
                .unwrap_or(0);
        assert!(injected > 0, "plan injected nothing — test is vacuous");
        assert_eq!(
            telemetry.counter_value("comm.retry.timeouts").unwrap_or(0),
            0,
            "recoverable plan must not exhaust any retry budget"
        );
        // The ack phase mirrors counters as gauges of the same name.
        assert!(telemetry.gauge_value("comm.retry.injected_drops").is_some());
    }

    #[test]
    fn injected_faults_recover_ragged_v_collectives() {
        // The dropless serve path rides these: drops/dups/delays on
        // variable-length (including empty) payloads must recover to
        // the bitwise fault-free result.
        let topo = Topology::new(2, 2);
        let program = |mut comm: Communicator| {
            let sends = ragged_sends(4, comm.rank());
            let a = comm.all_to_all_v(&sends).unwrap();
            let b = comm.all_to_all_v_2dh(&sends).unwrap();
            (a, b)
        };
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(
                FaultPlan::new(0xD0D0)
                    .with_drops(20)
                    .with_duplicates(20)
                    .with_delays(20, 2),
            ),
            telemetry: telemetry.clone(),
        };
        let reliable = RankGroup::new(topo, Some(cfg), &Telemetry::disabled()).run_once(program);
        assert_eq!(plain, reliable, "faulted ragged run diverged");
        let injected = telemetry
            .counter_value("comm.retry.injected_drops")
            .unwrap_or(0)
            + telemetry
                .counter_value("comm.retry.injected_dups")
                .unwrap_or(0)
            + telemetry
                .counter_value("comm.retry.injected_delays")
                .unwrap_or(0);
        assert!(injected > 0, "plan injected nothing — test is vacuous");
    }

    #[test]
    fn exhausted_retries_fail_with_typed_timeout_and_no_leak() {
        let topo = Topology::new(1, 2);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(0),
            plan: Some(FaultPlan::new(9).with_drops(100)),
            telemetry: telemetry.clone(),
        };
        let started = std::time::Instant::now();
        let got = RankGroup::new(topo, Some(cfg), &Telemetry::disabled()).run_once(|mut comm| {
            let r = comm.all_to_all(&[comm.rank() as f32; 2]);
            (r, comm.parked_messages())
        });
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "clean failure must be bounded by the timeout, not a hang"
        );
        for (rank, (result, parked)) in got.into_iter().enumerate() {
            match result {
                Err(CommError::Timeout { attempts, .. }) => assert_eq!(attempts, 1),
                other => panic!("rank {rank}: expected Timeout, got {other:?}"),
            }
            assert_eq!(parked, 0, "rank {rank}: failed collective leaked mailbox");
        }
        assert!(telemetry.counter_value("comm.retry.timeouts").unwrap_or(0) >= 2);
    }

    #[test]
    fn duplicates_are_discarded_by_receiver_dedupe() {
        let topo = Topology::new(1, 2);
        let bufs = labeled(2, 4);
        let bufs_ref = &bufs;
        let program = |mut comm: Communicator| comm.all_to_all(&bufs_ref[comm.rank()]).unwrap();
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(4),
            plan: Some(FaultPlan::new(4).with_duplicates(100)),
            telemetry: telemetry.clone(),
        };
        let reliable = RankGroup::new(topo, Some(cfg), &Telemetry::disabled()).run_once(program);
        assert_eq!(plain, reliable);
        assert!(
            telemetry
                .counter_value("comm.retry.dup_discards")
                .unwrap_or(0)
                > 0,
            "100% duplication must exercise the dedupe path"
        );
    }

    /// `buf` as `n` equal per-destination buffers: the uniform-count
    /// sends of the `(W, chunk)` layout.
    fn split(buf: &[f32], n: usize) -> Vec<Vec<f32>> {
        buf.chunks(buf.len() / n).map(<[f32]>::to_vec).collect()
    }

    #[test]
    fn polled_linear_handle_matches_sequential_reference() {
        let topo = Topology::new(2, 3);
        let bufs = labeled(6, 4);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            let sends = split(&bufs_ref[comm.rank()], 6);
            let mut h = comm.ialltoall_v(AllToAllAlgo::Linear, sends).unwrap();
            // A few polls are legal at any point before the wait.
            let _ = h.poll(&mut comm).unwrap();
            let _ = h.poll(&mut comm).unwrap();
            let out = h.wait(&mut comm).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            out.concat()
        });
        assert_eq!(got, linear_all_to_all(&bufs));
    }

    #[test]
    fn polled_2dh_handle_matches_sequential_reference() {
        let topo = Topology::new(2, 4);
        let bufs = labeled(8, 2);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            let sends = split(&bufs_ref[comm.rank()], 8);
            let mut h = comm.ialltoall_v(AllToAllAlgo::TwoDh, sends).unwrap();
            while !h.poll(&mut comm).unwrap() {
                std::thread::yield_now();
            }
            assert!(h.is_complete());
            let out = h.wait(&mut comm).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            out.concat()
        });
        assert_eq!(got, linear_all_to_all(&bufs));
    }

    #[test]
    fn degenerate_2dh_grids_complete_at_issue_or_after_one_phase() {
        // One rank, one node (no inter phase), one GPU per node (no
        // intra phase): the promotion must still run exactly once.
        for topo in [
            Topology::single_node(1),
            Topology::single_node(4),
            Topology::new(3, 1),
        ] {
            let n = topo.world_size();
            let bufs = labeled(n, 3);
            let bufs_ref = &bufs;
            let got = run_threaded(topo, |mut comm| {
                comm.all_to_all_2dh(&bufs_ref[comm.rank()]).unwrap()
            });
            assert_eq!(got, linear_all_to_all(&bufs), "world {n}");
        }
    }

    #[test]
    fn overlapped_handles_do_not_cross_talk() {
        // A linear and a 2DH collective in flight at once, drained in
        // issue order, with a third blocking collective afterwards on
        // the same communicator: payloads must not mix and the mailbox
        // must be clean at join.
        let topo = Topology::new(2, 2);
        let n = topo.world_size();
        let a = labeled(n, 2);
        let b: RankBuffers = a
            .iter()
            .map(|r| r.iter().map(|v| v + 1000.0).collect())
            .collect();
        let (ra, rb) = (&a, &b);
        let got = run_threaded(topo, |mut comm| {
            let rank = comm.rank();
            let mut ha = comm
                .ialltoall_v(AllToAllAlgo::Linear, split(&ra[rank], n))
                .unwrap();
            let mut hb = comm
                .ialltoall_v(AllToAllAlgo::TwoDh, split(&rb[rank], n))
                .unwrap();
            let _ = hb.poll(&mut comm).unwrap();
            let _ = ha.poll(&mut comm).unwrap();
            let a = ha.wait(&mut comm).unwrap().concat();
            let b = hb.wait(&mut comm).unwrap().concat();
            let c = comm.all_to_all(&ra[rank]).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            (a, b, c)
        });
        let (ea, eb) = (linear_all_to_all(&a), linear_all_to_all(&b));
        for (rank, (a, b, c)) in got.into_iter().enumerate() {
            assert_eq!(a, ea[rank], "rank {rank}: first handle");
            assert_eq!(b, eb[rank], "rank {rank}: second handle");
            assert_eq!(c, ea[rank], "rank {rank}: trailing blocking op");
        }
    }

    #[test]
    fn reliable_handles_recover_with_a_second_one_in_flight() {
        // The overlap regression the tag-selective epilogue exists
        // for: handle B's sends are logged before handle A's epilogue
        // runs, so A's epilogue must not erase B's retransmit entries
        // — a peer that lost B's data recovers it by retry after A
        // closed. Ragged sends, one route each.
        let topo = Topology::new(2, 2);
        let program = |mut comm: Communicator| {
            let sends = ragged_sends(4, comm.rank());
            let ha = comm
                .ialltoall_v(AllToAllAlgo::Linear, sends.clone())
                .unwrap();
            let hb = comm.ialltoall_v(AllToAllAlgo::TwoDh, sends).unwrap();
            let a = ha.wait(&mut comm).unwrap();
            let b = hb.wait(&mut comm).unwrap();
            assert_eq!(comm.parked_messages(), 0);
            (a, b)
        };
        let plain = run_threaded(topo, program);
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(
                FaultPlan::new(0x0B5E)
                    .with_drops(30)
                    .with_duplicates(20)
                    .with_delays(20, 2),
            ),
            telemetry: telemetry.clone(),
        };
        let reliable = RankGroup::new(topo, Some(cfg), &Telemetry::disabled()).run_once(program);
        assert_eq!(plain, reliable, "faulted overlapped run diverged");
        let injected = telemetry
            .counter_value("comm.retry.injected_drops")
            .unwrap_or(0)
            + telemetry
                .counter_value("comm.retry.injected_dups")
                .unwrap_or(0)
            + telemetry
                .counter_value("comm.retry.injected_delays")
                .unwrap_or(0);
        assert!(injected > 0, "plan injected nothing — test is vacuous");
        assert_eq!(
            telemetry.counter_value("comm.retry.timeouts").unwrap_or(0),
            0,
            "recoverable plan must not exhaust any retry budget"
        );
    }

    #[test]
    fn equal_chunk_2dh_pays_the_segment_header() {
        // The uniform view rides the ragged route, so each hop message
        // carries its segment lengths: nnodes per intra-node message,
        // m per inter-node one. The linear view carries none (pinned
        // by sent_payload_elems_counts_data_volume).
        let topo = Topology::new(2, 2);
        let chunk = 5;
        let bufs = labeled(4, chunk);
        let bufs_ref = &bufs;
        let counts = run_threaded(topo, |mut comm| {
            comm.all_to_all_2dh(&bufs_ref[comm.rank()]).unwrap();
            comm.sent_payload_elems()
        });
        for c in counts {
            // One intra-node and one inter-node message of two
            // chunk-long segments each.
            assert_eq!(c, 2 * (2 + 2 * chunk as u64));
        }
    }

    /// Rank 1 skips the collective and raw-sends `payload` under
    /// `tag`, where rank 0's first collective listens for it; returns
    /// what rank 0's `all_to_all_v_2dh` made of it.
    fn with_rogue_peer(
        topo: Topology,
        tag: u64,
        payload: Vec<f32>,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let payload = &payload;
        run_threaded(topo, |mut comm| {
            if comm.rank() == 1 {
                comm.send(0, tag, payload.clone()).unwrap();
                return Ok(Vec::new());
            }
            comm.all_to_all_v_2dh(&[vec![1.0, 2.0], vec![3.0]])
        })
        .swap_remove(0)
    }

    #[test]
    fn malformed_segment_headers_are_typed_errors_not_slice_panics() {
        // Both hops: a one-node grid unpacks the payload as an
        // intra-node bucket (first tag), a one-GPU-per-node grid as an
        // inter-node one (second tag); one segment either way.
        for (topo, tag) in [(Topology::new(1, 2), 1), (Topology::new(2, 1), 2)] {
            let bad: [(&str, Vec<f32>); 6] = [
                ("no header", vec![]),
                ("truncated", vec![3.0, 1.0]),
                ("over-long", vec![1.0, 1.0, 2.0]),
                ("NaN count", vec![f32::NAN, 1.0]),
                ("fractional count", vec![1.5, 1.0]),
                ("negative count", vec![-1.0]),
            ];
            for (what, payload) in bad {
                match with_rogue_peer(topo, tag, payload) {
                    Err(CommError::Malformed {
                        rank: 0, peer: 1, ..
                    }) => {}
                    other => panic!("{what}: expected Malformed, got {other:?}"),
                }
            }
            // The same route accepts a well-formed bucket.
            let ok = with_rogue_peer(topo, tag, vec![2.0, 7.0, 8.0]).unwrap();
            assert_eq!(ok, vec![vec![1.0, 2.0], vec![7.0, 8.0]]);
        }
    }

    #[test]
    fn a_handle_that_rejected_a_payload_still_drains() {
        // The overlap executor's error path waits every open handle,
        // including the one whose poll just failed: that wait must
        // neither block on the rejected source nor trip over its
        // missing bucket when it promotes.
        let got = run_threaded(Topology::new(1, 2), |mut comm| {
            if comm.rank() == 1 {
                comm.send(0, 1, vec![f32::NAN]).unwrap();
                return None;
            }
            let sends = vec![vec![1.0], vec![2.0]];
            let mut h = comm.ialltoall_v(AllToAllAlgo::TwoDh, sends).unwrap();
            let rejected = loop {
                match h.poll(&mut comm) {
                    Ok(_) => std::thread::yield_now(),
                    Err(e) => break e,
                }
            };
            Some((rejected, h.wait(&mut comm)))
        });
        let (rejected, drained) = got[0].clone().expect("rank 0 reports");
        assert!(matches!(rejected, CommError::Malformed { peer: 1, .. }));
        assert_eq!(drained, Ok(vec![vec![1.0], vec![]]));
    }

    type Ring = fn(&mut Communicator, &[f32]) -> Result<Vec<f32>, CommError>;

    /// Rank 1 skips the ring and raw-sends `[9.0; lens[i]]` under tag
    /// `i + 1`, where rank 0's ring over `[1, 2, 3, 4]` listens (a
    /// fresh communicator's first collective tags are 1, 2, …);
    /// returns rank 0's result and how many messages its mailbox still
    /// holds.
    fn ring_with_rogue_peer(ring: Ring, lens: &[usize]) -> (Result<Vec<f32>, CommError>, usize) {
        run_threaded(Topology::new(1, 2), |mut comm| {
            if comm.rank() == 1 {
                for (tag, &len) in (1..).zip(lens) {
                    comm.send(0, tag, vec![9.0; len]).unwrap();
                }
                return (Ok(Vec::new()), 0);
            }
            let got = ring(&mut comm, &[1.0, 2.0, 3.0, 4.0]);
            (got, comm.parked_messages())
        })
        .swap_remove(0)
    }

    #[test]
    fn ring_collectives_refuse_a_peer_shard_of_the_wrong_length() {
        // The shard length is outside input: a short all-gather shard
        // used to panic in `copy_from_slice`, a short reduce-scatter
        // shard was silently summed truncated, and a long shard in
        // all-reduce's gather pass panicked.
        let cases: [(&str, Ring, &[usize]); 3] = [
            ("all_gather", Communicator::all_gather, &[1]),
            ("reduce-scatter pass", Communicator::all_reduce_sum, &[1, 2]),
            ("all-gather pass", Communicator::all_reduce_sum, &[2, 3]),
        ];
        for (what, ring, lens) in cases {
            match ring_with_rogue_peer(ring, lens) {
                (
                    Err(CommError::Malformed {
                        rank: 0, peer: 1, ..
                    }),
                    0,
                ) => {}
                other => panic!("{what}: expected Malformed and a clean mailbox, got {other:?}"),
            }
        }
        // Well-formed shards from the same rogue are accepted.
        let ok = ring_with_rogue_peer(Communicator::all_gather, &[4]);
        assert_eq!(ok, (Ok(vec![1.0, 2.0, 3.0, 4.0, 9.0, 9.0, 9.0, 9.0]), 0));
        let ok = ring_with_rogue_peer(Communicator::all_reduce_sum, &[2, 2]);
        assert_eq!(ok, (Ok(vec![9.0, 9.0, 12.0, 13.0]), 0));
    }

    #[test]
    fn unequal_all_gather_inputs_fail_every_rank_without_hanging() {
        // Rank 1's shard is longer: every rank meets a foreign length
        // at some ring step, and every rank still runs the ring to the
        // end, so nobody waits on a rank that gave up.
        let program = |mut comm: Communicator| {
            let mine = vec![comm.rank() as f32; 2 + usize::from(comm.rank() == 1)];
            (comm.all_gather(&mine), comm.parked_messages())
        };
        let topo = Topology::new(2, 2);
        let plain = run_threaded(topo, program);
        let reliable = RankGroup::new(
            topo,
            Some(ReliableConfig::default()),
            &Telemetry::disabled(),
        )
        .run_once(program);
        for (rank, (got, parked)) in plain.into_iter().chain(reliable).enumerate() {
            let rank = rank % 4;
            assert!(
                matches!(got, Err(CommError::Malformed { rank: at, .. }) if at == rank),
                "rank {rank}: {got:?}"
            );
            assert_eq!(parked, 0, "rank {rank} leaked its mailbox");
        }
    }

    #[test]
    fn counts_beyond_f32_exactness_are_refused_on_send() {
        let got = run_threaded(Topology::single_node(1), |comm| {
            let mut buf = Vec::new();
            let ok = comm.encode_counts(0, [0, 1 << 24], &mut buf);
            assert_eq!((ok, buf.len()), (Ok(()), 2));
            comm.encode_counts(0, [(1 << 24) + 1], &mut buf)
        });
        assert!(matches!(got[0], Err(CommError::Malformed { .. })));
    }

    #[test]
    fn traced_all_to_all_binds_every_send_to_a_recv() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 2);
        let bufs_ref = &bufs;
        let tel = Telemetry::enabled();
        let got = RankGroup::new(topo, None, &tel)
            .run_once(|mut comm| comm.all_to_all(&bufs_ref[comm.rank()]).unwrap());
        assert_eq!(got, linear_all_to_all(&bufs));
        let merged = tel.trace();
        let inv = merged.check_invariants().expect("clean traced run");
        // 4 ranks each send to 3 peers, exactly once.
        assert_eq!(inv.edges, 12);
        assert_eq!(inv.cross_rank_edges, 12);
        assert_eq!(inv.retry_edges, 0);
        // Per rank: the all_to_all view's span around its handle's
        // issue and wait spans (and nothing else on an unreliable run
        // — no ack phase).
        assert_eq!(inv.spans, 12);
        for edge in merged.flow_edges() {
            assert!(edge.accepted, "clean run must accept every edge");
            assert!(edge.latency_us() >= 0.0);
            assert_eq!(edge.seq, 0, "single transmission per identity");
        }
    }

    #[test]
    fn traced_2dh_handle_records_promotion_instant() {
        let topo = Topology::new(2, 2);
        let bufs = labeled(4, 2);
        let bufs_ref = &bufs;
        let tel = Telemetry::enabled();
        RankGroup::new(topo, None, &tel)
            .run_once(|mut comm| comm.all_to_all_2dh(&bufs_ref[comm.rank()]).unwrap());
        let merged = tel.trace();
        merged.check_invariants().expect("clean traced run");
        for rank in &merged.ranks {
            let promoted = rank.events.iter().any(|e| {
                matches!(e, tutel_obs::TraceEvent::Instant { name, .. } if name == "2dh.promote")
            });
            assert!(promoted, "rank {} never promoted phases", rank.rank);
        }
    }

    #[test]
    fn traced_duplicates_become_distinct_rejected_edges() {
        let topo = Topology::new(1, 2);
        let bufs = labeled(2, 4);
        let bufs_ref = &bufs;
        let tel = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(4),
            plan: Some(FaultPlan::new(4).with_duplicates(100)),
            telemetry: Telemetry::disabled(),
        };
        let got = RankGroup::new(topo, Some(cfg), &tel)
            .run_once(|mut comm| comm.all_to_all(&bufs_ref[comm.rank()]).unwrap());
        assert_eq!(got, linear_all_to_all(&bufs));
        let merged = tel.trace();
        merged.check_invariants().expect("duplicated traced run");
        let edges = merged.flow_edges();
        let dup_rejected = edges
            .iter()
            .filter(|e| e.kind == FlowKind::Data && !e.accepted)
            .count();
        // Each rank's one data send was transmitted twice: the second
        // copy must appear as its own (seq 1) edge, marked rejected.
        assert_eq!(dup_rejected, 2);
        assert!(edges.iter().any(|e| e.kind == FlowKind::Data && e.seq == 1));
    }

    #[test]
    fn traced_delays_keep_the_logical_send_stamp() {
        let topo = Topology::new(1, 2);
        let bufs = labeled(2, 4);
        let bufs_ref = &bufs;
        let tel = Telemetry::enabled();
        let cfg = ReliableConfig {
            // A generous timeout so no retry fires: the delayed copy
            // itself (flushed at rank 1's ack phase) is the accepted
            // delivery.
            policy: RetryPolicy {
                timeout: Duration::from_millis(500),
                max_retries: 2,
                backoff: 2,
            },
            plan: Some(FaultPlan::new(4).with_delays(100, 1).only_from(1)),
            telemetry: Telemetry::disabled(),
        };
        let got = RankGroup::new(topo, Some(cfg), &tel)
            .run_once(|mut comm| comm.all_to_all(&bufs_ref[comm.rank()]).unwrap());
        assert_eq!(got, linear_all_to_all(&bufs));
        let merged = tel.trace();
        // The flush reuses the seq assigned at logical send time, so
        // the delayed copy still binds exactly one send/recv pair.
        merged.check_invariants().expect("delayed traced run");
        let delayed: Vec<_> = merged
            .flow_edges()
            .into_iter()
            .filter(|e| e.kind == FlowKind::Data && e.src == 1)
            .collect();
        assert_eq!(delayed.len(), 1);
        assert!(delayed[0].accepted);
        assert_eq!(delayed[0].seq, 0);
        // The edge spans the whole in-flight window: stamped when
        // rank 1 logically sent, received after the (late) flush.
        assert!(delayed[0].latency_us() >= 0.0);
    }

    #[test]
    fn untraced_runs_never_touch_seq_counters() {
        let topo = Topology::new(1, 2);
        let counts = run_threaded(topo, |mut comm| {
            comm.all_to_all(&[comm.rank() as f32; 2]).unwrap();
            comm.send_seqs.borrow().len()
        });
        assert_eq!(counts, vec![0, 0]);
    }
}
