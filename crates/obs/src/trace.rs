//! Cross-rank causal tracing: per-rank, per-track timeline events on a
//! shared monotonic timebase, with flow edges binding each message
//! send to its matching receive across ranks.
//!
//! # Model
//!
//! Every rank owns a [`Tracer`] — the same `Option<Arc<...>>` shape as
//! [`crate::Telemetry`], so a disabled tracer costs one branch per
//! call site. Enabled tracers hand out events into a bounded
//! [`RingBuffer`]; all tracers of one run come from its telemetry
//! handle ([`crate::Telemetry::tracer`]) and share its `Instant` epoch,
//! which is what makes cross-rank timestamps comparable (ranks are OS
//! threads in one process). The handle's own spans
//! ([`crate::Telemetry::span`]) are rank 0's [`TRACK_MAIN`] spans.
//!
//! Within a rank, events land on small integer **tracks** (rendered as
//! Perfetto threads): [`TRACK_MAIN`], [`TRACK_COMM`], the two overlap
//! streams ([`TRACK_STREAM_COMPUTE`], [`TRACK_STREAM_COMM`]), and
//! [`TRACK_RT`] for compute-pool activity.
//!
//! **Flow edges** are the causal part: the comm runtime stamps every
//! physical transmission with `(src, dst, tag, seq, kind)` — `seq`
//! counts transmission attempts per `(peer, tag, kind)`, so a
//! retransmit triggered by the reliability layer is a *distinct* edge
//! from the original send, and duplicate deliveries are visible as
//! edges into a discarded (`accepted: false`) receive.
//!
//! [`MergedTrace`] combines per-rank buffers (from the live handle, or
//! parsed back from its JSONL export), matches sends to receives,
//! checks structural invariants, and exports Chrome `trace_events`
//! JSON loadable in Perfetto / `chrome://tracing`.

use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::Arc;
use std::time::Instant;

use crate::json::Value;
use crate::ring::RingBuffer;

/// Track: top-level per-rank activity (steps, harness phases, and
/// [`crate::Telemetry::span`]'s spans on rank 0).
pub const TRACK_MAIN: u32 = 0;
/// Track: blocking collectives, waits, and the reliability epilogue.
pub const TRACK_COMM: u32 = 1;
/// Track: the overlap schedule's compute stream (expert FFN chunks).
pub const TRACK_STREAM_COMPUTE: u32 = 2;
/// Track: the overlap schedule's communication stream (dispatch /
/// combine windows, from issue to drain).
pub const TRACK_STREAM_COMM: u32 = 3;
/// Track: compute-runtime pool activity sampled around each chunk.
pub const TRACK_RT: u32 = 4;

/// Stable human name for a track id — identical on every rank, which
/// is itself one of the merge invariants.
pub fn track_name(track: u32) -> &'static str {
    match track {
        TRACK_MAIN => "main",
        TRACK_COMM => "comm",
        TRACK_STREAM_COMPUTE => "stream-compute",
        TRACK_STREAM_COMM => "stream-comm",
        TRACK_RT => "rt-worker",
        _ => "track",
    }
}

/// The wire class of a traced transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowKind {
    /// A payload-bearing message (original, delayed flush, duplicate,
    /// or retransmission — distinguished by `seq`).
    Data,
    /// A retransmission request from a timed-out receiver.
    Retry,
    /// A reliability-epilogue acknowledgement.
    Ack,
}

impl FlowKind {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            FlowKind::Data => "data",
            FlowKind::Retry => "retry",
            FlowKind::Ack => "ack",
        }
    }

    /// Inverse of [`FlowKind::label`].
    pub fn from_label(s: &str) -> Option<FlowKind> {
        match s {
            "data" => Some(FlowKind::Data),
            "retry" => Some(FlowKind::Retry),
            "ack" => Some(FlowKind::Ack),
            _ => None,
        }
    }
}

/// One timeline event on a rank. All timestamps are microseconds from
/// the run's epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A closed interval on a track.
    Span {
        /// Track id (see the `TRACK_*` constants).
        track: u32,
        /// Slice name.
        name: String,
        /// Start, µs from epoch.
        t0_us: f64,
        /// Duration, µs.
        dur_us: f64,
        /// Count arguments (the active `step`, a `request` id, sizes),
        /// shown in the Perfetto details pane.
        args: Vec<(String, u64)>,
    },
    /// A point-in-time marker (e.g. 2DH intra→inter promotion).
    Instant {
        /// Track id.
        track: u32,
        /// Marker name.
        name: String,
        /// Time, µs from epoch.
        t_us: f64,
    },
    /// A physical transmission leaving this rank.
    FlowSend {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: u64,
        /// Transmission attempt number for `(dst, tag, kind)`.
        seq: u32,
        /// Wire class.
        kind: FlowKind,
        /// Payload elements.
        bytes: u64,
        /// Time, µs from epoch.
        t_us: f64,
    },
    /// A transmission arriving at this rank.
    FlowRecv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: u64,
        /// Transmission attempt number echoed from the sender.
        seq: u32,
        /// Wire class.
        kind: FlowKind,
        /// `false` when the reliability layer discarded this arrival
        /// as a duplicate.
        accepted: bool,
        /// Time, µs from epoch.
        t_us: f64,
    },
}

impl TraceEvent {
    /// The event as one self-describing JSON object.
    pub fn to_value(&self) -> Value {
        match self {
            TraceEvent::Span {
                track,
                name,
                t0_us,
                dur_us,
                args,
            } => {
                let mut pairs = vec![
                    ("type".to_string(), Value::from("span")),
                    ("track".to_string(), Value::from(u64::from(*track))),
                    ("name".to_string(), Value::from(name.clone())),
                    ("t0_us".to_string(), Value::from(*t0_us)),
                    ("dur_us".to_string(), Value::from(*dur_us)),
                ];
                if !args.is_empty() {
                    pairs.push((
                        "args".to_string(),
                        Value::Obj(
                            args.iter()
                                .map(|(k, v)| (k.clone(), Value::from(*v)))
                                .collect(),
                        ),
                    ));
                }
                Value::Obj(pairs)
            }
            TraceEvent::Instant { track, name, t_us } => Value::obj([
                ("type", Value::from("instant")),
                ("track", Value::from(u64::from(*track))),
                ("name", Value::from(name.clone())),
                ("t_us", Value::from(*t_us)),
            ]),
            TraceEvent::FlowSend {
                dst,
                tag,
                seq,
                kind,
                bytes,
                t_us,
            } => Value::obj([
                ("type", Value::from("flow_send")),
                ("dst", Value::from(*dst)),
                ("tag", Value::from(*tag)),
                ("seq", Value::from(u64::from(*seq))),
                ("kind", Value::from(kind.label())),
                ("bytes", Value::from(*bytes)),
                ("t_us", Value::from(*t_us)),
            ]),
            TraceEvent::FlowRecv {
                src,
                tag,
                seq,
                kind,
                accepted,
                t_us,
            } => Value::obj([
                ("type", Value::from("flow_recv")),
                ("src", Value::from(*src)),
                ("tag", Value::from(*tag)),
                ("seq", Value::from(u64::from(*seq))),
                ("kind", Value::from(kind.label())),
                ("accepted", Value::Bool(*accepted)),
                ("t_us", Value::from(*t_us)),
            ]),
        }
    }

    /// Inverse of [`TraceEvent::to_value`].
    ///
    /// # Errors
    ///
    /// Returns a message when the object is not a recognized event, or
    /// when a count field (`track`, `src`, `dst`, `tag`, `seq`,
    /// `bytes`, a span arg) is missing, negative, fractional or out of
    /// its type's range.
    pub fn from_value(v: &Value) -> Result<TraceEvent, String> {
        let kind = v
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| "event missing \"type\"".to_string())?;
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{kind} event missing numeric \"{key}\""))
        };
        let text = |key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{kind} event missing string \"{key}\""))
        };
        let flow_kind =
            || FlowKind::from_label(&text("kind")?).ok_or_else(|| "unknown flow kind".to_string());
        match kind {
            "span" => {
                let args = match v.get("args") {
                    None => Vec::new(),
                    Some(obj @ Value::Obj(pairs)) => pairs
                        .iter()
                        .map(|(k, _)| Ok((k.clone(), count(obj, k)?)))
                        .collect::<Result<_, String>>()?,
                    Some(_) => return Err("span \"args\" is not an object".to_string()),
                };
                Ok(TraceEvent::Span {
                    track: count(v, "track")?,
                    name: text("name")?,
                    t0_us: num("t0_us")?,
                    dur_us: num("dur_us")?,
                    args,
                })
            }
            "instant" => Ok(TraceEvent::Instant {
                track: count(v, "track")?,
                name: text("name")?,
                t_us: num("t_us")?,
            }),
            "flow_send" => Ok(TraceEvent::FlowSend {
                dst: count(v, "dst")?,
                tag: count(v, "tag")?,
                seq: count(v, "seq")?,
                kind: flow_kind()?,
                bytes: count(v, "bytes")?,
                t_us: num("t_us")?,
            }),
            "flow_recv" => Ok(TraceEvent::FlowRecv {
                src: count(v, "src")?,
                tag: count(v, "tag")?,
                seq: count(v, "seq")?,
                kind: flow_kind()?,
                accepted: v.get("accepted").and_then(Value::as_bool).unwrap_or(true),
                t_us: num("t_us")?,
            }),
            other => Err(format!("unknown trace event type \"{other}\"")),
        }
    }

    /// Span argument `key`; `None` for other events and absent keys.
    pub fn arg(&self, key: &str) -> Option<u64> {
        match self {
            TraceEvent::Span { args, .. } => args.iter().find(|(k, _)| k == key).map(|&(_, v)| v),
            _ => None,
        }
    }
}

/// Field `key` of `v` as an integer of type `T`: a missing, negative,
/// fractional or out-of-range number is an error, never a silent cast.
fn count<T: TryFrom<u64>>(v: &Value, key: &str) -> Result<T, String> {
    let x = v
        .get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing numeric \"{key}\""))?;
    // 2^64, the first value past `u64::MAX`, is exact as an f64.
    let n = (x >= 0.0 && x.fract() == 0.0 && x < 18_446_744_073_709_551_616.0)
        .then(|| T::try_from(x as u64).ok())
        .flatten();
    n.ok_or_else(|| format!("\"{key}\" is {x}, not a count in range"))
}

#[derive(Debug)]
struct TracerInner {
    rank: usize,
    epoch: Instant,
    ring: RingBuffer<TraceEvent>,
}

/// A per-rank trace recorder; an enabled one comes from
/// [`crate::Telemetry::tracer`]. Cheap to clone; a disabled tracer (the
/// `Default`) records nothing and every call returns after one branch
/// with no clock read, allocation, or lock.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(inner) => write!(f, "Tracer(rank {})", inner.rank),
            None => write!(f, "Tracer(disabled)"),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing. This is also the `Default`.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// Rank `rank`'s tracer on `epoch`, retaining at most `cap` events.
    pub(crate) fn with_epoch(rank: usize, epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                rank,
                epoch,
                ring: RingBuffer::new(cap),
            })),
        }
    }

    /// Rank `rank`'s tracer on this one's epoch and capacity; disabled
    /// when this one is.
    pub(crate) fn for_rank(&self, rank: usize) -> Tracer {
        match &self.inner {
            Some(inner) => Tracer::with_epoch(rank, inner.epoch, inner.ring.capacity()),
            None => Tracer::disabled(),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The rank this tracer records for, when enabled.
    pub fn rank(&self) -> Option<usize> {
        self.inner.as_ref().map(|i| i.rank)
    }

    /// Microseconds since the shared epoch; `0.0` when disabled (the
    /// caller must not record the value in that case).
    pub fn now_us(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64() * 1e6,
            None => 0.0,
        }
    }

    /// Opens a span on `track`; it records itself when dropped.
    pub fn span(&self, track: u32, name: &str) -> TraceSpan {
        match &self.inner {
            Some(inner) => TraceSpan {
                state: Some(TraceSpanState {
                    inner: inner.clone(),
                    track,
                    name: name.to_string(),
                    t0_us: inner.epoch.elapsed().as_secs_f64() * 1e6,
                    args: Vec::new(),
                }),
            },
            None => TraceSpan { state: None },
        }
    }

    /// Records a span retroactively from timestamps previously taken
    /// with [`Tracer::now_us`].
    pub fn span_at(&self, track: u32, name: &str, t0_us: f64, t1_us: f64) {
        self.span_at_args(track, name, t0_us, t1_us, &[]);
    }

    /// [`Tracer::span_at`] with numeric arguments.
    pub fn span_at_args(
        &self,
        track: u32,
        name: &str,
        t0_us: f64,
        t1_us: f64,
        args: &[(&str, u64)],
    ) {
        if let Some(inner) = &self.inner {
            inner.ring.push(TraceEvent::Span {
                track,
                name: name.to_string(),
                t0_us,
                dur_us: t1_us - t0_us,
                args: args.iter().map(|(k, v)| ((*k).to_string(), *v)).collect(),
            });
        }
    }

    /// Records a point-in-time marker.
    pub fn instant(&self, track: u32, name: &str) {
        if let Some(inner) = &self.inner {
            inner.ring.push(TraceEvent::Instant {
                track,
                name: name.to_string(),
                t_us: inner.epoch.elapsed().as_secs_f64() * 1e6,
            });
        }
    }

    /// Stamps a physical transmission to `dst`.
    pub fn flow_send(&self, dst: usize, tag: u64, seq: u32, kind: FlowKind, bytes: u64) {
        if let Some(inner) = &self.inner {
            inner.ring.push(TraceEvent::FlowSend {
                dst,
                tag,
                seq,
                kind,
                bytes,
                t_us: inner.epoch.elapsed().as_secs_f64() * 1e6,
            });
        }
    }

    /// Stamps an arrival from `src`.
    pub fn flow_recv(&self, src: usize, tag: u64, seq: u32, kind: FlowKind, accepted: bool) {
        if let Some(inner) = &self.inner {
            inner.ring.push(TraceEvent::FlowRecv {
                src,
                tag,
                seq,
                kind,
                accepted,
                t_us: inner.epoch.elapsed().as_secs_f64() * 1e6,
            });
        }
    }

    /// Events evicted because the ring filled.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.dropped())
    }

    /// Snapshot of recorded events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.ring.snapshot(),
            None => Vec::new(),
        }
    }

    /// This rank's buffer as [`RankTrace`] (empty when disabled).
    pub fn rank_trace(&self) -> RankTrace {
        RankTrace {
            rank: self.rank().unwrap_or(0),
            dropped: self.dropped(),
            events: self.events(),
        }
    }

    /// Events pushed so far, evicted ones included: a mark for
    /// [`Tracer::since`].
    pub(crate) fn pushed(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.pushed())
    }

    /// Visits, oldest first, the retained events recorded after
    /// [`Tracer::pushed`] returned `mark`.
    pub(crate) fn since(&self, mark: u64, f: impl FnMut(&TraceEvent)) {
        if let Some(inner) = &self.inner {
            inner.ring.since(mark, f);
        }
    }
}

struct TraceSpanState {
    inner: Arc<TracerInner>,
    track: u32,
    name: String,
    t0_us: f64,
    args: Vec<(String, u64)>,
}

/// An open trace span; records itself on drop. No-op when the tracer
/// that produced it is disabled.
pub struct TraceSpan {
    state: Option<TraceSpanState>,
}

impl TraceSpan {
    /// Attaches count argument `key` (a size, the active step, a
    /// request id).
    pub fn arg(mut self, key: &str, value: u64) -> Self {
        if let Some(state) = &mut self.state {
            state.args.push((key.to_string(), value));
        }
        self
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        let t1 = state.inner.epoch.elapsed().as_secs_f64() * 1e6;
        state.inner.ring.push(TraceEvent::Span {
            track: state.track,
            name: state.name,
            t0_us: state.t0_us,
            dur_us: t1 - state.t0_us,
            args: state.args,
        });
    }
}

/// One rank's exported (or snapshot) trace buffer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankTrace {
    /// The rank the events belong to.
    pub rank: usize,
    /// Events evicted from the ring before export.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
}

/// A matched send→recv pair across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEdge {
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
    /// Message tag.
    pub tag: u64,
    /// Transmission attempt number.
    pub seq: u32,
    /// Wire class.
    pub kind: FlowKind,
    /// Payload elements.
    pub bytes: u64,
    /// Send timestamp, µs from the shared epoch.
    pub send_us: f64,
    /// Receive timestamp, µs from the shared epoch.
    pub recv_us: f64,
    /// Whether the receiver kept (rather than dup-discarded) it.
    pub accepted: bool,
}

impl FlowEdge {
    /// In-flight time as seen by the shared clock. Under fault
    /// injection (delays, retries) this is the delivery latency the
    /// straggler analyzer attributes to the *sender*.
    pub fn latency_us(&self) -> f64 {
        self.recv_us - self.send_us
    }
}

/// Structural facts established by [`MergedTrace::check_invariants`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TraceInvariants {
    /// Total events across ranks.
    pub events: usize,
    /// Span events across ranks.
    pub spans: usize,
    /// Matched flow edges.
    pub edges: usize,
    /// Matched edges whose endpoints are different ranks.
    pub cross_rank_edges: usize,
    /// Matched edges carrying [`FlowKind::Retry`].
    pub retry_edges: usize,
    /// Whether any rank's ring evicted events before export.
    pub truncated: bool,
}

/// All ranks' traces on the shared timebase.
#[derive(Debug, Clone, Default)]
pub struct MergedTrace {
    /// Per-rank buffers, sorted by rank.
    pub ranks: Vec<RankTrace>,
}

impl MergedTrace {
    /// Builds a merged trace (sorts by rank).
    pub fn from_ranks(mut ranks: Vec<RankTrace>) -> MergedTrace {
        ranks.sort_by_key(|r| r.rank);
        MergedTrace { ranks }
    }

    /// Reads one run's JSONL stream ([`crate::Telemetry::export_jsonl`]):
    /// the `meta` line's per-rank drop counts and every trace-event
    /// line, filed under its `rank`. Lines of other types are skipped.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line (a `rank` or
    /// count field that is missing, negative, fractional or out of
    /// range included), or saying the stream has no `meta` line.
    pub fn from_jsonl(text: &str) -> Result<MergedTrace, String> {
        fn rank_of(ranks: &mut Vec<RankTrace>, rank: usize) -> &mut RankTrace {
            let i = ranks
                .iter()
                .position(|r| r.rank == rank)
                .unwrap_or_else(|| {
                    ranks.push(RankTrace {
                        rank,
                        ..RankTrace::default()
                    });
                    ranks.len() - 1
                });
            &mut ranks[i]
        }
        let mut ranks = Vec::new();
        let mut saw_meta = false;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", i + 1);
            let v = Value::parse(line).map_err(at)?;
            match v.get("type").and_then(Value::as_str) {
                Some("meta") => {
                    saw_meta = true;
                    for r in v.get("ranks").and_then(Value::as_arr).unwrap_or_default() {
                        rank_of(&mut ranks, count(r, "rank").map_err(at)?).dropped =
                            count(r, "dropped").map_err(at)?;
                    }
                }
                Some("span" | "instant" | "flow_send" | "flow_recv") => {
                    let rank = count(&v, "rank").map_err(at)?;
                    let event = TraceEvent::from_value(&v).map_err(at)?;
                    rank_of(&mut ranks, rank).events.push(event);
                }
                Some(_) => {}
                None => return Err(at("untyped object".to_string())),
            }
        }
        if !saw_meta {
            return Err("no meta line found".to_string());
        }
        Ok(MergedTrace::from_ranks(ranks))
    }

    /// Whether any rank's ring dropped events.
    pub fn truncated(&self) -> bool {
        self.ranks.iter().any(|r| r.dropped > 0)
    }

    /// Matches every `FlowRecv` to the unique `FlowSend` with the same
    /// `(src, dst, tag, seq, kind)` key, sorted by send time.
    pub fn flow_edges(&self) -> Vec<FlowEdge> {
        type FlowKey = (usize, usize, u64, u32, u8);
        let mut sends: HashMap<FlowKey, (f64, u64)> = HashMap::new();
        for rank in &self.ranks {
            for ev in &rank.events {
                if let TraceEvent::FlowSend {
                    dst,
                    tag,
                    seq,
                    kind,
                    bytes,
                    t_us,
                } = ev
                {
                    sends.insert((rank.rank, *dst, *tag, *seq, *kind as u8), (*t_us, *bytes));
                }
            }
        }
        let mut edges = Vec::new();
        for rank in &self.ranks {
            for ev in &rank.events {
                if let TraceEvent::FlowRecv {
                    src,
                    tag,
                    seq,
                    kind,
                    accepted,
                    t_us,
                } = ev
                {
                    if let Some(&(send_us, bytes)) =
                        sends.get(&(*src, rank.rank, *tag, *seq, *kind as u8))
                    {
                        edges.push(FlowEdge {
                            src: *src,
                            dst: rank.rank,
                            tag: *tag,
                            seq: *seq,
                            kind: *kind,
                            bytes,
                            send_us,
                            recv_us: *t_us,
                            accepted: *accepted,
                        });
                    }
                }
            }
        }
        edges.sort_by(|a, b| a.send_us.total_cmp(&b.send_us));
        edges
    }

    /// Verifies the merge's structural invariants:
    ///
    /// * no span has a negative start or duration;
    /// * no two transmissions share a `(src, dst, tag, seq, kind)`
    ///   key, so every flow edge binds exactly one send/recv pair;
    /// * unless the trace is truncated, every send matches exactly one
    ///   recv and vice versa (a complete run leaves no message in
    ///   flight — duplicates land as `accepted: false` receives).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<TraceInvariants, String> {
        let mut inv = TraceInvariants {
            truncated: self.truncated(),
            ..TraceInvariants::default()
        };
        let mut send_keys: HashMap<(usize, usize, u64, u32, u8), u32> = HashMap::new();
        let mut recv_keys: HashMap<(usize, usize, u64, u32, u8), u32> = HashMap::new();
        for rank in &self.ranks {
            inv.events += rank.events.len();
            for ev in &rank.events {
                match ev {
                    TraceEvent::Span {
                        name,
                        t0_us,
                        dur_us,
                        ..
                    } => {
                        inv.spans += 1;
                        if *t0_us < 0.0 || *dur_us < 0.0 {
                            return Err(format!(
                                "rank {} span \"{name}\" has negative time (t0 {t0_us} µs, \
                                 dur {dur_us} µs)",
                                rank.rank
                            ));
                        }
                    }
                    TraceEvent::FlowSend {
                        dst,
                        tag,
                        seq,
                        kind,
                        ..
                    } => {
                        *send_keys
                            .entry((rank.rank, *dst, *tag, *seq, *kind as u8))
                            .or_insert(0) += 1;
                    }
                    TraceEvent::FlowRecv {
                        src,
                        tag,
                        seq,
                        kind,
                        ..
                    } => {
                        *recv_keys
                            .entry((*src, rank.rank, *tag, *seq, *kind as u8))
                            .or_insert(0) += 1;
                    }
                    TraceEvent::Instant { .. } => {}
                }
            }
        }
        for (key, count) in &send_keys {
            if *count > 1 {
                return Err(format!(
                    "{count} transmissions share flow key (src {}, dst {}, tag {}, seq {}, \
                     kind {})",
                    key.0, key.1, key.2, key.3, key.4
                ));
            }
        }
        for (key, count) in &recv_keys {
            if *count > 1 {
                return Err(format!(
                    "{count} receives share flow key (src {}, dst {}, tag {}, seq {}, kind {})",
                    key.0, key.1, key.2, key.3, key.4
                ));
            }
        }
        if !inv.truncated {
            for key in send_keys.keys() {
                if !recv_keys.contains_key(key) {
                    return Err(format!(
                        "send (src {}, dst {}, tag {}, seq {}, kind {}) has no matching recv",
                        key.0, key.1, key.2, key.3, key.4
                    ));
                }
            }
            for key in recv_keys.keys() {
                if !send_keys.contains_key(key) {
                    return Err(format!(
                        "recv (src {}, dst {}, tag {}, seq {}, kind {}) has no matching send",
                        key.0, key.1, key.2, key.3, key.4
                    ));
                }
            }
        }
        for edge in self.flow_edges() {
            inv.edges += 1;
            if edge.src != edge.dst {
                inv.cross_rank_edges += 1;
            }
            if edge.kind == FlowKind::Retry {
                inv.retry_edges += 1;
            }
        }
        Ok(inv)
    }

    /// Exports the merge as Chrome `trace_events` JSON (one object
    /// with a `traceEvents` array), loadable in Perfetto and
    /// `chrome://tracing`: ranks become processes, tracks become
    /// threads, and each matched flow edge becomes an `s`/`f` pair
    /// anchored on tiny `tx`/`rx` slices on the comm track.
    pub fn to_chrome(&self) -> Value {
        let mut events: Vec<Value> = Vec::new();
        for rank in &self.ranks {
            let pid = Value::from(rank.rank);
            events.push(Value::obj([
                ("name", Value::from("process_name")),
                ("ph", Value::from("M")),
                ("pid", pid.clone()),
                (
                    "args",
                    Value::obj([("name", Value::from(format!("rank {}", rank.rank)))]),
                ),
            ]));
            events.push(Value::obj([
                ("name", Value::from("process_sort_index")),
                ("ph", Value::from("M")),
                ("pid", pid.clone()),
                ("args", Value::obj([("sort_index", Value::from(rank.rank))])),
            ]));
            let mut tracks: Vec<u32> = rank
                .events
                .iter()
                .map(|ev| match ev {
                    TraceEvent::Span { track, .. } | TraceEvent::Instant { track, .. } => *track,
                    TraceEvent::FlowSend { .. } | TraceEvent::FlowRecv { .. } => TRACK_COMM,
                })
                .collect();
            tracks.sort_unstable();
            tracks.dedup();
            for track in tracks {
                events.push(Value::obj([
                    ("name", Value::from("thread_name")),
                    ("ph", Value::from("M")),
                    ("pid", pid.clone()),
                    ("tid", Value::from(u64::from(track))),
                    (
                        "args",
                        Value::obj([("name", Value::from(track_name(track)))]),
                    ),
                ]));
                events.push(Value::obj([
                    ("name", Value::from("thread_sort_index")),
                    ("ph", Value::from("M")),
                    ("pid", pid.clone()),
                    ("tid", Value::from(u64::from(track))),
                    (
                        "args",
                        Value::obj([("sort_index", Value::from(u64::from(track)))]),
                    ),
                ]));
            }
            for ev in &rank.events {
                match ev {
                    TraceEvent::Span {
                        track,
                        name,
                        t0_us,
                        dur_us,
                        args,
                    } => {
                        let mut pairs = vec![
                            ("name".to_string(), Value::from(name.clone())),
                            ("cat".to_string(), Value::from("span")),
                            ("ph".to_string(), Value::from("X")),
                            ("pid".to_string(), pid.clone()),
                            ("tid".to_string(), Value::from(u64::from(*track))),
                            ("ts".to_string(), Value::from(*t0_us)),
                            ("dur".to_string(), Value::from(*dur_us)),
                        ];
                        if !args.is_empty() {
                            pairs.push((
                                "args".to_string(),
                                Value::Obj(
                                    args.iter()
                                        .map(|(k, v)| (k.clone(), Value::from(*v)))
                                        .collect(),
                                ),
                            ));
                        }
                        events.push(Value::Obj(pairs));
                    }
                    TraceEvent::Instant { track, name, t_us } => {
                        events.push(Value::obj([
                            ("name", Value::from(name.clone())),
                            ("cat", Value::from("instant")),
                            ("ph", Value::from("i")),
                            ("s", Value::from("t")),
                            ("pid", pid.clone()),
                            ("tid", Value::from(u64::from(*track))),
                            ("ts", Value::from(*t_us)),
                        ]));
                    }
                    TraceEvent::FlowSend {
                        dst,
                        tag,
                        seq,
                        kind,
                        bytes,
                        t_us,
                    } => {
                        events.push(Value::obj([
                            ("name", Value::from("tx")),
                            ("cat", Value::from(format!("flow.{}", kind.label()))),
                            ("ph", Value::from("X")),
                            ("pid", pid.clone()),
                            ("tid", Value::from(u64::from(TRACK_COMM))),
                            ("ts", Value::from(*t_us)),
                            ("dur", Value::from(1.0)),
                            (
                                "args",
                                Value::obj([
                                    ("dst", Value::from(*dst)),
                                    ("tag", Value::from(*tag)),
                                    ("seq", Value::from(u64::from(*seq))),
                                    ("bytes", Value::from(*bytes)),
                                ]),
                            ),
                        ]));
                    }
                    TraceEvent::FlowRecv {
                        src,
                        tag,
                        seq,
                        kind,
                        accepted,
                        t_us,
                    } => {
                        events.push(Value::obj([
                            ("name", Value::from(if *accepted { "rx" } else { "rx.dup" })),
                            ("cat", Value::from(format!("flow.{}", kind.label()))),
                            ("ph", Value::from("X")),
                            ("pid", pid.clone()),
                            ("tid", Value::from(u64::from(TRACK_COMM))),
                            ("ts", Value::from(*t_us)),
                            ("dur", Value::from(1.0)),
                            (
                                "args",
                                Value::obj([
                                    ("src", Value::from(*src)),
                                    ("tag", Value::from(*tag)),
                                    ("seq", Value::from(u64::from(*seq))),
                                ]),
                            ),
                        ]));
                    }
                }
            }
        }
        for (id, edge) in self.flow_edges().iter().enumerate() {
            let cat = Value::from(format!("flow.{}", edge.kind.label()));
            events.push(Value::obj([
                ("name", Value::from("msg")),
                ("cat", cat.clone()),
                ("ph", Value::from("s")),
                ("id", Value::from(id)),
                ("pid", Value::from(edge.src)),
                ("tid", Value::from(u64::from(TRACK_COMM))),
                ("ts", Value::from(edge.send_us)),
            ]));
            events.push(Value::obj([
                ("name", Value::from("msg")),
                ("cat", cat),
                ("ph", Value::from("f")),
                ("bp", Value::from("e")),
                ("id", Value::from(id)),
                ("pid", Value::from(edge.dst)),
                ("tid", Value::from(u64::from(TRACK_COMM))),
                ("ts", Value::from(edge.recv_us)),
            ]));
        }
        Value::obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", Value::from("ms")),
        ])
    }

    /// Writes [`MergedTrace::to_chrome`] to `w`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `w`.
    pub fn write_chrome(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "{}", self.to_chrome().to_json())
    }

    /// [`MergedTrace::write_chrome`] to a fresh file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn write_chrome_to(&self, path: &str) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.write_chrome(&mut file)?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn disabled_tracer_is_inert() {
        let tr = Tracer::disabled();
        let _s = tr.span(TRACK_MAIN, "step");
        tr.flow_send(1, 7, 0, FlowKind::Data, 64);
        tr.instant(TRACK_COMM, "mark");
        assert!(tr.events().is_empty());
        assert_eq!(tr.now_us(), 0.0);
        let off = Telemetry::disabled();
        assert!(!off.tracer(3).is_enabled());
        assert!(off.trace().ranks.is_empty());
    }

    #[test]
    fn tracers_of_one_handle_share_its_epoch_and_merge() {
        let tel = Telemetry::enabled();
        let t0 = tel.tracer(0);
        let t1 = tel.tracer(1);
        // A second call hands out the same rank's ring.
        assert_eq!(tel.tracer(1).rank(), Some(1));
        t0.flow_send(1, 42, 0, FlowKind::Data, 128);
        t1.flow_recv(0, 42, 0, FlowKind::Data, true);
        {
            let _s = t1.span(TRACK_MAIN, "work");
        }
        let merged = tel.trace();
        let edges = merged.flow_edges();
        assert_eq!(edges.len(), 1);
        assert_eq!((edges[0].src, edges[0].dst, edges[0].tag), (0, 1, 42));
        assert!(edges[0].latency_us() >= 0.0);
        let inv = merged.check_invariants().unwrap();
        assert_eq!(inv.edges, 1);
        assert_eq!(inv.cross_rank_edges, 1);
        assert_eq!(inv.spans, 1);
        assert!(!inv.truncated);
    }

    #[test]
    fn jsonl_roundtrip_preserves_events() {
        let tel = Telemetry::enabled();
        let tr = tel.tracer(3);
        tr.span_at_args(TRACK_STREAM_COMM, "dispatch", 10.0, 25.5, &[("chunk", 2)]);
        tr.instant(TRACK_COMM, "2dh.promote");
        tr.flow_send(0, 9, 1, FlowKind::Retry, 16);
        tr.flow_recv(2, 5, 0, FlowKind::Ack, false);
        let mut out = Vec::new();
        tel.export_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let span = text.lines().find(|l| l.contains("dispatch")).unwrap();
        assert!(
            span.starts_with(r#"{"type":"span","rank":3,"track":3,"#),
            "{span}"
        );
        assert!(span.ends_with(r#""args":{"chunk":2}}"#), "{span}");
        let parsed = MergedTrace::from_jsonl(&text).unwrap();
        let ranks: Vec<_> = parsed.ranks.iter().map(|r| (r.rank, r.dropped)).collect();
        assert_eq!(ranks, [(0, 0), (3, 0)]);
        assert_eq!(parsed.ranks[1].events, tr.events());
    }

    #[test]
    fn malformed_counts_are_line_numbered_errors() {
        // One row per count field: an event line with the field at `@`.
        let rows = [
            (
                "rank",
                r#"{"type":"instant","rank":@,"track":0,"name":"m","t_us":1}"#,
            ),
            (
                "track",
                r#"{"type":"instant","rank":0,"track":@,"name":"m","t_us":1}"#,
            ),
            (
                "dst",
                r#"{"type":"flow_send","rank":0,"dst":@,"tag":1,"seq":0,"kind":"data","bytes":8,"t_us":1}"#,
            ),
            (
                "tag",
                r#"{"type":"flow_send","rank":0,"dst":1,"tag":@,"seq":0,"kind":"data","bytes":8,"t_us":1}"#,
            ),
            (
                "seq",
                r#"{"type":"flow_send","rank":0,"dst":1,"tag":1,"seq":@,"kind":"data","bytes":8,"t_us":1}"#,
            ),
            (
                "bytes",
                r#"{"type":"flow_send","rank":0,"dst":1,"tag":1,"seq":0,"kind":"data","bytes":@,"t_us":1}"#,
            ),
            (
                "src",
                r#"{"type":"flow_recv","rank":1,"src":@,"tag":1,"seq":0,"kind":"data","t_us":2}"#,
            ),
            (
                "chunk",
                r#"{"type":"span","rank":0,"track":0,"name":"s","t0_us":0,"dur_us":1,"args":{"chunk":@}}"#,
            ),
        ];
        let meta = r#"{"type":"meta","ranks":[]}"#;
        for (field, line) in rows {
            assert!(
                MergedTrace::from_jsonl(&format!("{meta}\n{}", line.replace('@', "7"))).is_ok()
            );
            // Negative, fractional, missing, a string, past 64 bits.
            for bad in ["-1", "1.5", "null", "\"7\"", "1e20"] {
                let text = format!("{meta}\n{}", line.replace('@', bad));
                let err = MergedTrace::from_jsonl(&text).unwrap_err();
                assert!(
                    err.starts_with("line 2: ") && err.contains(field),
                    "{field} = {bad}: {err}"
                );
            }
        }
        // A `track` past 32 bits is out of range too.
        let line = rows[1].1.replace('@', "4294967296");
        assert!(MergedTrace::from_jsonl(&format!("{meta}\n{line}")).is_err());
        let line = rows[0].1.replace(r#""rank":@,"#, "");
        let err = MergedTrace::from_jsonl(&format!("{meta}\n{line}")).unwrap_err();
        assert!(err.contains(r#"missing numeric "rank""#), "{err}");
        let err = MergedTrace::from_jsonl(&rows[0].1.replace('@', "0")).unwrap_err();
        assert!(err.contains("meta"), "{err}");
    }

    #[test]
    fn unmatched_recv_fails_invariants_unless_truncated() {
        let rank = RankTrace {
            rank: 1,
            dropped: 0,
            events: vec![TraceEvent::FlowRecv {
                src: 0,
                tag: 1,
                seq: 0,
                kind: FlowKind::Data,
                accepted: true,
                t_us: 5.0,
            }],
        };
        let merged = MergedTrace::from_ranks(vec![rank.clone()]);
        assert!(merged.check_invariants().is_err());
        let truncated = RankTrace { dropped: 3, ..rank };
        let merged = MergedTrace::from_ranks(vec![truncated]);
        let inv = merged.check_invariants().unwrap();
        assert!(inv.truncated);
    }

    #[test]
    fn duplicate_flow_key_is_rejected() {
        let send = TraceEvent::FlowSend {
            dst: 1,
            tag: 1,
            seq: 0,
            kind: FlowKind::Data,
            bytes: 8,
            t_us: 1.0,
        };
        let rank = RankTrace {
            rank: 0,
            dropped: 0,
            events: vec![send.clone(), send],
        };
        let merged = MergedTrace::from_ranks(vec![rank]);
        let err = merged.check_invariants().unwrap_err();
        assert!(err.contains("share flow key"), "{err}");
    }

    #[test]
    fn negative_duration_is_rejected() {
        let rank = RankTrace {
            rank: 0,
            dropped: 0,
            events: vec![TraceEvent::Span {
                track: TRACK_MAIN,
                name: "bad".into(),
                t0_us: 4.0,
                dur_us: -1.0,
                args: Vec::new(),
            }],
        };
        let merged = MergedTrace::from_ranks(vec![rank]);
        assert!(merged.check_invariants().is_err());
    }

    #[test]
    fn chrome_export_carries_flows_and_metadata() {
        let tel = Telemetry::enabled();
        tel.tracer(0).flow_send(1, 3, 0, FlowKind::Data, 32);
        tel.tracer(1).flow_recv(0, 3, 0, FlowKind::Data, true);
        tel.tracer(0).span_at(TRACK_MAIN, "step", 0.0, 10.0);
        let json = tel.trace().to_chrome().to_json();
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert!(json.contains("\"ph\":\"s\""), "{json}");
        assert!(json.contains("\"ph\":\"f\""), "{json}");
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(json.contains("rank 1"), "{json}");
        // Loadable means parseable; round-trip through our own parser.
        assert!(Value::parse(&json).is_ok());
    }

    #[test]
    fn retransmits_are_distinct_edges() {
        let tel = Telemetry::enabled();
        let t0 = tel.tracer(0);
        let t1 = tel.tracer(1);
        // Original transmission and a retransmission of the same tag.
        t0.flow_send(1, 7, 0, FlowKind::Data, 64);
        t0.flow_send(1, 7, 1, FlowKind::Data, 64);
        t1.flow_recv(0, 7, 0, FlowKind::Data, true);
        t1.flow_recv(0, 7, 1, FlowKind::Data, false);
        let merged = tel.trace();
        assert_eq!(merged.flow_edges().len(), 2);
        merged.check_invariants().unwrap();
    }
}
