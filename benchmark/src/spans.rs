//! The benchmark's own span recorder: spans are opened around calls
//! into the program from the benchmark's files, kept in memory, and
//! written out as Chrome-trace JSON when the run ends.

use std::time::Instant;

use crate::adapter::Json;

/// Which timeline a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The real calls: `step` → `core.*`, or `serve.pump`.
    E2e,
    /// A step's stages re-run on identical inputs through each layer's
    /// public functions.
    Replay,
    /// One span per served request, submit → completion; these overlap,
    /// so they have no parent and no self time.
    Req,
}

impl Track {
    fn label(self) -> &'static str {
        match self {
            Track::E2e => "e2e",
            Track::Replay => "replay",
            Track::Req => "req",
        }
    }
}

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub track: Track,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open on the same track when this one began.
    pub parent: Option<usize>,
    /// Request id, shared by the spans of one request.
    pub req: Option<u64>,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with one open-span stack (the benchmark drives
/// the program from one thread).
pub struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, track: Track, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(SpanRec {
            name,
            track,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            req: None,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Records `body` as one span and returns its value.
    pub fn scope<R>(&mut self, track: Track, name: &'static str, body: impl FnOnce() -> R) -> R {
        let id = self.begin(track, name);
        let out = body();
        self.end(id);
        out
    }

    /// Records an already finished interval with no parent: a request.
    pub fn complete(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            name,
            track: Track::Req,
            start_ns,
            end_ns,
            parent: None,
            req: Some(req),
        });
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it its
    /// children cover (overlapping children count once, and a child is
    /// clipped to its parent).
    pub fn self_ns_all(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let parent = &self.spans[p];
                let (s, e) = (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns));
                if e > s {
                    kids[p].push((s, e));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (s, e) in kids {
                    let s = s.max(reach);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.dur_ns() - covered
            })
            .collect()
    }

    /// Durations in milliseconds of every span called `name` on `track`,
    /// in recording order.
    pub fn durations_ms(&self, track: Track, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.track == track && s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-6)
            .collect()
    }

    /// Self times in milliseconds of every span called `name` on `track`.
    pub fn self_ms(&self, track: Track, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns_all())
            .filter(|(s, _)| s.track == track && s.name == name)
            .map(|(_, ns)| ns as f64 * 1e-6)
            .collect()
    }

    /// The Chrome trace-event document (`ph: "X"` complete events, one
    /// `tid` per track, `ts`/`dur` in microseconds).
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id".to_string(), Json::from(id))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::from(p)));
                }
                if let Some(r) = s.req {
                    args.push(("req".to_string(), Json::from(r)));
                }
                Json::obj([
                    ("name", Json::from(s.name)),
                    ("cat", Json::from(s.track.label())),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(s.start_ns as f64 * 1e-3)),
                    ("dur", Json::from(s.dur_ns() as f64 * 1e-3)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(s.track as u64)),
                    ("args", Json::Obj(args)),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::from("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder holding hand-placed spans, so the arithmetic is exact.
    fn fixed(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Recorder {
        let mut r = Recorder::new();
        for &(name, start_ns, end_ns, parent) in spans {
            r.spans.push(SpanRec {
                name,
                track: Track::E2e,
                start_ns,
                end_ns,
                parent,
                req: None,
            });
        }
        r
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // step [0,100) → fwd [10,40) → ffn [15,35); bwd [50,90).
        let r = fixed(&[
            ("step", 0, 100, None),
            ("fwd", 10, 40, Some(0)),
            ("ffn", 15, 35, Some(1)),
            ("bwd", 50, 90, Some(0)),
        ]);
        let own = r.self_ns_all();
        assert_eq!(own[0], 100 - 30 - 40, "siblings both subtract");
        assert_eq!(own[1], 30 - 20, "the grandchild counts once, in fwd");
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 40);
        assert_eq!(
            own.iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips_them() {
        // Children [10,60) and [40,80) overlap; [90,130) runs past the
        // parent's end.
        let r = fixed(&[
            ("p", 0, 100, None),
            ("a", 10, 60, Some(0)),
            ("b", 40, 80, Some(0)),
            ("c", 90, 130, Some(0)),
        ]);
        assert_eq!(r.self_ns_all()[0], 100 - 70 - 10);
    }

    #[test]
    fn begin_end_nest_by_call_order() {
        let mut r = Recorder::new();
        let step = r.begin(Track::E2e, "step");
        let got = r.scope(Track::E2e, "core.forward", || 7);
        assert_eq!(got, 7);
        r.scope(Track::E2e, "core.backward", || ());
        r.end(step);
        let after = r.begin(Track::Replay, "gate.route");
        r.end(after);
        let s = r.spans();
        assert_eq!(s[1].parent, Some(step));
        assert_eq!(s[2].parent, Some(step));
        assert_eq!(s[3].parent, None, "the step was closed");
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert!(r.self_ns_all()[step] <= s[0].dur_ns());
        assert_eq!(r.durations_ms(Track::E2e, "core.forward").len(), 1);
        assert_eq!(r.self_ms(Track::Replay, "gate.route").len(), 1);
    }

    #[test]
    fn chrome_trace_parses_back() {
        let mut r = fixed(&[
            ("serve.pump", 1_000, 251_000, None),
            ("x", 2_000, 3_500, Some(0)),
        ]);
        let t0 = r.epoch;
        r.complete("req", t0, t0 + std::time::Duration::from_micros(400), 42);
        let text = r.to_chrome_trace().to_json();
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(events.len(), 3);
        let pump = &events[0];
        assert_eq!(pump.get("name").and_then(Json::as_str), Some("serve.pump"));
        assert_eq!(pump.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(pump.get("ts").and_then(Json::as_f64), Some(1.0));
        assert_eq!(pump.get("dur").and_then(Json::as_f64), Some(250.0));
        let child = events[1].get("args").expect("args");
        assert_eq!(child.get("parent").and_then(Json::as_u64), Some(0));
        let req = &events[2];
        assert_eq!(req.get("cat").and_then(Json::as_str), Some("req"));
        assert_eq!(req.get("dur").and_then(Json::as_f64), Some(400.0));
        assert_eq!(
            req.get("args")
                .and_then(|a| a.get("req"))
                .and_then(Json::as_u64),
            Some(42)
        );
    }
}
