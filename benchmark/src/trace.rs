//! Spans recorded from the benchmark's own files: a span around every
//! call into a layer, and — through [`TracedTransport`], which plugs
//! into the public `Transport`/`Channel` traits — one span per
//! `send_bytes`/`recv_bytes` of each protocol party. Spans stay in
//! memory and are written out as JSON lines when the run ends.

use crate::json::Json;
use c2pi_transport::{
    BoxedChannel, Channel, Result as TransportResult, Side, TrafficCounter, Transport,
};
use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; `request` groups the
/// spans of one inference (0 outside any).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    /// Channel spans: which party's end (`client` / `server`).
    pub party: &'static str,
    /// Channel spans: position of this operation on its end.
    pub seq: u64,
    /// Channel spans: frame length.
    pub bytes: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// `(span id, request id)` of the innermost open span on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// In-memory span sink shared by every thread of a traced run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Arc<Self> {
        Arc::new(Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn fresh_id(&self) -> u64 {
        // Relaxed: ids only need to be unique, they publish nothing.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a recording thread panicked").push(span);
    }

    /// Opens a span under this thread's innermost open span; it closes
    /// when the guard drops.
    pub fn enter(self: &Arc<Self>, name: &str) -> SpanGuard {
        let (parent, request) = CURRENT.get();
        self.open(name, parent, request)
    }

    /// Opens the parent span of one inference: its id is the request id
    /// every span beneath it carries.
    pub fn enter_request(self: &Arc<Self>, name: &str) -> SpanGuard {
        let (parent, _) = CURRENT.get();
        let guard = self.open(name, parent, 0);
        CURRENT.set((guard.id, guard.id));
        guard
    }

    fn open(self: &Arc<Self>, name: &str, parent: u64, request: u64) -> SpanGuard {
        let id = self.fresh_id();
        let restore = CURRENT.replace((id, request));
        SpanGuard {
            rec: Arc::clone(self),
            id,
            parent,
            name: name.to_string(),
            start_ns: self.now_ns(),
            restore,
        }
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a recording thread panicked").clone()
    }
}

/// Closes its span on drop and restores the thread's previous one.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Arc<Recorder>,
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    restore: (u64, u64),
}

impl SpanGuard {
    #[cfg(test)]
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (_, request) = CURRENT.replace(self.restore);
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            request,
            name: std::mem::take(&mut self.name),
            party: "",
            seq: 0,
            bytes: 0,
            start_ns: self.start_ns,
            end_ns: self.rec.now_ns(),
        });
    }
}

fn party_name(side: Side) -> &'static str {
    match side {
        Side::Client => "client",
        Side::Server => "server",
    }
}

/// A channel end that records one span per frame sent or received and,
/// when dropped, one `party` span covering its whole life — so a
/// party's compute is that span's self time.
#[derive(Debug)]
pub struct TracedChannel {
    inner: BoxedChannel,
    rec: Arc<Recorder>,
    id: u64,
    parent: u64,
    request: u64,
    start_ns: u64,
    seq: AtomicU64,
}

impl TracedChannel {
    /// Wraps `inner` under this thread's innermost open span.
    pub fn wrap(inner: BoxedChannel, rec: &Arc<Recorder>) -> Self {
        let (parent, request) = CURRENT.get();
        TracedChannel {
            inner,
            rec: Arc::clone(rec),
            id: rec.fresh_id(),
            parent,
            request,
            start_ns: rec.now_ns(),
            seq: AtomicU64::new(0),
        }
    }

    fn record(&self, name: &str, bytes: usize, start_ns: u64) {
        self.rec.push(Span {
            id: self.rec.fresh_id(),
            parent: self.id,
            request: self.request,
            name: name.to_string(),
            party: party_name(self.inner.side()),
            // Relaxed: a per-end counter read only through the spans.
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            bytes: bytes as u64,
            start_ns,
            end_ns: self.rec.now_ns(),
        });
    }
}

impl Channel for TracedChannel {
    fn side(&self) -> Side {
        self.inner.side()
    }

    fn send_bytes(&self, data: &[u8]) -> TransportResult<()> {
        let start = self.rec.now_ns();
        let out = self.inner.send_bytes(data);
        self.record("send", data.len(), start);
        out
    }

    fn recv_bytes(&self) -> TransportResult<Vec<u8>> {
        let start = self.rec.now_ns();
        let out = self.inner.recv_bytes();
        self.record("recv", out.as_ref().map_or(0, Vec::len), start);
        out
    }

    fn counter(&self) -> TrafficCounter {
        self.inner.counter()
    }
}

impl Drop for TracedChannel {
    fn drop(&mut self) {
        self.rec.push(Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: "party".to_string(),
            party: party_name(self.inner.side()),
            seq: 0,
            bytes: 0,
            start_ns: self.start_ns,
            end_ns: self.rec.now_ns(),
        });
    }
}

/// A transport whose channel ends are [`TracedChannel`]s around the
/// wrapped transport's — handed to `C2pi::builder(..).transport(..)`.
#[derive(Debug)]
pub struct TracedTransport<T> {
    inner: T,
    rec: Arc<Recorder>,
}

impl<T: Transport> TracedTransport<T> {
    pub fn new(inner: T, rec: &Arc<Recorder>) -> Self {
        TracedTransport { inner, rec: Arc::clone(rec) }
    }
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn pair(&self) -> TransportResult<(BoxedChannel, BoxedChannel, TrafficCounter)> {
        let (c, s, counter) = self.inner.pair()?;
        Ok((
            Box::new(TracedChannel::wrap(c, &self.rec)),
            Box::new(TracedChannel::wrap(s, &self.rec)),
            counter,
        ))
    }

    fn label(&self) -> String {
        format!("traced-{}", self.inner.label())
    }
}

/// A span's self time: its duration minus the part of its interval its
/// direct children cover (overlapping children are not double counted,
/// and a child is clipped to its parent's interval).
pub fn self_time_ns(span: &Span, spans: &[Span]) -> u64 {
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == span.id)
        .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    span.duration_ns() - covered
}

/// One party's split of one inference, from its `party` span and the
/// channel spans beneath it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PartySplit {
    pub span_ns: u64,
    pub recv_wait_ns: u64,
    pub send_ns: u64,
    pub compute_ns: u64,
    pub frames: u64,
}

/// Splits every `party` span of `party` into compute, time blocked in
/// `recv_bytes` and time inside `send_bytes`. Compute is the span's
/// self time, so the three parts are measured independently of the span
/// itself and must add up to it — the run checks that they do.
pub fn party_splits(spans: &[Span], party: &str) -> Vec<PartySplit> {
    spans
        .iter()
        .filter(|s| s.name == "party" && s.party == party)
        .map(|p| {
            let kids = || spans.iter().filter(move |s| s.parent == p.id);
            let sum = |name: &str| -> u64 {
                kids().filter(|s| s.name == name).map(Span::duration_ns).sum()
            };
            PartySplit {
                span_ns: p.duration_ns(),
                recv_wait_ns: sum("recv"),
                send_ns: sum("send"),
                compute_ns: self_time_ns(p, spans),
                frames: kids().count() as u64,
            }
        })
        .collect()
}

fn span_json(s: &Span) -> Json {
    Json::obj([
        ("id", Json::Num(s.id as f64)),
        ("parent", Json::Num(s.parent as f64)),
        ("request", Json::Num(s.request as f64)),
        ("name", Json::Str(s.name.clone())),
        ("party", Json::Str(s.party.to_string())),
        ("seq", Json::Num(s.seq as f64)),
        ("bytes", Json::Num(s.bytes as f64)),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
    ])
}

/// Renders spans as JSON lines, one span per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&span_json(s).render());
        out.push('\n');
    }
    out
}

/// Writes the spans to `path` as JSON lines, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_jsonl(spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use c2pi_transport::MemTransport;

    /// Parses [`to_jsonl`] output back into spans.
    fn from_jsonl(text: &str) -> Result<Vec<Span>, String> {
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let v = json::parse(line)?;
                let num = |k: &str| {
                    v.get(k).and_then(Json::as_f64).map(|n| n as u64).ok_or(format!("no {k}"))
                };
                let text = |k: &str| v.get(k).and_then(Json::as_str).ok_or(format!("no {k}"));
                Ok(Span {
                    id: num("id")?,
                    parent: num("parent")?,
                    request: num("request")?,
                    name: text("name")?.to_string(),
                    party: match text("party")? {
                        "client" => "client",
                        "server" => "server",
                        _ => "",
                    },
                    seq: num("seq")?,
                    bytes: num("bytes")?,
                    start_ns: num("start_ns")?,
                    end_ns: num("end_ns")?,
                })
            })
            .collect()
    }

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            party: "",
            seq: 0,
            bytes: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 100, 200),
            span(2, 1, 110, 130),
            span(3, 1, 120, 150), // overlaps span 2: union is 110..150
            span(4, 1, 190, 260), // clipped to the parent's end: 190..200
            span(5, 2, 111, 112), // grandchild: not subtracted from span 1
            span(6, 9, 100, 200), // someone else's child
        ];
        assert_eq!(self_time_ns(&spans[0], &spans), 100 - 40 - 10);
        assert_eq!(self_time_ns(&spans[1], &spans), 20 - 1);
        assert_eq!(self_time_ns(&spans[2], &spans), 30);
    }

    #[test]
    fn jsonl_round_trips() {
        let mut spans = vec![span(1, 0, 5, 9), span(2, 1, 6, 7)];
        spans[1].party = "server";
        spans[1].name = "recv \"x\"".into();
        spans[1].seq = 3;
        spans[1].bytes = 1 << 20;
        let text = to_jsonl(&spans);
        assert_eq!(text.lines().count(), 2);
        assert_eq!(from_jsonl(&text).unwrap(), spans);
        assert!(from_jsonl("{\"id\": 1}\n").is_err());
    }

    #[test]
    fn traced_channels_nest_under_the_request_and_add_up() {
        let rec = Recorder::new();
        let transport = TracedTransport::new(MemTransport, &rec);
        let request_id;
        {
            let request = rec.enter_request("infer");
            request_id = request.id();
            let (c, s, counter) = transport.pair().unwrap();
            let server = std::thread::spawn(move || {
                let got = s.recv_bytes().unwrap();
                s.send_bytes(&got).unwrap();
            });
            c.send_bytes(&[7; 64]).unwrap();
            assert_eq!(c.recv_bytes().unwrap(), vec![7; 64]);
            server.join().unwrap();
            assert_eq!(counter.snapshot().messages, 2);
        }
        let spans = rec.spans();
        let parties: Vec<&Span> = spans.iter().filter(|s| s.name == "party").collect();
        assert_eq!(parties.len(), 2);
        assert!(parties.iter().all(|p| p.parent == request_id && p.request == request_id));
        for party in ["client", "server"] {
            let split = party_splits(&spans, party);
            assert_eq!(split.len(), 1);
            let s = split[0];
            assert_eq!(s.frames, 2);
            assert_eq!(s.compute_ns + s.recv_wait_ns + s.send_ns, s.span_ns);
        }
        let client_ops: Vec<(&str, u64, u64)> = spans
            .iter()
            .filter(|s| s.party == "client" && s.name != "party")
            .map(|s| (s.name.as_str(), s.seq, s.bytes))
            .collect();
        assert_eq!(client_ops, vec![("send", 0, 64), ("recv", 1, 64)]);
        // The request span closed and restored the thread's root.
        assert_eq!(CURRENT.get(), (0, 0));
    }
}
