//! The traced run's instruments: probes placed around the calls into each
//! layer's public API, an in-memory span store, and the ledger that turns
//! spans into per-stage times.
//!
//! Every probe lives here, in the benchmark's own files; the platform is
//! not modified. Spans of one call share a benchmark request id (`rid`),
//! carried in the call's annotations (interrogations) or as its second
//! argument (announcements), so spans recorded on the caller's thread and
//! on a server worker thread join up.

use odp_core::{
    CallCtx, CallRequest, ClientLayer, ClientNext, InvokeError, Outcome, Servant, ServerLayer,
    ServerNext,
};
use odp_net::{Endpoint, Envelope, NetError, SimNet, Transport};
use odp_types::{InterfaceType, NodeId};
use odp_wire::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Annotation key carrying the benchmark request id of an interrogation.
pub const RID_KEY: &str = "bench.rid";

/// The stages a call crosses, outermost first. A stage's spans nest
/// inside the spans of the stage before it (same request id), which is
/// what the ledger's self-time arithmetic relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Around `ClientBinding::interrogate*` / `announce` (the stub).
    Stub = 0,
    /// Probe layer first in the client stack.
    ClientOuter = 1,
    /// Probe layer last in the client stack, just above the access layer.
    ClientInner = 2,
    /// Server probe outside the admission layer.
    ServerOuter = 3,
    /// Server probe inside the admission layer.
    ServerInner = 4,
    /// The servant's own dispatch.
    Servant = 5,
    /// One `Transport::send_frame` (not tied to a request id).
    Send = 6,
}

/// Nesting depth of the request stages (`Stub` ..= `Servant`).
const LEVELS: usize = 6;

/// One timed visit to one stage.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub rid: u64,
    pub stage: Stage,
    /// For `Stub`: the call was an interrogation that returned `Ok`.
    pub ok_call: bool,
    /// For `Stub`: the call was an announcement.
    pub announce: bool,
    pub start: u64,
    pub end: u64,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds on the clock every span uses (one epoch for all
/// threads, so spans from different threads compare).
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Spans are appended to a per-thread buffer (uncontended lock) held in
/// fixed-size chunks, so recording never copies a large vector mid-call.
/// The buffers are registered globally and drained once, after the run.
struct Sink {
    chunks: Vec<Vec<Span>>,
}

/// Small first chunk: a co-located announcement runs on a thread of its
/// own and records only a few spans.
const FIRST_CHUNK: usize = 8;
const CHUNK: usize = 4096;

impl Sink {
    fn push(&mut self, span: Span) {
        let full = self.chunks.last().is_none_or(|c| c.len() == c.capacity());
        if full {
            let cap = if self.chunks.is_empty() {
                FIRST_CHUNK
            } else {
                CHUNK
            };
            self.chunks.push(Vec::with_capacity(cap));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.push(span);
        }
    }
}

fn sinks() -> &'static Mutex<Vec<Arc<Mutex<Sink>>>> {
    static SINKS: OnceLock<Mutex<Vec<Arc<Mutex<Sink>>>>> = OnceLock::new();
    SINKS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL: Arc<Mutex<Sink>> = {
        let sink = Arc::new(Mutex::new(Sink { chunks: Vec::new() }));
        sinks().lock().expect("span registry poisoned").push(Arc::clone(&sink));
        sink
    };
}

/// Records one span on this thread.
pub fn record(span: Span) {
    LOCAL.with(|sink| sink.lock().expect("span sink poisoned").push(span));
}

/// Records a request-stage span.
pub fn record_stage(rid: u64, stage: Stage, start: u64, end: u64) {
    record(Span {
        rid,
        stage,
        ok_call: false,
        announce: false,
        start,
        end,
    });
}

/// Takes every span recorded so far, from every thread.
pub fn drain() -> Vec<Span> {
    let registry = sinks().lock().expect("span registry poisoned");
    let mut out = Vec::new();
    for sink in registry.iter() {
        let mut sink = sink.lock().expect("span sink poisoned");
        for chunk in sink.chunks.drain(..) {
            out.extend(chunk);
        }
    }
    out
}

/// Set while a traced window is open; only the transport decorator, which
/// both the plain and the probed path share, consults it.
static TRANSPORT_TIMING: AtomicBool = AtomicBool::new(false);

/// Opens or closes the transport decorator's recording window.
pub fn set_transport_timing(on: bool) {
    TRANSPORT_TIMING.store(on, Ordering::Relaxed);
}

/// The request id of an arriving call: the annotation of an
/// interrogation, or the second argument of an announcement.
pub fn rid_of(annotations: &BTreeMap<String, Value>, args: &[Value], announcement: bool) -> u64 {
    let value = if announcement {
        args.get(1)
    } else {
        annotations.get(RID_KEY)
    };
    value
        .and_then(Value::as_int)
        .and_then(|v| u64::try_from(v).ok())
        .unwrap_or(0)
}

/// A client layer that only times the rest of the stack below it.
pub struct ClientProbe(pub Stage);

impl ClientLayer for ClientProbe {
    fn invoke(&self, req: CallRequest, next: &dyn ClientNext) -> Result<Outcome, InvokeError> {
        let rid = rid_of(&req.annotations, &req.args, req.announcement);
        let start = now_ns();
        let result = next.invoke(req);
        record_stage(rid, self.0, start, now_ns());
        result
    }

    fn name(&self) -> &'static str {
        match self.0 {
            Stage::ClientOuter => "bench.probe.outer",
            _ => "bench.probe.inner",
        }
    }
}

/// A server layer that only times the rest of the chain below it.
pub struct ServerProbe(pub Stage);

impl ServerLayer for ServerProbe {
    fn dispatch(
        &self,
        ctx: &CallCtx,
        op: &str,
        args: Vec<Value>,
        next: &dyn ServerNext,
    ) -> Outcome {
        let rid = rid_of(&ctx.annotations, &args, ctx.announcement);
        let start = now_ns();
        let outcome = next.dispatch(ctx, op, args);
        record_stage(rid, self.0, start, now_ns());
        outcome
    }

    fn name(&self) -> &'static str {
        match self.0 {
            Stage::ServerOuter => "bench.probe.server_outer",
            _ => "bench.probe.server_inner",
        }
    }
}

/// Wraps a servant and times its dispatch.
pub struct TimedServant(pub Arc<dyn Servant>);

impl Servant for TimedServant {
    fn interface_type(&self) -> InterfaceType {
        self.0.interface_type()
    }

    fn dispatch(&self, op: &str, args: Vec<Value>, ctx: &CallCtx) -> Outcome {
        let rid = rid_of(&ctx.annotations, &args, ctx.announcement);
        let start = now_ns();
        let outcome = self.0.dispatch(op, args, ctx);
        record_stage(rid, Stage::Servant, start, now_ns());
        outcome
    }
}

/// A `Transport` decorator timing each `send_frame` into the simulated
/// network while a traced window is open.
pub struct TimedTransport(pub SimNet);

impl Transport for TimedTransport {
    fn register(&self, node: NodeId) -> Result<Endpoint, NetError> {
        self.0.register(node)
    }

    fn deregister(&self, node: NodeId) {
        self.0.deregister(node);
    }

    fn send(&self, env: Envelope) -> Result<(), NetError> {
        self.0.send(env)
    }

    fn send_frame(&self, from: NodeId, to: NodeId, payload: &[u8]) -> Result<(), NetError> {
        if !TRANSPORT_TIMING.load(Ordering::Relaxed) {
            return self.0.send_frame(from, to, payload);
        }
        let start = now_ns();
        let result = self.0.send_frame(from, to, payload);
        record_stage(0, Stage::Send, start, now_ns());
        result
    }

    fn is_registered(&self, node: NodeId) -> bool {
        self.0.is_registered(node)
    }
}

/// Per-request stage times (nanoseconds) of traced interrogations that
/// returned `Ok`, plus announcement delays and transport sends.
#[derive(Debug, Default)]
pub struct Ledger {
    pub stub: Vec<u64>,
    /// Stub span minus the covered client-outer span: probe gaps and the
    /// binding's own work.
    pub unattributed: Vec<u64>,
    /// Self time between the outer and inner client probes: the retry,
    /// breaker and location layers.
    pub transparency: Vec<u64>,
    /// The inner client probe: `AccessLayer::invoke_base`.
    pub access: Vec<u64>,
    /// Access minus the covered server-outer span: marshal, REX,
    /// transport, demux, worker hand-off, reply and decode.
    pub channel: Vec<u64>,
    /// Server-outer minus server-inner: time in the admission layer.
    pub admission_wait: Vec<u64>,
    /// Server-inner minus the servant: server layers below admission.
    pub server_layers: Vec<u64>,
    pub servant: Vec<u64>,
    /// Announcement stub end to servant start.
    pub announce_delay: Vec<u64>,
    pub send: Vec<u64>,
}

impl Ledger {
    /// Builds the ledger from raw spans. A stage's self time is its
    /// spans' duration minus the duration of the next stage's spans of the
    /// same request that lie inside them.
    pub fn from_spans(mut spans: Vec<Span>) -> Ledger {
        spans.sort_unstable_by_key(|s| (s.rid, s.stage, s.start));
        let mut ledger = Ledger::default();
        let mut i = 0;
        while i < spans.len() {
            let rid = spans[i].rid;
            let mut j = i;
            while j < spans.len() && spans[j].rid == rid {
                j += 1;
            }
            let group = &spans[i..j];
            if rid == 0 {
                ledger.send.extend(
                    group
                        .iter()
                        .filter(|s| s.stage == Stage::Send)
                        .map(|s| s.end - s.start),
                );
            } else {
                ledger.add_request(group);
            }
            i = j;
        }
        ledger
    }

    fn add_request(&mut self, group: &[Span]) {
        let Some(stub) = group.iter().find(|s| s.stage == Stage::Stub) else {
            return;
        };
        let at = |level: usize| group.iter().filter(move |s| s.stage as usize == level);
        if stub.announce {
            if let Some(servant) = at(Stage::Servant as usize).next() {
                self.announce_delay
                    .push(servant.start.saturating_sub(stub.end));
            }
            return;
        }
        if !stub.ok_call {
            return;
        }
        let mut total = [0u64; LEVELS];
        let mut covered = [0u64; LEVELS];
        for level in 0..LEVELS {
            for span in at(level) {
                total[level] += span.end - span.start;
                if level > 0 {
                    let inside = at(level - 1).any(|p| p.start <= span.start && span.end <= p.end);
                    if inside {
                        covered[level - 1] += span.end - span.start;
                    }
                }
            }
        }
        let self_time = |level: usize| total[level].saturating_sub(covered[level]);
        self.stub.push(total[Stage::Stub as usize]);
        self.unattributed.push(self_time(Stage::Stub as usize));
        self.transparency
            .push(self_time(Stage::ClientOuter as usize));
        self.access.push(total[Stage::ClientInner as usize]);
        self.channel.push(self_time(Stage::ClientInner as usize));
        self.admission_wait
            .push(self_time(Stage::ServerOuter as usize));
        self.server_layers
            .push(self_time(Stage::ServerInner as usize));
        self.servant.push(total[Stage::Servant as usize]);
    }
}
