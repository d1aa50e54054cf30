//! The workloads, the measured window and the output checks.
//!
//! A measurement sets a system up, then measures a window of one-second
//! phases. An untraced run is one measurement (see `untraced.rs`). The
//! traced run is one measurement in which a few odd phases are traced, so
//! the tracing overhead is measured against interleaved untraced phases of
//! the same process. Counters are read at every phase boundary and
//! per-layer counts come from the untraced phases.
//!
//! Calls are drawn from a seeded generator as they are issued and their
//! latencies go into fixed-size histograms, so the benchmark's own memory
//! stays the same however many calls a run makes.

use crate::stats::{self, us, Counters, Histogram, Sources};
use crate::system::{self, Store, System};
use crate::trace::{self, Ledger, Span, Stage, RID_KEY};
use bytes::Bytes;
use odp_chaos::loadgen::arrival_schedule;
use odp_chaos::{LoadGenConfig, LoadOp, OpResult, SplitMix64};
use odp_core::TransparencyPolicy;
use odp_core::{AdmissionLayer, AdmissionPolicy, ClientBinding, InvokeError, ServerLayer};
use odp_net::CallQos;
use odp_telemetry::Sampling;
use odp_wire::{CallPriority, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RpcRemote,
    OverloadMixed,
    AdmissionMixed,
    ColocatedMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "rpc_remote" => Some(Workload::RpcRemote),
            "overload_mixed" => Some(Workload::OverloadMixed),
            "admission_mixed" => Some(Workload::AdmissionMixed),
            "colocated_mix" => Some(Workload::ColocatedMix),
            _ => None,
        }
    }

    /// Interrogations run open loop, timed from their intended start.
    pub fn open_loop(self) -> bool {
        self == Workload::OverloadMixed
    }

    /// Workloads whose export sits behind E17's admission layer.
    pub fn admission(self) -> bool {
        matches!(self, Workload::OverloadMixed | Workload::AdmissionMixed)
    }

    /// Arrivals per second of caller `caller` when it runs open loop, on
    /// a seeded Poisson schedule: the first caller announces `put`s, the
    /// second interrogates with `get`. `None`: a closed loop.
    fn open_rate(self, caller: usize) -> Option<f64> {
        let capacity = ADMISSION.max_concurrent as f64 / SERVICE.as_secs_f64();
        match (self, caller) {
            (Workload::OverloadMixed, 0) => Some(2.0 * capacity),
            (Workload::OverloadMixed, _) => Some(0.1 * capacity),
            (Workload::AdmissionMixed, 0) => Some(ADMITTED_PUT_RATE),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub struct Report {
    /// Output-check failures; empty when every check passed.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Closed-loop callers, and open-loop generator threads (`nproc` = 2).
const CALLERS: usize = 2;
/// Calls each closed-loop binding makes while warming up.
const WARM_CALLS: usize = 1000;
const PHASE_LEN: Duration = Duration::from_secs(1);
/// How long a dropped system's threads get to end.
const THREADS_END: Duration = Duration::from_secs(10);
/// Traced phases of a traced run: spans are kept in memory until the run
/// ends, so the traced share of a long run is capped.
const TRACED_PHASES: usize = 4;
const DONE: usize = usize::MAX;
/// Distinct payloads per echo size and caller.
const PAYLOADS: usize = 8;

/// Service time of `get`/`put` (see `Store`).
const SERVICE: Duration = Duration::from_millis(1);
/// The admission policy of E17's export.
const ADMISSION: AdmissionPolicy = AdmissionPolicy {
    max_concurrent: 2,
    queue_capacity: 8,
    retry_after: Duration::from_millis(1),
    max_wait: Duration::from_millis(150),
};
/// Server workers on `overload_mixed`: max_concurrent + queue_capacity
/// + slack, so queued calls (which hold a worker) never starve the rest.
const OVERLOAD_WORKERS: usize = 16;
const HIGH_DEADLINE: Duration = Duration::from_millis(100);
/// Announcements per second on `admission_mixed`: well within what the
/// channel carries, so the admission layer admits them all.
const ADMITTED_PUT_RATE: f64 = 2000.0;
/// Deadline of the Low-priority writes, as E17's clients set it.
const PUT_DEADLINE: Duration = Duration::from_millis(250);

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(i64),
    Echo(usize),
    Get(i64),
    Put(i64),
}

/// Percentages of `add`, 1 KiB `echo`, 16 KiB `echo` and `put` in a
/// closed-loop call sequence; the rest are `get`s. (Open-loop callers
/// follow arrival schedules.)
fn mix(workload: Workload) -> [u64; 4] {
    match workload {
        Workload::RpcRemote => [80, 15, 5, 0],
        Workload::ColocatedMix => [80, 10, 0, 10],
        Workload::OverloadMixed | Workload::AdmissionMixed => [0, 0, 0, 0],
    }
}

/// Correctness accounting of one thread.
#[derive(Debug, Default, Clone)]
struct Tally {
    acked_add: i64,
    unacked_add: i64,
    puts_sent: u64,
    problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, what: String) {
        // Keep the report short; the count of problems is what matters.
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    fn merge(&mut self, other: Tally) {
        self.acked_add += other.acked_add;
        self.unacked_add += other.unacked_add;
        self.puts_sent += other.puts_sent;
        for p in other.problems {
            self.problem(p);
        }
    }
}

/// What one phase saw from one thread.
#[derive(Debug, Default, Clone)]
pub struct PhaseStats {
    /// Latencies of interrogations that returned `ok`.
    pub ok: Histogram,
    /// Interrogations issued / failed / shed.
    pub calls: u64,
    pub failed: u64,
    pub shed: u64,
    /// Announcements issued.
    pub announces: u64,
    /// Open loop: how late each call was issued.
    pub lag: Histogram,
}

impl PhaseStats {
    pub fn merge(&mut self, other: &PhaseStats) {
        self.ok.merge(&other.ok);
        self.calls += other.calls;
        self.failed += other.failed;
        self.shed += other.shed;
        self.announces += other.announces;
        self.lag.merge(&other.lag);
    }
}

fn seeded(seed: u64, stream: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One calling thread's echo payloads, generated from the seed.
fn payloads(seed: u64, caller: usize) -> Vec<Bytes> {
    let mut rng = seeded(seed, caller as u64);
    let mut payloads = Vec::with_capacity(2 * PAYLOADS);
    for size in [1024usize, 16 * 1024] {
        for _ in 0..PAYLOADS {
            let bytes: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
            payloads.push(Bytes::from(bytes));
        }
    }
    payloads
}

/// A closed-loop caller's call sequence, drawn from a seeded generator as
/// the calls are issued.
struct Ops {
    rng: SplitMix64,
    mix: [u64; 4],
}

impl Ops {
    /// The sequence of `caller`, for the warm-up or the measured window.
    fn new(s: &Settings, caller: usize, warm_up: bool) -> Ops {
        let stream = u64::from(warm_up) << 8 | (caller as u64 + 1) << 1 | 1;
        Ops {
            rng: seeded(s.seed, stream),
            mix: mix(s.workload),
        }
    }

    fn next(&mut self) -> Op {
        let [add, echo1, echo16, put] = self.mix;
        let rng = &mut self.rng;
        let pick = rng.range(0, 100);
        let which = rng.range(0, PAYLOADS as u64) as usize;
        if pick < add {
            Op::Add(rng.range(1, 101) as i64)
        } else if pick < add + echo1 {
            Op::Echo(which)
        } else if pick < add + echo1 + echo16 {
            Op::Echo(PAYLOADS + which)
        } else if pick < add + echo1 + echo16 + put {
            Op::Put(rng.range(0, 1 << 20) as i64)
        } else {
            Op::Get(rng.range(0, 1 << 20) as i64)
        }
    }
}

/// One calling thread's bindings and payloads.
struct Caller {
    plain: ClientBinding,
    probed: Option<ClientBinding>,
    payloads: Vec<Bytes>,
    rid_base: u64,
    /// Announcements issued by every caller of the rig.
    sent: Arc<AtomicU64>,
}

enum CallResult {
    Ok,
    Shed,
    Failed,
}

impl Caller {
    fn binding(&self, traced: bool) -> &ClientBinding {
        match (&self.probed, traced) {
            (Some(probed), true) => probed,
            _ => &self.plain,
        }
    }

    /// Issues one call, checks its output, and returns the result with the
    /// call's start and end on the span clock.
    fn issue(&self, op: Op, traced: bool, rid: u64, tally: &mut Tally) -> (CallResult, u64, u64) {
        let binding = self.binding(traced);
        let interrogate = |name: &str, args: Vec<Value>| {
            if traced {
                let ann = BTreeMap::from([(RID_KEY.to_owned(), Value::Int(rid as i64))]);
                binding.interrogate_annotated(name, args, ann)
            } else {
                binding.interrogate(name, args)
            }
        };
        let start = trace::now_ns();
        let (result, end) = match op {
            Op::Add(n) => {
                let reply = interrogate("add", vec![Value::Int(n)]);
                let end = trace::now_ns();
                (
                    classify(reply, tally, |v| match v.first() {
                        Some(Value::Int(_)) => None,
                        other => Some(format!("add replied {other:?}")),
                    }),
                    end,
                )
            }
            Op::Echo(i) => {
                let payload = &self.payloads[i];
                let reply = interrogate("echo", vec![Value::Bytes(payload.clone())]);
                let end = trace::now_ns();
                (
                    classify(reply, tally, |v| match v.first() {
                        Some(Value::Bytes(b)) if b.as_ref() == payload.as_ref() => None,
                        _ => Some(format!("echo of {} bytes came back altered", payload.len())),
                    }),
                    end,
                )
            }
            Op::Get(key) => {
                let reply = interrogate("get", vec![Value::Int(key)]);
                let end = trace::now_ns();
                // Executed announcements can never outnumber those sent.
                let sent = self.sent.load(Ordering::SeqCst);
                (
                    classify(reply, tally, |v| match v.first() {
                        Some(Value::Int(n)) if u64::try_from(*n).is_ok_and(|n| n <= sent) => None,
                        other => Some(format!("get replied {other:?} with {sent} sent")),
                    }),
                    end,
                )
            }
            Op::Put(key) => {
                tally.puts_sent += 1;
                self.sent.fetch_add(1, Ordering::SeqCst);
                let sent = binding.announce("put", vec![Value::Int(key), Value::Int(rid as i64)]);
                let end = trace::now_ns();
                let result = match sent {
                    Ok(()) => CallResult::Ok,
                    Err(_) => CallResult::Failed,
                };
                (result, end)
            }
        };
        if let Op::Add(n) = op {
            match result {
                CallResult::Ok => tally.acked_add += n,
                _ => tally.unacked_add += n,
            }
        }
        if traced {
            let announce = matches!(op, Op::Put(_));
            trace::record(Span {
                rid,
                stage: Stage::Stub,
                ok_call: !announce && matches!(result, CallResult::Ok),
                announce,
                start,
                end,
            });
        }
        (result, start, end)
    }
}

/// Classifies an interrogation's result; `check` inspects an `ok` reply
/// and names what is wrong with it.
fn classify(
    reply: Result<odp_core::Outcome, InvokeError>,
    tally: &mut Tally,
    check: impl FnOnce(&[Value]) -> Option<String>,
) -> CallResult {
    match reply {
        Ok(outcome) if outcome.is_ok() => match check(&outcome.results) {
            None => CallResult::Ok,
            Some(problem) => {
                tally.problem(problem);
                CallResult::Failed
            }
        },
        Ok(outcome) => {
            tally.problem(format!("unexpected termination {outcome:?}"));
            CallResult::Failed
        }
        Err(InvokeError::Rejected { .. }) => CallResult::Shed,
        Err(_) => CallResult::Failed,
    }
}

fn record_result(stats: &mut PhaseStats, op: Op, result: &CallResult, start: u64, end: u64) {
    if matches!(op, Op::Put(_)) {
        stats.announces += 1;
        return;
    }
    stats.calls += 1;
    match result {
        CallResult::Ok => stats.ok.record(end - start),
        CallResult::Shed => stats.shed += 1,
        CallResult::Failed => stats.failed += 1,
    }
}

/// The system, its bindings and the warm-up's accounting.
struct Rig {
    system: System,
    store: Arc<Store>,
    admission: Option<Arc<AdmissionLayer>>,
    callers: Vec<Caller>,
    warm: Tally,
}

impl Rig {
    /// Configures telemetry, then builds and warms up a rig; returns it
    /// with the seconds that took.
    fn timed_setup(s: &Settings) -> Result<(Rig, f64), String> {
        let hub = odp_telemetry::hub();
        if s.workload == Workload::RpcRemote {
            // Telemetry as `odp-top` runs it.
            hub.set_recording(true);
            hub.set_sampling(Sampling::OneIn(8));
        }
        // A burst of sheds freezes the process-global flight recorder until
        // an operator thaws it; every system starts with it thawed, as in a
        // fresh process.
        hub.recorder().thaw();
        let payloads = (0..CALLERS).map(|i| payloads(s.seed, i)).collect();
        let began = Instant::now();
        let rig = Rig::setup(s, payloads)?;
        Ok((rig, began.elapsed().as_secs_f64()))
    }

    fn setup(s: &Settings, payloads: Vec<Vec<Bytes>>) -> Result<Rig, String> {
        let (apps, server_workers) = match s.workload {
            Workload::RpcRemote => (2, 4),
            Workload::ColocatedMix => (1, 4),
            Workload::OverloadMixed => (2, OVERLOAD_WORKERS),
            Workload::AdmissionMixed => (2, 4),
        };
        let system = System::build(s.seed, apps, server_workers, s.trace)?;
        let server = &system.capsules[0];
        let client = &system.capsules[apps - 1];
        let (store, admission, policies) = if s.workload.admission() {
            let admission = AdmissionLayer::with_node(ADMISSION, server.node().raw());
            // No client retries: the workload measures the server's
            // shedding, not the client's amplification.
            let policy = |deadline, priority| {
                TransparencyPolicy::default()
                    .with_qos(CallQos::with_deadline(deadline).with_priority(priority))
                    .with_failure(None)
            };
            // The first caller announces the writes, the second reads.
            let policies = vec![
                policy(PUT_DEADLINE, CallPriority::Low),
                policy(HIGH_DEADLINE, CallPriority::High),
            ];
            let service = match s.workload {
                Workload::OverloadMixed => SERVICE,
                _ => Duration::ZERO,
            };
            (Store::new(service), Some(admission), policies)
        } else {
            let policies = vec![TransparencyPolicy::default(); CALLERS];
            (Store::new(Duration::ZERO), None, policies)
        };
        let layer = || admission.clone().map(|a| a as Arc<dyn ServerLayer>);
        let plain_ref = system::export(server, &store, layer(), false);
        let probed_ref = s
            .trace
            .then(|| system::export(server, &store, layer(), true));
        let sent = Arc::new(AtomicU64::new(0));
        let callers = payloads
            .into_iter()
            .enumerate()
            .zip(&policies)
            .map(|((i, payloads), policy)| Caller {
                plain: system::bind(client, plain_ref.clone(), policy, false),
                probed: probed_ref
                    .clone()
                    .map(|r| system::bind(client, r, policy, true)),
                payloads,
                rid_base: (i as u64 + 1) << 40,
                sent: Arc::clone(&sent),
            })
            .collect();
        let mut rig = Rig {
            system,
            store,
            admission,
            callers,
            warm: Tally::default(),
        };
        rig.warm_up(s)?;
        Ok(rig)
    }

    fn warm_up(&mut self, s: &Settings) -> Result<(), String> {
        let mut tally = Tally::default();
        let traced_too = if s.trace {
            vec![false, true]
        } else {
            vec![false]
        };
        if s.workload.admission() {
            // Calibrate the admission EWMA and touch both operations.
            let (putter, getter) = (&self.callers[0], &self.callers[1]);
            for &traced in &traced_too {
                for i in 0..20 {
                    let (got, _, _) = getter.issue(Op::Get(i), traced, 1, &mut tally);
                    if !matches!(got, CallResult::Ok) {
                        return Err("warm-up get failed".to_owned());
                    }
                    putter.issue(Op::Put(i), traced, 1, &mut tally);
                }
            }
        }
        for (i, caller) in self.callers.iter().enumerate() {
            if s.workload.open_rate(i).is_some() {
                continue;
            }
            for &traced in &traced_too {
                let mut ops = Ops::new(s, i, true);
                for _ in 0..WARM_CALLS {
                    caller.issue(ops.next(), traced, 1, &mut tally);
                }
            }
        }
        wait_for(Duration::from_secs(2), || {
            self.store.ingested() >= tally.puts_sent
        });
        // Warm-up spans are not part of the measurement.
        drop(trace::drain());
        if !tally.problems.is_empty() {
            return Err(format!("warm-up failed: {:?}", tally.problems));
        }
        self.warm = tally;
        Ok(())
    }

    fn sources(&self) -> Sources {
        Sources {
            net: self.system.net.clone(),
            capsules: self.system.all(),
            admission: self.admission.clone(),
            ingested: Arc::clone(&self.store.ingested),
        }
    }
}

/// Polls `done` every millisecond until it holds or `limit` passes.
fn wait_for(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let until = Instant::now() + limit;
    while !done() {
        if Instant::now() >= until {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// What the phase clock observed.
pub struct PhaseLog {
    pub lengths: Vec<f64>,
    traced: Vec<bool>,
    /// Counter deltas of each phase.
    pub windows: Vec<Counters>,
    threads_max: u64,
}

impl PhaseLog {
    pub fn total(&self, traced: bool) -> (Counters, f64) {
        let mut sum = Counters::default();
        let mut secs = 0.0;
        for (i, w) in self.windows.iter().enumerate() {
            if self.traced[i] == traced {
                sum.add_window(&Counters::default(), w);
                secs += self.lengths[i];
            }
        }
        (sum, secs)
    }
}

/// Runs the phase clock on the calling thread: advances `phase` every
/// `PHASE_LEN` from `start`, reads the counters at every boundary, and
/// samples the thread count in between.
fn run_phases(start: Instant, traced: &[bool], phase: &AtomicUsize, src: &Sources) -> PhaseLog {
    sleep_until(start);
    let mut log = PhaseLog {
        lengths: Vec::new(),
        traced: traced.to_vec(),
        windows: Vec::new(),
        threads_max: 0,
    };
    let mut before = Counters::read(src);
    let mut began = Instant::now();
    for (i, &t) in traced.iter().enumerate() {
        trace::set_transport_timing(t);
        phase.store(i, Ordering::SeqCst);
        let end = start + PHASE_LEN * (i as u32 + 1);
        loop {
            log.threads_max = log.threads_max.max(stats::threads());
            let now = Instant::now();
            if now >= end {
                break;
            }
            std::thread::sleep((end - now).min(Duration::from_millis(10)));
        }
        let after = Counters::read(src);
        let mut window = Counters::default();
        window.add_window(&before, &after);
        log.windows.push(window);
        let ended = Instant::now();
        log.lengths.push((ended - began).as_secs_f64());
        before = after;
        began = ended;
    }
    trace::set_transport_timing(false);
    phase.store(DONE, Ordering::SeqCst);
    log
}

/// One closed-loop caller: back-to-back calls until the clock says done.
fn closed_loop(
    caller: &Caller,
    mut ops: Ops,
    start: Instant,
    phase: &AtomicUsize,
    traced: &[bool],
) -> (Vec<PhaseStats>, Tally) {
    let mut per_phase = vec![PhaseStats::default(); traced.len()];
    let mut tally = Tally::default();
    sleep_until(start);
    let mut seq = 0u64;
    loop {
        let p = phase.load(Ordering::Relaxed);
        if p == DONE {
            break;
        }
        let op = ops.next();
        seq += 1;
        let (result, s, e) = caller.issue(op, traced[p], caller.rid_base | seq, &mut tally);
        record_result(&mut per_phase[p], op, &result, s, e);
    }
    (per_phase, tally)
}

/// One open-loop generator thread: issues `op()` at each instant of a
/// seeded Poisson schedule of `rate` calls per second (drawn one phase at a
/// time) and times interrogations from their intended start. A call that
/// returns late delays the next arrivals, and that wait is counted in their
/// latency (no coordinated omission); the lag is reported.
fn open_loop(
    caller: &Caller,
    (seed, rate): (u64, f64),
    start: Instant,
    phase: &AtomicUsize,
    traced: &[bool],
    op: impl Fn(u64) -> Op,
) -> (Vec<PhaseStats>, Tally) {
    let mut per_phase = vec![PhaseStats::default(); traced.len()];
    let mut tally = Tally::default();
    let mut seq = 0u64;
    for i in 0..traced.len() {
        let schedule = arrival_schedule(
            &LoadGenConfig {
                seed: seed ^ (i as u64) << 20,
                rate_per_sec: rate,
                duration: PHASE_LEN,
                workers: 1,
            },
            &[LoadOp::new("call", 1, || OpResult::Ok)],
        );
        let phase_start = start + PHASE_LEN * i as u32;
        for (offset, _) in schedule {
            let intended = phase_start + offset;
            sleep_until(intended);
            let p = phase.load(Ordering::Relaxed);
            if p == DONE {
                return (per_phase, tally);
            }
            let lag = u64::try_from(intended.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let intended_ns = trace::now_ns().saturating_sub(lag);
            let op = op(seq);
            seq += 1;
            let (result, _, end) = caller.issue(op, traced[p], caller.rid_base | seq, &mut tally);
            per_phase[p].lag.record(lag);
            record_result(&mut per_phase[p], op, &result, intended_ns, end);
        }
    }
    (per_phase, tally)
}

/// One measurement: a fresh system, set up, measured for `traced.len()`
/// phases, drained and checked.
pub struct Measurement {
    pub setup_s: f64,
    pub per_phase: Vec<PhaseStats>,
    pub log: PhaseLog,
    pub problems: Vec<String>,
}

impl Measurement {
    pub fn run(s: &Settings, traced: &[bool]) -> Result<Measurement, String> {
        let threads_before = stats::threads();
        let (rig, setup_s) = Rig::timed_setup(s)?;
        let phase = AtomicUsize::new(0);
        let src = rig.sources();
        let start = Instant::now() + Duration::from_millis(20);
        let (log, results) = std::thread::scope(|scope| {
            let handles: Vec<_> = rig
                .callers
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let phase = &phase;
                    match s.workload.open_rate(i) {
                        Some(rate) => {
                            let seed = s.seed ^ (i as u64 + 1) << 56;
                            scope.spawn(move || {
                                open_loop(c, (seed, rate), start, phase, traced, |n| match i {
                                    0 => Op::Put(n as i64),
                                    _ => Op::Get(n as i64),
                                })
                            })
                        }
                        None => {
                            let ops = Ops::new(s, i, false);
                            scope.spawn(move || closed_loop(c, ops, start, phase, traced))
                        }
                    }
                })
                .collect();
            let log = run_phases(start, traced, &phase, &src);
            let results: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            (log, results)
        });
        let mut per_phase = vec![PhaseStats::default(); traced.len()];
        let mut tally = rig.warm.clone();
        for r in results {
            let (stats, t) = r.map_err(|_| "a calling thread panicked".to_owned())?;
            for (mine, theirs) in per_phase.iter_mut().zip(&stats) {
                mine.merge(theirs);
            }
            tally.merge(t);
        }
        drain(&rig, s, &tally);
        let mut problems = check(&rig, s, &tally);
        problems.extend(tally.problems);
        // A co-located announcement's thread may still be finishing, and
        // may hold the last handle to the capsule. Wait for every thread of
        // the system to end, so that no system overlaps the next and the
        // process never exits with its threads still running.
        drop((src, rig));
        let ended = wait_for(THREADS_END, || stats::threads() <= threads_before);
        if !ended {
            eprintln!(
                "perfbench: {} threads still running {THREADS_END:?} after the system was dropped",
                stats::threads().saturating_sub(threads_before)
            );
        }
        Ok(Measurement {
            setup_s,
            per_phase,
            log,
            problems,
        })
    }

    pub fn attempted(&self) -> u64 {
        self.per_phase.iter().map(|p| p.calls + p.announces).sum()
    }

    pub fn failed(&self) -> u64 {
        self.per_phase.iter().map(|p| p.failed).sum()
    }
}

/// The traced run: one measurement whose phases 1, 3, 5, ... up to
/// `TRACED_PHASES` of them are traced; reports the per-layer metrics.
pub fn run_traced(s: &Settings) -> Result<Report, String> {
    let phases = usize::try_from(s.seconds).map_err(|e| e.to_string())?;
    let traced: Vec<bool> = (0..phases)
        .map(|i| i % 2 == 1 && i < 2 * TRACED_PHASES)
        .collect();
    let g = Measurement::run(s, &traced)?;
    let spans = trace::drain();
    let mut notes = Vec::new();
    let metrics = per_layer(s, &g.per_phase, &g.log, spans, &mut notes);
    Ok(Report {
        attempted: g.attempted(),
        failed: g.failed(),
        problems: g.problems,
        metrics,
        notes,
    })
}

/// Waits for the server side to finish what the window left in flight.
fn drain(rig: &Rig, s: &Settings, tally: &Tally) {
    if s.workload.admission() {
        // Queued calls leave within the admission layer's max wait.
        let admission = rig.admission.as_ref();
        wait_for(Duration::from_secs(5), || {
            admission.is_none_or(|a| a.queue_depth() == 0)
        });
        std::thread::sleep(ADMISSION.max_wait + SERVICE * 4);
    } else {
        wait_for(Duration::from_secs(10), || {
            rig.store.ingested() >= tally.puts_sent
        });
    }
}

/// The output checks that need the servant's state.
fn check(rig: &Rig, s: &Settings, tally: &Tally) -> Vec<String> {
    let mut problems = Vec::new();
    let total = rig.store.total.load(Ordering::SeqCst);
    if total < tally.acked_add || total > tally.acked_add + tally.unacked_add {
        problems.push(format!(
            "add total {total} outside acknowledged {} + unacknowledged {} (double execution?)",
            tally.acked_add, tally.unacked_add
        ));
    }
    let ingested = rig.store.ingested();
    if ingested > tally.puts_sent {
        problems.push(format!(
            "{ingested} announcements executed but only {} sent",
            tally.puts_sent
        ));
    }
    if s.workload == Workload::ColocatedMix && ingested != tally.puts_sent {
        problems.push(format!(
            "{} announcements sent but {ingested} executed after draining",
            tally.puts_sent
        ));
    }
    problems
}

/// The phases `pick` selects, merged.
pub fn pooled(per_phase: &[PhaseStats], pick: impl Fn(usize) -> bool) -> PhaseStats {
    let mut all = PhaseStats::default();
    for (_, p) in per_phase.iter().enumerate().filter(|(i, _)| pick(*i)) {
        all.merge(p);
    }
    all
}

/// Operations completed per second in each selected phase: interrogations
/// that returned `ok` plus announcements the servant executed.
fn phase_throughputs(per_phase: &[PhaseStats], log: &PhaseLog, traced: bool) -> Vec<f64> {
    per_phase
        .iter()
        .zip(&log.windows)
        .enumerate()
        .filter(|(i, _)| log.traced[*i] == traced)
        .map(|(i, (p, w))| (p.ok.len() + w.ingested) as f64 / log.lengths[i])
        .collect()
}

fn per_layer(
    s: &Settings,
    per_phase: &[PhaseStats],
    log: &PhaseLog,
    spans: Vec<Span>,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let ledger = Ledger::from_spans(spans);
    let (c, secs) = log.total(false);
    let u = pooled(per_phase, |i| !log.traced[i]);
    let t = pooled(per_phase, |i| log.traced[i]);
    let calls = u.calls;
    let lost = u.failed + u.shed;
    let ops = (calls + u.announces).max(1) as f64;
    let per_op = |n: u64| n as f64 / ops;
    let overhead = if s.workload.open_loop() {
        let base = u.ok.quantile(0.5);
        100.0 * (t.ok.quantile(0.5) - base) / base.max(1.0)
    } else {
        let base = stats::median(&phase_throughputs(per_phase, log, false));
        100.0 * (base - stats::median(&phase_throughputs(per_phase, log, true))) / base.max(1.0)
    };
    notes.extend(ledger_lines(&ledger));
    let p = |v: &[u64], q: f64| us(stats::quantile(&mut v.to_vec(), q));
    let mut m: Vec<Metric> = Vec::new();
    for (name, values) in [
        ("core.stub_us", &ledger.stub),
        ("core.transparency_us", &ledger.transparency),
        ("core.access_us", &ledger.access),
        ("net.channel_us", &ledger.channel),
        ("net.transport_send_us", &ledger.send),
        ("core.admission_wait_us", &ledger.admission_wait),
        ("core.servant_us", &ledger.servant),
        ("core.announce_delay_us", &ledger.announce_delay),
        ("core.unattributed_us", &ledger.unattributed),
    ] {
        m.push((format!("{name}.p50"), p(values, 0.50), "us"));
        m.push((format!("{name}.p99"), p(values, 0.99), "us"));
    }
    let pool = c.pool_hits + c.pool_misses;
    let counts: [(&str, f64, &'static str); 20] = [
        ("net.frames_per_op", per_op(c.frames), "frames/op"),
        ("net.bytes_per_op", per_op(c.bytes), "B/op"),
        ("net.rex_retransmits", c.rex_duplicates as f64, "count"),
        (
            "net.rex_deadlines_expired",
            c.rex_deadlines_expired as f64,
            "count",
        ),
        (
            "wire.pool_hit_ratio",
            if pool == 0 {
                0.0
            } else {
                c.pool_hits as f64 / pool as f64
            },
            "ratio",
        ),
        ("wire.copied_bytes_per_op", per_op(c.copied_bytes), "B/op"),
        ("core.admitted", per_op(c.admitted), "1/op"),
        ("core.shed", per_op(c.shed), "1/op"),
        ("core.expired", per_op(c.expired), "1/op"),
        (
            "core.admission_queue_hwm",
            stats::admission_queue_hwm() as f64,
            "count",
        ),
        (
            "core.fast_path_ratio",
            c.fast_path as f64 / c.served.max(1) as f64,
            "ratio",
        ),
        (
            "telemetry.recorder_appends_per_op",
            per_op(c.recorder_appends),
            "1/op",
        ),
        (
            "telemetry.recorder_triggers",
            c.recorder_triggers as f64,
            "count",
        ),
        ("telemetry.spans_per_op", per_op(c.spans), "1/op"),
        ("chaos.loadgen_lag_p99_us", u.lag.quantile(0.99) / 1e3, "us"),
        (
            "proc.cpu_us_per_op",
            c.cpu_ticks as f64 / stats::TICKS_PER_SEC * 1e6 / ops,
            "us/op",
        ),
        ("proc.threads_max", log.threads_max as f64, "count"),
        ("bench.trace_overhead_pct", overhead, "%"),
        ("ingest_ops", c.ingested as f64 / secs.max(1e-9), "ops/s"),
        ("fail_frac", lost as f64 / calls.max(1) as f64, "ratio"),
    ];
    m.extend(counts.map(|(name, value, unit)| (name.to_owned(), value, unit)));
    m
}

/// The mean per-stage ledger of traced interrogations: the stages add up
/// to the stub time by construction.
fn ledger_lines(l: &Ledger) -> Vec<String> {
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3;
    let stub = mean(&l.stub);
    let mut lines = vec![format!(
        "ledger of {} traced ok interrogations (mean us, share of stub):",
        l.stub.len()
    )];
    for (name, v) in [
        ("unattributed", &l.unattributed),
        ("transparency", &l.transparency),
        ("channel", &l.channel),
        ("admission_wait", &l.admission_wait),
        ("server_layers", &l.server_layers),
        ("servant", &l.servant),
    ] {
        let m = mean(v);
        lines.push(format!(
            "  {name:<15} {m:>10.3}  {:>5.1}%",
            100.0 * m / stub.max(1e-9)
        ));
    }
    lines.push(format!("  {:<15} {stub:>10.3}", "stub"));
    lines.push(format!(
        "  transport sends: {}, announcements traced: {}",
        l.send.len(),
        l.announce_delay.len()
    ));
    lines
}
