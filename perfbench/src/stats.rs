//! Percentiles, process readings from `/proc/self`, and the window
//! counters read through the platform's public APIs.

use odp_core::{AdmissionLayer, Capsule};
use odp_net::SimNet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`); `0` for
/// an empty sample.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((values.len() - 1) as f64 * q).round() as usize;
    values[rank.min(values.len() - 1)]
}

/// Sub-buckets per power of two: a bucket is at most 1/32 of its value
/// wide.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Largest power of two with buckets of its own (2^42 ns is over an hour).
const TOP_EXP: u32 = 42;
const BUCKETS: usize = SUB + (TOP_EXP - SUB_BITS + 1) as usize * SUB;

/// A log-linear histogram of nanosecond latencies of fixed size (its
/// buckets are allocated on the first sample), so the benchmark's own
/// memory does not grow with the number of calls it makes.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let exp = (63 - v.leading_zeros()).min(TOP_EXP);
        let shift = exp - SUB_BITS;
        let sub = ((v >> shift) as usize).min(2 * SUB - 1) - SUB;
        SUB + (exp - SUB_BITS) as usize * SUB + sub
    }

    /// The lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = ((i - SUB) / SUB) as u32;
        let sub = ((i - SUB) % SUB + SUB) as u64;
        ((sub << shift) as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q` quantile (rank `q * (n - 1)`, as `quantile` takes it) in
    /// nanoseconds, placed within its bucket by linear interpolation; `0`
    /// when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (self.total - 1) as f64 * q.clamp(0.0, 1.0);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (lo, width) = Self::bucket(i);
                return lo + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        Self::bucket(BUCKETS - 1).0
    }
}

/// Median of a small sample of readings.
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn status_field(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Live threads of this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// User plus system CPU time of the whole process, in clock ticks
/// (`/proc/self/stat` fields 14 and 15; exited threads included).
pub fn cpu_ticks() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // The command name may contain spaces: fields start after the last ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime/stime are at 11 and 12.
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else.
pub fn steal_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(cpu) = stat.lines().next() else {
        return (0, 0);
    };
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Linux reports process CPU time in USER_HZ ticks, 100 per second on
/// every mainstream architecture.
pub const TICKS_PER_SEC: f64 = 100.0;

/// Everything the per-layer counters are read from.
pub struct Sources {
    pub net: SimNet,
    pub capsules: Vec<Arc<Capsule>>,
    pub admission: Option<Arc<AdmissionLayer>>,
    /// Announcements the servant executed.
    pub ingested: Arc<AtomicU64>,
}

/// One reading of every cumulative counter; subtract two for a window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub frames: u64,
    pub bytes: u64,
    pub rex_duplicates: u64,
    pub rex_deadlines_expired: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub copied_bytes: u64,
    pub admitted: u64,
    pub shed: u64,
    pub expired: u64,
    pub served: u64,
    pub fast_path: u64,
    pub recorder_appends: u64,
    pub recorder_triggers: u64,
    pub spans: u64,
    pub cpu_ticks: u64,
    pub ingested: u64,
}

impl Counters {
    pub fn read(src: &Sources) -> Counters {
        let relaxed = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let stats = src.net.stats();
        let wire = odp_telemetry::wire_stats().snapshot();
        let hub = odp_telemetry::hub();
        let recorder = hub.recorder().stats();
        let mut c = Counters {
            frames: relaxed(&stats.sent),
            bytes: relaxed(&stats.bytes),
            pool_hits: wire.pool_hits,
            pool_misses: wire.pool_misses,
            copied_bytes: wire.decode_copied_bytes,
            recorder_appends: recorder.appended,
            recorder_triggers: recorder.triggers,
            // Every platform span is recorded together with one sampled
            // histogram entry of its layer.
            spans: hub.metrics_snapshot().iter().map(|m| m.samples).sum(),
            cpu_ticks: cpu_ticks(),
            ingested: relaxed(&src.ingested),
            ..Counters::default()
        };
        for capsule in &src.capsules {
            let rex = capsule.rex();
            c.rex_duplicates += relaxed(&rex.duplicates_suppressed);
            c.rex_deadlines_expired += relaxed(&rex.deadlines_expired);
            c.served += relaxed(&capsule.stats.served);
            c.fast_path += relaxed(&capsule.stats.local_fast_path);
        }
        if let Some(a) = &src.admission {
            c.admitted = relaxed(&a.admitted);
            c.shed = relaxed(&a.shed);
            c.expired = relaxed(&a.expired);
        }
        c
    }

    /// Accumulates the window `later - earlier` into `self`.
    pub fn add_window(&mut self, earlier: &Counters, later: &Counters) {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        self.frames += d(earlier.frames, later.frames);
        self.bytes += d(earlier.bytes, later.bytes);
        self.rex_duplicates += d(earlier.rex_duplicates, later.rex_duplicates);
        self.rex_deadlines_expired += d(earlier.rex_deadlines_expired, later.rex_deadlines_expired);
        self.pool_hits += d(earlier.pool_hits, later.pool_hits);
        self.pool_misses += d(earlier.pool_misses, later.pool_misses);
        self.copied_bytes += d(earlier.copied_bytes, later.copied_bytes);
        self.admitted += d(earlier.admitted, later.admitted);
        self.shed += d(earlier.shed, later.shed);
        self.expired += d(earlier.expired, later.expired);
        self.served += d(earlier.served, later.served);
        self.fast_path += d(earlier.fast_path, later.fast_path);
        self.recorder_appends += d(earlier.recorder_appends, later.recorder_appends);
        self.recorder_triggers += d(earlier.recorder_triggers, later.recorder_triggers);
        self.spans += d(earlier.spans, later.spans);
        self.cpu_ticks += d(earlier.cpu_ticks, later.cpu_ticks);
        self.ingested += d(earlier.ingested, later.ingested);
    }
}

/// High-water mark of the admission queues, from their telemetry gauges.
pub fn admission_queue_hwm() -> u64 {
    odp_telemetry::hub()
        .metrics()
        .snapshot_gauges()
        .iter()
        .filter(|g| g.queue.starts_with("admission."))
        .map(|g| g.high_water)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::Histogram;

    #[test]
    fn histogram_quantiles_match_the_exact_ones() {
        let mut h = Histogram::default();
        let mut exact: Vec<u64> = (1..=100_000).map(|i| i * 7 % 100_003).collect();
        for &v in &exact {
            h.record(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let want = super::quantile(&mut exact, q) as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= want / 32.0 + 1.0,
                "q {q}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn every_value_lands_in_the_bucket_that_holds_it() {
        for v in (0..64).chain([65, 1000, 123_456, 1 << 40, u64::MAX >> 22]) {
            let (lo, width) = Histogram::bucket(Histogram::index(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: [{lo}, +{width})"
            );
        }
    }

    #[test]
    fn an_empty_histogram_merges_and_reads_as_zero() {
        let mut h = Histogram::default();
        h.merge(&Histogram::default());
        assert_eq!((h.len(), h.quantile(0.5)), (0, 0.0));
        let mut one = Histogram::default();
        one.record(100);
        h.merge(&one);
        assert_eq!(h.len(), 1);
        assert!((h.quantile(0.5) - 100.0).abs() < 4.0);
    }
}
