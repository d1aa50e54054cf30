//! The untraced run: the end-to-end metrics.
//!
//! A run builds `SYSTEMS` systems one after another and measures each for
//! an equal share of `--seconds`, in one-second phases. The latency and
//! throughput metrics are medians over all phases, `setup_s` is the median
//! over set-ups, and `peak_rss_mb` is read when the first system is done.
//!
//! Each new system draws afresh how its threads and hot data end up placed
//! on the CPUs, and the placement holds for the system's lifetime: with one
//! system per run, ten runs of `rpc_remote` on a quiet 2-vCPU virtual
//! machine read p50s of 56–68 us. Medians over several systems average the
//! placements out. The peak RSS is taken from the first system alone
//! because later ones add to it: the threads of each new system spread
//! the telemetry span ring over more malloc arenas, and after six systems
//! `rpc_remote` peaked at 250–285 MiB against 107–112 MiB for one.

use crate::stats::{self, Histogram};
use crate::workload::{self, Metric, Report, Settings};

/// Systems measured in one run.
const SYSTEMS: u64 = 6;
/// Successful calls a phase needs for its own p99 (10 beyond it).
const P99_SAMPLES: u64 = 1000;

/// Runs the untraced variant and reports the end-to-end metrics.
pub fn run_untraced(s: &Settings) -> Result<Report, String> {
    let steal_before = stats::steal_ticks();
    let systems = SYSTEMS.min(s.seconds);
    let phases = usize::try_from(s.seconds / systems).map_err(|e| e.to_string())?;
    let (mut setup_s, mut throughput, mut p50s, mut p99s) = (vec![], vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut calls, mut problems) = (0, 0, 0, Vec::new());
    let mut all = Histogram::default();
    let mut fewest = u64::MAX;
    let mut peak_rss_mb = None;
    for _ in 0..systems {
        let m = workload::Measurement::run(s, &vec![false; phases])?;
        peak_rss_mb.get_or_insert_with(stats::peak_rss_mb);
        setup_s.push(m.setup_s);
        attempted += m.attempted();
        failed += m.failed();
        problems.extend(m.problems);
        let windows = m.log.windows.iter().zip(&m.log.lengths);
        for (p, (w, secs)) in m.per_phase.iter().zip(windows) {
            // Operations completed per second: interrogations that
            // returned `ok` plus announcements the servant executed.
            throughput.push((p.ok.len() + w.ingested) as f64 / secs.max(1e-9));
            p50s.push(p.ok.quantile(0.50) / 1e3);
            p99s.push(p.ok.quantile(0.99) / 1e3);
            all.merge(&p.ok);
            calls += p.calls;
            fewest = fewest.min(p.ok.len());
        }
    }
    let steal_after = stats::steal_ticks();
    // A phase's own p99 needs at least 10 samples beyond it; with fewer,
    // p99 is taken over every phase's samples together.
    let p99 = if fewest >= P99_SAMPLES {
        stats::median(&p99s)
    } else {
        all.quantile(0.99) / 1e3
    };
    let notes = vec![
        format!(
            "CPU time stolen by the hypervisor during the run: {:.1}%",
            100.0 * steal_after.0.saturating_sub(steal_before.0) as f64
                / steal_after.1.saturating_sub(steal_before.1).max(1) as f64
        ),
        format!(
            "ok interrogations: {} of {calls} in {} phases (fewest in one: {fewest})",
            all.len(),
            p50s.len()
        ),
        format!("set-ups (s): {setup_s:.4?}"),
        format!("per-phase throughput (ops/s): {throughput:.0?}"),
        format!("per-phase ok p50 (us): {p50s:.1?}"),
        format!("per-phase ok p99 (us): {p99s:.1?}"),
    ];
    let metrics: Vec<Metric> = [
        ("setup_s", stats::median(&setup_s), "s"),
        ("ok_p50_us", stats::median(&p50s), "us"),
        ("ok_p99_us", p99, "us"),
        ("throughput_ops", stats::median(&throughput), "ops/s"),
        ("ok_frac", all.len() as f64 / calls.max(1) as f64, "ratio"),
        ("peak_rss_mb", peak_rss_mb.unwrap_or_default(), "MiB"),
    ]
    .map(|(name, value, unit): (&str, f64, &'static str)| (name.to_owned(), value, unit))
    .into();
    Ok(Report {
        attempted,
        failed,
        problems,
        metrics,
        notes,
    })
}
