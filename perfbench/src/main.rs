//! The repository benchmark: drives one workload through the platform's
//! public API for a fixed window and prints every metric by name, with
//! its unit, after checking the program's outputs.
//!
//! ```text
//! perfbench --workload <rpc_remote|admission_mixed|colocated_mix|overload_mixed>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See README.md for the workloads and metric definitions.

mod stats;
mod system;
mod trace;
mod untraced;
mod workload;

use workload::{Report, Settings, Workload};

fn parse_args() -> Result<Settings, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let trace = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 || seconds > 120 {
        return Err(format!("--seconds must be 1..=120, not {seconds}"));
    }
    Ok(Settings {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    })
}

/// Formats a finite number with every digit it has; JSON has no NaN.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_json(report: &Report) -> String {
    let correct = report.problems.is_empty();
    let metrics: Vec<String> = if correct {
        report
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = if settings.trace {
        workload::run_traced(&settings)
    } else {
        untraced::run_untraced(&settings)
    };
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {:>14.4} {unit}", value);
    }
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!("{}", result_json(&report));
    if !report.problems.is_empty() {
        std::process::exit(1);
    }
}
