//! Benchmark binary: runs one workload for one seed and prints the
//! result as the last line of standard output.
//!
//! ```text
//! perfbench --workload <market_sustained|rollup_signed|attack_windows>
//!           --seed <n> --seconds <s>
//!           # the `trace` build only:
//!           --baseline-txs-per-s <x> --baseline-fingerprint <hex>
//!           [--trace-out <file>]
//! ```
//!
//! The default build reports the end-to-end metrics; the build with the
//! `trace` feature reports the per-layer metrics. The trace build needs the
//! untraced run's throughput and output fingerprint: they become
//! `trace_overhead` and a gate that the traced run reproduced the untraced
//! outputs.

use perfbench::attack::{self, AttackConfig};
use perfbench::gen::{MarketConfig, SignedConfig};
use perfbench::spans::SpanLog;
use perfbench::stats::{peak_rss_mb, Outcome};
use perfbench::{market, rollup, RunOpts, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// What the trace build compares itself against: the untraced run of the
/// same inputs.
struct Baseline {
    txs_per_s: f64,
    fingerprint: String,
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    opts: RunOpts,
    /// Present exactly in the trace build.
    baseline: Option<Baseline>,
    trace_out: Option<String>,
}

/// Whether this binary is the trace build.
const TRACED: bool = cfg!(feature = "trace");

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut baseline_txs_per_s = None;
    let mut baseline_fingerprint = None;
    let mut trace_out = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--baseline-txs-per-s" if TRACED => {
                let x = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--baseline-txs-per-s: {e}"))?;
                baseline_txs_per_s = Some(x);
            }
            "--baseline-fingerprint" if TRACED => baseline_fingerprint = Some(value()?),
            "--trace-out" if TRACED => trace_out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let baseline = if TRACED {
        Some(Baseline {
            txs_per_s: baseline_txs_per_s.ok_or("--baseline-txs-per-s is required")?,
            fingerprint: baseline_fingerprint.ok_or("--baseline-fingerprint is required")?,
        })
    } else {
        None
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        opts: RunOpts {
            seconds: seconds.ok_or("--seconds is required")?,
            traced: TRACED,
        },
        baseline,
        trace_out,
    })
}

/// Runs the named workload at the benchmark's size.
fn run_workload(name: &str, seed: u64, opts: RunOpts, spans: &mut SpanLog) -> Option<Outcome> {
    Some(match name {
        "market_sustained" => market::run(&MarketConfig::full(), seed, opts, spans),
        "rollup_signed" => rollup::run(&SignedConfig::full(), seed, opts, spans),
        "attack_windows" => attack::run(&AttackConfig::full(), seed, opts, spans),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut spans = SpanLog::default();
    let Some(mut out) = run_workload(&args.workload, args.seed, args.opts, &mut spans) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB");

    let wanted = if let Some(base) = &args.baseline {
        // Tracing cost: untraced over traced throughput on the same inputs,
        // and the traced run must reproduce the untraced outputs.
        let traced = out.value("txs_per_s").unwrap_or(0.0);
        out.metric("trace_overhead", base.txs_per_s / traced, "ratio");
        let (want, got) = (&base.fingerprint, out.fingerprint.hex());
        out.gates.check(*want == got, || {
            format!("traced outputs {got} differ from the untraced run's {want}")
        });
        if let Some(path) = &args.trace_out {
            if let Err(e) = std::fs::write(path, spans.chrome_json()) {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
            println!("trace: {} spans -> {path}", spans.len());
        }
        PER_LAYER
    } else {
        END_TO_END
    };

    for failure in &out.gates.failures {
        println!("FAILED: {failure}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:>36} {value:>14.4} {unit}");
    }
    println!("fingerprint {}", out.fingerprint.hex());
    // The result line carries exactly the wanted metric set, in its order;
    // a layer this workload bypasses reads 0.
    let mut line = Outcome {
        gates: out.gates.clone(),
        ..Outcome::default()
    };
    for &(name, unit) in wanted {
        line.metric(name, out.value(name).unwrap_or(0.0), unit);
    }
    println!("{}", line.to_json());
    ExitCode::SUCCESS
}
