//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one human-readable line per figure, then, as the last line, a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: every
//! end-to-end metric with `--trace 0`, every per-layer metric (plus the
//! tracing overhead) with `--trace 1`. Exits 1 when a correctness check
//! failed, 2 on bad arguments.

use perfbench::catalog::{find, END_TO_END, PER_LAYER};
use perfbench::measure::{peak_rss_mib, reset_peak_rss};
use perfbench::report::{result_json, select};
use perfbench::{nproc, Pass, Workload, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("expected a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("expected a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Run one pass and attach the process's peak RSS.
fn measured(w: &Workload, seed: u64, budget: Duration, traced: bool) -> Pass {
    let mut pass = w.run(seed, budget, traced);
    pass.metrics.insert("peak_rss_mib", peak_rss_mib());
    pass
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = nproc();
    let Some(workload) = Workload::standard(&args.workload, threads) else {
        eprintln!(
            "perfbench: unknown workload {:?} (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    println!(
        "# workload {} seed {} threads {}",
        args.workload, args.seed, threads
    );

    let budget = Duration::from_secs_f64(args.seconds);
    let (passes, metrics) = if args.trace {
        // Same work twice, half the time each: untraced, then traced. The
        // peak-RSS clock restarts between them (at the RSS the first pass
        // left behind).
        let plain = measured(&workload, args.seed, budget / 2, false);
        let reset = reset_peak_rss();
        let traced = measured(&workload, args.seed, budget / 2, true);
        let mut out = select(&traced.metrics, PER_LAYER);
        for d in END_TO_END {
            let get = |p: &Pass| p.metrics.get(d.name).copied().unwrap_or(f64::NAN);
            let (t, p) = (get(&traced), get(&plain));
            let share = if d.name == "peak_rss_mib" && !reset {
                0.0
            } else {
                (t - p) / p
            };
            let name = find(&format!("overhead.{}", d.name))
                .expect("every end-to-end metric has an overhead metric");
            out.push((name.name, share, name.unit));
        }
        (vec![plain, traced], out)
    } else {
        let pass = measured(&workload, args.seed, budget, false);
        let out = select(&pass.metrics, END_TO_END);
        (vec![pass], out)
    };

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failures: Vec<&String> = passes.iter().flat_map(|p| &p.failures).collect();
    for p in &passes {
        let rates: Vec<String> = p.unit_rates.iter().map(|r| format!("{r:.4}")).collect();
        println!(
            "# units_per_s over {} units: {}",
            rates.len(),
            rates.join(" ")
        );
        for (name, value, unit) in &p.named {
            println!("# {name} {value} {unit}");
        }
    }
    println!(
        "# failure_share {} share",
        failures.len() as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("{name} {value} {unit}");
    }
    for f in &failures {
        println!("# FAILED: {f}");
    }
    let correct = failures.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "{}",
        result_json(correct, attempted, failures.len(), &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
