//! The benchmark's own tests, at tiny sizes: every metric is printed with
//! its unit, the exact counts repeat bit for bit, and every correctness
//! check fires on a tampered result.

use perfbench::catalog::{END_TO_END, PER_LAYER};
use perfbench::report::{result_json, select};
use perfbench::{instance_plane, monte_carlo, node_session, single_trial, Pass, Workload};
use rfc_core::Outcome;
use std::collections::BTreeSet;
use std::time::Duration;

const SEED: u64 = 11;

fn tiny(name: &str, threads: usize) -> Workload {
    match name {
        "single-trial" => Workload::SingleTrial(single_trial::Spec { n: 1024, threads }),
        "monte-carlo" => Workload::MonteCarlo(monte_carlo::Spec {
            n: 64,
            trials: 30,
            threads,
        }),
        "instance-plane" => Workload::InstancePlane(instance_plane::Spec {
            n: 16,
            rumors: 40,
            consensus: 2,
        }),
        "node-session" => Workload::NodeSession(node_session::Spec { n: 16, slack: 3 }),
        _ => unreachable!("unknown workload {name}"),
    }
}

/// One pass at the minimum number of units.
fn pass(name: &str, threads: usize, traced: bool) -> Pass {
    let p = tiny(name, threads).run(SEED, Duration::ZERO, traced);
    assert!(p.failures.is_empty(), "{name}: {:?}", p.failures);
    assert!(p.attempted >= perfbench::MIN_UNITS as u64);
    p
}

/// The metrics that are exact counts: they must repeat bit for bit.
fn exact(p: &Pass) -> Vec<(&'static str, u64)> {
    p.metrics
        .iter()
        .filter(|(name, _)| {
            [
                "net.",
                "plane.",
                "node.reads_per_tick",
                "node.writes_per_tick",
                "node.wire_bytes_per_tick",
                "wire.packets",
            ]
            .iter()
            .any(|prefix| name.starts_with(prefix))
        })
        .map(|(name, v)| (*name, v.to_bits()))
        .collect()
}

#[test]
fn every_end_to_end_metric_is_measured_and_printed_with_its_unit() {
    for name in perfbench::WORKLOADS {
        let mut p = pass(name, 2, false);
        p.metrics.insert("peak_rss_mib", 1.0);
        for d in END_TO_END {
            let v = p
                .metrics
                .get(d.name)
                .unwrap_or_else(|| panic!("{name} never measured {}", d.name));
            assert!(v.is_finite() && *v > 0.0, "{name}: {} = {v}", d.name);
        }
        let json = result_json(true, p.attempted, 0, &select(&p.metrics, END_TO_END));
        for d in END_TO_END {
            let field = format!("\"{}\": {{\"value\": ", d.name);
            assert!(json.contains(&field), "{name}: {json}");
            assert!(
                json.contains(&format!("\"unit\": \"{}\"", d.unit)),
                "{name}: {json}"
            );
        }
    }
}

#[test]
fn every_per_layer_metric_is_measured_by_some_workload() {
    let mut measured = BTreeSet::new();
    for name in perfbench::WORKLOADS {
        let p = pass(name, 2, true);
        let lines = select(&p.metrics, PER_LAYER);
        let json = result_json(true, p.attempted, 0, &lines);
        for (metric, _, unit) in &lines {
            assert!(
                json.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{name}: {metric} missing"
            );
            assert_eq!(
                Some(*unit),
                perfbench::catalog::find(metric).map(|d| d.unit)
            );
        }
        measured.extend(p.metrics.keys().copied());
    }
    for d in PER_LAYER
        .iter()
        .filter(|d| !d.name.starts_with("overhead."))
    {
        assert!(measured.contains(d.name), "no workload measures {}", d.name);
    }
}

#[test]
fn exact_counts_repeat_across_runs_and_thread_counts() {
    for name in perfbench::WORKLOADS {
        let a = exact(&pass(name, 1, true));
        let b = exact(&pass(name, 2, true));
        let c = exact(&pass(name, 2, false));
        assert!(!a.is_empty(), "{name} has exact counts");
        assert_eq!(a, b, "{name}: exact counts differ between 1 and 2 threads");
        for (metric, bits) in &c {
            let traced = a.iter().find(|(m, _)| m == metric).map(|(_, v)| *v);
            assert_eq!(
                traced,
                Some(*bits),
                "{name}: {metric} differs between traced and untraced"
            );
        }
    }
}

#[test]
fn trial_check_fires_on_tampered_reports() {
    let spec = single_trial::Spec { n: 256, threads: 2 };
    let cfg = spec.config(false);
    let reference = rfc_core::run_protocol(&cfg, SEED);
    let resumed = single_trial::drive_trial(&cfg, SEED, true, false).expect("checkpointed trial");
    assert!(resumed.checkpoint.is_some());
    assert_eq!(
        single_trial::check_trial(&resumed.report, &reference),
        Ok(())
    );

    let mut r = resumed.report.clone();
    r.outcome = Outcome::Fail;
    assert!(single_trial::check_trial(&r, &reference).is_err());
    let mut r = resumed.report.clone();
    r.metrics.bits_sent += 1;
    assert!(single_trial::check_trial(&r, &reference).is_err());
    let mut r = resumed.report.clone();
    r.decisions[0] = rfc_core::Decision::Failed;
    assert!(single_trial::check_trial(&r, &reference).is_err());
}

#[test]
fn sweep_checks_fire_on_tampered_counts() {
    let spec = monte_carlo::Spec {
        n: 64,
        trials: 60,
        threads: 2,
    };
    let good = spec.sweep(&spec.config(), spec.trials, SEED, false).counts;
    let colors = spec.colors();
    assert_eq!(monte_carlo::check_sweep(&good, Some(&good)), Ok(()));
    assert_eq!(monte_carlo::check_fairness(&good, &colors), Ok(()));

    let mut missed = good.clone();
    missed.trials += 1;
    assert!(monte_carlo::check_sweep(&missed, None).is_err());
    let mut drifted = good.clone();
    drifted.net.bits_sent += 1;
    assert!(monte_carlo::check_sweep(&drifted, Some(&good)).is_err());
    let mut unfair = good.clone();
    unfair.wins = vec![0, 0, good.trials];
    assert!(monte_carlo::check_fairness(&unfair, &colors).is_err());
}

#[test]
fn plane_check_fires_on_tampered_summaries() {
    let spec = instance_plane::Spec {
        n: 16,
        rumors: 40,
        consensus: 2,
    };
    let good =
        instance_plane::PlaneSummary::of(&rfc_core::instances::run_plane(&spec.config(), SEED));
    assert_eq!(instance_plane::check_plane(&good, Some(&good)), Ok(()));

    let mut undecided = good.clone();
    undecided.decided -= 1;
    assert!(instance_plane::check_plane(&undecided, None).is_err());
    let mut failed = good.clone();
    failed.consensus_failures = 1;
    assert!(instance_plane::check_plane(&failed, None).is_err());
    let mut drifted = good.clone();
    drifted.digest ^= 1;
    assert!(instance_plane::check_plane(&drifted, Some(&good)).is_err());
}

#[test]
fn session_check_fires_on_tampered_reports() {
    let np = rfc_node::NodeParams {
        n: 16,
        gamma: 3.0,
        seed: SEED,
        slack: 3,
    };
    let s = node_session::session(&np, true).expect("session");
    assert_eq!(
        node_session::check_session(&s.low, &s.high, Some(&s.low)),
        Ok(())
    );

    let mut high = s.high.clone();
    high.digest ^= 1;
    assert!(node_session::check_session(&s.low, &high, None).is_err());
    let (mut low, mut high) = (s.low.clone(), s.high.clone());
    low.outcome = Outcome::Fail;
    high.outcome = Outcome::Fail;
    assert!(node_session::check_session(&low, &high, None).is_err());
    let mut first = s.low.clone();
    first.bytes_sent += 1;
    assert!(node_session::check_session(&s.low, &s.high, Some(&first)).is_err());

    let stream = &s.captured[0];
    assert!(
        node_session::replay(stream)
            .expect("captured stream replays")
            .packets
            > 0
    );
    assert!(
        node_session::replay(&stream[..stream.len() - 1]).is_err(),
        "truncated stream"
    );
    let mut flipped = stream.clone();
    flipped[0] ^= 0xff;
    assert!(
        node_session::replay(&flipped).is_err(),
        "corrupt packet type"
    );
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
            d.name, d.unit
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in perfbench::WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{w}\"")),
            "BENCHMARK.json lacks workload {w}"
        );
    }
    let metrics = json.matches("\"better\":").count();
    assert_eq!(
        metrics,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists other metrics"
    );
}
