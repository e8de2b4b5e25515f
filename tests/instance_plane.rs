//! Instance-plane independence corpus (tier-2).
//!
//! The multi-instance plane's core contract: every instance's behavior
//! is a pure function of `(master seed, instance index)` — co-hosted
//! instances share wire batches and engine rounds but can never perturb
//! each other's RNG or loss streams. These tests pin:
//!
//! * **stream keying** — `loss_streams::per_instance` draws are stable
//!   per key and distinct across instances;
//! * **co-hosting invariance** — appending instances to a plan leaves
//!   every existing instance's full `InstanceReport` identical, under
//!   loss, at several thread counts;
//! * **thread invariance** — a multi-instance plane produces the same
//!   reports at every thread count (the per-part keyed loss draws are
//!   order-free, so the staged engine's sharding is unobservable).

mod common;

use gossip_net::rng::loss_streams;
use rfc_core::runner::RunConfig;
use rfc_core::{run_plane, InstanceKind, InstancePlan, InstanceSpec, Priority};

/// A mixed-kind plan: consensus + rumor instances, one staggered start,
/// one Low priority — exercises every per-instance axis at once.
fn mixed_plan(extra_rumor: usize) -> InstancePlan {
    let mut plan = InstancePlan::consensus(1)
        .with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 12 }))
        .with_spec(
            InstanceSpec::new(InstanceKind::RumorVote { k: 12 })
                .priority(Priority::Low)
                .start_at(5),
        );
    for _ in 0..extra_rumor {
        plan = plan.with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 12 }));
    }
    plan
}

fn lossy_cfg(plan: InstancePlan, threads: usize) -> RunConfig {
    let mut cfg = RunConfig::builder(16)
        .gamma(3.0)
        .colors(vec![8, 8])
        .message_loss(0.25)
        .instances(plan)
        .build();
    cfg.threads = threads;
    cfg.shard_floor = Some(0); // tiny n: keep real multi-shard runs
    cfg
}

#[test]
fn per_instance_loss_streams_are_keyed_independently() {
    let seed = 0xFEED_BEEF;
    let draw = |family: u64, round: usize, instance: u64, agent: u32, peer: u32| {
        loss_streams::per_instance(seed, family, round, instance, agent, peer).chance(0.5)
    };
    // Stable: the same key always yields the same coin.
    for family in [loss_streams::QUERY, loss_streams::PUSH, loss_streams::REPLY] {
        assert_eq!(draw(family, 3, 7, 2, 9), draw(family, 3, 7, 2, 9));
    }
    // Distinct across instances: two instances sharing (family, round,
    // agent, peer) must not share one coin stream. A single pair could
    // collide by chance, so check many keys disagree somewhere.
    let coins = |instance: u64| -> Vec<bool> {
        (0..64usize)
            .map(|r| draw(loss_streams::PUSH, r, instance, (r % 16) as u32, ((r + 1) % 16) as u32))
            .collect()
    };
    assert_ne!(coins(0), coins(1), "instances 0 and 1 share a loss stream");
    assert_ne!(coins(1), coins(2), "instances 1 and 2 share a loss stream");
}

#[test]
fn appending_instances_never_perturbs_existing_reports() {
    // The independence property the `per_instance` keying exists for:
    // instance i's report — decisions, clocks, payload meters, observed
    // loss — is invariant to co-hosting more instances, under loss, at
    // several thread counts (engine sharding included).
    for threads in [1usize, 4] {
        let small = run_plane(&lossy_cfg(mixed_plan(0), threads), 21);
        let large = run_plane(&lossy_cfg(mixed_plan(8), threads), 21);
        assert_eq!(small.instances.len() + 8, large.instances.len());
        for (j, (a, b)) in small.instances.iter().zip(&large.instances).enumerate() {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "instance {j} perturbed by co-hosting (threads {threads})"
            );
        }
    }
}

#[test]
fn multi_instance_plane_is_thread_invariant() {
    let baseline = run_plane(&lossy_cfg(mixed_plan(3), 1), 9);
    let want: Vec<String> =
        baseline.instances.iter().map(|i| format!("{i:?}")).collect();
    for threads in [2usize, 8] {
        let plane = run_plane(&lossy_cfg(mixed_plan(3), threads), 9);
        let got: Vec<String> = plane.instances.iter().map(|i| format!("{i:?}")).collect();
        assert_eq!(got, want, "instance reports drifted at threads={threads}");
        assert_eq!(plane.rounds, baseline.rounds);
        assert_eq!(
            plane.aggregate, baseline.aggregate,
            "aggregate metrics drifted at threads={threads}"
        );
    }
}

// ── Pinned multi-instance plane rows ─────────────────────────────────
//
// `GOLDEN_REGEN=1 cargo test --test instance_plane pinned` reprints the
// table. These digests pin *every* `InstanceReport` field of every
// instance plus the plane's round count and aggregate engine meters, so
// any change to the multiplexer's act loop, batching, budget rotation,
// loss keying or cell bookkeeping that is visible in a report moves
// them. A change that is meant to be a pure speed-up must leave them
// untouched.

/// FNV-1a over the `Debug` rendering of every instance report (spec,
/// outcome, winner, decisions, decided_at, decided, rounds_to_decision,
/// payload meters), the plane's rounds, its aggregate engine meters and
/// the legacy view's golden digest when present.
fn plane_digest(plane: &rfc_core::PlaneReport) -> u64 {
    let mut d = common::Digest::new();
    for inst in &plane.instances {
        d.str(&format!("{inst:?}"));
    }
    d.u64(plane.rounds as u64);
    d.str(&format!("{:?}", plane.aggregate));
    match &plane.legacy {
        Some(report) => d.u64(common::report_digest(report)),
        None => d.str("no legacy view"),
    }
    d.finish()
}

/// A `budget(2)` plan of High and Low rumor instances (one Low instance
/// admitted late), so the per-class rotation, suppressed ops and dormant
/// cells all shape the reports.
fn budgeted_plan() -> InstancePlan {
    let mut plan = InstancePlan { specs: Vec::new(), send_budget: None };
    for j in 0..6 {
        let prio = if j % 2 == 0 { Priority::High } else { Priority::Low };
        let mut spec = InstanceSpec::new(InstanceKind::RumorVote { k: 12 }).priority(prio);
        if j == 5 {
            spec = spec.start_at(4);
        }
        plan = plan.with_spec(spec);
    }
    plan.budget(2)
}

/// A `budget(3)` plan of ten rumor instances whose `k` spans 2..=16, so
/// cells decide and retire at very different rounds while more of them
/// than the budget stay live: which cells get the budget then depends
/// on the rotation being taken over the full class.
fn staggered_k_plan() -> InstancePlan {
    let mut plan = InstancePlan { specs: Vec::new(), send_budget: None };
    for j in 0..10 {
        let prio = if j % 3 == 2 { Priority::Low } else { Priority::High };
        let k = 2 + j * 14 / 9;
        plan = plan.with_spec(InstanceSpec::new(InstanceKind::RumorVote { k }).priority(prio));
    }
    plan.budget(3)
}

/// The pinned rows: label → (config, seed).
fn pinned_corpus() -> Vec<(String, RunConfig, u64)> {
    let mut rows = Vec::new();
    for threads in [1usize, 2] {
        let label = format!("mixed/n16/loss-0.25/t{threads}");
        rows.push((label, lossy_cfg(mixed_plan(3), threads), 9));
    }
    rows.push((
        "budget2/n16/high-low".to_string(),
        RunConfig::builder(16).gamma(3.0).instances(budgeted_plan()).build(),
        19,
    ));
    rows.push((
        "budget2/n16/high-low+loss-0.2".to_string(),
        RunConfig::builder(16)
            .gamma(3.0)
            .message_loss(0.2)
            .instances(budgeted_plan())
            .build(),
        19,
    ));
    rows.push((
        "budget3/n16/staggered-k".to_string(),
        RunConfig::builder(16).gamma(3.0).instances(staggered_k_plan()).build(),
        23,
    ));
    for count in [1usize, 10, 100] {
        rows.push((
            format!("rumor/n16/x{count}"),
            RunConfig::builder(16)
                .gamma(3.0)
                .instances(InstancePlan::rumor(count, 12))
                .build(),
            5,
        ));
    }
    let mut plan = InstancePlan::consensus(2);
    for _ in 0..300 {
        plan = plan.with_spec(InstanceSpec::new(InstanceKind::RumorVote { k: 48 }));
    }
    rows.push((
        "mixed/n64/2-consensus+300-rumor".to_string(),
        RunConfig::builder(64)
            .gamma(3.0)
            .colors(vec![32, 32])
            .instances(plan)
            .build(),
        31,
    ));
    // More agents than one inline voter-set word pair holds.
    rows.push((
        "rumor/n130/x12".to_string(),
        RunConfig::builder(130)
            .gamma(3.0)
            .message_loss(0.1)
            .instances(InstancePlan::rumor(12, 97))
            .build(),
        13,
    ));
    rows
}

const PINNED_PLANES: &[(&str, u64)] = &[
    ("mixed/n16/loss-0.25/t1", 0x42945e66a99337a7),
    ("mixed/n16/loss-0.25/t2", 0x42945e66a99337a7),
    ("budget2/n16/high-low", 0xee29e697817ad297),
    ("budget2/n16/high-low+loss-0.2", 0x33df7aece61c99a1),
    ("budget3/n16/staggered-k", 0x752881ea79c324a3),
    ("rumor/n16/x1", 0x0a91f626d56471eb),
    ("rumor/n16/x10", 0x4d158248412bb7fa),
    ("rumor/n16/x100", 0x8c07c2486f8eead5),
    ("mixed/n64/2-consensus+300-rumor", 0x1831136d88ea680c),
    ("rumor/n130/x12", 0x7c1b910c9f47ca54),
];

#[test]
fn pinned_multi_instance_planes_are_bit_identical() {
    let regen = std::env::var("GOLDEN_REGEN").is_ok();
    let mut failures = Vec::new();
    for (label, cfg, seed) in pinned_corpus() {
        let plane = run_plane(&cfg, seed);
        let got = plane_digest(&plane);
        if regen {
            println!("    (\"{label}\", {got:#018x}),");
            continue;
        }
        match PINNED_PLANES.iter().find(|(l, _)| *l == label) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => {
                failures.push(format!("{label}: digest {got:#018x} != pinned {want:#018x}"))
            }
            None => failures.push(format!("{label}: no pinned digest ({got:#018x})")),
        }
    }
    assert!(failures.is_empty(), "pinned plane rows drifted:\n{}", failures.join("\n"));
}
