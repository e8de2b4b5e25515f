//! `instance-plane`: few agents, many co-hosted instances — k-of-n
//! rumor instances plus a handful of consensus instances, unbudgeted.
//!
//! The multiplexer does the work here (`MuxAgent`, batching, per-instance
//! meters, tag overhead); the engine stays small.

use crate::measure::{median, repeat_for, timed, Fnv};
use crate::{NetCounts, Pass, MIN_UNITS};
use rfc_core::instances::{run_plane, InstanceKind, InstancePlan, InstanceSpec, PlaneReport};
use rfc_core::{Outcome, RunConfig};
use std::time::Duration;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Agents.
    pub n: usize,
    /// k-of-n rumor instances (k = n/2 + 1).
    pub rumors: usize,
    /// Consensus instances.
    pub consensus: usize,
}

impl Spec {
    /// The benchmark size: n = 64, 10 000 rumor + 16 consensus instances.
    pub fn standard() -> Spec {
        Spec {
            n: 64,
            rumors: 10_000,
            consensus: 16,
        }
    }

    /// The run's config, instance plan included.
    pub fn config(&self) -> RunConfig {
        let mut plan = InstancePlan::rumor(self.rumors, self.n / 2 + 1);
        for _ in 0..self.consensus {
            plan = plan.with_spec(InstanceSpec::new(InstanceKind::Consensus));
        }
        RunConfig::builder(self.n)
            .gamma(3.0)
            .colors(vec![self.n - self.n / 2, self.n / 2])
            .instances(plan)
            .build()
    }

    /// Run planes for about `budget`. The plane's layer metrics are exact
    /// counts from `PlaneReport`, so a traced pass measures nothing more.
    pub fn run(&self, seed: u64, budget: Duration, _traced: bool) -> Pass {
        let mut pass = Pass::default();
        let setups: Vec<f64> = (0..64)
            .map(|_| timed(|| self.config()).1.as_secs_f64())
            .collect();
        let cfg = self.config();
        let instances = (self.rumors + self.consensus) as f64;
        let mut first: Option<PlaneSummary> = None;
        let mut walls = Vec::new();
        repeat_for(budget, MIN_UNITS, |_| {
            let (plane, wall) = timed(|| run_plane(&cfg, seed));
            let s = PlaneSummary::of(&plane);
            pass.check(check_plane(&s, first.as_ref()));
            first.get_or_insert(s);
            walls.push(wall.as_secs_f64());
        });
        let s = first.expect("at least one plane ran");
        pass.unit_rates = walls.iter().map(|w| instances / w).collect();
        let rate = median(&pass.unit_rates);
        pass.set("units_per_s", rate);
        pass.set("setup_s", median(&setups));
        pass.set("net.bits_per_agent", s.net.bits_sent as f64 / self.n as f64);
        pass.named.push(("instances_per_s", rate, "1/s"));
        s.net.set(&mut pass);
        pass.set("plane.rounds", s.rounds as f64);
        pass.set("plane.rtd_mean", s.rtd_sum as f64 / s.decided as f64);
        pass.set(
            "plane.wire_mib",
            s.net.bits_sent as f64 / 8.0 / f64::from(1 << 20),
        );
        pass.set(
            "plane.tag_overhead_share",
            (s.net.bits_sent - s.payload_bits) as f64 / s.net.bits_sent as f64,
        );
        pass
    }
}

/// The exact result of a plane run: what must repeat bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlaneSummary {
    /// Engine rounds.
    pub rounds: usize,
    /// Instances in the plan.
    pub instances: usize,
    /// Instances that decided.
    pub decided: usize,
    /// Σ rounds-to-decision over decided instances.
    pub rtd_sum: u64,
    /// Consensus instances that did not reach Consensus.
    pub consensus_failures: usize,
    /// Σ payload bits over instances.
    pub payload_bits: u64,
    /// The aggregate (wire) meters.
    pub net: NetCounts,
    /// Fingerprint of every instance's decision and payload meters.
    pub digest: u64,
}

impl PlaneSummary {
    /// Summarize a plane report.
    pub fn of(p: &PlaneReport) -> PlaneSummary {
        let mut h = Fnv::default();
        let mut s = PlaneSummary {
            rounds: p.rounds,
            instances: p.instances.len(),
            decided: 0,
            rtd_sum: 0,
            consensus_failures: 0,
            payload_bits: 0,
            net: NetCounts::of(&p.aggregate),
            digest: 0,
        };
        for inst in &p.instances {
            if let Some(r) = inst.rounds_to_decision {
                s.decided += 1;
                s.rtd_sum += r as u64;
            }
            if inst.spec.kind == InstanceKind::Consensus
                && !matches!(inst.outcome, Some(Outcome::Consensus(_)))
            {
                s.consensus_failures += 1;
            }
            s.payload_bits += inst.metrics.bits_sent;
            h.write(inst.decided as u64);
            h.write(inst.rounds_to_decision.map_or(u64::MAX, |r| r as u64));
            h.write(
                inst.outcome
                    .and_then(|o| o.winning_color())
                    .map_or(u64::MAX, u64::from),
            );
            h.write(inst.metrics.messages_sent);
            h.write(inst.metrics.bits_sent);
        }
        s.digest = h.0;
        s
    }
}

/// A plane is correct when every instance decided, every consensus
/// instance reached Consensus, and it repeats the pass's first plane.
pub fn check_plane(s: &PlaneSummary, first: Option<&PlaneSummary>) -> Result<(), String> {
    if s.decided != s.instances {
        return Err(format!(
            "{} of {} instances never decided",
            s.instances - s.decided,
            s.instances
        ));
    }
    if s.consensus_failures > 0 {
        return Err(format!(
            "{} consensus instances missed Consensus",
            s.consensus_failures
        ));
    }
    match first {
        Some(f) if f != s => {
            Err("plane differs from the pass's first plane on the same seed".into())
        }
        _ => Ok(()),
    }
}
