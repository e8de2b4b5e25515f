//! `single-trial`: one honest trial of `P` at a time, driven phase by
//! phase on the staged sharded engine.
//!
//! The staged engine and the per-phase agent handlers do all the work
//! here; the first trial of a pass also writes a checkpoint at the
//! Commitment→Voting boundary, drops its network and finishes from the
//! restored one.

use crate::catalog::{phase_metric, PHASES};
use crate::measure::{median, repeat_for, tail, timed};
use crate::{Pass, MIN_UNITS};
use gossip_net::{Network, StageTimes};
use rfc_core::checkpoint::{checkpoint_network, restore_network};
use rfc_core::runner::{build_network_slots, collect_report, honest_slot_factory};
use rfc_core::{run_protocol, AgentSlot, Msg, Phase, RunConfig, RunReport};
use std::time::Duration;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Agents.
    pub n: usize,
    /// Staged-engine worker threads.
    pub threads: usize,
}

impl Spec {
    /// The benchmark size: n = 65 536.
    pub fn standard(threads: usize) -> Spec {
        Spec { n: 65_536, threads }
    }

    /// γ = 3, two equal colors, complete graph, per-agent RNG streams,
    /// op-log off; stage clocks only when traced.
    pub fn config(&self, traced: bool) -> RunConfig {
        RunConfig::builder(self.n)
            .gamma(3.0)
            .colors(vec![self.n - self.n / 2, self.n / 2])
            .sharded(self.threads)
            .record_ops(false)
            .time_stages(traced)
            .build()
    }

    /// Run trials for about `budget`.
    pub fn run(&self, seed: u64, budget: Duration, traced: bool) -> Pass {
        let cfg = self.config(traced);
        let reference = run_protocol(&cfg, seed);
        let mut pass = Pass::default();
        let mut trials: Vec<Trial> = Vec::new();
        repeat_for(budget, MIN_UNITS, |i| {
            match drive_trial(&cfg, seed, i == 0, traced) {
                Ok(t) => {
                    pass.check(check_trial(&t.report, &reference));
                    trials.push(t);
                }
                Err(e) => pass.check(Err(e)),
            }
        });
        summarize(&mut pass, &cfg, &reference, &trials);
        pass
    }
}

/// Timings of one trial.
pub struct Trial {
    /// The finished trial's report.
    pub report: RunReport,
    /// `build_network_slots`.
    pub build: Duration,
    /// Per phase (in [`PHASES`] order): the `step_staged` rounds.
    pub phase: [Duration; 4],
    /// Per phase: each `step_staged` call (traced trials only).
    pub rounds: [Vec<Duration>; 4],
    /// `Network::finalize`.
    pub finalize: Duration,
    /// `checkpoint_network`, `restore_network` and the snapshot size,
    /// on the checkpointed trial.
    pub checkpoint: Option<(Duration, Duration, usize)>,
    /// The engine's stage clocks summed over the trial's networks.
    pub stages: StageTimes,
}

impl Trial {
    /// Phase rounds plus finalize: the drive time `units_per_s` divides.
    pub fn drive(&self) -> Duration {
        self.phase.iter().sum::<Duration>() + self.finalize
    }
}

/// Build and drive one trial, checkpointing it at the Commitment→Voting
/// boundary when asked.
pub fn drive_trial(
    cfg: &RunConfig,
    seed: u64,
    checkpoint: bool,
    traced: bool,
) -> Result<Trial, String> {
    let q = cfg.params().q;
    let (mut net, build) = timed(|| build_network_slots(cfg, seed, &mut honest_slot_factory));
    let mut phases = [Duration::ZERO; 4];
    let mut rounds: [Vec<Duration>; 4] = Default::default();
    let mut snapshot = None;
    let mut stages = StageTimes::default();
    for (p, phase) in Phase::COMMUNICATING.into_iter().enumerate() {
        if checkpoint && phase == Phase::Voting {
            let (bytes, write) = timed(|| checkpoint_network(&net, cfg, seed));
            let bytes = bytes.map_err(|e| format!("checkpoint_network: {e}"))?;
            add_stages(&mut stages, &net.stage_times());
            drop(net);
            let (restored, restore) = timed(|| restore_network(cfg, &bytes));
            net = restored.map_err(|e| format!("restore_network: {e}"))?.net;
            snapshot = Some((write, restore, bytes.len()));
        }
        phases[p] = run_phase(&mut net, phase, q, traced.then_some(&mut rounds[p]));
    }
    let ((), finalize) = timed(|| net.finalize());
    add_stages(&mut stages, &net.stage_times());
    Ok(Trial {
        report: collect_report(&net, cfg),
        build,
        phase: phases,
        rounds,
        finalize,
        checkpoint: snapshot,
        stages,
    })
}

fn run_phase(
    net: &mut Network<Msg, AgentSlot>,
    phase: Phase,
    q: usize,
    mut rounds: Option<&mut Vec<Duration>>,
) -> Duration {
    timed(|| {
        net.enter_phase(phase.name());
        for _ in 0..q {
            match rounds.as_deref_mut() {
                Some(samples) => samples.push(timed(|| net.step_staged()).1),
                None => net.step_staged(),
            }
        }
    })
    .1
}

fn add_stages(total: &mut StageTimes, s: &StageTimes) {
    total.plan_us += s.plan_us;
    total.exchange_us += s.exchange_us;
    total.apply_us += s.apply_us;
    total.meter_us += s.meter_us;
    total.build_us += s.build_us;
    total.log_us += s.log_us;
    total.resolve_us += s.resolve_us;
}

/// A trial is correct when it reaches Consensus and reproduces
/// `run_protocol` for the same seed: outcome, meters and decisions.
pub fn check_trial(report: &RunReport, reference: &RunReport) -> Result<(), String> {
    if !report.outcome.is_consensus() {
        return Err(format!(
            "trial ended in {:?}, not Consensus",
            report.outcome
        ));
    }
    if report.outcome != reference.outcome {
        return Err(format!(
            "outcome {:?} differs from run_protocol's {:?}",
            report.outcome, reference.outcome
        ));
    }
    if report.metrics != reference.metrics {
        return Err("metrics differ from run_protocol's".into());
    }
    if report.decisions != reference.decisions {
        return Err("decisions differ from run_protocol's".into());
    }
    Ok(())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn summarize(pass: &mut Pass, cfg: &RunConfig, reference: &RunReport, trials: &[Trial]) {
    let n = cfg.n as f64;
    let rounds = (4 * cfg.params().q) as f64;
    let each = |f: &dyn Fn(&Trial) -> f64| median(&trials.iter().map(f).collect::<Vec<_>>());
    pass.unit_rates = trials.iter().map(|t| rounds / secs(t.drive())).collect();
    let rate = median(&pass.unit_rates);
    pass.set("units_per_s", rate);
    pass.set("setup_s", each(&|t| secs(t.build)));
    pass.set("net.bits_per_agent", reference.metrics.bits_sent as f64 / n);
    pass.named.push(("rounds_per_s", rate, "1/s"));

    pass.set("runner.build_s", each(&|t| secs(t.build)));
    pass.set("engine.finalize_s", each(&|t| secs(t.finalize)));
    for (p, name) in PHASES.iter().enumerate() {
        let samples: Vec<f64> = trials
            .iter()
            .flat_map(|t| &t.rounds[p])
            .map(|d| d.as_secs_f64() * 1e3)
            .collect();
        pass.set(
            phase_metric("staged.phase_s.", name),
            each(&|t| secs(t.phase[p])),
        );
        pass.set(phase_metric("staged.round_ms.p50.", name), median(&samples));
        pass.set(phase_metric("staged.round_ms.tail.", name), tail(&samples));
    }
    let stage = |f: fn(&StageTimes) -> u64| each(&|t| f(&t.stages) as f64 / 1e6);
    pass.set("staged.plan_s", stage(|s| s.plan_us));
    pass.set("staged.exchange_s", stage(|s| s.exchange_us));
    pass.set("staged.build_s", stage(|s| s.build_us));
    pass.set("staged.meter_s", stage(|s| s.meter_us));
    pass.set("staged.log_s", stage(|s| s.log_us));
    pass.set("staged.resolve_s", stage(|s| s.resolve_us));
    pass.set("staged.apply_s", stage(|s| s.apply_us));
    crate::NetCounts::of(&reference.metrics).set(pass);

    if let Some((write, restore, bytes)) = trials.iter().find_map(|t| t.checkpoint) {
        pass.set("checkpoint.write_s", secs(write));
        pass.set("checkpoint.restore_s", secs(restore));
        pass.set("checkpoint.bytes_per_agent", bytes as f64 / n);
        pass.named
            .push(("checkpoint_s", secs(write + restore), "s"));
    }
}
