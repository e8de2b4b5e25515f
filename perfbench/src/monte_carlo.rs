//! `monte-carlo`: independent honest trials at n = 1 024 through the
//! streaming fold harness, one `TrialArena` per worker.
//!
//! Parallelism is across trials; each trial is below the shard floor and
//! runs the monolithic engine, so the staged engine does no work here.

use crate::measure::{median, repeat_for, tail, timed};
use crate::{sub_seed, NetCounts, Pass, SUB_SEEDS};
use experiments::parallel::{run_trials_fold_with_scratch, FoldStats};
use rfc_core::{RunConfig, TrialArena};
use rfc_stats::chi_square_gof;
use std::time::{Duration, Instant};

/// Significance level of the fairness test: a round of sweeps fails when
/// its winning colors reject the initial color shares at this level.
pub const ALPHA: f64 = 1e-4;

/// Harness bring-ups timed for `setup_s`. One takes a few milliseconds and
/// spawns threads, so a handful of them leaves the median to the scheduler.
pub const SETUPS: usize = 32;

/// Workload size.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Agents per trial.
    pub n: usize,
    /// Trials per sweep (one timed unit).
    pub trials: usize,
    /// Fold workers.
    pub threads: usize,
}

impl Spec {
    /// The benchmark size: sweeps of 125 trials at n = 1 024, so one
    /// round of [`SUB_SEEDS`] sweeps is 500 distinct trials.
    ///
    /// Honest trials occasionally end in `Fail`, at a rate that does not
    /// fall with γ and matches the chance, about `1/n²`, that two agents
    /// tie on the minimum vote in the `n³` vote space. At n = 256 about
    /// one run in 30 to 45 (2 000 trials) failed its check; at n = 1 024
    /// and 500 trials a run fails with probability about 5·10⁻⁴.
    pub fn standard(threads: usize) -> Spec {
        Spec {
            n: 1_024,
            trials: 125,
            threads,
        }
    }

    /// Initial color counts: 50 / 30 / 20 % of the agents.
    pub fn colors(&self) -> Vec<usize> {
        let a = self.n / 2;
        let b = (self.n * 3).div_ceil(10);
        vec![a, b, self.n - a - b]
    }

    /// γ = 3, the three colors, complete graph, one thread per trial.
    pub fn config(&self) -> RunConfig {
        RunConfig::builder(self.n)
            .gamma(3.0)
            .colors(self.colors())
            .build()
    }

    /// One sweep of `trials` trials on master seed `seed`.
    pub fn sweep(&self, cfg: &RunConfig, trials: usize, seed: u64, traced: bool) -> Sweep {
        let (mut acc, stats) = run_trials_fold_with_scratch(
            trials,
            self.threads,
            seed,
            || (TrialArena::new(), true),
            || Sweep::new(self.colors().len()),
            |acc: &mut Sweep, (arena, first): &mut (TrialArena, bool), _i, s| {
                let start = traced.then(Instant::now);
                let r = arena.run_protocol(cfg, s);
                if let Some(t) = start {
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    if std::mem::take(first) {
                        acc.first_trial_ms.push(ms);
                    } else {
                        acc.trial_ms.push(ms);
                    }
                }
                acc.counts.trials += 1;
                if let Some(c) = r.outcome.winning_color() {
                    acc.counts.wins[c as usize] += 1;
                }
                acc.counts.net.merge(&NetCounts::of(&r.metrics));
            },
            Sweep::merge,
        );
        acc.stats = stats;
        acc
    }

    /// Run sweeps for about `budget`, cycling through [`SUB_SEEDS`]
    /// sub-seeds (always at least one round of them).
    pub fn run(&self, seed: u64, budget: Duration, traced: bool) -> Pass {
        let cfg = self.config();
        let mut pass = Pass::default();
        // Set-up: bring the harness up — spawn the workers, build each
        // one's arena and run its first trial.
        let setups: Vec<f64> = (0..SETUPS)
            .map(|_| {
                timed(|| self.sweep(&cfg, self.threads, seed, false))
                    .1
                    .as_secs_f64()
            })
            .collect();
        let mut sweeps: Vec<(Sweep, Duration)> = Vec::new();
        repeat_for(budget, SUB_SEEDS, |i| {
            let (s, wall) = timed(|| self.sweep(&cfg, self.trials, sub_seed(seed, i), traced));
            let first = sweeps.get(i % SUB_SEEDS).map(|(f, _)| &f.counts);
            pass.check(check_sweep(&s.counts, first));
            sweeps.push((s, wall));
        });
        let mut round = SweepCounts {
            wins: vec![0; self.colors().len()],
            ..SweepCounts::default()
        };
        for (s, _) in &sweeps[..SUB_SEEDS] {
            round.merge(&s.counts);
        }
        pass.check(check_fairness(&round, &self.colors()));

        pass.unit_rates = sweeps
            .iter()
            .map(|(_, w)| self.trials as f64 / w.as_secs_f64())
            .collect();
        let rate = median(&pass.unit_rates);
        pass.set("units_per_s", rate);
        pass.set("setup_s", median(&setups));
        pass.named.push(("trials_per_s", rate, "1/s"));
        round.net.set(&mut pass);
        pass.set(
            "net.bits_per_agent",
            round.net.bits_sent as f64 / (round.trials as f64 * self.n as f64),
        );

        let trial_ms: Vec<f64> = sweeps
            .iter()
            .flat_map(|(s, _)| s.trial_ms.iter().copied())
            .collect();
        let first_ms: Vec<f64> = sweeps
            .iter()
            .flat_map(|(s, _)| s.first_trial_ms.iter().copied())
            .collect();
        pass.set("arena.trial_ms.p50", median(&trial_ms));
        pass.set("arena.trial_ms.tail", tail(&trial_ms));
        pass.set("arena.first_trial_ms", median(&first_ms));
        let idle = |(s, wall): &(Sweep, Duration)| {
            let busy: f64 = s.trial_ms.iter().chain(&s.first_trial_ms).sum::<f64>() / 1e3;
            1.0 - busy / (self.threads as f64 * wall.as_secs_f64())
        };
        pass.set(
            "fold.idle_share",
            median(&sweeps.iter().map(idle).collect::<Vec<_>>()),
        );
        pass.set("fold.blocks", sweeps[0].0.stats.blocks as f64);
        pass.set(
            "fold.peak_pending",
            sweeps
                .iter()
                .map(|(s, _)| s.stats.peak_pending)
                .max()
                .unwrap_or(0) as f64,
        );
        pass
    }
}

/// The exact result of a sweep: what must repeat bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepCounts {
    /// Trials folded.
    pub trials: u64,
    /// Consensus wins per color (a trial without consensus adds none).
    pub wins: Vec<u64>,
    /// Meters summed over the trials.
    pub net: NetCounts,
}

/// A sweep's accumulator: exact counts plus (traced) trial clocks.
#[derive(Debug, Clone, Default)]
pub struct Sweep {
    /// The exact part.
    pub counts: SweepCounts,
    /// `TrialArena::run_protocol` durations after each arena's first.
    pub trial_ms: Vec<f64>,
    /// Each arena's first `run_protocol` (it builds the network).
    pub first_trial_ms: Vec<f64>,
    /// The harness's own instrumentation.
    pub stats: FoldStats,
}

impl SweepCounts {
    fn merge(&mut self, o: &SweepCounts) {
        self.trials += o.trials;
        for (w, x) in self.wins.iter_mut().zip(&o.wins) {
            *w += x;
        }
        self.net.merge(&o.net);
    }
}

impl Sweep {
    fn new(colors: usize) -> Sweep {
        Sweep {
            counts: SweepCounts {
                wins: vec![0; colors],
                ..SweepCounts::default()
            },
            ..Sweep::default()
        }
    }

    fn merge(&mut self, o: Sweep) {
        self.counts.merge(&o.counts);
        self.trial_ms.extend(o.trial_ms);
        self.first_trial_ms.extend(o.first_trial_ms);
    }
}

/// A sweep is correct when every trial reached Consensus and it repeats
/// the pass's first sweep on the same sub-seed exactly.
pub fn check_sweep(s: &SweepCounts, first: Option<&SweepCounts>) -> Result<(), String> {
    let consensus: u64 = s.wins.iter().sum();
    if consensus != s.trials {
        return Err(format!(
            "{} of {} trials missed Consensus",
            s.trials - consensus,
            s.trials
        ));
    }
    match first {
        Some(f) if f != s => {
            Err("sweep differs from the pass's first sweep on the same sub-seed".into())
        }
        _ => Ok(()),
    }
}

/// The winning colors of a round of sweeps pass the χ² fairness test
/// against the initial color shares at [`ALPHA`].
pub fn check_fairness(s: &SweepCounts, colors: &[usize]) -> Result<(), String> {
    let consensus: u64 = s.wins.iter().sum();
    let total: usize = colors.iter().sum();
    let expected: Vec<f64> = colors
        .iter()
        .map(|&c| consensus as f64 * c as f64 / total as f64)
        .collect();
    let chi = chi_square_gof(&s.wins, &expected);
    if chi.consistent_at(ALPHA) {
        Ok(())
    } else {
        Err(format!(
            "winning colors {:?} reject fairness (p = {:.2e})",
            s.wins, chi.p_value
        ))
    }
}
