//! The repository benchmark: four workloads, each timed end to end from
//! one process, with per-layer numbers from a separate traced pass.
//!
//! Every layer is measured from *outside*: the benchmark times its own
//! calls into each module's public functions and reads the program's
//! exact meters ([`gossip_net::Metrics`], `PlaneReport`, `SessionReport`).
//! Nothing inside the program is instrumented for it.
//!
//! A workload repeats one unit of work — a protocol trial, a Monte-Carlo
//! sweep, an instance plane, a node session — on the same inputs until
//! its time budget is spent (a fixed round of [`SUB_SEEDS`] sub-seeds
//! where one seed is too lumpy). Every repetition must reproduce the
//! first run of its inputs exactly, so the exact counts are a pure
//! function of the seed and the throughput is the median over units.

pub mod catalog;
pub mod instance_plane;
pub mod measure;
pub mod monte_carlo;
pub mod node_session;
pub mod report;
pub mod single_trial;

use std::collections::BTreeMap;
use std::time::Duration;

/// Units every workload runs, however small its time budget: enough for
/// a median that one outlier cannot set.
pub const MIN_UNITS: usize = 3;

/// Inputs per round for the workloads whose single-seed exact counts
/// swing with the seed (`monte-carlo`, `node-session`): unit `i` runs on
/// sub-seed `i % SUB_SEEDS` of the run's seed, and the exact counts are
/// summed over the first round.
pub const SUB_SEEDS: usize = 4;

/// Sub-seed of `seed` for unit `i` (see [`SUB_SEEDS`]).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    gossip_net::rng::derive_seed(seed, (i % SUB_SEEDS) as u64)
}

/// What one pass of a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Units of work attempted (trials, sweeps, planes, sessions).
    pub attempted: u64,
    /// One line per unit that failed a correctness check.
    pub failures: Vec<String>,
    /// Catalog metrics by name (see [`catalog`]); `peak_rss_mib` is
    /// added by the caller, which owns the process-wide memory clock.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific end-to-end figures under the names users know
    /// them by (`rounds_per_s`, `checkpoint_s`, …), printed for humans.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Each unit's throughput, in run order (`units_per_s` is their median).
    pub unit_rates: Vec<f64>,
}

impl Pass {
    /// Record a unit's correctness verdict.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failures.push(why);
        }
    }

    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The exact meters the `net.*` metrics report, summed over trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounts {
    /// Messages per communicating phase, in [`catalog::PHASES`] order.
    pub messages: [u64; 4],
    /// Bits per communicating phase.
    pub bits: [u64; 4],
    /// All bits sent.
    pub bits_sent: u64,
    /// Messages lost to faults or loss.
    pub undelivered: u64,
    /// Largest number of links active in one round.
    pub max_active_links: u64,
    /// Largest single message, bits.
    pub max_msg_bits: u64,
}

impl NetCounts {
    /// The counts of one run's meters.
    pub fn of(m: &gossip_net::Metrics) -> NetCounts {
        let mut c = NetCounts {
            bits_sent: m.bits_sent,
            undelivered: m.undelivered,
            max_active_links: m.max_active_links,
            max_msg_bits: m.max_message_bits,
            ..NetCounts::default()
        };
        for (p, name) in catalog::PHASES.iter().enumerate() {
            if let Some(t) = m.phase(name) {
                c.messages[p] = t.messages;
                c.bits[p] = t.bits;
            }
        }
        c
    }

    /// Fold another run's counts in (sums, and maxima for the maxima).
    pub fn merge(&mut self, o: &NetCounts) {
        for p in 0..4 {
            self.messages[p] += o.messages[p];
            self.bits[p] += o.bits[p];
        }
        self.bits_sent += o.bits_sent;
        self.undelivered += o.undelivered;
        self.max_active_links = self.max_active_links.max(o.max_active_links);
        self.max_msg_bits = self.max_msg_bits.max(o.max_msg_bits);
    }

    pub(crate) fn set(&self, pass: &mut Pass) {
        for (p, name) in catalog::PHASES.iter().enumerate() {
            pass.set(
                catalog::phase_metric("net.messages.", name),
                self.messages[p] as f64,
            );
            pass.set(
                catalog::phase_metric("net.bits.", name),
                self.bits[p] as f64,
            );
        }
        pass.set("net.undelivered", self.undelivered as f64);
        pass.set("net.max_active_links", self.max_active_links as f64);
        pass.set("net.max_msg_bits", self.max_msg_bits as f64);
    }
}

/// A runnable workload at a chosen size.
#[derive(Debug, Clone)]
pub enum Workload {
    /// One honest trial of `P` at a time on the staged sharded engine.
    SingleTrial(single_trial::Spec),
    /// Independent small trials through the parallel fold harness.
    MonteCarlo(monte_carlo::Spec),
    /// Many co-hosted instances on few agents.
    InstancePlane(instance_plane::Spec),
    /// Both endpoints of a node session over one socketpair.
    NodeSession(node_session::Spec),
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "single-trial",
    "monte-carlo",
    "instance-plane",
    "node-session",
];

impl Workload {
    /// The benchmark-size workload called `name`, using `threads` worker
    /// threads where the workload is parallel.
    pub fn standard(name: &str, threads: usize) -> Option<Workload> {
        Some(match name {
            "single-trial" => Workload::SingleTrial(single_trial::Spec::standard(threads)),
            "monte-carlo" => Workload::MonteCarlo(monte_carlo::Spec::standard(threads)),
            "instance-plane" => Workload::InstancePlane(instance_plane::Spec::standard()),
            "node-session" => Workload::NodeSession(node_session::Spec::standard()),
            _ => return None,
        })
    }

    /// Run one pass for about `budget` (at least [`MIN_UNITS`] units).
    pub fn run(&self, seed: u64, budget: Duration, traced: bool) -> Pass {
        match self {
            Workload::SingleTrial(s) => s.run(seed, budget, traced),
            Workload::MonteCarlo(s) => s.run(seed, budget, traced),
            Workload::InstancePlane(s) => s.run(seed, budget, traced),
            Workload::NodeSession(s) => s.run(seed, budget, traced),
        }
    }
}

/// Worker threads for the parallel workloads: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}
