//! The staged engine's unmasked-round shortcut is exact.
//!
//! When no delivery mask can apply in a round — no loss, the complete
//! graph, no partition, no agent down — the per-agent exchange skips
//! per-entry mask resolution and sets the delivery verdicts straight
//! from the op kinds. This suite runs one seed through five configs:
//! one unmasked, and one per mask kind with exactly that mask (a crashed
//! agent, a sparse topology, message loss, a partition). Each runs at
//! one shard and at several, with the shard floor off, and must give
//! identical `Metrics`, op logs and agent state. The loss-free configs
//! must also match the monolithic engine, which never takes the
//! shortcut. Each masked config must drop pushes: a mask that the
//! shortcut skipped would deliver every one.

use gossip_net::dynamics::{PartitionCut, ScenarioScript};
use gossip_net::fault::{FaultPlan, Placement};
use gossip_net::metrics::Metrics;
use gossip_net::network::{Network, NetworkConfig};
use gossip_net::oplog::{OpEvent, OpKind};
use gossip_net::rng::{DetRng, RngDiscipline};
use gossip_net::size::{MsgSize, SizeEnv};
use gossip_net::topology::Topology;
use gossip_net::{Agent, AgentId, Op, RoundCtx};

const N: usize = 64;
const ROUNDS: usize = 10;
const SEED: u64 = 2017;

#[derive(Clone, Debug, PartialEq)]
struct Num(u64);
impl MsgSize for Num {
    fn size_bits(&self, _env: &SizeEnv) -> u64 {
        8
    }
}

/// Pushes or pulls a uniformly random id each round — ignoring the
/// topology, so a sparse graph masks some sends — and records every
/// observation.
struct Talker {
    id: AgentId,
    rng: DetRng,
    heard: Vec<(AgentId, u64)>,
    answered: u64,
    replies: Vec<Option<u64>>,
}

impl Agent<Num> for Talker {
    fn act(&mut self, _ctx: &RoundCtx) -> Option<Op<Num>> {
        let peer = self.rng.below(N as u64) as AgentId;
        if self.rng.below(2) == 0 {
            Some(Op::push(peer, Num(self.id as u64)))
        } else {
            Some(Op::pull(peer, Num(0)))
        }
    }
    fn on_pull(&mut self, _from: AgentId, _q: &Num, _ctx: &RoundCtx) -> Option<Num> {
        self.answered += 1;
        Some(Num(1000 + self.id as u64))
    }
    fn on_push(&mut self, from: AgentId, msg: &Num, _ctx: &RoundCtx) {
        self.heard.push((from, msg.0));
    }
    fn on_reply(&mut self, _from: AgentId, reply: Option<Num>, _ctx: &RoundCtx) {
        self.replies.push(reply.map(|m| m.0));
    }
}

/// One config: its label, whether it carries a mask, and the pieces.
struct Case {
    label: &'static str,
    masked: bool,
    topology: fn() -> Topology,
    faults: fn() -> FaultPlan,
    loss: f64,
    scenario: fn() -> ScenarioScript,
}

fn cases() -> Vec<Case> {
    let complete = || Topology::complete(N);
    let healthy = || FaultPlan::none(N);
    let calm = ScenarioScript::new;
    vec![
        Case {
            label: "unmasked",
            masked: false,
            topology: complete,
            faults: healthy,
            loss: 0.0,
            scenario: calm,
        },
        Case {
            label: "one crashed agent",
            masked: true,
            topology: complete,
            faults: || FaultPlan::place(N, 1, Placement::HighIds),
            loss: 0.0,
            scenario: calm,
        },
        Case {
            label: "sparse topology",
            masked: true,
            topology: || Topology::ring(N),
            faults: healthy,
            loss: 0.0,
            scenario: calm,
        },
        Case {
            label: "message loss",
            masked: true,
            topology: complete,
            faults: healthy,
            loss: 0.2,
            scenario: calm,
        },
        Case {
            label: "partition",
            masked: true,
            topology: complete,
            faults: healthy,
            loss: 0.0,
            scenario: || ScenarioScript::new().partition(0, PartitionCut::split_at(N, N / 2)),
        },
    ]
}

/// Metrics, op log, per-agent state, and pushes delivered.
type Observed = (Metrics, Vec<OpEvent>, Vec<String>, usize);

fn run(case: &Case, staged_threads: Option<usize>) -> Observed {
    let agents = (0..N)
        .map(|id| Talker {
            id: id as AgentId,
            rng: DetRng::seeded(SEED, id as u64),
            heard: vec![],
            answered: 0,
            replies: vec![],
        })
        .collect();
    let cfg = NetworkConfig {
        record_ops: true,
        loss_probability: case.loss,
        loss_seed: SEED,
        scenario: (case.scenario)(),
        rng_discipline: if staged_threads.is_some() {
            RngDiscipline::PerAgent
        } else {
            RngDiscipline::Sequential
        },
        threads: staged_threads.unwrap_or(1),
        shard_floor: 0,
        ..NetworkConfig::default()
    };
    let mut net = Network::with_config(
        (case.topology)(),
        SizeEnv::for_n(N),
        agents,
        (case.faults)(),
        cfg,
    );
    match staged_threads {
        Some(_) => net.run_staged(ROUNDS),
        None => net.run(ROUNDS),
    }
    let agents = net
        .agents()
        .iter()
        .map(|a| format!("{:?}|{}|{:?}", a.heard, a.answered, a.replies))
        .collect();
    let heard = net.agents().iter().map(|a| a.heard.len()).sum();
    (
        net.metrics().clone(),
        net.oplog().events().to_vec(),
        agents,
        heard,
    )
}

#[test]
fn unmasked_shortcut_matches_every_shard_count_and_mask_kind() {
    for case in cases() {
        let one = run(&case, Some(1));
        for threads in [2, 3, 8] {
            let many = run(&case, Some(threads));
            assert_eq!(
                many.0, one.0,
                "{}: Metrics differ at {threads} shards",
                case.label
            );
            assert_eq!(
                many.1, one.1,
                "{}: op log differs at {threads} shards",
                case.label
            );
            assert_eq!(
                many.2, one.2,
                "{}: agent state differs at {threads} shards",
                case.label
            );
        }
        if case.loss == 0.0 {
            // The monolithic engine resolves every message's mask; with
            // no loss the disciplines differ only in handler order,
            // which agents cannot observe.
            let (metrics, _, agents, _) = run(&case, None);
            let label = case.label;
            assert_eq!(
                one.0, metrics,
                "{label}: Metrics differ from the monolithic engine"
            );
            assert_eq!(
                one.2, agents,
                "{label}: agent state differs from the monolithic engine"
            );
        }
        let pushes = one.1.iter().filter(|e| e.kind == OpKind::Push).count();
        assert_eq!(
            one.3 < pushes,
            case.masked,
            "{}: {} of {pushes} pushes delivered",
            case.label,
            one.3
        );
    }
}
