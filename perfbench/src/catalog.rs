//! Every metric the benchmark prints: its unit, its direction, the layer
//! it measures and the end-to-end metric it should move.
//!
//! `BENCHMARK.json` lists the same names, units and directions (a test
//! keeps the two in step). The result line carries every end-to-end
//! metric on an untraced run and every per-layer metric on a traced one,
//! for every workload. A per-layer metric of a layer the workload does
//! not run reads 0.

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Printed name.
    pub name: &'static str,
    /// Printed unit.
    pub unit: &'static str,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// The module measured (end-to-end metrics: `e2e`).
    pub layer: &'static str,
    /// The end-to-end metric (and workload) this metric should move.
    pub feeds: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    layer: &'static str,
    feeds: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better,
        layer,
        feeds,
    }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m(
        "units_per_s",
        "1/s",
        true,
        "e2e",
        "rounds/s, trials/s, instances/s or ticks/s by workload",
    ),
    m(
        "setup_s",
        "s",
        false,
        "e2e",
        "time before the first timed unit",
    ),
    m(
        "peak_rss_mib",
        "MiB",
        false,
        "e2e",
        "the process's peak resident set (VmHWM)",
    ),
];

/// The four communicating phases, in execution order.
pub const PHASES: [&str; 4] = ["commitment", "voting", "find-min", "coherence"];

const ST: &str = "gossip_net::network::staged";
const ST_FEEDS: &str = "units_per_s on single-trial; none on monte-carlo";
const NET: &str = "gossip_net::metrics";
const NET_FEEDS: &str =
    "exact work behind units_per_s on single-trial, monte-carlo, instance-plane";
const NODE: &str = "rfc_node::session";
const NODE_FEEDS: &str = "units_per_s on node-session";
const WIRE: &str = "rfc_node::wire + rfc_core::codec";
const WIRE_FEEDS: &str = "units_per_s on node-session; none elsewhere";

/// Per-layer metrics, measured in the traced pass.
pub const PER_LAYER: &[MetricDef] = &[
    m("staged.phase_s.commitment", "s", false, ST, ST_FEEDS),
    m("staged.phase_s.voting", "s", false, ST, ST_FEEDS),
    m("staged.phase_s.find-min", "s", false, ST, ST_FEEDS),
    m("staged.phase_s.coherence", "s", false, ST, ST_FEEDS),
    m("staged.round_ms.p50.commitment", "ms", false, ST, ST_FEEDS),
    m("staged.round_ms.p50.voting", "ms", false, ST, ST_FEEDS),
    m("staged.round_ms.p50.find-min", "ms", false, ST, ST_FEEDS),
    m("staged.round_ms.p50.coherence", "ms", false, ST, ST_FEEDS),
    m("staged.round_ms.tail.commitment", "ms", false, ST, ST_FEEDS),
    m("staged.round_ms.tail.voting", "ms", false, ST, ST_FEEDS),
    m("staged.round_ms.tail.find-min", "ms", false, ST, ST_FEEDS),
    m("staged.round_ms.tail.coherence", "ms", false, ST, ST_FEEDS),
    m("staged.plan_s", "s", false, ST, ST_FEEDS),
    m("staged.exchange_s", "s", false, ST, ST_FEEDS),
    m("staged.build_s", "s", false, ST, ST_FEEDS),
    m("staged.meter_s", "s", false, ST, ST_FEEDS),
    m("staged.log_s", "s", false, ST, ST_FEEDS),
    m("staged.resolve_s", "s", false, ST, ST_FEEDS),
    m("staged.apply_s", "s", false, ST, ST_FEEDS),
    m(
        "engine.finalize_s",
        "s",
        false,
        "rfc_core::engine",
        "units_per_s on single-trial",
    ),
    m(
        "runner.build_s",
        "s",
        false,
        "rfc_core::runner",
        "setup_s on single-trial",
    ),
    m(
        "arena.trial_ms.p50",
        "ms",
        false,
        "rfc_core::runner",
        "units_per_s on monte-carlo",
    ),
    m(
        "arena.trial_ms.tail",
        "ms",
        false,
        "rfc_core::runner",
        "units_per_s on monte-carlo",
    ),
    m(
        "arena.first_trial_ms",
        "ms",
        false,
        "rfc_core::runner",
        "setup_s on monte-carlo",
    ),
    m(
        "fold.idle_share",
        "share",
        false,
        "experiments::parallel",
        "units_per_s on monte-carlo",
    ),
    m(
        "fold.blocks",
        "count",
        false,
        "experiments::parallel",
        "units_per_s on monte-carlo",
    ),
    m(
        "fold.peak_pending",
        "count",
        false,
        "experiments::parallel",
        "peak_rss_mib on monte-carlo",
    ),
    m("net.messages.commitment", "count", false, NET, NET_FEEDS),
    m("net.messages.voting", "count", false, NET, NET_FEEDS),
    m("net.messages.find-min", "count", false, NET, NET_FEEDS),
    m("net.messages.coherence", "count", false, NET, NET_FEEDS),
    m("net.bits.commitment", "bit", false, NET, NET_FEEDS),
    m("net.bits.voting", "bit", false, NET, NET_FEEDS),
    m("net.bits.find-min", "bit", false, NET, NET_FEEDS),
    m("net.bits.coherence", "bit", false, NET, NET_FEEDS),
    m("net.undelivered", "count", false, NET, NET_FEEDS),
    m("net.max_active_links", "count", false, NET, NET_FEEDS),
    m(
        "net.bits_per_agent",
        "bit",
        false,
        NET,
        "exact O(log^3 n) term; work behind units_per_s",
    ),
    m(
        "net.max_msg_bits",
        "bit",
        false,
        NET,
        "exact O(log^2 n) term; work behind units_per_s",
    ),
    m(
        "checkpoint.write_s",
        "s",
        false,
        "rfc_core::checkpoint",
        "checkpoint_s on single-trial",
    ),
    m(
        "checkpoint.restore_s",
        "s",
        false,
        "rfc_core::checkpoint",
        "checkpoint_s on single-trial",
    ),
    m(
        "checkpoint.bytes_per_agent",
        "B",
        false,
        "rfc_core::checkpoint",
        "checkpoint_s on single-trial",
    ),
    m(
        "plane.rounds",
        "count",
        false,
        "rfc_core::instances",
        "units_per_s on instance-plane",
    ),
    m(
        "plane.rtd_mean",
        "rounds",
        false,
        "rfc_core::instances",
        "units_per_s on instance-plane",
    ),
    m(
        "plane.wire_mib",
        "MiB",
        false,
        "rfc_core::instances",
        "units_per_s on instance-plane",
    ),
    m(
        "plane.tag_overhead_share",
        "share",
        false,
        "rfc_core::instances",
        "units_per_s on instance-plane",
    ),
    m("node.reads_per_tick", "1/tick", false, NODE, NODE_FEEDS),
    m("node.writes_per_tick", "1/tick", false, NODE, NODE_FEEDS),
    m("node.read_wait_s", "s", false, NODE, NODE_FEEDS),
    m("node.write_s", "s", false, NODE, NODE_FEEDS),
    m(
        "node.wire_bytes_per_tick",
        "B/tick",
        false,
        NODE,
        "units_per_s on node-session",
    ),
    m("wire.decode_ns_per_packet", "ns", false, WIRE, WIRE_FEEDS),
    m("wire.encode_ns_per_packet", "ns", false, WIRE, WIRE_FEEDS),
    m("wire.packets", "count", false, WIRE, WIRE_FEEDS),
    m(
        "overhead.units_per_s",
        "share",
        false,
        "tracing",
        "traced minus untraced, over untraced",
    ),
    m(
        "overhead.setup_s",
        "share",
        false,
        "tracing",
        "traced minus untraced, over untraced",
    ),
    m(
        "overhead.peak_rss_mib",
        "share",
        false,
        "tracing",
        "traced minus untraced, over untraced",
    ),
];

/// The definition of `name`, in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// `prefix` + phase name, as its catalog name.
pub(crate) fn phase_metric(prefix: &str, phase: &str) -> &'static str {
    find(&format!("{prefix}{phase}"))
        .expect("phase metric is in the catalog")
        .name
}
