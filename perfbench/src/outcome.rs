//! What one measured pass over a workload's inputs yields, and the
//! metric tables the benchmark prints.

use std::collections::BTreeMap;

use nesc_sim::Histogram;

/// The simulated result of one pass, plus its correctness verdict.
///
/// Everything here is a function of the inputs alone: two passes over
/// the same inputs must produce the same outcome, which is how repeats,
/// the traced run and the ablations are checked against each other.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations the inputs asked for.
    pub attempted: u64,
    /// Operations that ended with a non-OK status or never completed.
    pub failed: u64,
    /// Completed operations (requests, stream requests or app ops).
    pub ops: u64,
    /// Simulated latency (ns) of every completed operation that has one.
    pub latency: Histogram,
    /// Simulated time the pass took, in nanoseconds.
    pub sim_ns: u64,
    /// Tenants (or request classes) that declared a p99 bound.
    pub slo_declared: u64,
    /// Of those, how many met it.
    pub slo_met: u64,
    /// FNV-1a digest over every simulated output of the pass.
    pub digest: u64,
    /// Correctness violations; empty when the outputs checked out.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Whether two passes produced the same simulated outputs.
    pub fn same_outputs(&self, other: &Outcome) -> bool {
        (
            self.digest,
            self.attempted,
            self.failed,
            self.ops,
            self.sim_ns,
            self.slo_met,
        ) == (
            other.digest,
            other.attempted,
            other.failed,
            other.ops,
            other.sim_ns,
            other.slo_met,
        )
    }

    /// Latency samples.
    pub fn samples(&self) -> u64 {
        self.latency.count()
    }

    /// Median simulated latency in ns (histogram bucket resolution).
    pub fn p50_ns(&self) -> u64 {
        self.latency.percentile(50.0)
    }

    /// p99 simulated latency in ns (histogram bucket resolution).
    pub fn p99_ns(&self) -> u64 {
        self.latency.percentile(99.0)
    }

    /// Latency samples ranked above the p99 (nearest rank): the number
    /// the p99 estimate rests on.
    pub fn beyond_p99(&self) -> u64 {
        self.samples() - (self.samples() * 99).div_ceil(100)
    }

    /// Completed operations per simulated second.
    pub fn sim_ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.sim_ns.max(1) as f64 / 1e9)
    }

    /// Permille of SLO-bearing tenants or classes that met their bound.
    pub fn slo_met_permille(&self) -> f64 {
        (self.slo_met * 1000) as f64 / self.slo_declared.max(1) as f64
    }

    /// Permille of attempted operations that failed.
    pub fn failed_permille(&self) -> f64 {
        (self.failed * 1000) as f64 / self.attempted.max(1) as f64
    }
}

/// One measured pass: host time of its set-up and of its measured phase.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds of everything before the first measured request.
    pub setup_s: f64,
    /// Host seconds of the measured phase.
    pub run_s: f64,
    /// The simulated outcome.
    pub outcome: Outcome,
}

/// End-to-end metrics, printed by the timed run (`--trace 0`): name,
/// unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_req_per_s", "req/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_p50_us", "sim_us"),
    ("sim_p99_us", "sim_us"),
    ("sim_ops_per_s", "ops/sim_s"),
    ("slo_met_permille", "permille"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`): name,
/// unit. A metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_permille", "permille"),
    ("sim.latency_samples", "count"),
    ("sim.beyond_p99", "count"),
    ("tape.gen_s", "s"),
    ("provision.build_s", "s"),
    ("provision.us_per_disk", "us"),
    ("hv.host_ns_per_req_notel", "ns"),
    ("hv.plain_req_host_ns_p50", "ns"),
    ("hv.window_req_host_us_p50", "us"),
    ("telemetry.host_s", "s"),
    ("telemetry.host_share_permille", "permille"),
    ("telemetry.windows_closed", "count"),
    ("telemetry.series", "count"),
    ("telemetry.samples", "count"),
    ("telemetry.rules", "count"),
    ("telemetry.host_us_per_window", "us"),
    ("telemetry.anomalies", "count"),
    ("telemetry.scaling_exponent", "slope"),
    ("scale.vfs125.replay_s", "s"),
    ("scale.vfs250.replay_s", "s"),
    ("scale.vfs500.replay_s", "s"),
    ("flight.host_s", "s"),
    ("flight.events", "count"),
    ("flight.dropped", "count"),
    ("core.requests_completed", "count"),
    ("core.btlb_lookups", "count"),
    ("core.btlb_hit_ppm", "ppm"),
    ("core.walks", "count"),
    ("core.walk_levels", "count"),
    ("core.miss_interrupts", "count"),
    ("core.requests_failed", "count"),
    ("core.zero_fill_blocks", "count"),
    ("core.walk_busy_ppm", "ppm"),
    ("storage.media_busy_ppm", "ppm"),
    ("pcie.link_up_busy_ppm", "ppm"),
    ("pcie.link_down_busy_ppm", "ppm"),
    ("sim.wait_us_p50", "sim_us"),
    ("sim.wait_us_p99", "sim_us"),
    ("fs.blocks_allocated", "count"),
    ("fs.blocks_per_miss", "ratio"),
    ("extent.levels_per_walk_milli", "milli"),
    ("path.nesc.sim_p50_us", "sim_us"),
    ("path.nesc.host_ns_per_req", "ns"),
    ("path.nesc.stream_read_mbps", "MB/sim_s"),
    ("path.nesc.stream_write_mbps", "MB/sim_s"),
    ("path.nesc.read_mbps_err_permille", "permille"),
    ("path.nesc.write_mbps_err_permille", "permille"),
    ("path.virtio.sim_p50_us", "sim_us"),
    ("path.virtio.host_ns_per_req", "ns"),
    ("path.virtio.stream_read_mbps", "MB/sim_s"),
    ("path.virtio.stream_write_mbps", "MB/sim_s"),
    ("path.emulated.sim_p50_us", "sim_us"),
    ("path.emulated.host_ns_per_req", "ns"),
    ("path.emulated.stream_read_mbps", "MB/sim_s"),
    ("path.emulated.stream_write_mbps", "MB/sim_s"),
    ("path.host.sim_p50_us", "sim_us"),
    ("path.host.host_ns_per_req", "ns"),
    ("path.host.stream_read_mbps", "MB/sim_s"),
    ("path.host.stream_write_mbps", "MB/sim_s"),
    ("path.subblock_write_lost_sectors", "count"),
    ("app.oltp.sim_ops_per_s", "ops/sim_s"),
    ("app.oltp.host_s", "s"),
    ("app.postmark.sim_ops_per_s", "ops/sim_s"),
    ("app.postmark.host_s", "s"),
    ("app.fileio.sim_ops_per_s", "ops/sim_s"),
    ("app.fileio.host_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// Per-layer values gathered by a traced run, keyed by metric name.
pub type Ledger = BTreeMap<String, f64>;
