//! nesc-report — the telemetry dashboard and its machine-readable golden.
//!
//! Runs two deterministic scenarios through the perfmon sampler:
//!
//! 1. **mixed** — three NeSC VFs under a seeded mixed read/write workload;
//!    renders a per-VF dashboard (sparkline request rates, latency
//!    percentiles, a per-window table) and writes the full time series to
//!    `results/telemetry_mixed.json`, which `scripts/check.sh` gates
//!    byte-for-byte.
//! 2. **prune-pressure** — the tree-pruning ablation configuration with an
//!    SLO watchdog attached; sustained miss-interrupt traffic must trip at
//!    least one deterministic anomaly, shown in the dashboard and recorded
//!    in the golden. The leaves and node slots its misses' tree publishes
//!    wrote go to stdout, where `scripts/check.sh` gates them: a miss
//!    republishes the disk's tree in place, and a prune changes no
//!    extent, so no leaf of the 205 needs rewriting.
//!
//! Also exports the merged Perfetto view (`results/telemetry_trace.json`):
//! the mixed run's span trace with the sampler's counter tracks merged in,
//! and the raw CSV (`results/telemetry_mixed.csv`).

use std::fs;

use nesc_bench::{emit_json, print_table};
use nesc_core::NescConfig;
use nesc_extent::{PublishStats, Vlba};
use nesc_hypervisor::prelude::*;
use nesc_sim::{perfmon, SimRng};

const INTERVAL_US: u64 = 50;
const VFS: usize = 3;
const REQUESTS: u64 = 240;

fn mixed_system() -> (System, Vec<DiskId>) {
    let cfg = TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US))
        .capacity(4096)
        // A latency SLO that healthy traffic must not trip.
        .rule_text("hv.vf0.p99_ns above 2000000 for 3");
    let mut sys = SystemBuilder::new()
        .capacity_blocks(256 * 1024)
        .max_vfs(8)
        .tracing(true)
        .telemetry(cfg)
        .build();
    let disks = (0..VFS)
        .map(|i| {
            sys.quick_disk(DiskKind::NescDirect, &format!("vf{i}.img"), 8 << 20)
                .disk
        })
        .collect();
    (sys, disks)
}

fn run_mixed(sys: &mut System, disks: &[DiskId]) {
    let mut rng = SimRng::seed(2016);
    let sizes = [2048u64, 4096, 8192, 16384];
    let mut buf = vec![0u8; 16384];
    for _ in 0..REQUESTS {
        let d = disks[rng.range(0, disks.len() as u64) as usize];
        let bytes = sizes[rng.range(0, sizes.len() as u64) as usize] as usize;
        let offset = rng.range(0, (8 << 20) / 16384) * 16384;
        if rng.range(0, 100) < 60 {
            sys.read(d, offset, &mut buf[..bytes]);
        } else {
            sys.write(d, offset, &buf[..bytes]);
        }
        sys.think(SimDuration::from_micros(rng.range(1, 20)));
    }
    // Idle past the open window so the tail is committed, then drop the
    // partial window.
    sys.think(SimDuration::from_micros(2 * INTERVAL_US));
    sys.telemetry_finish();
}

/// The pruning-pressure ablation configuration (fragmented image, prune
/// every 4 ops) with the SLO watchdog listening for the resulting
/// miss-interrupt storm.
fn run_prune_pressure() -> (System, DiskId, PublishStats) {
    let tel = TelemetryConfig::windowed(SimDuration::from_micros(100))
        .capacity(4096)
        .rule_text("core.miss_interrupts above 0 for 3")
        .rule_text("hv.rewalk_p99_ns above 0 for 3 while core.miss_interrupts above 0");
    let mut cfg = NescConfig::prototype();
    cfg.capacity_blocks = 256 * 1024;
    let mut sys = SystemBuilder::new().config(cfg).telemetry(tel).build();
    let vm = sys.create_vm();
    let img = sys.create_image("hot.img", 8 << 20, false).unwrap();
    let other = sys.create_image("interleave.img", 8 << 20, false).unwrap();
    for b in 0..4096u64 {
        sys.host_fs_mut().allocate_range(img, Vlba(b), 1).unwrap();
        sys.host_fs_mut().allocate_range(other, Vlba(b), 1).unwrap();
    }
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    let attached = sys.tree_publish_stats(disk);
    let mut rng = SimRng::seed(99);
    let mut buf = vec![0u8; 4096];
    for i in 0..256u64 {
        if i % 4 == 0 {
            let victim = Vlba(rng.range(0, 252));
            sys.prune_image_mapping(disk, victim);
        }
        let offset = (rng.range(0, 252) / 4) * 4 * 1024;
        sys.read(disk, offset, &mut buf);
    }
    sys.think(SimDuration::from_micros(200));
    sys.telemetry_finish();
    (sys, disk, attached)
}

/// Renders `values` as one bar character per window (most recent 64).
fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &values[values.len().saturating_sub(64)..];
    let max = tail.iter().copied().max().unwrap_or(0);
    tail.iter()
        .map(|&v| {
            if max == 0 {
                BARS[0]
            } else {
                BARS[(v as usize * 7) / max as usize]
            }
        })
        .collect()
}

fn series_values(sampler: &nesc_sim::Sampler, name: &str) -> Vec<u64> {
    sampler
        .series_by_name(name)
        .map(|s| s.samples().map(|(_, v)| v).collect())
        .unwrap_or_default()
}

fn anomalies_json(events: &[AnomalyEvent]) -> serde_json::Value {
    serde_json::Value::Array(
        events
            .iter()
            .map(|a| {
                serde_json::json!({
                    "rule": a.rule.clone(),
                    "rule_index": a.rule_index,
                    "text": a.text.clone(),
                    "series": a.series.clone(),
                    "window": a.window,
                    "at_ns": a.at.as_nanos(),
                    "value": a.value,
                    "consecutive": a.consecutive,
                })
            })
            .collect(),
    )
}

fn print_anomalies(title: &str, events: &[AnomalyEvent]) {
    println!("\n--- {title}: anomalies ---");
    if events.is_empty() {
        println!("  (none)");
        return;
    }
    for a in events.iter().take(5) {
        println!(
            "  window {:>4} @ {:>8} us  {} = {}  [rule {}: {}]",
            a.window,
            a.at.as_nanos() / 1_000,
            a.series,
            a.value,
            a.rule_index,
            a.text
        );
    }
}

fn main() {
    println!("nesc-report: deterministic telemetry dashboard");

    // ------------------------------------------------------- mixed run
    let (mut sys, disks) = mixed_system();
    run_mixed(&mut sys, &disks);
    let spans = sys.take_spans();
    let tel = sys.telemetry().expect("telemetry enabled");
    let sampler = tel.sampler();
    let windows = sampler.closed_windows();
    println!(
        "\nmixed workload: {} VFs, {} requests, {} windows of {} us",
        VFS, REQUESTS, windows, INTERVAL_US
    );

    // Per-VF summary with request-rate sparklines.
    let mut rows = Vec::new();
    for (i, _) in disks.iter().enumerate() {
        let reqs = series_values(sampler, &format!("hv.vf{i}.requests"));
        let bytes: u64 = series_values(sampler, &format!("hv.vf{i}.bytes"))
            .iter()
            .sum();
        let p99 = series_values(sampler, &format!("hv.vf{i}.p99_ns"))
            .into_iter()
            .max()
            .unwrap_or(0);
        rows.push(vec![
            format!("vf{i}"),
            reqs.iter().sum::<u64>().to_string(),
            (bytes >> 10).to_string(),
            (p99 / 1_000).to_string(),
            sparkline(&reqs),
        ]);
    }
    print_table(
        "Per-VF accounting (whole run)",
        &["vf", "requests", "KiB", "max p99 us", "requests/window"],
        &rows,
    );

    // Per-window tail: the last 12 windows in detail.
    let mut rows = Vec::new();
    let first = windows.saturating_sub(12);
    for w in first..windows {
        let mut row = vec![
            w.to_string(),
            (sampler.window_end(w).as_nanos() / 1_000).to_string(),
        ];
        for i in 0..VFS {
            let v = |suffix: &str| {
                sampler
                    .series_by_name(&format!("hv.vf{i}.{suffix}"))
                    .and_then(|s| s.value_at(w))
                    .unwrap_or(0)
            };
            row.push(v("requests").to_string());
            row.push((v("p99_ns") / 1_000).to_string());
        }
        rows.push(row);
    }
    print_table(
        "Last 12 windows",
        &[
            "window", "end us", "vf0 req", "vf0 p99", "vf1 req", "vf1 p99", "vf2 req", "vf2 p99",
        ],
        &rows,
    );

    // Device-utilization sparklines.
    println!("\n--- utilization (ppm per window) ---");
    for name in [
        "core.btlb_hit_ppm",
        "core.walk_busy_ppm",
        "storage.media_util_ppm",
        "pcie.link_up_util_ppm",
        "pcie.link_down_util_ppm",
    ] {
        println!("  {name:<26} {}", sparkline(&series_values(sampler, name)));
    }
    print_anomalies("mixed", tel.anomalies());

    let mixed_series = perfmon::series_json(sampler);
    let mixed_digest = format!("{:016x}", perfmon::digest_hash(sampler));
    let mixed_anomalies = anomalies_json(tel.anomalies());

    // CSV + Perfetto exports (artifacts, not byte-gated).
    let _ = fs::create_dir_all("results");
    let _ = fs::write("results/telemetry_mixed.csv", perfmon::series_csv(sampler));
    let mut trace = chrome_trace_json(&spans);
    perfmon::merge_counter_tracks(&mut trace, sampler);
    emit_json("telemetry_trace", &trace);

    // --------------------------------------------- prune-pressure run
    let (sys, disk, attached) = run_prune_pressure();
    let tel = sys.telemetry().expect("telemetry enabled");
    println!(
        "\nprune-pressure ablation: {} miss interrupts, rewalk storm under watch",
        sys.device().stats().miss_interrupts
    );
    println!(
        "  core.miss_interrupts       {}",
        sparkline(&series_values(tel.sampler(), "core.miss_interrupts"))
    );
    println!(
        "  hv.rewalk_p99_ns           {}",
        sparkline(&series_values(tel.sampler(), "hv.rewalk_p99_ns"))
    );
    let published = sys.tree_publish_stats(disk);
    println!(
        "  tree publish: {} miss publishes wrote {} leaves into {} new node slots \
         (attach wrote {} leaves into {} slots)",
        published.publishes - attached.publishes,
        published.leaves_written - attached.leaves_written,
        published.slots_allocated - attached.slots_allocated,
        attached.leaves_written,
        attached.slots_allocated
    );
    print_anomalies("prune-pressure", tel.anomalies());
    assert!(
        !tel.anomalies().is_empty(),
        "prune pressure must trip the watchdog deterministically"
    );

    emit_json(
        "telemetry_mixed",
        &serde_json::json!({
            "series": mixed_series,
            "anomalies": mixed_anomalies,
            "digest": mixed_digest,
            "prune_pressure": serde_json::json!({
                "miss_interrupts": sys.device().stats().miss_interrupts,
                "rewalks": series_values(tel.sampler(), "hv.rewalks").iter().sum::<u64>(),
                "anomalies": anomalies_json(tel.anomalies()),
            }),
        }),
    );
}
