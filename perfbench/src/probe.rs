//! Counters read from the layers' public getters at the boundaries of a
//! measured phase (device statistics, busy-time probes, host filesystem
//! occupancy), and the solo-latency oracle the wait metrics subtract.

use nesc_core::DeviceStats;
use nesc_hypervisor::{DiskKind, System, SystemBuilder};
use nesc_sim::{SimDuration, SimTime};
use nesc_storage::BlockOp;

use crate::outcome::Ledger;

/// Solo latency (ns) of each (op, size) class: the request runs alone on
/// an idle, freshly provisioned system, after a 1 ms idle gap, with a
/// warm BTLB and its target block already written. One system serves
/// every class: the idle gap drains every queue between them.
pub fn solo_ns(
    builder: SystemBuilder,
    kind: DiskKind,
    image_bytes: u64,
    classes: &[(BlockOp, u64)],
) -> Vec<u64> {
    let mut sys = builder.build();
    let disk = sys
        .try_quick_disk(kind, "solo.img", image_bytes)
        .expect("the oracle's one image fits")
        .disk;
    classes
        .iter()
        .map(|&(op, bytes)| {
            let mut buf = vec![0x5Au8; bytes as usize];
            sys.write(disk, 0, &buf);
            let mut once = |sys: &mut System| {
                sys.think(SimDuration::from_millis(1));
                match op {
                    BlockOp::Write => sys.write(disk, 0, &buf),
                    BlockOp::Read => sys.read(disk, 0, &mut buf),
                }
            };
            once(&mut sys);
            once(&mut sys).as_nanos()
        })
        .collect()
}

/// A snapshot of the cumulative device and host-filesystem counters.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    stats: DeviceStats,
    walk_busy: SimDuration,
    media_busy: SimDuration,
    link_up: SimDuration,
    link_down: SimDuration,
    free_blocks: u64,
    at: SimTime,
}

impl Snapshot {
    /// Reads every counter now.
    pub fn take(sys: &System) -> Self {
        let dev = sys.device();
        let (link_up, link_down) = dev.link_busy_time();
        Snapshot {
            stats: dev.stats(),
            walk_busy: dev.walk_busy_time(),
            media_busy: dev.media_busy_time(),
            link_up,
            link_down,
            free_blocks: sys.host_fs().free_blocks(),
            at: sys.now(),
        }
    }
}

fn ppm(busy_ns: u64, span_ns: u64) -> f64 {
    busy_ns as f64 * 1e6 / span_ns.max(1) as f64
}

/// Records the device, media, link and host-filesystem deltas between
/// two snapshots of the same system.
pub fn record(ledger: &mut Ledger, sys: &System, before: &Snapshot, after: &Snapshot) {
    let (a, b) = (&after.stats, &before.stats);
    let span_ns = after.at.saturating_since(before.at).as_nanos();
    let lookups = a.btlb_lookups - b.btlb_lookups;
    let hits = a.btlb_hits - b.btlb_hits;
    let walks = a.walks - b.walks;
    let levels = a.walk_levels - b.walk_levels;
    let misses = a.miss_interrupts - b.miss_interrupts;
    let allocated = before.free_blocks.saturating_sub(after.free_blocks);
    let slots = sys.device().walk_slot_count().max(1) as u64;
    let delta = |x: SimDuration, y: SimDuration| x.as_nanos().saturating_sub(y.as_nanos());
    ledger.insert(
        "core.requests_completed".into(),
        (a.requests_completed - b.requests_completed) as f64,
    );
    ledger.insert("core.btlb_lookups".into(), lookups as f64);
    ledger.insert(
        "core.btlb_hit_ppm".into(),
        (hits * 1_000_000).checked_div(lookups).unwrap_or(0) as f64,
    );
    ledger.insert("core.walks".into(), walks as f64);
    ledger.insert("core.walk_levels".into(), levels as f64);
    ledger.insert("core.miss_interrupts".into(), misses as f64);
    ledger.insert(
        "core.requests_failed".into(),
        (a.requests_failed - b.requests_failed) as f64,
    );
    ledger.insert(
        "core.zero_fill_blocks".into(),
        (a.zero_fill_blocks - b.zero_fill_blocks) as f64,
    );
    ledger.insert(
        "core.walk_busy_ppm".into(),
        ppm(delta(after.walk_busy, before.walk_busy), span_ns * slots),
    );
    ledger.insert(
        "storage.media_busy_ppm".into(),
        ppm(delta(after.media_busy, before.media_busy), span_ns),
    );
    ledger.insert(
        "pcie.link_up_busy_ppm".into(),
        ppm(delta(after.link_up, before.link_up), span_ns),
    );
    ledger.insert(
        "pcie.link_down_busy_ppm".into(),
        ppm(delta(after.link_down, before.link_down), span_ns),
    );
    ledger.insert("fs.blocks_allocated".into(), allocated as f64);
    ledger.insert(
        "fs.blocks_per_miss".into(),
        if misses == 0 {
            0.0
        } else {
            allocated as f64 / misses as f64
        },
    );
    ledger.insert(
        "extent.levels_per_walk_milli".into(),
        (levels * 1000).checked_div(walks).unwrap_or(0) as f64,
    );
}
