//! `paper_paths`: one tenant on each of the paper's four I/O paths (NeSC
//! VF, virtio, full emulation, host raw) with 192 MiB preallocated
//! images, telemetry and flight recorder off. Closed-loop QD1 random
//! reads and writes at the paper's block sizes through `System::read` /
//! `System::write`, then 64 KiB `System::stream` writes and reads.
//! Writes on the NeSC-direct and host-raw paths start at the device's
//! 1 KiB block (see [`classes`]).
//!
//! All host time goes to the request path and none to telemetry, so a
//! telemetry change must show no move here. Every read is checked
//! against a benchmark-side shadow of the last bytes written.

use std::collections::BTreeMap;
use std::time::Instant;

use nesc_hypervisor::{DiskId, DiskKind, System, SystemBuilder};
use nesc_sim::{Histogram, SimRng};
use nesc_storage::BlockOp;

use crate::outcome::{Ledger, Outcome, Pass};
use crate::probe::{self, Snapshot};
use crate::spans::{SpanRef, Spans, NONE};
use crate::util::{digest, median, percentile, DIGEST_SEED};

/// The four paths, with the names the per-layer metrics use.
pub const PATHS: [(DiskKind, &str); 4] = [
    (DiskKind::NescDirect, "nesc"),
    (DiskKind::Virtio, "virtio"),
    (DiskKind::Emulated, "emulated"),
    (DiskKind::HostRaw, "host"),
];
/// The paper's Fig. 9/10 block sizes.
const SIZES: [u64; 7] = [512, 1024, 2048, 4096, 8192, 16384, 32768];
/// The device's logical block.
const BLOCK: u64 = 1024;
/// Per-tenant image (and host-raw region) size.
const IMAGE_BYTES: u64 = 192 << 20;
/// QD1 requests per (path, op, size) class in one pass.
const PER_CLASS: usize = 48;
/// Half of all QD1 requests land in the first `HOT_BYTES` of the disk,
/// so reads often return data written earlier in the pass.
const HOT_BYTES: u64 = 2 << 20;
/// Stream request size and depth.
const STREAM_REQ: u64 = 64 * 1024;
const STREAM_QD: usize = 4;
/// Bytes per stream.
const STREAM_BYTES: u64 = 1 << 20;
/// QD1 4 KiB reads that check each path's stream-written range.
const STREAM_CHECKS: usize = 8;
/// A class meets its SLO when its p99 is within this factor of its solo
/// latency: at QD1 no request should wait behind another.
const SLO_FACTOR: u64 = 2;
/// Untraced passes whose median host time the traced pass is compared
/// with.
const UNTRACED_PASSES: usize = 5;
/// The paper's NeSC prototype bandwidth ceilings (MB/s), read and write.
const PAPER_READ_MBPS: f64 = 800.0;
const PAPER_WRITE_MBPS: f64 = 1000.0;
/// Sector granularity of the shadow (the smallest request).
const SECTOR: u64 = 512;
/// Shadow tag of sectors last written by a stream (`System::stream`
/// writes the constant byte `STREAM_BYTE`).
const STREAM_TAG: u32 = 1;
const STREAM_BYTE: u8 = 0xA5;

#[derive(Debug, Clone, Copy)]
enum Step {
    /// A QD1 request. `tag` (writes only) identifies the payload.
    Io {
        path: usize,
        op: BlockOp,
        offset: u64,
        bytes: u64,
        tag: u32,
    },
    /// A pipelined 64 KiB stream.
    Stream {
        path: usize,
        op: BlockOp,
        offset: u64,
    },
}

/// A provisioned four-path system and its request plan.
pub struct Paths {
    sys: System,
    disks: [DiskId; 4],
    /// Byte offset of each tenant's region on its disk (non-zero only
    /// for host raw, which addresses the whole device).
    region: [u64; 4],
    steps: Vec<Step>,
    /// Solo latency (ns) per (path, op is write, size).
    solo: BTreeMap<(usize, bool, u64), u64>,
}

fn builder() -> SystemBuilder {
    // Three images plus the host-raw region plus filesystem headroom.
    SystemBuilder::new()
        .with_trampoline()
        .capacity_blocks(4 * IMAGE_BYTES / 1024 + 64 * 1024)
}

/// Whether a path reaches the device in whole blocks: the NeSC ring
/// descriptor and the PF's `BlockRequest` name a block range, where
/// virtio-blk and the emulated controller address 512 B sectors.
fn block_granular(path: usize) -> bool {
    matches!(PATHS[path].0, DiskKind::NescDirect | DiskKind::HostRaw)
}

/// The (op, size) classes a path serves: reads at every size, writes at
/// every size its device interface can express. A sub-block write on a
/// block-granular path is not issued: `System::write` accepts one but
/// sends the whole covering block from the staging buffer, so the other
/// half of the block receives stale bytes. [`subblock_lost_sectors`]
/// measures that defect in the traced run.
fn classes(path: usize) -> Vec<(BlockOp, u64)> {
    [BlockOp::Read, BlockOp::Write]
        .into_iter()
        .flat_map(|op| SIZES.map(|b| (op, b)))
        .filter(|&(op, b)| op == BlockOp::Read || b >= BLOCK || !block_granular(path))
        .collect()
}

/// Bytes of a write: each 512 B sector starts with its tag and absolute
/// sector number, then repeats a tag-derived fill byte, so a stale,
/// lost or misplaced write shows on read-back.
fn fill_byte(tag: u32) -> u8 {
    0x10 + (tag % 0x80) as u8
}

fn payload(tag: u32, offset: u64, bytes: u64, buf: &mut Vec<u8>) {
    buf.clear();
    for sector in offset / SECTOR..(offset + bytes) / SECTOR {
        buf.extend_from_slice(&((u64::from(tag) << 40) | sector).to_le_bytes());
        buf.resize(buf.len() + SECTOR as usize - 8, fill_byte(tag));
    }
}

fn sector_ok(tag: u32, sector: u64, data: &[u8]) -> bool {
    match tag {
        0 => data.iter().all(|&b| b == 0),
        STREAM_TAG => data.iter().all(|&b| b == STREAM_BYTE),
        t => {
            data[..8] == ((u64::from(t) << 40) | sector).to_le_bytes()
                && data[8..].iter().all(|&b| b == fill_byte(t))
        }
    }
}

/// Describes a read-back mismatch, decoding the sector header the bytes
/// carry when they came from a tagged write.
fn mismatch(path: &str, sector: u64, want: u32, got: &[u8]) -> String {
    let mut head = [0u8; 8];
    head.copy_from_slice(&got[..8]);
    let word = u64::from_le_bytes(head);
    format!(
        "{path}: sector {sector} should hold write tag {want} but holds \
         {:#04x}.. (as a header: tag {}, sector {})",
        got[8],
        word >> 40,
        word & ((1 << 40) - 1)
    )
}

/// Provisions the four tenants, measures the solo oracle and builds the
/// request plan from the seed.
pub fn setup(seed: u64, spans: &mut Spans) -> Paths {
    let s = spans.open("provision.build", NONE, 0);
    let mut sys = builder().build();
    spans.close(s);
    let mut disks = [DiskId(0); 4];
    let mut images_end = 0u64;
    for (p, (kind, name)) in PATHS.iter().enumerate() {
        let s = spans.open("provision.disk", NONE, p as u64);
        let d = sys
            .try_quick_disk(*kind, &format!("{name}.img"), IMAGE_BYTES)
            .expect("the device is sized for three images and the host region");
        spans.close(s);
        disks[p] = d.disk;
        if let Some(ino) = d.image {
            let tree = sys.host_fs().extent_tree(ino).expect("image exists");
            for e in tree.iter() {
                images_end = images_end.max(e.physical.0 + e.len);
            }
        }
    }
    // Host raw addresses the whole device: give it a region past every
    // image block so its writes cannot clobber a guest's data.
    let host_base = (images_end * 1024).next_multiple_of(1 << 20);
    assert!(
        host_base + IMAGE_BYTES <= sys.disk_size_blocks(disks[3]) * 1024,
        "host-raw region must fit behind the images"
    );
    let region = [0, 0, 0, host_base];

    let s = spans.open("oracle.solo", NONE, 0);
    let mut solo = BTreeMap::new();
    for (p, (kind, _)) in PATHS.iter().enumerate() {
        let classes = classes(p);
        let ns = probe::solo_ns(builder(), *kind, IMAGE_BYTES, &classes);
        for (&(op, bytes), ns) in classes.iter().zip(ns) {
            solo.insert((p, op == BlockOp::Write, bytes), ns);
        }
    }
    spans.close(s);

    let s = spans.open("tape.gen", NONE, 0);
    let steps = plan(seed);
    spans.close(s);
    Paths {
        sys,
        disks,
        region,
        steps,
        solo,
    }
}

/// The seeded request plan: every class of every path `PER_CLASS`
/// times in shuffled order, then per path a stream write, a stream read
/// and read-backs of the streamed range.
fn plan(seed: u64) -> Vec<Step> {
    let mut rng = SimRng::seed(seed);
    let mut steps = Vec::new();
    for path in 0..PATHS.len() {
        for (op, bytes) in classes(path) {
            for _ in 0..PER_CLASS {
                steps.push(Step::Io {
                    path,
                    op,
                    offset: 0,
                    bytes,
                    tag: 0,
                });
            }
        }
    }
    for i in (1..steps.len()).rev() {
        let j = rng.range(0, i as u64 + 1) as usize;
        steps.swap(i, j);
    }
    let mut next_tag = STREAM_TAG + 1;
    for step in &mut steps {
        if let Step::Io {
            op,
            offset,
            bytes,
            tag,
            ..
        } = step
        {
            let span = if rng.range(0, 2) == 0 {
                HOT_BYTES
            } else {
                IMAGE_BYTES
            };
            *offset = rng.range(0, span / *bytes) * *bytes;
            if *op == BlockOp::Write {
                *tag = next_tag;
                next_tag += 1;
            }
        }
    }
    for path in 0..PATHS.len() {
        let offset = rng.range(0, (IMAGE_BYTES - STREAM_BYTES) / STREAM_REQ) * STREAM_REQ;
        for op in [BlockOp::Write, BlockOp::Read] {
            steps.push(Step::Stream { path, op, offset });
        }
        for _ in 0..STREAM_CHECKS {
            let bytes = 4096;
            steps.push(Step::Io {
                path,
                op: BlockOp::Read,
                offset: offset + rng.range(0, STREAM_BYTES / bytes) * bytes,
                bytes,
                tag: 0,
            });
        }
    }
    steps
}

/// What a pass leaves behind besides its outcome.
pub struct Run {
    /// The simulated outcome.
    pub outcome: Outcome,
    /// QD1 latencies (ns) per path, ascending.
    pub per_path_ns: [Vec<u64>; 4],
    /// (step index, latency ns) of every completed QD1 request.
    pub step_latency_ns: Vec<(usize, u64)>,
    /// Stream bandwidth (MB per simulated second) per path: (read, write).
    pub stream_mbps: [(f64, f64); 4],
    /// The system after the pass, for counters.
    pub sys: System,
}

/// Runs the plan, verifying every read against the shadow.
pub fn run(paths: Paths, spans: &mut Spans, parent: SpanRef) -> Run {
    let Paths {
        mut sys,
        disks,
        region,
        steps,
        solo,
    } = paths;
    let mut shadow: [BTreeMap<u64, u32>; 4] = Default::default();
    let mut by_class: BTreeMap<(usize, bool, u64), Vec<u64>> = BTreeMap::new();
    let mut per_path_ns: [Vec<u64>; 4] = Default::default();
    let mut step_latency_ns = Vec::new();
    let mut stream_mbps = [(0.0, 0.0); 4];
    let mut buf = Vec::with_capacity(64 * 1024);
    let mut errors = Vec::new();
    let (mut failed, mut ops, mut attempted) = (0u64, 0u64, 0u64);
    let mut h = DIGEST_SEED;
    let start = sys.now();
    for (i, step) in steps.iter().enumerate() {
        match *step {
            Step::Io {
                path,
                op,
                offset,
                bytes,
                tag,
            } => {
                attempted += 1;
                let disk = disks[path];
                let at = region[path] + offset;
                let name = match op {
                    BlockOp::Read => "hv.read",
                    BlockOp::Write => "hv.write",
                };
                match op {
                    BlockOp::Write => payload(tag, at, bytes, &mut buf),
                    BlockOp::Read => {
                        buf.clear();
                        buf.resize(bytes as usize, 0);
                    }
                }
                let s = spans.open(name, parent, i as u64);
                let res = match op {
                    BlockOp::Write => sys.try_write(disk, at, &buf),
                    BlockOp::Read => sys.try_read(disk, at, &mut buf),
                };
                spans.close(s);
                let Ok(lat) = res else {
                    failed += 1;
                    h = digest(h, &[i as u64, u64::MAX]);
                    continue;
                };
                ops += 1;
                let lat = lat.as_nanos();
                per_path_ns[path].push(lat);
                step_latency_ns.push((i, lat));
                by_class
                    .entry((path, op == BlockOp::Write, bytes))
                    .or_default()
                    .push(lat);
                h = digest(h, &[i as u64, lat]);
                let first = at / SECTOR;
                let sectors = bytes / SECTOR;
                for k in 0..sectors {
                    match op {
                        BlockOp::Write => {
                            shadow[path].insert(first + k, tag);
                        }
                        BlockOp::Read => {
                            let want = shadow[path].get(&(first + k)).copied().unwrap_or(0);
                            let got = &buf[(k * SECTOR) as usize..((k + 1) * SECTOR) as usize];
                            if !sector_ok(want, first + k, got) {
                                errors.push(mismatch(PATHS[path].1, first + k, want, got));
                            }
                        }
                    }
                }
            }
            Step::Stream { path, op, offset } => {
                let count = STREAM_BYTES / STREAM_REQ;
                attempted += count;
                let at = region[path] + offset;
                let s = spans.open("hv.stream", parent, i as u64);
                let r = sys.stream(disks[path], op, at, STREAM_BYTES, STREAM_REQ, STREAM_QD);
                spans.close(s);
                ops += r.ops;
                failed += count.saturating_sub(r.ops);
                h = digest(h, &[i as u64, r.elapsed.as_nanos(), r.ops]);
                match op {
                    BlockOp::Read => stream_mbps[path].0 = r.mbps,
                    BlockOp::Write => {
                        stream_mbps[path].1 = r.mbps;
                        let first = at / SECTOR;
                        for k in 0..STREAM_BYTES / SECTOR {
                            shadow[path].insert(first + k, STREAM_TAG);
                        }
                    }
                }
            }
        }
    }
    let sim_ns = sys.now().saturating_since(start).as_nanos();
    let mut slo_met = 0;
    for (key, lats) in &mut by_class {
        lats.sort_unstable();
        if percentile(lats, 99.0) <= SLO_FACTOR * solo[key] {
            slo_met += 1;
        }
    }
    let slo_declared = (0..PATHS.len()).map(|p| classes(p).len() as u64).sum();
    let mut latency = Histogram::new();
    for &l in per_path_ns.iter().flatten() {
        latency.record(l);
    }
    for v in &mut per_path_ns {
        v.sort_unstable();
    }
    if errors.len() > 4 {
        let more = errors.len() - 4;
        errors.truncate(4);
        errors.push(format!("... and {more} more read-back mismatches"));
    }
    let outcome = Outcome {
        attempted,
        failed,
        ops,
        latency,
        sim_ns,
        slo_declared,
        slo_met,
        digest: digest(h, &[sim_ns, slo_met]),
        errors,
    };
    Run {
        outcome,
        per_path_ns,
        step_latency_ns,
        stream_mbps,
        sys,
    }
}

/// Wait of every completed QD1 request: its latency minus the solo
/// latency of its (path, op, size) class, ascending.
fn waits(
    steps: &[Step],
    solo: &BTreeMap<(usize, bool, u64), u64>,
    lat: &[(usize, u64)],
) -> Vec<u64> {
    let mut w: Vec<u64> = lat
        .iter()
        .filter_map(|&(i, l)| match steps[i] {
            Step::Io {
                path, op, bytes, ..
            } => Some(l.saturating_sub(solo[&(path, op == BlockOp::Write, bytes)])),
            Step::Stream { .. } => None,
        })
        .collect();
    w.sort_unstable();
    w
}

/// Sectors a sub-block write loses on a path: on a fresh disk whose
/// first `2 N` blocks each hold their own fill byte, each of the first
/// `N` blocks gets one 512 B write right after a read of a block from
/// the second half has left that block's bytes in the staging buffer. A sector that does not read back
/// as written (or as its block's fill) is lost. Zero means sub-block
/// writes merge with the block's content, as the paravirtual paths do.
fn subblock_lost_sectors(kind: DiskKind) -> u64 {
    const N: u64 = 16;
    let fill = |b: u64| 0x20 + b as u8;
    let mut sys = SystemBuilder::new().build();
    let disk = sys
        .try_quick_disk(kind, "subblock.img", 1 << 20)
        .expect("a 1 MiB disk fits the default device")
        .disk;
    let base: Vec<u8> = (0..2 * N)
        .flat_map(|b| std::iter::repeat_n(fill(b), BLOCK as usize))
        .collect();
    sys.write(disk, 0, &base);
    let mut want = base;
    let mut block = vec![0u8; BLOCK as usize];
    for b in 0..N {
        sys.read(disk, (N + b) * BLOCK, &mut block);
        let at = b * BLOCK + (b % 2) * SECTOR;
        let data = [0xEEu8; SECTOR as usize];
        sys.write(disk, at, &data);
        want[at as usize..(at + SECTOR) as usize].copy_from_slice(&data);
    }
    let mut got = vec![0u8; want.len()];
    sys.read(disk, 0, &mut got);
    got.chunks(SECTOR as usize)
        .zip(want.chunks(SECTOR as usize))
        .filter(|(g, w)| g != w)
        .count() as u64
}

/// One timed pass.
pub fn pass(seed: u64) -> Pass {
    let mut off = Spans::new(false);
    let t0 = Instant::now();
    let p = setup(seed, &mut off);
    let t1 = Instant::now();
    let r = run(p, &mut off, NONE);
    let run_s = t1.elapsed().as_secs_f64();
    Pass {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s,
        outcome: r.outcome,
    }
}

/// The traced run: spans around every request and stream, per-path
/// host cost, the paper-ceiling comparison and the wait oracle.
pub fn traced(seed: u64, spans: &mut Spans, ledger: &mut Ledger) -> (Outcome, Vec<String>) {
    let mut errors = Vec::new();
    let untraced: Vec<Pass> = (0..UNTRACED_PASSES).map(|_| pass(seed)).collect();
    let p = setup(seed, spans);
    let steps = p.steps.clone();
    let solo = p.solo.clone();
    let before = Snapshot::take(&p.sys);
    let root = spans.open("hv.paper_paths", NONE, 0);
    let t = Instant::now();
    let r = run(p, spans, root);
    let traced_s = t.elapsed().as_secs_f64();
    spans.close(root);
    let after = Snapshot::take(&r.sys);
    probe::record(ledger, &r.sys, &before, &after);
    if untraced.iter().any(|u| !u.outcome.same_outputs(&r.outcome)) {
        errors.push("the traced pass differs from an untraced one".into());
    }

    // Per-request host time by path, from the request spans.
    let mut host_ns: [Vec<u64>; 4] = Default::default();
    let mut all = Vec::new();
    for name in ["hv.read", "hv.write"] {
        for (step, ns) in spans.durations_by_req(name) {
            if let Some(Step::Io { path, .. }) = steps.get(step as usize) {
                host_ns[*path].push(ns);
                all.push(ns);
            }
        }
    }
    all.sort_unstable();
    let w = waits(&steps, &solo, &r.step_latency_ns);
    for (p, (_, name)) in PATHS.iter().enumerate() {
        host_ns[p].sort_unstable();
        let key = |m: &str| format!("path.{name}.{m}");
        ledger.insert(
            key("sim_p50_us"),
            percentile(&r.per_path_ns[p], 50.0) as f64 / 1e3,
        );
        ledger.insert(key("host_ns_per_req"), percentile(&host_ns[p], 50.0) as f64);
        ledger.insert(key("stream_read_mbps"), r.stream_mbps[p].0);
        ledger.insert(key("stream_write_mbps"), r.stream_mbps[p].1);
    }
    let (nesc_read, nesc_write) = r.stream_mbps[0];
    ledger.insert(
        "path.nesc.read_mbps_err_permille".into(),
        (nesc_read - PAPER_READ_MBPS).abs() * 1000.0 / PAPER_READ_MBPS,
    );
    ledger.insert(
        "path.nesc.write_mbps_err_permille".into(),
        (nesc_write - PAPER_WRITE_MBPS).abs() * 1000.0 / PAPER_WRITE_MBPS,
    );
    let mut lost = 0;
    for (kind, name) in PATHS {
        let n = subblock_lost_sectors(kind);
        if n > 0 {
            println!(
                "KNOWN DEFECT: a 512 B write on the {name} path lost {n} neighbouring \
                 sectors (sub-block writes are left out of the plan on this path)"
            );
        }
        lost += n;
    }
    ledger.insert("path.subblock_write_lost_sectors".into(), lost as f64);
    ledger.insert("sim.wait_us_p50".into(), percentile(&w, 50.0) as f64 / 1e3);
    ledger.insert("sim.wait_us_p99".into(), percentile(&w, 99.0) as f64 / 1e3);
    let io_ns: u64 = all.iter().sum();
    ledger.insert(
        "hv.host_ns_per_req_notel".into(),
        io_ns as f64 / all.len().max(1) as f64,
    );
    ledger.insert(
        "hv.plain_req_host_ns_p50".into(),
        percentile(&all, 50.0) as f64,
    );
    let untraced_s: Vec<f64> = untraced.iter().map(|u| u.run_s).collect();
    ledger.insert("trace.overhead_s".into(), traced_s - median(&untraced_s));
    (r.outcome, errors)
}
