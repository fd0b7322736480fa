//! `guest_apps_thin`: the paper's Table II applications (SysBench OLTP,
//! Postmark, SysBench fileio), each in its own VM on the guest
//! filesystem over a thin (sparse, not preallocated) NeSC image,
//! telemetry off.
//!
//! First-touch writes take the miss interrupt, host-filesystem
//! allocation, extent-tree rebuild and `RewalkTree`, and OLTP's random
//! pages churn the BTLB: this is the only workload where the guest
//! filesystem, the host filesystem, the extent tree and the miss path do
//! most of the work.

use std::time::Instant;

use nesc_hypervisor::{
    DiskId, DiskKind, GuestFilesystem, System, SystemBuilder, TenantIo, Workload,
};
use nesc_sim::Histogram;
use nesc_workloads::{FileIo, Oltp, Postmark, WorkloadReport};

use crate::outcome::{Ledger, Outcome, Pass};
use crate::probe::{self, Snapshot};
use crate::spans::{SpanRef, Spans, NONE};
use crate::util::{digest, median, DIGEST_SEED};

/// Thin image size per application tenant.
const IMAGE_BYTES: u64 = 192 << 20;
/// Operations each application is asked for.
const OLTP_TX: u64 = 400;
const POSTMARK_TX: u64 = 400;
const FILEIO_OPS: u64 = 800;

/// Untraced passes whose median host time the traced pass is compared
/// with.
const UNTRACED_PASSES: usize = 5;

/// Declared p99 bound on each application's per-operation latency (ns).
/// A tenant meets its SLO when its simulated p99 stays within it.
const APP_SLO_NS: [u64; 3] = [20_000_000, 20_000_000, 5_000_000];

/// The three applications, with the names the per-layer metrics use.
const APPS: [&str; 3] = ["oltp", "postmark", "fileio"];

/// The application runs of one pass, configured from the seed.
fn apps(seed: u64) -> [Box<dyn Workload>; 3] {
    [
        Box::new(Oltp {
            rows: 20_000,
            transactions: OLTP_TX,
            buffer_pool_pages: 64,
            seed: seed ^ 0x014B_D00D,
            ..Default::default()
        }),
        Box::new(Postmark {
            initial_files: 48,
            transactions: POSTMARK_TX,
            seed: seed ^ 0x6D61_696C,
            ..Default::default()
        }),
        Box::new(FileIo {
            files: 8,
            file_bytes: 2 << 20,
            ops: FILEIO_OPS,
            seed: seed ^ 0x5EED_F11E,
            ..Default::default()
        }),
    ]
}

/// A system with one thin-image NeSC tenant per application.
pub struct Apps {
    sys: System,
    disks: [DiskId; 3],
    seed: u64,
}

/// Builds the system and attaches one thin image per application.
pub fn setup(seed: u64, spans: &mut Spans) -> Apps {
    let s = spans.open("provision.build", NONE, 0);
    let mut sys = SystemBuilder::new()
        .with_trampoline()
        .capacity_blocks(3 * IMAGE_BYTES / 1024 + 64 * 1024)
        .build();
    spans.close(s);
    let mut disks = [DiskId(0); 3];
    for (a, name) in APPS.iter().enumerate() {
        let s = spans.open("provision.disk", NONE, a as u64);
        let vm = sys.create_vm();
        let image = sys
            .create_image(&format!("{name}.img"), IMAGE_BYTES, false)
            .expect("the device is sized for three images");
        disks[a] = sys
            .try_attach(vm, DiskKind::NescDirect, Some(image))
            .expect("a VF is free for each application");
        spans.close(s);
    }
    Apps { sys, disks, seed }
}

/// Host seconds of one set-up alone, the guest mkfs of every tenant
/// included.
pub fn setup_only_s(seed: u64) -> f64 {
    let t = Instant::now();
    let a = setup(seed, &mut Spans::new(false));
    for &disk in &a.disks {
        GuestFilesystem::mkfs(&a.sys, a.sys.disk_vm(disk), disk);
    }
    t.elapsed().as_secs_f64()
}

/// What a pass leaves behind besides its outcome.
pub struct Run {
    /// The simulated outcome.
    pub outcome: Outcome,
    /// Per application: report and host seconds of its run.
    pub reports: Vec<(WorkloadReport, f64)>,
    /// Host seconds spent formatting the guest filesystems.
    pub mkfs_s: f64,
    /// The system after the pass, for counters.
    pub sys: System,
}

/// Runs the applications in turn. The guest `mkfs` of each tenant is
/// timed apart from its run and counted as set-up.
pub fn run(apps_state: Apps, spans: &mut Spans, parent: SpanRef) -> Run {
    let Apps {
        mut sys,
        disks,
        seed,
    } = apps_state;
    let wanted = [OLTP_TX, POSTMARK_TX, FILEIO_OPS];
    let mut reports = Vec::new();
    let mut mkfs_s = 0.0;
    let mut errors = Vec::new();
    let mut merged = Histogram::new();
    let mut h = DIGEST_SEED;
    let (mut ops, mut sim_ns, mut slo_met) = (0u64, 0u64, 0u64);
    for (a, app) in apps(seed).iter().enumerate() {
        let mut io = TenantIo::attached(&mut sys, disks[a]);
        let t = Instant::now();
        let s = spans.open("guest.mkfs", parent, a as u64);
        io.fs();
        spans.close(s);
        mkfs_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let s = spans.open("app.run", parent, a as u64);
        let rep = app.run(&mut io);
        spans.close(s);
        let host_s = t.elapsed().as_secs_f64();
        if rep.ops != wanted[a] {
            errors.push(format!(
                "{} completed {} ops, {} requested",
                APPS[a], rep.ops, wanted[a]
            ));
        }
        let p99 = rep.latency.percentile(99.0);
        if p99 <= APP_SLO_NS[a] {
            slo_met += 1;
        }
        merged.merge(&rep.latency);
        ops += rep.ops;
        sim_ns += rep.elapsed.as_nanos();
        h = digest(
            h,
            &[
                rep.ops,
                rep.bytes,
                rep.elapsed.as_nanos(),
                rep.latency.percentile(50.0),
                p99,
                rep.latency.max(),
            ],
        );
        reports.push((rep, host_s));
    }
    let stats = sys.device().stats();
    h = digest(h, &[stats.miss_interrupts, stats.walks, stats.btlb_hits]);
    let outcome = Outcome {
        attempted: wanted.iter().sum(),
        failed: wanted.iter().sum::<u64>().saturating_sub(ops),
        ops,
        latency: merged,
        sim_ns,
        slo_declared: APPS.len() as u64,
        slo_met,
        digest: h,
        errors,
    };
    Run {
        outcome,
        reports,
        mkfs_s,
        sys,
    }
}

/// One timed pass; the guest mkfs counts as set-up.
pub fn pass(seed: u64) -> Pass {
    let mut off = Spans::new(false);
    let t0 = Instant::now();
    let a = setup(seed, &mut off);
    let provision_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let r = run(a, &mut off, NONE);
    let run_s = t1.elapsed().as_secs_f64() - r.mkfs_s;
    Pass {
        setup_s: provision_s + r.mkfs_s,
        run_s,
        outcome: r.outcome,
    }
}

/// The traced run: spans around provisioning, mkfs and each application
/// run, plus the translation and allocation counters of the pass.
pub fn traced(seed: u64, spans: &mut Spans, ledger: &mut Ledger) -> (Outcome, Vec<String>) {
    let mut errors = Vec::new();
    let untraced: Vec<Pass> = (0..UNTRACED_PASSES).map(|_| pass(seed)).collect();
    let a = setup(seed, spans);
    let before = Snapshot::take(&a.sys);
    let root = spans.open("guest.apps", NONE, 0);
    let t = Instant::now();
    let r = run(a, spans, root);
    let traced_s = t.elapsed().as_secs_f64() - r.mkfs_s;
    spans.close(root);
    let after = Snapshot::take(&r.sys);
    probe::record(ledger, &r.sys, &before, &after);
    if untraced.iter().any(|u| !u.outcome.same_outputs(&r.outcome)) {
        errors.push("the traced pass differs from an untraced one".into());
    }
    for ((rep, host_s), name) in r.reports.iter().zip(APPS) {
        let key = |m: &str| format!("app.{name}.{m}");
        ledger.insert(key("sim_ops_per_s"), rep.ops_per_sec());
        ledger.insert(key("host_s"), *host_s);
    }
    let requests = ledger
        .get("core.requests_completed")
        .copied()
        .unwrap_or(0.0);
    let app_s: f64 = r.reports.iter().map(|(_, s)| s).sum();
    ledger.insert(
        "hv.host_ns_per_req_notel".into(),
        app_s * 1e9 / requests.max(1.0),
    );
    let untraced_s: Vec<f64> = untraced.iter().map(|u| u.run_s).collect();
    ledger.insert("trace.overhead_s".into(), traced_s - median(&untraced_s));
    (r.outcome, errors)
}
