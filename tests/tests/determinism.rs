//! Reproducibility: every harness result must be bit-identical across
//! runs — the property that makes the figure regeneration trustworthy.

use std::cell::RefCell;
use std::rc::Rc;

use nesc_core::{CompletionStatus, NescConfig, NescDevice, NescOutput};
use nesc_extent::{Plba, Vlba};
use nesc_hypervisor::DiskKind;
use nesc_pcie::HostMemory;
use nesc_sim::selfcheck::{first_divergence, self_check, Divergence};
use nesc_sim::SimTime;
use nesc_storage::{BlockOp, BlockRequest, RequestId, BLOCK_SIZE};
use nesc_system_tests::system_with_disk;
use nesc_workloads::{Dd, DdMode, FileIo, MixedVfSelfCheck, Oltp, Postmark, TenantIo, Workload};

#[test]
fn dd_streams_are_deterministic() {
    let run = || {
        let (mut sys, _vm, disk) = system_with_disk(DiskKind::NescDirect, 16 << 20);
        let rep = Dd::new(BlockOp::Write, 8192, 128, DdMode::Pipelined { qd: 8 })
            .run(&mut TenantIo::attached(&mut sys, disk));
        (rep.elapsed, rep.bytes, sys.now())
    };
    assert_eq!(run(), run());
}

#[test]
fn macro_workloads_are_deterministic_on_every_path() {
    for kind in [DiskKind::NescDirect, DiskKind::Virtio, DiskKind::Emulated] {
        let run = || {
            let (mut sys, _vm, disk) = system_with_disk(kind, 32 << 20);
            let pm = Postmark {
                initial_files: 8,
                transactions: 25,
                max_file_bytes: 8 * 1024,
                ..Default::default()
            }
            .run(&mut TenantIo::attached(&mut sys, disk));
            (pm.elapsed, pm.bytes, sys.device().stats())
        };
        assert_eq!(run(), run(), "{kind:?} diverged");
    }
}

#[test]
fn oltp_device_stats_are_deterministic() {
    let run = || {
        let (mut sys, _vm, disk) = system_with_disk(DiskKind::NescDirect, 32 << 20);
        Oltp {
            rows: 2_000,
            transactions: 20,
            buffer_pool_pages: 8,
            ..Default::default()
        }
        .run(&mut TenantIo::attached(&mut sys, disk));
        sys.device().stats()
    };
    assert_eq!(run(), run());
}

#[test]
fn fileio_latency_histogram_is_deterministic() {
    let run = || {
        let (mut sys, _vm, disk) = system_with_disk(DiskKind::Virtio, 32 << 20);
        let rep = FileIo {
            files: 3,
            file_bytes: 128 * 1024,
            ops: 30,
            ..Default::default()
        }
        .run(&mut TenantIo::attached(&mut sys, disk));
        (
            rep.latency.percentile(50.0),
            rep.latency.percentile(99.0),
            rep.latency.mean().to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn mixed_multivf_same_seed_digests_are_identical() {
    // The full divergence-check surface: a seeded read/write mix across
    // several VFs, digested down to event sequence + span tree + telemetry
    // hashes. Two runs from one seed must agree on every checkpoint.
    let wl = MixedVfSelfCheck::default();
    let a = wl.digest(0xD15C_05ED);
    let b = wl.digest(0xD15C_05ED);
    assert_eq!(a.checkpoints(), b.checkpoints(), "checkpoint hashes differ");
    assert_eq!(a.final_hash(), b.final_hash(), "final digests differ");
    assert_eq!(
        first_divergence(&a, &b),
        None,
        "same-seed runs must not diverge"
    );
    // And the packaged double-run entry point agrees.
    assert_eq!(
        self_check(0xD15C_05ED, |s| wl.digest(s)).expect("deterministic"),
        a.final_hash()
    );
}

#[test]
fn mixed_multivf_different_seeds_report_first_divergence() {
    let wl = MixedVfSelfCheck::default();
    let d = first_divergence(&wl.digest(3), &wl.digest(4))
        .expect("different seeds must produce different event streams");
    // The report must name a concrete first diverging event, not just
    // "hashes differ".
    match &d {
        Divergence::Event { a, b, .. } => {
            assert_eq!(a.seq, b.seq, "events compared at the same index");
            assert!(a.label.starts_with("vf"), "event labels carry the VF");
        }
        Divergence::Length { next, .. } => assert!(next.label.starts_with("vf")),
        other => panic!("expected an event-level divergence, got: {other}"),
    }
    assert!(d.to_string().contains("diverg"), "report: {d}");
}

#[test]
fn mistranslated_vlba_passed_as_plba_is_caught_by_range_check() {
    // The Vlba/Plba newtypes (and lint rule T2) make "skipped the extent
    // walk" hard to write; this pins the *runtime* backstop behind them.
    // A guest block index smuggled untranslated into the PF's physical
    // space lands outside the device and must complete OutOfRange without
    // touching media — while the same index, properly translated to an
    // in-range pLBA, succeeds.
    let horizon = SimTime::from_nanos(u64::MAX / 4);
    let mem = Rc::new(RefCell::new(HostMemory::new()));
    let mut cfg = NescConfig::prototype();
    cfg.capacity_blocks = 4096;
    let mut dev = NescDevice::new(cfg, Rc::clone(&mem));
    let buf = mem.borrow_mut().alloc(BLOCK_SIZE, 8);

    // The deliberate bug: an identity conversion stands in for the real
    // extent-walk translation of a guest address beyond PF capacity.
    let guest_vlba = Vlba(10_000);
    let smuggled = guest_vlba.identity_plba();
    dev.submit_pf(
        SimTime::ZERO,
        BlockRequest::new(RequestId(1), BlockOp::Write, smuggled, 1),
        buf,
    );
    let outs = dev.advance(horizon);
    assert!(
        matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::OutOfRange,
                ..
            })
        ),
        "untranslated guest address must be rejected, got {outs:?}"
    );

    // A genuinely translated in-range physical address sails through.
    dev.submit_pf(
        SimTime::ZERO,
        BlockRequest::new(RequestId(2), BlockOp::Write, Plba(100), 1),
        buf,
    );
    let outs = dev.advance(horizon);
    assert!(
        matches!(
            outs.last(),
            Some(NescOutput::Completion {
                status: CompletionStatus::Ok,
                ..
            })
        ),
        "translated request must succeed, got {outs:?}"
    );
}

#[test]
fn different_seeds_differ() {
    // Sanity check that determinism is seed-scoped, not accidental
    // constantness.
    let run = |seed| {
        let (mut sys, _vm, disk) = system_with_disk(DiskKind::NescDirect, 32 << 20);
        FileIo {
            files: 3,
            file_bytes: 128 * 1024,
            ops: 30,
            seed,
            ..Default::default()
        }
        .run(&mut TenantIo::attached(&mut sys, disk))
        .elapsed
    };
    assert_ne!(run(1), run(2));
}
