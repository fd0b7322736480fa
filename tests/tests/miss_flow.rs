//! The translation-miss protocol (paper Fig. 5): write misses, pruned
//! mappings, mid-request stalls, allocation failure, and the RewalkTree
//! resume — end to end through the hypervisor's interrupt handler.

use nesc_extent::{Vlba, FANOUT};
use nesc_hypervisor::{DiskId, DiskKind, System};
use nesc_storage::BLOCK_SIZE;
use nesc_system_tests::{small_system, system_with_disk};
use nesc_workloads::{Oltp, Postmark, TenantIo, Workload};

/// A 4 MiB thin image whose first 512 blocks are allocated one at a time,
/// interleaved with another file, so its tree has 26 leaves under a root
/// (prunable); the rest of the image is a hole.
fn fragmented_disk() -> (System, nesc_fs::Ino, DiskId) {
    let mut sys = small_system();
    let vm = sys.create_vm();
    let img = sys.create_image("frag.img", 4 << 20, false).unwrap();
    let other = sys.create_image("interleave.img", 4 << 20, false).unwrap();
    for b in 0..512u64 {
        sys.host_fs_mut().allocate_range(img, Vlba(b), 1).unwrap();
        sys.host_fs_mut().allocate_range(other, Vlba(b), 1).unwrap();
    }
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    (sys, img, disk)
}

#[test]
fn write_miss_allocates_exactly_the_needed_range() {
    let mut sys = small_system();
    let vm = sys.create_vm();
    let img = sys.create_image("thin.img", 8 << 20, false).unwrap();
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));

    sys.write(disk, 100 * BLOCK_SIZE, &vec![1u8; 4 * BLOCK_SIZE as usize]);
    let tree = sys.host_fs().extent_tree(img).unwrap();
    assert_eq!(tree.mapped_blocks(), 4, "only the touched range allocates");
    assert!(tree.lookup(Vlba(100)).is_some());
    assert!(tree.lookup(Vlba(99)).is_none());
    assert!(tree.lookup(Vlba(104)).is_none());
}

#[test]
fn mid_request_miss_resumes_and_completes_whole_request() {
    // A request straddling mapped and unmapped space: blocks before the
    // miss transfer, the device stalls at the boundary, and after the
    // rewalk the remainder completes — one completion for the guest.
    let mut sys = small_system();
    let vm = sys.create_vm();
    let img = sys.create_image("straddle.img", 8 << 20, false).unwrap();
    // Preallocate only the first 2 blocks of the range we'll write.
    sys.host_fs_mut().allocate_range(img, Vlba(0), 2).unwrap();
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));

    let data: Vec<u8> = (0..8 * BLOCK_SIZE).map(|i| (i % 250) as u8).collect();
    sys.write(disk, 0, &data);
    assert_eq!(sys.device().stats().miss_interrupts, 1);

    let mut out = vec![0u8; data.len()];
    sys.read(disk, 0, &mut out);
    assert_eq!(out, data, "the straddling write must be complete and exact");
    assert_eq!(sys.host_fs().extent_tree(img).unwrap().mapped_blocks(), 8);
}

#[test]
fn consecutive_misses_each_resolve() {
    let mut sys = small_system();
    let vm = sys.create_vm();
    let img = sys.create_image("multi.img", 8 << 20, false).unwrap();
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    // Touch five disjoint unmapped regions.
    for i in 0..5u64 {
        sys.write(disk, i * (1 << 20), &vec![i as u8 + 1; 2048]);
    }
    assert_eq!(sys.device().stats().miss_interrupts, 5);
    for i in 0..5u64 {
        let mut out = vec![0u8; 2048];
        sys.read(disk, i * (1 << 20), &mut out);
        assert!(out.iter().all(|&b| b == i as u8 + 1), "region {i}");
    }
}

#[test]
fn miss_size_covers_the_unmapped_run() {
    // The device reports the full unmapped run in MissSize so the host can
    // allocate once, not once per block (paper §V: MissAddress/MissSize).
    let mut sys = small_system();
    let vm = sys.create_vm();
    let img = sys.create_image("runlen.img", 8 << 20, false).unwrap();
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    sys.write(disk, 0, &vec![7u8; 16 * BLOCK_SIZE as usize]);
    // One interrupt was enough for the whole 16-block run.
    assert_eq!(sys.device().stats().miss_interrupts, 1);
}

#[test]
fn quota_exhaustion_surfaces_as_write_failure() {
    // A device too small for the guest's appetite: the hypervisor cannot
    // allocate, signals the device, and the VF raises a write-failure
    // completion (paper §IV-C) — visible as a failed request, with the
    // system still alive afterwards.
    let mut sys = small_system();
    let vm = sys.create_vm();
    // Logical image far larger than the 64 MiB device.
    let img = sys.create_image("huge.img", 1 << 40, false).unwrap();
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    // Fill the physical device via another file.
    let hog = sys.create_image("hog.img", 60 << 20, true).unwrap();
    let _ = hog;

    // This write cannot be backed.
    let free = sys.host_fs().free_blocks();
    let want = (free + 10) * BLOCK_SIZE;
    assert!(want < 4 << 20, "test assumes a small remaining pool");
    let failed = sys.try_write(disk, 0, &vec![1u8; want as usize]);
    assert!(failed.is_err(), "write beyond free space must fail");

    // The system keeps working for well-behaved traffic.
    let (ok_vm, ok_disk) = (vm, disk);
    let _ = ok_vm;
    let small = vec![2u8; 1024];
    let lat = sys.write(ok_disk, 0, &small);
    assert!(lat.as_nanos() > 0);
}

#[test]
fn pruned_read_and_write_both_recover() {
    let (mut sys, _img, disk) = fragmented_disk();
    let data = vec![0x3Cu8; 8 * BLOCK_SIZE as usize];
    sys.write(disk, 0, &data);

    // Prune, then *read* — recovers via interrupt.
    assert!(sys.prune_image_mapping(disk, Vlba(0)));
    let mut out = vec![0u8; data.len()];
    sys.read(disk, 0, &mut out);
    assert_eq!(out, data);

    // Prune again, then *write* — also recovers.
    assert!(sys.prune_image_mapping(disk, Vlba(0)));
    let data2 = vec![0x4Du8; 8 * BLOCK_SIZE as usize];
    sys.write(disk, 0, &data2);
    sys.read(disk, 0, &mut out);
    assert_eq!(out, data2);
}

#[test]
fn virtio_path_never_raises_device_misses() {
    // Sparse images on the paravirtual path are the *host's* problem; the
    // device only ever sees PF traffic with real pLBAs.
    let (mut sys, _vm, disk) = system_with_disk(DiskKind::Virtio, 4 << 20);
    sys.write(disk, 1 << 20, &vec![9u8; 4096]);
    assert_eq!(sys.device().stats().miss_interrupts, 0);
}

#[test]
fn write_miss_elsewhere_restores_a_pruned_subtree() {
    // The miss handler republishes the tree in place; every internal node
    // is rewritten, so a NULL pointer a prune left in another subtree is
    // restored and that range reads without a MappingPruned miss.
    let (mut sys, _img, disk) = fragmented_disk();
    let data = vec![0x5Au8; 8 * BLOCK_SIZE as usize];
    sys.write(disk, 0, &data);
    assert!(sys.prune_image_mapping(disk, Vlba(0)));
    let misses = sys.device().stats().miss_interrupts;
    sys.write(disk, 2048 * BLOCK_SIZE, &[7u8; 1024]);
    assert_eq!(sys.device().stats().miss_interrupts, misses + 1);
    let mut out = vec![0u8; data.len()];
    sys.read(disk, 0, &mut out);
    assert_eq!(out, data);
    assert_eq!(
        sys.device().stats().miss_interrupts,
        misses + 1,
        "the pruned range must read without another miss"
    );
}

#[test]
fn host_fs_changes_between_misses_reach_the_device() {
    // A host-side mutation that is not a miss (a hole punched through
    // `host_fs_mut`, in an earlier leaf than the next miss) is published
    // by that next miss: the tree is compared against what it last wrote,
    // not patched at the miss address.
    let (mut sys, img, disk) = fragmented_disk();
    let data = vec![0x6Bu8; 8 * BLOCK_SIZE as usize];
    sys.write(disk, 0, &data);
    sys.write(disk, 2048 * BLOCK_SIZE, &[1u8; 1024]);
    sys.host_fs_mut().punch_hole(img, Vlba(0), 8).unwrap();
    let before = sys.tree_publish_stats(disk);
    sys.write(disk, 3000 * BLOCK_SIZE, &[2u8; 1024]);
    let after = sys.tree_publish_stats(disk);
    assert_eq!(after.publishes, before.publishes + 1);
    assert_eq!(
        after.leaves_written - before.leaves_written,
        (512 - 8 + 2usize).div_ceil(FANOUT) as u64,
        "the change in leaf 0 rewrites every leaf from it on"
    );
    let misses = sys.device().stats().miss_interrupts;
    let mut out = vec![0xFFu8; data.len()];
    sys.read(disk, 0, &mut out);
    assert!(out.iter().all(|&b| b == 0), "the punched range is a hole");
    assert_eq!(sys.device().stats().miss_interrupts, misses);
    sys.read(disk, 2048 * BLOCK_SIZE, &mut out[..1024]);
    assert!(out[..1024].iter().all(|&b| b == 1));
}

/// Nodes of a tree of `extents` extents: FANOUT-packed leaves, then each
/// internal level.
fn tree_nodes(extents: usize) -> u64 {
    let mut level = extents.div_ceil(FANOUT).max(1);
    let mut nodes = level;
    while level > 1 {
        level = level.div_ceil(FANOUT);
        nodes += level;
    }
    nodes as u64
}

#[test]
fn thin_guest_run_keeps_tree_memory_to_its_largest_tree() {
    // A guest application on a thin image takes hundreds of write misses;
    // each republishes into the same node slots, so the host memory the
    // disk's tree occupies never exceeds the largest tree it published.
    let mut sys = small_system();
    let vm = sys.create_vm();
    let img = sys.create_image("apps.img", 32 << 20, false).unwrap();
    let disk = sys.attach(vm, DiskKind::NescDirect, Some(img));
    Oltp {
        rows: 2_000,
        transactions: 40,
        buffer_pool_pages: 8,
        ..Default::default()
    }
    .run(&mut TenantIo::attached(&mut sys, disk));
    Postmark {
        initial_files: 16,
        transactions: 40,
        max_file_bytes: 16 * 1024,
        ..Default::default()
    }
    .run(&mut TenantIo::attached(&mut sys, disk));
    let misses = sys.device().stats().miss_interrupts;
    let stats = sys.tree_publish_stats(disk);
    assert!(
        misses >= 50,
        "the run must exercise the miss path ({misses})"
    );
    assert_eq!(stats.publishes, misses + 1, "attach plus one per miss");
    let extents = sys.host_fs().extent_tree(img).unwrap().extent_count();
    assert!(stats.largest_tree_nodes >= tree_nodes(extents));
    assert!(
        stats.slots_allocated <= stats.largest_tree_nodes,
        "{} slots for a largest tree of {} nodes",
        stats.slots_allocated,
        stats.largest_tree_nodes
    );
    assert!(
        stats.leaves_written < stats.publishes * tree_nodes(extents),
        "republishing must not rewrite every leaf"
    );
}
