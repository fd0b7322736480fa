#![warn(missing_docs)]

//! Hypervisor, guest VMs, and the storage virtualization paths.
//!
//! This crate assembles the full evaluated system of the NeSC paper
//! (Table I): a host whose filesystem lives on the NeSC physical function,
//! guest VMs whose virtual disks are image files on that filesystem, and
//! the four ways a guest (or the host itself) reaches storage that the
//! evaluation compares (Fig. 1):
//!
//! | path | paper name | model |
//! |------|------------|-------|
//! | [`DiskKind::NescDirect`] | NeSC VF direct assignment | guest driver → doorbell → VF; misses handled by the hypervisor's allocate-and-`RewalkTree` interrupt handler |
//! | [`DiskKind::Virtio`] | virtio | virtqueue kick → vmexit → host backend thread → host filesystem mapping → PF |
//! | [`DiskKind::Emulated`] | full device emulation | several trapped MMIO accesses + QEMU device model per request, then the virtio host path |
//! | [`DiskKind::HostRaw`] | Host (baseline) | the hypervisor's own stack straight to the PF |
//!
//! The CPU costs of every software layer are parameters ([`SoftwareCosts`])
//! calibrated so the *relative* behaviour matches the paper's measurements
//! (§VII): NeSC ≈ host, ~6× faster than virtio and ~20× faster than
//! emulation at small blocks, 2.5–3× virtio's bandwidth at 32 KiB, and
//! convergence at multi-megabyte requests.
//!
//! [`System`] exposes synchronous per-request I/O (latency experiments),
//! pipelined streams (bandwidth experiments), and a guest-filesystem layer
//! ([`GuestFilesystem`]) for the filesystem-overhead and application
//! benchmarks.
//!
//! # Facade
//!
//! Construct systems with [`SystemBuilder`] (or `System::builder()`), pull
//! the common names from [`prelude`], and handle failures through the one
//! public [`NescError`] enum:
//!
//! ```
//! use nesc_hypervisor::prelude::*;
//!
//! let mut sys = SystemBuilder::new().tracing(true).build();
//! let disk = sys.quick_disk(DiskKind::NescDirect, "data.img", 1 << 20).disk;
//! let latency = sys.write(disk, 0, &[7u8; 4096]);
//! assert!(latency > SimDuration::ZERO);
//! ```

pub mod builder;
pub mod costs;
pub mod error;
pub mod guestfs;
pub mod system;
pub mod telemetry;
pub mod workload;

pub use builder::SystemBuilder;
pub use costs::SoftwareCosts;
pub use error::NescError;
pub use guestfs::GuestFilesystem;
pub use system::{
    DiskId, DiskKind, OpenRequest, ProvisionedDisk, StreamResult, StreamSpec, System, VmId,
};
pub use telemetry::{Telemetry, TelemetryConfig, TelemetryWork};
pub use workload::{ScenarioSpec, TenantClass, TenantIo, TenantSpec, Workload, WorkloadReport};

/// One-stop imports for harnesses, examples, and tests.
///
/// Pulls in the facade types (builder, system handles, error enum), the
/// simulation time types, and the observability surface (tracer and
/// spans, telemetry sampler and SLO watchdog, flight recorder) so a
/// typical experiment needs a single `use`.
pub mod prelude {
    pub use crate::builder::SystemBuilder;
    pub use crate::costs::SoftwareCosts;
    pub use crate::error::NescError;
    pub use crate::guestfs::GuestFilesystem;
    pub use crate::system::{
        DiskId, DiskKind, OpenRequest, ProvisionedDisk, StreamResult, StreamSpec, System, VmId,
    };
    pub use crate::telemetry::{Telemetry, TelemetryConfig};
    pub use crate::workload::{
        ScenarioSpec, TenantClass, TenantIo, TenantSpec, Workload, WorkloadReport,
    };
    pub use nesc_core::NescConfig;
    pub use nesc_sim::{
        chrome_trace_json, AnomalyEvent, Exemplar, FlightConfig, FlightEvent, FlightEventKind,
        FlightHandle, Sampler, SimDuration, SimTime, SloRule, SloWatchdog, Span, SpanId, SpanTree,
        Tracer,
    };
    pub use nesc_storage::BlockOp;
}
