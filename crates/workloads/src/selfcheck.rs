//! Mixed multi-VF divergence-check workload.
//!
//! The workload half of the runtime determinism backstop: a seeded mix of
//! reads and writes spread across several NeSC virtual functions, with
//! tracing on, digested into a [`RunDigest`]. Running it twice through
//! [`nesc_sim::selfcheck::self_check`] must produce identical digests;
//! any difference is a determinism bug the static linter (`nesc-lint`)
//! missed, and the digest names the first diverging event.
//!
//! This intentionally exercises the *breadth* of the system rather than
//! one path: multiple VFs (so the round-robin scheduler and per-function
//! state interleave), both operations (so the write payload path and the
//! read extraction path both run), tracing enabled (so the span tree is
//! part of the compared surface), and telemetry with the flight recorder
//! folded in at the end.

use nesc_hypervisor::{DiskId, DiskKind, System, SystemBuilder, TelemetryConfig};
use nesc_sim::selfcheck::{fnv1a, RunDigest};
use nesc_sim::{perfmon, FlightConfig, SimDuration, SimRng};
use nesc_storage::BlockOp;

/// Configuration for the mixed multi-VF self-check run.
#[derive(Debug, Clone, Copy)]
pub struct MixedVfSelfCheck {
    /// Number of NeSC virtual functions (one per guest VM).
    pub vfs: usize,
    /// Total requests across all VFs.
    pub requests: u64,
    /// Request size in bytes (must be block-aligned).
    pub io_bytes: u64,
    /// Per-disk virtual size in bytes.
    pub disk_bytes: u64,
    /// Fraction of requests that are reads, in percent (0..=100).
    pub read_percent: u64,
    /// Digest checkpoint cadence (records per checkpoint).
    pub checkpoint_every: usize,
}

impl Default for MixedVfSelfCheck {
    fn default() -> Self {
        MixedVfSelfCheck {
            vfs: 3,
            requests: 96,
            io_bytes: 8192,
            disk_bytes: 4 << 20,
            read_percent: 60,
            checkpoint_every: 16,
        }
    }
}

impl MixedVfSelfCheck {
    /// Builds the system and runs the seeded request mix, returning the
    /// run's digest. Everything observable goes into the digest: one
    /// record per request completion (VF, op, offset, latency, payload
    /// hash for reads), every span, the span-tree shape, the perfmon time
    /// series, the flight recorder and the forensic dump.
    pub fn digest(&self, seed: u64) -> RunDigest {
        let mut sys = SystemBuilder::new()
            .capacity_blocks((self.disk_bytes / 512) * (self.vfs as u64 + 1))
            .max_vfs(self.vfs as u16 + 2)
            .tracing(true)
            .telemetry(
                TelemetryConfig::windowed(SimDuration::from_micros(50))
                    .capacity(4096)
                    .rule_text("hv.vf0.requests above 0 for 3")
                    .flight(FlightConfig::default()),
            )
            .build();
        let disks: Vec<DiskId> = (0..self.vfs)
            .map(|i| {
                sys.quick_disk(DiskKind::NescDirect, &format!("vf{i}.img"), self.disk_bytes)
                    .disk
            })
            .collect();

        let mut rng = SimRng::seed(seed);
        let mut digest = RunDigest::new(self.checkpoint_every);
        let slots = self.disk_bytes / self.io_bytes;
        let payload: Vec<u8> = (0..self.io_bytes).map(|i| (i % 251) as u8).collect();
        let mut read_buf = vec![0u8; self.io_bytes as usize];

        for i in 0..self.requests {
            let vf = rng.range(0, self.vfs as u64) as usize;
            let offset = rng.range(0, slots) * self.io_bytes;
            let op = if rng.range(0, 100) < self.read_percent {
                BlockOp::Read
            } else {
                BlockOp::Write
            };
            let (latency, data_hash) = match op {
                BlockOp::Write => (sys.write(disks[vf], offset, &payload), fnv1a(&payload)),
                BlockOp::Read => {
                    let l = sys.read(disks[vf], offset, &mut read_buf);
                    (l, fnv1a(&read_buf))
                }
            };
            let mut p = nesc_sim::selfcheck::fnv1a_word(data_hash, offset);
            p = nesc_sim::selfcheck::fnv1a_word(p, latency.as_nanos());
            p = nesc_sim::selfcheck::fnv1a_word(p, i);
            digest.record(sys.now(), format!("vf{vf}:{op}"), p);
        }

        // Close the final telemetry window (and with it the flight
        // recorder's exemplar window, which captures span subtrees) BEFORE
        // draining the tracer: `take_spans` is destructive.
        sys.telemetry_finish();
        digest.section("flight", sys.flight().digest_hash());
        let tel = sys.telemetry().expect("telemetry enabled");
        let forensic = tel
            .forensic_dump()
            .map(|d| fnv1a(serde_json::to_string(d).unwrap_or_default().as_bytes()))
            .unwrap_or(0);
        digest.section("forensic", forensic);
        digest.section("telemetry", perfmon::digest_hash(tel.sampler()));
        let spans = system_spans(&mut sys);
        digest.record_spans(&spans);
        digest.span_tree_section(&spans);
        digest
    }
}

/// Drains the system's recorded spans.
fn system_spans(sys: &mut System) -> Vec<nesc_sim::Span> {
    sys.take_spans()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_sim::selfcheck::{first_divergence, self_check};

    #[test]
    fn same_seed_digests_are_identical() {
        let wl = MixedVfSelfCheck {
            vfs: 2,
            requests: 24,
            ..MixedVfSelfCheck::default()
        };
        let hash = self_check(0xA11C_E5ED, |s| wl.digest(s)).expect("deterministic");
        assert_ne!(hash, 0);
    }

    #[test]
    fn different_seeds_diverge_with_named_event() {
        let wl = MixedVfSelfCheck {
            vfs: 2,
            requests: 24,
            ..MixedVfSelfCheck::default()
        };
        let d = first_divergence(&wl.digest(1), &wl.digest(2)).expect("seeds must differ");
        let msg = d.to_string();
        assert!(
            msg.contains("diverg"),
            "report should describe the divergence: {msg}"
        );
    }

    #[test]
    fn digest_covers_requests_and_spans() {
        let wl = MixedVfSelfCheck {
            vfs: 2,
            requests: 16,
            ..MixedVfSelfCheck::default()
        };
        let d = wl.digest(7);
        // At least one record per request plus the span stream.
        assert!(d.len() > 16, "digest too small: {} records", d.len());
    }
}
