//! Datacenter-scale tenancy: the scenario engine.
//!
//! A [`ScenarioSpec`] declares tenant populations (class, count, traffic
//! shape, working-set skew, SLO); [`Scenario`] compiles that declaration
//! into a single deterministic run:
//!
//! 1. **Provision** — one system sized for the whole fleet (sparse
//!    backing makes a thousand 1 MiB disks free until written), one VM +
//!    VF + preallocated image per tenant, per-tenant QoS priority, and
//!    one SLO watchdog rule per tenant that declared a p99 bound.
//! 2. **Generate** — every tenant gets a private RNG lane forked from
//!    the scenario seed, a [`BurstyArrivals`] inter-arrival process
//!    matching its class, and a [`ZipfLike`] working-set sampler over its
//!    own disk. The per-tenant tapes are merged into one time-sorted
//!    open-loop arrival tape.
//! 3. **Replay** — [`System::run_open_loop`] issues the tape; completions
//!    fold into per-tenant latency histograms and a [`RunDigest`] so two
//!    runs of the same spec can be diffed event-by-event.
//!
//! The [`ScenarioReport`] carries per-tenant latency outcomes plus two
//! fleet-level fairness measures, both integer-valued so emitted JSON is
//! byte-stable: the Jain index over per-tenant mean latency (1000 =
//! perfectly even) and a Lorenz-style cumulative latency-share curve
//! (how much of the total latency "pain" the luckiest k/10 of tenants
//! absorb).

use std::fmt;

use nesc_core::{CompletionStatus, FuncId};
use nesc_hypervisor::{
    NescError, OpenRequest, ScenarioSpec, System, SystemBuilder, TelemetryConfig, TelemetryWork,
    TenantClass,
};
use nesc_sim::selfcheck::fnv1a_word;
use nesc_sim::{BurstyArrivals, Histogram, RunDigest, SimDuration, SimRng, SimTime, ZipfLike};
use nesc_storage::BlockOp;

/// Why a scenario could not be compiled or provisioned.
///
/// Every spec-level inconsistency is reported before any simulated work
/// happens, so a bad declaration costs nothing and panics nowhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// The spec declares no tenants at all (or only populations of
    /// count 0).
    NoTenants,
    /// More tenants than the 16-bit function space can address (the PF
    /// and one spare slot are reserved).
    TooManyTenants {
        /// Declared tenant count.
        count: usize,
        /// Largest supported fleet.
        max: usize,
    },
    /// A population declares zero requests or zero-byte requests.
    EmptyTenantSpec {
        /// Index of the offending population in declaration order.
        population: usize,
    },
    /// A population's disk cannot hold even one of its requests.
    DiskTooSmall {
        /// Index of the offending population in declaration order.
        population: usize,
        /// Declared disk size in bytes.
        disk_bytes: u64,
        /// Declared request size in bytes.
        req_bytes: u64,
    },
    /// Provisioning a tenant's VM + image + VF failed.
    Provision {
        /// Global tenant index.
        tenant: usize,
        /// The underlying system error.
        source: NescError,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::NoTenants => write!(f, "scenario has no tenants"),
            ScenarioError::TooManyTenants { count, max } => {
                write!(f, "{count} tenants exceed the VF space (max {max})")
            }
            ScenarioError::EmptyTenantSpec { population } => {
                write!(f, "tenant population {population} declares no work")
            }
            ScenarioError::DiskTooSmall {
                population,
                disk_bytes,
                req_bytes,
            } => write!(
                f,
                "tenant population {population}: {disk_bytes} B disk cannot hold one {req_bytes} B request"
            ),
            ScenarioError::Provision { tenant, source } => {
                write!(f, "provisioning tenant {tenant} failed: {source}")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Provision { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Latency and volume outcome for one tenant.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Global tenant index (== disk index == `hv.vf<d>` series index).
    pub tenant: u32,
    /// The tenant's behavior class.
    pub class: TenantClass,
    /// Requests completed.
    pub requests: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Mean completion latency in nanoseconds.
    pub mean_ns: u64,
    /// Median completion latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile completion latency in nanoseconds.
    pub p99_ns: u64,
    /// Worst completion latency in nanoseconds.
    pub max_ns: u64,
    /// Requests that completed with a non-OK status.
    pub errors: u64,
}

/// The fleet-level result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name (from the spec).
    pub name: String,
    /// Seed the run was generated from.
    pub seed: u64,
    /// Per-tenant outcomes, in tenant order.
    pub tenants: Vec<TenantOutcome>,
    /// Requests completed across the fleet.
    pub total_requests: u64,
    /// Payload bytes moved across the fleet.
    pub total_bytes: u64,
    /// First arrival to last completion.
    pub makespan: SimDuration,
    /// Jain fairness index over per-tenant mean latency, in permille
    /// (1000 = all tenants experience identical mean latency).
    pub jain_permille: u64,
    /// Lorenz curve of latency share: entry `k` is the permille of total
    /// per-tenant latency mass absorbed by the `k`/10 least-affected
    /// tenants (11 points, 0 ‰ at k=0 to 1000 ‰ at k=10).
    pub lorenz_permille: Vec<u64>,
    /// SLO watchdog anomalies emitted during the run.
    pub slo_violations: u64,
    /// Telemetry work counters of the run (windows, samples, lookups).
    pub telemetry_work: TelemetryWork,
    /// Final hash of the run's event digest (replay fingerprint).
    pub digest: u64,
}

impl ScenarioReport {
    /// Aggregate p99 (worst per-tenant p99) over one tenant class, in
    /// nanoseconds. Returns 0 if no tenant has that class.
    pub fn class_worst_p99_ns(&self, class: TenantClass) -> u64 {
        self.tenants
            .iter()
            .filter(|t| t.class == class)
            .map(|t| t.p99_ns)
            .max()
            .unwrap_or(0)
    }

    /// Number of tenants in one class.
    pub fn class_count(&self, class: TenantClass) -> u64 {
        self.tenants.iter().filter(|t| t.class == class).count() as u64
    }
}

/// One generated arrival, pre-merge.
struct TaggedArrival {
    req: OpenRequest,
    tenant: u32,
}

/// The scenario engine: compiles a [`ScenarioSpec`] and replays it.
#[derive(Debug, Clone)]
pub struct Scenario {
    spec: ScenarioSpec,
}

impl Scenario {
    /// Wraps a spec.
    pub fn new(spec: ScenarioSpec) -> Self {
        Scenario { spec }
    }

    /// The spec being run.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The paper-scale mixed fleet: 850 steady + 100 bursty + 50 noisy
    /// neighbors = 1000 tenant VFs on one controller.
    pub fn datacenter_mix() -> Self {
        Scenario::new(
            ScenarioSpec::new("scale_mixed")
                .seed(0xD47A_CE17)
                .tenants(nesc_hypervisor::TenantSpec::steady(850).requests(56))
                .tenants(nesc_hypervisor::TenantSpec::bursty(100).requests(48))
                .tenants(nesc_hypervisor::TenantSpec::noisy(50).requests(96)),
        )
    }

    /// Runs the scenario.
    ///
    /// # Errors
    ///
    /// A [`ScenarioError`] on an empty or inconsistent spec (no tenants,
    /// requests of zero count or size, a disk smaller than one request,
    /// more tenants than the VF table can hold) or a provisioning
    /// failure; nothing is simulated in that case.
    pub fn run(&self) -> Result<ScenarioReport, ScenarioError> {
        Ok(self.run_with_digest()?.0)
    }

    /// Runs the scenario, also returning the full event digest for
    /// replay diffing ([`nesc_sim::selfcheck::first_divergence`]).
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_with_digest(&self) -> Result<(ScenarioReport, RunDigest), ScenarioError> {
        let spec = &self.spec;
        let flat = self.flatten()?;
        let n = flat.len();
        let max = u16::MAX as usize - 2;
        if n > max {
            return Err(ScenarioError::TooManyTenants { count: n, max });
        }

        let mut sys = self.build_system(&flat);
        let base = self.provision(&mut sys, &flat)?;
        let (arrivals, tenant_of) = self.generate_tape(&flat, base);

        // --- Replay. ---
        let mut digest = RunDigest::new(4096);
        let mut hists: Vec<Histogram> = (0..n).map(|_| Histogram::new()).collect();
        let mut errors = vec![0u64; n];
        let mut completed = vec![0u64; n];
        sys.run_open_loop(&arrivals, |i, done, latency, status| {
            let t = tenant_of[i] as usize;
            hists[t].record(latency.as_nanos());
            completed[t] += 1;
            if status != CompletionStatus::Ok {
                errors[t] += 1;
            }
            let payload = fnv1a_word(t as u64, latency.as_nanos());
            digest.record(done, "req", fnv1a_word(payload, status as u64));
        });
        sys.telemetry_finish();
        let slo_violations = sys.telemetry().map_or(0, |t| t.anomalies().len() as u64);
        let telemetry_work = sys.telemetry().map(|t| t.work()).unwrap_or_default();
        digest.section("slo_violations", slo_violations);
        let makespan = sys.now().saturating_since(base);

        // --- Fold outcomes. ---
        let tenants: Vec<TenantOutcome> = flat
            .iter()
            .enumerate()
            .map(|(t, spec_t)| {
                let h = &hists[t];
                TenantOutcome {
                    tenant: t as u32,
                    class: spec_t.class,
                    requests: completed[t],
                    bytes: completed[t] * spec_t.req_bytes,
                    mean_ns: h.mean() as u64,
                    p50_ns: h.percentile(50.0),
                    p99_ns: h.percentile(99.0),
                    max_ns: h.max(),
                    errors: errors[t],
                }
            })
            .collect();
        let total_requests = tenants.iter().map(|t| t.requests).sum();
        let total_bytes = tenants.iter().map(|t| t.bytes).sum();
        let jain_permille = jain_permille(tenants.iter().map(|t| t.mean_ns));
        let lorenz_permille = lorenz_permille(
            tenants
                .iter()
                .map(|t| t.mean_ns as u128 * t.requests as u128),
        );
        digest.section("jain", jain_permille);

        let report = ScenarioReport {
            name: spec.name.clone(),
            seed: spec.seed,
            tenants,
            total_requests,
            total_bytes,
            makespan,
            jain_permille,
            lorenz_permille,
            slo_violations,
            telemetry_work,
            digest: digest.final_hash(),
        };
        Ok((report, digest))
    }

    /// Tenant populations flattened to one spec per tenant, in VF order.
    fn flatten(&self) -> Result<Vec<&nesc_hypervisor::TenantSpec>, ScenarioError> {
        let mut flat = Vec::new();
        for (population, pop) in self.spec.tenants.iter().enumerate() {
            if pop.req_bytes == 0 || pop.requests == 0 {
                return Err(ScenarioError::EmptyTenantSpec { population });
            }
            if pop.disk_bytes < pop.req_bytes {
                return Err(ScenarioError::DiskTooSmall {
                    population,
                    disk_bytes: pop.disk_bytes,
                    req_bytes: pop.req_bytes,
                });
            }
            for _ in 0..pop.count {
                flat.push(pop);
            }
        }
        if flat.is_empty() {
            return Err(ScenarioError::NoTenants);
        }
        Ok(flat)
    }

    /// Builds the system: capacity for every image, VF table headroom,
    /// telemetry + one declarative SLO rule per bounded tenant.
    fn build_system(&self, flat: &[&nesc_hypervisor::TenantSpec]) -> System {
        let spec = &self.spec;
        let image_blocks: u64 = flat.iter().map(|t| t.disk_bytes.div_ceil(1024)).sum();
        let rules: Vec<String> = flat
            .iter()
            .enumerate()
            .filter_map(|(t, s)| {
                s.slo_p99
                    .map(|bound| format!("hv.vf{t}.p99_ns above {} for 2", bound.as_nanos()))
            })
            .collect();
        let mut tel =
            TelemetryConfig::windowed(spec.telemetry_interval).capacity(spec.telemetry_capacity);
        if let Some(fc) = spec.flight {
            tel = tel.flight(fc);
        }
        SystemBuilder::new()
            .capacity_blocks(image_blocks * 2 + 64 * 1024)
            .max_vfs((flat.len() + 2) as u16)
            .telemetry(tel)
            .slo_rules(rules)
            .build()
    }

    /// Provisions every tenant (VM + preallocated image + VF + priority)
    /// and returns the tape origin time.
    fn provision(
        &self,
        sys: &mut System,
        flat: &[&nesc_hypervisor::TenantSpec],
    ) -> Result<SimTime, ScenarioError> {
        for (t, s) in flat.iter().enumerate() {
            let p = sys
                .try_quick_disk(
                    self.spec.disk_kind,
                    &format!("tenant_{t:04}.img"),
                    s.disk_bytes,
                )
                .map_err(|source| ScenarioError::Provision { tenant: t, source })?;
            // The SLO rules built above assume disk index == tenant index.
            debug_assert_eq!(p.disk.0, t, "tenant/disk numbering out of sync");
            if let Some(FuncId(f)) = sys.disk_vf(p.disk) {
                let set = sys.device_mut().set_priority(FuncId(f), s.priority);
                debug_assert!(set.is_ok(), "freshly provisioned VF is live");
            }
        }
        Ok(sys.now())
    }

    /// Generates and merges the per-tenant arrival tapes.
    fn generate_tape(
        &self,
        flat: &[&nesc_hypervisor::TenantSpec],
        base: SimTime,
    ) -> (Vec<OpenRequest>, Vec<u32>) {
        let mut master = SimRng::seed(self.spec.seed);
        let mut tape: Vec<TaggedArrival> = Vec::new();
        for (t, s) in flat.iter().enumerate() {
            let mut lane = master.fork(t as u64);
            let mut pick = lane.fork(1);
            let mut arrivals = match s.class {
                TenantClass::Bursty => {
                    BurstyArrivals::bursty(lane.fork(2), s.gap, s.idle_gap, s.mean_burst)
                }
                TenantClass::Steady | TenantClass::NoisyNeighbor => {
                    BurstyArrivals::steady(lane.fork(2), s.gap)
                }
            };
            let slots = s.disk_bytes / s.req_bytes;
            let zipf = ZipfLike::new(slots, s.hot_permille, s.weight_permille);
            let disk = nesc_hypervisor::DiskId(t);
            let mut at = base;
            for _ in 0..s.requests {
                at += arrivals.next_gap();
                let offset = zipf.sample(&mut pick) * s.req_bytes;
                let op = if pick.range(0, 1000) < s.write_permille {
                    BlockOp::Write
                } else {
                    BlockOp::Read
                };
                tape.push(TaggedArrival {
                    req: OpenRequest {
                        disk,
                        op,
                        offset,
                        bytes: s.req_bytes,
                        at,
                    },
                    tenant: t as u32,
                });
            }
        }
        // Stable sort on (time, tenant): deterministic global order that
        // preserves each tenant's own sequence.
        tape.sort_by_key(|a| (a.req.at, a.tenant));
        let tenant_of = tape.iter().map(|a| a.tenant).collect();
        let arrivals = tape.into_iter().map(|a| a.req).collect();
        (arrivals, tenant_of)
    }
}

/// Jain fairness index in permille over any positive metric: `(Σx)² /
/// (n·Σx²)`, all in integer arithmetic. 1000 means every tenant sees the
/// same value; `1000/n` means one tenant absorbs everything.
fn jain_permille(xs: impl Iterator<Item = u64>) -> u64 {
    let (mut sum, mut sq, mut n) = (0u128, 0u128, 0u128);
    for x in xs {
        let x = x as u128;
        sum += x;
        sq += x * x;
        n += 1;
    }
    if n == 0 || sq == 0 {
        return 1000;
    }
    (sum * sum * 1000 / (n * sq)) as u64
}

/// Lorenz curve in permille: sorts the per-tenant masses ascending and
/// reports the cumulative share held by the first `k`/10 of tenants, for
/// `k` in `0..=10`.
fn lorenz_permille(xs: impl Iterator<Item = u128>) -> Vec<u64> {
    let mut v: Vec<u128> = xs.collect();
    v.sort_unstable();
    let total: u128 = v.iter().sum();
    if v.is_empty() || total == 0 {
        return vec![0; 11];
    }
    let mut curve = Vec::with_capacity(11);
    for k in 0..=10u64 {
        let take = (v.len() as u64 * k / 10) as usize;
        let mass: u128 = v[..take].iter().sum();
        curve.push((mass * 1000 / total) as u64);
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;
    use nesc_hypervisor::TenantSpec;
    use nesc_sim::selfcheck::{first_divergence, self_check};
    use nesc_sim::Divergence;

    /// A reduced fleet that keeps test runtime low while still mixing
    /// all three classes across several priority levels.
    fn small_mix(seed: u64) -> Scenario {
        Scenario::new(
            ScenarioSpec::new("test_mix")
                .seed(seed)
                .tenants(TenantSpec::steady(12).requests(10))
                .tenants(TenantSpec::bursty(4).requests(8))
                .tenants(TenantSpec::noisy(2).requests(12)),
        )
    }

    #[test]
    fn mixed_scenario_completes_every_request() {
        let rep = small_mix(7).run().expect("valid spec");
        assert_eq!(rep.tenants.len(), 18);
        assert_eq!(rep.total_requests, 12 * 10 + 4 * 8 + 2 * 12);
        assert!(rep.tenants.iter().all(|t| t.errors == 0));
        assert!(rep.makespan > SimDuration::ZERO);
        assert!(rep.jain_permille > 0 && rep.jain_permille <= 1000);
        assert_eq!(rep.lorenz_permille.len(), 11);
        assert_eq!(rep.lorenz_permille[0], 0);
        assert_eq!(rep.lorenz_permille[10], 1000);
        assert!(rep.lorenz_permille.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn same_seed_is_replay_identical() {
        let hash = self_check(21, |s| {
            small_mix(s).run_with_digest().expect("valid spec").1
        })
        .expect("same spec, same seed: no divergence");
        assert_ne!(hash, 0);
    }

    #[test]
    fn different_seeds_diverge() {
        let (ra, da) = small_mix(1).run_with_digest().expect("valid spec");
        let (rb, db) = small_mix(2).run_with_digest().expect("valid spec");
        assert_ne!(ra.digest, rb.digest);
        match first_divergence(&da, &db).expect("different tapes must diverge") {
            Divergence::Event { a, .. } => assert_eq!(a.label, "req"),
            other => panic!("expected an event divergence, got {other}"),
        }
    }

    #[test]
    fn demoting_noisy_neighbors_protects_steady_tenants() {
        // The declarative priority knob must reach the device QoS mux:
        // steady tenants can only do better (or equal) when the noisy
        // class is demoted below them instead of promoted above them.
        let run = |noisy_priority: u8| {
            Scenario::new(
                ScenarioSpec::new("prio")
                    .seed(11)
                    .tenants(TenantSpec::steady(6).requests(24))
                    .tenants(TenantSpec::noisy(4).requests(48).priority(noisy_priority)),
            )
            .run()
            .expect("valid spec")
        };
        let demoted = run(2).class_worst_p99_ns(TenantClass::Steady);
        let promoted = run(0).class_worst_p99_ns(TenantClass::Steady);
        assert!(demoted > 0 && promoted > 0);
        assert!(
            demoted <= promoted,
            "steady p99 {demoted} ns with noisy demoted should not exceed {promoted} ns with noisy promoted"
        );
    }

    #[test]
    fn slo_rules_fire_when_bound_is_impossible() {
        // A 1 ns p99 bound is unmeetable: the watchdog must report it.
        // Window sized so every telemetry window holds requests (the
        // "for 2" clause needs consecutive non-empty windows).
        let rep = Scenario::new(
            ScenarioSpec::new("slo")
                .seed(3)
                .telemetry(SimDuration::from_millis(30), 64)
                .tenants(
                    TenantSpec::steady(2)
                        .requests(40)
                        .slo_p99(Some(SimDuration::from_nanos(1))),
                ),
        )
        .run()
        .expect("valid spec");
        assert!(rep.slo_violations > 0, "unmeetable SLO must trip");
    }

    #[test]
    fn fairness_math() {
        assert_eq!(jain_permille([5, 5, 5, 5].into_iter()), 1000);
        // One tenant absorbs everything: 1000/n.
        assert_eq!(jain_permille([8, 0, 0, 0].into_iter()), 250);
        assert_eq!(jain_permille(std::iter::empty()), 1000);
        let curve = lorenz_permille([1u128, 1, 1, 1].into_iter());
        assert_eq!(curve[5], 500);
        let skewed = lorenz_permille([0u128, 0, 0, 97].into_iter());
        assert!(skewed[7] == 0 && skewed[10] == 1000);
    }
}
