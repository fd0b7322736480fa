//! `fleet_slo`: the datacenter mix on NeSC-direct VFs, one p99 SLO rule
//! per steady or bursty tenant, 200 µs telemetry windows, the flight
//! recorder on, and a seeded open-loop tape replayed through
//! `System::run_open_loop`.
//!
//! This is the only workload where per-VF telemetry, the SLO watchdog,
//! provisioning of many VFs and multi-tenant queueing do the work.

use std::time::Instant;

use nesc_core::{CompletionStatus, FuncId};
use nesc_hypervisor::{
    DiskId, DiskKind, OpenRequest, System, SystemBuilder, TelemetryConfig, TenantClass, TenantSpec,
};
use nesc_sim::{BurstyArrivals, FlightConfig, Histogram, SimDuration, SimRng, SimTime, ZipfLike};
use nesc_storage::BlockOp;

use crate::outcome::{Ledger, Outcome, Pass};
use crate::probe::{self, Snapshot};
use crate::spans::{Spans, NONE};
use crate::util::{digest, loglog_slope, median, percentile, DIGEST_SEED};

/// Tenants in the measured fleet.
pub const VFS: u32 = 500;
/// Fleet sizes of the traced run's scaling ledger.
pub const SCALE_VFS: [u32; 3] = [125, 250, 500];
/// Repeats of each replay in the traced run's ablation ledger.
const ABLATION_REPEATS: usize = 3;
/// Telemetry window.
const WINDOW: SimDuration = SimDuration::from_micros(200);
/// Samples retained per telemetry series.
const RING: usize = 64;

/// Which observability layers a replay runs with.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// Perfmon sampler and SLO watchdog.
    pub telemetry: bool,
    /// Flight recorder (only meaningful with telemetry).
    pub flight: bool,
}

impl Layers {
    /// The workload as defined: telemetry and flight recorder on.
    pub const FULL: Layers = Layers {
        telemetry: true,
        flight: true,
    };
}

/// The 85 % steady / 10 % bursty / 5 % noisy mix at `vfs` tenants.
fn populations(vfs: u32) -> [TenantSpec; 3] {
    [
        TenantSpec::steady(vfs * 85 / 100).requests(56),
        TenantSpec::bursty(vfs / 10).requests(48),
        TenantSpec::noisy(vfs / 20).requests(96),
    ]
}

/// [`populations`] flattened to one spec per tenant, in VF order.
fn tenants(vfs: u32) -> Vec<TenantSpec> {
    populations(vfs)
        .into_iter()
        .flat_map(|p| std::iter::repeat_n(p.clone(), p.count as usize))
        .collect()
}

/// A provisioned fleet with its tape, ready to replay.
pub struct Fleet {
    sys: System,
    specs: Vec<TenantSpec>,
    tape: Vec<OpenRequest>,
    tenant_of: Vec<u32>,
    base: SimTime,
}

/// Builds the system, provisions every tenant and generates the tape.
pub fn setup(seed: u64, vfs: u32, layers: Layers, spans: &mut Spans) -> Fleet {
    let specs = tenants(vfs);
    let s = spans.open("provision.build", NONE, 0);
    let image_blocks: u64 = specs.iter().map(|t| t.disk_bytes.div_ceil(1024)).sum();
    let mut builder = SystemBuilder::new()
        .capacity_blocks(image_blocks * 2 + 64 * 1024)
        .max_vfs((specs.len() + 2) as u16);
    if layers.telemetry {
        let mut tel = TelemetryConfig::windowed(WINDOW).capacity(RING);
        if layers.flight {
            tel = tel.flight(FlightConfig::default());
        }
        let rules = specs.iter().enumerate().filter_map(|(t, s)| {
            s.slo_p99
                .map(|b| format!("hv.vf{t}.p99_ns above {} for 2", b.as_nanos()))
        });
        builder = builder.telemetry(tel).slo_rules(rules);
    }
    let mut sys = builder.build();
    spans.close(s);

    for (t, spec) in specs.iter().enumerate() {
        let s = spans.open("provision.disk", NONE, t as u64);
        let p = sys
            .try_quick_disk(
                DiskKind::NescDirect,
                &format!("tenant_{t:04}.img"),
                spec.disk_bytes,
            )
            .expect("the fleet's device is sized for every tenant image");
        assert_eq!(p.disk.0, t, "SLO rules assume disk index == tenant index");
        let Some(FuncId(f)) = sys.disk_vf(p.disk) else {
            panic!("a NeSC-direct disk has a VF")
        };
        sys.device_mut()
            .set_priority(FuncId(f), spec.priority)
            .expect("a freshly provisioned VF is live");
        spans.close(s);
    }
    let base = sys.now();

    let s = spans.open("tape.gen", NONE, 0);
    let (tape, tenant_of) = generate_tape(seed, &specs, base);
    spans.close(s);
    Fleet {
        sys,
        specs,
        tape,
        tenant_of,
        base,
    }
}

/// Per-tenant arrival processes and working-set samplers, merged into
/// one tape sorted by (time, tenant).
fn generate_tape(seed: u64, specs: &[TenantSpec], base: SimTime) -> (Vec<OpenRequest>, Vec<u32>) {
    let mut master = SimRng::seed(seed);
    let mut tape: Vec<(OpenRequest, u32)> = Vec::new();
    for (t, s) in specs.iter().enumerate() {
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
        let zipf = ZipfLike::new(
            s.disk_bytes / s.req_bytes,
            s.hot_permille,
            s.weight_permille,
        );
        let mut at = base;
        for _ in 0..s.requests {
            at += arrivals.next_gap();
            let offset = zipf.sample(&mut pick) * s.req_bytes;
            let op = if pick.range(0, 1000) < s.write_permille {
                BlockOp::Write
            } else {
                BlockOp::Read
            };
            let req = OpenRequest {
                disk: DiskId(t),
                op,
                offset,
                bytes: s.req_bytes,
                at,
            };
            tape.push((req, t as u32));
        }
    }
    tape.sort_by_key(|(r, t)| (r.at, *t));
    tape.into_iter().unzip()
}

/// What a replay leaves behind besides its outcome.
pub struct Replay {
    /// The simulated outcome.
    pub outcome: Outcome,
    /// Per tape entry: simulated latency in ns.
    pub latency_ns: Vec<u64>,
    /// Per tape entry: completion time in ns.
    pub done_ns: Vec<u64>,
    /// The replayed system, for counters.
    pub sys: System,
    /// The tape.
    pub tape: Vec<OpenRequest>,
}

/// Replays the tape, checking that every entry completes exactly once.
/// With spans on, each request's host time is the interval between its
/// completion callback and the previous one.
pub fn replay(fleet: Fleet, spans: &mut Spans) -> Replay {
    let Fleet {
        mut sys,
        specs,
        tape,
        tenant_of,
        base,
    } = fleet;
    let n = tape.len();
    let mut seen = vec![0u32; n];
    let mut latency_ns = vec![0u64; n];
    let mut done_ns = vec![0u64; n];
    let mut status_ok = vec![false; n];
    let root = spans.open("hv.run_open_loop", NONE, 0);
    let mut prev = Instant::now();
    sys.run_open_loop(&tape, |i, done, latency, status| {
        if let Some(slot) = seen.get_mut(i) {
            *slot += 1;
            latency_ns[i] = latency.as_nanos();
            done_ns[i] = done.as_nanos();
            status_ok[i] = status == CompletionStatus::Ok;
        }
        if root != NONE {
            let now = Instant::now();
            spans.push("hv.request", root, i as u64, prev, now);
            prev = now;
        }
    });
    let s = spans.open("telemetry.finish", root, 0);
    sys.telemetry_finish();
    spans.close(s);
    spans.close(root);

    let mut errors = Vec::new();
    let bad = seen.iter().filter(|&&c| c != 1).count();
    if bad > 0 {
        errors.push(format!("{bad} tape entries did not complete exactly once"));
    }
    let failed = (0..n).filter(|&i| seen[i] != 1 || !status_ok[i]).count() as u64;
    let mut hists: Vec<Histogram> = (0..specs.len()).map(|_| Histogram::new()).collect();
    let mut tenant_failed = vec![false; specs.len()];
    let mut h = DIGEST_SEED;
    for i in 0..n {
        let t = tenant_of[i] as usize;
        if status_ok[i] {
            hists[t].record(latency_ns[i]);
        } else {
            tenant_failed[t] = true;
        }
        h = digest(
            h,
            &[i as u64, done_ns[i], latency_ns[i], status_ok[i] as u64],
        );
    }
    let mut slo_declared = 0;
    let mut slo_met = 0;
    for (t, spec) in specs.iter().enumerate() {
        if let Some(bound) = spec.slo_p99 {
            slo_declared += 1;
            if !tenant_failed[t] && hists[t].percentile(99.0) <= bound.as_nanos() {
                slo_met += 1;
            }
        }
    }
    let mut latency = Histogram::new();
    for i in (0..n).filter(|&i| status_ok[i]) {
        latency.record(latency_ns[i]);
    }
    let sim_ns = sys.now().saturating_since(base).as_nanos();
    let outcome = Outcome {
        attempted: n as u64,
        failed,
        ops: latency.count(),
        latency,
        sim_ns,
        slo_declared,
        slo_met,
        digest: digest(h, &[sim_ns, slo_met]),
        errors,
    };
    Replay {
        outcome,
        latency_ns,
        done_ns,
        sys,
        tape,
    }
}

/// One timed pass: set-up, then the replay.
pub fn pass(seed: u64) -> Pass {
    let mut off = Spans::new(false);
    let t0 = Instant::now();
    let fleet = setup(seed, VFS, Layers::FULL, &mut off);
    let t1 = Instant::now();
    let r = replay(fleet, &mut off);
    let run_s = t1.elapsed().as_secs_f64();
    Pass {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s,
        outcome: r.outcome,
    }
}

/// Host seconds to replay a freshly set-up fleet, with its outcome.
fn timed_replay(seed: u64, vfs: u32, layers: Layers) -> (f64, Replay) {
    let mut off = Spans::new(false);
    let fleet = setup(seed, vfs, layers, &mut off);
    let t = Instant::now();
    let r = replay(fleet, &mut off);
    (t.elapsed().as_secs_f64(), r)
}

/// Digest of a replay with telemetry and the flight recorder off: it
/// must equal the full replay's, since telemetry is timing-invisible.
pub fn notel_digest(seed: u64) -> u64 {
    let layers = Layers {
        telemetry: false,
        flight: false,
    };
    timed_replay(seed, VFS, layers).1.outcome.digest
}

/// The traced run: spans around every layer call, then the ablations
/// (telemetry off, flight recorder off), the fleet-size scaling ledger,
/// and a cross-check against the library's own scenario engine.
pub fn traced(seed: u64, spans: &mut Spans, ledger: &mut Ledger) -> (Outcome, Vec<String>) {
    let mut errors = Vec::new();
    let fleet = setup(seed, VFS, Layers::FULL, spans);
    let before = Snapshot::take(&fleet.sys);
    let t_replay = Instant::now();
    let r = replay(fleet, spans);
    let traced_replay_s = t_replay.elapsed().as_secs_f64();
    let after = Snapshot::take(&r.sys);
    probe::record(ledger, &r.sys, &before, &after);
    // Interleaved repeats of the full replay and the two ablations; the
    // ledger takes the median of each, since the flight recorder's cost
    // is within one replay's run-to-run noise.
    let no_flight = Layers {
        telemetry: true,
        flight: false,
    };
    let no_telemetry = Layers {
        telemetry: false,
        flight: false,
    };
    let (mut full_t, mut noflight_t, mut notel_t) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ABLATION_REPEATS {
        let (secs, f) = timed_replay(seed, VFS, Layers::FULL);
        full_t.push(secs);
        if !f.outcome.same_outputs(&r.outcome) {
            errors.push("the traced replay differs from an untraced one".into());
        }
        for (name, layers, times) in [
            ("flight-off", no_flight, &mut noflight_t),
            ("telemetry-off", no_telemetry, &mut notel_t),
        ] {
            let (secs, other) = timed_replay(seed, VFS, layers);
            times.push(secs);
            if other.outcome.digest != f.outcome.digest {
                errors.push(format!("{name} replay changed the simulated outputs"));
            }
        }
    }
    let (full_s, noflight_s, notel_s) = (median(&full_t), median(&noflight_t), median(&notel_t));

    // Per-request host time, split by whether the completion closed a
    // telemetry window (the issue path polls when a completion crosses
    // the next window end).
    let mut plain = Vec::new();
    let mut window = Vec::new();
    let req_ns = spans.durations("hv.request");
    let mut next_due = WINDOW.as_nanos();
    for (i, &host_ns) in req_ns.iter().enumerate() {
        let done = r.done_ns.get(i).copied().unwrap_or(0);
        if done >= next_due {
            window.push(host_ns);
            next_due = (done / WINDOW.as_nanos() + 1) * WINDOW.as_nanos();
        } else {
            plain.push(host_ns);
        }
    }
    plain.sort_unstable();
    window.sort_unstable();

    // Scaling ledger: the same mix at smaller fleets.
    let mut points = Vec::new();
    for vfs in SCALE_VFS {
        let secs = if vfs == VFS {
            full_s
        } else {
            timed_replay(seed, vfs, Layers::FULL).0
        };
        points.push((vfs as f64, secs));
        ledger.insert(format!("scale.vfs{vfs}.replay_s"), secs);
    }

    // Cross-check the benchmark's tape and replay against the library's
    // scenario engine on the same spec and seed.
    let spec = populations(VFS)
        .into_iter()
        .fold(
            nesc_workloads::ScenarioSpec::new("fleet_slo").seed(seed),
            |s, p| s.tenants(p),
        )
        .flight(FlightConfig::default());
    let scenario = nesc_workloads::scenario::Scenario::new(spec);
    match scenario.run() {
        Ok(rep) => {
            let mut hists: Vec<Histogram> = (0..VFS).map(|_| Histogram::new()).collect();
            for (a, &l) in r.tape.iter().zip(&r.latency_ns) {
                hists[a.disk.0].record(l);
            }
            let mismatched = rep
                .tenants
                .iter()
                .zip(&hists)
                .filter(|(o, h)| o.p99_ns != h.percentile(99.0) || o.requests != h.count())
                .count();
            if mismatched > 0 || rep.total_requests != r.tape.len() as u64 {
                errors.push(format!(
                    "{mismatched} tenants differ from nesc_workloads::scenario on the same seed"
                ));
            }
            let anomalies = r.sys.telemetry().map_or(0, |t| t.anomalies().len() as u64);
            if rep.slo_violations != anomalies {
                errors.push("SLO watchdog anomaly count differs from the scenario engine".into());
            }
        }
        Err(e) => errors.push(format!("scenario engine refused the spec: {e}")),
    }

    // Queueing: latency minus the solo latency of the same op and size.
    let classes = [
        (BlockOp::Read, 4096),
        (BlockOp::Write, 4096),
        (BlockOp::Read, 16384),
        (BlockOp::Write, 16384),
    ];
    let builder = SystemBuilder::new().capacity_blocks(64 * 1024);
    let solo = probe::solo_ns(builder, DiskKind::NescDirect, 1 << 20, &classes);
    let mut waits: Vec<u64> = r
        .tape
        .iter()
        .zip(&r.latency_ns)
        .map(|(a, &l)| {
            let class = classes.iter().position(|&c| c == (a.op, a.bytes));
            l.saturating_sub(class.map_or(0, |c| solo[c]))
        })
        .collect();
    waits.sort_unstable();

    let tel = r.sys.telemetry().expect("the workload runs with telemetry");
    let windows = tel.sampler().closed_windows();
    let series = tel.sampler().series().len() as u64;
    let telemetry_s = noflight_s - notel_s;
    let flight_s = full_s - noflight_s;
    let n = r.tape.len() as f64;
    ledger.insert("hv.host_ns_per_req_notel".into(), notel_s * 1e9 / n);
    ledger.insert(
        "hv.plain_req_host_ns_p50".into(),
        percentile(&plain, 50.0) as f64,
    );
    ledger.insert(
        "hv.window_req_host_us_p50".into(),
        percentile(&window, 50.0) as f64 / 1e3,
    );
    ledger.insert("telemetry.host_s".into(), telemetry_s);
    ledger.insert(
        "telemetry.host_share_permille".into(),
        telemetry_s * 1000.0 / full_s.max(1e-9),
    );
    ledger.insert("telemetry.windows_closed".into(), windows as f64);
    ledger.insert("telemetry.series".into(), series as f64);
    ledger.insert("telemetry.samples".into(), (windows * series) as f64);
    ledger.insert(
        "telemetry.rules".into(),
        tel.watchdog().rules().len() as f64,
    );
    ledger.insert(
        "telemetry.host_us_per_window".into(),
        telemetry_s * 1e6 / windows.max(1) as f64,
    );
    ledger.insert("telemetry.anomalies".into(), tel.anomalies().len() as f64);
    ledger.insert("telemetry.scaling_exponent".into(), loglog_slope(&points));
    ledger.insert("flight.host_s".into(), flight_s);
    let (events, dropped) = r
        .sys
        .flight()
        .with(|f| (f.total(), f.dropped()))
        .unwrap_or((0, 0));
    ledger.insert("flight.events".into(), events as f64);
    ledger.insert("flight.dropped".into(), dropped as f64);
    ledger.insert(
        "sim.wait_us_p50".into(),
        percentile(&waits, 50.0) as f64 / 1e3,
    );
    ledger.insert(
        "sim.wait_us_p99".into(),
        percentile(&waits, 99.0) as f64 / 1e3,
    );
    ledger.insert("trace.overhead_s".into(), traced_replay_s - full_s);
    println!(
        "fleet_slo ledger: replay {full_s:.3} s host = {notel_s:.3} s without telemetry \
         + {telemetry_s:.3} s telemetry + {flight_s:.3} s flight recorder; traced replay {traced_replay_s:.3} s"
    );
    println!(
        "fleet_slo scaling: {}",
        points
            .iter()
            .map(|(v, s)| format!("{v} VFs {s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    (r.outcome, errors)
}
