//! Scale-out study — datacenter tenancy on one self-virtualizing
//! controller.
//!
//! The paper's prototype runs a handful of VFs; this harness asks what
//! the architecture does at datacenter tenant counts: 1000 VFs (850
//! steady + 100 bursty + 50 noisy neighbors) declared as a
//! [`ScenarioSpec`] and replayed as one deterministic open-loop tape.
//! Emits per-tenant p99 latency plus the fleet fairness curves
//! (Jain index, Lorenz latency share) into `results/scale_mixed.json`.
//!
//! `NESC_SCALE_VFS=<n>` shrinks the fleet proportionally for smoke runs;
//! the JSON golden is only written at full scale so reduced runs can
//! never corrupt the byte-gated result.

use nesc_bench::{emit_json, print_table};
use nesc_workloads::scenario::Scenario;
use nesc_workloads::{ScenarioSpec, TenantClass, TenantSpec};

/// A proportionally shrunk copy of the datacenter mix (~85/10/5).
fn scaled_mix(vfs: u32) -> Scenario {
    let steady = (vfs * 85 / 100).max(1);
    let bursty = (vfs / 10).max(1);
    let noisy = (vfs / 20).max(1);
    Scenario::new(
        ScenarioSpec::new("scale_mixed_reduced")
            .seed(0xD47A_CE17)
            .tenants(TenantSpec::steady(steady).requests(56))
            .tenants(TenantSpec::bursty(bursty).requests(48))
            .tenants(TenantSpec::noisy(noisy).requests(96)),
    )
}

fn main() {
    let override_vfs = std::env::var("NESC_SCALE_VFS")
        .ok()
        .and_then(|s| s.parse::<u32>().ok());
    let scenario = match override_vfs {
        None => Scenario::datacenter_mix(),
        Some(n) => scaled_mix(n),
    };
    let vfs = scenario.spec().total_tenants();
    println!("Scale-out: {vfs} tenant VFs on one NeSC controller");

    // nesc-lint::allow(D1): the scale gate reports host wall-clock (how
    // long the 1000-VF replay takes to *simulate*), never simulated time.
    let host_start = std::time::Instant::now();
    let rep = match scenario.run() {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("scale_out: invalid scenario: {e}");
            std::process::exit(2);
        }
    };
    let host_secs = host_start.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    for class in [
        TenantClass::Steady,
        TenantClass::Bursty,
        TenantClass::NoisyNeighbor,
    ] {
        let outcomes: Vec<_> = rep.tenants.iter().filter(|t| t.class == class).collect();
        if outcomes.is_empty() {
            continue;
        }
        let reqs: u64 = outcomes.iter().map(|t| t.requests).sum();
        let mean_p99 = outcomes.iter().map(|t| t.p99_ns).sum::<u64>() / outcomes.len() as u64;
        rows.push(vec![
            class.label().to_string(),
            outcomes.len().to_string(),
            reqs.to_string(),
            format!("{:.1}", mean_p99 as f64 / 1e3),
            format!("{:.1}", rep.class_worst_p99_ns(class) as f64 / 1e3),
        ]);
    }
    print_table(
        "Per-class latency",
        &[
            "class",
            "tenants",
            "requests",
            "mean p99 (us)",
            "worst p99 (us)",
        ],
        &rows,
    );
    // The telemetry work counters are deterministic, unlike host seconds;
    // scripts/check.sh gates samples per window on them.
    let work = rep.telemetry_work;
    println!(
        "fleet: {} requests, makespan {:.2} ms sim / {:.2} s host, Jain {} permille, \
         {} SLO violations, telemetry {} windows x {} series: {} samples, {} name lookups",
        rep.total_requests,
        rep.makespan.as_nanos() as f64 / 1e6,
        host_secs,
        rep.jain_permille,
        rep.slo_violations,
        work.windows,
        work.series,
        work.samples,
        work.name_lookups,
    );
    println!(
        "lorenz latency-share curve (permille): {:?}",
        rep.lorenz_permille
    );

    // The byte-gated golden captures the full-scale run only.
    if override_vfs.is_some() {
        println!("(reduced fleet: skipping results/scale_mixed.json)");
        return;
    }
    let classes: Vec<_> = rep
        .tenants
        .iter()
        .map(|t| t.class.label().to_string())
        .collect();
    let p99s: Vec<u64> = rep.tenants.iter().map(|t| t.p99_ns).collect();
    let means: Vec<u64> = rep.tenants.iter().map(|t| t.mean_ns).collect();
    let errors: u64 = rep.tenants.iter().map(|t| t.errors).sum();
    emit_json(
        "scale_mixed",
        &serde_json::json!({
            "name": rep.name,
            "seed": rep.seed,
            "vfs": vfs,
            "total_requests": rep.total_requests,
            "total_bytes": rep.total_bytes,
            "makespan_ns": rep.makespan.as_nanos(),
            "jain_permille": rep.jain_permille,
            "lorenz_permille": rep.lorenz_permille,
            "slo_violations": rep.slo_violations,
            "errors": errors,
            "digest": format!("{:016x}", rep.digest),
            "tenant_class": classes,
            "tenant_p99_ns": p99s,
            "tenant_mean_ns": means,
        }),
    );
}
