//! End-to-end and per-layer benchmark of the NeSC simulator.
//!
//! ```text
//! perfbench --workload <fleet_slo|paper_paths|guest_apps_thin> --seed <n>
//!           --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats set-up + measured pass of the workload for
//! `--seconds` host seconds and prints the end-to-end metrics. `--trace 1`
//! makes one pass with host-time spans around every call into a layer,
//! reruns it without spans and with layers switched off, and prints the
//! per-layer ledger. Both check the simulated outputs and end with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The benchmark generates every input from `--seed`; the simulator only
//! sees those inputs. See README.md for the metric glossary.

mod apps;
mod fleet;
mod outcome;
mod paths;
mod probe;
mod spans;
mod util;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use outcome::{Ledger, Outcome, Pass, END_TO_END, PER_LAYER};
use spans::Spans;
use util::{median, peak_rss_mib};

/// Set-ups timed per run at least, so `setup_s` is a median even when a
/// pass is longer than the run.
const MIN_SETUPS: usize = 9;
/// Input sets per timed run. `fleet_slo`'s tail is set by how the
/// bursty tenants' first bursts pile up, which varies from seed to
/// seed; a median over several input sets keeps the run's simulated
/// tail metrics from hinging on one draw.
const INPUT_SETS: usize = 8;

/// What a run reports: correct, attempted, failed, and (name, unit,
/// value) per metric.
type RunResult = (bool, u64, u64, Vec<(&'static str, &'static str, f64)>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetSlo,
    PaperPaths,
    GuestAppsThin,
}

impl Workload {
    const ALL: [(Workload, &'static str); 3] = [
        (Workload::FleetSlo, "fleet_slo"),
        (Workload::PaperPaths, "paper_paths"),
        (Workload::GuestAppsThin, "guest_apps_thin"),
    ];

    fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(w, _)| *w == self)
            .map_or("?", |(_, n)| n)
    }

    /// Set-up plus one measured pass.
    fn pass(self, seed: u64) -> Pass {
        match self {
            Workload::FleetSlo => fleet::pass(seed),
            Workload::PaperPaths => paths::pass(seed),
            Workload::GuestAppsThin => apps::pass(seed),
        }
    }

    /// Host seconds of one set-up alone.
    fn setup_s(self, seed: u64) -> f64 {
        let mut off = Spans::new(false);
        let t = Instant::now();
        match self {
            Workload::FleetSlo => drop(fleet::setup(
                seed,
                fleet::VFS,
                fleet::Layers::FULL,
                &mut off,
            )),
            Workload::PaperPaths => drop(paths::setup(seed, &mut off)),
            Workload::GuestAppsThin => return apps::setup_only_s(seed),
        }
        t.elapsed().as_secs_f64()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(_, n)| n == value)
                        .map(|(w, _)| *w)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut m = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

fn summarize(name: &str, o: &Outcome) {
    println!(
        "{name}: {} ops ({} attempted, {} failed); sim p50 {:.2} us, p99 {:.2} us over {} samples \
         ({} beyond p99); {:.0} ops/sim s; SLO met {}/{}; digest {:016x}",
        o.ops,
        o.attempted,
        o.failed,
        o.p50_ns() as f64 / 1e3,
        o.p99_ns() as f64 / 1e3,
        o.samples(),
        o.beyond_p99(),
        o.sim_ops_per_s(),
        o.slo_met,
        o.slo_declared,
        o.digest,
    );
}

/// Seed of input set `k` of a run: the run's simulated metrics are
/// medians over `INPUT_SETS` input sets, all derived from `--seed`.
fn input_seed(seed: u64, k: usize) -> u64 {
    util::digest(util::DIGEST_SEED, &[seed, k as u64])
}

/// `--trace 0`: cycle set-up + pass over the run's input sets until
/// every set ran, one ran twice, and `seconds` have passed.
fn timed(w: Workload, seed: u64, seconds: u64) -> RunResult {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() <= INPUT_SETS || start.elapsed() < budget {
        let k = passes.len() % INPUT_SETS;
        let p = w.pass(input_seed(seed, k));
        if passes.len() < 2 * INPUT_SETS {
            println!(
                "pass {} (input set {k}): setup {:.4} s, measured {:.4} s host, {:.0} ops/host s",
                passes.len(),
                p.setup_s,
                p.run_s,
                p.outcome.ops as f64 / p.run_s
            );
        }
        passes.push(p);
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(w.setup_s(input_seed(seed, 0)));
    }
    let sets: Vec<&Outcome> = passes[..INPUT_SETS].iter().map(|p| &p.outcome).collect();
    println!("{} passes over {INPUT_SETS} input sets", passes.len());
    for (k, o) in sets.iter().enumerate() {
        summarize(&format!("{} input set {k}", w.name()), o);
    }
    let mut errors: Vec<String> = sets.iter().flat_map(|o| o.errors.iter().cloned()).collect();
    let repeats_differ = passes
        .iter()
        .enumerate()
        .skip(INPUT_SETS)
        .any(|(j, p)| !p.outcome.same_outputs(sets[j % INPUT_SETS]));
    if repeats_differ {
        errors.push("repeated passes over the same inputs produced different outputs".into());
    }
    if w == Workload::FleetSlo && fleet::notel_digest(input_seed(seed, 0)) != sets[0].digest {
        errors.push("switching telemetry off changed the simulated outputs".into());
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    // Requests per host second over the measured phases after the first
    // (which warms the allocator and caches): a ratio of sums, so it
    // moves smoothly with the share of the run a shared host spends
    // slow, where a median of per-pass rates jumps between regimes.
    let ops: u64 = passes[1..].iter().map(|p| p.outcome.ops).sum();
    let run_s: f64 = passes[1..].iter().map(|p| p.run_s).sum();
    // Each simulated metric is the median over the input sets: a tail
    // percentile of pooled samples would follow the worst set instead.
    let over_sets = |f: fn(&Outcome) -> f64| median(&sets.iter().map(|o| f(o)).collect::<Vec<_>>());
    let values = [
        median(&setups),
        ops as f64 / run_s,
        peak_rss_mib(),
        over_sets(|o| o.p50_ns() as f64 / 1e3),
        over_sets(|o| o.p99_ns() as f64 / 1e3),
        over_sets(Outcome::sim_ops_per_s),
        over_sets(Outcome::slo_met_permille),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    let attempted = passes.iter().map(|p| p.outcome.attempted).sum();
    let failed = passes.iter().map(|p| p.outcome.failed).sum();
    (errors.is_empty(), attempted, failed, metrics)
}

/// `--trace 1`: one traced pass plus the untraced and ablated reruns.
fn traced(w: Workload, seed: u64) -> RunResult {
    let mut spans = Spans::new(true);
    let mut ledger = Ledger::new();
    let input = input_seed(seed, 0);
    let (o, mut errors) = match w {
        Workload::FleetSlo => fleet::traced(input, &mut spans, &mut ledger),
        Workload::PaperPaths => paths::traced(input, &mut spans, &mut ledger),
        Workload::GuestAppsThin => apps::traced(input, &mut spans, &mut ledger),
    };
    errors.extend(o.errors.iter().cloned());
    summarize(w.name(), &o);
    ledger.insert("failed_permille".into(), o.failed_permille());
    ledger.insert("sim.latency_samples".into(), o.samples() as f64);
    ledger.insert("sim.beyond_p99".into(), o.beyond_p99() as f64);
    ledger.insert("trace.spans".into(), spans.len() as f64);
    let totals = spans.totals();
    let total = |name: &str| totals.get(name).copied().unwrap_or_default();
    ledger.insert("tape.gen_s".into(), total("tape.gen").total_ns as f64 / 1e9);
    ledger.insert(
        "provision.build_s".into(),
        total("provision.build").total_ns as f64 / 1e9,
    );
    let disks = total("provision.disk");
    ledger.insert(
        "provision.us_per_disk".into(),
        disks.total_ns as f64 / 1e3 / disks.count.max(1) as f64,
    );
    for name in ledger.keys() {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            errors.push(format!("ledger metric {name} is missing from PER_LAYER"));
        }
    }

    println!(
        "{:<24} {:>9} {:>12} {:>12}",
        "span", "count", "total s", "self s"
    );
    for (name, t) in totals {
        println!(
            "{name:<24} {:>9} {:>12.6} {:>12.6}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
    let out = std::path::PathBuf::from(format!(".bench_out/spans-{}-{seed}.json", w.name()));
    match spans.write_json(&out) {
        Ok(()) => println!("spans written to {}", out.display()),
        Err(e) => errors.push(format!("cannot write {}: {e}", out.display())),
    }
    for e in &errors {
        println!("CHECK FAILED: {e}");
    }
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, u, ledger.get(n).copied().unwrap_or(0.0)))
        .collect();
    (errors.is_empty(), o.attempted, o.failed, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fleet_slo|paper_paths|guest_apps_thin> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let (correct, attempted, failed, metrics) = if args.trace {
        traced(args.workload, args.seed)
    } else {
        timed(args.workload, args.seed, args.seconds)
    };
    for (name, unit, value) in &metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
