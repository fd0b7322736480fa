//! Runtime divergence self-check gate for `scripts/check.sh`.
//!
//! Runs the mixed multi-VF workload **twice from the same seed** and
//! compares the full run digests (event sequence at every checkpoint,
//! span tree, telemetry, flight recorder and forensic dump). Identical digests exit 0; any
//! difference prints the first diverging event and exits 1 — that means
//! a nondeterminism bug escaped `nesc-lint`'s static rules.
//!
//! As a sanity check that the harness can actually *see* divergence, it
//! also digests a run from a different seed and requires that the
//! comparison reports a difference (exit 2 if it does not — a blind
//! detector would pass everything).
//!
//! ```text
//! cargo run -p nesc-bench --bin divergence_check [seed]
//! ```

use std::process::ExitCode;

use nesc_sim::selfcheck::{first_divergence, self_check};
use nesc_workloads::MixedVfSelfCheck;

fn main() -> ExitCode {
    // "NeSC" in ASCII + the PR number; fixed so CI always compares the
    // same pair of runs.
    let seed: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0x4E65_5343_0003);

    let workload = MixedVfSelfCheck::default();
    println!(
        "divergence_check: {} requests over {} VFs ({}% reads), checkpoint every {}",
        workload.requests, workload.vfs, workload.read_percent, workload.checkpoint_every
    );

    match self_check(seed, |s| workload.digest(s)) {
        Ok(hash) => println!(
            "divergence_check: same-seed double run identical (seed {seed:#x}, final hash {hash:#018x})"
        ),
        Err(d) => {
            eprintln!("divergence_check: FAILED — same seed, different runs");
            eprintln!("divergence_check: {d}");
            return ExitCode::FAILURE;
        }
    }

    // Detector sanity: a different seed must produce a visible divergence.
    let other = workload.digest(seed ^ 0x9E37_79B9_7F4A_7C15);
    match first_divergence(&workload.digest(seed), &other) {
        Some(d) => println!("divergence_check: cross-seed sanity OK — {d}"),
        None => {
            eprintln!(
                "divergence_check: FAILED — different seeds produced identical digests; \
                 the detector is blind"
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
