#!/usr/bin/env bash
# Repo health check: build, test, compile the benches, run the
# determinism + address-provenance + panic-freedom + layering gates
# (static lint, with injected-violation self-tests for both the
# provenance and call-graph passes, + runtime divergence self-check),
# and prove the refactors did not perturb simulated results (the
# committed figure goldens must regenerate bit-identically).
#
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo bench --no-run (criterion harness compiles; gated offline)"
cargo bench --no-run -p nesc-bench

echo "==> nesc-lint: determinism + provenance + guest-taint + panic-freedom + layering rules"
echo "    (D1-D7, T1-T3, G1-G3, A1-A3, P1-P3, L1)"
# The JSON report — every diagnostic including directive-suppressed ones,
# plus the size of the conservative data-path reachable set — is kept as
# results/lint.json so CI can publish it as an auditable artifact.
mkdir -p results
if ! cargo run --release -q -p nesc-lint -- --format json > results/lint.json; then
    cargo run --release -q -p nesc-lint || true
    echo "FAIL: nesc-lint found rule violations (rule ids above);" >&2
    echo "      fix them or add a justified 'nesc-lint::allow(<rule>): <why>' directive" >&2
    exit 1
fi
reachable=$(python3 -c 'import json; print(json.load(open("results/lint.json"))["reachable_functions"])')
echo "OK: workspace lint-clean (results/lint.json written; ${reachable} data-path fns tracked)"

echo "==> nesc-lint self-test: an injected T2 violation must fail the gate"
# The provenance pass runs before the golden comparisons; prove it is
# actually armed by linting a file that unwraps a vLBA outside a
# boundary module and demanding a non-zero exit.
inject="crates/core/src/nesc_lint_selftest_injected.rs"
trap 'rm -f "$inject"' EXIT
printf 'pub fn leak(vlba: Vlba) -> u64 {\n    vlba.0\n}\n' > "$inject"
if cargo run --release -q -p nesc-lint -- "$inject" >/dev/null 2>&1; then
    rm -f "$inject"
    echo "FAIL: nesc-lint passed a file with a known T2 violation —" >&2
    echo "      the provenance pass is not armed" >&2
    exit 1
fi
rm -f "$inject"
echo "OK: injected violation rejected"

echo "==> nesc-lint self-test: an injected P1 violation must fail the gate"
# Same idea for the panic-freedom pass: a scratch file that defines a
# data-path entry point and unwraps on it must be rejected, proving the
# call-graph analyzer arms itself on explicit path arguments too.
printf 'pub fn process_vf_request(x: Option<u64>) -> u64 {\n    x.unwrap()\n}\n' > "$inject"
if cargo run --release -q -p nesc-lint -- "$inject" >/dev/null 2>&1; then
    rm -f "$inject"
    echo "FAIL: nesc-lint passed a file that unwraps on the data path —" >&2
    echo "      the panic-freedom pass is not armed" >&2
    exit 1
fi
rm -f "$inject"
echo "OK: injected P1 violation rejected"

echo "==> nesc-lint self-test: an injected G3 taint violation must fail the gate"
# And for the guest-taint pass: a scratch file where a guest-input source
# feeds the translation walk with no validator on the path must be
# rejected, proving the interprocedural taint analysis is armed.
printf '%s\n' \
    '// nesc-lint: guest-input' \
    'fn guest_slba() -> Untrusted<u64> {' \
    '    Untrusted::new(9)' \
    '}' \
    'pub fn process_vf_request(mem: &HostMemory, root: u64) -> u64 {' \
    '    let slba = guest_slba();' \
    '    walk_run(mem, root, slba, 1)' \
    '}' > "$inject"
if cargo run --release -q -p nesc-lint -- "$inject" >/dev/null 2>&1; then
    rm -f "$inject"
    echo "FAIL: nesc-lint passed a file where guest input reaches the walk —" >&2
    echo "      the guest-taint pass is not armed" >&2
    exit 1
fi
rm -f "$inject"
echo "OK: injected G3 violation rejected"

echo "==> divergence self-check: same-seed double run must be identical"
if ! cargo run --release -q -p nesc-bench --bin divergence_check; then
    echo "FAIL: the simulator diverged between two same-seed runs;" >&2
    echo "      the first diverging event is reported above" >&2
    exit 1
fi

echo "==> golden checks: regenerated results must be bit-identical"
# Each row names a committed golden under results/ and the nesc-bench
# binary that regenerates it; the binary's stdout is kept under $tmp for
# the gates below.
#   nesc_report     — telemetry_mixed.json (the watchdog anomaly fires)
#   forensics       — replays the watchdog-tripping prune-pressure scenario
#                     twice in-process (asserting the two dumps
#                     byte-identical), verifies the worst request's
#                     event-derived latency breakdown against its span
#                     tree phase by phase, and regenerates the dump golden
#                     plus the merged Perfetto trace
#   fig10_bandwidth — the paper's bandwidth figure
#   golden_trace    — the span trace
#   scale_out       — the 1000-VF mixed scenario (gated further below)
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
declare -A host_secs
for row in \
    "telemetry_mixed nesc_report" \
    "forensic_dump forensics" \
    "fig10_bandwidth fig10_bandwidth" \
    "golden_trace golden_trace" \
    "scale_mixed scale_out"; do
    read -r golden bin <<< "$row"
    file="results/$golden.json"
    [ -f "$file" ] || { echo "missing golden $file" >&2; exit 1; }
    cp "$file" "$tmp/$golden.json"
    start=$SECONDS
    cargo run --release -q -p nesc-bench --bin "$bin" > "$tmp/$bin.txt"
    host_secs[$bin]=$((SECONDS - start))
    if cmp -s "$tmp/$golden.json" "$file"; then
        echo "OK: $golden.json regenerated bit-identical (${host_secs[$bin]}s host)"
    else
        echo "FAIL: $golden.json changed after regeneration" >&2
        diff "$tmp/$golden.json" "$file" >&2 || true
        exit 1
    fi
done

echo "==> nesc-inspect: worst-request breakdown must match its span tree"
# `why` exits non-zero if the latency breakdown reconstructed from ring
# events disagrees with the one derived from the exemplar's span tree.
if ! cargo run --release -q -p nesc-bench --bin nesc-inspect -- why >/dev/null; then
    echo "FAIL: nesc-inspect why found an event/span breakdown mismatch" >&2
    exit 1
fi
echo "OK: event-derived breakdown matches the span-derived one"

echo "==> scale-out gate: the 1000-VF mixed scenario must be fast"
# The full datacenter mix (850 steady + 100 bursty + 50 noisy VFs) must,
# besides regenerating its fairness golden byte-for-byte above, (a)
# finish in seconds of host time — the acceptance bar for the scenario
# engine — and (b) keep telemetry work proportional to activity, a
# deterministic count that host noise cannot move.
#   NESC_GATE_SCALE_SECS — host wall-clock ceiling (env-overridable for
#                          slower CI hosts; the run takes ~0.3 s on a
#                          2-core host)
# The samples-per-window ceiling is fixed at 100: the count is
# deterministic (measured 85.1: 10 fixed series + 5 per dirty VF;
# sampling all 5010 series at every close would be 5010), so no host
# needs it relaxed.
scale_secs=${host_secs[scale_out]}
scale_ceiling="${NESC_GATE_SCALE_SECS:-10}"
if [ "$scale_secs" -gt "$scale_ceiling" ]; then
    echo "FAIL: 1000-VF scenario took ${scale_secs}s > ceiling ${scale_ceiling}s" >&2
    exit 1
fi
python3 - "$tmp/scale_out.txt" <<'PY'
import re, sys
CEILING = 100
text = open(sys.argv[1]).read()
m = re.search(r"telemetry (\d+) windows x (\d+) series: (\d+) samples", text)
if not m:
    print("FAIL: scale_out printed no telemetry work counters", file=sys.stderr)
    sys.exit(1)
windows, series, samples = map(int, m.groups())
per_window = samples / max(windows, 1)
if per_window > CEILING:
    print(f"FAIL: {per_window:.1f} telemetry samples per window > ceiling {CEILING} "
          f"({series} series)", file=sys.stderr)
    sys.exit(1)
print(f"OK: {per_window:.1f} telemetry samples per window over {windows} windows "
      f"(ceiling {CEILING}; {series} series registered)")
PY

echo "==> tree-publish gate: a miss republishes the extent tree in place"
# nesc_report's prune-pressure run takes 22 MappingPruned misses on a
# 4096-extent tree (205 leaves, 217 nodes). Each miss republishes the
# disk's device-visible tree into the node slots it already owns, and a
# prune changes no extent, so the misses rewrite only internal nodes:
# measured 0 leaves and 0 new slots. A full re-serialization per miss
# would write 205 leaves into 217 fresh slots each time. Both counts are
# deterministic, so the ceilings are fixed: at most 1 leaf per miss and
# no new slot.
python3 - "$tmp/nesc_report.txt" <<'PY'
import re, sys
LEAVES_PER_MISS = 1
NEW_SLOTS = 0
text = open(sys.argv[1]).read()
m = re.search(r"tree publish: (\d+) miss publishes wrote (\d+) leaves into (\d+) new node slots", text)
if not m:
    print("FAIL: nesc_report printed no tree-publish counters", file=sys.stderr)
    sys.exit(1)
misses, leaves, slots = map(int, m.groups())
if misses == 0:
    print("FAIL: the prune-pressure run took no miss", file=sys.stderr)
    sys.exit(1)
fail = []
if leaves > LEAVES_PER_MISS * misses:
    fail.append(f"{leaves / misses:.1f} leaves written per miss > ceiling {LEAVES_PER_MISS}")
if slots > NEW_SLOTS:
    fail.append(f"{slots} node slots allocated by misses > ceiling {NEW_SLOTS}")
if fail:
    print("FAIL: tree publish: " + "; ".join(fail), file=sys.stderr)
    sys.exit(1)
print(f"OK: {misses} miss publishes wrote {leaves} leaves into {slots} new node slots "
      f"(ceilings {LEAVES_PER_MISS} leaf per miss, {NEW_SLOTS} new slots)")
PY

echo "==> throughput gate: hot-path blocks/sec floor (interleaved A/B, min of 5)"
# The harness itself interleaves per-block/batched repeats and keeps each
# mode's minimum, so one invocation here is already noise-dodged. Floors
# are env-overridable for slower CI hosts.
#   NESC_GATE_NS_PER_BLOCK  — batched ns/block ceiling on seq-64k/btlb8
#                             (12.5 == the >= 25% improvement over the
#                             16.653 ns/block BinaryHeap-era baseline,
#                             == a floor of 80M simulated blocks/sec)
#   NESC_GATE_SPEEDUP       — batched/per-block floor on every btlb>0 series
# btlb=0 series execute identical code in both modes (run cap clamps to 1),
# so they are checked only for parity within noise (>= 0.95).
cargo run --release -q -p nesc-bench --bin bench_hotpath >/dev/null
NESC_GATE_NS_PER_BLOCK="${NESC_GATE_NS_PER_BLOCK:-12.5}" \
NESC_GATE_SPEEDUP="${NESC_GATE_SPEEDUP:-1.2}" \
python3 - <<'PY'
import json, os, sys
data = json.load(open("results/BENCH_hotpath.json"))
ns_ceiling = float(os.environ["NESC_GATE_NS_PER_BLOCK"])
speedup_floor = float(os.environ["NESC_GATE_SPEEDUP"])
fail = []
for s in data["series"]:
    key = f"btlb{s['btlb_entries']}/{s['stream']}/{s['request']}"
    floor = speedup_floor if s["btlb_entries"] > 0 else 0.95
    if s["speedup"] < floor:
        fail.append(f"{key}: speedup {s['speedup']:.2f} < floor {floor}")
    if s["btlb_entries"] == 8 and s["stream"] == "seq" and s["request"] == "64k":
        ns = s["batched_ns_per_block"]
        if ns > ns_ceiling:
            fail.append(f"{key}: batched {ns:.2f} ns/block > ceiling {ns_ceiling}")
        else:
            print(f"OK: seq-64k/btlb8 batched {ns:.2f} ns/block "
                  f"({1e9 / ns / 1e6:.0f}M blocks/sec, ceiling {ns_ceiling} ns)")
if fail:
    print("FAIL: hot-path throughput gate:\n  " + "\n  ".join(fail), file=sys.stderr)
    sys.exit(1)
print("OK: all series within speedup floors")
PY

echo "==> telemetry gate: sampler + flight-recorder overhead ceilings at the 50 us interval"
#   NESC_GATE_TELEMETRY_PCT — max % host overhead with telemetry on at 50 us
#   NESC_GATE_FLIGHT_PCT    — max % marginal cost of the flight recorder
#                             over telemetry alone at the same interval
# The harness interleaves 200 short rounds per mode and compares
# quiet-decile costs, but a busy host can still poison one measurement;
# one full re-measurement is allowed before the gate fails.
for attempt in 1 2; do
    cargo run --release -q -p nesc-bench --bin telemetry_overhead >/dev/null
    if NESC_GATE_TELEMETRY_PCT="${NESC_GATE_TELEMETRY_PCT:-20}" \
       NESC_GATE_FLIGHT_PCT="${NESC_GATE_FLIGHT_PCT:-5}" \
       python3 - <<'PY'
import json, os, sys
data = json.load(open("results/BENCH_telemetry.json"))
tel_ceiling = float(os.environ["NESC_GATE_TELEMETRY_PCT"])
fl_ceiling = float(os.environ["NESC_GATE_FLIGHT_PCT"])
tel = data["overhead_50us_percent"]
fl = data["overhead_flight_percent"]
fail = []
if tel > tel_ceiling:
    fail.append(f"telemetry overhead at 50 us is {tel:.1f}% > ceiling {tel_ceiling}%")
if fl > fl_ceiling:
    fail.append(f"flight recorder marginal cost is {fl:.1f}% > ceiling {fl_ceiling}%")
if fail:
    print("FAIL: " + "; ".join(fail), file=sys.stderr)
    sys.exit(1)
print(f"OK: telemetry overhead {tel:.1f}% (ceiling {tel_ceiling}%), "
      f"flight recorder marginal {fl:.1f}% (ceiling {fl_ceiling}%)")
PY
    then
        break
    elif [ "$attempt" -eq 2 ]; then
        echo "FAIL: overhead gate failed on both measurements" >&2
        exit 1
    else
        echo "    overhead gate missed once; re-measuring (noisy host?)"
    fi
done

echo "==> all checks passed"
