//! Telemetry cross-checks: the perfmon sampler's windowed per-VF latency
//! gauges must agree with a reference recomputation from the raw span log.
//!
//! The sampler and the tracer observe the same requests through different
//! code paths — the sampler folds each completion into a per-window
//! histogram at `issue_once` time, the tracer records the request root
//! span. If windowing (half-open `[k·I, (k+1)·I)` keyed by completion
//! time), per-VF attribution, or the percentile math ever drift between
//! the two, these tests catch it on a randomized mixed multi-VF workload.

use std::collections::VecDeque;

use nesc_hypervisor::prelude::*;
use nesc_sim::perfmon::{self, Cmp, Condition, SeriesKind};
use nesc_sim::Histogram;
use proptest::prelude::*;

const INTERVAL_US: u64 = 25;
const VFS: usize = 3;
const DISK_BYTES: u64 = 4 << 20;

fn telemetry_system() -> (System, Vec<DiskId>) {
    let mut sys = SystemBuilder::new()
        .capacity_blocks((DISK_BYTES / 512) * (VFS as u64 + 1))
        .max_vfs(8)
        .tracing(true)
        .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US)).capacity(4096))
        .build();
    let disks = (0..VFS)
        .map(|i| {
            sys.quick_disk(DiskKind::NescDirect, &format!("vf{i}.img"), DISK_BYTES)
                .disk
        })
        .collect();
    (sys, disks)
}

/// Per-(VF, window) latency histograms rebuilt from the request root
/// spans: a root span's `disk` attribute names the VF, its end time picks
/// the window, and its extent is the recorded latency.
fn reference_hists(spans: &[Span], disk: DiskId, windows: u64, interval_ns: u64) -> Vec<Histogram> {
    let mut hists: Vec<Histogram> = (0..windows).map(|_| Histogram::new()).collect();
    for s in spans
        .iter()
        .filter(|s| s.parent == SpanId::NONE && s.name == "request")
    {
        let d = s.attrs.iter().find(|(k, _)| *k == "disk").map(|&(_, v)| v);
        if d != Some(disk.0 as u64) {
            continue;
        }
        let w = s.end.as_nanos() / interval_ns;
        if w < windows {
            hists[w as usize].record((s.end - s.start).as_nanos());
        }
    }
    hists
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Windowed p50/p99 gauges equal the reference recomputation from the
    /// span log, for every VF and every closed window, on a random mix of
    /// reads and writes with random think time.
    #[test]
    fn prop_windowed_percentiles_match_span_log(
        ops in proptest::collection::vec(
            (0usize..VFS, 0usize..4usize, any::<bool>(), 1u64..30),
            8..40,
        )
    ) {
        let sizes = [2048u64, 4096, 8192, 16384];
        let (mut sys, disks) = telemetry_system();
        let mut buf = vec![0u8; 16384];
        for &(vf, szi, is_read, think_us) in &ops {
            let bytes = sizes[szi] as usize;
            let offset = szi as u64 * 16384;
            if is_read {
                sys.read(disks[vf], offset, &mut buf[..bytes]);
            } else {
                sys.write(disks[vf], offset, &buf[..bytes]);
            }
            sys.think(SimDuration::from_micros(think_us));
        }
        // Idle past the open window, then drop the partial tail.
        sys.think(SimDuration::from_micros(2 * INTERVAL_US));
        sys.telemetry_finish();

        let spans = sys.take_spans();
        let sampler = sys.telemetry().expect("telemetry enabled").sampler();
        let windows = sampler.closed_windows();
        let interval_ns = SimDuration::from_micros(INTERVAL_US).as_nanos();
        prop_assert!(windows > 0, "workload must close at least one window");

        for (vf, disk) in disks.iter().enumerate() {
            let hists = reference_hists(&spans, *disk, windows, interval_ns);
            for (p, series) in [(50.0, format!("hv.vf{vf}.p50_ns")), (99.0, format!("hv.vf{vf}.p99_ns"))] {
                let ts = sampler.series_by_name(&series).expect("per-VF series exists");
                let mut checked = 0u64;
                for (w, v) in ts.samples() {
                    prop_assert_eq!(
                        v,
                        hists[w as usize].percentile(p),
                        "vf{} p{} window {}", vf, p, w
                    );
                    checked += 1;
                }
                prop_assert_eq!(checked, windows, "gauge must cover every closed window");
            }
        }
    }
}

/// The same invariant holds for the windowed request counters: summed over
/// windows they equal the number of request root spans per VF (determinism
/// of attribution, not just of percentiles).
#[test]
fn windowed_request_counters_match_span_log() {
    let (mut sys, disks) = telemetry_system();
    let mut buf = vec![0u8; 8192];
    for i in 0..30u64 {
        let vf = (i % VFS as u64) as usize;
        if i % 3 == 0 {
            sys.read(disks[vf], (i % 8) * 8192, &mut buf);
        } else {
            sys.write(disks[vf], (i % 8) * 8192, &buf);
        }
        sys.think(SimDuration::from_micros(7));
    }
    sys.think(SimDuration::from_micros(2 * INTERVAL_US));
    sys.telemetry_finish();

    let spans = sys.take_spans();
    let sampler = sys.telemetry().expect("telemetry enabled").sampler();
    for (vf, disk) in disks.iter().enumerate() {
        let roots = spans
            .iter()
            .filter(|s| s.parent == SpanId::NONE && s.name == "request")
            .filter(|s| s.attrs.contains(&("disk", disk.0 as u64)))
            .count() as u64;
        let counted: u64 = sampler
            .series_by_name(&format!("hv.vf{vf}.requests"))
            .expect("per-VF series exists")
            .samples()
            .map(|(_, v)| v)
            .sum();
        assert_eq!(counted, roots, "vf{vf} request count");
    }
}

// ---------------------------------------------------------------------------
// Work proportional to activity
// ---------------------------------------------------------------------------

/// Fleet size for the work-counter tests.
const FLEET: usize = 256;
/// Telemetry window of the fleet tests, as in the scenario engine.
const FLEET_WINDOW_US: u64 = 200;

/// A `FLEET`-disk NeSC system with one p99 rule per disk.
fn fleet_system() -> (System, Vec<DiskId>) {
    let disk_bytes: u64 = 64 << 10;
    let rules: Vec<String> = (0..FLEET)
        .map(|d| format!("hv.vf{d}.p99_ns above 2000000 for 2"))
        .collect();
    let mut sys = SystemBuilder::new()
        .capacity_blocks(FLEET as u64 * disk_bytes / 1024 * 2 + 64 * 1024)
        .max_vfs(FLEET as u16 + 2)
        .telemetry(
            TelemetryConfig::windowed(SimDuration::from_micros(FLEET_WINDOW_US)).capacity(64),
        )
        .slo_rules(rules)
        .build();
    let disks = (0..FLEET)
        .map(|i| {
            sys.quick_disk(DiskKind::NescDirect, &format!("t{i:03}.img"), disk_bytes)
                .disk
        })
        .collect();
    (sys, disks)
}

/// A seeded open-loop tape: 4 KiB reads and writes on uniformly random
/// disks, ~10 arrivals per window, so a window has a handful of dirty disks.
fn fleet_tape(disks: &[DiskId], start: SimTime, n: usize, seed: u64) -> Vec<OpenRequest> {
    let mut rng = nesc_sim::SimRng::seed(seed);
    let mut at = start;
    (0..n)
        .map(|_| {
            at += SimDuration::from_nanos(rng.range(1_000, 40_000));
            OpenRequest {
                disk: disks[rng.range(0, disks.len() as u64) as usize],
                op: if rng.chance(0.5) {
                    BlockOp::Read
                } else {
                    BlockOp::Write
                },
                offset: rng.range(0, 16) * 4096,
                bytes: 4096,
                at,
            }
        })
        .collect()
}

/// Every window close commits at most one sample per fixed series plus
/// five per dirty disk (requests, bytes, p50, p99, ring depth), however
/// many disks are attached. A disk is dirty in a window iff its request
/// counter moved there, which the test reads back from the exported
/// series. The system is stepped one request or think period at a time;
/// a step that closes several windows is checked on their sum.
#[test]
fn window_close_commits_samples_per_dirty_disk_only() {
    let (mut sys, disks) = fleet_system();
    let sampler = sys.telemetry().expect("telemetry enabled").sampler();
    let fixed = sampler
        .series()
        .filter(|s| !s.name().starts_with("hv.vf") && !s.name().starts_with("core.ring_depth"))
        .count() as u64;
    let request_series: Vec<_> = (0..FLEET)
        .map(|d| {
            sampler
                .series_id(&format!("hv.vf{d}.requests"))
                .expect("per-disk series registered at attach")
        })
        .collect();

    let mut rng = nesc_sim::SimRng::seed(7);
    let mut buf = [0u8; 4096];
    let mut single_window_closes = 0;
    for step in 0..3000 {
        let sampler = sys.telemetry().expect("telemetry enabled").sampler();
        let (w0, s0) = (sampler.closed_windows(), sampler.samples_committed());
        if step % 2 == 0 {
            sys.think(SimDuration::from_nanos(rng.range(1_000, 40_000)));
        } else {
            let disk = disks[rng.range(0, FLEET as u64) as usize];
            let offset = rng.range(0, 16) * 4096;
            if rng.chance(0.5) {
                sys.read(disk, offset, &mut buf);
            } else {
                sys.write(disk, offset, &buf);
            }
        }
        let sampler = sys.telemetry().expect("telemetry enabled").sampler();
        let (w1, s1) = (sampler.closed_windows(), sampler.samples_committed());
        let dirty: u64 = (w0..w1)
            .map(|w| {
                request_series
                    .iter()
                    .filter(|&&id| sampler.series_by_id(id).value_at(w).is_some_and(|v| v > 0))
                    .count() as u64
            })
            .sum();
        assert!(
            s1 - s0 <= fixed * (w1 - w0) + 5 * dirty,
            "windows {w0}..{w1} committed {} samples for {dirty} dirty disks",
            s1 - s0
        );
        if w1 - w0 == 1 {
            single_window_closes += 1;
        }
    }
    assert!(
        single_window_closes > 100,
        "most closes must be checked one window at a time"
    );
    // Sampling every series at every close would commit ~100× more.
    let sampler = sys.telemetry().expect("telemetry enabled").sampler();
    let eager = sampler.closed_windows() * sampler.series().len() as u64;
    assert!(
        sampler.samples_committed() * 20 < eager,
        "{} samples committed; eager sampling commits {eager}",
        sampler.samples_committed()
    );
}

/// Rules bind to series ids once: every rule's series exists when the
/// first window closes, so binding costs one lookup per rule and the
/// hundreds of evaluations after it cost none.
#[test]
fn evaluate_makes_no_name_lookups_once_rules_are_bound() {
    let (mut sys, disks) = fleet_system();
    let tape = fleet_tape(&disks, sys.now(), 600, 11);
    sys.run_open_loop(&tape, |_, _, _, _| {});
    sys.telemetry_finish();
    let tel = sys.telemetry().expect("telemetry enabled");
    assert!(
        tel.sampler().closed_windows() > 20,
        "the tape spans windows"
    );
    assert_eq!(
        tel.watchdog().name_lookups(),
        FLEET as u64,
        "one lookup per rule condition, none per evaluation"
    );
}

// ---------------------------------------------------------------------------
// Rule binding edge cases
// ---------------------------------------------------------------------------

fn small_system(cfg: TelemetryConfig) -> System {
    SystemBuilder::new()
        .capacity_blocks(64 * 1024)
        .max_vfs(8)
        .telemetry(cfg)
        .build()
}

/// A rule registered before its disk exists binds when the disk attaches,
/// after several windows have closed, and then fires.
#[test]
fn rule_binds_to_a_disk_attached_after_windows_closed() {
    let cfg = TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US))
        .rule_text("hv.vf1.requests above 0 for 2");
    let mut sys = small_system(cfg);
    let a = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
    for i in 0..8u64 {
        sys.write(a, i * 4096, &[1u8; 4096]);
        sys.think(SimDuration::from_micros(INTERVAL_US));
    }
    let attach_window = sys.telemetry().unwrap().sampler().closed_windows();
    assert!(
        attach_window >= 4,
        "several windows closed before the attach"
    );
    assert!(sys.telemetry().unwrap().anomalies().is_empty());

    let b = sys.quick_disk(DiskKind::NescDirect, "b.img", 1 << 20).disk;
    for i in 0..6u64 {
        sys.write(b, i * 4096, &[2u8; 4096]);
        sys.think(SimDuration::from_micros(INTERVAL_US));
    }
    sys.telemetry_finish();
    let fired = sys.telemetry().unwrap().anomalies();
    assert!(!fired.is_empty(), "the late-bound rule fires");
    assert_eq!(fired[0].series, "hv.vf1.requests");
    assert!(fired[0].window > attach_window);
}

/// A rule naming a series that never registers never fires, and waiting
/// for it costs a lookup only after series register, not one per window.
#[test]
fn rule_on_a_series_that_never_exists_never_fires() {
    let cfg = TelemetryConfig::windowed(SimDuration::from_micros(INTERVAL_US))
        .rule_text("hv.vf7.requests above 0 for 1");
    let mut sys = small_system(cfg);
    let a = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
    for i in 0..20u64 {
        sys.write(a, (i % 8) * 4096, &[1u8; 4096]);
        sys.think(SimDuration::from_micros(INTERVAL_US / 2));
    }
    sys.telemetry_finish();
    let tel = sys.telemetry().unwrap();
    assert!(tel.sampler().closed_windows() > 8);
    assert!(tel.anomalies().is_empty());
    assert!(tel.watchdog().name_lookups() <= 1 + tel.sampler().series().len() as u64);
}

/// Duplicate names resolve to the first registration, for lookups by name
/// and for rules — including a rule that waited for the name.
#[test]
fn duplicate_series_names_resolve_to_the_first_registration() {
    let mut s = Sampler::new(SimDuration::from_nanos(10), 8);
    let first = s.register("dup", "n", SeriesKind::Gauge);
    let second = s.register("dup", "n", SeriesKind::Gauge);
    let mut wd = SloWatchdog::new();
    wd.add_rule(SloRule::parse("dup above 100 for 1").unwrap());
    wd.add_rule(SloRule::parse("late above 100 for 1").unwrap());
    let tracer = Tracer::disabled();
    let mut late = None;
    for w in 0..4u64 {
        if w == 2 {
            let a = s.register("late", "n", SeriesKind::Gauge);
            let b = s.register("late", "n", SeriesKind::Gauge);
            late = Some((a, b));
        }
        assert!(s.due(SimTime::from_nanos((w + 1) * 10)).is_some());
        s.sample(first, 5);
        s.sample(second, 500);
        if let Some((a, b)) = late {
            s.sample(a, 1);
            s.sample(b, 1000);
        }
        wd.evaluate(&s, &tracer);
    }
    assert_eq!(s.series_id("dup"), Some(first));
    assert_eq!(s.series_by_name("dup").unwrap().latest(), Some((3, 5)));
    assert_eq!(s.series_by_name("late").unwrap().latest(), Some((3, 1)));
    assert!(
        wd.anomalies().is_empty(),
        "both rules read the first (quiet) registration"
    );
}

// ---------------------------------------------------------------------------
// Equivalence oracle: lazy sampler vs an eager reference
// ---------------------------------------------------------------------------

/// One series of the eager reference: every window commits a sample.
struct EagerSeries {
    name: String,
    unit: &'static str,
    kind: SeriesKind,
    /// Unsampled windows read 0 (a window statistic) instead of holding.
    idle_zero: bool,
    samples: VecDeque<u64>,
    total: u64,
    last_raw: u64,
}

/// The eager sampler the lazy one replaces: at each close every series
/// commits a sample, its probe's raw if it moved and its idle raw if not.
struct EagerSampler {
    interval_ns: u64,
    capacity: usize,
    closed: u64,
    series: Vec<EagerSeries>,
}

impl EagerSampler {
    fn register(&mut self, name: &str, kind: SeriesKind, idle_zero: bool) {
        self.series.push(EagerSeries {
            name: name.to_string(),
            unit: "n",
            kind,
            idle_zero,
            samples: VecDeque::new(),
            total: self.closed,
            last_raw: 0,
        });
    }

    /// Closes one window; `raws[i]` is series `i`'s probe if it moved.
    fn close(&mut self, raws: &[Option<u64>]) {
        self.closed += 1;
        for (s, raw) in self.series.iter_mut().zip(raws) {
            let idle_raw = if s.idle_zero { 0 } else { s.last_raw };
            let raw = raw.unwrap_or(idle_raw);
            let value = match s.kind {
                SeriesKind::Gauge => raw,
                SeriesKind::Counter => raw.saturating_sub(s.last_raw),
            };
            s.last_raw = raw;
            if s.samples.len() == self.capacity {
                s.samples.pop_front();
            }
            s.samples.push_back(value);
            s.total += 1;
        }
    }

    fn first_window(s: &EagerSeries) -> u64 {
        s.total - s.samples.len() as u64
    }

    fn value_at(s: &EagerSeries, w: u64) -> Option<u64> {
        let first = Self::first_window(s);
        (w >= first)
            .then(|| s.samples.get((w - first) as usize).copied())
            .flatten()
    }

    fn sorted(&self) -> Vec<&EagerSeries> {
        let mut v: Vec<&EagerSeries> = self.series.iter().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    fn json(&self) -> serde_json::Value {
        let series: Vec<serde_json::Value> = self
            .sorted()
            .iter()
            .map(|s| {
                serde_json::json!({
                    "name": s.name,
                    "unit": s.unit,
                    "kind": s.kind.as_str(),
                    "first_window": Self::first_window(s),
                    "samples": s.samples.iter().copied().collect::<Vec<u64>>(),
                })
            })
            .collect();
        serde_json::json!({
            "interval_ns": self.interval_ns,
            "windows": self.closed,
            "series": series,
        })
    }

    fn csv(&self) -> String {
        let cols = self.sorted();
        let mut out = String::from("window,end_ns");
        for c in &cols {
            out.push(',');
            out.push_str(&c.name);
        }
        out.push('\n');
        let first = cols
            .iter()
            .map(|c| Self::first_window(c))
            .min()
            .unwrap_or(0);
        for w in first..self.closed {
            out.push_str(&format!("{w},{}", (w + 1) * self.interval_ns));
            for c in &cols {
                out.push(',');
                if let Some(v) = Self::value_at(c, w) {
                    out.push_str(&v.to_string());
                }
            }
            out.push('\n');
        }
        out
    }
}

impl EagerSampler {
    /// The latest window's value of the first series named `name`.
    fn latest(&self, name: &str) -> Option<u64> {
        let s = self.series.iter().find(|s| s.name == name)?;
        Self::value_at(s, self.closed.checked_sub(1)?)
    }
}

/// A condition evaluated on the eager reference.
fn eager_holds(eager: &EagerSampler, c: &Condition) -> Option<u64> {
    let v = eager.latest(&c.series)?;
    let holds = match c.cmp {
        Cmp::Above => v > c.threshold,
        Cmp::Below => v < c.threshold,
    };
    holds.then_some(v)
}

/// A random rule over the names `s00`..`s11` (some register late or
/// never) and one name that never exists.
fn random_rule(rng: &mut nesc_sim::SimRng) -> SloRule {
    let cond = |rng: &mut nesc_sim::SimRng| {
        let n = rng.range(0, 13);
        let name = if n == 12 {
            "missing".to_string()
        } else {
            format!("s{n:02}")
        };
        let cmp = if rng.chance(0.5) { "above" } else { "below" };
        format!("{name} {cmp} {}", rng.range(0, 4))
    };
    let mut text = format!("{} for {}", cond(rng), rng.range(1, 4));
    if rng.chance(0.3) {
        text = format!("{text} while {}", cond(rng));
    }
    SloRule::parse(&text).expect("generated rule parses")
}

/// Drives the real sampler (sampling only series whose probe moved) and
/// the eager reference with the same seeded activity, comparing every
/// reader after every close and the exports at checkpoints. Per-series
/// activity rates go down to 1 in 60 windows against a ring of 8, so idle
/// gaps outlast the ring; series register late, between closes and during
/// one, some under duplicate names. A watchdog over the real sampler must emit exactly the
/// anomalies of evaluating every rule against the reference at every
/// close.
fn check_lazy_sampler_against_eager(seed: u64) {
    const INTERVAL_NS: u64 = 10;
    const CAPACITY: usize = 8;
    let mut rng = nesc_sim::SimRng::seed(seed);
    let mut lazy = Sampler::new(SimDuration::from_nanos(INTERVAL_NS), CAPACITY);
    let mut eager = EagerSampler {
        interval_ns: INTERVAL_NS,
        capacity: CAPACITY,
        closed: 0,
        series: Vec::new(),
    };
    let rules: Vec<SloRule> = (0..24).map(|_| random_rule(&mut rng)).collect();
    let mut watchdog = SloWatchdog::new();
    for r in &rules {
        watchdog.add_rule(r.clone());
    }
    let mut streaks = vec![0u32; rules.len()];
    let mut want_anomalies = Vec::new();
    // Per series: id, activity rate (per mille), counter raw.
    let mut live: Vec<(nesc_sim::SeriesId, u64, u64)> = Vec::new();
    let register = |lazy: &mut Sampler, eager: &mut EagerSampler, rng: &mut nesc_sim::SimRng| {
        let n = eager.series.len();
        // One name in four repeats an earlier one.
        let name = if n > 0 && rng.chance(0.25) {
            eager.series[rng.range(0, n as u64) as usize].name.clone()
        } else {
            format!("s{n:02}")
        };
        let (kind, idle_zero) = match rng.range(0, 3) {
            0 => (SeriesKind::Counter, false),
            1 => (SeriesKind::Gauge, false),
            _ => (SeriesKind::Gauge, true),
        };
        let id = if idle_zero {
            lazy.register_window_stat(&name, "n")
        } else {
            lazy.register(&name, "n", kind)
        };
        eager.register(&name, kind, idle_zero);
        let rate = [1000, 500, 100, 30, 16][rng.range(0, 5) as usize];
        (id, rate)
    };
    for _ in 0..4 {
        let (id, rate) = register(&mut lazy, &mut eager, &mut rng);
        live.push((id, rate, 0));
    }
    for w in 0..400u64 {
        if rng.chance(0.02) {
            let (id, rate) = register(&mut lazy, &mut eager, &mut rng);
            live.push((id, rate, 0));
        }
        assert!(lazy
            .due(SimTime::from_nanos((w + 1) * INTERVAL_NS))
            .is_some());
        let mut raws = Vec::with_capacity(live.len());
        for (i, (id, rate, counter)) in live.iter_mut().enumerate() {
            let moved = rng.range(0, 1000) < *rate;
            let raw = moved.then(|| match eager.series[i].kind {
                SeriesKind::Counter => {
                    *counter += rng.range(0, 4);
                    *counter
                }
                // Small gauge values repeat often, exercising run merging.
                SeriesKind::Gauge => rng.range(0, 3),
            });
            if let Some(raw) = raw {
                lazy.sample(*id, raw);
            }
            raws.push(raw);
        }
        eager.close(&raws);
        if rng.chance(0.02) {
            // Registered during the close: the series starts at the next
            // window, and the watchdog binds to it in this one.
            let (id, rate) = register(&mut lazy, &mut eager, &mut rng);
            live.push((id, rate, 0));
        }
        watchdog.evaluate(&lazy, &Tracer::disabled());
        for (i, rule) in rules.iter().enumerate() {
            let value = eager_holds(&eager, &rule.primary).filter(|_| {
                rule.guard
                    .as_ref()
                    .is_none_or(|g| eager_holds(&eager, g).is_some())
            });
            match value {
                Some(v) => {
                    streaks[i] += 1;
                    if streaks[i] == rule.consecutive {
                        want_anomalies.push((i, w, v));
                    }
                }
                None => streaks[i] = 0,
            }
        }

        for (i, (id, _, _)) in live.iter().enumerate() {
            let (got, want) = (lazy.series_by_id(*id), &eager.series[i]);
            assert_eq!(
                got.first_window(),
                EagerSampler::first_window(want),
                "seed {seed}"
            );
            assert_eq!(got.len(), want.samples.len(), "seed {seed} window {w}");
            for q in w.saturating_sub(CAPACITY as u64 + 2)..=w + 1 {
                assert_eq!(
                    got.value_at(q),
                    EagerSampler::value_at(want, q),
                    "seed {seed}: series {i} value_at({q}) after window {w}"
                );
            }
        }
        if w % 97 == 0 || w == 399 {
            assert_eq!(
                perfmon::series_json(&lazy),
                eager.json(),
                "seed {seed} window {w}"
            );
            assert_eq!(
                perfmon::series_csv(&lazy),
                eager.csv(),
                "seed {seed} window {w}"
            );
        }
    }
    let got: Vec<(usize, u64, u64)> = watchdog
        .anomalies()
        .iter()
        .map(|a| (a.rule_index, a.window, a.value))
        .collect();
    assert!(
        !want_anomalies.is_empty(),
        "seed {seed}: the rules must fire"
    );
    assert_eq!(got, want_anomalies, "seed {seed}: anomalies");
}

#[test]
fn lazy_sampler_matches_eager_reference() {
    for seed in [1, 2, 3, 0xD47A_CE17] {
        check_lazy_sampler_against_eager(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same oracle over random seeds.
    #[test]
    fn prop_lazy_sampler_matches_eager_reference(seed in any::<u64>()) {
        check_lazy_sampler_against_eager(seed);
    }
}
