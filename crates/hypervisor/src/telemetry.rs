//! System-level telemetry: the perfmon sampler wired across every layer.
//!
//! [`Telemetry`] owns a [`Sampler`] plus an [`SloWatchdog`] and knows how
//! to feed them from the assembled stack:
//!
//! * **core** — BTLB lookup/hit counters and windowed hit ratio, walk-unit
//!   occupancy, miss-interrupt rate, per-function command-ring depth;
//! * **storage / pcie** — media and link busy time as parts-per-million
//!   utilization per window;
//! * **hypervisor** — per-VF windowed request/byte counters and p50/p99
//!   latency (from a histogram that resets each window), plus the miss
//!   handler's rewalk service rate and p99.
//!
//! Everything is driven by *simulated* time, and sampling is *deferred*
//! off the hot path: each request completion appends one fixed-size
//! observation record ([`Telemetry::record_request`]) and performs a
//! single integer compare against the cached next window end
//! ([`Telemetry::due`]). Only when a completion (or idle think time)
//! crosses a window boundary does [`Telemetry::poll`] run: it folds the
//! pending records into their windows by timestamp, closes every window
//! whose end has passed, commits the window's samples, and runs the
//! watchdog. The fold is exact — an observation at time `t` is visible to
//! a window ending at `W` iff `t < W`, which is precisely the window an
//! eager record-after-poll would have landed it in — so the exported
//! series are byte-identical to inline polling while the per-request cost
//! drops to an append. No wall clock, no background thread — the same
//! seed produces byte-identical time series.
//!
//! The completion record is the only note the hot path makes of a
//! finished request. It carries the request's sequence id and root span
//! as well, so when the flight recorder is enabled the window close hands
//! the window's folded records to [`FlightHandle::close_window`], which
//! picks the worst-K exemplars from them.
//!
//! A window close costs O(fixed series + dirty VFs + rules), not O(VFs).
//! A disk is *dirty* in a window if a completion was folded into it; only
//! dirty disks have their `hv.vf<d>.*` and `core.ring_depth.f<f>` series
//! sampled. A clean disk's series take their idle values in the sampler —
//! zero request and byte deltas, zero p50/p99, the previous ring depth —
//! which are exactly the values sampling it would have committed: its
//! counters did not move, it has no latencies in the window, and every
//! request is drained from its ring before the issue path polls.
//!
//! # Example
//!
//! ```
//! use nesc_hypervisor::prelude::*;
//!
//! let mut sys = SystemBuilder::new()
//!     .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(50)))
//!     .build();
//! let disk = sys.quick_disk(DiskKind::NescDirect, "t.img", 1 << 20).disk;
//! for _ in 0..32 {
//!     sys.write(disk, 0, &[7u8; 4096]);
//!     sys.think(SimDuration::from_micros(20));
//! }
//! sys.telemetry_finish();
//! let sampler = sys.telemetry().unwrap().sampler();
//! assert!(sampler.closed_windows() > 0);
//! assert!(sampler.series_by_name("hv.vf0.requests").is_some());
//! ```

use nesc_core::{FuncId, NescDevice};
use nesc_sim::perfmon::{series_json, utilization_ppm, SeriesKind};
use nesc_sim::Tracer;
use nesc_sim::{AnomalyEvent, Histogram, Sampler, SeriesId, SimDuration, SloRule, SloWatchdog};
use nesc_sim::{CompletedRequest, FlightConfig, FlightEventKind, FlightHandle, SimTime, SpanId};

use crate::system::DiskId;

/// Configuration for the telemetry subsystem: sampling interval, ring
/// capacity per series, and the SLO watchdog rules.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window length; every series commits one sample per window.
    pub interval: SimDuration,
    /// Retained windows per series (older samples are evicted).
    pub capacity: usize,
    /// Declarative SLO rules evaluated at every window close.
    pub rules: Vec<SloRule>,
    /// Flight-recorder configuration; `None` (the default) leaves the
    /// recorder disabled and the hot path untouched.
    pub flight: Option<FlightConfig>,
}

impl TelemetryConfig {
    /// A config with the given window length, 256 retained windows, and
    /// no watchdog rules. A zero interval (a contract violation: windows
    /// must advance simulated time) is widened to one nanosecond.
    pub fn windowed(interval: SimDuration) -> Self {
        debug_assert!(!interval.is_zero(), "telemetry interval must be non-zero");
        let interval = interval.max(SimDuration::from_nanos(1));
        TelemetryConfig {
            interval,
            capacity: 256,
            rules: Vec::new(),
            flight: None,
        }
    }

    /// Sets the per-series ring capacity.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Adds a watchdog rule.
    pub fn rule(mut self, rule: SloRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Parses and adds a watchdog rule from the grammar
    /// `<series> above|below <N> for <K> [while <series> above|below <M>]`.
    ///
    /// # Panics
    ///
    /// Panics on a grammar error — rule texts are harness constants.
    // nesc-lint::allow(P1): builder-time parse of compile-time constant
    // rule strings; runtime-supplied rules go through SloRule::parse and
    // get the typed RuleParseError.
    pub fn rule_text(self, text: &str) -> Self {
        self.rule(SloRule::parse(text).expect("valid SLO rule"))
    }

    /// Enables the flight recorder: queue/scheduler/BTLB/media/link
    /// events stream into its ring, worst-K exemplars are retained per
    /// window, and the first watchdog anomaly snapshots a forensic dump.
    pub fn flight(mut self, cfg: FlightConfig) -> Self {
        self.flight = Some(cfg);
        self
    }
}

/// Deterministic work counters of the telemetry layer: what a run cost in
/// windows, samples and name lookups, independent of host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TelemetryWork {
    /// Windows closed.
    pub windows: u64,
    /// Series registered.
    pub series: u64,
    /// Samples committed (idle windows commit none).
    pub samples: u64,
    /// Series name lookups made by the SLO watchdog.
    pub name_lookups: u64,
}

/// Per-disk series: windowed request/byte counters, latency percentiles,
/// and (for NescDirect disks) the VF's command-ring depth.
#[derive(Debug)]
struct VfSeries {
    requests: SeriesId,
    bytes: SeriesId,
    p50: SeriesId,
    p99: SeriesId,
    /// Ring-depth gauge and its function, for NescDirect disks.
    ring: Option<(SeriesId, FuncId)>,
    /// Cumulative raws feeding the counter series.
    raw_requests: u64,
    raw_bytes: u64,
    /// Latency samples of the currently open window, taken at each
    /// close. Non-empty exactly when the disk is dirty.
    hist: Histogram,
}

/// One deferred per-request observation: appended by the hot path, folded
/// into its disk's raw counters when the window containing `done.t_ns`
/// closes, and offered to the flight recorder's exemplar selection.
#[derive(Debug, Clone, Copy)]
struct PendingObs {
    /// Completion time, sequence id, disk, latency and root span.
    done: CompletedRequest,
    /// Request payload bytes.
    bytes: u64,
}

/// The assembled telemetry subsystem (see the module docs).
#[derive(Debug)]
pub struct Telemetry {
    sampler: Sampler,
    watchdog: SloWatchdog,
    // Core probes.
    s_btlb_lookups: SeriesId,
    s_btlb_hits: SeriesId,
    s_btlb_hit_ppm: SeriesId,
    s_walk_busy_ppm: SeriesId,
    s_miss_irqs: SeriesId,
    // Storage / PCIe probes.
    s_media_util: SeriesId,
    s_link_up: SeriesId,
    s_link_down: SeriesId,
    // Hypervisor probes.
    s_rewalks: SeriesId,
    s_rewalk_p99: SeriesId,
    /// Per-disk accounting, indexed by dense disk index (attach order).
    /// `None` marks an index whose disk was never registered.
    vfs: Vec<Option<VfSeries>>,
    /// Indices of the dirty disks of the window being closed.
    dirty: Vec<usize>,
    /// Deferred per-request observations since the last window close (the
    /// hot path appends; [`poll`](Self::poll) drains at window
    /// boundaries). Capacity is retained across drains.
    pending: Vec<PendingObs>,
    /// Cached end of the oldest unclosed window, in nanoseconds — the hot
    /// path's single-compare test for "is any window due".
    next_due_ns: u64,
    rewalk_count: u64,
    rewalk_hist: Histogram,
    // Previous cumulative raws for windowed-ratio gauges.
    prev_btlb_lookups: u64,
    prev_btlb_hits: u64,
    prev_walk_busy: SimDuration,
    prev_media_busy: SimDuration,
    prev_link_up: SimDuration,
    prev_link_down: SimDuration,
    /// The flight recorder (disabled unless configured). The same handle
    /// is cloned into the device and the system's issue path.
    flight: FlightHandle,
    /// Anomalies already mirrored into the flight ring / forensic dump.
    anomaly_seen: usize,
    /// The forensic dump captured when the watchdog first fired, if any.
    forensic: Option<serde_json::Value>,
}

/// Growth of a monotonic busy-time counter since the previous window.
fn delta(cur: SimDuration, prev: SimDuration) -> SimDuration {
    SimDuration::from_nanos(cur.as_nanos().saturating_sub(prev.as_nanos()))
}

impl Telemetry {
    /// Builds the subsystem and registers the fixed (non-per-disk)
    /// series. Per-disk series are added by
    /// [`register_disk`](Self::register_disk) as disks attach.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let mut sampler = Sampler::new(cfg.interval, cfg.capacity);
        let mut watchdog = SloWatchdog::new();
        let flight = match cfg.flight {
            Some(fc) => FlightHandle::enabled(fc),
            None => FlightHandle::disabled(),
        };
        for rule in cfg.rules {
            watchdog.add_rule(rule);
        }
        let ops = SeriesKind::Counter;
        let gauge = SeriesKind::Gauge;
        let next_due_ns = (SimTime::ZERO + cfg.interval).as_nanos();
        Telemetry {
            s_btlb_lookups: sampler.register("core.btlb_lookups", "ops", ops),
            s_btlb_hits: sampler.register("core.btlb_hits", "ops", ops),
            s_btlb_hit_ppm: sampler.register("core.btlb_hit_ppm", "ppm", gauge),
            s_walk_busy_ppm: sampler.register("core.walk_busy_ppm", "ppm", gauge),
            s_miss_irqs: sampler.register("core.miss_interrupts", "ops", ops),
            s_media_util: sampler.register("storage.media_util_ppm", "ppm", gauge),
            s_link_up: sampler.register("pcie.link_up_util_ppm", "ppm", gauge),
            s_link_down: sampler.register("pcie.link_down_util_ppm", "ppm", gauge),
            s_rewalks: sampler.register("hv.rewalks", "ops", ops),
            s_rewalk_p99: sampler.register("hv.rewalk_p99_ns", "ns", gauge),
            sampler,
            watchdog,
            vfs: Vec::new(),
            dirty: Vec::new(),
            pending: Vec::new(),
            next_due_ns,
            rewalk_count: 0,
            rewalk_hist: Histogram::new(),
            prev_btlb_lookups: 0,
            prev_btlb_hits: 0,
            prev_walk_busy: SimDuration::ZERO,
            prev_media_busy: SimDuration::ZERO,
            prev_link_up: SimDuration::ZERO,
            prev_link_down: SimDuration::ZERO,
            flight,
            anomaly_seen: 0,
            forensic: None,
        }
    }

    /// Registers the per-disk series (`hv.vf<d>.*`; and
    /// `core.ring_depth.f<f>` when the disk has a VF). A disk attached
    /// after windows have already closed starts sampling at the current
    /// window.
    pub fn register_disk(&mut self, disk: DiskId, func: Option<FuncId>) {
        let d = disk.0;
        let vf = VfSeries {
            requests: self.sampler.register(
                &format!("hv.vf{d}.requests"),
                "ops",
                SeriesKind::Counter,
            ),
            bytes: self
                .sampler
                .register(&format!("hv.vf{d}.bytes"), "bytes", SeriesKind::Counter),
            p50: self
                .sampler
                .register_window_stat(&format!("hv.vf{d}.p50_ns"), "ns"),
            p99: self
                .sampler
                .register_window_stat(&format!("hv.vf{d}.p99_ns"), "ns"),
            ring: func.map(|f| {
                let id = self.sampler.register(
                    &format!("core.ring_depth.f{}", f.0),
                    "entries",
                    SeriesKind::Gauge,
                );
                (id, f)
            }),
            raw_requests: 0,
            raw_bytes: 0,
            hist: Histogram::new(),
        };
        if self.vfs.len() <= d {
            self.vfs.resize_with(d + 1, || None);
        }
        self.vfs[d] = Some(vf);
    }

    /// Accounts one completed request against its disk — the hot-path
    /// append. The observation is *deferred*: nothing but a fixed-size
    /// record push happens here; [`poll`](Self::poll) folds it into the
    /// disk's raw counters when the window containing `done` closes, so it
    /// lands in exactly the window an eager record-after-poll would have
    /// (a record at `t` is visible to a window ending at `W` iff `t < W`).
    /// `seq` and `root` identify the request to the flight recorder.
    // nesc-lint: hot
    #[inline]
    pub fn record_request(
        &mut self,
        done: SimTime,
        seq: u64,
        disk: DiskId,
        bytes: u64,
        latency: SimDuration,
        root: SpanId,
    ) {
        self.pending.push(PendingObs {
            done: CompletedRequest {
                t_ns: done.as_nanos(),
                seq,
                disk: disk.0 as u32,
                latency_ns: latency.as_nanos(),
                root,
            },
            bytes,
        });
    }

    /// Whether any telemetry window ends at or before `now` — the hot
    /// path's single branch deciding if [`poll`](Self::poll) must run.
    // nesc-lint: hot
    #[inline]
    pub fn due(&self, now: SimTime) -> bool {
        now.as_nanos() >= self.next_due_ns
    }

    /// Folds every deferred observation earlier than `window_end_ns` into
    /// its disk's raw counters, marking the disk dirty, and moves it to the
    /// front of the pending list. Returns how many were folded: the window
    /// close offers them to the flight recorder before draining them.
    /// Application order does not matter: the raws are sums and a
    /// histogram, both commutative, and exemplar selection is total.
    fn fold_pending(&mut self, window_end_ns: u64) -> usize {
        let mut folded = 0;
        for i in 0..self.pending.len() {
            let r = self.pending[i];
            if r.done.t_ns >= window_end_ns {
                continue;
            }
            self.pending.swap(folded, i);
            folded += 1;
            let disk = r.done.disk as usize;
            if let Some(Some(vf)) = self.vfs.get_mut(disk) {
                vf.raw_requests += 1;
                vf.raw_bytes += r.bytes;
                if vf.hist.count() == 0 {
                    self.dirty.push(disk);
                }
                vf.hist.record(r.done.latency_ns);
            }
        }
        folded
    }

    /// Accounts one miss-handler rewalk service (interrupt to
    /// `RewalkTree` write-back).
    pub fn record_rewalk(&mut self, latency: SimDuration) {
        self.rewalk_count += 1;
        self.rewalk_hist.record(latency.as_nanos());
    }

    /// Closes every window whose end time has passed, committing the fixed
    /// series and the dirty disks' series for each and running the
    /// watchdog. Busy-time probes are read from the device; an idle
    /// stretch closes several windows in one call (counters record zeros
    /// after the first).
    pub fn poll(&mut self, now: SimTime, dev: &NescDevice, tracer: &Tracer) {
        if !self.due(now) {
            return;
        }
        while let Some(end) = self.sampler.due(now) {
            let folded = self.fold_pending(end.as_nanos());
            let interval = self.sampler.interval();
            let stats = dev.stats();
            self.sampler.sample(self.s_btlb_lookups, stats.btlb_lookups);
            self.sampler.sample(self.s_btlb_hits, stats.btlb_hits);
            let dl = stats.btlb_lookups - self.prev_btlb_lookups;
            let dh = stats.btlb_hits - self.prev_btlb_hits;
            let hit_ppm = (dh * 1_000_000).checked_div(dl).unwrap_or(0);
            self.sampler.sample(self.s_btlb_hit_ppm, hit_ppm);
            self.prev_btlb_lookups = stats.btlb_lookups;
            self.prev_btlb_hits = stats.btlb_hits;
            self.sampler.sample(self.s_miss_irqs, stats.miss_interrupts);

            // Busy-time deltas over the window, normalized to ppm. Work is
            // attributed to the window in which it was *accepted* (service
            // units book busy time at serve time), so a burst can exceed
            // the window and the clamp in `utilization_ppm` applies.
            let walk = dev.walk_busy_time();
            let walk_span = interval * dev.walk_slot_count() as u64;
            self.sampler.sample(
                self.s_walk_busy_ppm,
                utilization_ppm(delta(walk, self.prev_walk_busy), walk_span),
            );
            self.prev_walk_busy = walk;
            let media = dev.media_busy_time();
            self.sampler.sample(
                self.s_media_util,
                utilization_ppm(delta(media, self.prev_media_busy), interval),
            );
            self.prev_media_busy = media;
            let (up, down) = dev.link_busy_time();
            self.sampler.sample(
                self.s_link_up,
                utilization_ppm(delta(up, self.prev_link_up), interval),
            );
            self.prev_link_up = up;
            self.sampler.sample(
                self.s_link_down,
                utilization_ppm(delta(down, self.prev_link_down), interval),
            );
            self.prev_link_down = down;

            self.sampler.sample(self.s_rewalks, self.rewalk_count);
            let rewalk_p99 = if self.rewalk_hist.count() == 0 {
                0
            } else {
                self.rewalk_hist.percentile(99.0)
            };
            self.sampler.sample(self.s_rewalk_p99, rewalk_p99);
            self.rewalk_hist.reset();

            for d in self.dirty.drain(..) {
                let Some(Some(vf)) = self.vfs.get_mut(d) else {
                    continue;
                };
                self.sampler.sample(vf.requests, vf.raw_requests);
                self.sampler.sample(vf.bytes, vf.raw_bytes);
                // Taken, not reset: a clean disk holds no bucket storage.
                let (p50, p99) = std::mem::take(&mut vf.hist).percentile_pair(50.0, 99.0);
                self.sampler.sample(vf.p50, p50);
                self.sampler.sample(vf.p99, p99);
                if let Some((id, func)) = vf.ring {
                    self.sampler.sample(id, dev.ring_depth(func) as u64);
                }
            }
            debug_assert!(
                self.rings_match(dev),
                "a clean disk's ring depth moved without a completion"
            );
            self.watchdog.evaluate(&self.sampler, tracer);
            if self.flight.is_enabled() {
                let window = self.sampler.closed_windows().saturating_sub(1);
                let done = self.pending[..folded].iter().map(|p| p.done);
                self.flight.close_window(window, done, tracer);
                self.note_anomalies(end);
            }
            self.pending.drain(..folded);
        }
        self.next_due_ns = self
            .sampler
            .window_end(self.sampler.closed_windows())
            .as_nanos();
    }

    /// Whether every disk's ring-depth series reads the device's ring depth
    /// in the window just closed — the invariant that lets a clean disk's
    /// ring hold its previous depth. O(disks): debug builds only.
    fn rings_match(&self, dev: &NescDevice) -> bool {
        let window = self.sampler.closed_windows().saturating_sub(1);
        self.vfs.iter().flatten().all(|vf| {
            vf.ring.is_none_or(|(id, func)| {
                self.sampler.series_by_id(id).value_at(window) == Some(dev.ring_depth(func) as u64)
            })
        })
    }

    /// Mirrors watchdog anomalies the recorder has not seen yet into the
    /// flight ring, and snapshots the forensic dump when the first one
    /// fires — after the window's exemplar fold, so the dump holds the
    /// breaching window's worst requests.
    fn note_anomalies(&mut self, end: SimTime) {
        let anomalies = self.watchdog.anomalies();
        if anomalies.len() <= self.anomaly_seen {
            return;
        }
        let first_new = self.anomaly_seen;
        for a in &anomalies[self.anomaly_seen..] {
            self.flight.append(
                end,
                FlightEventKind::Anomaly,
                0,
                a.rule_index as u64,
                a.window,
            );
        }
        self.anomaly_seen = anomalies.len();
        if self.forensic.is_none() {
            if let Some(first) = self.watchdog.anomalies().get(first_new) {
                let first = first.clone();
                let dump = self.forensic_json(&first);
                self.forensic = Some(dump);
            }
        }
    }

    /// Assembles the deterministic forensic dump: the triggering anomaly,
    /// the active window series, and the flight ring + exemplars as of
    /// the breach.
    fn forensic_json(&self, a: &AnomalyEvent) -> serde_json::Value {
        serde_json::json!({
            "anomaly": {
                "rule": a.rule.clone(),
                "rule_index": a.rule_index,
                "text": a.text.clone(),
                "series": a.series.clone(),
                "window": a.window,
                "at_ns": a.at.as_nanos(),
                "value": a.value,
                "consecutive": a.consecutive,
            },
            "series": series_json(&self.sampler),
            "flight": self.flight.snapshot_json(),
        })
    }

    /// The sampler (series, windows, exporters).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The run's deterministic work counters so far.
    pub fn work(&self) -> TelemetryWork {
        TelemetryWork {
            windows: self.sampler.closed_windows(),
            series: self.sampler.series().len() as u64,
            samples: self.sampler.samples_committed(),
            name_lookups: self.watchdog.name_lookups(),
        }
    }

    /// The watchdog (rules and recorded anomalies).
    pub fn watchdog(&self) -> &SloWatchdog {
        &self.watchdog
    }

    /// All anomalies recorded so far, in emission order.
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        self.watchdog.anomalies()
    }

    /// The flight-recorder handle (disabled unless configured). The
    /// system clones this into the device so every layer records into
    /// one ring.
    pub fn flight(&self) -> &FlightHandle {
        &self.flight
    }

    /// The forensic dump captured when the watchdog first fired, if any.
    pub fn forensic_dump(&self) -> Option<&serde_json::Value> {
        self.forensic.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use nesc_sim::perfmon;

    fn run_workload(mut sys: System) -> System {
        let a = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        let b = sys.quick_disk(DiskKind::Virtio, "b.img", 1 << 20).disk;
        let mut out = [0u8; 2048];
        for i in 0..24u64 {
            sys.write(a, (i % 8) * 4096, &[i as u8; 4096]);
            sys.read(b, 0, &mut out);
            sys.think(SimDuration::from_micros(5));
        }
        // Idle past the open window so the last observations are committed
        // before the partial window is dropped.
        sys.think(SimDuration::from_micros(50));
        sys.telemetry_finish();
        sys
    }

    fn telemetry_system() -> System {
        SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .telemetry(TelemetryConfig::windowed(SimDuration::from_micros(25)).capacity(4096))
            .build()
    }

    #[test]
    fn probes_cover_every_layer() {
        let sys = run_workload(telemetry_system());
        let sampler = sys.telemetry().unwrap().sampler();
        assert!(sampler.closed_windows() > 2, "workload spans windows");
        for name in [
            "core.btlb_lookups",
            "core.btlb_hits",
            "core.btlb_hit_ppm",
            "core.walk_busy_ppm",
            "core.miss_interrupts",
            "core.ring_depth.f1",
            "storage.media_util_ppm",
            "pcie.link_up_util_ppm",
            "pcie.link_down_util_ppm",
            "hv.vf0.requests",
            "hv.vf0.bytes",
            "hv.vf0.p50_ns",
            "hv.vf0.p99_ns",
            "hv.vf1.requests",
            "hv.rewalks",
            "hv.rewalk_p99_ns",
        ] {
            let s = sampler.series_by_name(name).unwrap_or_else(|| {
                panic!("series {name} missing");
            });
            assert!(!s.is_empty(), "series {name} never sampled");
        }
        // Per-VF counters account for the whole workload: 24 writes of
        // 4 KiB on disk 0, 24 reads of 2 KiB on disk 1.
        let total = |name: &str| {
            sampler
                .series_by_name(name)
                .unwrap()
                .samples()
                .map(|(_, v)| v)
                .sum::<u64>()
        };
        assert_eq!(total("hv.vf0.requests"), 24);
        assert_eq!(total("hv.vf0.bytes"), 24 * 4096);
        assert_eq!(total("hv.vf1.requests"), 24);
        // The direct path exercised the BTLB; hits were recorded.
        assert!(total("core.btlb_lookups") > 0);
        assert_eq!(
            total("core.btlb_lookups"),
            sys.device().stats().btlb_lookups
        );
    }

    #[test]
    fn telemetry_is_deterministic_across_runs() {
        let a = run_workload(telemetry_system());
        let b = run_workload(telemetry_system());
        let (sa, sb) = (
            a.telemetry().unwrap().sampler(),
            b.telemetry().unwrap().sampler(),
        );
        assert_eq!(perfmon::digest_hash(sa), perfmon::digest_hash(sb));
        assert_eq!(perfmon::series_json(sa), perfmon::series_json(sb));
    }

    #[test]
    fn telemetry_does_not_perturb_timing() {
        let mut plain = SystemBuilder::new().capacity_blocks(64 * 1024).build();
        let mut instr = telemetry_system();
        let dp = plain
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        let di = instr
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        for i in 0..16u64 {
            let lp = plain.write(dp, i * 4096, &[3u8; 4096]);
            let li = instr.write(di, i * 4096, &[3u8; 4096]);
            assert_eq!(lp, li, "telemetry must be timing-invisible");
        }
    }

    #[test]
    fn watchdog_rule_fires_through_the_system() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_micros(25))
            .rule_text("hv.vf0.requests above 0 for 3");
        let mut sys = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .telemetry(cfg)
            .build();
        let d = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        for i in 0..40u64 {
            sys.write(d, (i % 16) * 4096, &[1u8; 4096]);
            sys.think(SimDuration::from_micros(10));
        }
        sys.telemetry_finish();
        let anomalies = sys.telemetry().unwrap().anomalies();
        assert!(
            !anomalies.is_empty(),
            "sustained traffic must trip the rule"
        );
        assert_eq!(anomalies[0].consecutive, 3);
        assert_eq!(anomalies[0].series, "hv.vf0.requests");
    }

    #[test]
    fn flight_recorder_captures_events_exemplars_and_a_dump() {
        let cfg = TelemetryConfig::windowed(SimDuration::from_micros(25))
            .rule_text("hv.vf0.requests above 0 for 3")
            .flight(FlightConfig::default());
        let mut sys = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .tracing(true)
            .telemetry(cfg)
            .build();
        let d = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        for i in 0..40u64 {
            sys.write(d, (i % 16) * 4096, &[1u8; 4096]);
            sys.think(SimDuration::from_micros(10));
        }
        sys.telemetry_finish();
        let tel = sys.telemetry().unwrap();
        assert!(!tel.anomalies().is_empty(), "rule must fire");
        let fl = tel.flight();
        assert!(fl.is_enabled());
        assert!(fl.with(|r| r.total()).unwrap() > 0, "ring recorded events");
        let exemplars_with_spans = fl
            .with(|r| r.exemplars().iter().filter(|e| !e.spans.is_empty()).count())
            .unwrap();
        assert!(
            exemplars_with_spans > 0,
            "tracing is on, so exemplars keep span trees"
        );
        let dump = tel.forensic_dump().expect("first anomaly captured a dump");
        for key in ["anomaly", "series", "flight"] {
            assert!(dump.get(key).is_some(), "dump missing {key}");
        }
    }

    #[test]
    fn exemplars_come_from_the_same_completion_record_as_the_vf_series() {
        // K and the horizon are large enough to keep every completion, so
        // each window's exemplars are exactly the requests its counter
        // counted.
        let flight = FlightConfig::default()
            .exemplar_k(64)
            .exemplar_windows(1 << 20);
        let cfg = TelemetryConfig::windowed(SimDuration::from_micros(25))
            .capacity(4096)
            .flight(flight);
        let mut sys = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .telemetry(cfg)
            .build();
        let d = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        let mut latencies = Vec::new();
        for i in 0..40u64 {
            latencies.push(sys.write(d, (i % 16) * 4096, &[1u8; 4096]).as_nanos());
            sys.think(SimDuration::from_micros(7));
        }
        sys.think(SimDuration::from_micros(50));
        sys.telemetry_finish();
        let tel = sys.telemetry().unwrap();
        let sampler = tel.sampler();
        let exemplars = tel.flight().with(|r| r.exemplars().clone()).unwrap();
        let requests = sampler.series_by_name("hv.vf0.requests").unwrap();
        assert!(requests.len() > 2, "workload spans windows");
        for (w, n) in requests.samples() {
            let kept = exemplars.iter().filter(|e| e.window == w).count() as u64;
            assert_eq!(kept, n, "window {w}");
        }
        let mut got: Vec<u64> = exemplars.iter().map(|e| e.latency_ns).collect();
        got.sort_unstable();
        latencies.sort_unstable();
        assert_eq!(got, latencies, "every request offered exactly once");
        for e in &exemplars {
            let (start, end) = (sampler.window_start(e.window), sampler.window_end(e.window));
            assert!(
                (start.as_nanos()..end.as_nanos()).contains(&e.t_ns),
                "request {} completed outside its window {}",
                e.seq,
                e.window
            );
        }
        // Within a window, worst latency first, ties to the earlier request.
        for (a, b) in exemplars.iter().zip(exemplars.iter().skip(1)) {
            if a.window == b.window {
                assert!(
                    (std::cmp::Reverse(a.latency_ns), a.seq)
                        < (std::cmp::Reverse(b.latency_ns), b.seq)
                );
            }
        }
    }

    #[test]
    fn flight_recorder_does_not_perturb_timing() {
        let mut plain = telemetry_system();
        let mut instr = SystemBuilder::new()
            .capacity_blocks(64 * 1024)
            .telemetry(
                TelemetryConfig::windowed(SimDuration::from_micros(25))
                    .capacity(4096)
                    .flight(FlightConfig::default()),
            )
            .build();
        let dp = plain
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        let di = instr
            .quick_disk(DiskKind::NescDirect, "a.img", 1 << 20)
            .disk;
        for i in 0..16u64 {
            let lp = plain.write(dp, i * 4096, &[3u8; 4096]);
            let li = instr.write(di, i * 4096, &[3u8; 4096]);
            assert_eq!(lp, li, "the recorder must be timing-invisible");
        }
    }

    #[test]
    fn late_attach_registers_series() {
        let mut sys = telemetry_system();
        let a = sys.quick_disk(DiskKind::NescDirect, "a.img", 1 << 20).disk;
        for _ in 0..8 {
            sys.write(a, 0, &[1u8; 1024]);
            sys.think(SimDuration::from_micros(30));
        }
        // Attach a second disk after several windows have closed.
        let b = sys.quick_disk(DiskKind::NescDirect, "b.img", 1 << 20).disk;
        sys.write(b, 0, &[2u8; 1024]);
        sys.think(SimDuration::from_micros(60));
        sys.telemetry_finish();
        let sampler = sys.telemetry().unwrap().sampler();
        let s = sampler.series_by_name("hv.vf1.requests").unwrap();
        assert!(s.first_window() > 0, "late series starts late");
        assert_eq!(s.samples().map(|(_, v)| v).sum::<u64>(), 1);
        let _ = (a, b);
    }
}
