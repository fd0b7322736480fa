//! Deterministic time-series performance monitoring.
//!
//! The paper's evaluation reports *aggregate* end-of-run numbers, and
//! spans explain single requests. This module adds the time dimension: a
//! [`Sampler`] closes fixed-width windows of simulated time and records one
//! sample per registered series per window, so a harness can say *when*
//! the BTLB went cold or *which* window a VF starved in, not just what the
//! run mean was.
//!
//! Determinism is structural, not aspirational:
//!
//! * windows are driven entirely by the simulated clock — the sampler owns
//!   an [`EventQueue`] of tick events and closes a window only when its
//!   owner observes simulated time passing the window end ([`Sampler::due`]);
//!   no wall clock is ever read (nesc-lint D1);
//! * every stored sample is a `u64` (nanoseconds, bytes, operations, or
//!   parts-per-million for utilizations), so exports are byte-stable and no
//!   float ever feeds back into scheduling (nesc-lint D4);
//! * every series holds one value per window closed since it registered,
//!   so two same-seed runs produce identical rings.
//!
//! Sampling is proportional to activity. The owner samples only the series
//! whose probe moved in a window; a series left unsampled takes its *idle*
//! value there — a counter's delta is 0, a gauge repeats its previous value,
//! and a [window statistic](Sampler::register_window_stat) reads 0. Rings
//! are stored run-length, so an idle stretch costs nothing until the next
//! sample, and every reader ([`TimeSeries`], the exporters, the digest)
//! sees exactly the ring that sampling every series at every close would
//! have built.
//!
//! On top of the series sit the [`SloWatchdog`] — declarative threshold
//! rules ("p99 above X for 3 consecutive windows", optionally guarded by a
//! second condition) that emit deterministic [`AnomalyEvent`]s and
//! `telemetry`-layer spans — and the exporters: [`series_json`] /
//! [`series_csv`] for `results/`, and [`merge_counter_tracks`] which
//! appends Perfetto `ph:"C"` counter tracks to an existing Chrome-trace
//! document so the time series render alongside the span swimlanes.
//!
//! # Example
//!
//! ```
//! use nesc_sim::perfmon::{Sampler, SeriesKind};
//! use nesc_sim::{SimDuration, SimTime};
//!
//! let mut s = Sampler::new(SimDuration::from_micros(10), 64);
//! let ops = s.register("ops", "count", SeriesKind::Counter);
//! let depth = s.register("depth", "entries", SeriesKind::Gauge);
//!
//! // The owner drives the sampler from simulated time: when `due`
//! // returns a window end, snapshot every probe that moved.
//! let mut total_ops = 0u64;
//! for t in [4_000u64, 12_000, 26_000] {
//!     total_ops += 10;
//!     while let Some(_end) = s.due(SimTime::from_nanos(t)) {
//!         s.sample(ops, total_ops);
//!         s.sample(depth, 3);
//!     }
//! }
//! let ring = s.series_by_name("ops").unwrap();
//! // Window 0 closed once time passed 10us; the snapshot taken then had
//! // seen 20 cumulative ops. Window 1 closed at 20us with 10 more.
//! assert_eq!(ring.samples().collect::<Vec<_>>(), vec![(0, 20), (1, 10)]);
//! ```

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::queue::EventQueue;
use crate::selfcheck::fnv1a;
use crate::time::{SimDuration, SimTime};
use crate::trace::{SpanId, Tracer};

/// Handle to one registered series (index into the sampler's table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// How raw probe values become stored samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// The raw value is stored as-is (queue depth, p99 of a window).
    Gauge,
    /// The raw value is a monotonic cumulative counter; the stored sample
    /// is the delta since the previous window's raw value.
    Counter,
}

impl SeriesKind {
    /// Stable lowercase name used by the exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            SeriesKind::Gauge => "gauge",
            SeriesKind::Counter => "counter",
        }
    }
}

/// Storage of one series: its per-window samples as runs of equal values.
#[derive(Debug, Clone)]
struct SeriesRing {
    name: String,
    unit: &'static str,
    kind: SeriesKind,
    /// An unsampled window reads 0 instead of holding the previous raw.
    idle_zero: bool,
    /// The window current when the series registered: its first window.
    start: u64,
    /// Runs `(first window, value)`, oldest first. A run lasts until the
    /// next one starts; the last one lasts until `upto`.
    runs: VecDeque<(u64, u64)>,
    /// One past the last window committed by [`Sampler::sample`]. Windows
    /// from here up to the sampler's close count are idle.
    upto: u64,
    /// Raw value at the previous sample (counter-delta state).
    last_raw: u64,
}

impl SeriesRing {
    /// The sample of a window in which the owner did not sample the series:
    /// what an unchanged raw stores (a counter's zero delta, a gauge's
    /// previous value), or 0 for a window statistic.
    fn idle_value(&self) -> u64 {
        match self.kind {
            SeriesKind::Gauge if !self.idle_zero => self.last_raw,
            _ => 0,
        }
    }

    /// Appends `value` for the windows from `from` on, extending the last
    /// run when the value repeats.
    fn push_run(&mut self, from: u64, value: u64) {
        if self.runs.back().is_none_or(|&(_, v)| v != value) {
            self.runs.push_back((from, value));
        }
    }

    /// The committed sample of `window` (`start <= window < upto`).
    fn run_value(&self, window: u64) -> u64 {
        let i = self.runs.partition_point(|&(from, _)| from <= window);
        i.checked_sub(1)
            .and_then(|i| self.runs.get(i))
            .map_or(0, |&(_, v)| v)
    }
}

/// A read-only view of one series: its per-window samples up to the
/// sampler's latest closed window, oldest retained first.
#[derive(Debug, Clone, Copy)]
pub struct TimeSeries<'a> {
    ring: &'a SeriesRing,
    /// Windows the sampler has closed.
    closed: u64,
    /// Ring capacity: windows retained per series.
    capacity: u64,
}

impl<'a> TimeSeries<'a> {
    /// Series name (e.g. `"core.btlb_hits"`).
    pub fn name(&self) -> &'a str {
        &self.ring.name
    }

    /// Unit label (e.g. `"ops"`, `"ns"`, `"ppm"`).
    pub fn unit(&self) -> &'static str {
        self.ring.unit
    }

    /// Gauge or counter-delta.
    pub fn kind(&self) -> SeriesKind {
        self.ring.kind
    }

    /// Number of samples currently held (≤ ring capacity).
    pub fn len(&self) -> usize {
        (self.closed - self.first_window()) as usize
    }

    /// Whether no window has been committed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Window index of the oldest retained sample.
    pub fn first_window(&self) -> u64 {
        self.ring
            .start
            .max(self.closed.saturating_sub(self.capacity))
    }

    /// Iterates `(window_index, value)` pairs, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = (u64, u64)> + 'a {
        let ring = self.ring;
        let first = self.first_window();
        let committed = ring
            .runs
            .iter()
            .enumerate()
            .flat_map(move |(i, &(from, v))| {
                let to = ring.runs.get(i + 1).map_or(ring.upto, |&(next, _)| next);
                (from.max(first)..to).map(move |w| (w, v))
            });
        let idle = ring.idle_value();
        let tail = (ring.upto.max(first)..self.closed).map(move |w| (w, idle));
        committed.chain(tail)
    }

    /// The sample for `window`, if still retained.
    pub fn value_at(&self, window: u64) -> Option<u64> {
        if window < self.first_window() || window >= self.closed {
            return None;
        }
        Some(if window >= self.ring.upto {
            self.ring.idle_value()
        } else {
            self.ring.run_value(window)
        })
    }

    /// The most recent `(window_index, value)` pair.
    pub fn latest(&self) -> Option<(u64, u64)> {
        let w = self.closed.checked_sub(1)?;
        self.value_at(w).map(|v| (w, v))
    }
}

/// The sampler's tick event: closing of one window.
#[derive(Debug, Clone, Copy)]
struct Tick {
    window: u64,
}

/// A deterministic windowed sampler.
///
/// The sampler never reads a clock: its owner calls [`due`](Self::due) with
/// the current *simulated* time, and the sampler pops tick events off its
/// internal [`EventQueue`] — one per elapsed window — handing back each
/// window end so the owner can snapshot the probes that moved via
/// [`sample`](Self::sample). Window `k` covers simulated time
/// `[k·interval, (k+1)·interval)`; an observation at exactly `k·interval`
/// therefore belongs to window `k` (the close for window `k-1` fires
/// first).
///
/// A window close costs O(samples committed in it): series the owner does
/// not sample take their idle value without being touched.
#[derive(Debug)]
pub struct Sampler {
    interval: SimDuration,
    capacity: usize,
    series: Vec<SeriesRing>,
    /// Name → first series registered under it.
    index: BTreeMap<String, SeriesId>,
    ticks: EventQueue<Tick>,
    /// Windows closed so far; window `closed - 1` is the one being (or
    /// last) sampled.
    closed: u64,
    /// Samples committed by [`sample`](Self::sample) over the run.
    samples_committed: u64,
    /// Series sampled at the latest close, in sampling order.
    sampled: Vec<SeriesId>,
}

impl Sampler {
    /// Creates a sampler closing a window every `interval`, retaining the
    /// most recent `capacity` samples per series.
    ///
    /// A zero interval (a contract violation: windows must advance
    /// simulated time) is widened to one nanosecond, and a zero capacity
    /// retains one sample.
    pub fn new(interval: SimDuration, capacity: usize) -> Self {
        debug_assert!(!interval.is_zero(), "sampling interval must be positive");
        debug_assert!(capacity > 0, "ring capacity must be positive");
        let interval = interval.max(SimDuration::from_nanos(1));
        let capacity = capacity.max(1);
        let mut ticks = EventQueue::new();
        ticks.push(SimTime::ZERO + interval, Tick { window: 0 });
        Sampler {
            interval,
            capacity,
            series: Vec::new(),
            index: BTreeMap::new(),
            ticks,
            closed: 0,
            samples_committed: 0,
            sampled: Vec::new(),
        }
    }

    /// The window width.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Ring capacity per series.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Windows closed so far.
    pub fn closed_windows(&self) -> u64 {
        self.closed
    }

    /// Samples committed by [`sample`](Self::sample) so far — the
    /// sampler's deterministic work counter. Idle windows commit nothing.
    pub fn samples_committed(&self) -> u64 {
        self.samples_committed
    }

    /// Start of window `w`.
    pub fn window_start(&self, w: u64) -> SimTime {
        SimTime::ZERO + self.interval * w
    }

    /// End of window `w` (exclusive; the instant its close tick fires).
    pub fn window_end(&self, w: u64) -> SimTime {
        SimTime::ZERO + self.interval * (w + 1)
    }

    /// Registers a series whose unsampled windows hold its raw value: a
    /// counter records a zero delta, a gauge repeats its previous sample
    /// (0 before the first). A series registered after windows have
    /// already closed starts at the current window (earlier windows have
    /// no sample for it). A counter's first sample is its raw cumulative
    /// value.
    ///
    /// Names need not be unique; [`series_by_name`](Self::series_by_name)
    /// and [`series_id`](Self::series_id) resolve a name to its first
    /// registration.
    pub fn register(&mut self, name: &str, unit: &'static str, kind: SeriesKind) -> SeriesId {
        self.register_ring(name, unit, kind, false)
    }

    /// Registers a gauge over a per-window statistic (a window's p99, say):
    /// an unsampled window had no observations and reads 0.
    pub fn register_window_stat(&mut self, name: &str, unit: &'static str) -> SeriesId {
        self.register_ring(name, unit, SeriesKind::Gauge, true)
    }

    fn register_ring(
        &mut self,
        name: &str,
        unit: &'static str,
        kind: SeriesKind,
        idle_zero: bool,
    ) -> SeriesId {
        let id = SeriesId(self.series.len());
        self.series.push(SeriesRing {
            name: name.to_string(),
            unit,
            kind,
            idle_zero,
            start: self.closed,
            runs: VecDeque::new(),
            upto: self.closed,
            last_raw: 0,
        });
        self.index.entry(name.to_string()).or_insert(id);
        id
    }

    /// Pops the next due window close: if simulated time `now` has reached
    /// (or passed) the end of the oldest unclosed window, that window is
    /// closed and its end time returned; the owner then
    /// [`sample`](Self::sample)s the series whose probes moved before
    /// calling `due` again. Returns `None` when no window end has been
    /// reached.
    ///
    /// Callers drive this in a loop (`while let Some(end) = sampler.due(now)`)
    /// so that an idle stretch spanning several windows closes each of them
    /// in order: counter series record their delta in the first catch-up
    /// window and zeros after; gauges repeat the snapshotted value.
    pub fn due(&mut self, now: SimTime) -> Option<SimTime> {
        let (t, tick) = self.ticks.pop_due(now)?;
        self.ticks.push(
            t + self.interval,
            Tick {
                window: tick.window + 1,
            },
        );
        debug_assert_eq!(tick.window, self.closed, "windows close in order");
        self.closed = tick.window + 1;
        self.sampled.clear();
        Some(t)
    }

    /// Commits the raw probe value for the window just closed by
    /// [`due`](Self::due). Gauges store `raw`; counters store the delta
    /// since the previous sampled raw value. Windows the series skipped
    /// since its last sample take its idle value.
    ///
    /// A sample outside a window close, or a second sample of a series in
    /// one window (contract violations), is dropped; debug builds assert.
    pub fn sample(&mut self, id: SeriesId, raw: u64) {
        let closed = self.closed;
        let capacity = self.capacity as u64;
        let s = &mut self.series[id.0];
        debug_assert!(
            s.upto < closed,
            "series {} sampled outside a window close or twice in one",
            s.name
        );
        if s.upto >= closed {
            return;
        }
        let window = closed - 1;
        let value = match s.kind {
            SeriesKind::Gauge => raw,
            SeriesKind::Counter => raw.saturating_sub(s.last_raw),
        };
        if s.upto < window {
            let idle = s.idle_value();
            s.push_run(s.upto, idle);
        }
        s.last_raw = raw;
        s.push_run(window, value);
        s.upto = closed;
        // Drop runs that ended before the oldest retained window.
        let first = s.start.max(closed.saturating_sub(capacity));
        while s.runs.get(1).is_some_and(|&(from, _)| from <= first) {
            s.runs.pop_front();
        }
        self.samples_committed += 1;
        self.sampled.push(id);
    }

    /// All series, in registration order.
    pub fn series(&self) -> impl ExactSizeIterator<Item = TimeSeries<'_>> {
        self.series.iter().map(|ring| self.view(ring))
    }

    /// The series registered as `id`.
    pub fn series_by_id(&self, id: SeriesId) -> TimeSeries<'_> {
        self.view(&self.series[id.0])
    }

    /// The id of the first series registered under `name`.
    pub fn series_id(&self, name: &str) -> Option<SeriesId> {
        self.index.get(name).copied()
    }

    /// Looks up a series by name (its first registration).
    pub fn series_by_name(&self, name: &str) -> Option<TimeSeries<'_>> {
        self.series_id(name).map(|id| self.series_by_id(id))
    }

    fn view<'a>(&self, ring: &'a SeriesRing) -> TimeSeries<'a> {
        TimeSeries {
            ring,
            closed: self.closed,
            capacity: self.capacity as u64,
        }
    }
}

/// Scales a busy-time delta to parts-per-million utilization of `window`
/// (clamped to 1 000 000) — the integer-only utilization representation
/// every gauge in the telemetry layer stores.
pub fn utilization_ppm(busy: SimDuration, window: SimDuration) -> u64 {
    if window.is_zero() {
        return 0;
    }
    let ppm = (busy.as_nanos() as u128 * 1_000_000) / window.as_nanos() as u128;
    (ppm as u64).min(1_000_000)
}

// ---------------------------------------------------------------------------
// SLO watchdog
// ---------------------------------------------------------------------------

/// Comparison direction of a watchdog condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Fires when the sample is strictly greater than the threshold.
    Above,
    /// Fires when the sample is strictly less than the threshold.
    Below,
}

impl Cmp {
    fn test(self, value: u64, threshold: u64) -> bool {
        match self {
            Cmp::Above => value > threshold,
            Cmp::Below => value < threshold,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Cmp::Above => "above",
            Cmp::Below => "below",
        }
    }
}

/// One threshold test against one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Name of the series the condition reads.
    pub series: String,
    /// Comparison direction.
    pub cmp: Cmp,
    /// Threshold in the series' unit.
    pub threshold: u64,
}

impl Condition {
    /// The value of the bound series in `window` if the test holds there.
    fn holds(&self, series: Option<SeriesId>, sampler: &Sampler, window: u64) -> Option<u64> {
        let v = sampler.series_by_id(series?).value_at(window)?;
        self.cmp.test(v, self.threshold).then_some(v)
    }
}

/// A declarative SLO rule: the primary condition must hold for
/// `consecutive` windows in a row (optionally only counting windows where
/// the guard condition also holds) before one anomaly is emitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloRule {
    /// Rule name, reported in anomalies (defaults to the parsed text).
    pub name: String,
    /// The condition that must persist.
    pub primary: Condition,
    /// Consecutive windows the condition must hold (≥ 1).
    pub consecutive: u32,
    /// Optional co-condition (`while <series> above|below <M>`).
    pub guard: Option<Condition>,
}

/// Why an [`SloRule`] text failed to parse — the first token that does
/// not fit the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleParseError {
    /// A required token (series name, threshold, window count) was
    /// missing; the payload names which one.
    Missing(&'static str),
    /// A token that should have been `above`/`below` (or `>`/`<`) was
    /// something else (`None` = end of input).
    BadComparator(Option<String>),
    /// A numeric field did not parse; `what` names the field.
    BadNumber {
        /// Which numeric field was malformed.
        what: &'static str,
        /// The offending token.
        text: String,
    },
    /// `for 0`: a rule must watch at least one window.
    ZeroWindowCount,
    /// A keyword position held an unexpected token (`expected` names the
    /// keyword, `found` the token).
    BadKeyword {
        /// The keyword that was expected.
        expected: &'static str,
        /// The token found instead.
        found: String,
    },
    /// Input continued past a complete rule.
    TrailingToken(String),
}

impl fmt::Display for RuleParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleParseError::Missing(what) => write!(f, "missing {what}"),
            RuleParseError::BadComparator(Some(t)) => {
                write!(f, "expected above|below, got {t:?}")
            }
            RuleParseError::BadComparator(None) => {
                write!(f, "expected above|below, got end of input")
            }
            RuleParseError::BadNumber { what, text } => write!(f, "bad {what}: {text:?}"),
            RuleParseError::ZeroWindowCount => write!(f, "window count must be at least 1"),
            RuleParseError::BadKeyword { expected, found } => {
                write!(f, "expected `{expected}`, got {found:?}")
            }
            RuleParseError::TrailingToken(t) => write!(f, "trailing token {t:?}"),
        }
    }
}

impl std::error::Error for RuleParseError {}

impl SloRule {
    /// Parses the rule grammar:
    ///
    /// ```text
    /// <series> above|below <N> for <K> [while <series> above|below <M>]
    /// ```
    ///
    /// e.g. `"hv.vf1.p99_ns above 40000 for 3"` or
    /// `"storage.media_util_ppm below 100000 for 2 while core.ring_depth.f1 above 4"`.
    ///
    /// # Errors
    ///
    /// A [`RuleParseError`] naming the first token that does not fit the
    /// grammar.
    pub fn parse(text: &str) -> Result<SloRule, RuleParseError> {
        fn cond<'a>(
            toks: &mut impl Iterator<Item = &'a str>,
            series_what: &'static str,
            threshold_what: &'static str,
        ) -> Result<Condition, RuleParseError> {
            let series = toks
                .next()
                .ok_or(RuleParseError::Missing(series_what))?
                .to_string();
            let cmp = match toks.next() {
                Some("above") | Some(">") => Cmp::Above,
                Some("below") | Some("<") => Cmp::Below,
                other => return Err(RuleParseError::BadComparator(other.map(str::to_string))),
            };
            let text = toks.next().ok_or(RuleParseError::Missing(threshold_what))?;
            let threshold = text.parse::<u64>().map_err(|_| RuleParseError::BadNumber {
                what: threshold_what,
                text: text.to_string(),
            })?;
            Ok(Condition {
                series,
                cmp,
                threshold,
            })
        }
        let mut toks = text.split_whitespace();
        let primary = cond(&mut toks, "primary series name", "primary threshold")?;
        let consecutive = match toks.next() {
            Some("for") => {
                let text = toks
                    .next()
                    .ok_or(RuleParseError::Missing("window count after `for`"))?;
                let k = text.parse::<u32>().map_err(|_| RuleParseError::BadNumber {
                    what: "window count",
                    text: text.to_string(),
                })?;
                if k == 0 {
                    return Err(RuleParseError::ZeroWindowCount);
                }
                k
            }
            None => 1,
            Some(other) => {
                return Err(RuleParseError::BadKeyword {
                    expected: "for",
                    found: other.to_string(),
                })
            }
        };
        let guard = match toks.next() {
            Some("while") => Some(cond(&mut toks, "guard series name", "guard threshold")?),
            None => None,
            Some(other) => {
                return Err(RuleParseError::BadKeyword {
                    expected: "while",
                    found: other.to_string(),
                })
            }
        };
        if let Some(extra) = toks.next() {
            return Err(RuleParseError::TrailingToken(extra.to_string()));
        }
        Ok(SloRule {
            name: text.to_string(),
            primary,
            consecutive,
            guard,
        })
    }
}

impl fmt::Display for SloRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} for {}",
            self.primary.series,
            self.primary.cmp.as_str(),
            self.primary.threshold,
            self.consecutive
        )?;
        if let Some(g) = &self.guard {
            write!(f, " while {} {} {}", g.series, g.cmp.as_str(), g.threshold)?;
        }
        Ok(())
    }
}

/// One deterministic anomaly: a rule's condition held for its required
/// streak of consecutive windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyEvent {
    /// Name of the firing rule.
    pub rule: String,
    /// Index of the firing rule in the watchdog's registration order —
    /// joins against the `rule` attribute on the `telemetry:anomaly` span
    /// and the flight ring's anomaly marker.
    pub rule_index: usize,
    /// The firing rule's canonical source text
    /// (`<series> above|below <N> for <K> [while ...]`), so consumers
    /// don't have to re-derive which rule fired.
    pub text: String,
    /// The primary series that breached.
    pub series: String,
    /// Index of the window that completed the streak.
    pub window: u64,
    /// Simulated time of that window's end.
    pub at: SimTime,
    /// The primary series' value in that window.
    pub value: u64,
    /// Length of the completed streak.
    pub consecutive: u32,
}

/// Evaluates [`SloRule`]s against a [`Sampler`] at every window close,
/// tracking per-rule streaks and emitting [`AnomalyEvent`]s plus
/// `telemetry`-layer trace spans when a streak completes.
///
/// Each condition's series name is resolved to a [`SeriesId`] once; a
/// condition whose series has not registered yet is looked up again after
/// more series register (a disk attached late), so evaluation itself does
/// no string work. A watchdog evaluates against one sampler for its whole
/// life.
#[derive(Debug, Clone, Default)]
pub struct SloWatchdog {
    rules: Vec<SloRule>,
    /// Per rule, the series its primary and guard conditions read (`None`
    /// while unresolved; a rule without a guard never resolves slot 1).
    bound: Vec<[Option<SeriesId>; 2]>,
    streaks: Vec<u32>,
    anomalies: Vec<AnomalyEvent>,
    /// Rule and series counts at the last bind; binding again is only
    /// needed once either grows.
    bound_at: (usize, usize),
    /// Series name lookups made while binding.
    name_lookups: u64,
    /// Per series index, the rules reading it (primary or guard).
    readers: Vec<Vec<usize>>,
    /// Rules the next close must evaluate even if it samples none of
    /// their series: those whose series were sampled at this close (the
    /// next close may read their idle value) and those with a running
    /// streak.
    carry: Vec<usize>,
    /// Scratch: the rules the current close evaluates.
    due: Vec<usize>,
    /// The window evaluated last.
    last_window: Option<u64>,
    /// Closes left that evaluate every rule (set after a bind).
    full_closes: u32,
}

impl SloWatchdog {
    /// A watchdog with no rules.
    pub fn new() -> Self {
        SloWatchdog::default()
    }

    /// Adds a rule. Its series are resolved at the next
    /// [`evaluate`](Self::evaluate).
    pub fn add_rule(&mut self, rule: SloRule) {
        self.rules.push(rule);
        self.bound.push([None; 2]);
        self.streaks.push(0);
    }

    /// The registered rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Series name lookups made so far — the watchdog's deterministic work
    /// counter. A bind looks up each unresolved condition once, and binds
    /// happen only after rules are added or series registered. Once every
    /// rule is bound, evaluation makes none.
    pub fn name_lookups(&self) -> u64 {
        self.name_lookups
    }

    /// Resolves every unresolved condition through the sampler's name
    /// index (a name resolves to its first registration) and rebuilds the
    /// series → rules map, if rules were added or series registered since
    /// the last bind. Returns whether it did.
    fn bind(&mut self, sampler: &Sampler) -> bool {
        let now = (self.rules.len(), sampler.series.len());
        if now == self.bound_at {
            return false;
        }
        self.bound_at = now;
        self.readers = vec![Vec::new(); sampler.series.len()];
        for (r, (rule, bound)) in self.rules.iter().zip(&mut self.bound).enumerate() {
            let conds = [Some(&rule.primary), rule.guard.as_ref()];
            for (cond, id) in conds.into_iter().zip(bound.iter_mut()) {
                if let (Some(cond), None) = (cond, *id) {
                    self.name_lookups += 1;
                    *id = sampler.series_id(&cond.series);
                }
                if let Some(SeriesId(s)) = *id {
                    self.readers[s].push(r);
                }
            }
        }
        true
    }

    /// Evaluates every rule against the most recently closed window.
    /// Call once per window close, after the window's samples are
    /// committed. When a rule's streak reaches its `consecutive` target
    /// the anomaly is recorded once (the streak keeps counting, so a
    /// second anomaly for the same rule requires the condition to lapse
    /// and persist again) and, if `tracer` is enabled, an `anomaly` span
    /// covering the whole breached stretch is emitted on the `telemetry`
    /// layer. A condition whose series does not exist never holds.
    ///
    /// A close evaluates only the rules that can change state there:
    /// those reading a series sampled at this close or the previous one,
    /// and those with a running streak. Any other rule reads the same idle
    /// values it read, and found false, at its last evaluation. After a
    /// bind, or a close that was not evaluated, every rule is evaluated.
    pub fn evaluate(&mut self, sampler: &Sampler, tracer: &Tracer) {
        let rebound = self.bind(sampler);
        let Some(window) = sampler.closed_windows().checked_sub(1) else {
            return;
        };
        if rebound {
            // Two closes: a series registered during this close reads
            // `None` here and its idle value at the next one.
            self.full_closes = 2;
        } else if self.last_window.is_none_or(|w| w + 1 != window) {
            self.full_closes = self.full_closes.max(1);
        }
        self.last_window = Some(window);
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        if self.full_closes > 0 {
            self.full_closes -= 1;
            due.extend(0..self.rules.len());
        } else {
            due.extend_from_slice(&self.carry);
            for &SeriesId(s) in &sampler.sampled {
                due.extend_from_slice(&self.readers[s]);
            }
            due.sort_unstable();
            // `dedup_by_key`: the lint's name-based call graph would
            // resolve a plain `dedup` to `Filesystem::dedup`.
            due.dedup_by_key(|&mut i| i);
        }
        self.carry.clear();
        for &SeriesId(s) in &sampler.sampled {
            self.carry.extend_from_slice(&self.readers[s]);
        }
        let at = sampler.window_end(window);
        for &i in &due {
            let rule = &self.rules[i];
            let [primary, guard] = self.bound[i];
            let value = rule.primary.holds(primary, sampler, window).filter(|_| {
                rule.guard
                    .as_ref()
                    .is_none_or(|g| g.holds(guard, sampler, window).is_some())
            });
            match value {
                Some(v) => {
                    self.streaks[i] += 1;
                    if self.streaks[i] == rule.consecutive {
                        let text = rule.to_string();
                        let text_hash = fnv1a(text.as_bytes());
                        self.anomalies.push(AnomalyEvent {
                            rule: rule.name.clone(),
                            rule_index: i,
                            text,
                            series: rule.primary.series.clone(),
                            window,
                            at,
                            value: v,
                            consecutive: rule.consecutive,
                        });
                        let start = sampler.window_start(window + 1 - u64::from(rule.consecutive));
                        let span = tracer.span(SpanId::NONE, "telemetry", "anomaly", start, at);
                        tracer.attr(span, "rule", i as u64);
                        tracer.attr(span, "rule_text_hash", text_hash);
                        tracer.attr(span, "window", window);
                        tracer.attr(span, "value", v);
                        tracer.attr(span, "threshold", rule.primary.threshold);
                    }
                }
                None => self.streaks[i] = 0,
            }
            if self.streaks[i] > 0 {
                self.carry.push(i);
            }
        }
        self.due = due;
    }

    /// All anomalies recorded so far, in emission order.
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        &self.anomalies
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Serializes every series as JSON: the interval, windows closed, and per
/// series (sorted by name) its kind, unit, first retained window and the
/// sample ring. All values are integers, so the output is byte-stable for
/// a deterministic run.
pub fn series_json(sampler: &Sampler) -> serde_json::Value {
    let mut names: Vec<TimeSeries> = sampler.series().collect();
    names.sort_by(|a, b| a.name().cmp(b.name()));
    let series: Vec<serde_json::Value> = names
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.name(),
                "unit": s.unit(),
                "kind": s.kind().as_str(),
                "first_window": s.first_window(),
                "samples": s.samples().map(|(_, v)| v).collect::<Vec<u64>>(),
            })
        })
        .collect();
    serde_json::json!({
        "interval_ns": sampler.interval().as_nanos(),
        "windows": sampler.closed_windows(),
        "series": series,
    })
}

/// Renders every series as CSV: one row per retained window
/// (`window,end_ns` then one column per series, sorted by name; windows a
/// ring has already evicted render as empty cells).
pub fn series_csv(sampler: &Sampler) -> String {
    let mut cols: Vec<TimeSeries> = sampler.series().collect();
    cols.sort_by(|a, b| a.name().cmp(b.name()));
    let mut out = String::from("window,end_ns");
    for c in &cols {
        out.push(',');
        out.push_str(c.name());
    }
    out.push('\n');
    let first = cols.iter().map(|c| c.first_window()).min().unwrap_or(0);
    for w in first..sampler.closed_windows() {
        out.push_str(&format!("{w},{}", sampler.window_end(w).as_nanos()));
        for c in &cols {
            out.push(',');
            if let Some(v) = c.value_at(w) {
                out.push_str(&v.to_string());
            }
        }
        out.push('\n');
    }
    out
}

/// Generates Perfetto counter-track events (`ph:"C"`) for every retained
/// sample of every series — one counter track per series name, timestamped
/// at each window's end.
pub fn counter_track_events(sampler: &Sampler) -> Vec<serde_json::Value> {
    let mut cols: Vec<TimeSeries> = sampler.series().collect();
    cols.sort_by(|a, b| a.name().cmp(b.name()));
    let mut events = Vec::new();
    for c in cols {
        for (w, v) in c.samples() {
            events.push(serde_json::json!({
                "name": c.name(),
                "ph": "C",
                "pid": 1,
                "tid": 0,
                "ts": sampler.window_end(w).as_nanos() as f64 / 1_000.0,
                "args": { "value": v },
            }));
        }
    }
    events
}

/// Appends the sampler's counter tracks to an existing Chrome-trace
/// document (as produced by [`chrome_trace_json`]) so span swimlanes and
/// telemetry time series open in one Perfetto view. No-op if the document
/// has no `traceEvents` array.
///
/// [`chrome_trace_json`]: crate::trace::chrome_trace_json
pub fn merge_counter_tracks(doc: &mut serde_json::Value, sampler: &Sampler) {
    if let Some(serde_json::Value::Array(events)) = doc.get_mut("traceEvents") {
        events.extend(counter_track_events(sampler));
    }
}

/// A stable FNV-1a hash over the full JSON export — the section hash the
/// divergence self-check folds in so two same-seed runs must agree on
/// every retained sample of every series.
pub fn digest_hash(sampler: &Sampler) -> u64 {
    let json = serde_json::to_string(&series_json(sampler)).expect("series serialize");
    fnv1a(json.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_chrome_trace;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn dur(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn windows_close_in_order_from_sim_time() {
        let mut s = Sampler::new(dur(100), 8);
        let g = s.register("g", "n", SeriesKind::Gauge);
        assert_eq!(s.due(t(99)), None, "window 0 not yet over");
        assert_eq!(s.due(t(100)), Some(t(100)), "boundary closes window 0");
        s.sample(g, 7);
        assert_eq!(s.due(t(100)), None, "window 1 runs to 200");
        // A long idle stretch closes several windows, one due() each.
        assert_eq!(s.due(t(450)), Some(t(200)));
        s.sample(g, 8);
        assert_eq!(s.due(t(450)), Some(t(300)));
        s.sample(g, 8);
        assert_eq!(s.due(t(450)), Some(t(400)));
        s.sample(g, 9);
        assert_eq!(s.due(t(450)), None);
        assert_eq!(s.closed_windows(), 4);
        let ring = s.series_by_name("g").unwrap();
        assert_eq!(
            ring.samples().collect::<Vec<_>>(),
            vec![(0, 7), (1, 8), (2, 8), (3, 9)]
        );
    }

    #[test]
    fn counters_store_deltas_and_gauges_store_raw() {
        let mut s = Sampler::new(dur(10), 8);
        let c = s.register("c", "ops", SeriesKind::Counter);
        let g = s.register("g", "n", SeriesKind::Gauge);
        for (now, raw) in [(10u64, 5u64), (20, 5), (30, 12)] {
            assert!(s.due(t(now)).is_some());
            s.sample(c, raw);
            s.sample(g, raw);
        }
        let c = s.series_by_name("c").unwrap();
        assert_eq!(
            c.samples().map(|(_, v)| v).collect::<Vec<_>>(),
            vec![5, 0, 7],
            "counter deltas"
        );
        let g = s.series_by_name("g").unwrap();
        assert_eq!(
            g.samples().map(|(_, v)| v).collect::<Vec<_>>(),
            vec![5, 5, 12],
            "gauge raws"
        );
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_window_indices() {
        let mut s = Sampler::new(dur(10), 3);
        let g = s.register("g", "n", SeriesKind::Gauge);
        for w in 0..5u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            s.sample(g, w * 100);
        }
        let ring = s.series_by_name("g").unwrap();
        assert_eq!(ring.first_window(), 2);
        assert_eq!(ring.value_at(1), None, "evicted");
        assert_eq!(ring.value_at(2), Some(200));
        assert_eq!(ring.latest(), Some((4, 400)));
    }

    #[test]
    fn late_registration_starts_at_current_window() {
        let mut s = Sampler::new(dur(10), 8);
        let a = s.register("a", "n", SeriesKind::Gauge);
        for w in 0..2u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            s.sample(a, w);
        }
        // Registered after two closed windows: its ring starts at window 2.
        let b = s.register("b", "ops", SeriesKind::Counter);
        assert!(s.due(t(30)).is_some());
        s.sample(a, 2);
        s.sample(b, 40);
        let ring = s.series_by_name("b").unwrap();
        assert_eq!(ring.first_window(), 2);
        assert_eq!(ring.samples().collect::<Vec<_>>(), vec![(2, 40)]);
        assert_eq!(ring.value_at(1), None);
    }

    #[test]
    fn unsampled_windows_take_idle_values() {
        let mut s = Sampler::new(dur(10), 3);
        let c = s.register("c", "ops", SeriesKind::Counter);
        let g = s.register("g", "n", SeriesKind::Gauge);
        let p = s.register_window_stat("p", "ns");
        assert!(s.due(t(10)).is_some());
        s.sample(c, 5);
        s.sample(g, 4);
        s.sample(p, 900);
        // Four idle windows outlast the ring of three.
        for w in 2..=5u64 {
            assert!(s.due(t(w * 10)).is_some());
        }
        s.sample(c, 8);
        let values = |name: &str| {
            let ring = s.series_by_name(name).unwrap();
            (
                ring.first_window(),
                ring.samples().map(|(_, v)| v).collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            values("c"),
            (2, vec![0, 0, 3]),
            "zero deltas, then the catch-up"
        );
        assert_eq!(values("g"), (2, vec![4, 4, 4]), "a gauge holds its value");
        assert_eq!(
            values("p"),
            (2, vec![0, 0, 0]),
            "a window statistic reads 0"
        );
        assert_eq!(s.samples_committed(), 4, "idle windows commit nothing");
    }

    #[test]
    fn utilization_ppm_scales_and_clamps() {
        assert_eq!(utilization_ppm(dur(50), dur(100)), 500_000);
        assert_eq!(utilization_ppm(dur(200), dur(100)), 1_000_000, "clamped");
        assert_eq!(utilization_ppm(dur(0), dur(100)), 0);
        assert_eq!(utilization_ppm(dur(1), SimDuration::ZERO), 0);
    }

    #[test]
    fn rule_grammar_round_trips() {
        let r = SloRule::parse("hv.vf1.p99_ns above 40000 for 3").unwrap();
        assert_eq!(r.primary.series, "hv.vf1.p99_ns");
        assert_eq!(r.primary.cmp, Cmp::Above);
        assert_eq!(r.primary.threshold, 40_000);
        assert_eq!(r.consecutive, 3);
        assert!(r.guard.is_none());

        let r = SloRule::parse(
            "storage.media_util_ppm below 100000 for 2 while core.ring_depth.f1 above 4",
        )
        .unwrap();
        assert_eq!(r.consecutive, 2);
        let g = r.guard.as_ref().unwrap();
        assert_eq!(g.series, "core.ring_depth.f1");
        assert_eq!(g.cmp, Cmp::Above);
        assert_eq!(g.threshold, 4);
        assert_eq!(
            r.to_string(),
            "storage.media_util_ppm below 100000 for 2 while core.ring_depth.f1 above 4"
        );

        // `for` defaults to 1 window.
        assert_eq!(SloRule::parse("x above 1").unwrap().consecutive, 1);
        assert!(SloRule::parse("x sideways 1").is_err());
        assert!(SloRule::parse("x above 1 for 0").is_err());
        assert!(SloRule::parse("x above 1 for 2 whilst y above 1").is_err());
        assert!(SloRule::parse("x above nope").is_err());
    }

    #[test]
    fn watchdog_fires_after_consecutive_windows_only() {
        let mut s = Sampler::new(dur(10), 16);
        let g = s.register("lat", "ns", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("lat above 100 for 3").unwrap());
        let tracer = Tracer::enabled();
        // Two hot windows, one cool (streak resets), then three hot.
        let values = [150u64, 150, 50, 200, 200, 200, 200];
        for (w, &v) in values.iter().enumerate() {
            assert!(s.due(t((w as u64 + 1) * 10)).is_some());
            s.sample(g, v);
            wd.evaluate(&s, &tracer);
        }
        let anomalies = wd.anomalies();
        assert_eq!(anomalies.len(), 1, "fires once per completed streak");
        let a = &anomalies[0];
        assert_eq!(a.window, 5, "third consecutive hot window");
        assert_eq!(a.at, t(60));
        assert_eq!(a.value, 200);
        // The trace span covers the breached stretch [30, 60].
        let spans = tracer.take_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].layer, "telemetry");
        assert_eq!(spans[0].name, "anomaly");
        assert_eq!(spans[0].start, t(30));
        assert_eq!(spans[0].end, t(60));
        assert_eq!(spans[0].attr("threshold"), Some(100));
    }

    #[test]
    fn watchdog_guard_must_also_hold() {
        let mut s = Sampler::new(dur(10), 16);
        let util = s.register("util", "ppm", SeriesKind::Gauge);
        let depth = s.register("depth", "n", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("util below 1000 for 2 while depth above 3").unwrap());
        let tracer = Tracer::disabled();
        // Window 0: util low but queue empty -> guard fails, no streak.
        // Windows 1-2: util low AND deep queue -> anomaly at window 2.
        for (w, (u, d)) in [(500u64, 0u64), (500, 8), (500, 8)].iter().enumerate() {
            assert!(s.due(t((w as u64 + 1) * 10)).is_some());
            s.sample(util, *u);
            s.sample(depth, *d);
            wd.evaluate(&s, &tracer);
        }
        assert_eq!(wd.anomalies().len(), 1);
        assert_eq!(wd.anomalies()[0].window, 2);
    }

    #[test]
    fn watchdog_on_missing_series_never_fires() {
        let mut s = Sampler::new(dur(10), 4);
        let g = s.register("g", "n", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("nonexistent above 0 for 1").unwrap());
        assert!(s.due(t(10)).is_some());
        s.sample(g, 1);
        wd.evaluate(&s, &Tracer::disabled());
        assert!(wd.anomalies().is_empty());
    }

    #[test]
    fn watchdog_catches_up_after_a_close_it_did_not_evaluate() {
        let mut s = Sampler::new(dur(10), 4);
        let g = s.register("g", "n", SeriesKind::Gauge);
        let mut wd = SloWatchdog::new();
        wd.add_rule(SloRule::parse("g above 3 for 1").unwrap());
        let tracer = Tracer::disabled();
        for w in 0..3u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            wd.evaluate(&s, &tracer);
        }
        // Window 3 samples the breach but is not evaluated; window 4
        // holds the value without a sample.
        assert!(s.due(t(40)).is_some());
        s.sample(g, 10);
        assert!(s.due(t(50)).is_some());
        wd.evaluate(&s, &tracer);
        assert_eq!(wd.anomalies().len(), 1);
        assert_eq!(wd.anomalies()[0].window, 4);
    }

    #[test]
    fn json_and_csv_exports_are_deterministic() {
        let mk = || {
            let mut s = Sampler::new(dur(10), 4);
            let b = s.register("b.ops", "ops", SeriesKind::Counter);
            let a = s.register("a.depth", "n", SeriesKind::Gauge);
            for w in 0..3u64 {
                assert!(s.due(t((w + 1) * 10)).is_some());
                s.sample(b, (w + 1) * 4);
                s.sample(a, w);
            }
            s
        };
        let s = mk();
        let json = serde_json::to_string_pretty(&series_json(&s)).unwrap();
        assert_eq!(
            json,
            serde_json::to_string_pretty(&series_json(&mk())).unwrap()
        );
        // Sorted by name: a.depth before b.ops.
        assert!(json.find("a.depth").unwrap() < json.find("b.ops").unwrap());
        assert_eq!(digest_hash(&s), digest_hash(&mk()));

        let csv = series_csv(&s);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("window,end_ns,a.depth,b.ops"));
        assert_eq!(lines.next(), Some("0,10,0,4"));
        assert_eq!(lines.next(), Some("1,20,1,4"));
        assert_eq!(lines.next(), Some("2,30,2,4"));
    }

    #[test]
    fn counter_tracks_merge_into_valid_chrome_trace() {
        let tracer = Tracer::enabled();
        let span = tracer.start(SpanId::NONE, "core", "device", t(0));
        tracer.end(span, t(25));
        let mut s = Sampler::new(dur(10), 4);
        let g = s.register("core.depth", "n", SeriesKind::Gauge);
        for w in 0..2u64 {
            assert!(s.due(t((w + 1) * 10)).is_some());
            s.sample(g, w + 1);
        }
        let mut doc = crate::trace::chrome_trace_json(&tracer.take_spans());
        let count = |d: &serde_json::Value| match d.get("traceEvents") {
            Some(serde_json::Value::Array(ev)) => ev.len(),
            _ => panic!("missing traceEvents"),
        };
        let before = count(&doc);
        merge_counter_tracks(&mut doc, &s);
        assert_eq!(count(&doc), before + 2);
        validate_chrome_trace(&doc).expect("merged document stays valid");
        let Some(serde_json::Value::Array(events)) = doc.get("traceEvents") else {
            unreachable!()
        };
        let c = events.last().unwrap();
        assert_eq!(c.get("ph"), Some(&serde_json::Value::from("C")));
        assert_eq!(c.get("name"), Some(&serde_json::Value::from("core.depth")));
    }
}
