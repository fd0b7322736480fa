//! Deterministic flight recorder: a bounded ring of compact integer-only
//! events plus per-window exemplar retention of the worst-K request span
//! trees.
//!
//! The SLO watchdog ([`crate::perfmon::SloWatchdog`]) says *that* an SLO
//! broke; this module preserves *why*: what the scheduler, BTLB, media and
//! link were doing in the microseconds around the breach, and the full
//! span trees of the requests that actually blew the tail. The design
//! mirrors the perfmon sampler's deferred-fold contract:
//!
//! * **Ring** — [`FlightRecorder::append`] writes one fixed-size
//!   [`FlightEvent`] into a preallocated ring by index. Zero allocation in
//!   steady state, one branch when disabled, and the write is inside a
//!   `nesc-lint: hot` region so rules D7/P2 police it.
//! * **Exemplars** — the recorder keeps no per-request state of its own.
//!   Telemetry's completion record is the one note the hot path makes of
//!   a finished request; when a telemetry window closes, telemetry folds
//!   those records by timestamp (an observation at `t` belongs to the
//!   window ending at `W` iff `t < W`) and hands the window's
//!   [`CompletedRequest`]s to [`FlightRecorder::close_window`], which
//!   keeps the worst-K by latency and snapshots their span subtrees via
//!   [`Tracer::subtree`] — so the p99-busting requests keep full traces
//!   while everything else stays coarse.
//! * **Determinism** — everything is driven by simulated time and
//!   integer state; the same seed produces a byte-identical
//!   [`FlightRecorder::snapshot_json`], which is what makes the forensic
//!   dump golden-gateable.
//!
//! # Example
//!
//! ```
//! use nesc_sim::{CompletedRequest, FlightConfig, FlightEventKind, FlightHandle, SimTime};
//! use nesc_sim::{SpanId, Tracer};
//!
//! let flight = FlightHandle::enabled(FlightConfig::default());
//! flight.append(SimTime::from_nanos(10), FlightEventKind::Doorbell, 1, 42, 0);
//! let done = CompletedRequest {
//!     t_ns: 900,
//!     seq: 42,
//!     disk: 0,
//!     latency_ns: 890,
//!     root: SpanId::NONE,
//! };
//! flight.close_window(0, [done], &Tracer::disabled());
//! assert_eq!(flight.with(|r| r.total()), Some(1));
//! assert_eq!(flight.with(|r| r.exemplars().len()), Some(1));
//! ```

use std::cell::{Cell, Ref, RefCell};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::selfcheck::fnv1a;
use crate::time::SimTime;
use crate::trace::{Span, SpanId, Tracer};

/// What one ring slot records. The discriminant is the integer stored in
/// the serialized dump; [`FlightEventKind::from_u8`] decodes it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightEventKind {
    /// A guest issued a request (`func` = VF, `a` = request id,
    /// `b` = disk index).
    RequestStart = 0,
    /// The posted doorbell write landed on the device (`a` = request id,
    /// `b` = submit time in ns — the start of the doorbell interval).
    Doorbell = 1,
    /// A request entered its function's command queue (`a` = request id,
    /// `b` = queue depth after the push).
    QueueEnter = 2,
    /// The multiplexer popped a request off its queue (`a` = request id,
    /// `b` = arrival time in ns).
    QueueExit = 3,
    /// The scheduler dispatched the request into the translation pipeline
    /// (`a` = request id, `b` = block count).
    SchedDispatch = 4,
    /// A BTLB lookup missed and a tree walk resolved it (`func` = the
    /// nesting level that missed, `a` = vLBA byte offset, `b` = walk
    /// levels).
    BtlbMiss = 5,
    /// The hypervisor's miss handler serviced a rewalk (`a` = interrupt
    /// time in ns, `b` = disk index).
    Rewalk = 6,
    /// One batched media pass finished (`a` = first block's arrival at
    /// the medium in ns, `b` = blocks; the event time is the last block's
    /// media completion).
    MediaService = 7,
    /// One batched PCIe data pass finished (`a` = pass start in ns,
    /// `b` = blocks).
    LinkService = 8,
    /// The guest observed the completion (`a` = request id, `b` = device
    /// completion time in ns — the start of the guest_complete interval).
    RequestComplete = 9,
    /// The SLO watchdog fired (`a` = rule index, `b` = breaching window).
    Anomaly = 10,
}

impl FlightEventKind {
    /// Stable display name (used by `nesc-inspect` timelines).
    pub fn as_str(self) -> &'static str {
        match self {
            FlightEventKind::RequestStart => "request_start",
            FlightEventKind::Doorbell => "doorbell",
            FlightEventKind::QueueEnter => "queue_enter",
            FlightEventKind::QueueExit => "queue_exit",
            FlightEventKind::SchedDispatch => "sched_dispatch",
            FlightEventKind::BtlbMiss => "btlb_miss",
            FlightEventKind::Rewalk => "rewalk",
            FlightEventKind::MediaService => "media_service",
            FlightEventKind::LinkService => "link_service",
            FlightEventKind::RequestComplete => "request_complete",
            FlightEventKind::Anomaly => "anomaly",
        }
    }

    /// Decodes a serialized discriminant.
    pub fn from_u8(v: u8) -> Option<FlightEventKind> {
        Some(match v {
            0 => FlightEventKind::RequestStart,
            1 => FlightEventKind::Doorbell,
            2 => FlightEventKind::QueueEnter,
            3 => FlightEventKind::QueueExit,
            4 => FlightEventKind::SchedDispatch,
            5 => FlightEventKind::BtlbMiss,
            6 => FlightEventKind::Rewalk,
            7 => FlightEventKind::MediaService,
            8 => FlightEventKind::LinkService,
            9 => FlightEventKind::RequestComplete,
            10 => FlightEventKind::Anomaly,
            _ => return None,
        })
    }
}

/// One fixed-size, integer-only ring slot. The meaning of `a` and `b` is
/// per-kind (see [`FlightEventKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Simulated time of the event, in nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub kind: FlightEventKind,
    /// The function (VF) the event is attributed to (0 = PF / global).
    pub func: u32,
    /// First per-kind payload word.
    pub a: u64,
    /// Second per-kind payload word.
    pub b: u64,
}

impl Default for FlightEvent {
    fn default() -> Self {
        FlightEvent {
            t_ns: 0,
            kind: FlightEventKind::RequestStart,
            func: 0,
            a: 0,
            b: 0,
        }
    }
}

/// Sizing and retention policy for the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring slots (preallocated; older events are overwritten).
    pub capacity: usize,
    /// Worst-K requests per window that keep their full span trees.
    pub exemplar_k: usize,
    /// How many recent windows of exemplars are retained.
    pub exemplar_windows: u64,
}

impl Default for FlightConfig {
    /// 512 slots keep the ring at 16 KiB — one `FlightEvent` is 32
    /// bytes — so the hot-path stores stay L1-resident instead of
    /// streaming a larger buffer through the cache and evicting the
    /// simulator's working set (measured at several percent of request
    /// cost for a 128 KiB ring). Forensic deep-dives that want longer
    /// history opt into a bigger ring explicitly.
    fn default() -> Self {
        FlightConfig {
            capacity: 512,
            exemplar_k: 2,
            exemplar_windows: 8,
        }
    }
}

impl FlightConfig {
    /// Sets the ring capacity in slots.
    pub fn capacity(mut self, slots: usize) -> Self {
        self.capacity = slots;
        self
    }

    /// Sets the worst-K exemplar count per window.
    pub fn exemplar_k(mut self, k: usize) -> Self {
        self.exemplar_k = k;
        self
    }

    /// Sets how many recent windows of exemplars are retained.
    pub fn exemplar_windows(mut self, windows: u64) -> Self {
        self.exemplar_windows = windows;
        self
    }
}

/// One completed request of a closing window, as the exemplar selection
/// reads it. Telemetry's per-request completion record carries these
/// fields; the recorder keeps no copy of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Completion time in nanoseconds.
    pub t_ns: u64,
    /// Request sequence id (the device request id minted at issue).
    pub seq: u64,
    /// Disk index (dense attach order).
    pub disk: u32,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// The request's root span (NONE when tracing is off).
    pub root: SpanId,
}

/// One retained worst-K request: its identity, its window, and the full
/// span subtree captured at window close.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The window whose close selected this request.
    pub window: u64,
    /// Request sequence id (joins against `request_*` ring events).
    pub seq: u64,
    /// Disk index.
    pub disk: u32,
    /// Completion time in nanoseconds.
    pub t_ns: u64,
    /// End-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// The root span's id (0 when tracing was off).
    pub root: u64,
    /// The captured span subtree (root first; empty when tracing was
    /// off).
    pub spans: Vec<Span>,
}

impl Exemplar {
    /// Selection order: worst latency first, ties to the earlier sequence
    /// id, then to the remaining fields, so the selection is total and
    /// does not depend on the order requests are offered in.
    fn rank(&self) -> (Reverse<u64>, u64, u64, u32, u64) {
        (
            Reverse(self.latency_ns),
            self.seq,
            self.t_ns,
            self.disk,
            self.root,
        )
    }
}

/// The recorder itself: the preallocated event ring plus the retained
/// exemplars. Usually owned behind a [`FlightHandle`].
///
/// The ring uses `Cell` interior mutability so the hot-path
/// [`append`](Self::append) takes `&self` — no `RefCell` borrow flag to
/// maintain per event, and no panic path. The colder exemplar state
/// (updated once per window) stays behind a `RefCell`.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    /// The ring; `head` is the next write target.
    buf: Vec<Cell<FlightEvent>>,
    /// Next write slot (always `total % capacity`, maintained as a
    /// wrapping cursor so the hot append never divides).
    head: Cell<usize>,
    /// Events ever appended (dropped = total - retained).
    total: Cell<u64>,
    /// Retained exemplars, oldest window first, rank order within a
    /// window. A deque so the per-window eviction pops stale fronts in
    /// O(evicted) instead of shifting the survivors every window.
    exemplars: RefCell<VecDeque<Exemplar>>,
}

impl FlightRecorder {
    /// A recorder with its ring preallocated.
    pub fn new(cfg: FlightConfig) -> Self {
        let buf = vec![Cell::new(FlightEvent::default()); cfg.capacity];
        FlightRecorder {
            cfg,
            buf,
            head: Cell::new(0),
            total: Cell::new(0),
            exemplars: RefCell::new(VecDeque::new()),
        }
    }

    /// Appends one event, overwriting the oldest slot when full. This is
    /// the hot-path write: a `Cell` store into the preallocated ring, no
    /// allocation, no borrow flag, no panic path.
    // nesc-lint: hot
    #[inline]
    pub fn append(&self, t: SimTime, kind: FlightEventKind, func: u32, a: u64, b: u64) {
        let slot = self.head.get();
        if let Some(ev) = self.buf.get(slot) {
            ev.set(FlightEvent {
                t_ns: t.as_nanos(),
                kind,
                func,
                a,
                b,
            });
            let next = slot + 1;
            self.head.set(if next == self.buf.len() { 0 } else { next });
            self.total.set(self.total.get() + 1);
        }
    }

    /// Closes exemplar window `window`: keeps the worst-K of `done` (the
    /// requests that completed in it) by latency, ties to the earlier
    /// sequence id, captures each keeper's span subtree, and evicts
    /// exemplar windows older than the retention horizon.
    pub fn close_window(
        &self,
        window: u64,
        done: impl IntoIterator<Item = CompletedRequest>,
        tracer: &Tracer,
    ) {
        // Evict first: windows only advance, so the stale exemplars are a
        // prefix of the deque and popping them is O(evicted). New pushes
        // below carry `window` itself and are always retained.
        let horizon = self.cfg.exemplar_windows;
        let keep = |e: &Exemplar| e.window + horizon > window || horizon == 0 && e.window == window;
        let mut exemplars = self.exemplars.borrow_mut();
        while exemplars.front().is_some_and(|e| !keep(e)) {
            exemplars.pop_front();
        }
        // This window's keepers are the deque's tail, kept in rank order
        // by insertion: O(K) per offered request, no scratch buffer.
        let first = exemplars.len();
        let k = self.cfg.exemplar_k;
        for c in done {
            let x = Exemplar {
                window,
                seq: c.seq,
                disk: c.disk,
                t_ns: c.t_ns,
                latency_ns: c.latency_ns,
                root: c.root.0,
                spans: Vec::new(),
            };
            let at = exemplars
                .range(first..)
                .take_while(|e| e.rank() <= x.rank())
                .count();
            if at < k {
                exemplars.insert(first + at, x);
                exemplars.truncate(first + k);
            }
        }
        for x in exemplars.range_mut(first..) {
            x.spans = tracer.subtree(SpanId(x.root));
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events ever appended.
    pub fn total(&self) -> u64 {
        self.total.get()
    }

    /// Events overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.total.get().saturating_sub(self.buf.len() as u64)
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = FlightEvent> + '_ {
        let cap = self.buf.len() as u64;
        let total = self.total.get();
        let len = if cap == 0 { 0 } else { total.min(cap) };
        let start = total - len;
        (start..total).filter_map(move |i| self.buf.get((i % cap.max(1)) as usize).map(Cell::get))
    }

    /// The retained exemplars, oldest window first.
    pub fn exemplars(&self) -> Ref<'_, VecDeque<Exemplar>> {
        self.exemplars.borrow()
    }

    /// Serializes the full recorder state as deterministic JSON: the ring
    /// metadata, every retained event as a compact `[t_ns, kind, func, a,
    /// b]` integer row, and the exemplars with their span subtrees.
    pub fn snapshot_json(&self) -> serde_json::Value {
        let events: Vec<serde_json::Value> = self
            .events()
            .map(|e| serde_json::json!([e.t_ns, e.kind as u8, e.func, e.a, e.b]))
            .collect();
        let exemplars: Vec<serde_json::Value> = self
            .exemplars
            .borrow()
            .iter()
            .map(|x| {
                let spans: Vec<serde_json::Value> = x
                    .spans
                    .iter()
                    .map(|s| {
                        let attrs: Vec<serde_json::Value> = s
                            .attrs
                            .iter()
                            .map(|(k, v)| serde_json::json!([k, v]))
                            .collect();
                        serde_json::json!({
                            "id": s.id.0,
                            "parent": s.parent.0,
                            "layer": s.layer,
                            "name": s.name,
                            "start_ns": s.start.as_nanos(),
                            "end_ns": s.end.as_nanos(),
                            "attrs": attrs,
                        })
                    })
                    .collect();
                serde_json::json!({
                    "window": x.window,
                    "seq": x.seq,
                    "disk": x.disk,
                    "t_ns": x.t_ns,
                    "latency_ns": x.latency_ns,
                    "root": x.root,
                    "spans": spans,
                })
            })
            .collect();
        serde_json::json!({
            "capacity": self.capacity(),
            "total": self.total.get(),
            "dropped": self.dropped(),
            "events": events,
            "exemplars": exemplars,
        })
    }

    /// Stable FNV-1a hash over the serialized snapshot — the section hash
    /// the divergence self-check folds in.
    pub fn digest_hash(&self) -> u64 {
        let json = serde_json::to_string(&self.snapshot_json()).unwrap_or_default();
        fnv1a(json.as_bytes())
    }
}

/// A cheaply cloneable recorder handle shared by every layer, mirroring
/// [`Tracer`]: disabled (the default) it holds no allocation and every
/// operation is a no-op behind one branch; enabled, all clones record
/// into the same ring.
#[derive(Debug, Clone, Default)]
pub struct FlightHandle {
    inner: Option<Rc<FlightRecorder>>,
}

impl FlightHandle {
    /// A recording handle with a freshly preallocated ring.
    pub fn enabled(cfg: FlightConfig) -> Self {
        FlightHandle {
            inner: Some(Rc::new(FlightRecorder::new(cfg))),
        }
    }

    /// A no-op handle (the default).
    pub fn disabled() -> Self {
        FlightHandle::default()
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Appends one event (no-op when disabled).
    // nesc-lint: hot
    #[inline]
    pub fn append(&self, t: SimTime, kind: FlightEventKind, func: u32, a: u64, b: u64) {
        if let Some(rec) = &self.inner {
            rec.append(t, kind, func, a, b);
        }
    }

    /// Closes exemplar window `window` over the requests that completed
    /// in it (no-op when disabled).
    pub fn close_window(
        &self,
        window: u64,
        done: impl IntoIterator<Item = CompletedRequest>,
        tracer: &Tracer,
    ) {
        if let Some(rec) = &self.inner {
            rec.close_window(window, done, tracer);
        }
    }

    /// Runs `f` against the recorder, if enabled.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> Option<R> {
        self.inner.as_deref().map(f)
    }

    /// The serialized recorder state, if enabled.
    pub fn snapshot_json(&self) -> Option<serde_json::Value> {
        self.with(FlightRecorder::snapshot_json)
    }

    /// Stable hash of the recorder state (0 when disabled).
    pub fn digest_hash(&self) -> u64 {
        self.with(FlightRecorder::digest_hash).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn done(t_ns: u64, seq: u64, latency_ns: u64, root: SpanId) -> CompletedRequest {
        CompletedRequest {
            t_ns,
            seq,
            disk: 0,
            latency_ns,
            root,
        }
    }

    #[test]
    fn disabled_handle_is_noop() {
        let h = FlightHandle::disabled();
        assert!(!h.is_enabled());
        h.append(t(1), FlightEventKind::Doorbell, 0, 0, 0);
        h.close_window(0, [done(2, 1, 10, SpanId::NONE)], &Tracer::disabled());
        assert_eq!(h.snapshot_json(), None);
        assert_eq!(h.digest_hash(), 0);
    }

    #[test]
    fn ring_wraps_and_reports_drops() {
        let r = FlightRecorder::new(FlightConfig::default().capacity(4));
        for i in 0..6u64 {
            r.append(t(i), FlightEventKind::QueueEnter, 1, i, 0);
        }
        assert_eq!(r.total(), 6);
        assert_eq!(r.dropped(), 2);
        let got: Vec<u64> = r.events().map(|e| e.a).collect();
        assert_eq!(got, vec![2, 3, 4, 5], "oldest events are overwritten");
    }

    #[test]
    fn zero_capacity_ring_records_nothing() {
        let r = FlightRecorder::new(FlightConfig::default().capacity(0));
        r.append(t(1), FlightEventKind::Doorbell, 0, 0, 0);
        assert_eq!(r.total(), 0);
        assert_eq!(r.events().count(), 0);
    }

    #[test]
    fn worst_k_fold_selects_by_latency_then_seq() {
        let r = FlightRecorder::new(FlightConfig::default().exemplar_k(2));
        // Three completions in window 0, offered in both orders: the
        // selection does not depend on it.
        let w0 = [
            done(10, 1, 500, SpanId::NONE),
            done(30, 3, 900, SpanId::NONE),
            done(20, 2, 900, SpanId::NONE),
        ];
        for order in [w0, [w0[2], w0[1], w0[0]]] {
            let r = FlightRecorder::new(FlightConfig::default().exemplar_k(2));
            r.close_window(0, order, &Tracer::disabled());
            let kept: Vec<u64> = r.exemplars().iter().map(|e| e.seq).collect();
            assert_eq!(kept, vec![2, 3], "ties break toward the earlier request");
        }
        r.close_window(0, w0, &Tracer::disabled());
        r.close_window(1, [done(150, 4, 9999, SpanId::NONE)], &Tracer::disabled());
        assert_eq!(r.exemplars().len(), 3);
        assert_eq!(r.exemplars()[2].seq, 4);
        assert_eq!(r.exemplars()[2].window, 1);
    }

    #[test]
    fn short_windows_keep_every_completion_in_rank_order() {
        let r = FlightRecorder::new(FlightConfig::default().exemplar_k(8));
        let w = [
            done(10, 5, 300, SpanId::NONE),
            done(20, 6, 700, SpanId::NONE),
            done(30, 7, 300, SpanId::NONE),
        ];
        r.close_window(0, w, &Tracer::disabled());
        // An empty window closes without touching the earlier keepers.
        r.close_window(1, [], &Tracer::disabled());
        let kept: Vec<(u64, u64)> = r
            .exemplars()
            .iter()
            .map(|e| (e.seq, e.latency_ns))
            .collect();
        assert_eq!(kept, vec![(6, 700), (5, 300), (7, 300)]);
        assert!(r
            .exemplars()
            .iter()
            .all(|e| e.window == 0 && e.spans.is_empty()));
    }

    #[test]
    fn zero_k_and_zero_horizon_bound_the_exemplars() {
        let none = FlightRecorder::new(FlightConfig::default().exemplar_k(0));
        none.close_window(0, [done(10, 1, 100, SpanId::NONE)], &Tracer::disabled());
        assert!(none.exemplars().is_empty(), "K = 0 keeps nothing");
        // A zero horizon still keeps the window being closed, and only it.
        let latest = FlightRecorder::new(FlightConfig::default().exemplar_windows(0));
        for w in 0..3u64 {
            latest.close_window(
                w,
                [done(w * 100, w, 100, SpanId::NONE)],
                &Tracer::disabled(),
            );
            let windows: Vec<u64> = latest.exemplars().iter().map(|e| e.window).collect();
            assert_eq!(windows, vec![w]);
        }
    }

    #[test]
    fn exemplar_windows_are_evicted_past_the_horizon() {
        let r = FlightRecorder::new(FlightConfig::default().exemplar_windows(2));
        for w in 0..5u64 {
            let d = done(w * 100 + 10, w, 100, SpanId::NONE);
            r.close_window(w, [d], &Tracer::disabled());
        }
        let windows: Vec<u64> = r.exemplars().iter().map(|e| e.window).collect();
        assert_eq!(windows, vec![3, 4], "only the retention horizon survives");
    }

    #[test]
    fn exemplars_capture_span_subtrees() {
        let tracer = Tracer::enabled();
        let root = tracer.start(SpanId::NONE, "guest", "request", t(0));
        let child = tracer.span(root, "core", "device", t(10), t(90));
        tracer.attr(child, "blocks", 4);
        tracer.end(root, t(100));
        // An unrelated root must not leak into the subtree.
        tracer.span(SpanId::NONE, "guest", "request", t(200), t(300));
        let r = FlightRecorder::new(FlightConfig::default());
        r.close_window(0, [done(100, 7, 100, root)], &tracer);
        let x = &r.exemplars()[0];
        assert_eq!(x.root, root.0);
        assert_eq!(x.spans.len(), 2);
        assert_eq!(x.spans[0].name, "request");
        assert_eq!(x.spans[1].attr("blocks"), Some(4));
        // Capture does not drain: the tracer still holds every span.
        assert_eq!(tracer.len(), 3);
    }

    #[test]
    fn snapshot_is_deterministic_and_integer_only_events() {
        let run = || {
            let r = FlightRecorder::new(FlightConfig::default().capacity(8));
            r.append(t(5), FlightEventKind::RequestStart, 1, 42, 0);
            r.append(t(9), FlightEventKind::Doorbell, 1, 42, 5);
            r.close_window(0, [done(50, 42, 45, SpanId::NONE)], &Tracer::disabled());
            serde_json::to_string(&r.snapshot_json()).unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same inputs, byte-identical snapshot");
        // Every ring event serializes as a 5-wide integer row.
        let r = FlightRecorder::new(FlightConfig::default().capacity(8));
        r.append(t(5), FlightEventKind::RequestStart, 1, 42, 0);
        r.append(t(9), FlightEventKind::Doorbell, 1, 42, 5);
        let snapshot = r.snapshot_json();
        let Some(serde_json::Value::Array(events)) = snapshot.get("events") else {
            panic!("snapshot has no events array");
        };
        assert_eq!(events.len(), 2);
        for ev in events {
            let serde_json::Value::Array(row) = ev else {
                panic!("event row is not an array");
            };
            assert_eq!(row.len(), 5);
            assert!(row.iter().all(|x| matches!(
                x,
                serde_json::Value::Number(serde_json::Number::UInt(_) | serde_json::Number::Int(_))
            )));
        }
    }

    #[test]
    fn kind_roundtrips_through_u8() {
        for k in 0..=10u8 {
            let kind = FlightEventKind::from_u8(k).unwrap();
            assert_eq!(kind as u8, k);
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(FlightEventKind::from_u8(11), None);
    }
}
