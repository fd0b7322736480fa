//! Forensic-dump parsing and query helpers shared by the `forensics`
//! trigger harness and the `nesc-inspect` CLI.
//!
//! A forensic dump is read back with `serde_json::from_str` into a typed
//! view ([`ForensicDump`]), and this module carries the query logic
//! `nesc-inspect` exposes: per-VF timelines, the "why was this request
//! slow" breakdown (derived two independent ways — from flight events and
//! from the exemplar's span tree — which must agree exactly), and top-K
//! per-function media/link contention attribution.

use nesc_sim::{FlightEvent, FlightEventKind};
use serde_json::Value;

/// Object member `k` of `v`.
fn field<'a>(v: &'a Value, k: &str) -> Result<&'a Value, String> {
    v.get(k).ok_or(format!("missing `{k}`"))
}

/// Non-negative integer member `k` of `v`.
fn uint(v: &Value, k: &str) -> Result<u64, String> {
    field(v, k)?
        .as_u64()
        .ok_or(format!("`{k}` is not an integer"))
}

/// String member `k` of `v`.
fn string(v: &Value, k: &str) -> Result<String, String> {
    let s = field(v, k)?.as_str();
    s.map(str::to_string)
        .ok_or(format!("`{k}` is not a string"))
}

/// Array member `k` of `v`.
fn array<'a>(v: &'a Value, k: &str) -> Result<&'a Vec<Value>, String> {
    field(v, k)?
        .as_array()
        .ok_or(format!("`{k}` is not an array"))
}

// ---------------------------------------------------------------------------
// Typed dump model
// ---------------------------------------------------------------------------

/// A span as stored in a dump exemplar (owned strings: the dump is data,
/// not `&'static str` interned names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpSpan {
    /// Span id (tracer numbering from the recording run).
    pub id: u64,
    /// Parent span id (0 = none).
    pub parent: u64,
    /// Layer label (`hv`, `core`, ...).
    pub layer: String,
    /// Span name (`device_wait`, `doorbell`, ...).
    pub name: String,
    /// Start, nanoseconds.
    pub start_ns: u64,
    /// End, nanoseconds.
    pub end_ns: u64,
    /// Integer attributes in recording order.
    pub attrs: Vec<(String, u64)>,
}

impl DumpSpan {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A worst-K exemplar from a dump: identity, latency, and the span
/// subtree captured at window close.
#[derive(Debug, Clone)]
pub struct DumpExemplar {
    /// Telemetry window the request completed in.
    pub window: u64,
    /// Device-wide request sequence number.
    pub seq: u64,
    /// Disk id.
    pub disk: u32,
    /// Completion time, nanoseconds.
    pub t_ns: u64,
    /// End-to-end latency, nanoseconds.
    pub latency_ns: u64,
    /// Root span id (0 when tracing was off).
    pub root: u64,
    /// Captured span subtree (root first).
    pub spans: Vec<DumpSpan>,
}

/// A parsed forensic dump: the triggering anomaly, the flight ring, the
/// exemplars, and the raw window series (kept as JSON for re-export).
#[derive(Debug, Clone)]
pub struct ForensicDump {
    /// Rule source text of the anomaly that triggered the dump.
    pub anomaly_text: String,
    /// Series the rule watched.
    pub anomaly_series: String,
    /// Window index the rule fired in.
    pub anomaly_window: u64,
    /// Ring capacity in slots.
    pub capacity: u64,
    /// Total events ever appended (≥ retained count when wrapped).
    pub total: u64,
    /// Events the ring overwrote.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Worst-K exemplars across retained windows.
    pub exemplars: Vec<DumpExemplar>,
    /// The `series` subdocument (perfmon `series_json` shape), verbatim.
    pub series: Value,
}

impl ForensicDump {
    /// Parses a forensic dump document (as written by the `forensics`
    /// harness / `Telemetry::forensic_dump`).
    pub fn parse(text: &str) -> Result<ForensicDump, String> {
        let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let anomaly = field(&doc, "anomaly")?;
        let flight = field(&doc, "flight")?;
        let mut events = Vec::new();
        for ev in array(flight, "events")? {
            let Some([t_ns, kind, func, a, b]) = ev.as_array().map(Vec::as_slice) else {
                return Err("event is not a 5-field array".to_string());
            };
            let int = |v: &Value| v.as_u64().ok_or("event field not an integer");
            let kind_raw = int(kind)? as u8;
            events.push(FlightEvent {
                t_ns: int(t_ns)?,
                kind: FlightEventKind::from_u8(kind_raw)
                    .ok_or(format!("unknown event kind {kind_raw}"))?,
                func: int(func)? as u32,
                a: int(a)?,
                b: int(b)?,
            });
        }
        let mut exemplars = Vec::new();
        for ex in array(flight, "exemplars")? {
            let mut spans = Vec::new();
            for sp in array(ex, "spans")? {
                let mut attrs = Vec::new();
                for kv in array(sp, "attrs")? {
                    let Some([key, value]) = kv.as_array().map(Vec::as_slice) else {
                        return Err("attr is not a pair".to_string());
                    };
                    attrs.push((
                        key.as_str().ok_or("attr key not a string")?.to_string(),
                        value.as_u64().ok_or("attr value not an integer")?,
                    ));
                }
                spans.push(DumpSpan {
                    id: uint(sp, "id")?,
                    parent: uint(sp, "parent")?,
                    layer: string(sp, "layer")?,
                    name: string(sp, "name")?,
                    start_ns: uint(sp, "start_ns")?,
                    end_ns: uint(sp, "end_ns")?,
                    attrs,
                });
            }
            exemplars.push(DumpExemplar {
                window: uint(ex, "window")?,
                seq: uint(ex, "seq")?,
                disk: uint(ex, "disk")? as u32,
                t_ns: uint(ex, "t_ns")?,
                latency_ns: uint(ex, "latency_ns")?,
                root: uint(ex, "root")?,
                spans,
            });
        }
        Ok(ForensicDump {
            anomaly_text: string(anomaly, "text")?,
            anomaly_series: string(anomaly, "series")?,
            anomaly_window: uint(anomaly, "window")?,
            capacity: uint(flight, "capacity")?,
            total: uint(flight, "total")?,
            dropped: uint(flight, "dropped")?,
            events,
            exemplars,
            series: doc.get("series").cloned().unwrap_or(Value::Null),
        })
    }

    /// The retained events attributed to one VF (`func` field), oldest
    /// first. Walk/translation events carry a level rather than a VF in
    /// `func` and are excluded.
    pub fn vf_events(&self, vf: u32) -> Vec<&FlightEvent> {
        self.events
            .iter()
            .filter(|e| e.func == vf && !matches!(e.kind, FlightEventKind::BtlbMiss))
            .collect()
    }

    /// The worst exemplar (highest latency; ties break to the earlier
    /// sequence number, matching the recorder's fold order).
    pub fn worst_exemplar(&self) -> Option<&DumpExemplar> {
        self.exemplars
            .iter()
            .min_by(|a, b| b.latency_ns.cmp(&a.latency_ns).then(a.seq.cmp(&b.seq)))
    }

    /// Phase breakdown of request `seq` derived purely from flight
    /// events — the contract the `RequestStart`/`Doorbell`/
    /// `RequestComplete` payloads encode for the direct path:
    ///
    /// * `guest_submit` — request start to doorbell write begin
    /// * `doorbell`     — the doorbell MMIO itself
    /// * `device_wait`  — doorbell done to device completion
    /// * `guest_complete` — completion processing in the guest
    ///
    /// Returns `None` if any of the three anchor events fell out of the
    /// ring.
    pub fn breakdown_from_events(&self, seq: u64) -> Option<Vec<(&'static str, u64)>> {
        let find =
            |kind: FlightEventKind| self.events.iter().find(|e| e.kind == kind && e.a == seq);
        let start = find(FlightEventKind::RequestStart)?;
        let doorbell = find(FlightEventKind::Doorbell)?;
        let complete = find(FlightEventKind::RequestComplete)?;
        Some(vec![
            ("guest_submit", doorbell.b.saturating_sub(start.t_ns)),
            ("doorbell", doorbell.t_ns.saturating_sub(doorbell.b)),
            ("device_wait", complete.b.saturating_sub(doorbell.t_ns)),
            ("guest_complete", complete.t_ns.saturating_sub(complete.b)),
        ])
    }

    /// Phase breakdown of an exemplar derived from its captured span
    /// subtree: the root's direct children, durations summed by name in
    /// first-appearance order (the same contract as
    /// `SpanTree::child_breakdown`).
    pub fn breakdown_from_spans(ex: &DumpExemplar) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::new();
        for s in ex.spans.iter().filter(|s| s.parent == ex.root) {
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += s.duration_ns(),
                None => out.push((s.name.clone(), s.duration_ns())),
            }
        }
        out
    }

    /// Per-function busy-time attribution from `MediaService` /
    /// `LinkService` events: `(func, media_ns, link_ns)` sorted by total
    /// descending (ties to the lower function id), truncated to `k`.
    pub fn contention_top_k(&self, k: usize) -> Vec<(u32, u64, u64)> {
        let mut per_func: Vec<(u32, u64, u64)> = Vec::new();
        for e in &self.events {
            let busy = e.t_ns.saturating_sub(e.a);
            let slot = match per_func.iter_mut().find(|(f, _, _)| *f == e.func) {
                Some(s) => s,
                None => {
                    if !matches!(
                        e.kind,
                        FlightEventKind::MediaService | FlightEventKind::LinkService
                    ) {
                        continue;
                    }
                    per_func.push((e.func, 0, 0));
                    per_func.last_mut().expect("just pushed")
                }
            };
            match e.kind {
                FlightEventKind::MediaService => slot.1 += busy,
                FlightEventKind::LinkService => slot.2 += busy,
                _ => {}
            }
        }
        per_func.sort_by(|a, b| (b.1 + b.2).cmp(&(a.1 + a.2)).then(a.0.cmp(&b.0)));
        per_func.truncate(k);
        per_func
    }

    /// Re-exports the dump as a Chrome/Perfetto trace document: every
    /// exemplar span as a complete (`ph:"X"`) event on per-layer
    /// swimlanes, plus one counter track per window series, so the
    /// forensic evidence opens as one merged Perfetto view.
    pub fn perfetto_json(&self) -> Value {
        let mut layers: Vec<&str> = Vec::new();
        for ex in &self.exemplars {
            for s in &ex.spans {
                if !layers.contains(&s.layer.as_str()) {
                    layers.push(&s.layer);
                }
            }
        }
        let mut events: Vec<Value> = Vec::new();
        for (tid, layer) in layers.iter().enumerate() {
            events.push(serde_json::json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid + 1,
                "args": { "name": *layer },
            }));
        }
        for ex in &self.exemplars {
            for s in &ex.spans {
                let tid = layers.iter().position(|l| *l == s.layer).unwrap_or(0) + 1;
                let mut args: Vec<(String, Value)> = vec![
                    ("span".to_string(), Value::from(s.id)),
                    ("parent".to_string(), Value::from(s.parent)),
                    ("exemplar_seq".to_string(), Value::from(ex.seq)),
                ];
                for (k, v) in &s.attrs {
                    args.push((k.clone(), Value::from(*v)));
                }
                events.push(serde_json::json!({
                    "name": s.name.clone(),
                    "cat": s.layer.clone(),
                    "ph": "X",
                    "ts": s.start_ns as f64 / 1_000.0,
                    "dur": s.duration_ns() as f64 / 1_000.0,
                    "pid": 1,
                    "tid": tid,
                    "args": Value::Object(args),
                }));
            }
        }
        // Counter tracks from the dump's window series (perfmon
        // `series_json` shape: interval_ns + per-series samples).
        if let (Some(interval), Some(series)) = (
            self.series.get("interval_ns").and_then(Value::as_u64),
            self.series.get("series").and_then(Value::as_array),
        ) {
            for s in series {
                let (Some(name), Some(first), Some(samples)) = (
                    s.get("name").and_then(Value::as_str),
                    s.get("first_window").and_then(Value::as_u64),
                    s.get("samples").and_then(Value::as_array),
                ) else {
                    continue;
                };
                for (i, v) in samples.iter().enumerate() {
                    let Some(v) = v.as_u64() else { continue };
                    let end_ns = (first + i as u64 + 1) * interval;
                    events.push(serde_json::json!({
                        "name": name,
                        "ph": "C",
                        "pid": 1,
                        "tid": 0,
                        "ts": end_ns as f64 / 1_000.0,
                        "args": { "value": v },
                    }));
                }
            }
        }
        serde_json::json!({
            "traceEvents": events,
            "displayTimeUnit": "ns",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_malformed_dumps_without_panicking() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(ForensicDump::parse(&deep).is_err());
        assert!(ForensicDump::parse("{").is_err());
        let bad_attr = r#"{"anomaly": {"text": "t", "series": "s", "window": 0},
            "flight": {"capacity": 1, "total": 0, "dropped": 0, "events": [],
            "exemplars": [{"window": 0, "seq": 1, "disk": 0, "t_ns": 1,
            "latency_ns": 1, "root": 1, "spans": [{"id": 1, "parent": 0,
            "layer": "core", "name": "device", "start_ns": 0, "end_ns": 1,
            "attrs": [["blocks"]]}]}]}}"#;
        assert_eq!(
            ForensicDump::parse(bad_attr).unwrap_err(),
            "attr is not a pair"
        );
    }

    #[test]
    fn contention_sums_busy_time_per_func() {
        let mk = |kind, func, a, t| FlightEvent {
            t_ns: t,
            kind,
            func,
            a,
            b: 1,
        };
        let dump = ForensicDump {
            anomaly_text: String::new(),
            anomaly_series: String::new(),
            anomaly_window: 0,
            capacity: 16,
            total: 4,
            dropped: 0,
            events: vec![
                mk(FlightEventKind::MediaService, 1, 100, 300),
                mk(FlightEventKind::LinkService, 1, 300, 350),
                mk(FlightEventKind::MediaService, 2, 400, 450),
                mk(FlightEventKind::Doorbell, 3, 0, 10),
            ],
            exemplars: Vec::new(),
            series: Value::Null,
        };
        let top = dump.contention_top_k(10);
        assert_eq!(top, vec![(1, 200, 50), (2, 50, 0)]);
    }

    #[test]
    fn event_breakdown_follows_the_payload_contract() {
        let dump = ForensicDump {
            anomaly_text: String::new(),
            anomaly_series: String::new(),
            anomaly_window: 0,
            capacity: 16,
            total: 3,
            dropped: 0,
            events: vec![
                FlightEvent {
                    t_ns: 1000,
                    kind: FlightEventKind::RequestStart,
                    func: 1,
                    a: 7,
                    b: 0,
                },
                FlightEvent {
                    t_ns: 1300,
                    kind: FlightEventKind::Doorbell,
                    func: 1,
                    a: 7,
                    b: 1200,
                },
                FlightEvent {
                    t_ns: 5000,
                    kind: FlightEventKind::RequestComplete,
                    func: 1,
                    a: 7,
                    b: 4600,
                },
            ],
            exemplars: Vec::new(),
            series: Value::Null,
        };
        assert_eq!(
            dump.breakdown_from_events(7),
            Some(vec![
                ("guest_submit", 200),
                ("doorbell", 100),
                ("device_wait", 3300),
                ("guest_complete", 400),
            ])
        );
        assert_eq!(dump.breakdown_from_events(8), None);
    }
}
