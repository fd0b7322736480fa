#![warn(missing_docs)]

//! Deterministic discrete-event simulation (DES) substrate for the NeSC
//! reproduction.
//!
//! The NeSC paper evaluates a hardware storage controller attached to a real
//! host. This crate provides the timing machinery used to model that system
//! in software:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`EventQueue`] — a stable (FIFO-on-tie) min-heap of timed events; each
//!   subsystem model drains its own typed queue, or a top-level glue loop
//!   drains one queue of a system-wide event enum.
//! * [`resource`] — *timeline resources*: bandwidth pipes and serial service
//!   units that answer "if work arrives at `t`, when does it finish?" while
//!   correctly accounting for busy periods. These model PCIe links, DMA
//!   engines, storage media and CPU software layers.
//! * [`stats`] — histograms, percentile summaries and throughput meters used
//!   by the benchmark harnesses to regenerate the paper's figures.
//! * [`trace`] — the hierarchical span tracer every simulated layer reports
//!   into (plus the Chrome/Perfetto trace-event exporter); a zero-cost
//!   no-op until explicitly enabled.
//! * [`perfmon`] — deterministic windowed time-series sampling driven by
//!   simulated time (gauge/counter-delta series in ring buffers), the SLO
//!   watchdog with declarative threshold rules, and the JSON/CSV/Perfetto
//!   counter-track exporters.
//! * [`flight`] — the deterministic flight recorder: a bounded,
//!   preallocated ring of compact integer-only events appended on the hot
//!   path, plus per-window worst-K exemplar retention of full request
//!   span trees — the forensic substrate the anomaly dumps snapshot.
//! * [`rng`] — a small deterministic RNG facade plus the distributions the
//!   workloads need (uniform, exponential, Zipf, Pareto).
//! * [`gen`] — integer-only traffic generators for scale-out scenarios:
//!   Zipf-like working-set skew and bursty open-loop inter-arrival tapes.
//! * [`sched`] — round-robin scheduling helpers used by the NeSC virtual
//!   function multiplexer, including the bitmap/heap [`ReadyTable`] that
//!   keeps 1000-function dispatch O(changed state) per event.
//! * [`selfcheck`] — the runtime divergence self-check: digest a run's
//!   event sequence, span tree and telemetry, run it twice from one seed,
//!   and report the first diverging event if reproducibility ever breaks.
//!
//! Everything is single-threaded and deterministic given a seed: running the
//! same experiment twice produces bit-identical results, which is what makes
//! the figure-regeneration harnesses reproducible.
//!
//! # Example
//!
//! ```
//! use nesc_sim::{EventQueue, SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_micros(5), Ev::Pong);
//! q.push(SimTime::ZERO + SimDuration::from_micros(1), Ev::Ping);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::Ping);
//! assert_eq!(t.as_nanos(), 1_000);
//! ```

pub mod flight;
pub mod gen;
pub mod hash;
pub mod perfmon;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod selfcheck;
pub mod stats;
pub mod time;
pub mod trace;

pub use flight::{
    CompletedRequest, Exemplar, FlightConfig, FlightEvent, FlightEventKind, FlightHandle,
    FlightRecorder,
};
pub use gen::{BurstyArrivals, ZipfLike};
pub use hash::{IntHashBuilder, IntHasher};
pub use perfmon::{AnomalyEvent, Sampler, SeriesId, SeriesKind, SloRule, SloWatchdog, TimeSeries};
pub use queue::EventQueue;
pub use resource::{Pipe, ServiceUnit};
pub use rng::SimRng;
pub use sched::{ReadyTable, RoundRobin};
pub use selfcheck::{Divergence, EventRecord, RunDigest};
pub use stats::{Histogram, Summary, Throughput};
pub use time::{SimDuration, SimTime};
pub use trace::{chrome_trace_json, validate_chrome_trace, Span, SpanId, SpanTree, Tracer};
