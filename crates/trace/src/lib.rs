//! # frostlab-trace
//!
//! Deterministic, zero-cost-when-disabled observability for campaigns.
//!
//! The paper is a measurement study: its contribution *is* the
//! instrumentation. This crate gives the digital twin the same property —
//! a campaign run can be observed as it happens, not only through its
//! final artifacts. Three pieces:
//!
//! * [`tracer::Tracer`] — a handle carried in the campaign context that
//!   records **sim-time** spans and instant events (phase steps, host
//!   jobs, collection attempts, watchdog incidents) with structured
//!   key/value [`event::FieldValue`] fields. The default handle is a
//!   no-op: every record call early-returns on a `None` buffer, so a
//!   campaign built without [`tracer::TraceConfig`] pays nothing and
//!   stays byte-identical to an untraced build (the golden-hash tests
//!   pin this).
//! * [`metrics::MetricsRegistry`] — counters, gauges and fixed-bin
//!   histograms (reusing [`frostlab_analysis::stats`]) sampled at tick
//!   boundaries: `netsim.retransmits`, `collector.gaps_open`,
//!   `tent.temp_c`, `workload.archives_stored`, …
//! * [`export`] — a JSONL event log, a Chrome trace-event / Perfetto
//!   JSON keyed to sim-time (flame-style phase and host timelines), and
//!   a Prometheus text snapshot of the metrics.
//!
//! ## Determinism contract
//!
//! The tracer draws **no randomness** and stamps **no wall-clock**: every
//! timestamp in an exported trace is simulation time. A traced campaign
//! therefore emits byte-identical output across runs and — because each
//! campaign writes to its own buffer — across ensemble thread counts.
//! Wall-clock timings live only in the separate `phase_breakdown` side
//! channel (`Scenario::run_with_timings` in `frostlab-core`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metrics;
pub mod tracer;

pub use event::{FieldValue, TraceEvent};
pub use metrics::{
    CounterSample, GaugeSample, HistogramSample, MetricKey, MetricsRegistry, MetricsSnapshot,
};
pub use tracer::{CampaignTrace, TraceConfig, Tracer};
