//! # frostlab-telemetry
//!
//! Instrumentation substrate: the sensors, loggers and meters the study
//! used, warts and all.
//!
//! The figures in the paper are not plots of the atmosphere — they are
//! plots of *instrument output*. Fig. 3/4's inside series starts late
//! ("because the Lascar data logger arrived late, tent-internal temperature
//! and humidity data from the early parts of the experiment are missing")
//! and has had outliers removed ("caused by removing the data logger and
//! carrying it indoors" to read it over USB). Reproducing the figures means
//! reproducing the instruments:
//!
//! * [`series`] — a small time-series container (monotonic timestamps,
//!   stats, windows, gap detection);
//! * [`lascar`] — the Lascar EL-USB-2-LCD logger: ±0.5 °C / ±3 %RH typical
//!   error, 0.5-unit quantization, finite sample memory, and the
//!   carried-indoors readout excursions;
//! * [`technoline`] — the Technoline Cost Control wall-plug energy meter;
//! * [`outlier`] — the spike filter used to clean the indoor excursions out
//!   of the published series;
//! * [`export`] — CSV emission for the figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod lascar;
pub mod outlier;
pub mod series;
pub mod technoline;

pub use lascar::{LascarConfig, LascarLogger};
pub use series::{SeriesError, TimeSeries};
pub use technoline::CostControlMeter;
