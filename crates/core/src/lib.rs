//! # frostlab-core
//!
//! The experiment itself: *Running Servers around Zero Degrees*, re-run as
//! a deterministic simulation.
//!
//! This crate wires every substrate together into the campaign the paper
//! describes — a prototype weekend under two plastic boxes (Feb 12–15,
//! 2010), then a three-month normal phase with nine machines in a tent on
//! the roof terrace and nine identical machines in the basement control
//! group, all grinding the tar+bzip2+md5 synthetic load every ten minutes
//! while a monitoring host collects their logs over two sickly 8-port
//! switches.
//!
//! * [`config`] — experiment configuration (seed, dates, fidelity knobs);
//! * [`fleet`] — the 19 machines, their vendors, pairings and the Fig. 2
//!   install timeline;
//! * [`scripted`] — the documented event history (tent modifications
//!   R/I/B/F, host #15's two failures, the sensor-chip saga, the switch
//!   deaths, the five wrong hashes) for faithful figure reproduction;
//! * [`context`] — [`context::CampaignCtx`], the shared per-tick campaign
//!   state (clock, RNG lanes, weather, enclosures, fleet, instruments,
//!   accumulators);
//! * [`fleet_state`] — [`fleet_state::FleetState`], the struct-of-arrays
//!   per-host columns (hot scalars, thermal/hardware kernel banks, cold
//!   event-cadence objects) the phases step in bulk;
//! * [`phases`] — the seven per-tick substrate phases
//!   (weather → enclosure-thermal → logger-poll → script → host-step →
//!   collection → power-integration), each a [`phases::TickPhase`];
//! * [`scenario`] — [`scenario::ScenarioBuilder`], which composes phases
//!   into runnable campaigns (insert/replace/wrap), and
//!   [`scenario::Scenario`], whose tick loop times and traces each phase;
//!   supports **scripted** mode (replays the history; figures match the
//!   paper) and **stochastic** mode (all faults drawn from the hazard
//!   models; for Monte-Carlo and sensitivity studies);
//! * [`spec`] — declarative, serializable scenario/matrix specs with
//!   stable content hashes: the job currency of `frostlab-farm`'s durable
//!   work queue and result cache;
//! * [`observe`] — the per-tick sampler ([`observe::ObservePhase`])
//!   installed by [`scenario::ScenarioBuilder::with_tracing`] and
//!   [`scenario::ScenarioBuilder::with_observability`];
//! * [`prototype`] — the plastic-box weekend (T5);
//! * [`results`] — everything measured, in one struct;
//! * [`figures`] / [`tables`] — per-figure and per-table reproduction
//!   entry points used by `frostlab-bench`'s binaries.
//!
//! ## Quickstart
//!
//! ```no_run
//! use frostlab_core::config::ExperimentConfig;
//! use frostlab_core::scenario::ScenarioBuilder;
//!
//! let config = ExperimentConfig::paper_scripted(42);
//! let results = ScenarioBuilder::paper(config).build().run();
//! println!("runs: {}", results.workload.total_runs());
//! println!("failure rate: {:.1} %", 100.0 * results.failure_comparison().fleet().rate);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod context;
pub mod figures;
pub mod fleet;
pub mod fleet_state;
pub mod observe;
pub mod phases;
pub mod prototype;
pub mod results;
pub mod scenario;
pub mod scripted;
pub mod spec;
pub mod tables;
pub mod watchdog;

pub use config::ExperimentConfig;
pub use context::CampaignCtx;
pub use phases::TickPhase;
pub use results::ExperimentResults;
pub use scenario::{Scenario, ScenarioBuilder};
pub use spec::{JobSpec, MatrixSpec, ScenarioSpec, SpecError};
