//! # frostlab-farm
//!
//! A crash-resumable campaign job farm: the distributed-systems shell
//! around `frostlab-ensemble`'s deterministic core.
//!
//! The paper's experiment ran unattended on a roof for three months and
//! survived switch deaths, host resets and operator absence; a
//! Monte-Carlo reproduction campaign should survive its own operational
//! weather the same way. This crate turns a climate × chaos × seed
//! matrix into a **durable work queue** that can be killed at any
//! instant — including mid-write — and resumed without re-simulating a
//! single completed campaign or perturbing a single output byte:
//!
//! * [`wal`] — the append-only, CRC-32-checksummed write-ahead log every
//!   queue transition passes through. Replay stops at the first torn
//!   frame; [`wal::Wal::open`] truncates the tail and appends past it.
//! * [`state`] — the idempotent fold from WAL history to queue state
//!   (replay-twice == replay-once; terminal states absorb everything).
//! * [`store`] — [`DirStore`], the on-disk
//!   [`frostlab_ensemble::ResultStore`]: one `<key>.json` `JobResult`
//!   per job, keyed by [`frostlab_core::JobSpec::key`]. Workers reach it
//!   through [`frostlab_ensemble::run_cached`], so identical jobs are
//!   cache-served, and a crash between store write and WAL append costs
//!   one cache hit, never a re-simulation.
//! * [`supervisor`] — the worker pool: leases, heartbeats, per-job retry
//!   with exponential backoff, poison-job quarantine (with
//!   [`frostlab_core::watchdog::IncidentRecord`]s), orphan-lease requeue
//!   on resume, SIGINT graceful drain, and the deterministic merge whose
//!   output is byte-identical to a single-process
//!   [`frostlab_ensemble::run_matrix_sweep`] of the same matrix.
//! * [`signal`] — the one-flag SIGINT drain plumbing (the crate's only
//!   `unsafe`, a direct `signal(2)` declaration).
//!
//! ## Quickstart
//!
//! ```no_run
//! use frostlab_core::{MatrixSpec, ScenarioSpec};
//! use frostlab_farm::{Farm, RunOptions};
//!
//! let matrix = MatrixSpec {
//!     scenarios: vec![ScenarioSpec::new("helsinki", 3, "helsinki")],
//!     seed_start: 0,
//!     seeds: 8,
//! };
//! let dir = std::path::Path::new("sweep-farm");
//! let mut farm = Farm::submit(dir, &matrix).unwrap();
//! let outcome = farm.run(RunOptions { workers: 4, ..RunOptions::default() }).unwrap();
//! assert!(outcome.settled);
//! // Kill -9 at any point above; then:
//! let mut farm = Farm::open(dir).unwrap();
//! farm.run(RunOptions::default()).unwrap(); // completed jobs are cache hits
//! ```

#![deny(unsafe_code)] // one vetted exception in `signal`
#![warn(missing_docs)]

pub mod error;
pub mod signal;
pub mod state;
pub mod store;
pub mod supervisor;
pub mod wal;

pub use error::FarmError;
pub use state::{FarmState, JobState, JobStatus};
pub use store::DirStore;
pub use supervisor::{Farm, FarmStatus, RunOptions, RunOutcome};
pub use wal::{ReplayReport, Wal, WalRecord};
