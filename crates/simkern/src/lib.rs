//! # frostlab-simkern
//!
//! Deterministic simulation kernel for the frostlab workspace.
//!
//! The kernel is deliberately small and synchronous: there is no async
//! runtime, no background threads, and no hidden allocation on the hot
//! path. Campaigns do not run on an event loop: `frostlab-core` steps a
//! fixed pipeline of phases once per simulated tick, and each phase keeps
//! its own next-due times. What the kernel supplies is the time base and
//! the randomness every phase shares, plus a deterministic event queue
//! for code that does want to pop timestamped events in order.
//!
//! Three pillars:
//!
//! * [`time`] — simulation time as integer seconds since the experiment epoch
//!   (2010-01-01 00:00 local), with full civil-calendar conversion so scenario
//!   code can speak in the paper's own dates ("host #15 failed Mar 7, 04:40").
//! * [`rng`] — a self-contained xoshiro256++ PRNG with SplitMix64 seeding and
//!   labelled stream derivation, plus the distribution samplers the substrates
//!   need (normal, exponential, Weibull, lognormal, Poisson). Implemented here
//!   rather than via the `rand` crate so that every figure in EXPERIMENTS.md
//!   stays bit-for-bit reproducible regardless of dependency versions.
//! * [`event`] — a deterministic priority queue with stable FIFO tie-breaking
//!   for simultaneous events.
//!
//! ## Example
//!
//! ```
//! use frostlab_simkern::event::EventQueue;
//! use frostlab_simkern::time::{SimTime, SimDuration};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Done }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::minutes(10), Ev::Tick);
//! q.schedule(SimTime::ZERO + SimDuration::hours(1), Ev::Done);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, Ev::Tick);
//! assert_eq!(t.as_secs(), 600);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod time;

pub use event::EventQueue;
pub use rng::Rng;
pub use time::{Date, DateTime, SimDuration, SimTime, TimeError};
