//! frostlab-service: scenario-serving HTTP API over the ensemble engine.
//!
//! The `frostlabd` daemon turns the batch toolchain into a service:
//! clients `POST` a [`MatrixSpec`](frostlab_core::MatrixSpec) — the same
//! manifest document `farm submit` and `ensemble --matrix` consume — and
//! poll a content-hash job id for status and artifacts. The API is
//! versioned under `/v1` and documented field-by-field in
//! `docs/frostlabd-api.md`.
//!
//! Three properties define the design:
//!
//! - **Byte-identical results.** A job's `summary` artifact is the
//!   invariant-form `EnsembleSummary` JSON, folded in the same
//!   scenario-major, seed-minor order as
//!   [`run_matrix_sweep`](frostlab_ensemble::run_matrix_sweep), so
//!   `GET /v1/jobs/{id}/summary` byte-matches
//!   `ensemble --matrix --invariant` for the same matrix. CI diffs the
//!   two on every push (`service-smoke`).
//! - **Content-hash caching.** Job ids are FNV-1a hashes of canonical
//!   matrix JSON; per-campaign results are cached under
//!   [`JobSpec::key`](frostlab_core::JobSpec::key). Identical
//!   submissions deduplicate at the job level; overlapping matrices
//!   share campaign results. Determinism is what makes serving from
//!   cache indistinguishable from re-simulating.
//! - **Bounded everything.** A fixed-capacity [`AdmissionGate`] sheds
//!   excess submissions with `429` + `Retry-After`; request heads and
//!   bodies are size-capped; socket timeouts bound every connection.
//!   The daemon's memory is a function of its configuration, not of its
//!   traffic.
//!
//! Module map: [`http`] (wire framing) → [`server`] (router, workers) →
//! [`exec`] (matrix execution + the in-memory result store) over
//! [`registry`] (job lifecycle) and [`gate`] (admission); [`api`] holds
//! the wire types and [`client`] a minimal blocking client for tests and
//! `loadgen`.

#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod exec;
pub mod gate;
pub mod http;
pub mod registry;
pub mod server;

pub use api::{ErrorBody, HealthBody, JobPhase, JobStatusBody, SubmitResponse};
pub use exec::ResultCache;
pub use gate::{AdmissionGate, GateFull};
pub use registry::{job_id, Artifacts, JobEntry, JobRegistry};
pub use server::{Server, ServerConfig, MAX_WAIT_S};
