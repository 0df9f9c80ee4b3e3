//! # frostlab-ensemble
//!
//! Deterministic parallel ensemble engine with streaming aggregation.
//!
//! The paper ran its winter exactly once; this crate is how the digital
//! twin re-runs it hundreds of times. Three pieces:
//!
//! * [`engine::Ensemble`] — a work-stealing scoped-thread runner whose
//!   merge step is **thread-count invariant**: results are folded in job
//!   (seed) order regardless of completion order, so a 1-thread and a
//!   16-thread sweep of the same seed range produce byte-identical
//!   output. That property is enforced in CI by diffing the summary JSON
//!   across `--threads` values.
//! * [`aggregate::CampaignAggregate`] — streaming Welford / min-max /
//!   histogram aggregation of compact [`CampaignSummary`] projections, so
//!   memory stays O(1) in the number of campaigns instead of
//!   O(N)·sizeof([`ExperimentResults`](frostlab_core::results::ExperimentResults)).
//! * [`report`] — canned ensemble studies (the Monte-Carlo failure sweep)
//!   rendered to strings, shared by `examples/` and the determinism tests.
//!
//! Two entry points sit on top: [`sweep`] folds a seed range of campaigns
//! (and, when they carry them, their traces and observatories) into one
//! report, and [`run_job`] runs one [`JobSpec`] under the workspace's
//! single panic guard. Around it, [`run_cached`] serves a job from a
//! [`ResultStore`] or runs and stores it — the one step `frostlab-farm`
//! workers (on-disk store) and `frostlabd` (in-memory cache) take for
//! every campaign.
//!
//! ```no_run
//! use frostlab_core::config::ExperimentConfig;
//! use frostlab_core::ScenarioBuilder;
//! use frostlab_ensemble::sweep;
//!
//! // 32 stochastic winters, all cores, O(1) memory:
//! let report = sweep(0, 32, 0, |seed| {
//!     ScenarioBuilder::paper(ExperimentConfig::paper_stochastic(seed)).build()
//! });
//! println!("{}", report.summary.to_json().unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod alerts;
pub mod engine;
pub mod metrics;
pub mod report;

pub use aggregate::{CampaignAggregate, EnsembleSummary};
pub use alerts::{EnsembleAlerts, SeedAlerts};
pub use engine::Ensemble;
pub use metrics::{EnsembleMetrics, GaugeAggregate, MetricsAggregate};

use std::panic::{catch_unwind, AssertUnwindSafe};

use frostlab_core::results::CampaignSummary;
use frostlab_core::spec::{JobSpec, MatrixSpec, SpecError};
use frostlab_core::Scenario;
use frostlab_trace::{CampaignTrace, MetricsSnapshot, TraceConfig};

/// What a [`sweep`] folded, in seed order.
#[derive(Debug)]
pub struct SweepReport {
    /// The streaming summary over every campaign.
    pub summary: EnsembleSummary,
    /// Per-seed metric snapshots, folded — `Some` exactly when the
    /// campaigns carried a trace.
    pub metrics: Option<EnsembleMetrics>,
    /// Per-seed alert timelines and SLO attainment, folded — `Some`
    /// exactly when the campaigns carried an observatory.
    pub alerts: Option<EnsembleAlerts>,
}

/// The seed-order fold behind [`sweep`], also fed by `frostlabd`'s
/// cached matrix executor: summaries always, metric snapshots and alert
/// views whenever a campaign carries them.
#[derive(Debug)]
pub struct SweepFold {
    seed_start: u64,
    summary: CampaignAggregate,
    metrics: Option<MetricsAggregate>,
    alerts: Option<EnsembleAlerts>,
}

impl SweepFold {
    /// An empty fold for a sweep whose first seed is `seed_start`.
    pub fn new(seed_start: u64) -> SweepFold {
        SweepFold {
            seed_start,
            summary: CampaignAggregate::new(),
            metrics: None,
            alerts: None,
        }
    }

    /// Fold the next campaign, in seed (job) order.
    pub fn absorb(
        &mut self,
        summary: &CampaignSummary,
        metrics: Option<&MetricsSnapshot>,
        alerts: Option<SeedAlerts>,
    ) {
        self.summary.absorb(summary);
        if let Some(m) = metrics {
            self.metrics
                .get_or_insert_with(MetricsAggregate::new)
                .absorb(m);
        }
        if let Some(a) = alerts {
            let seed_start = self.seed_start;
            self.alerts
                .get_or_insert_with(|| EnsembleAlerts::new(seed_start))
                .absorb(a);
        }
    }

    /// Freeze the reports; `threads` is recorded in the summary only.
    pub fn finish(self, threads: usize) -> SweepReport {
        SweepReport {
            summary: self.summary.finish(self.seed_start, threads),
            metrics: self.metrics.map(|m| m.finish(self.seed_start)),
            alerts: self.alerts,
        }
    }
}

/// Run one campaign per seed in `seed_start..seed_start + campaigns`,
/// built by `make_scenario(seed)` on the worker, and fold the results
/// **in seed order**. `threads = 0` means all available cores; the
/// thread count never changes the result, only the wall-clock.
///
/// Each campaign is projected on its worker — summary, plus its metric
/// snapshot if `make_scenario` armed a tracer and its alert view if it
/// armed the observatory — and the full results, event buffers and
/// flight dumps are dropped before the next campaign starts, so memory
/// stays O(threads) whatever the sweep size. Pass
/// [`TraceConfig::metrics_only`] to skip buffering events entirely on
/// large traced sweeps. Every report is byte-identical for any
/// `threads` value.
pub fn sweep<B>(seed_start: u64, campaigns: u64, threads: usize, make_scenario: B) -> SweepReport
where
    B: Fn(u64) -> Scenario + Sync,
{
    let ensemble = Ensemble::new(campaigns).threads(threads);
    let mut fold = SweepFold::new(seed_start);
    ensemble.run_scenarios(
        |i| make_scenario(seed_start + i),
        |r| {
            (
                r.summary(),
                r.trace.as_ref().map(|t| t.metrics.clone()),
                r.obs.as_ref().map(|o| SeedAlerts::from_obs(r.seed, o)),
            )
        },
        |_, (s, m, a)| fold.absorb(&s, m.as_ref(), a),
    );
    fold.finish(ensemble.effective_threads())
}

/// Run every job of a [`MatrixSpec`] — scenario-major, seed-minor, the
/// matrix's canonical expansion order — in one deterministic [`sweep`]
/// and fold the summaries in job order.
///
/// This is the single-process reference a `frostlab-farm` sweep of the
/// same matrix is byte-compared against: the farm's merge folds the same
/// per-job summaries in the same order, so the two
/// [`EnsembleSummary::invariant_json`] renderings must be identical at
/// any thread/worker count and across any number of kill/resume cycles.
pub fn run_matrix_sweep(matrix: &MatrixSpec, threads: usize) -> Result<EnsembleSummary, SpecError> {
    matrix.validate()?;
    let jobs = matrix.expand();
    let report = sweep(matrix.seed_start, jobs.len() as u64, threads, |seed| {
        // `sweep` counts up from the matrix's first seed; the offset is
        // the job's index in the expansion.
        let job = &jobs[(seed - matrix.seed_start) as usize];
        // validate() proved every scenario buildable.
        job.scenario
            .build(job.seed)
            .expect("matrix validated before expansion")
    });
    Ok(report.summary)
}

/// What a campaign job leaves behind for a [`ResultStore`]: everything
/// [`run_job`] projects except the trace, which is never stored.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct JobResult {
    /// The campaign's compact summary projection.
    pub summary: CampaignSummary,
    /// Alert view (observed scenarios only).
    pub alerts: Option<SeedAlerts>,
}

/// What one campaign job produced, projected on the thread that ran it.
#[derive(Debug)]
pub struct JobOutput {
    /// The storable result.
    pub result: JobResult,
    /// The frozen trace (traced runs only).
    pub trace: Option<CampaignTrace>,
}

/// Why a campaign job produced no output. The `Display` forms
/// (`spec error: …`, `panic: …`) are the notes the farm journals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The scenario failed validation (unknown climate, bad day count).
    Spec(SpecError),
    /// The campaign panicked (e.g. a poison scenario); the payload as
    /// text.
    Panic(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Spec(e) => write!(f, "spec error: {e}"),
            JobError::Panic(m) => write!(f, "panic: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Build, run and project one campaign job: the scenario from
/// [`ScenarioSpec::builder`](frostlab_core::ScenarioSpec::builder), with
/// the tracer armed last when `traced` is set; the build and run under
/// one `catch_unwind`, so a panicking campaign comes back as
/// [`JobError::Panic`] instead of unwinding into the caller.
pub fn run_job(job: &JobSpec, traced: bool) -> Result<JobOutput, JobError> {
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        let mut b = job.scenario.builder(job.seed)?;
        if traced {
            b = b.with_tracing(TraceConfig::default());
        }
        let mut results = b.build().run();
        Ok(JobOutput {
            result: JobResult {
                summary: results.summary(),
                alerts: results
                    .obs
                    .as_ref()
                    .map(|o| SeedAlerts::from_obs(job.seed, o)),
            },
            trace: results.trace.take(),
        })
    }));
    match attempt {
        Ok(output) => output.map_err(JobError::Spec),
        Err(payload) => Err(JobError::Panic(panic_text(payload.as_ref()))),
    }
}

/// A content-addressed home for [`JobResult`]s, keyed by
/// [`JobSpec::key`]. The farm keeps one on disk, `frostlabd` one in
/// memory; [`run_cached`] is the one step both take around [`run_job`].
///
/// Contract: `get` returns only intact entries — anything missing,
/// half-written or unparsable reads as absent, so the job just re-runs —
/// and `put` is atomic, so concurrent `put`s of one key leave one intact
/// entry.
pub trait ResultStore {
    /// Why a `put` failed.
    type Error;

    /// The result stored under `key`, if an intact one exists.
    fn get(&self, key: &str) -> Option<JobResult>;

    /// Store `result` under `key`, replacing any earlier entry.
    fn put(&self, key: &str, result: &JobResult) -> Result<(), Self::Error>;
}

/// Serve `job` from `store`, or run it through [`run_job`] and store the
/// result before returning. The `bool` is `true` when the result came
/// from the store.
///
/// A `traced` request always simulates, because traces are not stored;
/// an entry already in the store still makes it a hit and is not put
/// again. A failed campaign is never stored. The outer error is the
/// store's, the inner one the job's.
pub fn run_cached<S: ResultStore + ?Sized>(
    store: &S,
    key: &str,
    job: &JobSpec,
    traced: bool,
) -> Result<Result<(JobOutput, bool), JobError>, S::Error> {
    let stored = store.get(key);
    let hit = stored.is_some();
    if let Some(result) = stored.filter(|_| !traced) {
        return Ok(Ok((
            JobOutput {
                result,
                trace: None,
            },
            true,
        )));
    }
    let output = match run_job(job, traced) {
        Ok(output) => output,
        Err(err) => return Ok(Err(err)),
    };
    if !hit {
        store.put(key, &output.result)?;
    }
    Ok(Ok((output, hit)))
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_core::config::{ExperimentConfig, FaultMode};
    use frostlab_core::{ScenarioBuilder, ScenarioSpec};

    fn job(spec: ScenarioSpec) -> JobSpec {
        JobSpec {
            scenario: spec,
            seed: 3,
        }
    }

    #[test]
    fn run_job_traces_only_when_asked_and_never_changes_the_summary() {
        let j = job(ScenarioSpec::new("job", 1, "helsinki"));
        let plain = run_job(&j, false).expect("runs");
        let traced = run_job(&j, true).expect("runs");
        assert!(plain.trace.is_none() && plain.result.alerts.is_none());
        assert!(traced.trace.is_some());
        assert_eq!(
            plain.result.summary.to_json().expect("serializes"),
            traced.result.summary.to_json().expect("serializes")
        );
    }

    #[test]
    fn run_job_errors_render_as_the_farm_notes() {
        let err = run_job(&job(ScenarioSpec::new("x", 1, "atlantis")), false)
            .expect_err("unknown climate");
        assert!(matches!(err, JobError::Spec(SpecError::UnknownClimate(_))));
        assert!(err.to_string().starts_with("spec error: unknown climate"));

        let mut poison = ScenarioSpec::new("poison", 1, "helsinki");
        poison.poison = true;
        let err = run_job(&job(poison), false).expect_err("poison detonates");
        assert_eq!(
            err.to_string(),
            "panic: poison phase detonated at tick 32",
            "{err:?}"
        );
    }

    #[test]
    fn sweep_reports_metrics_and_alerts_only_when_campaigns_carry_them() {
        let cfg = |seed| ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(seed, 1)
        };
        let plain = sweep(5, 2, 1, |seed| ScenarioBuilder::paper(cfg(seed)).build());
        assert!(plain.metrics.is_none() && plain.alerts.is_none());
        let traced = sweep(5, 2, 2, |seed| {
            ScenarioBuilder::paper(cfg(seed))
                .with_tracing(TraceConfig::metrics_only())
                .build()
        });
        let metrics = traced.metrics.expect("traced campaigns");
        assert_eq!((metrics.campaigns, metrics.seed_start), (2, 5));
        assert!(traced.alerts.is_none());
        assert_eq!(
            plain.summary.invariant_json().expect("serializes"),
            traced.summary.invariant_json().expect("serializes")
        );
    }
}
