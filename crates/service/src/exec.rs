//! Matrix execution with content-hash response caching.
//!
//! [`execute_matrix`] is the bridge between a `POST /v1/scenarios` body
//! and the ensemble engine. It walks the matrix's canonical expansion —
//! scenario-major, seed-minor, exactly the order
//! [`run_matrix_sweep`](frostlab_ensemble::run_matrix_sweep) uses — and
//! folds one [`CampaignSummary`] per job into the same [`SweepFold`]
//! [`sweep`](frostlab_ensemble::sweep) uses, so the frozen summary
//! artifact is **byte-identical** to
//! `ensemble --matrix --invariant` for the same matrix (the
//! `service-smoke` CI job diffs the two).
//!
//! Caching follows `frostlab-farm`'s `ResultStore` discipline: entries
//! are keyed by [`JobSpec::key`] — the FNV-1a hash of the job's canonical
//! JSON — so identical (scenario, seed) pairs collide on purpose, across
//! matrices and across submissions. Because campaigns are deterministic,
//! a cached summary is indistinguishable from a re-simulated one, which
//! is what makes serving from cache sound.
//!
//! Every simulated campaign goes through [`run_job`], the runner farm
//! workers use too. The **first job** of every matrix runs with the
//! tracer armed (tracing is perturbation-free — the `trace-determinism`
//! CI gate pins that) to produce the `trace.jsonl` / `perfetto.json`
//! artifacts.

use std::collections::HashMap;
use std::sync::Mutex;

use frostlab_core::results::CampaignSummary;
use frostlab_core::spec::JobSpec;
use frostlab_core::MatrixSpec;
use frostlab_ensemble::{run_job, JobError, SeedAlerts, SweepFold};
use frostlab_trace::export::{to_chrome_trace, to_jsonl};

use crate::registry::Artifacts;

/// One cached campaign outcome: the summary plus, for observed jobs, the
/// alert view that folds into the matrix's `alerts.json`.
#[derive(Debug, Clone)]
pub struct CachedCampaign {
    /// The campaign's compact summary projection.
    pub summary: CampaignSummary,
    /// Alert view (observed scenarios only).
    pub alerts: Option<SeedAlerts>,
}

/// In-memory content-addressed result cache, keyed by [`JobSpec::key`].
///
/// Unlike the farm's on-disk store this one holds live values, so cached
/// summaries never round-trip through JSON — there is no float
/// normalization boundary to defend.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<String, CachedCampaign>>,
}

impl ResultCache {
    /// Empty cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
    }

    /// Fetch the campaign cached under `key`.
    pub fn get(&self, key: &str) -> Option<CachedCampaign> {
        self.entries.lock().expect("cache lock").get(key).cloned()
    }

    /// Store a campaign under `key`.
    pub fn put(&self, key: &str, value: CachedCampaign) {
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key.to_string(), value);
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a matrix could not be completed.
#[derive(Debug, Clone)]
pub enum ExecError {
    /// A scenario failed validation (unknown climate, bad day count).
    InvalidSpec(String),
    /// A campaign panicked mid-run (e.g. a poison scenario).
    CampaignPanicked {
        /// Index of the job in the matrix's canonical expansion.
        job_index: usize,
        /// Panic payload rendered to text.
        message: String,
    },
    /// An artifact failed to serialize (never expected for plain data).
    Serialize(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidSpec(m) => write!(f, "invalid spec: {m}"),
            ExecError::CampaignPanicked { job_index, message } => {
                write!(f, "campaign {job_index} panicked: {message}")
            }
            ExecError::Serialize(m) => write!(f, "artifact serialization failed: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Per-execution accounting the server folds into its metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Campaigns actually simulated by this execution.
    pub simulated: u64,
    /// Campaigns served from the result cache.
    pub cache_hits: u64,
}

/// Observer hook: called once per finished campaign with `cache_hit`.
/// The server uses it to tick `jobs_done` on the registry so status
/// polls see live progress.
pub type ProgressFn<'a> = dyn Fn(bool) + 'a;

/// Run every job of `matrix` (serving repeats from `cache`) and freeze
/// the servable artifacts.
///
/// The summary artifact is rendered with
/// [`EnsembleSummary::invariant_json`](frostlab_ensemble::EnsembleSummary::invariant_json),
/// the thread-count-masked form, so it can be byte-compared against any
/// in-process ensemble run of the same matrix.
pub fn execute_matrix(
    matrix: &MatrixSpec,
    cache: &ResultCache,
    progress: &ProgressFn<'_>,
) -> Result<(Artifacts, ExecStats), ExecError> {
    matrix
        .validate()
        .map_err(|e| ExecError::InvalidSpec(e.to_string()))?;
    let jobs = matrix.expand();
    let mut fold = SweepFold::new(matrix.seed_start);
    let mut stats = ExecStats::default();
    let mut trace_jsonl = String::new();
    let mut perfetto_json = String::new();

    for (i, job) in jobs.iter().enumerate() {
        let key = job.key().map_err(|e| ExecError::Serialize(e.to_string()))?;
        let representative = i == 0;
        let cached = cache.get(&key);
        let outcome = match cached {
            // A cached non-representative job costs nothing. A cached
            // representative still re-runs (traced) below when the trace
            // artifacts are needed, but its summary comes from the run
            // either way — the two are identical by determinism.
            Some(hit) if !representative => {
                stats.cache_hits += 1;
                progress(true);
                hit
            }
            was_cached => {
                let run = run_campaign(job, i, representative)?;
                let hit = was_cached.is_some();
                if hit {
                    stats.cache_hits += 1;
                } else {
                    stats.simulated += 1;
                    cache.put(&key, run.outcome.clone());
                }
                if representative {
                    trace_jsonl = run.trace_jsonl;
                    perfetto_json = run.perfetto_json;
                }
                progress(hit);
                run.outcome
            }
        };
        fold.absorb(&outcome.summary, None, outcome.alerts);
    }
    let report = fold.finish(0);

    // Trailing newline included: `ensemble --matrix --invariant` prints
    // with println!, and "byte-identical to the CLI" means every byte.
    let summary_json = report
        .summary
        .invariant_json()
        .map(|json| format!("{json}\n"))
        .map_err(|e| ExecError::Serialize(e.to_string()))?;
    // Observed jobs always carry alerts, so the report exists exactly
    // when the matrix has an observed scenario.
    let alerts_json = report
        .alerts
        .map(|a| a.to_json())
        .transpose()
        .map_err(|e| ExecError::Serialize(e.to_string()))?;
    Ok((
        Artifacts {
            summary_json,
            trace_jsonl,
            perfetto_json,
            alerts_json,
        },
        stats,
    ))
}

struct CampaignRun {
    outcome: CachedCampaign,
    trace_jsonl: String,
    perfetto_json: String,
}

/// Run one campaign through [`run_job`], tracing the representative so
/// the matrix gets its `trace.jsonl`/`perfetto.json` artifacts.
fn run_campaign(job: &JobSpec, index: usize, traced: bool) -> Result<CampaignRun, ExecError> {
    let output = run_job(job, traced).map_err(|e| match e {
        JobError::Spec(e) => ExecError::InvalidSpec(e.to_string()),
        JobError::Panic(message) => ExecError::CampaignPanicked {
            job_index: index,
            message,
        },
    })?;
    let (trace_jsonl, perfetto_json) = match output.trace.as_ref() {
        Some(trace) => (
            to_jsonl(trace).map_err(|e| ExecError::Serialize(e.to_string()))?,
            to_chrome_trace(trace).map_err(|e| ExecError::Serialize(e.to_string()))?,
        ),
        None => (String::new(), String::new()),
    };
    Ok(CampaignRun {
        outcome: CachedCampaign {
            summary: output.summary,
            alerts: output.alerts,
        },
        trace_jsonl,
        perfetto_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_core::spec::ScenarioSpec;
    use frostlab_ensemble::run_matrix_sweep;
    use std::cell::Cell;

    fn tiny_matrix() -> MatrixSpec {
        MatrixSpec {
            scenarios: vec![ScenarioSpec::new("svc-exec", 1, "helsinki")],
            seed_start: 3,
            seeds: 2,
        }
    }

    #[test]
    fn summary_is_byte_identical_to_matrix_sweep() {
        let matrix = tiny_matrix();
        let cache = ResultCache::new();
        let (artifacts, stats) = execute_matrix(&matrix, &cache, &|_| {}).expect("runs");
        let reference = run_matrix_sweep(&matrix, 1)
            .expect("valid")
            .invariant_json()
            .expect("serializes");
        // The artifact carries the CLI's trailing newline.
        assert_eq!(artifacts.summary_json, format!("{reference}\n"));
        assert_eq!(stats.simulated, 2);
        assert_eq!(stats.cache_hits, 0);
        // The representative trace artifacts are populated.
        assert!(artifacts.trace_jsonl.contains("frostlab-trace/v1"));
        assert!(artifacts.perfetto_json.contains("traceEvents"));
        // No observed scenarios ⇒ no alerts artifact.
        assert!(artifacts.alerts_json.is_none());
    }

    #[test]
    fn second_execution_is_served_from_cache_with_identical_bytes() {
        let matrix = tiny_matrix();
        let cache = ResultCache::new();
        let hits = Cell::new(0u32);
        let (first, s1) = execute_matrix(&matrix, &cache, &|_| {}).expect("runs");
        let (second, s2) = execute_matrix(&matrix, &cache, &|hit| {
            if hit {
                hits.set(hits.get() + 1);
            }
        })
        .expect("runs");
        assert_eq!(first.summary_json, second.summary_json);
        assert_eq!(first.trace_jsonl, second.trace_jsonl);
        assert_eq!(first.perfetto_json, second.perfetto_json);
        assert_eq!(s1.simulated, 2);
        // Second pass: the representative re-runs for its trace but still
        // counts as a cache hit; the other campaign is a pure hit.
        assert_eq!(s2.simulated, 0);
        assert_eq!(s2.cache_hits, 2);
        assert_eq!(hits.get(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn observed_matrix_produces_alerts_identical_to_observed_fold() {
        let mut spec = ScenarioSpec::new("svc-obs", 1, "helsinki");
        spec.observe = true;
        let matrix = MatrixSpec {
            scenarios: vec![spec],
            seed_start: 0,
            seeds: 2,
        };
        let cache = ResultCache::new();
        let (artifacts, _) = execute_matrix(&matrix, &cache, &|_| {}).expect("runs");
        let alerts_json = artifacts.alerts_json.expect("observed matrix has alerts");
        assert!(alerts_json.contains("frostlab-ensemble-alerts/v1"));
        assert!(alerts_json.contains("\"campaigns\": 2"));
    }

    #[test]
    fn poison_matrix_fails_typed_without_poisoning_the_cache() {
        let mut poison = ScenarioSpec::new("svc-poison", 1, "helsinki");
        poison.poison = true;
        let matrix = MatrixSpec {
            scenarios: vec![poison],
            seed_start: 0,
            seeds: 1,
        };
        let cache = ResultCache::new();
        let err = execute_matrix(&matrix, &cache, &|_| {}).expect_err("panics");
        match err {
            ExecError::CampaignPanicked { job_index, message } => {
                assert_eq!(job_index, 0);
                assert!(message.contains("poison"));
            }
            other => panic!("expected CampaignPanicked, got {other:?}"),
        }
        assert!(cache.is_empty(), "failed campaigns must not be cached");
    }

    /// FNV-1a digests of every artifact a fresh-cache execution freezes,
    /// as `summary trace perfetto alerts` (`-` for an absent artifact).
    fn artifact_digests(observe: bool) -> String {
        let mut spec = ScenarioSpec::new("proto", 9, "helsinki");
        spec.observe = observe;
        spec.chaos = observe;
        let matrix = MatrixSpec {
            scenarios: vec![spec],
            seed_start: 5,
            seeds: 2,
        };
        let (a, _) = execute_matrix(&matrix, &ResultCache::new(), &|_| {}).expect("runs");
        let hex = |s: &str| format!("{:016x}", frostlab_core::spec::fnv1a(s.as_bytes()));
        format!(
            "{} {} {} {}",
            hex(&a.summary_json),
            hex(&a.trace_jsonl),
            hex(&a.perfetto_json),
            a.alerts_json.as_deref().map_or("-".to_string(), hex)
        )
    }

    #[test]
    fn artifacts_match_pinned_hashes() {
        assert_eq!(
            artifact_digests(false),
            "6e22c3be97b59eaa 0dc5f59c7dcf1303 17abe647dd7affa6 -"
        );
        assert_eq!(
            artifact_digests(true),
            "6e22c3be97b59eaa 56a1b29662b00308 121b8f7f671e7c77 952c27d7af4df157"
        );
    }

    #[test]
    fn invalid_climate_is_rejected_before_any_simulation() {
        let matrix = MatrixSpec {
            scenarios: vec![ScenarioSpec::new("x", 1, "atlantis")],
            seed_start: 0,
            seeds: 1,
        };
        let cache = ResultCache::new();
        assert!(matches!(
            execute_matrix(&matrix, &cache, &|_| {}),
            Err(ExecError::InvalidSpec(_))
        ));
        assert!(cache.is_empty());
    }
}
