//! Matrix execution with content-hash response caching.
//!
//! [`execute_matrix`] is the bridge between a `POST /v1/scenarios` body
//! and the ensemble engine. It walks the matrix's canonical expansion —
//! scenario-major, seed-minor, exactly the order
//! [`run_matrix_sweep`](frostlab_ensemble::run_matrix_sweep) uses — and
//! folds one [`JobResult`] per job into the same [`SweepFold`]
//! [`sweep`](frostlab_ensemble::sweep) uses, so the frozen summary
//! artifact is **byte-identical** to `ensemble --matrix --invariant` for
//! the same matrix (the `service-smoke` CI job diffs the two).
//!
//! Caching goes through [`run_cached`], the cache-or-run step farm
//! workers take too, over [`ResultCache`], the in-memory
//! [`ResultStore`]: entries are keyed by [`JobSpec::key`] — the FNV-1a
//! hash of the job's canonical JSON — so identical (scenario, seed)
//! pairs collide on purpose, across matrices and across submissions.
//! Because campaigns are deterministic, a cached result is
//! indistinguishable from a re-simulated one, which is what makes serving
//! from cache sound. The **first job** of every matrix runs with the
//! tracer armed (tracing is perturbation-free — the `trace-determinism`
//! CI gate pins that) to produce the `trace.jsonl` / `perfetto.json`
//! artifacts; traces are not stored, so it simulates even when cached.
//!
//! [`JobSpec::key`]: frostlab_core::JobSpec::key

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::Mutex;

use frostlab_core::MatrixSpec;
use frostlab_ensemble::{run_cached, JobError, JobResult, ResultStore, SweepFold};
use frostlab_trace::export::{to_chrome_trace, to_jsonl};

use crate::registry::Artifacts;

/// `frostlabd`'s in-memory [`ResultStore`].
///
/// Unlike the farm's on-disk store this one holds live values, so cached
/// summaries never round-trip through JSON — there is no float
/// normalization boundary to defend.
#[derive(Debug, Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<String, JobResult>>,
}

impl ResultCache {
    /// Empty cache.
    pub fn new() -> ResultCache {
        ResultCache::default()
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

impl ResultStore for ResultCache {
    type Error = Infallible;

    fn get(&self, key: &str) -> Option<JobResult> {
        self.entries.lock().expect("cache lock").get(key).cloned()
    }

    fn put(&self, key: &str, result: &JobResult) -> Result<(), Infallible> {
        self.entries
            .lock()
            .expect("cache lock")
            .insert(key.to_string(), result.clone());
        Ok(())
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

/// Observer hook: called once per finished campaign with `cached` —
/// `true` when its result came from the cache. It is the one
/// per-campaign provenance signal: the server ticks the registry's
/// progress and the `campaigns_total` counter from it.
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
) -> Result<Artifacts, ExecError> {
    matrix
        .validate()
        .map_err(|e| ExecError::InvalidSpec(e.to_string()))?;
    let serialize = |e: serde_json::Error| ExecError::Serialize(e.to_string());
    let mut fold = SweepFold::new(matrix.seed_start);
    let mut trace_jsonl = String::new();
    let mut perfetto_json = String::new();

    for (i, job) in matrix.expand().iter().enumerate() {
        let key = job.key().map_err(serialize)?;
        // The first job runs traced: its trace is the matrix's artifact.
        let Ok(run) = run_cached(cache, &key, job, i == 0);
        let (output, cached) = run.map_err(|e| match e {
            JobError::Spec(e) => ExecError::InvalidSpec(e.to_string()),
            JobError::Panic(message) => ExecError::CampaignPanicked {
                job_index: i,
                message,
            },
        })?;
        if let Some(trace) = &output.trace {
            trace_jsonl = to_jsonl(trace).map_err(serialize)?;
            perfetto_json = to_chrome_trace(trace).map_err(serialize)?;
        }
        progress(cached);
        fold.absorb(&output.result.summary, None, output.result.alerts);
    }
    let report = fold.finish(0);

    // Trailing newline included: `ensemble --matrix --invariant` prints
    // with println!, and "byte-identical to the CLI" means every byte.
    let summary_json = format!("{}\n", report.summary.invariant_json().map_err(serialize)?);
    // Observed jobs always carry alerts, so the report exists exactly
    // when the matrix has an observed scenario.
    let alerts_json = report
        .alerts
        .map(|a| a.to_json())
        .transpose()
        .map_err(serialize)?;
    Ok(Artifacts {
        summary_json,
        trace_jsonl,
        perfetto_json,
        alerts_json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_core::spec::ScenarioSpec;
    use frostlab_ensemble::run_matrix_sweep;
    use std::cell::Cell;

    /// Execute `matrix`, counting the progress callback's
    /// `(simulated, cached)` campaigns.
    fn execute_counting(matrix: &MatrixSpec, cache: &ResultCache) -> (Artifacts, (u32, u32)) {
        let (simulated, cached) = (Cell::new(0), Cell::new(0));
        let artifacts = execute_matrix(matrix, cache, &|hit| {
            let c = if hit { &cached } else { &simulated };
            c.set(c.get() + 1);
        })
        .expect("runs");
        (artifacts, (simulated.get(), cached.get()))
    }

    #[test]
    fn summary_matches_matrix_sweep_and_repeats_are_served_from_cache() {
        let matrix = MatrixSpec {
            scenarios: vec![ScenarioSpec::new("svc-exec", 1, "helsinki")],
            seed_start: 3,
            seeds: 2,
        };
        let cache = ResultCache::new();
        let (first, c1) = execute_counting(&matrix, &cache);
        let reference = run_matrix_sweep(&matrix, 1)
            .expect("valid")
            .invariant_json()
            .expect("serializes");
        // The artifact carries the CLI's trailing newline.
        assert_eq!(first.summary_json, format!("{reference}\n"));
        assert_eq!(c1, (2, 0), "(simulated, cached)");
        // The representative trace artifacts are populated.
        assert!(first.trace_jsonl.contains("frostlab-trace/v1"));
        assert!(first.perfetto_json.contains("traceEvents"));
        // No observed scenarios ⇒ no alerts artifact.
        assert!(first.alerts_json.is_none());

        // Second pass: the representative re-runs for its trace but still
        // counts as cached; the other campaign is a pure hit. Same bytes.
        let (second, c2) = execute_counting(&matrix, &cache);
        assert_eq!(c2, (0, 2), "(simulated, cached)");
        assert_eq!(first.summary_json, second.summary_json);
        assert_eq!(first.trace_jsonl, second.trace_jsonl);
        assert_eq!(first.perfetto_json, second.perfetto_json);
        assert_eq!(cache.len(), 2);
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
        let a = execute_matrix(&matrix, &ResultCache::new(), &|_| {}).expect("runs");
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
