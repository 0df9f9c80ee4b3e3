//! The one [`ResultStore`] contract, run through [`run_cached`] against
//! both backends: the farm's on-disk `DirStore` and `frostlabd`'s
//! in-memory `ResultCache`.

use std::fmt::Debug;

use frostlab::core::{JobSpec, ScenarioSpec};
use frostlab::ensemble::{run_cached, run_job, JobError, JobResult, ResultStore};
use frostlab::farm::DirStore;
use frostlab::service::ResultCache;

fn job(name: &str, observe: bool, poison: bool) -> JobSpec {
    let mut scenario = ScenarioSpec::new(name, 1, "helsinki");
    scenario.observe = observe;
    scenario.poison = poison;
    JobSpec { scenario, seed: 4 }
}

fn json(result: &JobResult) -> String {
    serde_json::to_string(result).expect("serializes")
}

/// The contract. `plant` writes a raw file into the store's directory;
/// the in-memory backend keeps no bytes to damage and passes a no-op.
fn store_contract<S>(store: &S, plant: &dyn Fn(&str, &str))
where
    S: ResultStore + Sync,
    S::Error: Debug,
{
    let run = |job: &JobSpec, traced| {
        let key = job.key().expect("key");
        run_cached(store, &key, job, traced).expect("store ok")
    };
    let stored = |job: &JobSpec| store.get(&job.key().expect("key")).map(|r| json(&r));

    // A failed campaign is never stored.
    let poison = job("contract-poison", false, true);
    let err = run(&poison, false).expect_err("poison detonates");
    assert!(matches!(err, JobError::Panic(_)), "{err:?}");
    assert_eq!(stored(&poison), None);

    // A miss simulates and stores (`alerts: None` round-trips); a hit
    // serves the stored result; a traced hit simulates for its trace
    // but is still a hit.
    let plain = job("contract", false, false);
    assert_eq!(stored(&plain), None, "missing key reads as absent");
    let (miss, cached) = run(&plain, false).expect("runs");
    assert!(!cached && miss.trace.is_none() && miss.result.alerts.is_none());
    assert_eq!(stored(&plain), Some(json(&miss.result)));
    let (hit, cached) = run(&plain, false).expect("runs");
    assert!(cached && hit.trace.is_none());
    assert_eq!(json(&hit.result), json(&miss.result));
    let (traced, cached) = run(&plain, true).expect("runs");
    assert!(cached && traced.trace.is_some());
    assert_eq!(json(&traced.result), json(&miss.result));

    // `alerts: Some` round-trips.
    let observed = run_job(&job("contract-obs", true, false), false)
        .expect("runs")
        .result;
    assert!(observed.alerts.is_some());
    store.put("observed", &observed).expect("put");
    assert_eq!(
        json(&store.get("observed").expect("stored")),
        json(&observed)
    );

    // Garbage and a bare `CampaignSummary` (the older summary-plus-sidecar
    // layout) read as absent.
    plant("garbage.json", "{half a rec");
    plant("bare.json", &miss.result.summary.to_json().expect("json"));
    for absent in ["garbage", "bare"] {
        assert!(store.get(absent).is_none(), "{absent} must read as absent");
    }

    // A temp file a crashed writer left for a job's key is never served:
    // the key reads as absent, the job simulates, and the entry it stores
    // is the fresh result, not the planted one.
    let crashed = job("contract-crashed", false, false);
    plant(
        &format!(".tmp-1-0-{}", crashed.key().expect("key")),
        &json(&observed),
    );
    assert_eq!(stored(&crashed), None, "temp file read as an entry");
    let (fresh, cached) = run(&crashed, false).expect("runs");
    assert!(!cached);
    assert_eq!(stored(&crashed), Some(json(&fresh.result)));

    // Two threads putting one key at once leave one intact entry.
    let start = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        for result in [&miss.result, &observed] {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for _ in 0..200 {
                    store.put("race", result).expect("put");
                }
            });
        }
    });
    let raced = json(&store.get("race").expect("intact entry"));
    assert!(raced == json(&miss.result) || raced == json(&observed));
}

#[test]
fn in_memory_cache_honours_the_store_contract() {
    let cache = ResultCache::new();
    store_contract(&cache, &|_, _| {});
    assert_eq!(cache.len(), 4, "contract, observed, crashed, race");
}

#[test]
fn directory_store_honours_the_store_contract() {
    let dir = std::env::temp_dir().join(format!("frostlab-store-contract-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = DirStore::open(&dir).expect("open");
    let plant = |name: &str, text: &str| std::fs::write(dir.join(name), text).expect("plant");
    store_contract(&store, &plant);

    // Four stored keys plus the three planted files: no poison entry,
    // and no temp file left behind by the racing writers.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(files.len(), 7, "{files:?}");
    std::fs::remove_dir_all(&dir).ok();
}
