//! The tracing layer's two contracts, enforced end to end:
//!
//! 1. **Observation is free of side effects** — a traced campaign
//!    produces exactly the results of an untraced one (the tracer draws
//!    no randomness, so the golden hashes never move).
//! 2. **Exports are deterministic** — every byte of JSONL, Chrome
//!    trace-event JSON and Prometheus text is a pure function of the
//!    config, identical across repeated runs and (for ensemble metric
//!    reports) across worker-thread counts.
//!
//! The `trace-determinism` CI job re-checks the same properties on the
//! built binaries; this test keeps them enforced by plain `cargo test`.

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::ScenarioBuilder;
use frostlab::ensemble::sweep;
use frostlab::trace::export::{to_chrome_trace, to_jsonl, to_prometheus};
use frostlab::trace::TraceConfig;

fn traced_exports(seed: u64, days: i64) -> (String, String, String) {
    let results = ScenarioBuilder::paper(ExperimentConfig::short(seed, days))
        .with_tracing(TraceConfig::default())
        .build()
        .run();
    let trace = results
        .trace
        .as_ref()
        .expect("with_tracing arms the tracer");
    (
        to_jsonl(trace).expect("trace serializes"),
        to_chrome_trace(trace).expect("trace serializes"),
        to_prometheus(&trace.metrics),
    )
}

#[test]
fn tracing_does_not_perturb_the_campaign() {
    let cfg = ExperimentConfig::short(11, 5);
    let plain = ScenarioBuilder::paper(cfg.clone()).build().run();
    let traced = ScenarioBuilder::paper(cfg)
        .with_tracing(TraceConfig::default())
        .build()
        .run();

    assert_eq!(plain.workload.total_runs(), traced.workload.total_runs());
    assert_eq!(
        plain.workload.hash_errors().len(),
        traced.workload.hash_errors().len()
    );
    assert_eq!(plain.tent_energy_true_kwh, traced.tent_energy_true_kwh);
    assert_eq!(
        plain.tent_temp_truth.points(),
        traced.tent_temp_truth.points()
    );
    assert_eq!(plain.incidents.len(), traced.incidents.len());
    assert!(plain.trace.is_none(), "untraced runs carry no trace");
    assert!(traced.trace.is_some());
}

#[test]
fn repeated_traced_runs_export_identical_bytes() {
    let (jsonl_a, chrome_a, prom_a) = traced_exports(42, 4);
    let (jsonl_b, chrome_b, prom_b) = traced_exports(42, 4);
    assert_eq!(jsonl_a, jsonl_b, "JSONL export is not reproducible");
    assert_eq!(
        chrome_a, chrome_b,
        "Chrome trace export is not reproducible"
    );
    assert_eq!(prom_a, prom_b, "Prometheus export is not reproducible");

    // And a different seed genuinely changes the story. (In a short
    // window the *events* — phase steps, scheduled collections — are
    // pure schedule, so the seed shows up in the sampled weather
    // gauges, not the span log.)
    let (_, _, prom_c) = traced_exports(43, 4);
    assert_ne!(prom_a, prom_c, "seed is not reaching the metrics");
}

#[test]
fn ensemble_metrics_report_is_thread_count_invariant() {
    let traced = |seed: u64| {
        ScenarioBuilder::paper(ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(seed, 3)
        })
        .with_tracing(TraceConfig::metrics_only())
        .build()
    };
    let metrics = |threads: usize| sweep(7, 4, threads, traced).metrics.expect("traced sweep");
    let (serial, parallel) = (metrics(1), metrics(4));
    assert_eq!(
        serial.to_json().expect("report serializes"),
        parallel.to_json().expect("report serializes"),
        "metrics report differs between 1 and 4 worker threads"
    );
    assert_eq!(serial.campaigns, 4);
    assert_eq!(serial.seed_start, 7);
}
