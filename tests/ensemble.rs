//! Integration tests for the deterministic parallel ensemble engine:
//! thread-count invariance of real campaign sweeps, and the scheduling
//! bug the old Monte-Carlo example had (output order depending on which
//! worker finished first) staying fixed.

use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::Scenario;
use frostlab::core::ScenarioBuilder;
use frostlab::ensemble::report::monte_carlo_report;
use frostlab::ensemble::{sweep, CampaignAggregate, Ensemble};

/// A cheap stochastic campaign for test sweeps: 2 simulated days.
fn short_stochastic(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        fault_mode: FaultMode::Stochastic,
        ..ExperimentConfig::short(seed, 2)
    }
}

fn short_stochastic_scenario(seed: u64) -> Scenario {
    ScenarioBuilder::paper(short_stochastic(seed)).build()
}

#[test]
fn summary_sweep_is_thread_count_invariant() {
    let serial = sweep(0, 6, 1, short_stochastic_scenario).summary;
    let parallel = sweep(0, 6, 4, short_stochastic_scenario).summary;
    assert_eq!(
        serial.invariant_json().unwrap(),
        parallel.invariant_json().unwrap(),
        "1-thread and 4-thread sweeps must serialize byte-identically"
    );
    assert_eq!(serial.campaigns, 6);
    // The executed thread counts (masked out of the invariant form) are
    // the only thing allowed to differ.
    assert_eq!(serial.threads_used, 1);
    assert_eq!(parallel.threads_used, 4);
}

#[test]
fn sweep_matches_hand_rolled_serial_loop() {
    let report = sweep(3, 4, 2, short_stochastic_scenario);
    assert!(report.metrics.is_none() && report.alerts.is_none());
    let mut agg = CampaignAggregate::new();
    for seed in 3..7 {
        agg.absorb(
            &ScenarioBuilder::paper(short_stochastic(seed))
                .build()
                .run()
                .summary(),
        );
    }
    assert_eq!(
        report.summary.invariant_json().unwrap(),
        agg.finish(3, 2).invariant_json().unwrap()
    );
}

#[test]
fn monte_carlo_report_prints_identically_across_runs_and_threads() {
    // The pre-engine example pushed rows into a Mutex<Vec<_>> in
    // completion order; two runs could print different orderings. The
    // engine merges in seed order, so every render must be identical.
    let a = monte_carlo_report(5, 4, short_stochastic);
    let b = monte_carlo_report(5, 4, short_stochastic);
    let serial = monte_carlo_report(5, 1, short_stochastic);
    assert_eq!(a, b, "two parallel runs must print identically");
    assert_eq!(a, serial, "parallel and serial runs must print identically");
    assert!(a.contains("per-campaign detail"));
    // Detail rows appear in seed order.
    let positions: Vec<usize> = (0..5)
        .map(|s| a.find(&format!("seed   {s}:")).expect("row present"))
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "rows sorted by seed"
    );
}

#[test]
fn experiment_sweep_reports_progress_in_order() {
    let seen = std::cell::RefCell::new(Vec::new());
    let mut seeds = Vec::new();
    Ensemble::new(4)
        .threads(2)
        .on_progress(|done, total| seen.borrow_mut().push((done, total)))
        .run_scenarios(
            short_stochastic_scenario,
            |r| r.seed,
            |_, seed| seeds.push(seed),
        );
    assert_eq!(
        seen.into_inner(),
        (1..=4).map(|d| (d, 4)).collect::<Vec<_>>()
    );
    assert_eq!(seeds, vec![0, 1, 2, 3]);
}
