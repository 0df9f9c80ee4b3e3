//! Canned ensemble studies rendered to strings.
//!
//! Examples print these; the determinism tests assert two renders (at
//! different thread counts) are byte-identical — which is exactly the
//! bug the old `examples/monte_carlo_failures.rs` had: workers pushed
//! into one contended `Mutex<Vec<_>>` in completion order, so output
//! ordering depended on the scheduler until a post-hoc sort rescued it.
//! The engine merges in seed order by construction, so nothing here
//! sorts.

use std::fmt::Write as _;

use frostlab_analysis::report::{pct, Table};
use frostlab_analysis::stats::{wilson_interval, Welford};
use frostlab_core::config::ExperimentConfig;
use frostlab_core::ScenarioBuilder;

use crate::engine::Ensemble;

/// One campaign of the Monte-Carlo failure study, projected down to the
/// handful of numbers the report needs.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloRow {
    /// Campaign seed.
    pub seed: u64,
    /// Tent hosts with ≥1 transient failure.
    pub tent_failed: u64,
    /// Control hosts with ≥1 transient failure.
    pub control_failed: u64,
    /// Wrong md5sums this campaign produced.
    pub wrong_hashes: u64,
    /// Synthetic-load runs executed.
    pub runs: u64,
}

/// Run the Monte-Carlo failure study — `campaigns` stochastic winters on
/// `threads` workers (0 = all cores) — and render the report. The string
/// is byte-identical for any thread count.
pub fn monte_carlo_report<C>(campaigns: u64, threads: usize, make_config: C) -> String
where
    C: Fn(u64) -> ExperimentConfig + Sync,
{
    const DETAIL_ROWS: usize = 10;
    let mut tent = Welford::new();
    let mut control = Welford::new();
    let mut hashes = Welford::new();
    let mut like_paper = 0u64;
    let mut any_tent_failure = 0u64;
    let mut detail: Vec<MonteCarloRow> = Vec::with_capacity(DETAIL_ROWS);

    Ensemble::new(campaigns).threads(threads).run_scenarios(
        |i| ScenarioBuilder::paper(make_config(i)).build(),
        |r| {
            let cmp = r.failure_comparison();
            MonteCarloRow {
                seed: r.seed,
                tent_failed: cmp.outside.failed_hosts,
                control_failed: cmp.control.failed_hosts,
                wrong_hashes: r.workload.hash_errors().len() as u64,
                runs: r.workload.total_runs(),
            }
        },
        |_, row: MonteCarloRow| {
            tent.push(row.tent_failed as f64);
            control.push(row.control_failed as f64);
            hashes.push(row.wrong_hashes as f64);
            if row.tent_failed <= 1 && row.control_failed == 0 {
                like_paper += 1;
            }
            if row.tent_failed > 0 {
                any_tent_failure += 1;
            }
            if detail.len() < DETAIL_ROWS {
                detail.push(row);
            }
        },
    );

    let n = campaigns.max(1) as f64;
    let mut t = Table::new("stochastic-winter outcomes", &["metric", "value"]);
    t.row(&["campaigns".into(), campaigns.to_string()]);
    t.row(&[
        "mean failed hosts (tent, of 9)".into(),
        format!("{:.2}", tent.mean().unwrap_or(0.0)),
    ]);
    t.row(&[
        "mean failed hosts (control, of 9)".into(),
        format!("{:.2}", control.mean().unwrap_or(0.0)),
    ]);
    t.row(&[
        "mean wrong hashes per campaign".into(),
        format!("{:.2}", hashes.mean().unwrap_or(0.0)),
    ]);
    t.row(&[
        "campaigns ≤ 1 tent failure, clean control (like the paper)".into(),
        format!("{} ({})", like_paper, pct(like_paper as f64 / n)),
    ]);
    t.row(&[
        "campaigns with ≥ 1 tent failure".into(),
        format!(
            "{} ({})",
            any_tent_failure,
            pct(any_tent_failure as f64 / n)
        ),
    ]);
    let (lo, hi) = wilson_interval(any_tent_failure, campaigns);
    t.row(&[
        "P(tent failure) 95 % Wilson".into(),
        format!("[{}, {}]", pct(lo), pct(hi)),
    ]);

    let mut out = String::new();
    let _ = writeln!(out, "{t}");
    let _ = writeln!(out, "per-campaign detail (first {DETAIL_ROWS}):");
    for row in &detail {
        let _ = writeln!(
            out,
            "  seed {:>3}: tent hosts failed {}, control {}, wrong hashes {}, runs {}",
            row.seed, row.tent_failed, row.control_failed, row.wrong_hashes, row.runs
        );
    }
    out
}
