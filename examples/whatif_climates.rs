//! "We have shown that Intel's results from New Mexico and HP's from North
//! East England can be extended to most parts of the globe" — so run the
//! whole tent experiment in those other climates and see.
//!
//! Same fleet, same tent, same workload; only the atmosphere changes. The
//! three campaigns fan out over the ensemble engine (one job per climate)
//! and the rows land in climate order whatever the scheduler does.
//!
//! ```sh
//! cargo run --release --example whatif_climates [seed]
//! ```

use frostlab::analysis::report::Table;
use frostlab::climate::presets;
use frostlab::climate::weather::ClimateParams;
use frostlab::core::config::{ExperimentConfig, FaultMode};
use frostlab::core::ScenarioBuilder;
use frostlab::ensemble::Ensemble;
use frostlab::faults::types::FaultKind;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("what-if climates — the tent experiment relocated, seed {seed}\n");

    let climates: [ClimateParams; 3] = [
        presets::helsinki_winter_2010(),
        presets::north_east_england(),
        presets::new_mexico(),
    ];

    let mut t = Table::new(
        "the same campaign (Feb 12 – May 13) in three climates, stochastic faults",
        &[
            "climate",
            "outside min/mean °C",
            "tent mean °C",
            "min CPU °C",
            "hangs",
            "wrong hashes",
            "energy kWh",
        ],
    );

    Ensemble::new(climates.len() as u64).run_scenarios(
        |i| {
            ScenarioBuilder::paper(ExperimentConfig {
                climate: climates[i as usize].clone(),
                fault_mode: FaultMode::Stochastic,
                ..ExperimentConfig::paper_stochastic(seed)
            })
            .build()
        },
        |r| {
            let out_min = r
                .outside
                .iter()
                .map(|o| o.temp_c)
                .fold(f64::INFINITY, f64::min);
            let out_mean =
                r.outside.iter().map(|o| o.temp_c).sum::<f64>() / r.outside.len().max(1) as f64;
            let hangs = r
                .fault_events
                .iter()
                .filter(|e| e.kind == FaultKind::TransientSystemFailure)
                .count();
            [
                format!("{out_min:.0} / {out_mean:.0}"),
                format!("{:.1}", r.tent_temp_truth.mean().unwrap_or(f64::NAN)),
                format!("{:.1}", r.fleet_min_cpu_c()),
                hangs.to_string(),
                r.workload.hash_errors().len().to_string(),
                format!("{:.0}", r.tent_energy_true_kwh),
            ]
        },
        |i, cells| {
            let mut row = vec![climates[i as usize].name.to_string()];
            row.extend(cells);
            t.row(&row);
        },
    );
    println!("{t}");
    println!("reading: the campaign completes everywhere — the experiment's machinery");
    println!("(shelter, monitoring, verification) is climate-independent; what changes is");
    println!("the thermal margin. Finland is the *hard* case for cold tolerance and the");
    println!("easy case for free cooling; New Mexico flips both, exactly the paper's");
    println!("framing of Intel's site.");
}
