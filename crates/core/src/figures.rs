//! Figure reproductions F1–F4.
//!
//! Each function returns printable/plottable data; the `frostlab-bench`
//! binaries print it (CSV for the series figures, text for the rest).

use frostlab_simkern::time::SimTime;
use frostlab_telemetry::export::to_csv;
use frostlab_telemetry::series::TimeSeries;
use frostlab_thermal::tent::TentParams;

use crate::fleet::paper_fleet;
use crate::results::ExperimentResults;
use crate::scripted::tent_mod_marks;

/// F1 — the tent schematic, as parameterized ASCII plus the thermal
/// parameters the model actually uses (the paper's Fig. 1 is a drawing; the
/// reproducible content is the geometry/parameters).
pub fn fig1_tent_schematic(params: &TentParams) -> String {
    format!(
        r#"            Fig. 1 — tent shielding the computer hardware
                      (parameterized reproduction)

                    ~ reflective foil cover (R): absorptance {:.2} -> {:.2}
              ______________________
             /                      \        double fabric (I removes inner):
            /   inner tent (I)       \       UA {:.0} -> {:.0} W/K
           |   .----------------.     |
           |   |  9 machines    |     |  <- front door half-open (+{:.3} m^2)
           |   |  ~1 kW         |     |
           |   '----------------'     |
            \  bottom tarpaulin (B)  /       tarpaulin removed: +{:.3} m^2
             \______________________/        desk fan (F): +{:.3} m^3/s
           ===== elevated terrace floor =====   (cool air path through floor)

  solar area {:.1} m^2 | closed leakage {:.3} m^2 | wind coupling {:.2}
"#,
        params.absorptance_bare,
        params.absorptance_foil,
        params.ua_fabric_double_w_k,
        params.ua_fabric_single_w_k,
        params.vent_area_door_m2,
        params.vent_area_tarpaulin_m2,
        params.fan_flow_m3_s,
        params.solar_area_m2,
        params.vent_area_closed_m2,
        params.wind_coupling,
    )
}

/// One row of the Fig. 2 timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRow {
    /// Host number.
    pub id: u32,
    /// Install time.
    pub at: SimTime,
    /// Row annotation.
    pub note: &'static str,
}

/// F2 — the install timeline (tent hosts, as in the paper's figure).
pub fn fig2_timeline() -> Vec<TimelineRow> {
    let mut rows: Vec<TimelineRow> = paper_fleet()
        .into_iter()
        .filter(|h| h.placement == frostlab_workload::stats::Placement::Tent)
        .map(|h| TimelineRow {
            id: h.id,
            at: h.install_at,
            note: if h.is_replacement {
                "replacement of machine #15"
            } else {
                ""
            },
        })
        .collect();
    rows.sort_by_key(|r| (r.at, r.id));
    rows
}

/// Render F2 as a text gantt: one row per host, '#' from install to the
/// campaign end.
pub fn fig2_render(end: SimTime) -> String {
    let rows = fig2_timeline();
    let start = SimTime::from_date(2010, 2, 12);
    let days_total = (end - start).as_days_f64().ceil() as usize;
    let mut out = String::from("Fig. 2 — dates when servers were installed (tent group)\n\n");
    for r in &rows {
        let offset = (r.at - start).as_days_f64().max(0.0) as usize;
        let mut line = format!("  #{:02} |", r.id);
        for d in 0..days_total.min(120) {
            line.push(if d >= offset { '#' } else { ' ' });
        }
        line.push_str(&format!("| {} {}", r.at.date().short_label(), r.note));
        out.push(' ');
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str("       ^Feb 12 (prototype)   ^Feb 19 start of testing    … one column per day\n");
    out
}

/// F3/F4 payload: the aligned series plus the R/I/B/F marks.
#[derive(Debug, Clone)]
pub struct SeriesFigure {
    /// CSV body (datetime, days, outside, inside).
    pub csv: String,
    /// Letter marks: `(letter, time)`.
    pub marks: Vec<(char, SimTime)>,
    /// Gaps in the inside channel (the Lascar's late arrival).
    pub inside_gaps: Vec<(SimTime, SimTime)>,
    /// Summary line for quick inspection.
    pub summary: String,
}

fn outside_series(
    results: &ExperimentResults,
    f: impl Fn(&frostlab_climate::station::WeatherObservation) -> f64,
) -> TimeSeries {
    TimeSeries::from_points(results.outside.iter().map(|o| (o.t, f(o))))
}

/// F3 — temperatures outside and inside the tent, with event marks.
pub fn fig3_temperature(results: &ExperimentResults) -> SeriesFigure {
    let outside = outside_series(results, |o| o.temp_c);
    let inside = &results.lascar_temp;
    let csv = to_csv(&[("outside_c", &outside), ("inside_c", inside)]);
    let gap_probe = frostlab_simkern::time::SimDuration::hours(2);
    // How closely, and how late, does the tent follow the sky? Align the
    // 10-min outside observations with the tent truth channel (same
    // cadence) over the common window and find the best lag within 3 h.
    let tracking = {
        use std::collections::BTreeMap;
        let inside_map: BTreeMap<_, _> = results.tent_temp_truth.points().iter().copied().collect();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &(t, v) in outside.points() {
            if let Some(&iv) = inside_map.get(&t) {
                xs.push(v);
                ys.push(iv);
            }
        }
        frostlab_analysis::correlation::best_lag(&xs, &ys, 18)
    };
    let tracking_str = match tracking {
        Some((lag, r)) => format!(
            " | tent tracks outside with r = {:.2} at a {} min lag",
            r,
            lag * 10
        ),
        None => String::new(),
    };
    let summary = format!(
        "outside: min {:.1} mean {:.1} max {:.1} °C over {} obs | inside (Lascar, cleaned): min {:.1} mean {:.1} max {:.1} °C over {} samples, {} outliers removed{tracking_str}",
        outside.min().unwrap_or(f64::NAN),
        outside.mean().unwrap_or(f64::NAN),
        outside.max().unwrap_or(f64::NAN),
        outside.len(),
        inside.min().unwrap_or(f64::NAN),
        inside.mean().unwrap_or(f64::NAN),
        inside.max().unwrap_or(f64::NAN),
        inside.len(),
        results.lascar_outliers_removed,
    );
    SeriesFigure {
        csv,
        marks: tent_mod_marks(),
        inside_gaps: inside.gaps(gap_probe),
        summary,
    }
}

/// Short-term roughness: mean absolute change per hour of elapsed time —
/// the "how intensely does it vary" measure behind the paper's §4.1 claim
/// that the tent retained *more stable* humidities than outside air.
fn roughness_per_hour(series: &TimeSeries) -> f64 {
    let pts = series.points();
    if pts.len() < 2 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut hours = 0.0;
    for w in pts.windows(2) {
        let dt_h = (w[1].0 - w[0].0).as_hours_f64();
        // Skip across gaps (logger readouts, late start).
        if dt_h <= 1.0 {
            total += (w[1].1 - w[0].1).abs();
            hours += dt_h;
        }
    }
    if hours > 0.0 {
        total / hours
    } else {
        0.0
    }
}

/// F4 — relative humidities inside and outside the tent.
pub fn fig4_humidity(results: &ExperimentResults) -> SeriesFigure {
    let outside = outside_series(results, |o| o.rh_pct);
    let inside = &results.lascar_rh;
    let csv = to_csv(&[("outside_rh", &outside), ("inside_rh", inside)]);
    let gap_probe = frostlab_simkern::time::SimDuration::hours(2);
    // Compare stability over the window where both channels exist.
    let common_from = inside.start().unwrap_or(results.window.0);
    let outside_common = outside.window(common_from, results.window.1);
    let summary = format!(
        "outside RH: mean {:.0} % (sd {:.1}, roughness {:.1} pp/h) | inside RH: mean {:.0} % (sd {:.1}, roughness {:.1} pp/h) — 'more stable' = lower roughness (short-term variation), though the inside mean drifts as the airflow mods land",
        outside_common.mean().unwrap_or(f64::NAN),
        outside_common.std_dev().unwrap_or(f64::NAN),
        roughness_per_hour(&outside_common),
        inside.mean().unwrap_or(f64::NAN),
        inside.std_dev().unwrap_or(f64::NAN),
        roughness_per_hour(inside),
    );
    SeriesFigure {
        csv,
        marks: tent_mod_marks(),
        inside_gaps: inside.gaps(gap_probe),
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use crate::scenario::ScenarioBuilder;

    #[test]
    fn fig1_mentions_all_four_interventions() {
        let s = fig1_tent_schematic(&TentParams::default());
        for mark in ["(R)", "(I)", "(B)", "(F)"] {
            assert!(s.contains(mark), "missing {mark}");
        }
    }

    #[test]
    fn fig2_rows_ordered_and_complete() {
        let rows = fig2_timeline();
        assert_eq!(rows.len(), 10, "nine tent hosts + replacement");
        for w in rows.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert_eq!(rows.last().unwrap().id, 19);
        assert!(rows.last().unwrap().note.contains("replacement"));
        let render = fig2_render(SimTime::from_date(2010, 5, 13));
        assert!(render.contains("#15"));
        assert!(render.contains("Feb 19"));
    }

    #[test]
    fn fig3_and_fig4_from_short_campaign() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(4, 8))
            .build()
            .run();
        let f3 = fig3_temperature(&results);
        assert!(
            f3.csv.lines().count() > 500,
            "csv rows {}",
            f3.csv.lines().count()
        );
        assert_eq!(f3.marks.len(), 4);
        assert!(f3.csv.starts_with("datetime,days,outside_c,inside_c"));
        let f4 = fig4_humidity(&results);
        assert!(f4.csv.contains("outside_rh"));
        assert!(!f4.summary.is_empty());
    }
}
