//! Cross-crate pipeline tests below campaign scale: the workload forensic
//! chain and the weather→tent→psychrometrics consistency loop.

use frostlab::climate::presets;
use frostlab::climate::psychro;
use frostlab::climate::weather::WeatherModel;
use frostlab::compress::md5::md5_hex;
use frostlab::compress::recover::recover;
use frostlab::simkern::rng::Rng;
use frostlab::simkern::time::{SimDuration, SimTime};
use frostlab::thermal::enclosure::Enclosure;
use frostlab::thermal::tent::{Tent, TentConfig, TentParams};
use frostlab::workload::job::{JobConfig, JobRunner};

#[test]
fn forensic_chain_job_to_recover() {
    let mut job = JobRunner::new(JobConfig::default(), &Rng::new(99));
    let golden = job.golden_hash().to_string();

    // 100 clean runs: hash always matches, nothing stored.
    for _ in 0..100 {
        let o = job.run(0);
        assert!(o.hash_ok);
        assert_eq!(o.hash, golden);
    }

    // One corrupted run: wrong hash, stored archive, ≤ 1 bad block.
    let o = job.run(1);
    assert!(!o.hash_ok);
    let archive = o.stored_archive.expect("stored on mismatch");
    assert_eq!(
        md5_hex(&archive),
        o.hash,
        "stored bytes hash to the reported value"
    );
    let report = recover(&archive);
    assert!(report.corrupted_count() <= 1);
    assert!(report.total_blocks() > 300);
}

#[test]
fn weather_tent_psychrometrics_consistency() {
    // Over a simulated week: the tent's RH must equal (within the low-pass
    // filter's tolerance) the outside absolute moisture referred to the
    // tent temperature — i.e. the enclosure must not create or destroy
    // water vapor.
    let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 11);
    let first = wx.sample_at(SimTime::from_date(2010, 2, 20));
    let mut tent = Tent::new(TentParams::default(), TentConfig::initial(), &first);
    let mut t = SimTime::from_date(2010, 2, 20);
    let end = t + SimDuration::days(7);
    let mut worst_gap = 0.0f64;
    while t <= end {
        let w = wx.sample_at(t);
        tent.step(60.0, &w, 1000.0);
        let s = tent.state();
        let expected_rh = psychro::rh_after_heating(w.temp_c, w.rh_pct, s.air_temp_c);
        worst_gap = worst_gap.max((s.air_rh_pct - expected_rh).abs());
        t += SimDuration::minutes(1);
    }
    // The low-pass filter lags fast outside swings; 20 points of RH is the
    // generous bound, typical gaps are much smaller.
    assert!(
        worst_gap < 20.0,
        "tent RH diverged from psychrometrics by {worst_gap}"
    );
}

#[test]
fn tent_modifications_cool_a_simulated_cold_week() {
    // Drive both tent configurations through the same week of weather and
    // verify the fully modified tent runs colder on average — Fig. 3's
    // whole story in one assertion.
    let run = |config: TentConfig| {
        let mut wx = WeatherModel::new(presets::helsinki_winter_2010(), 13);
        let first = wx.sample_at(SimTime::from_date(2010, 2, 20));
        let mut tent = Tent::new(TentParams::default(), config, &first);
        let mut t = SimTime::from_date(2010, 2, 20);
        let end = t + SimDuration::days(7);
        let mut sum = 0.0;
        let mut n = 0u64;
        while t <= end {
            let w = wx.sample_at(t);
            tent.step(60.0, &w, 1000.0);
            sum += tent.state().air_temp_c;
            n += 1;
            t += SimDuration::minutes(1);
        }
        sum / n as f64
    };
    let initial = run(TentConfig::initial());
    let modified = run(TentConfig::fully_modified());
    assert!(
        initial - modified > 8.0,
        "modifications should cool the tent substantially: {initial:.1} → {modified:.1}"
    );
}
