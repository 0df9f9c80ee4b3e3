//! Psychrometrics: the moist-air relations the paper's §5 discussion leans on.
//!
//! The central question the authors raise is *"can water condense in the
//! hardware?"* — condensation occurs when a surface is colder than the dew
//! point of the surrounding air. This module provides saturation vapor
//! pressure (Magnus form, with a separate branch over ice for sub-zero
//! temperatures), dew point, relative-humidity conversions, absolute
//! humidity, and a condensation-risk predicate used by the thermal and
//! analysis layers.
//!
//! Conventions: temperatures in °C, pressures in hPa, relative humidity in
//! percent (0–100), absolute humidity in g/m³.

use crate::math::clamp;

/// Magnus coefficients over liquid water (Alduchov & Eskridge 1996).
const MAGNUS_WATER: (f64, f64, f64) = (6.1094, 17.625, 243.04);
/// Magnus coefficients over ice.
const MAGNUS_ICE: (f64, f64, f64) = (6.1121, 22.587, 273.86);

/// Saturation vapor pressure in hPa at temperature `t_c` (°C).
///
/// Uses the over-water branch above 0 °C and the over-ice branch below, which
/// matters in this study: at −20 °C the two differ by ~20 %.
///
/// The Magnus exponential runs on [`crate::fastmath::exp`] (relative error
/// ≤ 1e-11): this function sits on the weather generator's per-sample hot
/// path and on the tent/condensation paths of every tick.
pub fn saturation_vapor_pressure_hpa(t_c: f64) -> f64 {
    let (a, b, c) = if t_c >= 0.0 { MAGNUS_WATER } else { MAGNUS_ICE };
    a * crate::fastmath::exp((b * t_c) / (c + t_c))
}

/// Actual vapor pressure in hPa given temperature and relative humidity.
pub fn vapor_pressure_hpa(t_c: f64, rh_pct: f64) -> f64 {
    saturation_vapor_pressure_hpa(t_c) * clamp(rh_pct, 0.0, 100.0) / 100.0
}

/// Dew point in °C given temperature and relative humidity.
///
/// Inverts the Magnus formula on the over-water branch when the result is
/// ≥ 0 °C and the over-ice branch otherwise (strictly this is then a frost
/// point, which is the quantity of interest for frost formation on cases).
pub fn dew_point_c(t_c: f64, rh_pct: f64) -> f64 {
    let rh = clamp(rh_pct, 0.1, 100.0);
    let e = vapor_pressure_hpa(t_c, rh);
    // Try water branch first.
    let inv = |coef: (f64, f64, f64)| {
        let (a, b, c) = coef;
        let ln = crate::fastmath::ln(e / a);
        c * ln / (b - ln)
    };
    let dp_water = inv(MAGNUS_WATER);
    if dp_water >= 0.0 {
        dp_water
    } else {
        inv(MAGNUS_ICE)
    }
}

/// `ln(a_water / a_ice)`: re-bases a Magnus log term from one branch's `a`
/// to the other's without a second logarithm.
const LN_A_WATER_OVER_ICE: f64 = -4.418_442_979_873_290_3e-4;

/// [`dew_point_c`] with the vapor-pressure round trip fused into log space:
/// `ln(e/a_dst) = ln(rh/100) + ln(a_src/a_dst) + b·t/(c+t)`, so the whole
/// inversion costs a single logarithm instead of an exponential plus up to
/// two logarithms. The branch choice matches [`dew_point_c`] (water when
/// the water-branch dew point lands ≥ 0 °C, ice otherwise): the water dew
/// point has the sign of its log term, so no trial inversion is needed.
/// Agrees with [`dew_point_c`] to ~1e-11 K away from the 0 °C branch
/// boundary; the weather kernel's skeleton build calls this per tick.
pub fn dew_point_fast_c(t_c: f64, rh_pct: f64) -> f64 {
    let rh = clamp(rh_pct, 0.1, 100.0);
    let (_, b_src, c_src) = if t_c >= 0.0 { MAGNUS_WATER } else { MAGNUS_ICE };
    let g_src = crate::fastmath::ln(rh / 100.0) + (b_src * t_c) / (c_src + t_c);
    let g_water = if t_c >= 0.0 {
        g_src
    } else {
        g_src - LN_A_WATER_OVER_ICE
    };
    if g_water >= 0.0 {
        let (_, b, c) = MAGNUS_WATER;
        c * g_water / (b - g_water)
    } else {
        let g_ice = if t_c >= 0.0 {
            g_src + LN_A_WATER_OVER_ICE
        } else {
            g_src
        };
        let (_, b, c) = MAGNUS_ICE;
        c * g_ice / (b - g_ice)
    }
}

/// Relative humidity (%) of air with dew point `dp_c` at temperature `t_c`.
///
/// The ratio of the two Magnus exponentials is taken inside a single
/// [`crate::fastmath::exp`] (the weather generator calls this per tick):
/// `100·(a₁/a₂)·exp(b₁·dp/(c₁+dp) − b₂·t/(c₂+t))`, with each branch's
/// coefficients picked by the sign of its own temperature as in
/// [`saturation_vapor_pressure_hpa`].
pub fn rel_humidity_from_dew_point(t_c: f64, dp_c: f64) -> f64 {
    let (a1, b1, c1) = if dp_c >= 0.0 {
        MAGNUS_WATER
    } else {
        MAGNUS_ICE
    };
    let (a2, b2, c2) = if t_c >= 0.0 { MAGNUS_WATER } else { MAGNUS_ICE };
    let ratio =
        (a1 / a2) * crate::fastmath::exp((b1 * dp_c) / (c1 + dp_c) - (b2 * t_c) / (c2 + t_c));
    clamp(100.0 * ratio, 0.0, 100.0)
}

/// Absolute humidity in g/m³ (mass of water vapor per volume of moist air).
///
/// Ideal-gas form: `AH = e / (R_v · T)` with `R_v` = 461.5 J/(kg·K).
pub fn absolute_humidity_g_m3(t_c: f64, rh_pct: f64) -> f64 {
    let e_pa = vapor_pressure_hpa(t_c, rh_pct) * 100.0;
    let t_k = t_c + 273.15;
    e_pa / (461.5 * t_k) * 1000.0
}

/// Relative humidity of an air parcel after it is heated from `t_out` to
/// `t_in` at constant moisture content (the tent/case situation: outside air
/// is drawn in and warmed by the equipment, which *lowers* its RH).
pub fn rh_after_heating(t_out_c: f64, rh_out_pct: f64, t_in_c: f64) -> f64 {
    let e = vapor_pressure_hpa(t_out_c, rh_out_pct);
    clamp(
        100.0 * e / saturation_vapor_pressure_hpa(t_in_c),
        0.0,
        100.0,
    )
}

/// Outcome of a condensation-risk assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CondensationRisk {
    /// Dew point of the ambient air, °C.
    pub dew_point_c: f64,
    /// Margin between the surface temperature and the dew point, K.
    /// Negative ⇒ condensation forms.
    pub margin_k: f64,
    /// True if condensation (or frost, below 0 °C) would form.
    pub condenses: bool,
}

/// Assess condensation risk on a surface at `surface_c` exposed to air at
/// `air_c` with relative humidity `rh_pct`.
///
/// The paper's argument is that server cases stay *warmer* than the ambient
/// air because of their internal power draw, so the margin is positive and
/// condensation is unlikely; the dangerous scenario is a rapid warm-humid
/// front arriving while the equipment is still cold (e.g. powered off).
pub fn condensation_risk(air_c: f64, rh_pct: f64, surface_c: f64) -> CondensationRisk {
    let dp = dew_point_c(air_c, rh_pct);
    let margin = surface_c - dp;
    CondensationRisk {
        dew_point_c: dp,
        margin_k: margin,
        condenses: margin < 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_pressure_reference_points() {
        // Classic reference values (hPa).
        assert!((saturation_vapor_pressure_hpa(0.0) - 6.11).abs() < 0.05);
        assert!((saturation_vapor_pressure_hpa(20.0) - 23.4).abs() < 0.3);
        assert!((saturation_vapor_pressure_hpa(-20.0) - 1.03).abs() < 0.05);
        assert!((saturation_vapor_pressure_hpa(100.0) - 1013.0).abs() < 30.0);
    }

    #[test]
    fn saturation_pressure_monotone_in_temperature() {
        let mut prev = saturation_vapor_pressure_hpa(-40.0);
        let mut t = -40.0;
        while t < 40.0 {
            t += 0.5;
            let e = saturation_vapor_pressure_hpa(t);
            assert!(e > prev, "not monotone at {t}");
            prev = e;
        }
    }

    #[test]
    fn dew_point_at_saturation_equals_temperature() {
        for t in [-25.0, -10.0, 0.0, 5.0, 20.0] {
            let dp = dew_point_c(t, 100.0);
            assert!((dp - t).abs() < 0.25, "t={t} dp={dp}");
        }
    }

    #[test]
    fn dew_point_below_temperature_when_unsaturated() {
        for t in [-20.0, -5.0, 10.0, 25.0] {
            for rh in [20.0, 50.0, 80.0, 99.0] {
                assert!(dew_point_c(t, rh) <= t + 0.25, "t={t} rh={rh}");
            }
        }
    }

    #[test]
    fn rh_dew_point_roundtrip() {
        for t in [-15.0, 0.0, 18.0] {
            for rh in [30.0, 60.0, 90.0] {
                let dp = dew_point_c(t, rh);
                let rh2 = rel_humidity_from_dew_point(t, dp);
                assert!((rh2 - rh).abs() < 1.5, "t={t} rh={rh} roundtrip {rh2}");
            }
        }
    }

    #[test]
    fn absolute_humidity_reference() {
        // Saturated air at 20 °C holds ≈ 17.3 g/m³.
        let ah = absolute_humidity_g_m3(20.0, 100.0);
        assert!((ah - 17.3).abs() < 0.5, "{ah}");
        // At −20 °C it is tiny, ≈ 0.9 g/m³ (over ice).
        let ah_cold = absolute_humidity_g_m3(-20.0, 100.0);
        assert!((0.5..1.4).contains(&ah_cold), "{ah_cold}");
    }

    #[test]
    fn heating_lowers_rh() {
        // Outside −10 °C, RH 90 %; warmed to +5 °C inside a case.
        let rh_in = rh_after_heating(-10.0, 90.0, 5.0);
        assert!(rh_in < 40.0, "{rh_in}");
        // Heating never increases RH.
        for t_out in [-20.0, -5.0, 5.0] {
            for dt in [1.0, 5.0, 15.0] {
                assert!(rh_after_heating(t_out, 85.0, t_out + dt) <= 85.0);
            }
        }
    }

    #[test]
    fn condensation_on_cold_surface() {
        // Warm humid front (+4 °C, 95 % RH) meets a case still at −10 °C.
        let risk = condensation_risk(4.0, 95.0, -10.0);
        assert!(risk.condenses);
        assert!(risk.margin_k < 0.0);
        // Normal operation: case warmer than ambient → safe.
        let safe = condensation_risk(-10.0, 90.0, 2.0);
        assert!(!safe.condenses);
        assert!(safe.margin_k > 5.0);
    }

    #[test]
    fn saturation_pressure_tracks_std_exp_reference() {
        // The fast-exp Magnus must stay within 1e-10 relative of the same
        // formula over `std::f64::exp`, across every temperature the model
        // can produce.
        let mut t = -60.0;
        while t <= 60.0 {
            let (a, b, c) = if t >= 0.0 { MAGNUS_WATER } else { MAGNUS_ICE };
            let want = a * ((b * t) / (c + t)).exp();
            let got = saturation_vapor_pressure_hpa(t);
            assert!(
                ((got - want) / want).abs() < 1e-10,
                "t={t}: {got} vs {want}"
            );
            t += 0.01;
        }
    }

    #[test]
    fn dew_point_fast_matches_dew_point() {
        // The fused log-space inversion must agree with the two-step
        // exp-then-ln form everywhere the model samples. Near the 0 °C
        // branch boundary the two may legitimately pick different Magnus
        // branches (a ~5 mK discontinuity both share), so allow that zone.
        let mut t = -40.0;
        while t <= 30.0 {
            let mut rh = 5.0;
            while rh <= 100.0 {
                let fast = dew_point_fast_c(t, rh);
                let slow = dew_point_c(t, rh);
                assert!(
                    (fast - slow).abs() < 1e-9 || slow.abs() < 0.01,
                    "t={t} rh={rh}: {fast} vs {slow}"
                );
                rh += 0.5;
            }
            t += 0.25;
        }
    }

    #[test]
    fn rh_clamped() {
        assert_eq!(rel_humidity_from_dew_point(-5.0, 10.0), 100.0);
        assert!(vapor_pressure_hpa(10.0, 150.0) <= saturation_vapor_pressure_hpa(10.0) + 1e-9);
    }
}
