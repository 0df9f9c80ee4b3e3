//! Power usage effectiveness.
//!
//! `PUE = total facility power / IT power`. The paper's §5 calculation:
//! 75 kW of IT plus 6.9 + 44.7 + 3.8 kW of cooling would give
//! `130.4 / 75 ≈ 1.74` — *if* the new plant carried the whole thermal load.
//! It does not (legacy CRACs help), so the honest number is worse; we model
//! that with [`pue_with_legacy`].

use crate::plant::CoolingPlant;

/// Classic PUE.
///
/// # Panics
/// Panics if `it_kw` is not strictly positive.
pub fn pue(it_kw: f64, overhead_kw: f64) -> f64 {
    assert!(it_kw > 0.0, "PUE undefined without IT load");
    (it_kw + overhead_kw) / it_kw
}

/// The §5 sum: PUE of `it_kw` served by `plant` — the "if we could just sum
/// those figures up" number.
pub fn naive_plant_pue(it_kw: f64, plant: &CoolingPlant) -> f64 {
    pue(it_kw, plant.total_overhead_kw())
}

/// The correction the authors point out: part of the thermal load is
/// carried by pre-existing CRACs whose draw the naive sum ignores.
/// `legacy_fraction` is the share of the heat the legacy plant removes and
/// `legacy_efficiency_kw_per_kw` its electrical cost per kW of heat moved.
pub fn pue_with_legacy(
    it_kw: f64,
    plant: &CoolingPlant,
    legacy_fraction: f64,
    legacy_kw_per_kw: f64,
) -> f64 {
    assert!((0.0..=1.0).contains(&legacy_fraction));
    let legacy_overhead = it_kw * legacy_fraction * legacy_kw_per_kw;
    pue(it_kw, plant.total_overhead_kw() + legacy_overhead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plant::CoolingPlant;

    #[test]
    fn paper_pue_174() {
        let p = CoolingPlant::department_retrofit();
        let v = naive_plant_pue(75.0, &p);
        assert!((v - 1.74).abs() < 0.005, "PUE {v}");
    }

    #[test]
    fn legacy_load_makes_it_worse() {
        let p = CoolingPlant::department_retrofit();
        let naive = naive_plant_pue(75.0, &p);
        let honest = pue_with_legacy(75.0, &p, 0.25, 0.5);
        assert!(honest > naive, "naive {naive}, honest {honest}");
        assert!(honest < 2.2);
    }

    #[test]
    fn pue_identity_cases() {
        assert_eq!(pue(100.0, 0.0), 1.0);
        assert_eq!(pue(50.0, 50.0), 2.0);
    }

    #[test]
    #[should_panic(expected = "undefined")]
    fn zero_it_load_rejected() {
        pue(0.0, 10.0);
    }
}
