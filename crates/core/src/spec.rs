//! Declarative, serializable scenario specs — the job currency of the
//! campaign farm.
//!
//! [`ScenarioSpec`] names a campaign configuration by *value* instead of
//! by code: a climate preset, a window length, the chaos/ECC toggles.
//! Two properties make it the right unit of distributed work:
//!
//! 1. **Serialization** — a spec round-trips through JSON, so a farm can
//!    persist a submitted matrix and a worker in another process can
//!    rebuild the exact [`ExperimentConfig`] the submitter meant.
//! 2. **Content hashing** — [`JobSpec::content_hash`] is a stable FNV-1a
//!    digest of the canonical JSON, so identical jobs collide on purpose:
//!    a result store keyed by the hash serves repeated work from cache
//!    instead of re-simulating it.
//!
//! [`MatrixSpec`] expands a climate × chaos × seed sweep into an ordered
//! job list. The order is part of the contract: scenario-major,
//! seed-minor, exactly the order a single-process ensemble run of the
//! same matrix folds its summaries in — which is what lets a farm's
//! merged output be byte-identical to the in-process run.

use frostlab_climate::presets;
use frostlab_climate::weather::ClimateParams;
use frostlab_faults::chaos::ChaosConfig;

use crate::config::{ExperimentConfig, FaultMode};
use crate::context::CampaignCtx;
use crate::fleet::FleetSpec;
use crate::phases::TickPhase;
use crate::scenario::{Scenario, ScenarioBuilder};

/// A spec that cannot be turned into a runnable campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The named climate preset does not exist.
    UnknownClimate(String),
    /// The campaign window length is out of range.
    InvalidDays(i64),
    /// The fleet is larger than [`MAX_HOSTS`].
    TooManyHosts(u32),
    /// `scenarios × seeds` exceeds [`MAX_MATRIX_JOBS`] (or overflows).
    MatrixTooLarge {
        /// Length of the scenario axis.
        scenarios: usize,
        /// Seeds per scenario.
        seeds: u64,
    },
    /// The seed range starting at this seed runs past `u64::MAX`.
    SeedRangeOverflow(u64),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownClimate(name) => {
                write!(
                    f,
                    "unknown climate preset {name:?} (known: {})",
                    CLIMATE_PRESETS.join(", ")
                )
            }
            SpecError::InvalidDays(d) => {
                write!(
                    f,
                    "invalid campaign length {d} days (want 0 = full, or 1..=366)"
                )
            }
            SpecError::TooManyHosts(n) => {
                write!(f, "fleet of {n} hosts exceeds the {MAX_HOSTS}-host cap")
            }
            SpecError::MatrixTooLarge { scenarios, seeds } => write!(
                f,
                "matrix of {scenarios} scenarios x {seeds} seeds exceeds the \
                 {MAX_MATRIX_JOBS}-campaign cap"
            ),
            SpecError::SeedRangeOverflow(start) => {
                write!(f, "seed range from {start} runs past {}", u64::MAX)
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Largest fleet a spec may ask for: the 10,000-host fleet the scale
/// tests, CI gates and benchmark run.
pub const MAX_HOSTS: u32 = 10_000;

/// Most campaigns one [`MatrixSpec`] may expand to. Far above any matrix
/// the tests, CI gates or benchmark submit (a few dozen), and low enough
/// that expanding an accepted matrix can never exhaust memory.
pub const MAX_MATRIX_JOBS: u64 = 10_000;

/// Climate preset names resolvable by [`climate_preset`].
pub const CLIMATE_PRESETS: [&str; 3] = ["helsinki", "new-mexico", "north-east-england"];

/// Resolve a climate preset by its stable name.
pub fn climate_preset(name: &str) -> Option<ClimateParams> {
    match name {
        "helsinki" => Some(presets::helsinki_winter_2010()),
        "new-mexico" => Some(presets::new_mexico()),
        "north-east-england" => Some(presets::north_east_england()),
        _ => None,
    }
}

/// A campaign described by value: everything needed to rebuild its
/// [`ExperimentConfig`] in another process, and nothing else.
///
/// Field order is the canonical JSON order — changing it changes every
/// content hash, so treat it as part of the on-disk format.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable label (not part of the physics; *is* part of the
    /// content hash, so two differently-named but otherwise identical
    /// scenarios are distinct jobs).
    pub name: String,
    /// Campaign length in days; `0` runs the paper's full Feb 12 – May 13
    /// window.
    pub days: i64,
    /// Climate preset name (see [`CLIMATE_PRESETS`]).
    pub climate: String,
    /// Arm §4.2.1-grade chaos injection ([`ChaosConfig::paper_like`]).
    pub chaos: bool,
    /// Ablation: pretend every DIMM is ECC.
    pub force_ecc: bool,
    /// Test rig: insert a phase that panics mid-campaign — the poison job
    /// the farm's quarantine machinery is exercised with.
    pub poison: bool,
    /// Fleet size: `0` runs the paper's 19 machines; `n > 0` runs a
    /// generated vendor-mix fleet of `n` hosts (see
    /// [`crate::fleet::FleetBuilder::vendor_mix`]). Skipped from the
    /// canonical JSON when zero so every pre-existing spec keeps its
    /// content hash.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub hosts: u32,
    /// Arm the fleet health observatory (rollups, the paper's four SLOs,
    /// flight recorder — [`frostlab_obs::ObsConfig::default`]). Skipped
    /// from the canonical JSON when false so every pre-existing spec
    /// keeps its content hash.
    #[serde(default, skip_serializing_if = "is_false")]
    pub observe: bool,
}

/// `skip_serializing_if` helper: the paper-fleet default stays out of the
/// canonical JSON.
fn is_zero(n: &u32) -> bool {
    *n == 0
}

/// `skip_serializing_if` helper: the observatory-off default stays out of
/// the canonical JSON.
fn is_false(b: &bool) -> bool {
    !*b
}

impl ScenarioSpec {
    /// A stochastic campaign of `days` days under the named climate.
    pub fn new(name: &str, days: i64, climate: &str) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            days,
            climate: climate.to_string(),
            chaos: false,
            force_ecc: false,
            poison: false,
            hosts: 0,
            observe: false,
        }
    }

    /// Validate the spec and build the campaign config for `seed`.
    ///
    /// Specs are always stochastic — a farm sweeps Monte-Carlo variants;
    /// the scripted paper replay stays a single-process concern.
    pub fn to_config(&self, seed: u64) -> Result<ExperimentConfig, SpecError> {
        let climate = climate_preset(&self.climate)
            .ok_or_else(|| SpecError::UnknownClimate(self.climate.clone()))?;
        if self.hosts > MAX_HOSTS {
            return Err(SpecError::TooManyHosts(self.hosts));
        }
        let base = match self.days {
            0 => ExperimentConfig::paper_stochastic(seed),
            d @ 1..=366 => ExperimentConfig {
                fault_mode: FaultMode::Stochastic,
                ..ExperimentConfig::short(seed, d)
            },
            d => return Err(SpecError::InvalidDays(d)),
        };
        Ok(ExperimentConfig {
            climate,
            force_ecc: self.force_ecc,
            chaos: if self.chaos {
                Some(ChaosConfig::paper_like())
            } else {
                None
            },
            fleet: match self.hosts {
                0 => FleetSpec::Paper,
                n => FleetSpec::VendorMix { hosts: n },
            },
            ..base
        })
    }

    /// Compose the campaign for `seed`: the stock paper pipeline, plus
    /// the observatory when [`ScenarioSpec::observe`] is set and the
    /// poison phase when [`ScenarioSpec::poison`] is set. Callers may arm
    /// more instrumentation (e.g. tracing) before building.
    pub fn builder(&self, seed: u64) -> Result<ScenarioBuilder, SpecError> {
        let mut b = ScenarioBuilder::paper(self.to_config(seed)?);
        if self.observe {
            b = b.with_observability(frostlab_obs::ObsConfig::default());
        }
        if self.poison {
            b = b.push(Box::new(PanicPhase::after_ticks(POISON_PANIC_TICK)));
        }
        Ok(b)
    }

    /// Build the runnable campaign for `seed` (see
    /// [`ScenarioSpec::builder`]).
    pub fn build(&self, seed: u64) -> Result<Scenario, SpecError> {
        self.builder(seed).map(ScenarioBuilder::build)
    }
}

/// Tick at which a poison scenario's [`PanicPhase`] detonates — late
/// enough that the job visibly starts, early enough that retries are
/// cheap.
pub const POISON_PANIC_TICK: u64 = 32;

/// A phase that panics after a fixed number of ticks — the deterministic
/// "poison job" used to exercise retry + quarantine paths. Never part of
/// the stock pipeline.
#[derive(Debug)]
pub struct PanicPhase {
    ticks: u64,
    after: u64,
}

impl PanicPhase {
    /// Panic on the `after`-th call to `step` (1-based).
    pub fn after_ticks(after: u64) -> PanicPhase {
        PanicPhase { ticks: 0, after }
    }
}

impl TickPhase for PanicPhase {
    fn name(&self) -> &str {
        "poison"
    }

    fn step(&mut self, _ctx: &mut CampaignCtx) {
        self.ticks += 1;
        if self.ticks >= self.after {
            panic!("poison phase detonated at tick {}", self.ticks);
        }
    }
}

/// One unit of farm work: a scenario at a seed.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JobSpec {
    /// The campaign description.
    pub scenario: ScenarioSpec,
    /// Root seed for this campaign.
    pub seed: u64,
}

impl JobSpec {
    /// Stable content hash: FNV-1a 64 over the canonical (compact) JSON.
    ///
    /// Identical `(scenario, seed)` pairs hash identically across
    /// processes and farm restarts — the key the result store dedups on.
    pub fn content_hash(&self) -> Result<u64, serde_json::Error> {
        Ok(fnv1a(serde_json::to_string(self)?.as_bytes()))
    }

    /// The content hash as the fixed-width hex key used for store files.
    pub fn key(&self) -> Result<String, serde_json::Error> {
        Ok(format!("{:016x}", self.content_hash()?))
    }
}

/// FNV-1a 64-bit — stable, dependency-free, and plenty for
/// content-addressing a job universe of thousands (the same digest the
/// golden-hash CI gate uses).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A climate × chaos × seed sweep: the farm's submission unit.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MatrixSpec {
    /// Scenario axis, in submission order.
    pub scenarios: Vec<ScenarioSpec>,
    /// First seed of the contiguous range.
    pub seed_start: u64,
    /// Seeds per scenario.
    pub seeds: u64,
}

impl MatrixSpec {
    /// Total jobs in the matrix, saturating at `u64::MAX` (which
    /// [`MatrixSpec::validate`] rejects).
    pub fn jobs(&self) -> u64 {
        (self.scenarios.len() as u64).saturating_mul(self.seeds)
    }

    /// Expand to the ordered job list: **scenario-major, seed-minor** —
    /// the fold order both the farm's merge and the single-process
    /// ensemble comparator use, so their outputs can be byte-identical.
    /// Call on a matrix that passed [`MatrixSpec::validate`].
    pub fn expand(&self) -> Vec<JobSpec> {
        let mut jobs = Vec::with_capacity(self.jobs() as usize);
        for scenario in &self.scenarios {
            for s in 0..self.seeds {
                jobs.push(JobSpec {
                    scenario: scenario.clone(),
                    seed: self.seed_start + s,
                });
            }
        }
        jobs
    }

    /// Validate every scenario in the matrix, its size and its seed range
    /// without running anything. A valid matrix expands without overflow
    /// to at most [`MAX_MATRIX_JOBS`] jobs.
    pub fn validate(&self) -> Result<(), SpecError> {
        for s in &self.scenarios {
            s.to_config(self.seed_start)?;
        }
        if self.jobs() > MAX_MATRIX_JOBS {
            return Err(SpecError::MatrixTooLarge {
                scenarios: self.scenarios.len(),
                seeds: self.seeds,
            });
        }
        if self.seeds > 0 && self.seed_start.checked_add(self.seeds - 1).is_none() {
            return Err(SpecError::SeedRangeOverflow(self.seed_start));
        }
        Ok(())
    }

    /// Pretty JSON (the farm's `manifest.json` format).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a manifest back.
    pub fn from_json(json: &str) -> Result<MatrixSpec, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> MatrixSpec {
        MatrixSpec {
            scenarios: vec![
                ScenarioSpec::new("helsinki", 2, "helsinki"),
                ScenarioSpec::new("desert", 2, "new-mexico"),
            ],
            seed_start: 10,
            seeds: 3,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let m = matrix();
        let back = MatrixSpec::from_json(&m.to_json().expect("serializes")).expect("parses");
        assert_eq!(back, m);
    }

    #[test]
    fn expansion_is_scenario_major_seed_minor() {
        let jobs = matrix().expand();
        assert_eq!(jobs.len(), 6);
        let order: Vec<(&str, u64)> = jobs
            .iter()
            .map(|j| (j.scenario.name.as_str(), j.seed))
            .collect();
        assert_eq!(
            order,
            vec![
                ("helsinki", 10),
                ("helsinki", 11),
                ("helsinki", 12),
                ("desert", 10),
                ("desert", 11),
                ("desert", 12),
            ]
        );
    }

    #[test]
    fn content_hash_is_stable_and_distinguishes_jobs() {
        let jobs = matrix().expand();
        let h0 = jobs[0].content_hash().expect("hashes");
        assert_eq!(jobs[0].content_hash().expect("hashes"), h0, "stable");
        assert_eq!(jobs[0].clone().content_hash().expect("hashes"), h0);
        // Every job in the matrix is distinct.
        let mut keys: Vec<String> = jobs.iter().map(|j| j.key().expect("keys")).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
        // But an identical spec collides on purpose.
        let twin = JobSpec {
            scenario: ScenarioSpec::new("helsinki", 2, "helsinki"),
            seed: 10,
        };
        assert_eq!(twin.content_hash().expect("hashes"), h0);
    }

    #[test]
    fn unknown_climate_is_a_typed_error() {
        let spec = ScenarioSpec::new("x", 2, "atlantis");
        assert_eq!(
            spec.to_config(1).err(),
            Some(SpecError::UnknownClimate("atlantis".into()))
        );
        let m = MatrixSpec {
            scenarios: vec![spec],
            seed_start: 0,
            seeds: 1,
        };
        assert!(m.validate().is_err());
    }

    #[test]
    fn invalid_days_rejected() {
        assert_eq!(
            ScenarioSpec::new("x", -3, "helsinki").to_config(1).err(),
            Some(SpecError::InvalidDays(-3))
        );
        assert_eq!(
            ScenarioSpec::new("x", 400, "helsinki").to_config(1).err(),
            Some(SpecError::InvalidDays(400))
        );
    }

    #[test]
    fn fleet_size_matrix_size_and_seed_range_are_bounded() {
        let mut m = matrix();
        m.scenarios[1].hosts = MAX_HOSTS + 1;
        assert_eq!(m.validate(), Err(SpecError::TooManyHosts(MAX_HOSTS + 1)));
        m.scenarios[1].hosts = MAX_HOSTS;
        let too_large = |seeds| {
            Err(SpecError::MatrixTooLarge {
                scenarios: 2,
                seeds,
            })
        };
        // Two scenarios × (u64::MAX/2 + 1) seeds overflows a u64.
        m.seeds = u64::MAX / 2 + 1;
        assert_eq!(m.validate(), too_large(m.seeds));
        m.seeds = MAX_MATRIX_JOBS / 2 + 1;
        assert_eq!(m.validate(), too_large(m.seeds));
        (m.seed_start, m.seeds) = (u64::MAX, 2);
        assert_eq!(m.validate(), Err(SpecError::SeedRangeOverflow(u64::MAX)));
        m.seed_start = u64::MAX - 1;
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(m.expand().last().map(|j| j.seed), Some(u64::MAX));
    }

    #[test]
    fn to_config_carries_the_toggles() {
        let mut spec = ScenarioSpec::new("x", 3, "new-mexico");
        spec.chaos = true;
        spec.force_ecc = true;
        let cfg = spec.to_config(7).expect("valid");
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.fault_mode, FaultMode::Stochastic);
        assert!(cfg.force_ecc);
        assert!(cfg.chaos.is_some());
        assert_eq!(cfg.duration().as_days_f64(), 3.0);
    }

    #[test]
    fn full_window_spec_spans_the_paper_campaign() {
        let cfg = ScenarioSpec::new("full", 0, "helsinki")
            .to_config(1)
            .expect("valid");
        let days = cfg.duration().as_days_f64();
        assert!((85.0..95.0).contains(&days));
    }

    #[test]
    fn built_scenario_runs_and_matches_direct_config() {
        let spec = ScenarioSpec::new("x", 1, "helsinki");
        let via_spec = spec.build(3).expect("valid").run();
        let via_config = ScenarioBuilder::paper(spec.to_config(3).expect("valid"))
            .build()
            .run();
        assert_eq!(
            via_spec.summary().to_json().expect("serializes"),
            via_config.summary().to_json().expect("serializes"),
            "spec adds nothing to a non-poison pipeline"
        );
    }

    #[test]
    fn poison_scenario_panics_mid_campaign() {
        let mut spec = ScenarioSpec::new("poison", 1, "helsinki");
        spec.poison = true;
        let scenario = spec.build(1).expect("valid spec");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scenario.run()));
        assert!(result.is_err(), "poison phase must detonate");
    }

    #[test]
    fn zero_hosts_keeps_legacy_content_hashes_and_parses_legacy_json() {
        // A paper-fleet job must hash exactly as it did before the `hosts`
        // knob existed: the field is skipped from canonical JSON at 0.
        let job = JobSpec {
            scenario: ScenarioSpec::new("helsinki", 2, "helsinki"),
            seed: 10,
        };
        let json = serde_json::to_string(&job).expect("serializes");
        assert!(!json.contains("hosts"), "zero fleet stays out of JSON");
        // And a manifest written before the knob existed still parses.
        let legacy = r#"{"scenario":{"name":"x","days":2,"climate":"helsinki",
            "chaos":false,"force_ecc":false,"poison":false},"seed":1}"#;
        let back: JobSpec = serde_json::from_str(legacy).expect("legacy parses");
        assert_eq!(back.scenario.hosts, 0);
        assert_eq!(
            back.scenario.to_config(1).expect("valid").fleet,
            FleetSpec::Paper
        );
    }

    #[test]
    fn hosts_knob_selects_a_vendor_mix_fleet_and_changes_the_hash() {
        let mut spec = ScenarioSpec::new("big", 2, "helsinki");
        spec.hosts = 1000;
        let cfg = spec.to_config(1).expect("valid");
        assert_eq!(cfg.fleet, FleetSpec::VendorMix { hosts: 1000 });
        let small = JobSpec {
            scenario: ScenarioSpec::new("big", 2, "helsinki"),
            seed: 1,
        };
        let big = JobSpec {
            scenario: spec,
            seed: 1,
        };
        assert_ne!(
            small.content_hash().expect("hashes"),
            big.content_hash().expect("hashes"),
            "fleet size is part of the job identity"
        );
    }

    #[test]
    fn observe_flag_stays_out_of_legacy_hashes_and_arms_the_observatory() {
        // A non-observed job must hash exactly as it did before the knob
        // existed.
        let plain = JobSpec {
            scenario: ScenarioSpec::new("helsinki", 2, "helsinki"),
            seed: 10,
        };
        let json = serde_json::to_string(&plain).expect("serializes");
        assert!(!json.contains("observe"), "false stays out of JSON");
        // A legacy manifest (no `observe` key) parses to false.
        let legacy = r#"{"scenario":{"name":"x","days":2,"climate":"helsinki",
            "chaos":false,"force_ecc":false,"poison":false},"seed":1}"#;
        let back: JobSpec = serde_json::from_str(legacy).expect("legacy parses");
        assert!(!back.scenario.observe);
        // Setting it changes the job identity and arms the observatory.
        let mut spec = ScenarioSpec::new("helsinki", 2, "helsinki");
        spec.observe = true;
        let observed = JobSpec {
            scenario: spec.clone(),
            seed: 10,
        };
        assert_ne!(
            plain.content_hash().expect("hashes"),
            observed.content_hash().expect("hashes"),
            "observability is part of the job identity"
        );
        let mut short = spec.clone();
        short.days = 1;
        let results = short.build(3).expect("valid").run();
        let obs = results.obs.expect("observe flag arms the observatory");
        assert_eq!(obs.slos.len(), 4);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Classic FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    /// `|`-separated fragments the JSON fuzzer splices: structure, the
    /// matrix's keys, extreme numbers, escapes.
    const TOKENS: &str = concat!(
        r#"{|}|[|]|:|,|"| |"scenarios"|"seeds"|"seed_start"|"name"|"days"|"#,
        r#""climate"|"hosts"|"helsinki"|true|null|0|-1|18446744073709551616|"#,
        r#"4294967296|1e999|\u|\ud800|\\|é"#
    );

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Any spliced text: `from_json` then `validate` return a value or
        /// a typed error, and never panic.
        #[test]
        fn arbitrary_text_never_panics_the_spec_path(
            picks in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..64)
        ) {
            let tokens: Vec<&str> = TOKENS.split('|').collect();
            let text: String = picks.iter().map(|&i| tokens[i % tokens.len()]).collect();
            if let Ok(m) = MatrixSpec::from_json(&text) {
                let _ = m.validate();
            }
        }
    }
}
