//! Composing campaigns out of [`TickPhase`]s.
//!
//! [`ScenarioBuilder::paper`] assembles the stock seven-phase pipeline
//! that reproduces the paper's campaign; `insert_before` / `insert_after`
//! / `replace` / `remove` / `wrap` then let a what-if study restructure
//! the pipeline without forking the orchestrator:
//!
//! ```no_run
//! use frostlab_core::config::ExperimentConfig;
//! use frostlab_core::scenario::ScenarioBuilder;
//!
//! // The paper's campaign, with per-phase wall-clock metering.
//! let (results, timings) = ScenarioBuilder::paper(ExperimentConfig::paper_scripted(42))
//!     .build()
//!     .run_with_timings();
//! println!("runs: {}", results.workload.total_runs());
//! for t in timings {
//!     println!("{:>20}: {:.1} ms over {} calls", t.phase, t.total_ms, t.calls);
//! }
//! ```
//!
//! The stock phase names, in pipeline order: `weather`,
//! `enclosure-thermal`, `logger-poll`, `script`, `host-step`,
//! `collection`, `power-integration`.
//!
//! Phases carry no instrumentation: the [`Scenario`] tick loop times each
//! `step` under [`Scenario::run_with_timings`] and emits the
//! `phase/<name>` sim-time spans when the tracer is armed.

use std::time::{Duration, Instant};

use frostlab_obs::{ObsConfig, ObsState};
use frostlab_trace::{TraceConfig, Tracer};

use crate::config::ExperimentConfig;
use crate::context::CampaignCtx;
use crate::observe::ObservePhase;
use crate::phases::{
    CollectionPhase, EnclosureThermalPhase, HostStepPhase, LoggerPollPhase, PhaseTiming,
    PowerIntegrationPhase, ScriptPhase, TickPhase, WeatherPhase,
};
use crate::results::ExperimentResults;

/// Builds a [`Scenario`] by composing [`TickPhase`]s over a fresh
/// [`CampaignCtx`].
pub struct ScenarioBuilder {
    ctx: CampaignCtx,
    phases: Vec<Box<dyn TickPhase>>,
}

impl ScenarioBuilder {
    /// The stock pipeline reproducing the paper's campaign — the seven
    /// phases in the order the old monolithic orchestrator ran them.
    pub fn paper(cfg: ExperimentConfig) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::empty(cfg);
        let cfg = &b.ctx.cfg;
        let phases: Vec<Box<dyn TickPhase>> = vec![
            Box::new(WeatherPhase::new()),
            Box::new(EnclosureThermalPhase::new()),
            Box::new(LoggerPollPhase::new(cfg)),
            Box::new(ScriptPhase::from_config(cfg)),
            Box::new(HostStepPhase::new(cfg)),
            Box::new(CollectionPhase::new(cfg)),
            Box::new(PowerIntegrationPhase::new()),
        ];
        b.phases = phases;
        b
    }

    /// A pipeline with no phases — the campaign state exists but nothing
    /// steps it. Push phases to build a scenario from scratch.
    pub fn empty(cfg: ExperimentConfig) -> ScenarioBuilder {
        ScenarioBuilder {
            ctx: CampaignCtx::new(cfg),
            phases: Vec::new(),
        }
    }

    /// The campaign config this scenario was built from.
    pub fn config(&self) -> &ExperimentConfig {
        &self.ctx.cfg
    }

    /// Current phase names, in pipeline order.
    pub fn phase_names(&self) -> Vec<String> {
        self.phases.iter().map(|p| p.name().to_string()).collect()
    }

    /// Append a phase at the end of the pipeline.
    pub fn push(mut self, phase: Box<dyn TickPhase>) -> ScenarioBuilder {
        self.phases.push(phase);
        self
    }

    /// Insert a phase immediately before the named one.
    ///
    /// # Panics
    /// Panics if no phase has that name — a misaddressed pipeline edit is
    /// a scenario-definition bug, not a runtime condition.
    pub fn insert_before(mut self, name: &str, phase: Box<dyn TickPhase>) -> ScenarioBuilder {
        let idx = self.index_of(name);
        self.phases.insert(idx, phase);
        self
    }

    /// Insert a phase immediately after the named one.
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn insert_after(mut self, name: &str, phase: Box<dyn TickPhase>) -> ScenarioBuilder {
        let idx = self.index_of(name);
        self.phases.insert(idx + 1, phase);
        self
    }

    /// Swap the named phase for a replacement (e.g. a replayed-trace
    /// weather phase in place of the synthetic one).
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn replace(mut self, name: &str, phase: Box<dyn TickPhase>) -> ScenarioBuilder {
        let idx = self.index_of(name);
        self.phases[idx] = phase;
        self
    }

    /// Drop the named phase from the pipeline.
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn remove(mut self, name: &str) -> ScenarioBuilder {
        let idx = self.index_of(name);
        self.phases.remove(idx);
        self
    }

    /// Wrap the named phase in a decorator (the wrapper decides whether
    /// and how to delegate — conditional skips, fault injection, outside
    /// instrumentation). The wrapper keeps the phase's pipeline slot.
    ///
    /// # Panics
    /// Panics if no phase has that name.
    pub fn wrap(
        mut self,
        name: &str,
        wrapper: impl FnOnce(Box<dyn TickPhase>) -> Box<dyn TickPhase>,
    ) -> ScenarioBuilder {
        let idx = self.index_of(name);
        // Placeholder swap: `WeatherPhase` stands in while the real phase
        // moves through the wrapper.
        let inner = std::mem::replace(&mut self.phases[idx], Box::new(WeatherPhase::new()));
        self.phases[idx] = wrapper(inner);
        self
    }

    /// Arm the campaign's tracer and append an [`ObservePhase`] (unless one
    /// is already present) to sample metrics at each tick boundary. While
    /// the tracer records phase spans, the tick loop gives every other
    /// phase — including ones added after this call — one `phase/<name>`
    /// span per step. The finished run carries the frozen trace in
    /// [`ExperimentResults::trace`].
    ///
    /// Tracing draws no randomness and no wall-clock, so results stay
    /// byte-identical to an untraced run and the exported trace is
    /// byte-identical across runs and ensemble thread counts.
    pub fn with_tracing(mut self, cfg: TraceConfig) -> ScenarioBuilder {
        self.ctx.tracer = Tracer::enabled(cfg, self.ctx.cfg.start);
        self.push_observe_phase();
        self
    }

    /// Arm the fleet health observatory: dimensional rollups, SLO
    /// burn-rate alerting and the incident flight recorder (see
    /// [`frostlab_obs::ObsConfig`]). An [`ObservePhase`] joins the
    /// pipeline unless tracing already put one there, and the finished
    /// run carries the frozen record in [`ExperimentResults::obs`].
    ///
    /// Composes with [`ScenarioBuilder::with_tracing`] in either order.
    /// Like tracing, observability draws no randomness and no wall-clock,
    /// so the campaign's physics and every golden artifact stay
    /// byte-identical.
    pub fn with_observability(mut self, cfg: ObsConfig) -> ScenarioBuilder {
        self.ctx.obs = Some(Box::new(ObsState::new(&cfg, self.ctx.cfg.tick)));
        self.push_observe_phase();
        self
    }

    /// Append the pipeline's one sampling phase, if it is not there yet.
    fn push_observe_phase(&mut self) {
        if !self.phases.iter().any(|p| p.name() == "observe") {
            self.phases.push(Box::new(ObservePhase::new()));
        }
    }

    /// Finish composition.
    pub fn build(self) -> Scenario {
        Scenario {
            ctx: self.ctx,
            phases: self.phases,
        }
    }

    fn index_of(&self, name: &str) -> usize {
        self.phases
            .iter()
            .position(|p| p.name() == name)
            .unwrap_or_else(|| {
                panic!(
                    "no phase named {name:?} in pipeline {:?}",
                    self.phase_names()
                )
            })
    }
}

/// A runnable campaign: a phase pipeline over a [`CampaignCtx`].
pub struct Scenario {
    ctx: CampaignCtx,
    phases: Vec<Box<dyn TickPhase>>,
}

impl Scenario {
    /// Run the campaign to completion.
    pub fn run(mut self) -> ExperimentResults {
        self.tick_loop(|_, phase, ctx| phase.step(ctx));
        self.ctx.finish()
    }

    /// Run the campaign and also return each phase's wall-clock cost, in
    /// pipeline order. Only this entry point reads the clock; [`run`]
    /// steps the same loop untimed.
    ///
    /// [`run`]: Scenario::run
    pub fn run_with_timings(mut self) -> (ExperimentResults, Vec<PhaseTiming>) {
        let mut spent = vec![Duration::ZERO; self.phases.len()];
        let calls = self.tick_loop(|i, phase, ctx| {
            let started = Instant::now();
            phase.step(ctx);
            spent[i] += started.elapsed();
        });
        let timings = self
            .phases
            .iter()
            .zip(spent)
            .map(|(p, spent)| PhaseTiming {
                phase: p.name().to_string(),
                total_ms: spent.as_secs_f64() * 1e3,
                calls,
            })
            .collect();
        (self.ctx.finish(), timings)
    }

    /// Step every phase once per tick through `step(index, phase, ctx)`
    /// until the window closes; return the number of ticks. After each
    /// step of a phase other than `observe` (a sampler, not a substrate),
    /// emit a `phase/<name>` span over `[now, now + tick]` whenever the
    /// tracer records phase spans.
    fn tick_loop(
        &mut self,
        mut step: impl FnMut(usize, &mut dyn TickPhase, &mut CampaignCtx),
    ) -> u64 {
        let tracks: Vec<Option<String>> = self
            .phases
            .iter()
            .map(|p| (p.name() != "observe").then(|| format!("phase/{}", p.name())))
            .collect();
        let tick = self.ctx.cfg.tick;
        let mut ticks = 0;
        while self.ctx.now <= self.ctx.cfg.end {
            for (i, (phase, track)) in self.phases.iter_mut().zip(&tracks).enumerate() {
                step(i, phase.as_mut(), &mut self.ctx);
                if let Some(track) = track {
                    if self.ctx.tracer.phase_spans_enabled() {
                        let start = self.ctx.now;
                        self.ctx
                            .tracer
                            .span(track, "step", start, start + tick, &[]);
                    }
                }
            }
            self.ctx.now += tick;
            ticks += 1;
        }
        ticks
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::rc::Rc;

    use super::*;

    const STOCK: [&str; 7] = [
        "weather",
        "enclosure-thermal",
        "logger-poll",
        "script",
        "host-step",
        "collection",
        "power-integration",
    ];

    /// A phase that counts its own steps — for composition tests.
    struct CountingPhase {
        name: &'static str,
        steps: u64,
    }

    impl TickPhase for CountingPhase {
        fn name(&self) -> &str {
            self.name
        }
        fn step(&mut self, _ctx: &mut CampaignCtx) {
            self.steps += 1;
        }
    }

    #[test]
    fn paper_pipeline_has_the_stock_phases_in_order() {
        let b = ScenarioBuilder::paper(ExperimentConfig::short(1, 3));
        assert_eq!(b.phase_names(), STOCK);
    }

    #[test]
    fn builder_edits_address_phases_by_name() {
        let b = ScenarioBuilder::paper(ExperimentConfig::short(1, 3))
            .insert_before(
                "host-step",
                Box::new(CountingPhase {
                    name: "pre-host",
                    steps: 0,
                }),
            )
            .insert_after(
                "power-integration",
                Box::new(CountingPhase {
                    name: "post-power",
                    steps: 0,
                }),
            )
            .remove("collection")
            .replace(
                "script",
                Box::new(CountingPhase {
                    name: "no-script",
                    steps: 0,
                }),
            );
        assert_eq!(
            b.phase_names(),
            vec![
                "weather",
                "enclosure-thermal",
                "logger-poll",
                "no-script",
                "pre-host",
                "host-step",
                "power-integration",
                "post-power",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "no phase named")]
    fn misaddressed_edit_panics() {
        let _ = ScenarioBuilder::paper(ExperimentConfig::short(1, 3)).remove("no-such-phase");
    }

    /// Delegates to the phase it wraps and counts the steps it forwards.
    struct CountingWrapper(Box<dyn TickPhase>, Rc<Cell<u64>>);

    impl TickPhase for CountingWrapper {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn step(&mut self, ctx: &mut CampaignCtx) {
            self.1.set(self.1.get() + 1);
            self.0.step(ctx);
        }
    }

    #[test]
    fn run_with_timings_meters_every_phase_once_without_changing_results() {
        let plain = ScenarioBuilder::paper(ExperimentConfig::short(3, 5))
            .build()
            .run();
        // A wrapped phase keeps its slot and is metered once, under its name.
        let forwarded = Rc::new(Cell::new(0));
        let counter = forwarded.clone();
        let (timed, timings) = ScenarioBuilder::paper(ExperimentConfig::short(3, 5))
            .wrap("collection", |inner| {
                Box::new(CountingWrapper(inner, counter))
            })
            .build()
            .run_with_timings();
        assert_eq!(plain.workload.total_runs(), timed.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, timed.tent_temp_truth);
        let names: Vec<&str> = timings.iter().map(|t| t.phase.as_str()).collect();
        assert_eq!(names, STOCK);
        // 5 days of 1-minute ticks, inclusive window.
        let expected_ticks = 5 * 24 * 60 + 1;
        assert_eq!(forwarded.get(), expected_ticks);
        for t in &timings {
            assert_eq!(t.calls, expected_ticks, "{}", t.phase);
        }
    }

    #[test]
    fn with_tracing_records_a_trace_without_changing_results() {
        use frostlab_trace::TraceConfig;
        let plain = ScenarioBuilder::paper(ExperimentConfig::short(3, 2))
            .build()
            .run();
        let traced = ScenarioBuilder::paper(ExperimentConfig::short(3, 2))
            .with_tracing(TraceConfig::default())
            .build()
            .run();
        assert!(plain.trace.is_none(), "tracing is off by default");
        assert_eq!(plain.workload.total_runs(), traced.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, traced.tent_temp_truth);
        assert_eq!(plain.incidents, traced.incidents);
        let trace = traced.trace.expect("tracing was armed");
        assert!(!trace.events.is_empty());
        // Zero-delta ticks never create a counter, so a window with no
        // runs leaves it absent rather than zero.
        assert_eq!(
            trace.metrics.counter("workload.runs_total").unwrap_or(0),
            traced.workload.total_runs(),
            "the runs counter tracks the workload accumulator"
        );
        assert!(trace.metrics.gauge("tent.temp_c").is_some());
    }

    #[test]
    fn traced_run_spans_every_phase_but_observe_even_when_added_late() {
        use frostlab_trace::TraceConfig;
        let late = CountingPhase {
            name: "late",
            steps: 0,
        };
        let (results, timings) = ScenarioBuilder::paper(ExperimentConfig::short(5, 1))
            .with_tracing(TraceConfig::default())
            .insert_after("power-integration", Box::new(late))
            .build()
            .run_with_timings();
        // Every phase is metered, the sampler included.
        let names: Vec<&str> = timings.iter().map(|t| t.phase.as_str()).collect();
        assert_eq!(names, [&STOCK[..], &["late", "observe"]].concat());
        let trace = results.trace.expect("tracing was armed");
        for t in &timings {
            let track = format!("phase/{}", t.phase);
            let spans = trace.events.iter().filter(|e| e.track == track).count();
            let want = if t.phase == "observe" { 0 } else { t.calls };
            assert_eq!(spans as u64, want, "{track}");
        }
    }

    #[test]
    fn with_observability_records_obs_without_changing_physics() {
        use frostlab_obs::ObsConfig;
        let plain = ScenarioBuilder::paper(ExperimentConfig::short(3, 2))
            .build()
            .run();
        let observed = ScenarioBuilder::paper(ExperimentConfig::short(3, 2))
            .with_observability(ObsConfig::default())
            .build()
            .run();
        assert!(plain.obs.is_none(), "observability is off by default");
        let obs = observed.obs.expect("observatory was armed");
        assert_eq!(plain.workload.total_runs(), observed.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, observed.tent_temp_truth);
        assert_eq!(plain.tent_energy_true_kwh, observed.tent_energy_true_kwh);
        // The paper's four SLOs were evaluated, in spec order.
        let slos: Vec<&str> = obs.slos.iter().map(|s| s.slo.as_str()).collect();
        assert_eq!(
            slos,
            [
                "corruption-rate",
                "collection-staleness",
                "dew-point-margin",
                "host-reset-rate"
            ]
        );
        // Rollups cover the fleet's three dimensions.
        let rollup = obs.rollup.expect("rollups default on");
        assert_eq!(rollup.dims.len(), 3);
        // The incident ledger may gain slo-breach mirrors; everything
        // else must match the plain run exactly.
        let non_slo: Vec<_> = observed
            .incidents
            .iter()
            .filter(|i| !matches!(i.kind, crate::watchdog::IncidentKind::SloBreach))
            .cloned()
            .collect();
        assert_eq!(non_slo, plain.incidents);
        // Every alert fire in the timeline has a matching slo/ incident.
        for a in obs.alerts.iter().filter(|a| a.action == "fire") {
            assert!(
                observed
                    .incidents
                    .iter()
                    .any(|i| i.subject == format!("slo/{}", a.slo)),
                "alert {} missing from the watchdog ledger",
                a.slo
            );
        }
    }

    #[test]
    fn observability_composes_with_tracing_in_either_order() {
        use frostlab_obs::ObsConfig;
        use frostlab_trace::TraceConfig;
        let obs_then_trace = ScenarioBuilder::paper(ExperimentConfig::short(5, 1))
            .with_observability(ObsConfig::default())
            .with_tracing(TraceConfig::default());
        let trace_then_obs = ScenarioBuilder::paper(ExperimentConfig::short(5, 1))
            .with_tracing(TraceConfig::default())
            .with_observability(ObsConfig::default());
        for b in [&obs_then_trace, &trace_then_obs] {
            let names = b.phase_names();
            assert_eq!(
                names.iter().filter(|n| n.as_str() == "observe").count(),
                1,
                "{names:?}"
            );
        }
        // Both orders produce identical traces and obs records.
        let a = obs_then_trace.build().run();
        let b = trace_then_obs.build().run();
        assert_eq!(a.obs, b.obs);
        let (ta, tb) = (a.trace.expect("traced"), b.trace.expect("traced"));
        assert_eq!(
            frostlab_trace::export::to_prometheus(&ta.metrics),
            frostlab_trace::export::to_prometheus(&tb.metrics)
        );
    }

    #[test]
    fn removing_host_step_stops_the_workload_but_weather_continues() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(2, 10))
            .remove("host-step")
            .build()
            .run();
        assert_eq!(results.workload.total_runs(), 0);
        assert!(results.outside.len() > 400);
        assert!(results.tent_temp_truth.len() > 400);
    }

    #[test]
    fn empty_pipeline_runs_and_finishes() {
        let results = ScenarioBuilder::empty(ExperimentConfig::short(1, 2))
            .build()
            .run();
        assert_eq!(results.workload.total_runs(), 0);
        assert!(results.outside.is_empty());
    }

    #[test]
    fn phase_timing_serializes_round_trip() {
        let t = PhaseTiming {
            phase: "collection".to_string(),
            total_ms: 12.5,
            calls: 7,
        };
        let json = serde_json::to_string(&t).expect("plain data");
        let back: PhaseTiming = serde_json::from_str(&json).expect("valid");
        assert_eq!(back, t);
    }
}

/// Behavioural tests of the stock paper pipeline, end to end.
#[cfg(test)]
mod campaign_tests {
    use super::*;
    use frostlab_simkern::time::{SimDuration, SimTime};

    use crate::config::FaultMode;

    #[test]
    fn short_campaign_runs_and_accumulates() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(1, 3))
            .build()
            .run();
        // 3 days, first three tent hosts + twins installed at start+... —
        // nobody is installed before Feb 19 in the paper fleet, so the
        // short window Feb 12–15 has zero runs but full weather capture.
        assert!(
            results.outside.len() > 400,
            "outside obs {}",
            results.outside.len()
        );
        assert!(results.tent_temp_truth.len() > 400);
        assert_eq!(results.workload.total_runs(), 0);
    }

    #[test]
    fn ten_day_campaign_produces_runs_and_power() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(2, 10))
            .build()
            .run();
        // Hosts 1,2,3 (+ twins) install Feb 19 11:00; window ends Feb 22.
        let runs = results.workload.total_runs();
        // 6 machines × ~3 days × 144 runs/day ≈ 2400.
        assert!((1500..3500).contains(&runs), "runs {runs}");
        assert!(
            results.tent_energy_true_kwh > 1.0,
            "energy {}",
            results.tent_energy_true_kwh
        );
        let mean_w = results.tent_mean_power_w();
        assert!(mean_w > 0.0 && mean_w < 2000.0, "mean tent power {mean_w}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ScenarioBuilder::paper(ExperimentConfig::short(7, 9))
            .build()
            .run();
        let b = ScenarioBuilder::paper(ExperimentConfig::short(7, 9))
            .build()
            .run();
        assert_eq!(a.workload.total_runs(), b.workload.total_runs());
        assert_eq!(a.tent_temp_truth, b.tent_temp_truth);
        assert_eq!(a.fault_events.len(), b.fault_events.len());
        assert_eq!(a.tent_energy_true_kwh, b.tent_energy_true_kwh);
    }

    #[test]
    fn summary_json_roundtrips() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(11, 8))
            .build()
            .run();
        let summary = results.summary();
        let json = summary.to_json().expect("plain data serializes");
        assert!(json.contains("\"total_runs\""));
        let back: crate::results::CampaignSummary =
            serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(back, summary);
        assert_eq!(back.seed, 11);
        assert!(back.collection_availability > 0.0);
    }

    #[test]
    fn watchdog_logs_the_switch_outage_with_recovery() -> Result<(), serde_json::Error> {
        // 20 days from Feb 12 cover both §4.2.1 switch deaths (Feb 26 and
        // Feb 28) and the Mar 1 restoration.
        let results = ScenarioBuilder::paper(ExperimentConfig::short(5, 20))
            .build()
            .run();
        let switch_incidents: Vec<_> = results
            .incidents
            .iter()
            .filter(|i| i.kind == crate::watchdog::IncidentKind::SwitchFailure)
            .collect();
        assert_eq!(switch_incidents.len(), 2, "{:?}", results.incidents);
        let restored = SimTime::from_ymd_hms(2010, 3, 1, 11, 30, 0);
        for i in &switch_incidents {
            assert_eq!(i.resolved, Some(restored), "{i:?}");
            assert_eq!(i.resolution.as_deref(), Some("spare switch swapped in"));
        }
        assert_eq!(
            switch_incidents[0].started,
            SimTime::from_ymd_hms(2010, 2, 26, 9, 0, 0)
        );
        // Stale tent mirrors during the outage are explained by the open
        // switch incidents — no spurious staleness alarms.
        assert!(
            !results
                .incidents
                .iter()
                .any(|i| i.kind == crate::watchdog::IncidentKind::CollectionStale),
            "{:?}",
            results.incidents
        );
        // The log round-trips as machine-readable JSON; a serializer error
        // propagates as a test failure instead of a panic.
        let json = results.incident_log_json()?;
        assert!(json.contains("switch-0") && json.contains("switch-1"));
        Ok(())
    }

    #[test]
    fn retries_heal_the_switch_outage_gap() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(5, 20))
            .build()
            .run();
        // Retry attempts were made during the outage…
        let retry_attempts = results
            .collection
            .iter()
            .filter(|r| r.kind == frostlab_netsim::collector::AttemptKind::Retry)
            .count();
        assert!(retry_attempts > 0, "no catch-up retries recorded");
        // …and every tent host's gap healed shortly after the Mar 1 repair:
        // the backoff cap is 20 minutes, so recovery lands within ~25 min
        // of the restoration instead of waiting for the 2 h scheduled round.
        let restored = SimTime::from_ymd_hms(2010, 3, 1, 11, 30, 0);
        assert!(!results.collection_gaps.is_empty());
        for gap in &results.collection_gaps {
            assert!(gap.failed_attempts > 0);
            assert!(gap.end > restored, "{gap:?}");
            assert!(
                gap.end - restored < SimDuration::minutes(30),
                "recovery should ride a capped retry, not the next scheduled round: {gap:?}"
            );
        }
        // Availability still measures the scheduled cadence only.
        let avail = results.collection_availability();
        assert!(avail < 1.0 && avail > 0.5, "availability {avail}");
    }

    #[test]
    fn chaos_campaign_runs_deterministically() {
        let cfg = || ExperimentConfig {
            chaos: Some(frostlab_faults::chaos::ChaosConfig::paper_like()),
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(13, 20)
        };
        let a = ScenarioBuilder::paper(cfg()).build().run();
        let b = ScenarioBuilder::paper(cfg()).build().run();
        assert_eq!(a.workload.total_runs(), b.workload.total_runs());
        assert_eq!(a.collection.len(), b.collection.len());
        assert_eq!(a.incidents, b.incidents);
        // 20 hostile days should produce injected events beyond the two
        // scripted switch deaths.
        assert!(
            a.fault_events.len() > 2,
            "chaos injected nothing: {:?}",
            a.fault_events
        );
    }

    #[test]
    fn chaos_off_stochastic_matches_plain_stochastic() {
        // `chaos: None` must be bit-identical to a build that never had
        // chaos at all — same seed, same stochastic draws, same outputs.
        let plain = ScenarioBuilder::paper(ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            ..ExperimentConfig::short(17, 15)
        })
        .build()
        .run();
        let with_none = ScenarioBuilder::paper(ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            chaos: None,
            ..ExperimentConfig::short(17, 15)
        })
        .build()
        .run();
        assert_eq!(plain.workload.total_runs(), with_none.workload.total_runs());
        assert_eq!(plain.tent_temp_truth, with_none.tent_temp_truth);
        assert_eq!(plain.collection.len(), with_none.collection.len());
        assert_eq!(plain.tent_energy_true_kwh, with_none.tent_energy_true_kwh);
    }

    #[test]
    fn tent_is_warmer_than_outside_and_cooler_than_basement() {
        let results = ScenarioBuilder::paper(ExperimentConfig::short(3, 12))
            .build()
            .run();
        let out_mean: f64 =
            results.outside.iter().map(|o| o.temp_c).sum::<f64>() / results.outside.len() as f64;
        // Compare over the loaded window (after first installs).
        let loaded_from = SimTime::from_date(2010, 2, 20);
        let tent_mean = results
            .tent_temp_truth
            .window(loaded_from, results.window.1)
            .mean()
            .unwrap();
        let basement_mean = results.basement_temp.mean().unwrap();
        assert!(
            tent_mean > out_mean,
            "tent {tent_mean} vs outside {out_mean}"
        );
        assert!(
            basement_mean > tent_mean,
            "basement {basement_mean} vs tent {tent_mean}"
        );
        assert!((18.0..24.0).contains(&basement_mean));
    }
}
