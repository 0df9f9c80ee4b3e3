//! The per-tick substrate phases of the campaign kernel.
//!
//! Each phase is one step of the paper's per-minute tick sequence, ported
//! verbatim from the old monolithic orchestrator and pinned byte-identical
//! by the golden-hash tests:
//!
//! 1. [`WeatherPhase`] — advance the synthetic winter, let the SMEAR III
//!    surrogate observe it;
//! 2. [`EnclosureThermalPhase`] — step tent and basement with the groups'
//!    previous-tick wall power;
//! 3. [`LoggerPollPhase`] — Lascar readout/poll and the 10-minute truth
//!    series;
//! 4. [`ScriptPhase`] — scripted events, chaos events, pending switch
//!    repairs;
//! 5. [`HostStepPhase`] — chassis thermals, sensors, stochastic faults,
//!    the synthetic load, repair visits;
//! 6. [`CollectionPhase`] — the 20-minute collection round, staleness
//!    sweep, and backoff retries;
//! 7. [`PowerIntegrationPhase`] — the Technoline meter over the tent feed.
//!
//! Phases communicate only through [`CampaignCtx`]; the
//! [`crate::scenario::ScenarioBuilder`] composes them (and anything
//! user-written that implements [`TickPhase`]) into a runnable scenario.
//! Phases carry no instrumentation: the scenario's tick loop times and
//! traces each `step` (see [`crate::scenario`]).

use frostlab_faults::repair::RepairAction;
use frostlab_faults::types::{FaultEvent, FaultKind, HostId};
use frostlab_simkern::time::{Date, SimDuration, SimTime};
use frostlab_trace::FieldValue;
use frostlab_workload::stats::Placement;

use crate::config::{ExperimentConfig, FaultMode};
use crate::context::{daily_log, next_monday_morning, CampaignCtx};
use crate::fleet::switch_assignment;
use crate::results::StoredArchive;
use crate::scripted::{paper_script, ScriptedEvent};

/// One substrate step of the per-tick pipeline.
///
/// A phase owns its private schedule state (next due times, event cursors)
/// and reads/writes shared campaign state through [`CampaignCtx`]. The
/// scenario steps every phase once per tick, in pipeline order.
pub trait TickPhase {
    /// Stable phase name, used by the builder to address phases for
    /// `replace`/`insert_before`/`wrap`.
    fn name(&self) -> &str;

    /// Advance this substrate by one tick at `ctx.now`.
    fn step(&mut self, ctx: &mut CampaignCtx);
}

/// Accumulated wall-clock cost of one phase across a whole campaign.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PhaseTiming {
    /// The phase's name.
    pub phase: String,
    /// Total wall-clock spent inside `step`, milliseconds.
    pub total_ms: f64,
    /// Number of `step` invocations.
    pub calls: u64,
}

/// Ticks per weather batch: one simulated day on the model's 60-s grid,
/// matching the skeleton chunk size. The final refill of a campaign may
/// generate up to a day past the end — the surplus samples are discarded
/// and the surplus RNG draws are private to the model.
const WEATHER_BATCH_TICKS: usize = 1440;

/// Step 1: advance the weather model and poll the station.
///
/// When the campaign tick, the campaign start, and the station cadence all
/// lie on the weather model's 60-s grid (the stock configuration), samples
/// are served from a day-sized batch produced by
/// [`WeatherModel::sample_ticks`](frostlab_climate::WeatherModel::sample_ticks) — bit-identical to per-tick sampling, but
/// the weather working set is traversed once per simulated day instead of
/// being re-faulted from cache on every tick. Unaligned configurations keep
/// the per-tick path.
#[derive(Debug, Default)]
pub struct WeatherPhase {
    /// Batched samples; `buf[i]` is the sample at `buf_t0 + i·60 s`.
    buf: Vec<frostlab_climate::weather::WeatherSample>,
    /// Instant of `buf[0]`.
    buf_t0: SimTime,
}

impl WeatherPhase {
    /// Stock weather phase.
    pub fn new() -> WeatherPhase {
        WeatherPhase::default()
    }
}

impl TickPhase for WeatherPhase {
    fn name(&self) -> &str {
        "weather"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        // The batched path requires every instant the model gets sampled at
        // to land on its 60-s grid. All three inputs are campaign constants
        // (the station schedule steps by a fixed interval), so the predicate
        // is tick-invariant: a campaign is either always batched or never.
        let aligned = t.as_secs() % 60 == 0
            && ctx.station.next_due().as_secs() % 60 == 0
            && ctx.station.config().interval.as_secs() % 60 == 0;
        let sample = if aligned {
            let idx = (t.as_secs() - self.buf_t0.as_secs()) / 60;
            if self.buf.is_empty() || idx < 0 || idx as usize >= self.buf.len() {
                self.buf = ctx.wx.sample_ticks(t, WEATHER_BATCH_TICKS);
                self.buf_t0 = t;
                self.buf[0]
            } else {
                self.buf[idx as usize]
            }
        } else {
            // Catch up any observations due strictly before this tick (only
            // possible with a station cadence unaligned to the tick grid).
            while ctx.station.next_due() < t {
                match ctx.station.poll(&mut ctx.wx, t) {
                    Some(obs) => ctx.outside.push(obs),
                    None => break,
                }
            }
            ctx.wx.sample_at(t)
        };
        // One model sample serves both the tick and, when the 10-minute
        // station cadence lands on this tick, the station observation —
        // the pre-kernel phase sampled the model twice at those instants.
        if let Some(obs) = ctx.station.poll_at(&sample) {
            ctx.outside.push(obs);
        }
        ctx.weather = sample;
    }
}

/// Step 2: step every tent and basement zone, driven by the previous
/// tick's per-host wall power. Publishes zone 0's power draw for the
/// power-integration phase — the meter sees the same watts that heated
/// the instrumented tent.
///
/// Per-zone power accumulates in one pass over the fleet in host-index
/// order; for the paper's single-zone fleet each accumulator receives its
/// adds in exactly the order the old filtered sums did, so the result is
/// byte-identical. The scratch vectors are phase-owned and sized once —
/// no per-tick allocation.
#[derive(Debug, Default)]
pub struct EnclosureThermalPhase {
    tent_power: Vec<f64>,
    basement_power: Vec<f64>,
}

impl EnclosureThermalPhase {
    /// Stock enclosure phase.
    pub fn new() -> EnclosureThermalPhase {
        EnclosureThermalPhase::default()
    }
}

impl TickPhase for EnclosureThermalPhase {
    fn name(&self) -> &str {
        "enclosure-thermal"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        use frostlab_thermal::enclosure::Enclosure;
        let t = ctx.now;
        self.tent_power.resize(ctx.tent_zone_states.len(), 0.0);
        self.tent_power.fill(0.0);
        self.basement_power
            .resize(ctx.basement_zone_states.len(), 0.0);
        self.basement_power.fill(0.0);
        let fleet = &ctx.fleet;
        for i in 0..fleet.len() {
            if !fleet.installed(i, t) {
                continue;
            }
            let z = fleet.zone[i] as usize;
            match fleet.placement[i] {
                Placement::Tent => self.tent_power[z] += fleet.last_wall_w[i],
                Placement::Basement => self.basement_power[z] += fleet.last_wall_w[i],
            }
        }
        ctx.tent.step(ctx.dt_secs, &ctx.weather, self.tent_power[0]);
        ctx.basement
            .step(ctx.dt_secs, &ctx.weather, self.basement_power[0]);
        ctx.tent_state = ctx.tent.state();
        ctx.basement_state = ctx.basement.state();
        ctx.tent_zone_states[0] = ctx.tent_state;
        ctx.basement_zone_states[0] = ctx.basement_state;
        for (k, tent) in ctx.extra_tents.iter_mut().enumerate() {
            tent.step(ctx.dt_secs, &ctx.weather, self.tent_power[k + 1]);
            ctx.tent_zone_states[k + 1] = tent.state();
        }
        for (k, room) in ctx.extra_basements.iter_mut().enumerate() {
            room.step(ctx.dt_secs, &ctx.weather, self.basement_power[k + 1]);
            ctx.basement_zone_states[k + 1] = room.state();
        }
        ctx.tent_power_w = self.tent_power[0];
        ctx.basement_power_w = self.basement_power[0];
    }
}

/// Step 3: the Lascar logger — including the weekly Monday USB readout
/// that downloads the memory and drags the unit indoors for half an hour
/// (the outlier source the paper mentions) — plus the 10-minute truth
/// series the figures are drawn from.
#[derive(Debug)]
pub struct LoggerPollPhase {
    next_readout: SimTime,
    next_truth_sample: SimTime,
}

impl LoggerPollPhase {
    /// Stock logger phase scheduled from the campaign config.
    pub fn new(cfg: &ExperimentConfig) -> LoggerPollPhase {
        LoggerPollPhase {
            next_readout: next_monday_morning(cfg.lascar_deployed_at),
            next_truth_sample: cfg.start,
        }
    }
}

impl TickPhase for LoggerPollPhase {
    fn name(&self) -> &str {
        "logger-poll"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        if t >= self.next_readout {
            ctx.lascar.begin_readout(t, SimDuration::minutes(30));
            self.next_readout = t + SimDuration::days(7);
        }
        ctx.lascar
            .poll(t, ctx.tent_state.air_temp_c, ctx.tent_state.air_rh_pct);

        if t >= self.next_truth_sample {
            ctx.tent_temp_truth.push(t, ctx.tent_state.air_temp_c);
            ctx.tent_rh_truth.push(t, ctx.tent_state.air_rh_pct);
            ctx.basement_temp.push(t, ctx.basement_state.air_temp_c);
            self.next_truth_sample = t + SimDuration::minutes(10);
        }
    }
}

/// Step 4: fire scripted events that came due, then chaos events, then
/// any failover-scheduled switch repairs.
#[derive(Debug)]
pub struct ScriptPhase {
    events: Vec<(SimTime, ScriptedEvent)>,
    next: usize,
}

impl ScriptPhase {
    /// The paper's event history, filtered by fault mode: scripted mode
    /// replays everything; stochastic mode draws *faults* from the hazard
    /// models but keeps the operators' physical interventions (the R/I/B/F
    /// tent modifications) and the infrastructure history (the defective
    /// switches' deaths and replacement), which happened regardless.
    pub fn from_config(cfg: &ExperimentConfig) -> ScriptPhase {
        let events = match cfg.fault_mode {
            FaultMode::Scripted => paper_script(),
            FaultMode::Stochastic => paper_script()
                .into_iter()
                .filter(|(_, ev)| {
                    matches!(
                        ev,
                        ScriptedEvent::TentReconfig { .. }
                            | ScriptedEvent::SwitchDown { .. }
                            | ScriptedEvent::SwitchRestored { .. }
                    )
                })
                .collect(),
        };
        ScriptPhase::with_events(events)
    }

    /// A custom script. Events must be sorted by due time; each fires on
    /// the first tick at or after it.
    pub fn with_events(events: Vec<(SimTime, ScriptedEvent)>) -> ScriptPhase {
        ScriptPhase { events, next: 0 }
    }
}

impl TickPhase for ScriptPhase {
    fn name(&self) -> &str {
        "script"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        while self.next < self.events.len() && self.events[self.next].0 <= t {
            let (at, ev) = self.events[self.next].clone();
            self.next += 1;
            ctx.handle_scripted(at, ev);
        }

        let chaos_due = match ctx.chaos.as_mut() {
            Some(chaos) => chaos.engine.pop_due(t),
            None => Vec::new(),
        };
        for (at, ev) in chaos_due {
            ctx.handle_chaos(at, ev);
        }
        while let Some(pos) = ctx
            .pending_switch_restores
            .iter()
            .position(|(due, _)| *due <= t)
        {
            let (at, switch) = ctx.pending_switch_restores.remove(pos);
            ctx.switch_up[switch] = true;
            ctx.watchdog
                .resolve(&format!("switch-{switch}"), at, "spare switch swapped in");
        }
    }
}

/// Step 5: per installed host — chassis thermal chain, sensor chip,
/// S.M.A.R.T. ticks, stochastic fault polls, the jittered 10-minute
/// synthetic load, and repair-workflow visits. Hangs and withdrawals are
/// applied after the fleet loop, matching the monolith's ordering.
///
/// The loop destructures [`CampaignCtx`] and
/// [`crate::fleet_state::FleetState`] once into disjoint column borrows and
/// walks the flat arrays — O(hosts) per tick, no indexed re-borrow per
/// field access. All scratch (the deferred hang/withdrawal lists, the log
/// line buffer, the day-cached log file names) is phase-owned and reused,
/// so the hot loop performs zero heap allocations per tick.
///
/// The hosts rotate their logs at midnight: on the first tick of each
/// date the phase seals every store's open logs (once per host per day,
/// not per append), so the collector can retire them once synced.
#[derive(Debug)]
pub struct HostStepPhase {
    next_fault_poll: SimTime,
    hangs: Vec<(usize, SimTime)>,
    withdrawals: Vec<usize>,
    line_buf: String,
    sensors_log: String,
    md5sums_log: String,
    log_day: Option<Date>,
}

impl HostStepPhase {
    /// Stock host phase scheduled from the campaign config.
    pub fn new(cfg: &ExperimentConfig) -> HostStepPhase {
        HostStepPhase {
            next_fault_poll: cfg.start + cfg.fault_poll_interval,
            hangs: Vec::new(),
            withdrawals: Vec::new(),
            line_buf: String::new(),
            sensors_log: String::new(),
            md5sums_log: String::new(),
            log_day: None,
        }
    }
}

impl TickPhase for HostStepPhase {
    fn name(&self) -> &str {
        "host-step"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        use std::fmt::Write as _;
        let t = ctx.now;
        let dt_secs = ctx.dt_secs;
        let dt_hours = ctx.dt_hours;
        let fault_poll_due = t >= self.next_fault_poll;
        let stochastic = ctx.cfg.fault_mode == FaultMode::Stochastic;
        let sensor_log_interval = ctx.cfg.sensor_log_interval;
        let poll_hours = ctx.cfg.fault_poll_interval.as_secs() as f64 / 3600.0;

        // Daily-rotated logs: when the date rolls, seal yesterday's files
        // and recompute today's names.
        let d = t.date();
        if self.log_day != Some(d) {
            self.log_day = Some(d);
            self.sensors_log = daily_log("sensors", t);
            self.md5sums_log = daily_log("md5sums", t);
            for store in &mut ctx.fleet.stores {
                store.rotate();
            }
        }

        // Borrow the context once into disjoint pieces; the fleet columns
        // split again so every per-host field is a flat slice access.
        let CampaignCtx {
            fleet,
            tent_zone_states,
            basement_zone_states,
            fault_events,
            workload,
            stored_archives,
            tracer,
            watchdog,
            repair_policy,
            ..
        } = ctx;
        let crate::fleet_state::FleetState {
            plans,
            install_at,
            placement,
            zone,
            withdrawn,
            busy_until,
            next_run_at,
            next_sensor_log,
            inspection_due,
            pending_flips,
            page_ops_since_poll,
            last_wall_w,
            cpu_temp_c,
            thermal,
            hw,
            jobs,
            schedules,
            faults,
            records,
            stores,
            ..
        } = fleet;

        for i in 0..plans.len() {
            if t < install_at[i] || withdrawn[i] {
                continue;
            }
            let encl = match placement[i] {
                Placement::Tent => tent_zone_states[zone[i] as usize],
                Placement::Basement => basement_zone_states[zone[i] as usize],
            };
            let util = if hw.is_running(i) && t < busy_until[i] {
                1.0
            } else {
                0.0
            };
            let cpu_w = hw.cpu_power_w(i, util);
            let dc_w = hw.dc_power_w(i, util);
            thermal.step_one(i, dt_secs, encl.air_temp_c, cpu_w, dc_w);
            cpu_temp_c[i] = thermal.cpu_temp_c(i);
            last_wall_w[i] = hw.wall_power_w(i, util);
            hw.tick(i, dt_hours, thermal.hdd_temp_c(i));
            let sensor_reading = hw.sensor_read_cpu_temp(i, cpu_temp_c[i]);

            // Sensor log.
            if t >= next_sensor_log[i] {
                self.line_buf.clear();
                let _ = match sensor_reading {
                    Some(v) => writeln!(
                        self.line_buf,
                        "{} cpu={:.1} rh={:.0}",
                        t.datetime(),
                        v,
                        encl.air_rh_pct
                    ),
                    None => writeln!(
                        self.line_buf,
                        "{} cpu=n/a rh={:.0}",
                        t.datetime(),
                        encl.air_rh_pct
                    ),
                };
                stores[i]
                    .append(&self.sensors_log, self.line_buf.as_bytes())
                    .expect(LOG_NAMES_ARE_DATED);
                next_sensor_log[i] = t + sensor_log_interval;
            }

            // Stochastic faults.
            if stochastic && fault_poll_due && hw.is_running(i) {
                let page_ops = std::mem::take(&mut page_ops_since_poll[i]);
                let outcome = faults[i].poll(poll_hours, cpu_temp_c[i], encl.air_rh_pct, page_ops);
                for kind in &outcome.faults {
                    match kind {
                        FaultKind::TransientSystemFailure => self.hangs.push((i, t)),
                        FaultKind::SensorChipErratic => {
                            hw.sensor_inject_cold_fault(i);
                            fault_events.push(FaultEvent {
                                at: t,
                                host: HostId(plans[i].id),
                                kind: *kind,
                            });
                        }
                        FaultKind::DiskPendingSector => {
                            hw.disks_inject_pending_sector0(i);
                            fault_events.push(FaultEvent {
                                at: t,
                                host: HostId(plans[i].id),
                                kind: *kind,
                            });
                        }
                        FaultKind::PsuFailure => {
                            hw.psu_fail(i);
                            self.hangs.push((i, t));
                        }
                        _ => {}
                    }
                }
                if outcome.memory_flips > 0 {
                    for _ in 0..outcome.memory_flips {
                        if hw.memory_apply_bit_flip(i)
                            == frostlab_hardware::memory::FlipOutcome::SilentCorruption
                        {
                            pending_flips[i] += 1;
                        }
                        fault_events.push(FaultEvent {
                            at: t,
                            host: HostId(plans[i].id),
                            kind: FaultKind::MemoryBitFlip,
                        });
                    }
                }
            }

            // Workload.
            if hw.is_running(i) && t >= next_run_at[i] {
                let flips = std::mem::take(&mut pending_flips[i]);
                let outcome = jobs[i].run(flips);
                busy_until[i] = t + SimDuration::secs(outcome.duration_secs as i64);
                page_ops_since_poll[i] += outcome.page_ops;
                hw.memory_record_page_ops(i, outcome.page_ops);
                workload.record_run(plans[i].id, outcome.page_ops);
                if tracer.host_spans_enabled() {
                    tracer.span(
                        &format!("host/{}", plans[i].id),
                        "job-run",
                        t,
                        busy_until[i],
                        &[
                            ("page_ops", FieldValue::U64(outcome.page_ops)),
                            ("hash_ok", FieldValue::Bool(outcome.hash_ok)),
                            ("flips", FieldValue::U64(u64::from(flips))),
                        ],
                    );
                }
                self.line_buf.clear();
                let _ = writeln!(self.line_buf, "{} {} run", t.datetime(), outcome.hash);
                stores[i]
                    .append(&self.md5sums_log, self.line_buf.as_bytes())
                    .expect(LOG_NAMES_ARE_DATED);
                if !outcome.hash_ok {
                    workload.record_hash_error(plans[i].id, placement[i], t);
                    if let Some(bytes) = outcome.stored_archive {
                        stored_archives.push(StoredArchive {
                            host: plans[i].id,
                            at: t,
                            bytes,
                        });
                    }
                }
                schedules[i].resume_at(t);
                next_run_at[i] = schedules[i].next_run();
            }

            // Repair visit.
            if let Some(due) = inspection_due[i] {
                if t >= due {
                    inspection_due[i] = None;
                    match records[i].inspect(repair_policy) {
                        RepairAction::ResetInPlace => {
                            hw.reset(i);
                            schedules[i].resume_at(t);
                            next_run_at[i] = schedules[i].next_run();
                            watchdog.resolve(&format!("host-{}", plans[i].id), t, "reset in place");
                        }
                        RepairAction::TakeIndoors => self.withdrawals.push(i),
                    }
                }
            }
        }
        for (idx, at) in self.hangs.drain(..) {
            ctx.apply_hang(idx, at);
        }
        for idx in self.withdrawals.drain(..) {
            let id = ctx.fleet.plans[idx].id;
            ctx.take_indoors(idx);
            ctx.watchdog
                .resolve(&format!("host-{id}"), t, "taken indoors (memtest)");
        }
        if fault_poll_due {
            self.next_fault_poll = t + ctx.cfg.fault_poll_interval;
        }
    }
}

/// Why a rotated log can never be appended to again: [`daily_log`] names
/// carry the full date, and a date never recurs.
const LOG_NAMES_ARE_DATED: &str = "daily log names carry the date, so no rotated log is reused";

/// Step 6: the scheduled collection round with the watchdog's staleness
/// sweep, then catch-up retries with backoff for hosts whose mirror is
/// stale.
#[derive(Debug)]
pub struct CollectionPhase {
    next_round: SimTime,
    /// Per host, in fleet order: the watchdog subjects the staleness sweep
    /// reads, built once on the first round.
    subjects: Vec<StalenessSubjects>,
}

/// The watchdog subjects one host's staleness check consults.
#[derive(Debug)]
struct StalenessSubjects {
    /// `host-{id}`: an open host incident explains a stale mirror.
    host: String,
    /// `switch-{n}` for a tent host: so does its switch being down.
    switch: Option<String>,
    /// `host-{id}/collection`: the staleness alarm itself.
    collection: String,
}

impl CollectionPhase {
    /// Stock collection phase scheduled from the campaign config.
    pub fn new(cfg: &ExperimentConfig) -> CollectionPhase {
        CollectionPhase {
            next_round: cfg.start + cfg.collection_interval,
            subjects: Vec::new(),
        }
    }
}

impl TickPhase for CollectionPhase {
    fn name(&self) -> &str {
        "collection"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let t = ctx.now;
        if t >= self.next_round {
            if self.subjects.is_empty() {
                self.subjects = ctx
                    .fleet
                    .plans
                    .iter()
                    .map(|p| StalenessSubjects {
                        host: format!("host-{}", p.id),
                        switch: (p.placement == Placement::Tent)
                            .then(|| format!("switch-{}", switch_assignment(p.id))),
                        collection: format!("host-{}/collection", p.id),
                    })
                    .collect();
            }
            for idx in 0..ctx.fleet.len() {
                if !ctx.fleet.installed(idx, t) {
                    continue;
                }
                // `&&` short-circuits: the chaos draw is only consumed for
                // hosts that are reachable in the first place.
                let reachable = ctx.reachable(idx) && !ctx.chaos_drops_attempt(t);
                ctx.collector
                    .collect(&mut ctx.fleet.stores[idx], reachable, t);
                // Staleness check: alarm only when nothing else (an open
                // switch or host incident) already explains the gap.
                let subjects = &self.subjects[idx];
                let explained = ctx.watchdog.is_open(&subjects.host)
                    || subjects
                        .switch
                        .as_ref()
                        .is_some_and(|switch| ctx.watchdog.is_open(switch));
                let staleness = ctx.collector.staleness(ctx.fleet.plans[idx].id, t);
                ctx.watchdog
                    .observe_staleness(&subjects.collection, staleness, explained, t);
            }
            self.next_round = t + ctx.cfg.collection_interval;
        }

        // Catch-up retries with backoff for hosts whose mirror is stale. A
        // scheduled failure at this same tick has already pushed the host's
        // next attempt into the future, so a host is never tried twice in
        // one tick.
        for id in ctx.collector.due_retries(t) {
            let Some(idx) = ctx.fleet.index_of(id) else {
                continue;
            };
            if !ctx.fleet.installed(idx, t) {
                continue;
            }
            let reachable = ctx.reachable(idx) && !ctx.chaos_drops_attempt(t);
            ctx.collector
                .retry_collect(&mut ctx.fleet.stores[idx], reachable, t);
        }
    }
}

/// Step 7: integrate the tent group's wall power — the true integral and
/// the Technoline Cost Control meter's imperfect view of it. Reads the
/// power the enclosure phase published this tick, so the meter and the
/// tent physics always agree on the watts.
#[derive(Debug, Default)]
pub struct PowerIntegrationPhase;

impl PowerIntegrationPhase {
    /// Stock power-integration phase.
    pub fn new() -> PowerIntegrationPhase {
        PowerIntegrationPhase
    }
}

impl TickPhase for PowerIntegrationPhase {
    fn name(&self) -> &str {
        "power-integration"
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        ctx.energy_true_wh += ctx.tent_power_w * ctx.dt_hours;
        ctx.meter.integrate(ctx.tent_power_w, ctx.dt_hours);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use frostlab_thermal::tent::TentConfig;

    fn ctx_at(cfg: ExperimentConfig) -> CampaignCtx {
        CampaignCtx::new(cfg)
    }

    #[test]
    fn scripted_event_exactly_on_tick_boundary_fires_that_tick() {
        let cfg = ExperimentConfig::short(1, 3);
        let start = cfg.start;
        let mut ctx = ctx_at(cfg);
        let mut phase =
            ScriptPhase::with_events(vec![(start, ScriptedEvent::SwitchDown { switch: 0 })]);
        ctx.now = start;
        phase.step(&mut ctx);
        assert!(!ctx.switch_up[0], "event due exactly at the tick must fire");
        assert!(ctx.watchdog.is_open("switch-0"));
    }

    #[test]
    fn scripted_event_between_ticks_fires_on_next_tick_with_original_due_time() {
        let cfg = ExperimentConfig::short(1, 3);
        let start = cfg.start;
        let tick = cfg.tick;
        let mut ctx = ctx_at(cfg);
        // Due 1 s after the first tick: must NOT fire at `start`, must fire
        // at `start + tick`, and the incident keeps the scripted due time,
        // not the tick time.
        let due = start + SimDuration::secs(1);
        let mut phase =
            ScriptPhase::with_events(vec![(due, ScriptedEvent::SwitchDown { switch: 1 })]);
        ctx.now = start;
        phase.step(&mut ctx);
        assert!(ctx.switch_up[1], "not due yet");
        ctx.now = start + tick;
        phase.step(&mut ctx);
        assert!(!ctx.switch_up[1]);
        let incident = ctx
            .watchdog
            .incidents()
            .iter()
            .find(|i| i.subject == "switch-1")
            .expect("incident opened");
        assert_eq!(incident.started, due, "incident stamped with due time");
    }

    #[test]
    fn multiple_due_events_fire_in_script_order_within_one_tick() {
        let cfg = ExperimentConfig::short(1, 3);
        let start = cfg.start;
        let tick = cfg.tick;
        let mut ctx = ctx_at(cfg);
        // Both come due within one tick window; down-then-restore must
        // leave the switch up (the reverse order would leave it down).
        let mut phase = ScriptPhase::with_events(vec![
            (
                start + SimDuration::secs(10),
                ScriptedEvent::SwitchDown { switch: 0 },
            ),
            (
                start + SimDuration::secs(20),
                ScriptedEvent::SwitchRestored { switch: 0 },
            ),
        ]);
        ctx.now = start + tick;
        phase.step(&mut ctx);
        assert!(ctx.switch_up[0], "down then restore, in order");
        assert!(!ctx.watchdog.is_open("switch-0"));
    }

    #[test]
    fn script_event_at_campaign_end_still_fires_on_final_tick() {
        let cfg = ExperimentConfig::short(1, 3);
        let end = cfg.end;
        let mut ctx = ctx_at(cfg);
        let mut phase = ScriptPhase::with_events(vec![(
            end,
            ScriptedEvent::TentReconfig {
                mark: 'R',
                config: TentConfig::initial(),
            },
        )]);
        ctx.now = end;
        phase.step(&mut ctx);
        // No panic, event consumed: a second step must not re-fire it.
        phase.step(&mut ctx);
    }
}
