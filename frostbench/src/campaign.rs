//! The three campaign workloads: `paper_campaign`, `sweep_week` and
//! `fleet_day`.
//!
//! Every campaign goes through [`run_campaign`], the path a CLI user
//! takes: `ScenarioBuilder::paper(..).build()`, `Scenario::run`, the
//! summary projection and, for the paper campaign, the T1–T3 tables and
//! Fig. 3/4. With a [`Recorder`] armed, each of those calls gets a span
//! and every tick phase is wrapped in a [`SpanPhase`] that keeps one
//! aggregated span per phase per campaign.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use frostlab_core::config::{ExperimentConfig, FaultMode};
use frostlab_core::fleet::FleetSpec;
use frostlab_core::phases::TickPhase;
use frostlab_core::results::CampaignSummary;
use frostlab_core::{figures, tables, CampaignCtx, ExperimentResults, ScenarioBuilder};
use frostlab_ensemble::{CampaignAggregate, Ensemble};
use frostlab_obs::ObsConfig;
use frostlab_simkern::time::{SimDuration, SimTime};
use frostlab_workload::job::JobTemplate;

use crate::stats::{median, median_secs};
use crate::trace::{layer_ms_per_root, maybe_span, unaccounted_share, Recorder, Span};
use crate::{fnv1a, Outcome};

/// FNV-1a of the seed-42 scripted campaign's summary JSON: the
/// `summary_json` entry of the repository's paper golden hashes.
const PAPER_SUMMARY_GOLDEN: u64 = 0x530e_6fad_d626_f22f;

/// Wrong md5sums the paper reports (T2: 5 of 27,627 runs); the scripted
/// campaign replays that fault history at every seed.
const PAPER_WRONG_HASHES: usize = 5;

/// Campaigns in one `sweep_week` sweep.
const SWEEP_CAMPAIGNS: u64 = 32;

/// Fleet size of `fleet_day`.
const FLEET_HOSTS: u32 = 10_000;

/// Warm-up campaigns timed to give `setup_s` (their median).
const SETUP_REPEATS: usize = 5;

/// What runs around the tick loop.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Arm the fleet health observatory (adds the `observe` phase).
    observe: bool,
    /// Render T1–T3 and Fig. 3/4 after the summary.
    render: bool,
}

/// Wall-clock of one phase across a campaign.
#[derive(Debug)]
struct PhaseClock {
    name: String,
    first: Option<Instant>,
    last: Option<Instant>,
    busy_ns: u64,
    calls: u64,
}

/// The phase clocks of one campaign, shared by its [`SpanPhase`]s.
#[derive(Debug, Default)]
struct Clocks {
    phases: Vec<PhaseClock>,
    /// End of the most recent step of any phase.
    last_end: Option<Instant>,
}

/// Times every `step` of the wrapped phase into the campaign's clocks.
struct SpanPhase {
    inner: Box<dyn TickPhase>,
    slot: usize,
    clocks: Rc<RefCell<Clocks>>,
}

impl TickPhase for SpanPhase {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, ctx: &mut CampaignCtx) {
        let start = Instant::now();
        self.inner.step(ctx);
        let end = Instant::now();
        let mut clocks = self.clocks.borrow_mut();
        let clock = &mut clocks.phases[self.slot];
        clock.first.get_or_insert(start);
        clock.last = Some(end);
        clock.busy_ns += (end - start).as_nanos() as u64;
        clock.calls += 1;
        clocks.last_end = Some(end);
    }
}

/// Exact counts from one campaign: bases for ratios and count claims.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Counts {
    runs: u64,
    collects: u64,
    bytes: u64,
    wrong_hashes: u64,
    host_ticks: u64,
}

impl Counts {
    fn add(&mut self, o: Counts) {
        self.runs += o.runs;
        self.collects += o.collects;
        self.bytes += o.bytes;
        self.wrong_hashes += o.wrong_hashes;
        self.host_ticks += o.host_ticks;
    }

    fn into_layers(self, layers: &mut BTreeMap<String, f64>) {
        for (name, v) in [
            ("workload.runs", self.runs),
            ("netsim.collects", self.collects),
            ("netsim.bytes", self.bytes),
            ("faults.wrong_hashes", self.wrong_hashes),
            ("core.host_ticks", self.host_ticks),
        ] {
            layers.insert(name.to_string(), v as f64);
        }
    }
}

/// What one campaign hands back to its workload.
#[derive(Debug)]
struct Campaign {
    summary: CampaignSummary,
    summary_json: String,
    wrong_hashes: usize,
    /// The T2 table's "wrong hashes" value, when rendered.
    t2_wrong_hashes: Option<usize>,
    /// Build → summary JSON, seconds.
    to_summary_s: f64,
    /// Build → everything projected (summary and, if asked, rendering).
    wall_s: f64,
    /// Filled only when traced.
    counts: Counts,
}

/// The value of T2's `wrong hashes` row.
fn t2_wrong_hashes(t2: &str) -> Option<usize> {
    t2.lines()
        .map(|l| l.trim_matches(|c: char| c == '|' || c.is_whitespace()))
        .find(|l| l.starts_with("wrong hashes") && !l.contains('('))
        .and_then(|l| {
            l.split(|c: char| c == '|' || c.is_whitespace())
                .rev()
                .find(|s| !s.is_empty())
        })
        .and_then(|v| v.parse().ok())
}

/// T1–T3 and Fig. 3/4, as a CLI user renders them; returns T2's value.
fn render(results: &ExperimentResults) -> Option<usize> {
    let t1 = tables::t1_failures(results).to_string();
    let t2 = tables::t2_hashes(results).to_string();
    let t3 = tables::t3_memory(results).to_string();
    let f3 = figures::fig3_temperature(results);
    let f4 = figures::fig4_humidity(results);
    std::hint::black_box((&t1, &t3, &f3.csv, &f3.summary, &f4.csv, &f4.summary));
    t2_wrong_hashes(&t2)
}

/// One campaign from build to projected results. With `rec` armed, a
/// `campaign` span with campaign id `key` hangs under `outer` (0: it is a
/// root) and the calls it made hang under it; dropping the results
/// follows as a `core.drop` span beside it.
fn run_campaign(
    cfg: ExperimentConfig,
    shape: Shape,
    rec: Option<&Recorder>,
    outer: u64,
    key: u64,
) -> Campaign {
    let started = Instant::now();
    let parent = rec.map_or(0, Recorder::alloc);
    let clocks = Rc::new(RefCell::new(Clocks::default()));
    let scenario = maybe_span(rec, parent, "core.build", key, |_| {
        let mut b = ScenarioBuilder::paper(cfg);
        if shape.observe {
            b = b.with_observability(ObsConfig::default());
        }
        if rec.is_some() {
            for name in b.phase_names() {
                let slot = {
                    let mut c = clocks.borrow_mut();
                    c.phases.push(PhaseClock {
                        name: name.clone(),
                        first: None,
                        last: None,
                        busy_ns: 0,
                        calls: 0,
                    });
                    c.phases.len() - 1
                };
                let clocks = clocks.clone();
                b = b.wrap(&name, move |inner| {
                    Box::new(SpanPhase {
                        inner,
                        slot,
                        clocks,
                    })
                });
            }
        }
        b.build()
    });
    let results = maybe_span(rec, parent, "core.run", key, |run| {
        let results = scenario.run();
        if let Some(rec) = rec {
            let end = Instant::now();
            let clocks = clocks.borrow();
            for p in &clocks.phases {
                let (Some(first), Some(last)) = (p.first, p.last) else {
                    continue;
                };
                rec.push(Span {
                    id: rec.alloc(),
                    parent: run,
                    name: format!("phase.{}", p.name),
                    key,
                    thread: crate::trace::thread_no(),
                    start_ns: rec.ns(first),
                    end_ns: rec.ns(last),
                    busy_ns: p.busy_ns,
                    aggregated: true,
                });
            }
            // `Scenario::run` calls `CampaignCtx::finish` right after the
            // last phase step of the last tick.
            if let Some(last) = clocks.last_end {
                rec.interval(rec.alloc(), run, "core.finish", key, last, end);
            }
        }
        results
    });
    let (summary, summary_json) = maybe_span(rec, parent, "core.summary", key, |_| {
        let summary = results.summary();
        let json = summary.to_json().expect("campaign summary serializes");
        (summary, json)
    });
    let to_summary_s = started.elapsed().as_secs_f64();
    let t2 = if shape.render {
        maybe_span(rec, parent, "core.render", key, |_| render(&results))
    } else {
        None
    };
    let projected = Instant::now();
    let wall_s = (projected - started).as_secs_f64();
    if let Some(rec) = rec {
        rec.interval(parent, outer, "campaign", key, started, projected);
    }
    let counts = if rec.is_some() {
        let host_step_calls = clocks
            .borrow()
            .phases
            .iter()
            .find(|p| p.name == "host-step")
            .map_or(0, |p| p.calls);
        Counts {
            runs: results.workload.total_runs(),
            collects: results.collection.len() as u64,
            bytes: results.collection_literal_bytes(),
            wrong_hashes: results.workload.hash_errors().len() as u64,
            host_ticks: host_step_calls * results.hosts.len() as u64,
        }
    } else {
        Counts::default()
    };
    let wrong_hashes = results.workload.hash_errors().len();
    maybe_span(rec, outer, "core.drop", key, |_| drop(results));
    Campaign {
        wrong_hashes,
        summary,
        summary_json,
        t2_wrong_hashes: t2,
        to_summary_s,
        wall_s,
        counts,
    }
}

/// `cfg` cut to its first simulated hour.
fn first_hour(cfg: ExperimentConfig) -> ExperimentConfig {
    ExperimentConfig {
        end: cfg.start + SimDuration::hours(1),
        ..cfg
    }
}

/// Median wall time of [`SETUP_REPEATS`] warm-up campaigns: the workload's
/// first simulated hour, built and run from scratch.
fn setup_s(cfg: impl Fn() -> ExperimentConfig, shape: Shape) -> f64 {
    median_secs(SETUP_REPEATS, || {
        drop(std::hint::black_box(run_campaign(
            first_hour(cfg()),
            shape,
            None,
            0,
            0,
        )));
    })
}

/// Median time of `JobTemplate::build` on `cfg`'s job config, outside any
/// span: the share of `core.build` spent deriving the job tarball.
pub fn template_ms(cfg: &ExperimentConfig) -> f64 {
    1e3 * median_secs(3, || {
        drop(std::hint::black_box(JobTemplate::build(cfg.job.clone())))
    })
}

/// Per-layer metrics shared by the campaign workloads.
fn campaign_layers(spans: &[Span], root: &str, counts: Counts, layers: &mut BTreeMap<String, f64>) {
    for (name, ms) in layer_ms_per_root(spans, root) {
        if name != root {
            layers.insert(format!("{name}_ms"), ms);
        }
    }
    if let Some(host_step) = layers.get("phase.host-step_ms") {
        if counts.host_ticks > 0 {
            layers.insert(
                "phase.host-step_ns_per_host_tick".to_string(),
                host_step * 1e6 / counts.host_ticks as f64,
            );
        }
    }
    counts.into_layers(layers);
    if let Some(share) = unaccounted_share(spans, &[root]) {
        layers.insert("trace.unaccounted_share".to_string(), share);
    }
}

/// Byte-identity and paper checks across repeated campaigns of one seed.
struct Checks {
    seed: u64,
    reference: Option<String>,
    failures: Vec<String>,
}

impl Checks {
    fn new(seed: u64) -> Checks {
        Checks {
            seed,
            reference: None,
            failures: Vec::new(),
        }
    }

    /// Check one campaign; false if it failed.
    fn campaign(&mut self, c: &Campaign, paper: bool) -> bool {
        let before = self.failures.len();
        match &self.reference {
            None => self.reference = Some(c.summary_json.clone()),
            Some(r) if *r != c.summary_json => self
                .failures
                .push("repeat of the same seed gave a different summary".to_string()),
            Some(_) => {}
        }
        if paper {
            if self.seed == 42 && fnv1a(c.summary_json.as_bytes()) != PAPER_SUMMARY_GOLDEN {
                self.failures
                    .push("seed-42 summary does not match the paper golden hash".to_string());
            }
            if c.wrong_hashes != PAPER_WRONG_HASHES || c.t2_wrong_hashes != Some(PAPER_WRONG_HASHES)
            {
                self.failures.push(format!(
                    "T2 reports {:?} wrong md5sums (results hold {}), paper: {PAPER_WRONG_HASHES}",
                    c.t2_wrong_hashes, c.wrong_hashes
                ));
            }
        }
        self.failures.len() == before
    }
}

/// Run campaigns of `cfg` one after another for `seconds` (at least
/// `min_campaigns`). Traced runs alternate traced and untraced campaigns,
/// so the difference of their medians is the tracing overhead.
fn sequential(
    seed: u64,
    seconds: f64,
    traced: bool,
    min_campaigns: u64,
    cfg: impl Fn() -> ExperimentConfig,
    shape: Shape,
    paper: bool,
) -> Outcome {
    let setup_s = setup_s(&cfg, shape);
    let rec = Recorder::new();
    let mut checks = Checks::new(seed);
    let (mut wall_plain, mut wall_traced, mut to_summary) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut counts = Counts::default();
    let started = Instant::now();
    let mut i = 0u64;
    while i < min_campaigns || started.elapsed().as_secs_f64() < seconds {
        let armed = traced && i.is_multiple_of(2);
        let r = armed.then_some(&rec);
        attempted += 1;
        let ran = catch_unwind(AssertUnwindSafe(|| run_campaign(cfg(), shape, r, 0, i)));
        match ran {
            Ok(c) => {
                if !checks.campaign(&c, paper) {
                    failed += 1;
                }
                if armed {
                    wall_traced.push(c.wall_s);
                    counts = c.counts;
                } else {
                    wall_plain.push(c.wall_s);
                    to_summary.push(c.to_summary_s);
                }
            }
            Err(_) => {
                failed += 1;
                checks.failures.push(format!("campaign {i} panicked"));
            }
        }
        i += 1;
    }
    let loop_s = started.elapsed().as_secs_f64();
    let mut out = Outcome::new(attempted, failed, setup_s, checks.failures);
    if !wall_plain.is_empty() {
        out.e2e("p50_ms", median(&wall_plain) * 1e3);
        out.e2e("miss_p50_ms", median(&to_summary) * 1e3);
        out.e2e("campaigns_per_s", attempted as f64 / loop_s);
    }
    if traced {
        let spans = rec.take();
        campaign_layers(&spans, "campaign", counts, &mut out.layers);
        if !wall_plain.is_empty() && !wall_traced.is_empty() {
            out.layers.insert(
                "trace.overhead_ratio".to_string(),
                median(&wall_traced) / median(&wall_plain) - 1.0,
            );
        }
        out.layers
            .insert("workload.template_ms".to_string(), template_ms(&cfg()));
        out.spans = spans;
    }
    out
}

/// The scripted paper campaign (Feb 12 – May 13, 19 hosts, 20-minute
/// collection), one after another on one thread, each rendered to
/// T1–T3 and Fig. 3/4.
pub fn paper_campaign(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let shape = Shape {
        observe: false,
        render: true,
    };
    sequential(
        seed,
        seconds,
        traced,
        2,
        || ExperimentConfig::paper_scripted(seed),
        shape,
        true,
    )
}

/// One stochastic day of a 10,000-host vendor-mix fleet with the
/// observatory armed.
pub fn fleet_day(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let cfg = || {
        let start = SimTime::from_date(2010, 3, 27);
        ExperimentConfig {
            fault_mode: FaultMode::Stochastic,
            fleet: FleetSpec::VendorMix { hosts: FLEET_HOSTS },
            start,
            end: start + SimDuration::days(1),
            ..ExperimentConfig::paper_scripted(seed)
        }
    };
    let shape = Shape {
        observe: true,
        render: false,
    };
    sequential(seed, seconds, traced, 2, cfg, shape, false)
}

/// Campaign `i` of the sweep that starts at `seed_start`: a stochastic
/// 19-host week from Mar 27, after the last install.
fn sweep_config(seed_start: u64, i: u64) -> ExperimentConfig {
    let start = SimTime::from_date(2010, 3, 27);
    ExperimentConfig {
        fault_mode: FaultMode::Stochastic,
        start,
        end: start + SimDuration::days(7),
        ..ExperimentConfig::paper_scripted(seed_start + i)
    }
}

/// One sweep's result.
struct Sweep {
    invariant_json: String,
    wall_s: f64,
    /// Per-campaign wall time on its worker, seconds.
    campaign_s: Vec<f64>,
    counts: Counts,
}

/// One sweep of [`SWEEP_CAMPAIGNS`] campaigns through the ensemble
/// engine at `threads` (0 = all cores), folded in seed order.
fn sweep(seed_start: u64, threads: usize, rec: Option<&Recorder>, key: u64) -> Sweep {
    let shape = Shape {
        observe: false,
        render: false,
    };
    let ensemble = Ensemble::new(SWEEP_CAMPAIGNS).threads(threads);
    let used = ensemble.effective_threads();
    let started = Instant::now();
    let mut agg = CampaignAggregate::new();
    let mut campaign_s = Vec::new();
    let mut counts = Counts::default();
    let invariant_json = maybe_span(rec, 0, "sweep", key, |root| {
        ensemble.run_map(
            |i| run_campaign(sweep_config(seed_start, i), shape, rec, root, i),
            |i, c: Campaign| {
                maybe_span(rec, root, "ensemble.absorb", i, |_| agg.absorb(&c.summary));
                campaign_s.push(c.wall_s);
                counts.add(c.counts);
            },
        );
        maybe_span(rec, root, "ensemble.fold", key, |_| {
            agg.finish(seed_start, used)
                .invariant_json()
                .expect("ensemble summary serializes")
        })
    });
    Sweep {
        invariant_json,
        wall_s: started.elapsed().as_secs_f64(),
        campaign_s,
        counts,
    }
}

/// Every sweep of one run must fold to the first sweep's summary; a
/// sweep that panics or differs fails all its campaigns.
#[derive(Default)]
struct SweepChecks {
    reference: Option<String>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl SweepChecks {
    fn check(&mut self, sweep: &Option<Sweep>, what: &str) {
        self.attempted += SWEEP_CAMPAIGNS;
        let ok = match (sweep, &self.reference) {
            (None, _) => false,
            (Some(s), None) => {
                self.reference = Some(s.invariant_json.clone());
                true
            }
            (Some(s), Some(r)) => s.invariant_json == *r,
        };
        if !ok {
            self.failed += SWEEP_CAMPAIGNS;
            self.failures.push(format!(
                "{what} sweep panicked or folded to a different summary"
            ));
        }
    }

    fn outcome(self, setup_s: f64) -> Outcome {
        Outcome::new(self.attempted, self.failed, setup_s, self.failures)
    }
}

/// 32 stochastic 19-host weeks through the ensemble engine at all
/// cores, sweep after sweep over the same seed range; every sweep must
/// fold to the same invariant summary. The traced run adds an untraced
/// and a traced sweep on one thread, which must fold to it as well.
pub fn sweep_week(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let seed_start = seed.wrapping_mul(SWEEP_CAMPAIGNS);
    let shape = Shape {
        observe: false,
        render: false,
    };
    let setup_s = setup_s(|| sweep_config(seed_start, 0), shape);
    let run = |threads: usize, rec: Option<&Recorder>, key: u64| {
        catch_unwind(AssertUnwindSafe(|| sweep(seed_start, threads, rec, key))).ok()
    };
    let mut checks = SweepChecks::default();
    let started = Instant::now();

    if !traced {
        let (mut walls, mut per_campaign) = (Vec::new(), Vec::new());
        let mut n = 0;
        while n < 2 || started.elapsed().as_secs_f64() < seconds {
            n += 1;
            let s = run(0, None, 0);
            checks.check(&s, "parallel");
            if let Some(s) = s {
                walls.push(s.wall_s);
                per_campaign.extend(s.campaign_s);
            }
        }
        let mut out = checks.outcome(setup_s);
        if !walls.is_empty() {
            out.e2e("p50_ms", median(&per_campaign) * 1e3);
            out.e2e("miss_p50_ms", median(&walls) * 1e3);
            let rates: Vec<f64> = walls.iter().map(|w| SWEEP_CAMPAIGNS as f64 / w).collect();
            out.e2e("campaigns_per_s", median(&rates));
        }
        return out;
    }

    // Traced: the all-core sweep is the reference the one-thread sweeps
    // must reproduce; its busy time against threads × wall gives the
    // engine's idle share.
    let parallel = run(0, None, 0);
    checks.check(&parallel, "parallel");
    let threads = Ensemble::new(SWEEP_CAMPAIGNS)
        .threads(0)
        .effective_threads() as f64;
    let idle_share = parallel
        .as_ref()
        .map(|s| 1.0 - s.campaign_s.iter().sum::<f64>() / (threads * s.wall_s));
    let rec = Recorder::new();
    let (mut plain, mut armed) = (Vec::new(), Vec::new());
    let mut counts = Counts::default();
    let mut key = 0;
    while key == 0 || started.elapsed().as_secs_f64() < seconds {
        let p = run(1, None, key);
        checks.check(&p, "one-thread");
        plain.extend(p.map(|s| s.wall_s));
        let t = run(1, Some(&rec), key);
        checks.check(&t, "traced one-thread");
        if let Some(t) = t {
            armed.push(t.wall_s);
            counts = t.counts;
        }
        key += 1;
    }
    let mut out = checks.outcome(setup_s);
    let spans = rec.take();
    campaign_layers(&spans, "sweep", counts, &mut out.layers);
    if let Some(idle) = idle_share {
        out.layers.insert("ensemble.idle_share".to_string(), idle);
    }
    if !plain.is_empty() && !armed.is_empty() {
        out.layers.insert(
            "trace.overhead_ratio".to_string(),
            median(&armed) / median(&plain) - 1.0,
        );
    }
    out.layers.insert(
        "workload.template_ms".to_string(),
        template_ms(&sweep_config(seed_start, 0)),
    );
    out.spans = spans;
    out
}
