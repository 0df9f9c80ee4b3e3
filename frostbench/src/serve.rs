//! `serve_mix`: an in-process frostlabd under an open-loop request mix.
//!
//! Two sender threads follow a schedule drawn from the workload seed and
//! send each request at its due time, whether or not earlier requests
//! have been answered (an open loop: independent users). Latency runs
//! from the due time, so a stalled sender charges its stall to every
//! request queued behind it, and the lag between due and sent time is
//! reported as the generator's own lateness.
//!
//! - Reads ([`READ_RATE`] per second) hit a job set warmed during
//!   set-up: a status poll, the summary artifact, or a deduplicated
//!   resubmission, each byte-compared with the response captured then.
//! - Misses (one every [`MISS_PERIOD_S`] seconds) submit a fresh 2-seed
//!   week of the `helsinki` scenario, long-poll it to completion and
//!   fetch its summary, which must equal the in-process ensemble's.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use frostlab_core::{MatrixSpec, ScenarioSpec};
use frostlab_ensemble::run_matrix_sweep;
use frostlab_service::client::{self, ClientResponse};
use frostlab_service::exec::execute_matrix;
use frostlab_service::{ResultCache, Server, ServerConfig};

use crate::campaign::template_ms;
use crate::stats::{highest_supported, median, median_secs, tail_percentile};
use crate::trace::{layer_ms_per_root, unaccounted_share, Recorder, Span};
use crate::Outcome;

/// Offered read rate, requests per second.
pub const READ_RATE: f64 = 100.0;
/// Seconds between cache-miss submissions.
pub const MISS_PERIOD_S: f64 = 1.0;
/// Seeds per miss matrix.
const MISS_SEEDS: u64 = 2;
/// A request sent this long after its due time counts as late.
const LATE_NS: u64 = 1_000_000;
/// Set-ups timed to give `setup_s` (their median); the last one serves.
const SETUP_REPEATS: usize = 5;
const READ_TIMEOUT: Duration = Duration::from_secs(10);
const MISS_TIMEOUT: Duration = Duration::from_secs(40);

/// What a scheduled request does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET /v1/jobs/{id}` on the warm job.
    Status,
    /// `GET /v1/jobs/{id}/summary` on the warm job.
    Summary,
    /// `POST /v1/scenarios` of the warm matrix again.
    Dedup,
    /// Submit, long-poll and fetch miss matrix number `n`.
    Miss(u64),
}

/// One scheduled request: due `at_ns` after the window opens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Due {
    /// Nanoseconds from the start of the window.
    pub at_ns: u64,
    /// The request.
    pub op: Op,
}

/// SplitMix64: a small, seedable generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The read and miss schedules of a `seconds`-long window, from `seed`.
///
/// Both run at a constant rate after a seeded offset, reads `read_rate`
/// per second with a seeded route, misses one per `miss_period_s`. A
/// constant rate keeps the one read sender on schedule whenever a read
/// takes less than the gap between two reads, so any lateness it reports
/// comes from the system under test, not from bunched arrivals.
pub fn schedule(
    seed: u64,
    seconds: f64,
    read_rate: f64,
    miss_period_s: f64,
) -> (Vec<Due>, Vec<Due>) {
    let mut rng = Rng(seed ^ 0x005e_ed0f_5e7e);
    let end_ns = (seconds * 1e9) as u64;
    let at = |offset: f64, period: f64, n: u64| ((offset + n as f64 * period) * 1e9) as u64;
    let read_offset = rng.unit() / read_rate;
    let reads = (0..)
        .map(|n| Due {
            at_ns: at(read_offset, 1.0 / read_rate, n),
            op: match rng.next() % 3 {
                0 => Op::Status,
                1 => Op::Summary,
                _ => Op::Dedup,
            },
        })
        .take_while(|d| d.at_ns < end_ns)
        .collect();
    let miss_offset = rng.unit() * miss_period_s;
    let misses = (0..)
        .map(|n| Due {
            at_ns: at(miss_offset, miss_period_s, n),
            op: Op::Miss(n),
        })
        .take_while(|d| d.at_ns < end_ns)
        .collect();
    (reads, misses)
}

/// The warm job set the reads go to.
fn warm_matrix(seed: u64) -> MatrixSpec {
    MatrixSpec {
        scenarios: vec![ScenarioSpec::new("serve-warm", 1, "helsinki")],
        seed_start: seed.wrapping_mul(1_000_000),
        seeds: 2,
    }
}

/// Miss number `n`: the documented example's shape, a fresh seed range.
fn miss_matrix(seed: u64, n: u64) -> MatrixSpec {
    MatrixSpec {
        scenarios: vec![ScenarioSpec::new("helsinki-week", 7, "helsinki")],
        seed_start: seed.wrapping_mul(1_000_000) + 1_000 + n * MISS_SEEDS,
        seeds: MISS_SEEDS,
    }
}

fn job_id(body: &str) -> Option<String> {
    body.split("\"job_id\"")
        .nth(1)
        .and_then(|rest| rest.split('"').nth(1))
        .map(str::to_string)
}

/// A server with the warm job done, and the bytes each read must return.
struct Warm {
    server: Server,
    job: String,
    body: String,
    status: Vec<u8>,
    summary: Vec<u8>,
    dedup: Vec<u8>,
}

fn ok(r: &std::io::Result<ClientResponse>) -> Option<&ClientResponse> {
    r.as_ref().ok().filter(|r| (200..300).contains(&r.status))
}

/// Start a server, run the warm job to completion and capture the read
/// responses.
fn warm_up(seed: u64) -> Result<Warm, String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let body = warm_matrix(seed).to_json().expect("matrix serializes");
    let warmed = (|| {
        let submit = client::post_json(addr, "/v1/scenarios", &body, MISS_TIMEOUT);
        let job = ok(&submit)
            .and_then(|r| job_id(r.text()))
            .ok_or("warm submit failed")?;
        let done = client::get(addr, &format!("/v1/jobs/{job}?wait_s=30"), MISS_TIMEOUT);
        if !ok(&done).is_some_and(|r| r.text().contains("\"done\"")) {
            return Err("warm job did not finish");
        }
        let fetch = |target: String| {
            let r = client::get(addr, &target, READ_TIMEOUT);
            ok(&r).map(|r| r.body.clone()).ok_or("warm read failed")
        };
        let status = fetch(format!("/v1/jobs/{job}"))?;
        let summary = fetch(format!("/v1/jobs/{job}/summary"))?;
        let dedup = client::post_json(addr, "/v1/scenarios", &body, READ_TIMEOUT);
        let dedup = ok(&dedup)
            .map(|r| r.body.clone())
            .ok_or("warm resubmit failed")?;
        Ok((job, status, summary, dedup))
    })();
    match warmed {
        Ok((job, status, summary, dedup)) => Ok(Warm {
            server,
            job,
            body,
            status,
            summary,
            dedup,
        }),
        Err(e) => {
            server.shutdown();
            Err(e.to_string())
        }
    }
}

/// One request as it happened.
#[derive(Debug, Clone)]
struct Sample {
    op: Op,
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    traced: bool,
    /// Miss only: submit answered, job done (long-poll returned).
    submitted: Option<Instant>,
    finished: Option<Instant>,
    /// Miss only: the fetched summary bytes.
    summary: Option<Vec<u8>>,
}

/// Send one read.
fn read(warm: &Warm, addr: SocketAddr, op: Op) -> bool {
    let (r, want) = match op {
        Op::Status => (
            client::get(addr, &format!("/v1/jobs/{}", warm.job), READ_TIMEOUT),
            &warm.status,
        ),
        Op::Summary => (
            client::get(
                addr,
                &format!("/v1/jobs/{}/summary", warm.job),
                READ_TIMEOUT,
            ),
            &warm.summary,
        ),
        Op::Dedup => (
            client::post_json(addr, "/v1/scenarios", &warm.body, READ_TIMEOUT),
            &warm.dedup,
        ),
        Op::Miss(_) => unreachable!("misses go through `miss`"),
    };
    ok(&r).is_some_and(|r| r.body == *want)
}

/// Submit, long-poll and fetch one miss; fills the miss fields of `s`.
fn miss(seed: u64, n: u64, addr: SocketAddr, s: &mut Sample) -> bool {
    let body = miss_matrix(seed, n).to_json().expect("matrix serializes");
    let submit = client::post_json(addr, "/v1/scenarios", &body, MISS_TIMEOUT);
    s.submitted = Some(Instant::now());
    let Some(job) = ok(&submit)
        .filter(|r| r.status == 202)
        .and_then(|r| job_id(r.text()))
    else {
        return false;
    };
    let done = client::get(addr, &format!("/v1/jobs/{job}?wait_s=30"), MISS_TIMEOUT);
    s.finished = Some(Instant::now());
    if !ok(&done).is_some_and(|r| r.text().contains("\"done\"")) {
        return false;
    }
    let summary = client::get(addr, &format!("/v1/jobs/{job}/summary"), MISS_TIMEOUT);
    match ok(&summary) {
        Some(r) => {
            s.summary = Some(r.body.clone());
            true
        }
        None => false,
    }
}

/// Follow `plan` from `t0`, sending each request at its due time.
fn send_all(plan: &[Due], t0: Instant, seed: u64, warm: &Warm, traced: bool) -> Vec<Sample> {
    let addr = warm.server.addr();
    let mut out = Vec::with_capacity(plan.len());
    for (i, d) in plan.iter().enumerate() {
        let due = t0 + Duration::from_nanos(d.at_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let mut s = Sample {
            op: d.op,
            due,
            sent: Instant::now(),
            done: due,
            ok: false,
            // Misses are all traced; reads alternate, so traced and
            // untraced reads of one window give the tracing overhead.
            traced: traced && (matches!(d.op, Op::Miss(_)) || i % 2 == 0),
            submitted: None,
            finished: None,
            summary: None,
        };
        s.ok = match d.op {
            Op::Miss(n) => miss(seed, n, addr, &mut s),
            op => read(warm, addr, op),
        };
        s.done = Instant::now();
        out.push(s);
    }
    out
}

/// Spans of the traced samples: a root per request with the sender's
/// lag and the calls under it.
fn record(rec: &Recorder, samples: &[Sample]) {
    for (key, s) in samples.iter().enumerate().filter(|(_, s)| s.traced) {
        let key = key as u64;
        let root = rec.alloc();
        let is_miss = matches!(s.op, Op::Miss(_));
        rec.interval(
            root,
            0,
            if is_miss { "miss" } else { "read" },
            key,
            s.due,
            s.done,
        );
        rec.interval(rec.alloc(), root, "loadgen.lag", key, s.due, s.sent);
        match (s.submitted, s.finished) {
            (Some(sub), fin) if is_miss => {
                rec.interval(rec.alloc(), root, "service.submit", key, s.sent, sub);
                if let Some(fin) = fin {
                    rec.interval(rec.alloc(), root, "service.wait", key, sub, fin);
                    rec.interval(rec.alloc(), root, "service.fetch", key, fin, s.done);
                }
            }
            _ => rec.interval(rec.alloc(), root, "server.read", key, s.sent, s.done),
        }
    }
}

/// Counter `name` (with its label set, if any) from a Prometheus scrape.
fn counter(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(k, _)| *k == name)
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}

/// The in-process ensemble's bytes for `m`, as the summary route serves
/// them.
fn reference_summary(m: &MatrixSpec) -> Option<Vec<u8>> {
    let s = run_matrix_sweep(m, 1).ok()?;
    Some(format!("{}\n", s.invariant_json().ok()?).into_bytes())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run the open-loop mix for `seconds`.
pub fn serve_mix(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut setups = Vec::new();
    let mut warm: Option<Warm> = None;
    let mut failures = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let w = warm_up(seed);
        setups.push(t.elapsed().as_secs_f64());
        if let Some(old) = warm.take() {
            old.server.shutdown();
        }
        match w {
            Ok(w) => warm = Some(w),
            Err(e) => failures.push(e),
        }
    }
    let setup_s = median(&setups);
    let Some(warm) = warm else {
        return Outcome::new(1, 1, setup_s, failures);
    };

    let (reads, misses) = schedule(seed, seconds, READ_RATE, MISS_PERIOD_S);
    let rec = Recorder::new();
    let t0 = Instant::now() + Duration::from_millis(20);
    let (read_samples, miss_samples) = std::thread::scope(|scope| {
        let r = scope.spawn(|| send_all(&reads, t0, seed, &warm, traced));
        let m = scope.spawn(|| send_all(&misses, t0, seed, &warm, traced));
        (
            r.join().expect("read sender panicked"),
            m.join().expect("miss sender panicked"),
        )
    });
    let addr = warm.server.addr();
    let scrape = client::get(addr, "/metrics", READ_TIMEOUT)
        .ok()
        .map(|r| r.text().to_string())
        .unwrap_or_default();

    // Every miss summary must equal the in-process ensemble's; the
    // untraced run checks the first, the traced run all of them.
    let mut exec_ms = Vec::new();
    let mut miss_checked = vec![true; miss_samples.len()];
    for (i, s) in miss_samples.iter().enumerate() {
        let (Op::Miss(n), Some(got)) = (s.op, &s.summary) else {
            continue;
        };
        if !traced && i > 0 {
            break;
        }
        let m = miss_matrix(seed, n);
        miss_checked[i] = reference_summary(&m).as_ref() == Some(got);
        if traced {
            let t = Instant::now();
            let cold = execute_matrix(&m, &ResultCache::new(), &|_| {});
            exec_ms.push((i, ms(t.elapsed())));
            if cold.is_err() {
                miss_checked[i] = false;
            }
        }
    }

    let attempted = (read_samples.len() + miss_samples.len()) as u64;
    let mut failed = read_samples.iter().filter(|s| !s.ok).count() as u64;
    for (s, checked) in miss_samples.iter().zip(&miss_checked) {
        if !s.ok || !checked {
            failed += 1;
        }
    }
    if failed > 0 {
        failures.push(format!(
            "{failed} of {attempted} requests failed or returned wrong bytes"
        ));
    }
    let mut out = Outcome::new(attempted.max(1), failed, setup_s, failures);

    let latency = |s: &Sample| ms(s.done - s.due);
    let read_ms: Vec<f64> = read_samples.iter().filter(|s| s.ok).map(latency).collect();
    let miss_ms: Vec<f64> = miss_samples.iter().filter(|s| s.ok).map(latency).collect();

    if !traced {
        if !read_ms.is_empty() {
            out.e2e("p50_ms", median(&read_ms));
        }
        if !miss_ms.is_empty() {
            out.e2e("miss_p50_ms", median(&miss_ms));
        }
        if let Some(last) = miss_samples.iter().filter(|s| s.ok).map(|s| s.done).max() {
            let campaigns = miss_ms.len() as f64 * MISS_SEEDS as f64;
            out.e2e("campaigns_per_s", campaigns / (last - t0).as_secs_f64());
        }
    } else {
        record(&rec, &read_samples);
        record(&rec, &miss_samples);
        let spans: Vec<Span> = rec.take();
        let layers = &mut out.layers;
        for root in ["read", "miss"] {
            for (name, v) in layer_ms_per_root(&spans, root) {
                layers.insert(format!("{name}_ms"), v);
            }
        }
        if !exec_ms.is_empty() {
            let exec: Vec<f64> = exec_ms.iter().map(|&(_, v)| v).collect();
            layers.insert("exec.matrix_ms".to_string(), median(&exec));
            let queue: Vec<f64> = exec_ms
                .iter()
                .filter_map(|&(i, e)| {
                    let s = &miss_samples[i];
                    Some(ms(s.finished? - s.submitted?) - e)
                })
                .collect();
            if !queue.is_empty() {
                layers.insert("service.queue_wait_ms".to_string(), median(&queue));
            }
        }
        let (armed, plain): (Vec<&Sample>, Vec<&Sample>) =
            read_samples.iter().filter(|s| s.ok).partition(|s| s.traced);
        if !armed.is_empty() && !plain.is_empty() {
            let armed: Vec<f64> = armed.into_iter().map(latency).collect();
            let plain: Vec<f64> = plain.into_iter().map(latency).collect();
            layers.insert(
                "trace.overhead_ratio".to_string(),
                median(&armed) / median(&plain) - 1.0,
            );
        }
        if let Some(u) = unaccounted_share(&spans, &["read", "miss"]) {
            layers.insert("trace.unaccounted_share".to_string(), u);
        }
        let m = miss_matrix(seed, 0);
        let job = &m.expand()[0];
        let cfg = job
            .scenario
            .to_config(job.seed)
            .expect("miss matrix is valid");
        layers.insert("workload.template_ms".to_string(), template_ms(&cfg));
        layers.insert(
            "core.build_ms".to_string(),
            1e3 * median_secs(3, || {
                drop(std::hint::black_box(job.scenario.build(job.seed)))
            }),
        );
        out.spans = spans;
    }

    // Read and generator tails over every request of the window.
    let p = highest_supported(read_ms.len()).unwrap_or(0.5);
    if p < 0.99 {
        eprintln!(
            "serve_mix: {} reads support only p{}; reporting that as the read tail",
            read_ms.len(),
            p * 100.0
        );
    }
    if let Some(v) = tail_percentile(&read_ms, p) {
        out.layers.insert("server.read_p99_ms".to_string(), v);
    }
    let lags: Vec<u64> = read_samples
        .iter()
        .chain(&miss_samples)
        .map(|s| (s.sent - s.due).as_nanos() as u64)
        .collect();
    let late = lags.iter().filter(|&&l| l > LATE_NS).count();
    out.layers.insert(
        "loadgen.late_ratio".to_string(),
        late as f64 / lags.len().max(1) as f64,
    );
    let lag_ms: Vec<f64> = lags.iter().map(|&l| l as f64 / 1e6).collect();
    if let Some(p) = highest_supported(lag_ms.len()) {
        if let Some(v) = tail_percentile(&lag_ms, p) {
            out.layers.insert("loadgen.lag_p99_ms".to_string(), v);
        }
    }
    let simulated = counter(&scrape, "frostlab_campaigns_total{kind=\"simulated\"}");
    let cached = counter(&scrape, "frostlab_campaigns_total{kind=\"cached\"}");
    for (name, v) in [
        ("exec.simulated", simulated),
        ("exec.cache_hits", cached),
        (
            "server.cache_hit_ratio",
            cached / (simulated + cached).max(1.0),
        ),
        (
            "server.dedup_total",
            counter(&scrape, "frostlab_submissions_deduplicated_total"),
        ),
        (
            "server.shed_total",
            counter(&scrape, "frostlab_submissions_shed_total"),
        ),
    ] {
        out.layers.insert(name.to_string(), v);
    }
    warm.server.shutdown();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = schedule(7, 5.0, READ_RATE, MISS_PERIOD_S);
        let b = schedule(7, 5.0, READ_RATE, MISS_PERIOD_S);
        assert_eq!(a, b);
        let c = schedule(8, 5.0, READ_RATE, MISS_PERIOD_S);
        assert_ne!(a.0, c.0, "another seed gives another read schedule");
    }

    #[test]
    fn schedule_keeps_its_rates_and_window() {
        let (reads, misses) = schedule(3, 20.0, READ_RATE, MISS_PERIOD_S);
        assert_eq!(reads.len(), 2000);
        assert!(reads.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(reads.iter().all(|d| d.at_ns < 20_000_000_000));
        for op in [Op::Status, Op::Summary, Op::Dedup] {
            let n = reads.iter().filter(|d| d.op == op).count();
            assert!(n > 500, "{op:?}: {n}");
        }
        assert_eq!(misses.len(), 20);
        for (n, d) in misses.iter().enumerate() {
            assert_eq!(d.op, Op::Miss(n as u64));
        }
        assert!(misses
            .windows(2)
            .all(|w| (w[1].at_ns - w[0].at_ns).abs_diff(1_000_000_000) <= 1));
    }

    #[test]
    fn miss_matrices_never_share_seeds() {
        let warm = warm_matrix(5);
        let seeds = |m: &MatrixSpec| m.seed_start..m.seed_start + m.seeds;
        let mut all: Vec<u64> = seeds(&warm).collect();
        for n in 0..100 {
            all.extend(seeds(&miss_matrix(5, n)));
        }
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len);
    }

    #[test]
    fn counters_are_read_from_a_scrape() {
        let text = "# TYPE frostlab_campaigns_total counter\n\
                    frostlab_campaigns_total{kind=\"cached\"} 3\n\
                    frostlab_campaigns_total{kind=\"simulated\"} 12\n\
                    frostlab_submissions_shed_total 0\n";
        assert_eq!(
            counter(text, "frostlab_campaigns_total{kind=\"simulated\"}"),
            12.0
        );
        assert_eq!(
            counter(text, "frostlab_campaigns_total{kind=\"cached\"}"),
            3.0
        );
        assert_eq!(
            counter(text, "frostlab_submissions_deduplicated_total"),
            0.0
        );
    }
}
