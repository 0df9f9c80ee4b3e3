//! frostbench — the repository's benchmark.
//!
//! ```sh
//! cargo run -q --release --offline --manifest-path frostbench/Cargo.toml -- \
//!     --workload paper_campaign --seed 42 --seconds 15 --trace 0
//! ```
//!
//! Runs one workload for `--seconds`, checks its outputs, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones,
//! measured untraced; with `--trace 1` they are the per-layer ones from a
//! traced run, whose self-time table is printed above the result and
//! whose spans are written to `.bench_trace/`. `frostbench/README.md`
//! lists the workloads, metrics and which layer should move which metric.

mod campaign;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;

use trace::Span;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("campaigns_per_s", "1/s"),
];

/// Per-layer metrics of a traced run. A layer a workload does not reach
/// reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("core.build_ms", "ms"),
    ("workload.template_ms", "ms"),
    ("phase.weather_ms", "ms"),
    ("phase.enclosure-thermal_ms", "ms"),
    ("phase.logger-poll_ms", "ms"),
    ("phase.script_ms", "ms"),
    ("phase.host-step_ms", "ms"),
    ("phase.collection_ms", "ms"),
    ("phase.power-integration_ms", "ms"),
    ("phase.observe_ms", "ms"),
    ("phase.host-step_ns_per_host_tick", "ns"),
    ("core.run_ms", "ms"),
    ("core.finish_ms", "ms"),
    ("core.summary_ms", "ms"),
    ("core.render_ms", "ms"),
    ("ensemble.absorb_ms", "ms"),
    ("ensemble.fold_ms", "ms"),
    ("ensemble.idle_share", "ratio"),
    ("exec.matrix_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.fetch_ms", "ms"),
    ("server.read_ms", "ms"),
    ("server.read_p99_ms", "ms"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.dedup_total", "count"),
    ("server.shed_total", "count"),
    ("loadgen.late_ratio", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("workload.runs", "count"),
    ("netsim.collects", "count"),
    ("netsim.bytes", "bytes"),
    ("faults.wrong_hashes", "count"),
    ("core.host_ticks", "count"),
    ("exec.simulated", "count"),
    ("exec.cache_hits", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_share", "ratio"),
];

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    setup_s: f64,
    failures: Vec<String>,
    e2e: BTreeMap<&'static str, f64>,
    layers: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

impl Outcome {
    fn new(attempted: u64, failed: u64, setup_s: f64, failures: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failed,
            setup_s,
            failures,
            ..Outcome::default()
        }
    }

    fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }
}

/// FNV-1a 64-bit, the repository's golden-hash function.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

/// A workload: `(seed, seconds, traced)` → what it measured.
type Workload = fn(u64, f64, bool) -> Outcome;

const WORKLOADS: [(&str, Workload); 4] = [
    ("paper_campaign", campaign::paper_campaign),
    ("sweep_week", campaign::sweep_week),
    ("fleet_day", campaign::fleet_day),
    ("serve_mix", serve::serve_mix),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => {
                seed = val
                    .parse()
                    .map_err(|_| format!("--seed: not a u64: {val}"))?
            }
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds: not a positive number: {val}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: 0 or 1, not {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `nproc`, CPU model and compiler: recorded with every result.
fn host() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{}}}",
        trace::json_str(&cpu),
        trace::json_str(env!("FROSTBENCH_RUSTC"))
    )
}

/// A metric value as JSON: every digit, and never a bare NaN.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn write_spans(args: &Args, host: &str, spans: &[Span]) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_trace")?;
    let path = format!(".bench_trace/{}-seed{}.jsonl", args.workload, args.seed);
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"host\":{host}}}")?;
    for s in spans {
        writeln!(f, "{}", trace::span_json(s))?;
    }
    f.flush()?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("frostbench: {e}");
            eprintln!(
                "usage: frostbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|w| w.0).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(&(_, run)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("frostbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let host = host();
    println!("host {host}");

    let mut out = run(args.seed, args.seconds, args.trace);
    out.e2e("setup_s", out.setup_s);
    out.e2e("peak_rss_mb", peak_rss_mb());
    out.e2e(
        "ok_ratio",
        (out.attempted - out.failed.min(out.attempted)) as f64 / out.attempted.max(1) as f64,
    );

    if args.trace {
        println!(
            "per-layer self time, {} ({} spans):",
            args.workload,
            out.spans.len()
        );
        print!("{}", trace::self_time_table(&out.spans));
        match write_spans(&args, &host, &out.spans) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => eprintln!("frostbench: writing spans: {e}"),
        }
    } else {
        for (name, _) in END_TO_END {
            if !out.e2e.contains_key(name) {
                out.failures.push(format!("{name} was not measured"));
            }
        }
    }
    for f in &out.failures {
        println!("CHECK FAILED: {f}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let value = |name: &str| {
        if args.trace {
            out.layers.get(name).copied()
        } else {
            out.e2e.get(name).copied()
        }
    };
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                trace::json_str(name),
                num(value(name).unwrap_or(0.0)),
                trace::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
