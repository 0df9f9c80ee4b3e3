//! `frostlabd` — the scenario-serving daemon.
//!
//! Binds the configured address, spawns the simulation worker pool, and
//! serves the `/v1` API until killed. All knobs are flags; the daemon
//! reads no config files and writes nothing to disk — artifacts live in
//! memory and are served over HTTP.
//!
//! ```sh
//! frostlabd [--addr HOST:PORT] [--workers N] [--queue-cap N]
//!           [--max-body-kib N] [--validate-prom FILE]
//! ```
//!
//! `--validate-prom FILE` is an offline mode: lint FILE as Prometheus
//! text exposition (the same checker the tracer's CI gate uses) and exit
//! 0/1 — it never binds a socket. The `service-smoke` CI job runs it
//! against a live `/metrics` scrape.

use std::time::Duration;

use frostlab_service::{Server, ServerConfig};
use frostlab_trace::export::validate_prometheus;

fn usage() -> ! {
    eprintln!(
        "usage: frostlabd [--addr HOST:PORT] [--workers N] [--queue-cap N] \
         [--max-body-kib N] [--validate-prom FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::default();
    let mut validate: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => config.addr = val(),
            "--workers" => config.sim_workers = val().parse().unwrap_or_else(|_| usage()),
            "--queue-cap" => config.queue_capacity = val().parse().unwrap_or_else(|_| usage()),
            "--max-body-kib" => {
                let kib: usize = val().parse().unwrap_or_else(|_| usage());
                // A wrapped product would cap bodies at a few bytes (or 0)
                // and turn every POST into a 413.
                config.max_body_bytes = kib.checked_mul(1024).unwrap_or_else(|| usage());
            }
            "--validate-prom" => validate = Some(val()),
            _ => usage(),
        }
    }

    if let Some(path) = validate {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        let errors = validate_prometheus(&text);
        if errors.is_empty() {
            println!("{path}: valid Prometheus exposition");
            return;
        }
        for e in &errors {
            eprintln!("{path}: {e}");
        }
        std::process::exit(1);
    }

    let server = Server::start(config).unwrap_or_else(|e| panic!("bind failed: {e}"));
    eprintln!("frostlabd serving on http://{}", server.addr());
    eprintln!("  POST /v1/scenarios        submit a MatrixSpec manifest");
    eprintln!("  GET  /v1/jobs/{{id}}        poll status (?wait_s=N long-poll)");
    eprintln!("  GET  /v1/jobs/{{id}}/summary|trace.jsonl|perfetto.json|alerts.json");
    eprintln!("  GET  /metrics             Prometheus exposition");
    eprintln!("  GET  /healthz             liveness");

    // Serve until the process is killed; the acceptor owns the socket.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
