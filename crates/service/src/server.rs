//! The daemon: listener, router, simulation worker pool, metrics.
//!
//! Threading model (the container has no async runtime, so concurrency
//! is plain threads — the ISSUE gates determinism of *results*, not the
//! reactor):
//!
//! - One **acceptor** thread owns the listening socket and spawns a
//!   short-lived handler thread per connection. Handlers are cheap: one
//!   request, one response, `Connection: close`; socket read/write
//!   timeouts bound how long a stalled peer can hold one.
//! - A fixed pool of **simulation workers** drains the
//!   [`AdmissionGate`]. All heavy work happens here, so HTTP handling
//!   stays responsive while campaigns run, and total simulation
//!   concurrency is exactly `sim_workers`.
//!
//! Backpressure: when the gate's queue is full, `POST /v1/scenarios`
//! sheds with `429` + `Retry-After` and the registry entry is rolled
//! back, so daemon memory stays bounded by `queue_capacity` plus the
//! result cache — never by client enthusiasm.
//!
//! Shutdown: [`Server::shutdown`] closes the gate (queued jobs drain,
//! new submissions shed), pokes the acceptor awake with a loop-back
//! connection, and joins every thread.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use frostlab_core::MatrixSpec;
use frostlab_trace::export::to_prometheus;
use frostlab_trace::MetricsRegistry;

use crate::api::{ErrorBody, HealthBody, JobStatusBody, SubmitResponse};
use crate::exec::{execute_matrix, ResultCache};
use crate::gate::AdmissionGate;
use crate::http::{read_request, HttpError, Request, Response};
use crate::registry::{job_id, JobEntry, JobRegistry, SubmitOutcome};

/// Longest `wait_s` long-poll honoured by `GET /v1/jobs/{id}`, seconds.
pub const MAX_WAIT_S: u64 = 30;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Simulation worker threads draining the admission queue.
    pub sim_workers: usize,
    /// Admission queue capacity; submissions beyond it shed with 429.
    pub queue_capacity: usize,
    /// Largest accepted request body, bytes.
    pub max_body_bytes: usize,
    /// Socket read/write timeout per connection.
    pub io_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            sim_workers: 2,
            queue_capacity: 16,
            max_body_bytes: 1024 * 1024,
            io_timeout: Duration::from_secs(40),
        }
    }
}

/// Everything the handler threads and workers share.
struct Shared {
    registry: JobRegistry,
    cache: ResultCache,
    gate: AdmissionGate,
    metrics: Mutex<MetricsRegistry>,
    max_body_bytes: usize,
    stopping: AtomicBool,
}

impl Shared {
    fn new(config: &ServerConfig) -> Shared {
        Shared {
            registry: JobRegistry::new(),
            cache: ResultCache::new(),
            gate: AdmissionGate::new(config.queue_capacity),
            metrics: Mutex::new(MetricsRegistry::new()),
            max_body_bytes: config.max_body_bytes,
            stopping: AtomicBool::new(false),
        }
    }

    fn count(&self, name: &str) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .counter_add(name, 1);
    }

    fn count_labeled(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .counter_add_labeled(name, labels, delta);
    }
}

/// A running `frostlabd` instance.
///
/// ```no_run
/// use frostlab_service::{Server, ServerConfig};
///
/// let server = Server::start(ServerConfig {
///     addr: "127.0.0.1:0".to_string(),
///     ..ServerConfig::default()
/// }).expect("bind");
/// println!("serving on http://{}", server.addr());
/// server.shutdown();
/// ```
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the acceptor and the simulation workers, and return.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(&config));

        let workers = (0..config.sim_workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("frostlabd-sim-{i}"))
                    .spawn(move || sim_worker(&shared))
                    .expect("spawn sim worker")
            })
            .collect();

        let acceptor = {
            let shared = shared.clone();
            let io_timeout = config.io_timeout;
            std::thread::Builder::new()
                .name("frostlabd-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, io_timeout))
                .expect("spawn acceptor")
        };

        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with `addr: "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Drain and stop: close the gate (queued jobs still run to
    /// completion, new submissions shed), wake the acceptor, join all
    /// threads.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.gate.close();
        // The acceptor blocks in `accept`; a loop-back connection wakes
        // it so it can observe `stopping` and exit.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, io_timeout: Duration) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        let shared = shared.clone();
        // Handler threads are detached: each lives for exactly one
        // request/response exchange, bounded by the socket timeouts.
        let _ = std::thread::Builder::new()
            .name("frostlabd-conn".to_string())
            .spawn(move || handle_connection(stream, &shared, io_timeout));
    }
}

fn handle_connection(mut stream: TcpStream, shared: &Shared, io_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    let response = match read_request(&mut stream, shared.max_body_bytes) {
        Ok(Some(request)) => handle_request(shared, &request),
        Ok(None) => return, // peer connected and left; nothing to answer
        Err(HttpError::TooLarge { what, limit }) => {
            shared.count("http_rejects_total");
            error_response(
                413,
                "body-too-large",
                format!("{what} exceeds the {limit}-byte cap"),
            )
        }
        Err(HttpError::BadRequest(m)) => {
            shared.count("http_rejects_total");
            error_response(400, "bad-request", m)
        }
        Err(HttpError::Io(_)) => return, // peer is gone; no one to tell
    };
    shared.count_labeled(
        "http_responses_total",
        &[("status", &response.status.to_string())],
        1,
    );
    let _ = response.write_to(&mut stream);
}

/// Route one parsed request. Pure: no socket I/O, so the integration
/// tests can drive it through real connections and unit logic alike.
fn handle_request(shared: &Shared, request: &Request) -> Response {
    let (path, _) = request.path_and_query();
    let method = request.method.as_str();
    match (method, path) {
        ("GET", "/healthz") => {
            shared.count_labeled("http_requests_total", &[("route", "healthz")], 1);
            json_response(
                200,
                &HealthBody {
                    ok: true,
                    api: "v1".to_string(),
                },
            )
        }
        ("GET", "/metrics") => {
            shared.count_labeled("http_requests_total", &[("route", "metrics")], 1);
            metrics_response(shared)
        }
        ("POST", "/v1/scenarios") => {
            shared.count_labeled("http_requests_total", &[("route", "scenarios")], 1);
            submit(shared, request)
        }
        ("GET", p) if p.starts_with("/v1/jobs/") => {
            shared.count_labeled("http_requests_total", &[("route", "jobs")], 1);
            job_route(shared, request, &p["/v1/jobs/".len()..])
        }
        ("GET", "/v1/scenarios") | ("POST", "/healthz") | ("POST", "/metrics") => {
            error_response(405, "method-not-allowed", format!("{method} {path}"))
        }
        (_, p) if p == "/v1/scenarios" || p.starts_with("/v1/jobs/") => {
            error_response(405, "method-not-allowed", format!("{method} {path}"))
        }
        _ => error_response(404, "not-found", format!("no route for {method} {path}")),
    }
}

/// `POST /v1/scenarios`: parse, validate, register, admit.
fn submit(shared: &Shared, request: &Request) -> Response {
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "bad-json", "body is not utf-8"),
    };
    let matrix = match MatrixSpec::from_json(text) {
        Ok(m) => m,
        Err(e) => return error_response(400, "bad-json", format!("matrix parse failed: {e}")),
    };
    if let Err(e) = matrix.validate() {
        return error_response(400, "invalid-spec", e.to_string());
    }
    let id = match job_id(&matrix) {
        Ok(id) => id,
        Err(e) => return error_response(500, "internal", e.to_string()),
    };

    match shared.registry.submit(&id, &matrix) {
        SubmitOutcome::Deduplicated => {
            shared.count("submissions_deduplicated_total");
            let entry = shared.registry.get(&id).expect("just observed");
            json_response(
                200,
                &SubmitResponse {
                    job_id: id,
                    status: entry.phase,
                    jobs_total: entry.jobs_total,
                    deduplicated: true,
                },
            )
        }
        SubmitOutcome::New => match shared.gate.try_enqueue(&id) {
            Ok(()) => {
                shared.count("submissions_total");
                json_response(
                    202,
                    &SubmitResponse {
                        job_id: id,
                        status: crate::api::JobPhase::Queued,
                        jobs_total: matrix.jobs(),
                        deduplicated: false,
                    },
                )
            }
            Err(full) => {
                // Roll the registration back so a retry of the same
                // matrix starts clean instead of deduplicating against
                // a job that never ran.
                shared.registry.forget(&id);
                shared.count("submissions_shed_total");
                let mut body = ErrorBody::new(
                    "queue-full",
                    format!("admission queue is full; retry in {}s", full.retry_after_s),
                );
                body.retry_after_s = Some(full.retry_after_s);
                json_error(429, &body).with_header("retry-after", full.retry_after_s.to_string())
            }
        },
    }
}

/// `GET /v1/jobs/{id}` and the artifact sub-routes.
fn job_route(shared: &Shared, request: &Request, rest: &str) -> Response {
    let (id, artifact) = match rest.split_once('/') {
        Some((id, artifact)) => (id, Some(artifact)),
        None => (rest, None),
    };
    let entry = match lookup(shared, request, id, artifact.is_none()) {
        Some(entry) => entry,
        None => {
            return error_response(404, "unknown-job", format!("no job with id {id:?}"));
        }
    };
    match artifact {
        None => json_response(
            200,
            &JobStatusBody {
                job_id: id.to_string(),
                status: entry.phase,
                jobs_total: entry.jobs_total,
                jobs_done: entry.jobs_done,
                cache_hits: entry.cache_hits,
                error: entry.error.clone(),
            },
        ),
        Some(name) => artifact_route(&entry, id, name),
    }
}

/// Status polls honour `?wait_s=N` (clamped to [`MAX_WAIT_S`]) by
/// blocking on the registry condvar — cheap long-polling.
fn lookup(shared: &Shared, request: &Request, id: &str, allow_wait: bool) -> Option<JobEntry> {
    let wait_s = if allow_wait {
        request
            .query_param("wait_s")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
            .min(MAX_WAIT_S)
    } else {
        0
    };
    if wait_s > 0 {
        shared
            .registry
            .wait_terminal(id, Duration::from_secs(wait_s))
    } else {
        shared.registry.get(id)
    }
}

fn artifact_route(entry: &JobEntry, id: &str, name: &str) -> Response {
    let artifacts = match (&entry.phase, &entry.artifacts) {
        (crate::api::JobPhase::Failed, _) => {
            return error_response(
                409,
                "job-failed",
                entry.error.clone().unwrap_or_else(|| "job failed".into()),
            );
        }
        (_, Some(a)) => a,
        (_, None) => {
            return error_response(
                409,
                "not-ready",
                format!(
                    "job {id} is {}; artifacts appear when it is done",
                    entry.phase.as_str()
                ),
            );
        }
    };
    match name {
        "summary" => Response::new(200, "application/json", artifacts.summary_json.as_bytes()),
        "trace.jsonl" => Response::new(
            200,
            "application/x-ndjson",
            artifacts.trace_jsonl.as_bytes(),
        ),
        "perfetto.json" => {
            Response::new(200, "application/json", artifacts.perfetto_json.as_bytes())
        }
        "alerts.json" => match &artifacts.alerts_json {
            Some(alerts) => Response::new(200, "application/json", alerts.as_bytes()),
            None => error_response(
                404,
                "no-alerts",
                "no scenario in this matrix armed observability",
            ),
        },
        other => error_response(404, "not-found", format!("unknown artifact {other:?}")),
    }
}

/// `GET /metrics`: the shared registry snapshot rendered as Prometheus
/// text, with live queue gauges stamped at scrape time.
fn metrics_response(shared: &Shared) -> Response {
    let mut metrics = shared.metrics.lock().expect("metrics lock");
    metrics.gauge_set("queue_depth", shared.gate.queue_depth() as f64);
    metrics.gauge_set("jobs_in_flight", shared.gate.in_flight() as f64);
    metrics.gauge_set("result_cache_entries", shared.cache.len() as f64);
    let text = to_prometheus(&metrics.snapshot());
    drop(metrics);
    Response::new(200, "text/plain; version=0.0.4", text.into_bytes())
}

/// Simulation worker: drain the gate until it closes.
fn sim_worker(shared: &Shared) {
    while let Some(id) = shared.gate.dequeue() {
        let Some(entry) = shared.registry.get(&id) else {
            // Submission was rolled back between enqueue and dequeue.
            shared.gate.finish();
            continue;
        };
        shared.registry.mark_running(&id);
        let outcome = execute_matrix(&entry.matrix, &shared.cache, &|cached| {
            shared.registry.record_campaign(&id, cached);
            let kind = if cached { "cached" } else { "simulated" };
            shared.count_labeled("campaigns_total", &[("kind", kind)], 1);
        });
        match outcome {
            Ok(artifacts) => {
                shared.registry.mark_done(&id, artifacts);
                shared.count("jobs_completed_total");
            }
            Err(e) => {
                shared.registry.mark_failed(&id, e.to_string());
                shared.count("jobs_failed_total");
            }
        }
        shared.gate.finish();
    }
}

fn json_response(status: u16, body: &impl serde::Serialize) -> Response {
    match serde_json::to_string(body) {
        Ok(json) => Response::new(status, "application/json", json.into_bytes()),
        Err(e) => error_response(500, "internal", format!("serialization failed: {e}")),
    }
}

fn json_error(status: u16, body: &ErrorBody) -> Response {
    let json =
        serde_json::to_string(body).unwrap_or_else(|_| format!("{{\"error\":\"{}\"}}", body.error));
    Response::new(status, "application/json", json.into_bytes())
}

fn error_response(status: u16, code: &str, message: impl Into<String>) -> Response {
    json_error(status, &ErrorBody::new(code, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use frostlab_core::ScenarioSpec;
    use proptest::collection::vec;
    use proptest::prelude::any;

    fn matrix_json(climate: &str, seeds: u64) -> String {
        let scenarios = vec![ScenarioSpec::new("fuzz", 1, climate)];
        let m = MatrixSpec {
            scenarios,
            seed_start: 0,
            seeds,
        };
        m.to_json().expect("serializes")
    }

    /// No `_`, so a generated target never asks for a `wait_s` long-poll.
    const TAIL: &[u8] = b"abcdefstw0123456789/.?&=%-";

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// Any method × path × query × body against a daemon with one job
        /// queued and no simulation worker: a status from the API's set,
        /// never a panic, and every non-2xx body an `ErrorBody`.
        #[test]
        fn arbitrary_requests_get_typed_answers(
            picks in (any::<usize>(), any::<usize>(), any::<usize>()),
            tail in vec(any::<usize>(), 0..16),
            raw in vec(any::<u8>(), 0..96),
        ) {
            let shared = Shared::new(&ServerConfig {
                queue_capacity: 1,
                ..ServerConfig::default()
            });
            let send = |method: &str, target: String, body: Vec<u8>| {
                let (method, headers) = (method.to_string(), Vec::new());
                handle_request(&shared, &Request { method, target, headers, body })
            };
            let queued = matrix_json("helsinki", 1);
            let submit = send("POST", "/v1/scenarios".into(), queued.clone().into_bytes());
            proptest::prop_assert_eq!(submit.status, 202);

            let (method, route, body) = picks;
            let id = job_id(&MatrixSpec::from_json(&queued).expect("parses")).expect("id");
            let mut target = match route % 7 {
                0 => "/healthz".to_string(),
                1 => "/metrics".to_string(),
                2 => "/v1/scenarios".to_string(),
                3 => "/v1/jobs/".to_string(),
                n => format!("/v1/jobs/{id}{}", ["", "/summary", "/alerts.json"][n - 4]),
            };
            // An arbitrary path and/or query tail on a third of the cases.
            if tail.len() > 10 {
                target.extend(tail.iter().map(|&i| TAIL[i % TAIL.len()] as char));
            }
            let body = match body % 4 {
                0 => raw,
                1 => queued.into_bytes(),
                2 => matrix_json("helsinki", 2).into_bytes(),
                _ => matrix_json("atlantis", 1).into_bytes(),
            };
            let method = ["GET", "POST", "GET", "POST", "PUT", "get", ""][method % 7];

            let response = send(method, target.clone(), body);
            let text = String::from_utf8_lossy(&response.body);
            let case = format!("{method} {target} -> {} {text}", response.status);
            let typed = [200, 202, 400, 404, 405, 409, 413, 429].contains(&response.status);
            proptest::prop_assert!(typed, "{}", case);
            if response.status >= 300 {
                proptest::prop_assert!(serde_json::from_str::<ErrorBody>(&text).is_ok(), "{}", case);
            }
        }
    }
}
