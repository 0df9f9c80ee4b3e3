//! Bounded-concurrency admission gate — how heavy traffic degrades
//! gracefully instead of falling over.
//!
//! The gate is a fixed-capacity FIFO of job ids plus a count of jobs
//! currently held by workers. Admission is all-or-nothing at enqueue
//! time: when the queue is full the submission is **shed** with a
//! [`GateFull`] carrying a `Retry-After` estimate, and the daemon's
//! memory stays bounded by `capacity × sizeof(job id)` no matter how
//! hard clients push. In-flight jobs are never cancelled — shedding only
//! refuses *new* work.
//!
//! The `Retry-After` estimate is deliberately coarse: backlog depth
//! (queued + in-flight) times a per-job pace, clamped to `1..=60`
//! seconds. It tells a well-behaved client when a retry has a chance,
//! not when its own job would finish.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Shed signal: the queue was full at enqueue time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateFull {
    /// Suggested client back-off, seconds (also the `Retry-After` header).
    pub retry_after_s: u64,
}

/// Rough seconds a queued matrix takes to drain — used only to scale the
/// `Retry-After` hint, never to schedule anything.
const PACE_S_PER_JOB: u64 = 2;

#[derive(Debug, Default)]
struct GateState {
    queue: VecDeque<String>,
    in_flight: usize,
    closed: bool,
}

/// Fixed-capacity admission queue feeding the simulation workers.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    ready: Condvar,
    capacity: usize,
}

impl AdmissionGate {
    /// A gate admitting at most `capacity` queued jobs (≥ 1).
    pub fn new(capacity: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Try to admit a job. Full queue ⇒ [`GateFull`] with the back-off
    /// hint; never blocks.
    pub fn try_enqueue(&self, job_id: &str) -> Result<(), GateFull> {
        let mut s = self.state.lock().expect("gate lock");
        if s.closed {
            return Err(GateFull { retry_after_s: 1 });
        }
        if s.queue.len() >= self.capacity {
            let backlog = (s.queue.len() + s.in_flight) as u64;
            return Err(GateFull {
                retry_after_s: (backlog * PACE_S_PER_JOB).clamp(1, 60),
            });
        }
        s.queue.push_back(job_id.to_string());
        drop(s);
        self.ready.notify_one();
        Ok(())
    }

    /// Worker side: block until a job is available or the gate closes.
    /// `None` means the gate closed and the worker should exit.
    pub fn dequeue(&self) -> Option<String> {
        let mut s = self.state.lock().expect("gate lock");
        loop {
            if let Some(id) = s.queue.pop_front() {
                s.in_flight += 1;
                return Some(id);
            }
            if s.closed {
                return None;
            }
            s = self.ready.wait(s).expect("gate lock");
        }
    }

    /// Worker side: a dequeued job finished (successfully or not).
    pub fn finish(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.in_flight = s.in_flight.saturating_sub(1);
    }

    /// Jobs waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("gate lock").queue.len()
    }

    /// Jobs currently held by workers.
    pub fn in_flight(&self) -> usize {
        self.state.lock().expect("gate lock").in_flight
    }

    /// Close the gate: queued jobs still drain, but new submissions shed
    /// and idle workers wake up and exit.
    pub fn close(&self) {
        self.state.lock().expect("gate lock").closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn sheds_above_capacity_with_backoff_hint() {
        let gate = AdmissionGate::new(2);
        gate.try_enqueue("a").expect("fits");
        gate.try_enqueue("b").expect("fits");
        let shed = gate.try_enqueue("c").expect_err("full");
        assert!(shed.retry_after_s >= 1);
        assert_eq!(gate.queue_depth(), 2);
        // Draining one admits one more.
        assert_eq!(gate.dequeue().as_deref(), Some("a"));
        gate.try_enqueue("c").expect("fits after dequeue");
        assert_eq!(gate.in_flight(), 1);
        gate.finish();
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn retry_after_grows_with_backlog_and_clamps() {
        let gate = AdmissionGate::new(1);
        gate.try_enqueue("a").expect("fits");
        let one = gate.try_enqueue("x").expect_err("full").retry_after_s;
        // Pull the job in flight; backlog (1 queued + 1 running) after refill.
        gate.dequeue().expect("job");
        gate.try_enqueue("b").expect("fits");
        let two = gate.try_enqueue("x").expect_err("full").retry_after_s;
        assert!(two >= one);
        assert!(two <= 60);
    }

    #[test]
    fn fifo_order_and_close_wakes_workers() {
        let gate = Arc::new(AdmissionGate::new(8));
        gate.try_enqueue("a").expect("fits");
        gate.try_enqueue("b").expect("fits");
        assert_eq!(gate.dequeue().as_deref(), Some("a"));
        assert_eq!(gate.dequeue().as_deref(), Some("b"));
        // A blocked worker exits when the gate closes.
        let worker = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.dequeue())
        };
        std::thread::sleep(Duration::from_millis(20));
        gate.close();
        assert_eq!(worker.join().expect("worker"), None);
        // Closed gate sheds immediately.
        assert!(gate.try_enqueue("c").is_err());
        // Close stops admission, not the queue: a job queued before
        // `close` is still handed out, and only then does `dequeue`
        // report the close.
        let gate = AdmissionGate::new(8);
        gate.try_enqueue("d").expect("fits");
        gate.close();
        assert_eq!(gate.dequeue().as_deref(), Some("d"));
        assert_eq!(gate.dequeue(), None);
    }
}
