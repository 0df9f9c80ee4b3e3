//! The campaign watchdog: incident bookkeeping for the collection pipeline.
//!
//! §4.2.1 of the paper is a catalogue of operational incidents — two switch
//! deaths, host #15's repeated hangs, the sensor-chip saga — reconstructed
//! after the fact from logs. The watchdog makes that reconstruction a
//! first-class artefact: it observes the fleet as the campaign runs (switch
//! state, host hangs, sensor faults, per-host collection staleness), keeps
//! one open [`Incident`] per misbehaving subject, stamps the resolution when
//! a repair lands, and leaves a machine-readable incident log in
//! [`crate::results::ExperimentResults`].
//!
//! The watchdog only *observes and records* in scripted mode (the paper's
//! history is replayed verbatim); in stochastic/chaos mode the experiment
//! additionally uses its open switch incidents to drive the
//! [`crate::fleet::SwitchFailoverPolicy`] spare-swap repair.

use std::collections::BTreeMap;

use frostlab_simkern::time::{SimDuration, SimTime};

/// What kind of thing went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// A monitoring switch died (§4.2.1's defective batch).
    SwitchFailure,
    /// A host hung and needed operator attention.
    HostHang,
    /// A host's sensor chip misbehaved (cold fault, wrong redetect).
    SensorFault,
    /// A host's mirror went stale past the watchdog threshold without a
    /// matching infrastructure incident — the catch-all alarm.
    CollectionStale,
    /// A farm job exhausted its retry budget and was quarantined
    /// (`frostlab-farm`'s poison-job policy; never raised in-campaign).
    JobQuarantine,
    /// An SLO's multi-window burn rate breached its thresholds
    /// (`frostlab-obs`; subject is `slo/<name>`).
    SloBreach,
}

impl IncidentKind {
    /// Stable lowercase name for the machine-readable log.
    pub fn name(&self) -> &'static str {
        match self {
            IncidentKind::SwitchFailure => "switch-failure",
            IncidentKind::HostHang => "host-hang",
            IncidentKind::SensorFault => "sensor-fault",
            IncidentKind::CollectionStale => "collection-stale",
            IncidentKind::JobQuarantine => "job-quarantine",
            IncidentKind::SloBreach => "slo-breach",
        }
    }
}

/// One incident: opened when the watchdog first sees the condition, resolved
/// when the repair (or the script's restoration event) lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incident {
    /// Classification.
    pub kind: IncidentKind,
    /// The affected component, e.g. `"switch-0"`, `"host-15"`,
    /// `"host-1/sensor"`.
    pub subject: String,
    /// When the condition was first observed.
    pub started: SimTime,
    /// When it was resolved (`None` = still open at campaign end).
    pub resolved: Option<SimTime>,
    /// Human-readable note on how it was resolved.
    pub resolution: Option<String>,
}

impl Incident {
    /// How long the incident stayed open (up to `now` if unresolved).
    pub fn duration(&self, now: SimTime) -> SimDuration {
        self.resolved.unwrap_or(now) - self.started
    }
}

/// Serializable mirror of [`Incident`] with string timestamps.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IncidentRecord {
    /// Stable kind name (see [`IncidentKind::name`]).
    pub kind: String,
    /// Affected component.
    pub subject: String,
    /// Open timestamp (ISO-ish datetime; `attempt:N` for a farm
    /// quarantine).
    pub started: String,
    /// Resolve timestamp, if any (same forms as `started`).
    pub resolved: Option<String>,
    /// Resolution note, if any.
    pub resolution: Option<String>,
}

impl From<&Incident> for IncidentRecord {
    fn from(i: &Incident) -> Self {
        IncidentRecord {
            kind: i.kind.name().to_string(),
            subject: i.subject.clone(),
            started: i.started.to_string(),
            resolved: i.resolved.map(|t| t.to_string()),
            resolution: i.resolution.clone(),
        }
    }
}

/// Watches the campaign and keeps the incident ledger.
#[derive(Debug)]
pub struct Watchdog {
    /// Mirror staleness beyond which a host (with no other open incident
    /// explaining it) gets a [`IncidentKind::CollectionStale`] alarm.
    pub staleness_threshold: SimDuration,
    incidents: Vec<Incident>,
    open: BTreeMap<String, usize>,
}

impl Watchdog {
    /// New watchdog. The default staleness threshold is three missed
    /// 20-minute rounds.
    pub fn new() -> Self {
        Watchdog {
            staleness_threshold: SimDuration::minutes(60),
            incidents: Vec::new(),
            open: BTreeMap::new(),
        }
    }

    /// Open an incident for `subject` unless one is already open. Returns
    /// true if a new incident was opened.
    pub fn open(&mut self, kind: IncidentKind, subject: &str, at: SimTime) -> bool {
        if self.open.contains_key(subject) {
            return false;
        }
        self.open.insert(subject.to_string(), self.incidents.len());
        self.incidents.push(Incident {
            kind,
            subject: subject.to_string(),
            started: at,
            resolved: None,
            resolution: None,
        });
        true
    }

    /// Resolve the open incident for `subject`, if any. Returns true if one
    /// was resolved.
    pub fn resolve(&mut self, subject: &str, at: SimTime, resolution: &str) -> bool {
        match self.open.remove(subject) {
            Some(idx) => {
                let incident = &mut self.incidents[idx];
                incident.resolved = Some(at);
                incident.resolution = Some(resolution.to_string());
                true
            }
            None => false,
        }
    }

    /// Is there an open incident for this subject?
    pub fn is_open(&self, subject: &str) -> bool {
        self.open.contains_key(subject)
    }

    /// Open incidents right now.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Feed the per-host staleness observed at a collection round, under
    /// the host's alarm subject (`host-{id}/collection`). Opens a
    /// [`IncidentKind::CollectionStale`] incident when a host's mirror ages
    /// past the threshold *and* nothing else already explains it (an open
    /// switch or host incident covering this host); resolves the alarm when
    /// the mirror freshens again.
    pub fn observe_staleness(
        &mut self,
        subject: &str,
        staleness: Option<SimDuration>,
        explained: bool,
        now: SimTime,
    ) {
        let stale = staleness.is_some_and(|s| s > self.staleness_threshold);
        if stale && !explained {
            self.open(IncidentKind::CollectionStale, subject, now);
        } else if !stale {
            self.resolve(subject, now, "mirror caught up");
        }
    }

    /// The full ledger (open incidents have `resolved: None`).
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    /// Consume the watchdog, returning the ledger.
    pub fn into_incidents(self) -> Vec<Incident> {
        self.incidents
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: i64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn open_resolve_round_trip() {
        let mut w = Watchdog::new();
        assert!(w.open(IncidentKind::SwitchFailure, "switch-0", t(100)));
        assert!(
            !w.open(IncidentKind::SwitchFailure, "switch-0", t(200)),
            "no duplicates"
        );
        assert!(w.is_open("switch-0"));
        assert_eq!(w.open_count(), 1);
        assert!(w.resolve("switch-0", t(500), "spare switch swapped in"));
        assert!(!w.resolve("switch-0", t(600), "again"), "already resolved");
        let i = &w.incidents()[0];
        assert_eq!(i.started, t(100));
        assert_eq!(i.resolved, Some(t(500)));
        assert_eq!(i.resolution.as_deref(), Some("spare switch swapped in"));
        assert_eq!(i.duration(t(9999)), SimDuration::secs(400));
    }

    #[test]
    fn distinct_subjects_coexist() {
        let mut w = Watchdog::new();
        w.open(IncidentKind::SwitchFailure, "switch-0", t(0));
        w.open(IncidentKind::HostHang, "host-15", t(10));
        w.open(IncidentKind::SensorFault, "host-1/sensor", t(20));
        assert_eq!(w.open_count(), 3);
        w.resolve("host-15", t(30), "reset in place");
        assert_eq!(w.open_count(), 2);
        assert!(w.is_open("switch-0"));
        assert!(w.is_open("host-1/sensor"));
    }

    #[test]
    fn staleness_alarm_respects_explanations() {
        let mut w = Watchdog::new();
        // Stale but explained by an open switch incident: no alarm.
        w.observe_staleness(
            "host-3/collection",
            Some(SimDuration::minutes(90)),
            true,
            t(1000),
        );
        assert_eq!(w.incidents().len(), 0);
        // Stale and unexplained: alarm opens.
        w.observe_staleness(
            "host-3/collection",
            Some(SimDuration::minutes(90)),
            false,
            t(2000),
        );
        assert!(w.is_open("host-3/collection"));
        // Mirror freshens: alarm resolves.
        w.observe_staleness(
            "host-3/collection",
            Some(SimDuration::minutes(5)),
            false,
            t(3000),
        );
        assert!(!w.is_open("host-3/collection"));
        let i = &w.incidents()[0];
        assert_eq!(i.kind, IncidentKind::CollectionStale);
        assert_eq!(i.resolved, Some(t(3000)));
    }

    #[test]
    fn fresh_or_unknown_hosts_raise_nothing() {
        let mut w = Watchdog::new();
        w.observe_staleness("host-7/collection", None, false, t(0));
        w.observe_staleness(
            "host-7/collection",
            Some(SimDuration::minutes(20)),
            false,
            t(0),
        );
        assert!(w.incidents().is_empty());
    }

    #[test]
    fn ledger_preserves_open_order_across_interleaved_resolves() {
        // The ledger is the §4.2.1 narrative: incidents must appear in the
        // order they were first observed, regardless of when (or whether)
        // each one resolved. BTreeMap-keyed open tracking must not leak its
        // alphabetical ordering into the ledger.
        let mut w = Watchdog::new();
        w.open(IncidentKind::SwitchFailure, "switch-1", t(0));
        w.open(IncidentKind::HostHang, "host-15", t(10));
        w.open(IncidentKind::SensorFault, "host-1/sensor", t(20));
        // Resolve out of open order: last opened heals first.
        w.resolve("host-1/sensor", t(30), "chip recovered");
        w.resolve("switch-1", t(40), "spare switch swapped in");
        // host-15 stays open; a new subject opens after the resolves.
        w.open(IncidentKind::SwitchFailure, "switch-0", t(50));

        let subjects: Vec<&str> = w.incidents().iter().map(|i| i.subject.as_str()).collect();
        assert_eq!(
            subjects,
            ["switch-1", "host-15", "host-1/sensor", "switch-0"],
            "ledger order is first-open order, not resolve or key order"
        );
        // Resolution landed on the right entries.
        assert_eq!(w.incidents()[0].resolved, Some(t(40)));
        assert_eq!(w.incidents()[1].resolved, None);
        assert_eq!(w.incidents()[2].resolved, Some(t(30)));
        assert_eq!(w.incidents()[3].resolved, None);
        assert_eq!(w.into_incidents().len(), 4);
    }

    #[test]
    fn reopened_subject_appends_a_fresh_incident() {
        // Host #15 hung twice; each hang is its own ledger entry, appended
        // at its own open time — the earlier resolved entry is untouched.
        let mut w = Watchdog::new();
        w.open(IncidentKind::HostHang, "host-15", t(0));
        w.resolve("host-15", t(100), "reset in place");
        w.open(IncidentKind::HostHang, "host-15", t(200));
        w.resolve("host-15", t(300), "taken indoors (memtest)");

        let h15: Vec<&Incident> = w.incidents().iter().collect();
        assert_eq!(h15.len(), 2);
        assert_eq!(h15[0].started, t(0));
        assert_eq!(h15[0].resolution.as_deref(), Some("reset in place"));
        assert_eq!(h15[1].started, t(200));
        assert_eq!(
            h15[1].resolution.as_deref(),
            Some("taken indoors (memtest)")
        );
        assert!(h15[0].started < h15[1].started, "chronological ledger");
    }

    #[test]
    fn resolve_targets_the_open_incident_not_an_earlier_one() {
        // After a reopen, resolve must stamp the *newest* entry for the
        // subject even though an older resolved entry shares its key.
        let mut w = Watchdog::new();
        w.open(IncidentKind::SensorFault, "host-1/sensor", t(0));
        w.resolve("host-1/sensor", t(10), "first recovery");
        w.open(IncidentKind::SensorFault, "host-1/sensor", t(20));
        assert!(w.is_open("host-1/sensor"));
        w.resolve("host-1/sensor", t(30), "second recovery");
        assert_eq!(w.incidents()[0].resolved, Some(t(10)));
        assert_eq!(w.incidents()[1].resolved, Some(t(30)));
        assert_eq!(
            w.incidents()[1].resolution.as_deref(),
            Some("second recovery")
        );
    }

    #[test]
    fn incident_record_serializes() {
        let mut w = Watchdog::new();
        w.open(IncidentKind::SwitchFailure, "switch-1", t(0));
        w.resolve("switch-1", t(3600), "spare switch swapped in");
        let rec = IncidentRecord::from(&w.incidents()[0]);
        assert_eq!(rec.kind, "switch-failure");
        let json = serde_json::to_string_pretty(&rec).expect("plain data");
        assert!(json.contains("switch-1"));
        assert!(json.contains("spare switch swapped in"));
    }
}
