//! Wall-clock spans the benchmark records around its calls into each
//! layer of frostlab.
//!
//! Spans stay in memory while a run measures and are written out as JSON
//! lines when it ends. A span is either *contiguous* (one interval, timed
//! around one call) or *aggregated*: a tick phase is stepped once per
//! simulated minute, so the benchmark keeps one span per phase per
//! campaign whose `busy_ns` is the sum of its steps and whose
//! `start_ns..end_ns` runs from the first step to the last.
//!
//! A span's **self time** is its busy time minus the part its children
//! cover. Contiguous children cover the union of their intervals (workers
//! running in parallel under one sweep overlap); aggregated children cover
//! exactly their busy time, because the phases of one campaign step one
//! after another on one thread and never overlap each other or the
//! contiguous spans beside them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a recorder, from 1.
    pub id: u64,
    /// Causing span; 0 for a root.
    pub parent: u64,
    /// Layer name, e.g. `core.build` or `phase.collection`.
    pub name: String,
    /// Campaign or request this span belongs to.
    pub key: u64,
    /// Small per-process thread number.
    pub thread: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Time actually spent: `end_ns - start_ns` for a contiguous span, the
    /// sum of the pieces for an aggregated one.
    pub busy_ns: u64,
    /// True for a span summed from many pieces (see the module docs).
    pub aggregated: bool,
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// This thread's number in span records.
pub fn thread_no() -> u64 {
    THREAD.with(|t| *t)
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds from the recorder's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for a span whose children are recorded before it.
    pub fn alloc(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Store a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Store a contiguous span over `start..end` on this thread.
    pub fn interval(
        &self,
        id: u64,
        parent: u64,
        name: &str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            id,
            parent,
            name: name.to_string(),
            key,
            thread: thread_no(),
            start_ns,
            end_ns,
            busy_ns: end_ns.saturating_sub(start_ns),
            aggregated: false,
        });
    }

    /// Time `f` as a contiguous span; `f` receives the span id so it can
    /// parent further spans.
    pub fn span<R>(&self, parent: u64, name: &str, key: u64, f: impl FnOnce(u64) -> R) -> R {
        let id = self.alloc();
        let start = Instant::now();
        let out = f(id);
        self.interval(id, parent, name, key, start, Instant::now());
        out
    }

    /// Everything recorded so far, in id order.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"));
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Time `f` as a span when `rec` is armed; run it bare otherwise. `f`
/// receives the span id (0 when unarmed).
pub fn maybe_span<R>(
    rec: Option<&Recorder>,
    parent: u64,
    name: &str,
    key: u64,
    f: impl FnOnce(u64) -> R,
) -> R {
    match rec {
        Some(r) => r.span(parent, name, key, f),
        None => f(0),
    }
}

/// Length of the union of `intervals`.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(s);
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
            let contiguous = union_len(
                kids.iter()
                    .filter(|k| !k.aggregated)
                    .map(|k| {
                        let start = k.start_ns.max(s.start_ns);
                        (start, k.end_ns.min(s.end_ns).max(start))
                    })
                    .collect(),
            );
            let aggregated: u64 = kids
                .iter()
                .filter(|k| k.aggregated)
                .map(|k| k.busy_ns)
                .sum();
            (s.id, s.busy_ns.saturating_sub(contiguous + aggregated))
        })
        .collect()
}

/// Share of the time of the root spans named in `roots` that no child
/// accounts for: Σ root self time / Σ root busy time. `None` without
/// such roots.
pub fn unaccounted_share(spans: &[Span], roots: &[&str]) -> Option<f64> {
    let selfs = self_times(spans);
    let (mut unaccounted, mut total) = (0u64, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.parent == 0 && roots.contains(&s.name.as_str()))
    {
        unaccounted += selfs[&s.id];
        total += s.busy_ns;
    }
    (total > 0).then(|| unaccounted as f64 / total as f64)
}

/// Per layer: the median over root spans named `root` of the self time
/// the layer spends under that root, in milliseconds. Layers absent
/// under some roots count 0 there.
pub fn layer_ms_per_root(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let selfs = self_times(spans);
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    fn root_of<'a>(by_id: &BTreeMap<u64, &'a Span>, mut s: &'a Span) -> &'a Span {
        while let Some(p) = by_id.get(&s.parent) {
            s = p;
        }
        s
    }
    let roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name == root)
        .map(|s| s.id)
        .collect();
    let mut per: BTreeMap<String, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans {
        let r = root_of(&by_id, s);
        if r.name == root && r.parent == 0 {
            *per.entry(s.name.clone())
                .or_default()
                .entry(r.id)
                .or_default() += selfs[&s.id] as f64 / 1e6;
        }
    }
    per.into_iter()
        .map(|(name, by_root)| {
            let xs: Vec<f64> = roots
                .iter()
                .map(|r| by_root.get(r).copied().unwrap_or(0.0))
                .collect();
            (name, crate::stats::median(&xs))
        })
        .collect()
}

/// Human-readable self-time table: per layer, total self time, share of
/// all root time and span count.
pub fn self_time_table(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let root_total: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.busy_ns)
        .sum();
    let mut rows: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let row = rows.entry(&s.name).or_default();
        row.0 += selfs[&s.id];
        row.1 += 1;
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<28} {:>12} {:>8} {:>8}\n",
        "layer", "self_ms", "share", "spans"
    );
    for (name, (self_ns, count)) in rows {
        out.push_str(&format!(
            "{:<28} {:>12.3} {:>7.2}% {:>8}\n",
            name,
            self_ns as f64 / 1e6,
            100.0 * self_ns as f64 / root_total.max(1) as f64,
            count
        ));
    }
    out
}

/// Minimal JSON string escaping for span names and host fields.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One span as a JSON line.
pub fn span_json(s: &Span) -> String {
    format!(
        "{{\"id\":{},\"parent\":{},\"name\":{},\"key\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"busy_ns\":{},\"aggregated\":{}}}",
        s.id,
        s.parent,
        json_str(&s.name),
        s.key,
        s.thread,
        s.start_ns,
        s.end_ns,
        s.busy_ns,
        s.aggregated
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            key: 0,
            thread: 1,
            start_ns: start,
            end_ns: end,
            busy_ns: end - start,
            aggregated: false,
        }
    }

    fn agg(id: u64, parent: u64, name: &str, start: u64, end: u64, busy: u64) -> Span {
        Span {
            busy_ns: busy,
            aggregated: true,
            ..span(id, parent, name, start, end)
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ⊃ build 0..30, run 30..90 ⊃ finish 80..90.
        let spans = vec![
            span(1, 0, "campaign", 0, 100),
            span(2, 1, "core.build", 0, 30),
            span(3, 1, "core.run", 30, 90),
            span(4, 3, "core.finish", 80, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 10); // 90..100 is nobody's
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 50); // the grandchild is not subtracted from the root
        assert_eq!(selfs[&4], 10);
        assert_eq!(unaccounted_share(&spans, &["campaign"]), Some(0.1));
        assert_eq!(unaccounted_share(&spans, &["sweep"]), None);
    }

    #[test]
    fn overlapping_children_cover_their_union() {
        // Two workers under one sweep: 10..60 and 40..90 cover 10..90.
        let spans = vec![
            span(1, 0, "sweep", 0, 100),
            span(2, 1, "campaign", 10, 60),
            span(3, 1, "campaign", 40, 90),
        ];
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn aggregated_children_cover_their_busy_time() {
        // Two phases interleaved tick by tick over 0..100 with 40 + 35 ns
        // of steps, then a contiguous finish 100..110.
        let spans = vec![
            span(1, 0, "core.run", 0, 110),
            agg(2, 1, "phase.weather", 0, 95, 40),
            agg(3, 1, "phase.collection", 5, 100, 35),
            span(4, 1, "core.finish", 100, 110),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 110 - 40 - 35 - 10);
        assert_eq!(selfs[&2], 40);
        assert_eq!(selfs[&3], 35);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, 0, "root", 10, 20), span(2, 1, "late", 15, 40)];
        assert_eq!(self_times(&spans)[&1], 5);
    }

    #[test]
    fn layer_medians_are_taken_per_root() {
        let spans = vec![
            span(1, 0, "campaign", 0, 100),
            span(2, 1, "core.build", 0, 40),
            span(3, 0, "campaign", 200, 300),
            span(4, 3, "core.build", 200, 220),
            span(5, 0, "campaign", 400, 500),
            span(6, 0, "side", 0, 1_000_000),
        ];
        let per = layer_ms_per_root(&spans, "campaign");
        // build: 40 ns, 20 ns and absent (0) → median 20 ns.
        assert_eq!(per["core.build"], 20.0 / 1e6);
        assert!(!per.contains_key("side"));
    }

    #[test]
    fn recorder_spans_nest_through_ids() {
        let rec = Recorder::new();
        rec.span(0, "outer", 7, |outer| {
            rec.span(outer, "inner", 7, |_| ());
        });
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
