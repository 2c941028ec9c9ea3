//! Process-wide metrics registry rendered in Prometheus text exposition
//! format.
//!
//! The trace [`crate::Recorder`] answers "where did *this run's* time go"
//! offline; this module answers "what is the process doing *right now*" for
//! a scraper. Three instrument kinds — monotone [`Counter`]s, last-value
//! [`Gauge`]s, and log-linear-bucket [`Histogram`]s — are grouped into
//! families with static label sets (tenant, priority class, scheme,
//! kernel). Registration is the only locked path; every update on an
//! obtained handle is a relaxed atomic, so the hot path stays lock-free
//! like the recorder's event buffers.
//!
//! Instrumentation sites that would pay for a clock read (e.g. timing every
//! collective) gate on [`Registry::enabled`]; the handles themselves keep
//! working either way, so disabling never loses monotonicity — it only
//! stops new timings. No harness measures the enabled-vs-disabled
//! overhead yet.
//!
//! Rendering is hand-rolled (no new dependencies): `# HELP`/`# TYPE`
//! preambles, `\\`/`\"`/newline label escaping, histograms as cumulative
//! `le` buckets (empty buckets elided — cumulative counts stay exact)
//! plus `_sum`/`_count` series.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Linear sub-buckets per power-of-two octave. Four gives ~19% worst-case
/// relative bucket width — enough resolution for latency work without
/// bloating the exposition.
const SUBS: u64 = 4;

/// Total log-linear buckets: values 0..3 exactly, then 4 per octave for
/// exponents 2..=63.
const N_BUCKETS: usize = (SUBS + (63 - 2 + 1) * SUBS) as usize;

/// Bucket index of a (non-negative, integer-discretized) observation.
fn bucket_of(v: u64) -> usize {
    if v < SUBS {
        return v as usize;
    }
    let exp = 63 - u64::from(v.leading_zeros());
    let base = 1u64 << exp;
    let step = base / SUBS;
    (SUBS + (exp - 2) * SUBS + (v - base) / step) as usize
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` value).
fn upper_of(i: usize) -> u64 {
    if i + 1 >= N_BUCKETS {
        return u64::MAX;
    }
    let i = i as u64;
    if i < SUBS {
        return i;
    }
    let exp = 2 + (i - SUBS) / SUBS;
    let sub = (i - SUBS) % SUBS;
    let base = 1u64 << exp;
    base + (sub + 1) * (base / SUBS) - 1
}

/// Monotonically increasing counter. Updates are relaxed atomics; there is
/// deliberately no way to decrement or reset, so scrapes observe a
/// non-decreasing sequence.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value gauge holding an `f64` (stored as raw bits in an atomic).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value (a running
    /// maximum, e.g. worst queue wait).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Log-linear-bucket histogram (4 linear sub-buckets per power-of-two
/// octave). Observations are in whatever unit the family name declares
/// (`_ms`, `_ns`, …) and are discretized by `ceil` before bucketing, which
/// keeps the Prometheus cumulativity contract exact: the bucket with
/// integer bound `le` counts precisely the observations `v <= le`.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn observe(&self, v: f64) {
        let clamped = if !v.is_finite() || v <= 0.0 {
            0
        } else if v >= u64::MAX as f64 {
            u64::MAX
        } else {
            v.ceil() as u64
        };
        self.buckets[bucket_of(clamped)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v.max(0.0)).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean observation, 0.0 before the first.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Non-empty `(le, cumulative_count)` pairs in increasing `le` order,
    /// excluding the implicit `+Inf` bucket (which equals [`Self::count`]).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((upper_of(i), cum));
            }
        }
        out
    }
}

/// One registered instrument, behind its family's label set.
#[derive(Debug, Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: &'static str,
    children: Vec<(Vec<(String, String)>, Instrument)>,
}

/// A metrics registry. [`global`] serves the process-wide one (plain CLI
/// runs, run-layer instrumentation); the daemon additionally owns a private
/// registry so counters reset with each daemon instance rather than leaking
/// across test daemons in one process.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    families: Mutex<Vec<Family>>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry {
            enabled: AtomicBool::new(true),
            families: Mutex::new(Vec::new()),
        }
    }

    /// Whether timing-paying instrumentation sites should measure. Handle
    /// updates are never gated — only new clock reads are.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Instrument,
    ) -> Instrument {
        debug_assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert_eq!(
                    f.kind, kind,
                    "metric {name} re-registered as {kind}, was {}",
                    f.kind
                );
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    children: Vec::new(),
                });
                families.last_mut().unwrap()
            }
        };
        let owned: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        if let Some((_, inst)) = family.children.iter().find(|(l, _)| *l == owned) {
            return inst.clone();
        }
        let inst = make();
        assert_eq!(inst.kind(), kind);
        family.children.push((owned, inst.clone()));
        inst
    }

    /// Obtain (registering on first use) the counter `name{labels}`.
    /// Callers should cache the handle; only registration takes a lock.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.register(name, help, "counter", labels, || {
            Instrument::Counter(Arc::new(Counter::default()))
        }) {
            Instrument::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Obtain (registering on first use) the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.register(name, help, "gauge", labels, || {
            Instrument::Gauge(Arc::new(Gauge::default()))
        }) {
            Instrument::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Obtain (registering on first use) the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        match self.register(name, help, "histogram", labels, || {
            Instrument::Histogram(Arc::new(Histogram::default()))
        }) {
            Instrument::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Render every family in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Append the exposition text to `out` (lets callers concatenate
    /// several registries into one scrape response).
    pub fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        for f in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
            for (labels, inst) in &f.children {
                match inst {
                    Instrument::Counter(c) => {
                        let _ = writeln!(out, "{}{} {}", f.name, label_block(labels), c.get());
                    }
                    Instrument::Gauge(g) => {
                        let _ = writeln!(out, "{}{} {}", f.name, label_block(labels), g.get());
                    }
                    Instrument::Histogram(h) => {
                        for (le, cum) in h.cumulative_buckets() {
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {cum}",
                                f.name,
                                label_block_with(labels, "le", &le.to_string()),
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            f.name,
                            label_block_with(labels, "le", "+Inf"),
                            h.count()
                        );
                        let _ = writeln!(out, "{}_sum{} {}", f.name, label_block(labels), h.sum());
                        let _ =
                            writeln!(out, "{}_count{} {}", f.name, label_block(labels), h.count());
                    }
                }
            }
        }
    }
}

/// Escape a label value: backslash, double quote, and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape help text: backslash and newline (quotes are legal there).
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn label_block_with(labels: &[(String, String)], key: &str, value: &str) -> String {
    let mut body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    body.push(format!("{key}=\"{}\"", escape_label(value)));
    format!("{{{}}}", body.join(","))
}

/// The process-wide registry: plain CLI runs dump it via `--metrics-out`,
/// and run-layer instrumentation (kernels, collectives, checkpoints, search
/// iterations) always lands here regardless of which surface started the
/// run.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Whether the global registry's timing-paying sites should measure.
pub fn enabled() -> bool {
    global().enabled()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        let mut prev = None;
        for i in 0..N_BUCKETS {
            let le = upper_of(i);
            if let Some(p) = prev {
                assert!(le > p, "bucket {i}: bound {le} not above {p}");
            }
            prev = Some(le);
        }
        // Every representable value lands in a bucket whose bound covers it.
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            100,
            1023,
            1024,
            1025,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_of(v);
            assert!(
                v <= upper_of(i),
                "value {v} in bucket {i} exceeds bound {}",
                upper_of(i)
            );
            if i > 0 {
                assert!(
                    v > upper_of(i - 1),
                    "value {v} in bucket {i} also fits bucket {}",
                    i - 1
                );
            }
        }
    }

    #[test]
    fn counters_and_gauges_update() {
        let r = Registry::new();
        let c = r.counter("exa_test_total", "test counter", &[("tenant", "batch")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) returns the same underlying instrument.
        let again = r.counter("exa_test_total", "test counter", &[("tenant", "batch")]);
        assert_eq!(again.get(), 5);
        let g = r.gauge("exa_test_gauge", "test gauge", &[]);
        g.set(2.5);
        g.add(1.0);
        assert!((g.get() - 3.5).abs() < 1e-12);
        g.set_max(1.0);
        assert!((g.get() - 3.5).abs() < 1e-12);
        g.set_max(9.0);
        assert!((g.get() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::default();
        for v in [0.5, 1.0, 3.0, 3.2, 100.0, 1e9] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert!((h.sum() - (0.5 + 1.0 + 3.0 + 3.2 + 100.0 + 1e9)).abs() < 1.0);
        let buckets = h.cumulative_buckets();
        let mut prev = 0;
        for (_, cum) in &buckets {
            assert!(*cum >= prev);
            prev = *cum;
        }
        assert_eq!(prev, 6, "last cumulative bucket must equal the count");
        // ceil discretization: the le=1 bucket holds both 0.5 and 1.0.
        let le1 = buckets.iter().find(|(le, _)| *le == 1).unwrap();
        assert_eq!(le1.1, 2);
    }

    #[test]
    fn render_is_valid_exposition() {
        let r = Registry::new();
        r.counter("exa_jobs_total", "jobs", &[("tenant", "a\"b\\c\nd")])
            .inc();
        r.gauge("exa_depth", "queue depth", &[]).set(3.0);
        let h = r.histogram("exa_wait_ms", "queue wait", &[]);
        h.observe(2.0);
        h.observe(10.0);
        let text = r.render();
        assert!(text.contains("# HELP exa_jobs_total jobs\n"), "{text}");
        assert!(text.contains("# TYPE exa_jobs_total counter\n"), "{text}");
        assert!(
            text.contains("exa_jobs_total{tenant=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("exa_depth 3\n"), "{text}");
        assert!(
            text.contains("exa_wait_ms_bucket{le=\"+Inf\"} 2\n"),
            "{text}"
        );
        assert!(text.contains("exa_wait_ms_sum 12\n"), "{text}");
        assert!(text.contains("exa_wait_ms_count 2\n"), "{text}");
    }
}
