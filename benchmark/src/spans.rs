//! The benchmark's own spans: one around each call it makes into a layer
//! during the traced repetition. Kept in memory while the repetition runs
//! and written to `out/spans.json` when the benchmark ends. Instrumenting
//! *inside* `crates/` is a later change; until then the layer boundary is
//! the public call the benchmark makes.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `parent` indexes the same vector; spans of one
/// repetition share `id`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder of one repetition. Single-threaded by construction: the
/// benchmark's calls into the layers are sequential, so nesting is a stack.
pub struct Spans {
    epoch: Instant,
    id: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(id: u64) -> Spans {
        Spans {
            epoch: Instant::now(),
            id,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`, nested under whichever span is
    /// open.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            id: self.id,
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().map(|&p| p as u64),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "span left open");
        self.spans
    }
}

/// Append the spans of one recorder to a collection of several, keeping
/// every `parent` pointing at the right element of the combined vector.
pub fn append(all: &mut Vec<Span>, spans: impl IntoIterator<Item = Span>) {
    let base = all.len() as u64;
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let p = p as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed per span name (a layer call made several times, such
/// as `sched.build_engine` once per rank, is one row).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0) += own;
    }
    out
}

/// Share of the root span (the one without a parent) that the layer spans
/// below it account for, in percent. What is left is the harness's own
/// glue between calls.
pub fn layer_coverage_pct(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let mut root_dur = 0u64;
    let mut layers = 0u64;
    for (s, own) in spans.iter().zip(own) {
        if s.parent.is_none() {
            root_dur += s.dur_ns();
        } else {
            layers += own;
        }
    }
    if root_dur == 0 {
        return 0.0;
    }
    100.0 * layers as f64 / root_dur as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id: 1,
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // root 0..100; a 10..40 (child a1 20..30); b 50..90
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        // root: 100 - 30 - 40; a: 30 - 10; a1: 10; b: 40. A grandchild is
        // subtracted from its parent only, never from the root again.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times partition the root exactly");
        assert!((layer_coverage_pct(&spans) - 70.0).abs() < 1e-9);
    }

    #[test]
    fn appended_recorders_keep_their_parents() {
        let mut all = vec![span("rep", 0, 10, None), span("a", 1, 2, Some(0))];
        append(
            &mut all,
            vec![span("rep", 0, 10, None), span("b", 3, 4, Some(0))],
        );
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(self_times(&all), vec![9, 1, 9, 1]);
    }

    #[test]
    fn repeated_names_sum_into_one_row() {
        let spans = vec![
            span("rep", 0, 50, None),
            span("build", 0, 10, Some(0)),
            span("build", 10, 30, Some(0)),
        ];
        let by = self_by_name(&spans);
        assert_eq!(by["build"], 30);
        assert_eq!(by["rep"], 20);
    }

    #[test]
    fn scope_nests_and_closes() {
        let mut s = Spans::new(7);
        let v = s.scope("rep", |s| {
            s.scope("inner", |_| 1) + s.scope("inner2", |s| s.scope("leaf", |_| 2))
        });
        assert_eq!(v, 3);
        let spans = s.finish();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["rep", "inner", "inner2", "leaf"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        for sp in &spans {
            assert_eq!(sp.id, 7);
            assert!(sp.end_ns >= sp.start_ns);
        }
        // Children lie inside their parent.
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[3].end_ns <= spans[2].end_ns);
    }
}
