//! In-memory span recorder. Spans are opened from the benchmark's own
//! code around each call into a layer; nothing inside the crates is
//! instrumented. Recording is a `Vec` push, so spans are kept in every
//! repetition and only written out for the traced one.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Count deltas read from the layers' own statistics at the span's
    /// boundaries (e.g. `events`, `frames`, `transitions`).
    pub counts: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Trace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> R) -> R {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        r
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if let Some(&idx) = self.open.last() {
            self.spans[idx].counts.push((name, value));
        }
    }

    /// Discards everything recorded so far (between repetitions).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Seconds spent in spans called `name`, summed.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Sum of count `key` over spans called `name`.
    #[must_use]
    pub fn total_count(&self, name: &str, key: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Share of the spans called `name` that their direct children cover.
    #[must_use]
    pub fn child_coverage(&self, name: &str) -> f64 {
        let (mut own, mut covered) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            own += s.end_ns - s.start_ns;
            covered += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_ns - c.start_ns)
                .sum::<u64>();
        }
        if own == 0 {
            1.0
        } else {
            covered as f64 / own as f64
        }
    }

    /// One JSON object per span; self time is the span minus its direct
    /// children.
    #[must_use]
    pub fn to_json(&self, workload: &str) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"workload\": \"{workload}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"counts\": {{",
                s.name,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
            );
            for (k, (name, v)) in s.counts.iter().enumerate() {
                let sep = if k == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{name}\": {v}");
            }
            out.push_str("}}");
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}
