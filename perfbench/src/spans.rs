//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call into
//! a workspace crate's public API. Every span has a parent (the span open
//! when it started), so a layer's *self time* is its duration minus the
//! part its child spans cover. With tracing off every method is one
//! untaken branch plus the wrapped call: no clock reads, no allocation.

use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `vm.run`.
    pub name: &'static str,
    /// Scheme (or other grouping) the span belongs to.
    pub tag: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records iff `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for subsequent spans.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under; returns the open depth to
    /// pass to [`Tracer::close_to`].
    pub fn open(&mut self, name: &'static str, tag: &'static str) -> usize {
        let depth = self.open.len();
        if self.on {
            let start_ns = self.now_ns();
            self.spans.push(Span {
                name,
                tag,
                parent: self.open.last().copied(),
                start_ns,
                end_ns: 0,
            });
            self.open.push(self.spans.len() - 1);
        }
        depth
    }

    /// Closes every span opened at or above `depth` (also after a caught
    /// panic skipped the matching closes).
    pub fn close_to(&mut self, depth: usize) {
        let now = if self.open.len() > depth {
            self.now_ns()
        } else {
            0
        };
        while self.open.len() > depth {
            let i = self.open.pop().expect("length checked above");
            self.spans[i].end_ns = now;
        }
    }

    /// Times `f` as a leaf span under the innermost open span.
    pub fn leaf<T>(&mut self, name: &'static str, tag: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Self time (ns) per `(root name, layer name)` and per
    /// `(root name, layer name, tag)`, where the root is the outermost
    /// ancestor of the span.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = SelfTimes::default();
        for (i, s) in self.spans.iter().enumerate() {
            let mut root = i;
            while let Some(p) = self.spans[root].parent {
                root = p;
            }
            let self_ns = s.dur_ns().saturating_sub(child_ns[i]);
            let root_name = self.spans[root].name;
            *out.by_layer.entry((root_name, s.name)).or_default() += self_ns;
            *out.by_tag.entry((root_name, s.name, s.tag)).or_default() += self_ns;
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

/// Aggregated self times, see [`Tracer::self_times`].
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// `(root, layer)` → self ns.
    by_layer: BTreeMap<(&'static str, &'static str), u64>,
    /// `(root, layer, tag)` → self ns.
    by_tag: BTreeMap<(&'static str, &'static str, &'static str), u64>,
}

impl SelfTimes {
    /// Self seconds of `layer` under roots named `root`.
    pub fn layer_s(&self, root: &str, layer: &str) -> f64 {
        self.by_layer
            .iter()
            .filter(|((r, l), _)| *r == root && *l == layer)
            .map(|(_, ns)| *ns as f64 * 1e-9)
            .sum()
    }

    /// Self seconds of `layer` with `tag` under roots named `root`.
    pub fn tagged_s(&self, root: &str, layer: &str, tag: &str) -> f64 {
        self.by_tag
            .iter()
            .filter(|((r, l, t), _)| *r == root && *l == layer && *t == tag)
            .map(|(_, ns)| *ns as f64 * 1e-9)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        let d = tr.open("iteration", "");
        tr.leaf("a", "x", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.close_to(d);
        let st = tr.self_times();
        let a = st.layer_s("iteration", "a");
        let total = tr.spans[0].dur_ns() as f64 * 1e-9;
        assert!(a >= 0.002);
        assert!((st.layer_s("iteration", "iteration") - (total - a)).abs() < 1e-9);
        assert_eq!(st.tagged_s("iteration", "a", "x"), a);

        let mut off = Tracer::new(false);
        let d = off.open("iteration", "");
        assert_eq!(off.leaf("a", "", || 7), 7);
        off.close_to(d);
        assert!(off.spans.is_empty());
    }
}
