//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and request id. Spans are
//! kept in memory and written out once, when the run ends. A disabled tracer
//! runs the wrapped closure and records nothing, so the untimed and timed
//! paths share one piece of code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call, e.g. `snapshot.build`.
    pub name: &'static str,
    /// The request (loop iteration) the call served.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall-clock duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans when enabled; a pass-through otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    paused: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the wrapped calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            paused: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled && !self.paused
    }

    /// Stops (`true`) or resumes (`false`) recording, e.g. for the untraced
    /// iterations of a traced run.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to `request`. Spans
    /// opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled() {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span named `name`, in start order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per request, the summed duration (ms) of the spans named `name`;
    /// requests without such a span are left out.
    pub fn per_request_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.request).or_default() += s.ms();
        }
        sums
    }

    /// Self time of every span (ns): its duration minus the part of it its
    /// child spans cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                // Children start in order; merge overlapping intervals.
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &k in kids {
                    let (a, b) = (self.spans[k].start_ns.max(reach), self.spans[k].end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per request, the summed self time (ms) of the spans named `name`.
    pub fn per_request_self_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let self_ns = self.self_ns();
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            if s.name == name {
                *sums.entry(s.request).or_default() += own as f64 / 1e6;
            }
        }
        sums
    }

    /// Writes at most `limit` spans as JSON lines (id, name, request,
    /// parent, start/end/self in ns) to `path`, creating parent directories.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut t = Tracer::new(true);
        t.span("outer", 3, |t| {
            t.span("inner", 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let own = t.self_ns();
        let outer = spans[0].end_ns - spans[0].start_ns;
        let inner: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], outer - inner);
        assert_eq!(t.per_request_ms("inner").len(), 1);
    }

    #[test]
    fn a_disabled_or_paused_tracer_only_runs_the_call() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
        let mut t = Tracer::new(true);
        t.pause(true);
        assert_eq!(t.span("x", 0, |_| 5), 5);
        assert!(t.spans().is_empty());
        t.pause(false);
        t.span("x", 0, |_| ());
        assert_eq!(t.spans().len(), 1);
    }
}
