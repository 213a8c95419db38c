//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark's side of the call. Spans are kept in memory while the run
//! measures and written out as JSON lines when it ends, so recording
//! costs one clock read and one short mutex push per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the recorder.
    pub id: u32,
    /// The span that made this call; `None` for a repetition's root.
    pub parent: Option<u32>,
    /// The called function, spelled as in the library.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Thread-safe span sink shared by every span of one traced repetition
/// (campaign workers record into it concurrently).
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; `f` receives
    /// the new span's id so it can parent its own calls.
    pub fn span<T>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce(u32) -> T) -> T {
        // Relaxed: the id only has to be unique; it publishes no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("a span recorder holder panicked")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    pub fn into_spans(self) -> Spans {
        let mut spans = self
            .spans
            .into_inner()
            .expect("a span recorder holder panicked");
        spans.sort_by_key(|s| s.id);
        Spans { spans }
    }
}

/// The finished spans of one traced repetition, sorted by id.
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Summed duration of the spans named `name` whose parent is named
    /// `parent`, in seconds.
    pub fn total_under(&self, name: &str, parent: &str) -> f64 {
        let parents: std::collections::BTreeSet<u32> = self
            .spans
            .iter()
            .filter(|s| s.name == parent)
            .map(|s| s.id)
            .collect();
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| parents.contains(&p)))
            .map(Span::secs)
            .sum()
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.secs() * 1e3)
            .collect()
    }

    /// The single parentless span: the repetition's root.
    pub fn root(&self) -> &Span {
        let mut roots = self.spans.iter().filter(|s| s.parent.is_none());
        let root = roots.next().expect("a traced repetition has a root span");
        assert!(
            roots.next().is_none(),
            "a traced repetition has exactly one root span"
        );
        root
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its children cover (children may overlap when they
    /// ran on parallel workers).
    pub fn self_ns(&self) -> Vec<u64> {
        let index: BTreeMap<u32, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[index[&p]].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| (s.end_ns - s.start_ns).saturating_sub(covered(s, kids)))
            .collect()
    }

    /// Share of the root's duration covered by its direct children: how
    /// much of the traced repetition the top-level spans account for.
    pub fn top_level_coverage(&self) -> f64 {
        let root = self.root();
        let kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let dur = root.end_ns - root.start_ns;
        if dur == 0 {
            return 1.0;
        }
        covered(root, kids) as f64 / dur as f64
    }

    /// Self time summed per span name, in seconds, largest first.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut by: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.name).or_default() += ns;
        }
        let mut v: Vec<(&'static str, f64)> = by
            .into_iter()
            .map(|(n, ns)| (n, ns as f64 * 1e-9))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }

    /// Appends the spans as JSON lines tagged with `run_id` and `rep`.
    pub fn write_jsonl(
        &self,
        out: &mut impl Write,
        run_id: &str,
        rep: usize,
    ) -> std::io::Result<()> {
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{run_id}\",\"rep\":{rep},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.id, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds of `parent`'s interval covered by the union of `kids`.
fn covered(parent: &Span, mut kids: Vec<(u64, u64)>) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut reach = parent.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        let end = end.min(parent.end_ns);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Writes every repetition's spans to `path` (one JSON object a line).
pub fn write_trace(path: &Path, run_id: &str, reps: &[Spans]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rep, spans) in reps.iter().enumerate() {
        spans.write_jsonl(&mut out, run_id, rep)?;
    }
    out.flush()
}
