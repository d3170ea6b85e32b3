//! In-memory span store for `--trace` runs.
//!
//! Spans are recorded by the benchmark around its calls into each layer,
//! kept in memory while the workload runs, and written out as JSON lines
//! when it ends. A span's self time is its duration minus the part of its
//! interval that its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `engine.run`.
    pub name: &'static str,
    /// The scenario or request the span belongs to.
    pub id: u64,
    /// Index of the enclosing span in the same store (or, before
    /// [`Trace::append`], in the same batch).
    pub parent: Option<usize>,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
}

impl Span {
    /// A span over `[start, end]`.
    pub fn new(
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Self {
        Span {
            name,
            id,
            parent,
            start,
            end,
        }
    }

    /// Wall time of the call.
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The spans of one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty store; span times are written relative to `origin`.
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    /// Add a batch of spans whose `parent` indices point into the batch
    /// itself (one scenario's chain, recorded on a worker thread).
    pub fn append(&mut self, batch: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(batch.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration().saturating_sub(covered(s.start, s.end, kids)))
            .collect()
    }

    /// Summed duration and summed self time of the spans named `name`.
    pub fn total(&self, name: &str) -> (Duration, Duration) {
        let selfs = self.self_times();
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .fold((Duration::ZERO, Duration::ZERO), |(d, own), (s, t)| {
                (d + s.duration(), own + *t)
            })
    }

    /// Write one JSON object per span: name, id, parent index, start and
    /// end in microseconds from the start of the run, and self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"index\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.name,
                s.id,
                us(s.start),
                us(s.end),
                own.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(start: Instant, end: Instant, mut intervals: Vec<(Instant, Instant)>) -> Duration {
    intervals.sort();
    let mut total = Duration::ZERO;
    let mut reach = start;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(origin: Instant, ms: u64) -> Instant {
        origin + Duration::from_millis(ms)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let o = Instant::now();
        let mut t = Trace::new(o);
        t.append(vec![
            Span::new("scenario", 1, None, at(o, 0), at(o, 100)),
            // Two overlapping children cover 10..40 once, not twice.
            Span::new("core.build", 1, Some(0), at(o, 10), at(o, 30)),
            Span::new("engine.run", 1, Some(0), at(o, 20), at(o, 40)),
            // A child that overruns its parent counts only inside it.
            Span::new("engine.verify", 1, Some(0), at(o, 90), at(o, 120)),
            // A grandchild is charged to its own parent, not the root.
            Span::new("inner", 1, Some(2), at(o, 25), at(o, 35)),
        ]);
        let selfs = t.self_times();
        assert_eq!(selfs[0], Duration::from_millis(100 - 30 - 10));
        assert_eq!(selfs[1], Duration::from_millis(20));
        assert_eq!(selfs[2], Duration::from_millis(10));
        assert_eq!(selfs[3], Duration::from_millis(30));
        assert_eq!(selfs[4], Duration::from_millis(10));
        assert_eq!(
            t.total("scenario"),
            (Duration::from_millis(100), Duration::from_millis(60))
        );
    }

    #[test]
    fn appended_batches_keep_their_own_parents() {
        let o = Instant::now();
        let chain = |id| {
            vec![
                Span::new("scenario", id, None, at(o, 0), at(o, 10)),
                Span::new("engine.run", id, Some(0), at(o, 0), at(o, 10)),
            ]
        };
        let mut t = Trace::new(o);
        t.append(chain(1));
        t.append(chain(2));
        // Each child covers its own chain's root entirely.
        assert_eq!(t.total("scenario").1, Duration::ZERO);
    }
}
