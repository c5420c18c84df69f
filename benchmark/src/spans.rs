//! Benchmark-side spans: one per call into a layer, recorded from outside
//! the program (spans inside the engines are a later change).
//!
//! A span is `(name, start_ns, end_ns, parent, region_id)`; spans of one
//! region share its `region_id`. They stay in memory for the whole run and
//! are written to `results/<workload>.spans.jsonl` at exit. A layer's self
//! time is its span's duration minus what its children cover. Untraced runs
//! use [`Spans::disabled`], so the end-to-end numbers never pay for them.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u64,
    /// Layer-qualified name (`speccross.execute`, `reference.run`, …).
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Region the span belongs to (0 = not part of a region).
    pub region_id: u64,
}

/// An in-memory span recorder owned by one thread.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    /// First id this recorder hands out; lets per-thread recorders be merged
    /// without collisions.
    next_id: u64,
    open: Vec<(u64, &'static str, u64, u64)>,
    closed: Vec<Span>,
}

impl Spans {
    /// A recorder stamping times relative to `origin`, numbering from
    /// `first_id`.
    pub fn new(origin: Instant, first_id: u64) -> Self {
        Spans {
            enabled: true,
            origin,
            next_id: first_id,
            open: Vec::new(),
            closed: Vec::new(),
        }
    }

    /// A recorder that records nothing (untraced runs).
    pub fn disabled() -> Self {
        Spans {
            enabled: false,
            ..Spans::new(Instant::now(), 0)
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The shared time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Runs `f` inside a span named `name` attributed to `region_id`; the
    /// innermost open span becomes its parent.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        region_id: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start = self.origin.elapsed().as_nanos() as u64;
        self.open.push((id, name, start, region_id));
        let out = f(self);
        let (id, name, start_ns, region_id) = self.open.pop().expect("span opened above");
        self.closed.push(Span {
            id,
            name,
            start_ns,
            end_ns: self.origin.elapsed().as_nanos() as u64,
            parent: self.open.last().map(|&(parent, ..)| parent),
            region_id,
        });
        out
    }

    /// Absorbs another recorder's closed spans (per-client recorders of
    /// `server_mix`).
    pub fn merge(&mut self, other: Spans) {
        self.closed.extend(other.closed);
    }

    /// The closed spans, in closing order.
    pub fn closed(&self) -> &[Span] {
        &self.closed
    }

    /// Writes the spans as JSONL, creating the parent directory.
    ///
    /// # Errors
    ///
    /// Any I/O error, including the final flush.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.closed {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"region_id\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.region_id
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_record_their_parent_and_region() {
        let mut spans = Spans::new(Instant::now(), 10);
        spans.scope("round", 0, |s| {
            s.scope("speccross.execute", 7, |_| ());
            s.scope("reference.run", 7, |_| ());
        });
        let closed = spans.closed();
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].name, "speccross.execute");
        assert_eq!(closed[0].parent, Some(10));
        assert_eq!(closed[0].region_id, 7);
        assert_eq!(closed[2].name, "round");
        assert_eq!(closed[2].parent, None);
        assert!(closed[2].start_ns <= closed[0].start_ns && closed[1].end_ns <= closed[2].end_ns);
    }

    #[test]
    fn disabled_recorder_stays_empty() {
        let mut spans = Spans::disabled();
        assert_eq!(spans.scope("x", 0, |_| 3), 3);
        assert!(spans.closed().is_empty());
    }
}
