//! In-memory spans recorded by the traced run around calls into each
//! layer, written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A span recorder.
pub struct Spans {
    origin: Instant,
    recs: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::with_capacity(1 << 16),
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.recs.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.recs.len() - 1
    }

    /// Closes span `id`; returns its duration in µs.
    pub fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let s = &mut self.recs[id];
        s.end_ns = end;
        (end - s.start_ns) as f64 / 1e3
    }

    /// Every span recorded so far.
    pub fn records(&self) -> &[Span] {
        &self.recs
    }

    /// Runs `f` inside a span.
    pub fn run<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }

    /// Per name: `(calls, total µs, self µs)`, where self time is a span's
    /// duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.recs.len()];
        for s in &self.recs {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.recs.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e3;
            e.2 += dur.saturating_sub(child) as f64 / 1e3;
        }
        out
    }

    /// Writes the spans as Chrome trace-event JSON.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[")?;
        for (i, s) in self.recs.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let s = Spans {
            origin: Instant::now(),
            recs: vec![
                Span {
                    name: "req",
                    start_ns: 0,
                    end_ns: 10_000,
                    parent: None,
                },
                Span {
                    name: "a",
                    start_ns: 1_000,
                    end_ns: 4_000,
                    parent: Some(0),
                },
                Span {
                    name: "b",
                    start_ns: 5_000,
                    end_ns: 9_000,
                    parent: Some(0),
                },
            ],
        };
        let t = s.self_times();
        assert_eq!(t["req"], (1, 10.0, 3.0));
        assert_eq!(t["a"], (1, 3.0, 3.0));
        assert_eq!(t["b"], (1, 4.0, 4.0));
    }
}
