//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call it
//! makes into a layer of the system (`engine.insert`, `net.detect`,
//! `router.repair`, ...). The layer is the name's prefix before the
//! first `.`. A span carries its start and end (ns since the run's
//! epoch), the index of its parent span on the same thread, and the
//! edge or request id it was recorded for. Each thread owns one
//! [`Tracer`]; the tracers are merged when the run ends and written out
//! as JSON lines.
//!
//! A disabled tracer records nothing and costs one branch per call,
//! which is how the untraced end-to-end runs use the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Parent index meaning "no parent".
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub id: u64,
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant, thread: &'static str) -> Tracer {
        Tracer { enabled, epoch, thread, spans: Vec::new() }
    }

    /// Opens a span; returns its index ([`ROOT`] when disabled).
    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: u32, id: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, id });
        (self.spans.len() - 1) as u32
    }

    /// Closes the span `begin` returned.
    #[inline]
    pub fn end(&mut self, span: u32) {
        if let Some(s) = self.spans.get_mut(span as usize) {
            s.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(name, parent, id);
        let out = f();
        self.end(s);
        out
    }
}

/// Every thread's spans, merged.
#[derive(Debug, Default)]
pub struct Trace {
    threads: Vec<(&'static str, Vec<Span>)>,
}

impl Trace {
    pub fn absorb(&mut self, tracer: Tracer) {
        if tracer.enabled {
            self.threads.push((tracer.thread, tracer.spans));
        }
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|(_, s)| s.len()).sum()
    }

    /// Self time per layer (ns): each span's duration minus the time its
    /// child spans cover. Children on one thread never overlap each
    /// other, so the covered time is the sum of their durations.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (_, spans) in &self.threads {
            let mut child_ns = vec![0u64; spans.len()];
            for s in spans {
                if let Some(c) = child_ns.get_mut(s.parent as usize) {
                    *c += s.end_ns - s.start_ns;
                }
            }
            for (s, covered) in spans.iter().zip(child_ns) {
                let own = (s.end_ns - s.start_ns).saturating_sub(covered);
                *out.entry(layer(s.name)).or_insert(0.0) += own as f64;
            }
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (thread, spans) in &self.threads {
            for (i, s) in spans.iter().enumerate() {
                let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
                writeln!(
                    out,
                    "{{\"thread\":\"{thread}\",\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.id
                )?;
            }
        }
        out.flush()
    }
}

/// The layer a span name belongs to.
fn layer(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let mut t = Tracer::new(true, epoch, "t");
        t.spans.push(Span { name: "loadgen.round", start_ns: 0, end_ns: 100, parent: ROOT, id: 0 });
        t.spans.push(Span { name: "net.flush", start_ns: 10, end_ns: 40, parent: 0, id: 1 });
        t.spans.push(Span { name: "net.detect", start_ns: 50, end_ns: 70, parent: 0, id: 1 });
        let mut trace = Trace::default();
        trace.absorb(t);
        let by_layer = trace.self_ns_by_layer();
        assert_eq!(by_layer["loadgen"], 50.0);
        assert_eq!(by_layer["net"], 50.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), "t");
        let s = t.begin("engine.insert", ROOT, 0);
        t.end(s);
        let mut trace = Trace::default();
        trace.absorb(t);
        assert_eq!(trace.span_count(), 0);
    }
}
