//! Tracing from outside the program: in-memory spans around every layer
//! call the benchmark makes, and a counting [`RunObserver`] the benchmark
//! owns.
//!
//! Spans sit in the benchmark's own code, around calls into each layer's
//! public functions (`Swarm::new`, `Session::membership_pass_with`,
//! `Universe::step`, one experiment kernel, …). Phase hooks inside the
//! engines are a later change; until then a layer's time is what its
//! outermost public call costs.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use strat_bittorrent::RunObserver;

/// One timed layer call: times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: f64,
    end: f64,
    parent: Option<usize>,
    run: u32,
}

/// Records spans in memory while on; while off it only times calls, so
/// untraced runs pay one clock read per call and keep nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(run: u32) -> Self {
        Self {
            on: true,
            run,
            ..Self::off()
        }
    }

    /// Starts tagging new spans with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span) and returns its result with the elapsed seconds.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.on.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start: (start - self.origin).as_secs_f64(),
                end: f64::NAN,
                parent: self.open.last().copied(),
                run: self.run,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end = (end - self.origin).as_secs_f64();
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// Total self time of the spans named `name` in run `run`: each span's
    /// duration minus the time its child spans cover.
    pub fn self_s(&self, run: u32, name: &str) -> f64 {
        let mut children = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.run == run && s.name == name)
            .map(|(s, c)| s.end - s.start - c)
            .sum()
    }

    /// Writes every span as one JSON line (`id`, `run`, `name`, `parent`,
    /// `start_s`, `end_s`).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"run\":{},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}",
                s.run, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Event totals seen by a [`Counting`] observer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counts {
    pub unchokes: u64,
    pub optimistic_unchokes: u64,
    pub transfers: u64,
    pub kbit: f64,
    pub pieces_converted: u64,
    pub completions: u64,
}

#[derive(Default)]
struct Tally {
    unchokes: AtomicU64,
    optimistic_unchokes: AtomicU64,
    transfers: AtomicU64,
    kbit_bits: AtomicU64,
    pieces_converted: AtomicU64,
    completions: AtomicU64,
}

/// A pure tap that counts engine events. Clones share one tally, so a
/// universe can hand every torrent the same counter. Counters are
/// statistics published by nothing, hence `Relaxed`; they are read only
/// after the engines have joined their workers.
#[derive(Clone, Default)]
pub struct Counting(Arc<Tally>);

fn bump(c: &AtomicU64) {
    c.fetch_add(1, Ordering::Relaxed);
}

impl Counting {
    pub fn totals(&self) -> Counts {
        let t = &self.0;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Counts {
            unchokes: get(&t.unchokes),
            optimistic_unchokes: get(&t.optimistic_unchokes),
            transfers: get(&t.transfers),
            kbit: f64::from_bits(get(&t.kbit_bits)),
            pieces_converted: get(&t.pieces_converted),
            completions: get(&t.completions),
        }
    }
}

impl RunObserver for Counting {
    fn unchoke(&self, _time: f64, _peer: usize, _target: usize, optimistic: bool) {
        if optimistic {
            bump(&self.0.optimistic_unchokes);
        } else {
            bump(&self.0.unchokes);
        }
    }

    fn transfer(&self, _time: f64, _sender: usize, _recipient: usize, kbit: f64, _tft: bool) {
        bump(&self.0.transfers);
        let _ = self
            .0
            .kbit_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + kbit).to_bits())
            });
    }

    fn piece_converted(&self, _time: f64, _recipient: usize, _piece: usize) {
        bump(&self.0.pieces_converted);
    }

    fn completed(&self, _time: f64, _peer: usize) {
        bump(&self.0.completions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::on(1);
        tr.span("outer", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let inner = tr.self_s(1, "inner");
        let outer = tr.self_s(1, "outer");
        assert!(inner >= 0.02 && outer >= 0.005 && outer < inner);
        assert_eq!(tr.self_s(2, "inner"), 0.0);
    }

    #[test]
    fn off_tracer_times_but_keeps_nothing() {
        let mut tr = Tracer::off();
        let (v, s) = tr.span("x", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(s >= 0.002);
        assert_eq!(tr.self_s(0, "x"), 0.0);
    }
}
