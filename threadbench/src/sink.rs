//! The traced run's instruments: spans around the benchmark's calls
//! into each layer, and a timing wrapper around the trace sink.

use std::io::Write as _;
use std::time::{Duration, Instant};

use pcr::{Event, EventKind, EventMask, TraceSink};

use crate::stats::LogHistogram;

/// The `pcr::ctx` primitives whose round-trip cost the traced run
/// reports, by the event kind that closes each one.
pub const PRIMITIVES: [&str; 7] = [
    "Switch", "MlEnter", "MlExit", "CvWait", "Notify", "Sleep", "Fork",
];

fn primitive(kind: &EventKind) -> Option<usize> {
    Some(match kind {
        EventKind::Switch { .. } => 0,
        EventKind::MlEnter { .. } => 1,
        EventKind::MlExit { .. } => 2,
        EventKind::CvWait { .. } => 3,
        EventKind::Notify { .. } => 4,
        EventKind::Sleep { .. } => 5,
        EventKind::Fork { .. } => 6,
        _ => return None,
    })
}

/// Per-primitive wall gaps and sink cost, accumulated over traced units.
#[derive(Clone, Debug, Default)]
pub struct SinkTiming {
    /// Events forwarded to the inner sink.
    pub forwarded: u64,
    /// Wall time spent inside the inner sink's `record`.
    pub record: Duration,
    /// Events of each [`PRIMITIVES`] kind.
    pub counts: [u64; PRIMITIVES.len()],
    /// Wall gap closing on each [`PRIMITIVES`] kind, ns: from the
    /// previous event's return out of the sink to this event's arrival,
    /// i.e. the runtime's own time to produce the event.
    pub gaps: [LogHistogram; PRIMITIVES.len()],
}

impl SinkTiming {
    /// Adds `other`'s tallies.
    pub fn merge(&mut self, other: &SinkTiming) {
        self.forwarded += other.forwarded;
        self.record += other.record;
        for k in 0..PRIMITIVES.len() {
            self.counts[k] += other.counts[k];
            self.gaps[k].merge(&other.gaps[k]);
        }
    }
}

/// Wraps a sink: forwards exactly the kinds the inner sink subscribes
/// to, timestamps every event, and times each forwarded `record`. Wall
/// time only flows into [`SinkTiming`], never back into the simulation.
pub struct TimedSink<S: TraceSink> {
    /// The wrapped sink, handed back before harvest.
    pub inner: S,
    /// What the wrapper measured.
    pub timing: SinkTiming,
    last_out: Option<Instant>,
}

impl<S: TraceSink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink {
            inner,
            timing: SinkTiming::default(),
            last_out: None,
        }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, ev: &Event) {
        let t_in = Instant::now();
        self.inner.record(ev);
        let t_out = Instant::now();
        let t = &mut self.timing;
        t.forwarded += 1;
        t.record += t_out - t_in;
        if let Some(k) = primitive(&ev.kind) {
            t.counts[k] += 1;
            if let Some(prev) = self.last_out {
                t.gaps[k].record((t_in - prev).as_nanos() as u64);
            }
        }
        self.last_out = Some(t_out);
    }

    fn subscriptions(&self) -> EventMask {
        self.inner.subscriptions()
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// One unit of work (matrix pass, serve drain, echo block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unit {
    /// Its index in the run.
    pub id: u32,
    /// Whether it runs traced.
    pub traced: bool,
}

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The call, e.g. `workloads.build` or `serverd.drain`.
    pub name: &'static str,
    /// The unit it belongs to.
    pub unit: Unit,
    /// Start, since the benchmark began.
    pub start: Duration,
    /// Duration.
    pub dur: Duration,
}

/// Spans kept in memory for the whole run.
pub struct Spans {
    origin: Instant,
    /// Every span recorded, in order.
    pub spans: Vec<Span>,
}

impl Spans {
    /// Starts an empty record whose clock begins now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` as span `name` of `unit`.
    pub fn time<T>(&mut self, name: &'static str, unit: Unit, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            unit,
            start: start - self.origin,
            dur: start.elapsed(),
        });
        out
    }

    /// Seconds spent in spans named any of `names`, summed per unit, for
    /// units whose traced flag is `traced`, in unit order.
    pub fn per_unit(&self, names: &[&str], traced: bool) -> Vec<f64> {
        let mut out: Vec<(u32, f64)> = Vec::new();
        for s in self
            .spans
            .iter()
            .filter(|s| names.contains(&s.name) && s.unit.traced == traced)
        {
            match out.last_mut() {
                Some((id, total)) if *id == s.unit.id => *total += s.dur.as_secs_f64(),
                _ => out.push((s.unit.id, s.dur.as_secs_f64())),
            }
        }
        out.into_iter().map(|(_, t)| t).collect()
    }

    /// Seconds of every single span named `name`.
    pub fn each(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur.as_secs_f64())
            .collect()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"name":"{}","unit":{},"traced":{},"start_us":{},"dur_us":{}}}"#,
                s.name,
                s.unit.id,
                s.unit.traced,
                s.start.as_micros(),
                s.dur.as_micros()
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcr::{millis, secs, Priority, RunLimit, Sim, SimConfig, VecSink};

    fn world() -> Sim {
        let mut sim = Sim::new(SimConfig::default().with_seed(3));
        let m = sim.monitor("m", 0u32);
        let _ = sim.fork_root("t", Priority::DEFAULT, move |ctx| {
            for _ in 0..50 {
                ctx.enter(&m).with_mut(|v| *v += 1);
                ctx.sleep(millis(1));
            }
        });
        sim
    }

    #[test]
    fn wrapper_forwards_everything_the_inner_sink_sees() {
        let mut plain = world();
        plain.set_sink(Box::new(VecSink::default()));
        plain.run(RunLimit::For(secs(10)));
        let want = trace::take_collector::<VecSink>(&mut plain).unwrap().events;

        let mut timed = world();
        timed.set_sink(Box::new(TimedSink::new(VecSink::default())));
        timed.run(RunLimit::For(secs(10)));
        let got = trace::take_collector::<TimedSink<VecSink>>(&mut timed).unwrap();
        assert_eq!(got.inner.events.len(), want.len());
        assert!(got
            .inner
            .events
            .iter()
            .zip(&want)
            .all(|(a, b)| a.t == b.t && a.kind == b.kind));
        assert_eq!(got.timing.forwarded, want.len() as u64);
        assert_eq!(got.timing.counts[1], 50, "one MlEnter per loop turn");
        assert_eq!(got.timing.gaps[1].count(), 50);
    }

    #[test]
    fn per_unit_sums_spans_of_one_unit() {
        let mut spans = Spans::new();
        let unit = |id| Unit {
            id,
            traced: id == 1,
        };
        for id in 0..3 {
            for _ in 0..2 {
                spans.time("x", unit(id), || {
                    std::thread::sleep(Duration::from_millis(1))
                });
            }
        }
        spans.time("y", unit(2), || ());
        let untraced = spans.per_unit(&["x"], false);
        assert_eq!(untraced.len(), 2);
        assert!(untraced.iter().all(|&t| t >= 0.002));
        assert_eq!(spans.per_unit(&["x", "y"], false).len(), 2);
        assert_eq!(spans.per_unit(&["x"], true).len(), 1);
        assert_eq!(spans.each("x").len(), 6);
    }
}
