//! Measuring one `Sim::run` call from outside, and the `pcr` layer
//! metrics derived from those measurements (shared by paper-matrix and
//! the serve workloads).

use pcr::{RunLimit, RunReport, Sim};
use trace::Collector;

use crate::os::{self, Usage};
use crate::sink::{SinkTiming, Spans, TimedSink, Unit, PRIMITIVES};
use crate::stats::{median, ratio};
use crate::Outcome;

/// What measured `Sim::run` calls did, summed over one unit.
#[derive(Clone, Copy, Debug, Default)]
pub struct SimTally {
    /// `SimStats::event_volume` delta.
    pub events: u64,
    /// Wall seconds inside `Sim::run`.
    pub wall_s: f64,
    /// Process CPU and context switches inside `Sim::run`.
    pub usage: Usage,
    /// Simulated thread switches.
    pub switches: u64,
    /// Timeslice expirations.
    pub quantum_expiries: u64,
    /// High-water mark of live simulated threads.
    pub max_live: usize,
    /// Timer arms (slab allocations plus free-list reuses).
    pub timer_arms: u64,
    /// Timer slab nodes allocated since the sim was built.
    pub timer_slab_allocs: u64,
    /// Carrier OS threads spawned since the sim was built.
    pub os_thread_spawns: u64,
    /// Forks served by a pooled carrier since the sim was built.
    pub os_thread_reuses: u64,
    /// Ready/CV queue nodes allocated since the sim was built.
    pub queue_node_allocs: u64,
    /// OS threads in the process when `Sim::run` returned, at most.
    pub os_threads_peak: u64,
}

impl SimTally {
    fn add(&mut self, o: &SimTally) {
        self.events += o.events;
        self.wall_s += o.wall_s;
        self.usage = self.usage.plus(o.usage);
        self.switches += o.switches;
        self.quantum_expiries += o.quantum_expiries;
        self.max_live = self.max_live.max(o.max_live);
        self.timer_arms += o.timer_arms;
        self.timer_slab_allocs += o.timer_slab_allocs;
        self.os_thread_spawns += o.os_thread_spawns;
        self.os_thread_reuses += o.os_thread_reuses;
        self.queue_node_allocs += o.queue_node_allocs;
        self.os_threads_peak = self.os_threads_peak.max(o.os_threads_peak);
    }
}

/// Per-unit tallies and sink timing over a whole benchmark run.
#[derive(Default)]
pub struct SimLayers {
    units: Vec<(Unit, SimTally)>,
    sink: SinkTiming,
}

/// How a measured run observes the event stream.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SinkMode {
    /// No sink at all.
    None,
    /// A `trace::Collector`, left installed for the caller's harvest.
    Collector,
}

impl SimLayers {
    /// Runs `sim` to `limit` as span `span` of `unit` and tallies it.
    ///
    /// With `mode` = [`SinkMode::Collector`] a fresh `Collector` is
    /// installed and left in place afterwards. A traced unit wraps that
    /// Collector in a [`TimedSink`] (installing a Collector even under
    /// [`SinkMode::None`]) and takes the wrapper out again before
    /// returning, handing the Collector back through `set_sink` when the
    /// caller asked for one.
    pub fn run(
        &mut self,
        sim: &mut Sim,
        limit: RunLimit,
        mode: SinkMode,
        span: &'static str,
        unit: Unit,
        spans: &mut Spans,
    ) -> RunReport {
        if unit.traced {
            sim.set_sink(Box::new(TimedSink::new(Collector::for_sim(sim))));
        } else if mode == SinkMode::Collector {
            sim.set_sink(Box::new(Collector::for_sim(sim)));
        }
        let (events0, switches0, quanta0) = {
            let s = sim.stats();
            (s.event_volume(), s.switches, s.quantum_expiries)
        };
        let alloc0 = sim.alloc_counters();
        let usage0 = Usage::now();
        let report = spans.time(span, unit, || sim.run(limit));
        let usage = Usage::now().since(usage0);
        let os_threads = os::status_field("Threads");
        let wall_s = spans
            .spans
            .last()
            .expect("span just recorded")
            .dur
            .as_secs_f64();
        let (s, a) = (sim.stats(), sim.alloc_counters());
        let tally = SimTally {
            events: s.event_volume() - events0,
            wall_s,
            usage,
            switches: s.switches - switches0,
            quantum_expiries: s.quantum_expiries - quanta0,
            max_live: s.max_live_threads,
            timer_arms: (a.timer_node_allocs + a.timer_node_reuses)
                - (alloc0.timer_node_allocs + alloc0.timer_node_reuses),
            timer_slab_allocs: a.timer_node_allocs,
            os_thread_spawns: a.os_thread_spawns,
            os_thread_reuses: a.os_thread_reuses,
            queue_node_allocs: a.queue_node_allocs,
            os_threads_peak: os_threads,
        };
        if unit.traced {
            let timed = trace::take_collector::<TimedSink<Collector>>(sim)
                .expect("the traced run installed a TimedSink");
            self.sink.merge(&timed.timing);
            if mode == SinkMode::Collector {
                sim.set_sink(Box::new(timed.inner));
            }
        }
        match self.units.last_mut() {
            Some((u, t)) if *u == unit => t.add(&tally),
            _ => self.units.push((unit, tally)),
        }
        report
    }

    fn tallies(&self, traced: bool) -> impl Iterator<Item = &SimTally> {
        self.units
            .iter()
            .filter(move |u| u.0.traced == traced)
            .map(|u| &u.1)
    }

    /// Median over untraced units of events per wall second in `Sim::run`.
    pub fn events_per_s(&self) -> f64 {
        let v: Vec<f64> = self
            .tallies(false)
            .map(|t| ratio(t.events as f64, t.wall_s))
            .collect();
        median(&v)
    }

    /// The untraced units' tallies summed, and how many there were.
    pub fn untraced_total(&self) -> (SimTally, usize) {
        let mut all = SimTally::default();
        let mut n = 0;
        for t in self.tallies(false) {
            all.add(t);
            n += 1;
        }
        (all, n)
    }

    /// The first untraced unit's tally: the deterministic counts.
    fn first(&self) -> SimTally {
        self.tallies(false).next().copied().unwrap_or_default()
    }

    /// Sets every `pcr` layer metric: rendezvous, primitives, sched,
    /// timer, pool/arena and trace sink.
    pub fn report(&self, out: &mut Outcome) {
        let (all, _) = self.untraced_total();
        let events = all.events as f64;
        let cpu_s = all.usage.cpu_s();
        out.set(
            "rendezvous.os_switches_per_event",
            ratio(all.usage.switches as f64, events),
        );
        out.set("rendezvous.cpu_us_per_event", ratio(cpu_s * 1e6, events));
        out.set(
            "rendezvous.sys_share",
            ratio(all.usage.sys.as_secs_f64(), cpu_s),
        );
        out.set("rendezvous.wall_per_cpu", ratio(all.wall_s, cpu_s));

        let first = self.first();
        out.set(
            "sched.switches_per_event",
            ratio(first.switches as f64, first.events as f64),
        );
        out.set("sched.quantum_expiries", first.quantum_expiries as f64);
        out.set("sched.max_live_threads", first.max_live as f64);
        out.set(
            "timer.arms_per_event",
            ratio(first.timer_arms as f64, first.events as f64),
        );
        out.set("timer.slab_allocs", first.timer_slab_allocs as f64);
        out.set("pool.os_thread_spawns", first.os_thread_spawns as f64);
        out.set("pool.os_thread_reuses", first.os_thread_reuses as f64);
        out.set("arena.queue_node_allocs", first.queue_node_allocs as f64);
        out.set("pool.os_threads_peak", first.os_threads_peak as f64);

        let traced: Vec<&SimTally> = self.tallies(true).collect();
        let traced_units = traced.len() as f64;
        let traced_events: u64 = traced.iter().map(|t| t.events).sum();
        let traced_wall: f64 = traced.iter().map(|t| t.wall_s).sum();
        let sink = &self.sink;
        for (k, name) in PRIMITIVES.iter().enumerate() {
            out.set(
                &format!("prim.{name}.count"),
                ratio(sink.counts[k] as f64, traced_units),
            );
            out.set(
                &format!("prim.{name}.gap_us_p50"),
                sink.gaps[k].quantile(0.50) / 1e3,
            );
            out.set(
                &format!("prim.{name}.gap_us_p99"),
                sink.gaps[k].quantile(0.99) / 1e3,
            );
        }
        let record_s = sink.record.as_secs_f64();
        out.set(
            "trace.sink_ns_per_event",
            ratio(record_s * 1e9, sink.forwarded as f64),
        );
        out.set("trace.sink_share", ratio(record_s, traced_wall));
        out.set(
            "trace.events_per_sim_event",
            ratio(sink.forwarded as f64, traced_events as f64),
        );
    }
}
