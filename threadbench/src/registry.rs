//! Every metric the benchmark prints: its unit, which direction is
//! better, the layer it belongs to, and the end-to-end metric and
//! workload it should move. `BENCHMARK.json` and the metric table in
//! `README.md` are checked against this list by the tests below.

use crate::sink::PRIMITIVES;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The module(s) the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric and workload it should move (rendered
    /// into the README table).
    #[cfg_attr(not(test), allow(dead_code))]
    pub moves: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

fn m(
    name: impl Into<String>,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        layer,
        moves,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The 12 Tables 1–3 cells as metric labels, in table order.
pub fn cell_labels() -> Vec<String> {
    crate::matrix::cells()
        .into_iter()
        .map(|(sys, b)| format!("{}-{b:?}", sys.name()))
        .collect()
}

/// Metrics printed by an untraced run (`--trace 0`), on every workload.
pub fn end_to_end() -> Vec<Metric> {
    let e2e = |name: &str, unit, better, bound, layer, moves| Metric {
        bound: Some(bound),
        ..m(name, unit, better, layer, moves)
    };
    vec![
        e2e(
            "setup_s",
            "s",
            Lower,
            0.25,
            "end-to-end",
            "median set-up of one unit: sim build per cell, build_sim per drain, queue + slack spawn per block",
        ),
        e2e(
            "run_s",
            "s",
            Lower,
            0.25,
            "end-to-end",
            "median wall of one unit from end of set-up through teardown",
        ),
        e2e(
            "events_per_s",
            "1/s",
            Higher,
            0.25,
            "end-to-end",
            "sim events over the measured Sim::run per wall second (mesa-echo: keystrokes echoed per second)",
        ),
        e2e(
            "peak_rss_mb",
            "MB",
            Lower,
            0.2,
            "end-to-end",
            "peak resident set of the benchmark process",
        ),
    ]
}

/// Metrics printed by a traced run (`--trace 1`). A layer a workload
/// never enters reads 0 on that workload.
pub fn per_layer() -> Vec<Metric> {
    const RDV: &str = "pcr::rendezvous";
    const CTX: &str = "pcr::ctx";
    const SCHED: &str = "pcr::sched + policy";
    const WHEEL: &str = "pcr::wheel / timer";
    const POOL: &str = "pcr::arena + carrier pool";
    const SINK: &str = "pcr::event emit -> trace::Collector";
    const WL: &str = "workloads";
    const SD: &str = "serverd + paradigms::pump";
    const MESA: &str = "mesa";
    const HANDOFF: &str = "events_per_s, run_s on paper-matrix and serve-*; none on mesa-echo";
    const FIXED: &str = "none: deterministic, identical under any perf change";
    const POOLED: &str = "setup_s, peak_rss_mb on sim workloads; run_s on Keyboard/Format cells";
    const SERVE_T: &str = "run_s, events_per_s on serve-*";
    const ECHO: &str = "events_per_s, run_s on mesa-echo only";

    let mut v = vec![
        m(
            "rendezvous.os_switches_per_event",
            "ratio",
            Lower,
            RDV,
            HANDOFF,
        ),
        m("rendezvous.cpu_us_per_event", "us", Lower, RDV, HANDOFF),
        m("rendezvous.sys_share", "ratio", Lower, RDV, HANDOFF),
        m("rendezvous.wall_per_cpu", "ratio", Lower, RDV, HANDOFF),
    ];
    for k in PRIMITIVES {
        let moves = match k {
            "MlEnter" | "MlExit" => "events_per_s on paper-matrix (the < 2 us monitor pair)",
            "Fork" => "run_s on paper-matrix (Keyboard, Format cells)",
            _ => "events_per_s on paper-matrix and serve-*",
        };
        v.push(m(format!("prim.{k}.count"), "count", Lower, CTX, FIXED));
        v.push(m(format!("prim.{k}.gap_us_p50"), "us", Lower, CTX, moves));
        v.push(m(format!("prim.{k}.gap_us_p99"), "us", Lower, CTX, moves));
    }
    v.extend([
        m("sched.switches_per_event", "ratio", Lower, SCHED, FIXED),
        m("sched.quantum_expiries", "count", Lower, SCHED, FIXED),
        m("sched.max_live_threads", "count", Lower, SCHED, FIXED),
        m(
            "timer.arms_per_event",
            "ratio",
            Lower,
            WHEEL,
            "events_per_s on serve-*; little on paper-matrix",
        ),
        m(
            "timer.slab_allocs",
            "count",
            Lower,
            WHEEL,
            "events_per_s on serve-*; little on paper-matrix",
        ),
        m("pool.os_thread_spawns", "count", Lower, POOL, POOLED),
        m("pool.os_thread_reuses", "count", Higher, POOL, POOLED),
        m("arena.queue_node_allocs", "count", Lower, POOL, POOLED),
        m("pool.os_threads_peak", "count", Lower, POOL, POOLED),
        m(
            "trace.sink_ns_per_event",
            "ns",
            Lower,
            SINK,
            "events_per_s on paper-matrix; none on serve-*",
        ),
        m(
            "trace.sink_share",
            "ratio",
            Lower,
            SINK,
            "events_per_s on paper-matrix; none on serve-*",
        ),
        m(
            "trace.events_per_sim_event",
            "ratio",
            Lower,
            SINK,
            "events_per_s on paper-matrix; none on serve-*",
        ),
        m(
            "workloads.build_s",
            "s",
            Lower,
            WL,
            "setup_s on paper-matrix",
        ),
        m(
            "workloads.warmup_s",
            "s",
            Lower,
            WL,
            "run_s on paper-matrix",
        ),
        m(
            "workloads.window_s",
            "s",
            Lower,
            WL,
            "run_s, events_per_s on paper-matrix",
        ),
        m(
            "workloads.harvest_s",
            "s",
            Lower,
            WL,
            "run_s only, never events_per_s, on paper-matrix",
        ),
        m(
            "workloads.teardown_s",
            "s",
            Lower,
            WL,
            "run_s only, never events_per_s, on paper-matrix",
        ),
        m(
            "workloads.paper_error",
            "ratio",
            Lower,
            WL,
            "none: fidelity to Tables 1-3, deterministic per seed",
        ),
    ]);
    for cell in cell_labels() {
        v.push(m(
            format!("cell.{cell}.events_per_s"),
            "1/s",
            Higher,
            WL,
            "events_per_s on paper-matrix",
        ));
    }
    v.extend([
        m("serverd.build_s", "s", Lower, SD, "setup_s on serve-*"),
        m("serverd.drain_s", "s", Lower, SD, SERVE_T),
        m("serverd.report_s", "s", Lower, SD, "run_s on serve-*"),
        m("serverd.teardown_s", "s", Lower, SD, "run_s on serve-*"),
        m("serverd.offered", "count", Higher, SD, FIXED),
        m("serverd.painted", "count", Higher, SD, FIXED),
        m("serverd.shed_admission", "count", Lower, SD, FIXED),
        m("serverd.shed_codel", "count", Lower, SD, FIXED),
        m("serverd.timeouts", "count", Lower, SD, FIXED),
        m("serverd.failed", "count", Lower, SD, FIXED),
        m("serverd.retries", "count", Lower, SD, FIXED),
        m("serverd.batches", "count", Lower, SD, FIXED),
        m("serverd.useful_ratio", "ratio", Higher, SD, FIXED),
        m("serverd.events_per_request", "ratio", Lower, SD, FIXED),
        m(
            "serverd.os_switches_per_request",
            "ratio",
            Lower,
            SD,
            SERVE_T,
        ),
        m(
            "serverd.served_per_s",
            "1/s",
            Higher,
            SD,
            "painted requests per drain wall second on serve-*",
        ),
        m(
            "serverd.sim_p99_ms",
            "ms",
            Lower,
            SD,
            "none: virtual input-to-echo p99, deterministic per seed",
        ),
        m("mesa.put_us_p50", "us", Lower, MESA, ECHO),
        m("mesa.put_us_p99", "us", Lower, MESA, ECHO),
        m("mesa.items_per_batch", "ratio", Higher, MESA, ECHO),
        m("mesa.batches", "count", Lower, MESA, ECHO),
        m("mesa.cpu_us_per_item", "us", Lower, MESA, ECHO),
        m("mesa.os_switches_per_item", "ratio", Lower, MESA, ECHO),
        m(
            "mesa.echo_p50_us",
            "us",
            Lower,
            MESA,
            "real put-to-echo latency on mesa-echo",
        ),
        m(
            "mesa.echo_p99_us",
            "us",
            Lower,
            MESA,
            "real put-to-echo latency on mesa-echo",
        ),
        m(
            "mesa.echo_samples",
            "count",
            Higher,
            MESA,
            "sample count behind the echo percentiles",
        ),
        m(
            "trace_overhead",
            "ratio",
            Lower,
            "benchmark",
            "traced / untraced run_s; none",
        ),
    ]);
    v
}

/// True if `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metric table of `README.md`, rendered from this registry.
#[cfg(test)]
pub fn doc_table() -> String {
    let mut s =
        String::from("| metric | unit | better | layer | meaning, or what it should move |\n|---|---|---|---|---|\n");
    for x in end_to_end().into_iter().chain(per_layer()) {
        s.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            x.name,
            x.unit,
            x.better.word(),
            x.layer,
            x.moves
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use trace::Json;

    fn benchmark_json() -> Json {
        Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn names_are_valid_unique_and_have_units() {
        let all: Vec<Metric> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = HashSet::new();
        for x in &all {
            assert!(valid_name(&x.name), "bad metric name {}", x.name);
            assert!(seen.insert(x.name.clone()), "duplicate metric {}", x.name);
            assert!(!x.unit.is_empty() && x.unit.len() <= 16, "{} unit", x.name);
        }
        assert!(per_layer().len() <= 128);
        assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name(""));
    }

    #[test]
    fn benchmark_json_declares_exactly_this_registry() {
        let json = benchmark_json();
        for (key, want) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let got = json.get(key).and_then(Json::as_array).expect(key);
            assert_eq!(got.len(), want.len(), "{key} length");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.get("name").and_then(Json::as_str), Some(w.name.as_str()));
                assert_eq!(
                    g.get("unit").and_then(Json::as_str),
                    Some(w.unit),
                    "{}",
                    w.name
                );
                assert_eq!(
                    g.get("better").and_then(Json::as_str),
                    Some(w.better.word()),
                    "{}",
                    w.name
                );
                assert_eq!(g.get("bound").and_then(Json::as_f64), w.bound, "{}", w.name);
            }
        }
        let setup = end_to_end()
            .into_iter()
            .find(|x| x.name == "setup_s")
            .unwrap();
        let widest = end_to_end()
            .iter()
            .filter_map(|x| x.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }

    #[test]
    fn benchmark_json_names_the_workloads() {
        let json = benchmark_json();
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let want: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn readme_table_matches_registry() {
        let table = doc_table();
        assert!(
            include_str!("../README.md").contains(&table),
            "README.md metric table is stale; replace it with:\n{table}"
        );
    }
}
