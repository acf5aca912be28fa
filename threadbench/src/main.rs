//! threadbench — the threadstudy benchmark.
//!
//! ```text
//! threadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` of wall time, checks its outputs,
//! prints every metric with its unit and direction, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) alternates untraced and traced units and reports
//! the per-layer metrics. See README.md for the metric table.

mod echo;
mod matrix;
mod os;
mod registry;
mod serve;
mod simrun;
mod sink;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serverd::ServeScenario;
use trace::Json;

use crate::sink::{Spans, Unit};

const USAGE: &str =
    "usage: threadbench --workload <paper-matrix|serve-diurnal|serve-burst|mesa-echo> \
     --seed <n> --seconds <1..=600> --trace <0|1>";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The 12 Tables 1–3 cells, closed system.
    PaperMatrix,
    /// One serve replica, reference diurnal load, run to drain.
    ServeDiurnal,
    /// One serve replica under 6× bursts, run to drain.
    ServeBurst,
    /// The real-thread keystroke → echo slack pipeline.
    MesaEcho,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMatrix,
        Workload::ServeDiurnal,
        Workload::ServeBurst,
        Workload::MesaEcho,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::ServeDiurnal => "serve-diurnal",
            Workload::ServeBurst => "serve-burst",
            Workload::MesaEcho => "mesa-echo",
        }
    }

    /// CPUs the process is confined to. The simulator never has more
    /// than one runnable OS thread, and unpinned most of its run-to-run
    /// spread is the host scheduler placing baton wakeups across CPUs;
    /// the echo pipeline's typist and slack process really run at once.
    pub fn cpus(self) -> usize {
        match self {
            Workload::MesaEcho => 2,
            _ => 1,
        }
    }
}

/// When to stop starting units, and which of them run traced.
pub struct Plan {
    /// No unit starts after this (beyond the minimum).
    pub deadline: Instant,
    /// A traced run: odd units run traced, even units untraced.
    pub traced: bool,
}

impl Plan {
    /// The next unit after `done` units, or `None` once the deadline
    /// has passed. The first unit always runs (in a traced run, the
    /// first of each kind).
    pub fn next(&self, done: u32) -> Option<Unit> {
        let minimum = if self.traced { 2 } else { 1 };
        (done < minimum || Instant::now() < self.deadline).then_some(Unit {
            id: done,
            traced: self.traced && done % 2 == 1,
        })
    }
}

/// What a workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (cells, requests, keystrokes).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Every failed check, for the log.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Metric `name`, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Sets `setup_s`, the median of every `setup` span; `run_s`, the
    /// median over untraced units of the time in `run` spans; and, in a
    /// traced run, `trace_overhead`, traced over untraced `run_s`.
    pub fn set_unit_times(&mut self, spans: &Spans, plan: &Plan, setup: &str, run: &[&str]) {
        let run_s = |traced| stats::median(&spans.per_unit(run, traced));
        self.set("setup_s", stats::median(&spans.each(setup)));
        self.set("run_s", run_s(false));
        if plan.traced {
            self.set("trace_overhead", stats::ratio(run_s(true), run_s(false)));
        }
    }

    /// Records a failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    /// Records a failed check that is not itself an operation.
    pub fn problem(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Adds a summary line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Command-line arguments.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("--seconds must be 1..=600, got {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs `workload` under `plan` with the full-size inputs.
fn run_workload(workload: Workload, seed: u64, plan: &Plan, spans: &mut Spans) -> Outcome {
    match workload {
        Workload::PaperMatrix => matrix::run(seed, matrix::WINDOW, plan, spans),
        Workload::ServeDiurnal => {
            serve::run(ServeScenario::Reference, serve::SESSIONS, seed, plan, spans)
        }
        Workload::ServeBurst => {
            serve::run(ServeScenario::Burst, serve::SESSIONS, seed, plan, spans)
        }
        Workload::MesaEcho => echo::run(&echo::keystrokes(seed, echo::BLOCK), plan, spans),
    }
}

/// Prints each selected metric with unit and direction, and returns
/// the final JSON line. A per-layer metric of a layer the workload
/// never entered reads 0; a missing end-to-end metric is a failed check.
fn report(out: &mut Outcome, traced: bool) -> String {
    let selected = if traced {
        registry::per_layer()
    } else {
        registry::end_to_end()
    };
    let mut metrics = Vec::new();
    for m in selected {
        let value = match out.metrics.get(&m.name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => {
                out.problem(format!("end-to-end metric {} was not measured", m.name));
                0.0
            }
        };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
        println!(
            "  {:<36} {:>16.4} {:<6} {} is better{bound} [{}]",
            m.name,
            value,
            m.unit,
            m.better.word(),
            m.layer
        );
        metrics.push((
            m.name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]),
        ));
    }
    Json::obj([
        ("correct", Json::from(out.correct())),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("threadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let allowed = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpus = match os::confine_to(args.workload.cpus()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("threadbench: cannot set CPU affinity: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "threadbench: {} seed {} for {} s, trace {}, on CPU(s) {cpus:?} of {allowed} allowed",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let plan = Plan {
        deadline: Instant::now() + Duration::from_secs(args.seconds),
        traced: args.trace,
    };
    let mut spans = Spans::new();
    let mut out = run_workload(args.workload, args.seed, &plan, &mut spans);
    out.set("peak_rss_mb", os::peak_rss_mb());
    if args.trace {
        let path = PathBuf::from(".threadbench").join(format!(
            "{}-{}.spans.jsonl",
            args.workload.name(),
            args.seed
        ));
        match spans.write(&path) {
            Ok(()) => out.note(format!("spans: {}", path.display())),
            Err(e) => out.problem(format!("writing {}: {e}", path.display())),
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    let line = report(&mut out, args.trace);
    for p in &out.problems {
        println!("FAILED: {p}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve-burst --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::ServeBurst,
                seed: 7,
                seconds: 20,
                trace: true
            }
        );
    }

    /// Name prefixes of the per-layer metrics a workload must measure:
    /// those of the layers it enters.
    fn layers_of(w: Workload) -> Vec<&'static str> {
        let pcr = [
            "rendezvous.",
            "prim.",
            "sched.",
            "timer.",
            "pool.",
            "arena.",
            "trace.",
        ];
        let own: &[&str] = match w {
            Workload::PaperMatrix => &["workloads.", "cell."],
            Workload::ServeDiurnal | Workload::ServeBurst => &["serverd."],
            Workload::MesaEcho => &["mesa."],
        };
        let mut v = own.to_vec();
        if w != Workload::MesaEcho {
            v.extend(pcr);
        }
        v.push("trace_overhead");
        v
    }

    /// A short smoke of each workload, traced (so both kinds of unit
    /// run), yields every end-to-end metric and every metric of the
    /// layers it enters, and passes its own output checks.
    #[test]
    fn smoke_of_each_workload_yields_its_metrics() {
        for w in Workload::ALL {
            let plan = Plan {
                deadline: Instant::now(),
                traced: true,
            };
            let mut spans = Spans::new();
            let out = match w {
                Workload::PaperMatrix => matrix::run(1, pcr::millis(500), &plan, &mut spans),
                Workload::ServeDiurnal => {
                    serve::run(ServeScenario::Reference, 300, 1, &plan, &mut spans)
                }
                Workload::ServeBurst => serve::run(ServeScenario::Burst, 300, 1, &plan, &mut spans),
                Workload::MesaEcho => echo::run(&echo::keystrokes(1, 2_000), &plan, &mut spans),
            };
            assert!(out.correct(), "{}: {:?}", w.name(), out.problems);
            assert!(out.attempted > 0);
            for m in registry::end_to_end() {
                if m.name != "peak_rss_mb" {
                    assert!(
                        out.get(&m.name) > 0.0,
                        "{}: {} not measured",
                        w.name(),
                        m.name
                    );
                }
            }
            for m in registry::per_layer() {
                if layers_of(w).iter().any(|p| m.name.starts_with(p)) {
                    assert!(
                        out.metrics.contains_key(&m.name),
                        "{}: {} missing",
                        w.name(),
                        m.name
                    );
                }
            }
        }
    }

    #[test]
    fn every_metric_prints_with_unit_and_direction() {
        let mut out = Outcome::default();
        for traced in [false, true] {
            let line = report(&mut out, traced);
            let json = Json::parse(&line).expect("result line is JSON");
            let metrics = json.get("metrics").expect("metrics");
            let want = if traced {
                registry::per_layer()
            } else {
                registry::end_to_end()
            };
            for m in want {
                let got = metrics.get(&m.name).expect("metric printed");
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(m.unit));
                assert!(got.get("value").and_then(Json::as_f64).is_some());
            }
        }
        assert!(
            !out.correct(),
            "unmeasured end-to-end metrics are a failed check"
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mesa-echo --seed x --seconds 1 --trace 0",
            "--workload mesa-echo --seed 1 --seconds 0 --trace 0",
            "--workload mesa-echo --seed 1 --seconds 1 --trace 2",
            "--workload mesa-echo --seed 1 --seconds 1",
            "--workload mesa-echo --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
