//! `paper-matrix`: the 12 Tables 1–3 cells under round-robin, one cell
//! at a time, each built, warmed up for 2 s, measured over a window with
//! the Collector on, harvested and dropped — what `repro tables` and
//! `repro bench` run. One unit is one pass over all 12 cells.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pcr::{secs, ChaosConfig, PolicyKind, RunLimit, SimDuration, SplitMix64};
use workloads::{build_chaos_with, harvest, paper_row, BenchResult, Benchmark, System};

use crate::simrun::{SimLayers, SinkMode};
use crate::sink::{Spans, Unit};
use crate::stats::{fnv1a, median, ratio, Digests, FNV_OFFSET};
use crate::{Outcome, Plan};

/// Virtual measurement window per cell.
pub const WINDOW: SimDuration = secs(10);
/// Virtual warm-up before each window, as in `workloads::run_benchmark`.
const WARMUP: SimDuration = secs(2);

/// The 12 cells in table order: Cedar ×8, then GVX ×4.
pub fn cells() -> Vec<(System, Benchmark)> {
    [System::Cedar, System::Gvx]
        .into_iter()
        .flat_map(|sys| Benchmark::suite(sys).iter().map(move |&b| (sys, b)))
        .collect()
}

/// The cell's mean relative error against the paper's row, over
/// switches/s, CV waits/s, % timeouts and ML-enters/s.
pub fn paper_error(r: &BenchResult) -> f64 {
    let p = paper_row(r.system, r.benchmark);
    let rel = |sim: f64, paper: f64| (sim - paper).abs() / paper;
    (rel(r.rates.switches_per_sec, p.switches_per_sec)
        + rel(r.rates.waits_per_sec, p.waits_per_sec)
        + rel(r.rates.timeout_pct, p.timeout_pct)
        + rel(r.rates.ml_enters_per_sec, p.ml_enters_per_sec))
        / 4.0
}

/// Digest of a cell's simulated outputs: its Tables 1–3 rates, event
/// volume and fork genealogy depth.
pub fn digest(r: &BenchResult) -> u64 {
    let h = fnv1a(FNV_OFFSET, r.rates.to_json().to_string().as_bytes());
    let h = fnv1a(h, &r.event_volume.to_le_bytes());
    fnv1a(h, &r.max_generation.to_le_bytes())
}

/// One cell: build → warm-up → measured window → harvest → drop.
fn run_cell(
    sys: System,
    b: Benchmark,
    seed: u64,
    window: SimDuration,
    unit: Unit,
    spans: &mut Spans,
    layers: &mut SimLayers,
) -> Result<BenchResult, String> {
    let mut sim = spans.time("workloads.build", unit, || {
        build_chaos_with(sys, b, seed, ChaosConfig::none(), |cfg| {
            cfg.with_policy(PolicyKind::RoundRobin)
        })
    });
    let warm = spans.time("workloads.warmup", unit, || sim.run(RunLimit::For(WARMUP)));
    if warm.deadlocked() {
        return Err("deadlocked during warm-up".into());
    }
    let start_stats = sim.stats().clone();
    let start_alloc = sim.alloc_counters();
    let report = layers.run(
        &mut sim,
        RunLimit::For(window),
        SinkMode::Collector,
        "workloads.window",
        unit,
        spans,
    );
    if report.deadlocked() {
        return Err("deadlocked during the window".into());
    }
    if sim.stats().panics > 0 {
        return Err(format!("{} simulated threads panicked", sim.stats().panics));
    }
    let r = spans.time("workloads.harvest", unit, || {
        harvest(
            &mut sim,
            sys,
            b,
            &start_stats,
            start_alloc,
            report.elapsed,
            report.hazards,
        )
    });
    spans.time("workloads.teardown", unit, || drop(sim));
    Ok(r)
}

/// Runs passes over the matrix until the plan's deadline.
pub fn run(seed: u64, window: SimDuration, plan: &Plan, spans: &mut Spans) -> Outcome {
    let cells = cells();
    let mut rng = SplitMix64::new(seed);
    let seeds: Vec<u64> = cells.iter().map(|_| rng.next_u64()).collect();
    let mut out = Outcome::default();
    let mut layers = SimLayers::default();
    let mut digests = Digests::default();
    let mut paper_errors = Vec::new();
    let mut cell_rates: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];

    let mut done = 0;
    while let Some(unit) = plan.next(done) {
        for (i, &(sys, b)) in cells.iter().enumerate() {
            out.attempted += 1;
            let ran = catch_unwind(AssertUnwindSafe(|| {
                run_cell(sys, b, seeds[i], window, unit, spans, &mut layers)
            }))
            .unwrap_or_else(|_| Err("panicked".into()));
            let name = format!("{}/{b:?}", sys.name());
            let r = match ran {
                Ok(r) => r,
                Err(e) => {
                    out.fail(format!("{name} ({unit:?}): {e}"));
                    continue;
                }
            };
            match digests.check(i, digest(&r)) {
                Ok(true) => paper_errors.push(paper_error(&r)),
                Ok(false) => {}
                Err(e) => {
                    out.fail(format!("{name} ({unit:?}): {e}"));
                    continue;
                }
            }
            if !unit.traced {
                let wall = spans
                    .spans
                    .iter()
                    .rev()
                    .find(|s| s.name == "workloads.window");
                let wall = wall.expect("window span recorded").dur.as_secs_f64();
                cell_rates[i].push(ratio(r.event_volume as f64, wall));
            }
        }
        done += 1;
    }

    out.set_unit_times(
        spans,
        plan,
        "workloads.build",
        &[
            "workloads.warmup",
            "workloads.window",
            "workloads.harvest",
            "workloads.teardown",
        ],
    );
    out.set("events_per_s", layers.events_per_s());
    for (metric, span) in [
        ("workloads.build_s", "workloads.build"),
        ("workloads.warmup_s", "workloads.warmup"),
        ("workloads.window_s", "workloads.window"),
        ("workloads.harvest_s", "workloads.harvest"),
        ("workloads.teardown_s", "workloads.teardown"),
    ] {
        out.set(metric, median(&spans.per_unit(&[span], false)));
    }
    out.set(
        "workloads.paper_error",
        paper_errors.iter().sum::<f64>() / paper_errors.len().max(1) as f64,
    );
    for (label, rates) in crate::registry::cell_labels().iter().zip(&cell_rates) {
        out.set(&format!("cell.{label}.events_per_s"), median(rates));
    }
    layers.report(&mut out);
    out.note(format!(
        "paper-matrix: {done} passes x {} cells, {} s virtual window, paper_error {:.4}, digest {:016x}",
        cells.len(),
        window.as_secs_f64(),
        out.get("workloads.paper_error"),
        digests.summary()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A traced cell reproduces the untraced cell's digest, and the
    /// check rejects a perturbed digest.
    #[test]
    fn traced_digest_matches_and_perturbed_digest_fails() {
        let (mut spans, mut layers) = (Spans::new(), SimLayers::default());
        let mut digests = Digests::default();
        for traced in [false, true] {
            let unit = Unit {
                id: u32::from(traced),
                traced,
            };
            let r = run_cell(
                System::Cedar,
                Benchmark::Keyboard,
                9,
                secs(1),
                unit,
                &mut spans,
                &mut layers,
            )
            .expect("cell runs");
            assert!(digests.check(0, digest(&r)).is_ok(), "traced={traced}");
            assert!(digests.check(0, digest(&r) ^ 1).is_err());
        }
    }
}
