//! `serve-diurnal` and `serve-burst`: one `serverd` replica driven to
//! drain. The load is open loop inside the simulation (sessions arrive
//! on a timer-wheel schedule at ~300 sessions/s whatever the pipeline
//! does). One unit is build → drain → report → drop.

use std::panic::{catch_unwind, AssertUnwindSafe};

use pcr::{secs, RunLimit, SplitMix64, StopReason};
use serverd::world::build_sim;
use serverd::{ServeReport, ServeScenario, ServeSpec};
use workloads::serve::outcome_report;

use crate::simrun::{SimLayers, SinkMode};
use crate::sink::{Spans, Unit};
use crate::stats::{fnv1a, median, ratio, Digests, FNV_OFFSET};
use crate::{Outcome, Plan};

/// Sessions per drain: the smallest fleet at which the reference
/// spec's arrival window (20 s) carries its full ~300 sessions/s.
pub const SESSIONS: u32 = 6_000;

/// One drain of `spec`: its report, or why it failed.
fn run_unit(
    spec: &ServeSpec,
    unit: Unit,
    spans: &mut Spans,
    layers: &mut SimLayers,
) -> Result<ServeReport, String> {
    let limit = spec.window * 3 + secs(60);
    let (mut sim, handle) = spans.time("serverd.build", unit, || {
        build_sim(spec.clone(), None, None)
    });
    let run = layers.run(
        &mut sim,
        RunLimit::For(limit),
        SinkMode::None,
        "serverd.drain",
        unit,
        spans,
    );
    if !matches!(run.reason, StopReason::AllExited) {
        return Err(format!("did not drain: {:?}", run.reason));
    }
    let outcome = match handle.into_result() {
        Some(Ok(o)) => o,
        other => {
            return Err(format!(
                "Serve.Main left no outcome: {:?}",
                other.map(|r| r.err())
            ))
        }
    };
    let report = spans.time("serverd.report", unit, || outcome_report(spec, &outcome));
    spans.time("serverd.teardown", unit, || drop(sim));
    Ok(report)
}

/// Runs drains of `scenario` until the plan's deadline.
pub fn run(
    scenario: ServeScenario,
    sessions: u32,
    seed: u64,
    plan: &Plan,
    spans: &mut Spans,
) -> Outcome {
    let spec = ServeSpec::scenario(scenario, sessions, SplitMix64::new(seed).next_u64());
    let mut out = Outcome::default();
    let mut layers = SimLayers::default();
    let mut digests = Digests::default();
    let mut reference: Option<ServeReport> = None;
    let mut served = Vec::new();

    let mut done = 0;
    while let Some(unit) = plan.next(done) {
        done += 1;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            run_unit(&spec, unit, spans, &mut layers)
        }))
        .unwrap_or_else(|_| Err("panicked".into()));
        let report = match ran {
            Ok(r) => r,
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("{unit:?}: {e}"));
                continue;
            }
        };
        let c = report.counters;
        out.attempted += c.offered;
        let digest = fnv1a(FNV_OFFSET, report.to_json().to_string().as_bytes());
        match digests.check(0, digest) {
            Ok(true) => reference = Some(report),
            Ok(false) => {}
            Err(e) => {
                // A drain that does not reproduce the reference report
                // fails every request it served.
                out.failed += c.offered;
                out.problem(format!("{unit:?}: report {e}"));
                continue;
            }
        }
        // Every offered request must resolve: painted, timed out, shed
        // as late, or failed after its retries. Anything else was lost.
        if c.resolved() != c.offered {
            out.failed += c.offered.saturating_sub(c.resolved());
            out.problem(format!(
                "{unit:?}: {} offered but {} resolved",
                c.offered,
                c.resolved()
            ));
        }
        if !unit.traced {
            let drain = spans.per_unit(&["serverd.drain"], false);
            served.push(ratio(c.painted as f64, *drain.last().expect("drain span")));
        }
    }

    out.set_unit_times(
        spans,
        plan,
        "serverd.build",
        &["serverd.drain", "serverd.report", "serverd.teardown"],
    );
    out.set("events_per_s", layers.events_per_s());
    for (metric, span) in [
        ("serverd.build_s", "serverd.build"),
        ("serverd.drain_s", "serverd.drain"),
        ("serverd.report_s", "serverd.report"),
        ("serverd.teardown_s", "serverd.teardown"),
    ] {
        out.set(metric, median(&spans.per_unit(&[span], false)));
    }
    out.set("serverd.served_per_s", median(&served));
    layers.report(&mut out);
    if let Some(r) = &reference {
        let c = &r.counters;
        for (metric, v) in [
            ("serverd.offered", c.offered),
            ("serverd.painted", c.painted),
            ("serverd.shed_admission", c.rejected_admission),
            ("serverd.shed_codel", c.shed_codel),
            ("serverd.timeouts", c.timed_out),
            ("serverd.failed", c.failed),
            ("serverd.retries", c.retries),
            ("serverd.batches", r.batches),
        ] {
            out.set(metric, v as f64);
        }
        out.set(
            "serverd.useful_ratio",
            ratio(c.painted as f64, (c.offered + c.retries) as f64),
        );
        let (all, drains) = layers.untraced_total();
        let requests = (c.offered * drains as u64) as f64;
        out.set(
            "serverd.events_per_request",
            ratio(all.events as f64, requests),
        );
        out.set(
            "serverd.os_switches_per_request",
            ratio(all.usage.switches as f64, requests),
        );
        out.set("serverd.sim_p99_ms", r.p99_us as f64 / 1e3);
        out.note(format!(
            "{}: {done} drains of {} sessions; offered {} painted {} unpainted {} ({:.1}%), sim p99 {} us, digest {:016x}",
            r.scenario,
            r.sessions,
            c.offered,
            c.painted,
            c.offered.saturating_sub(c.painted),
            100.0 * ratio(c.offered.saturating_sub(c.painted) as f64, c.offered as f64),
            r.p99_us,
            digests.summary()
        ));
    }
    out
}
