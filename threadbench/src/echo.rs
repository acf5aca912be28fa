//! `mesa-echo`: the §5.2 keystroke → echo slack pipeline on real OS
//! threads. The benchmark thread is the typist: it puts seeded
//! keystrokes, keyed by screen cell, into a small `mesa` bounded queue.
//! A `SlackProcess` with zero slack latency drains it, merging
//! keystrokes for the same cell, and its emit callback echoes each
//! batch. Closed loop: the typist blocks while the queue is full. One
//! unit is one block of keystrokes, from spawn to join.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mesa::pump::BoundedQueue;
use mesa::slack::{merge_by_key, SlackProcess};
use pcr::SplitMix64;

use crate::os::Usage;
use crate::sink::Spans;
use crate::stats::{median, ratio, LogHistogram};
use crate::{Outcome, Plan};

/// Keystrokes typed per unit.
pub const BLOCK: usize = 100_000;
/// Queue capacity between typist and slack process.
const CAPACITY: usize = 16;
/// An 80 × 24 screen.
const CELLS: u64 = 80 * 24;

#[derive(Clone, Copy)]
struct Key {
    cell: u16,
    typed: Instant,
}

/// What the emit callback saw.
#[derive(Default)]
struct EchoLog {
    echoed: u64,
    latency: LogHistogram,
}

/// The typist's keystrokes: mostly advancing the cursor one cell,
/// sometimes overtyping the same cell (which the slack process may
/// merge), sometimes jumping elsewhere on the screen.
pub fn keystrokes(seed: u64, n: usize) -> Vec<u16> {
    let mut rng = SplitMix64::new(seed);
    let mut cursor = rng.next_below(CELLS);
    (0..n)
        .map(|_| {
            cursor = match rng.next_below(100) {
                0..=84 => (cursor + 1) % CELLS,
                85..=94 => cursor,
                _ => rng.next_below(CELLS),
            };
            cursor as u16
        })
        .collect()
}

/// Runs blocks of `keys` through the echo pipeline until the plan's
/// deadline.
pub fn run(keys: &[u16], plan: &Plan, spans: &mut Spans) -> Outcome {
    let mut out = Outcome::default();
    let (mut put, mut latency) = (LogHistogram::default(), LogHistogram::default());
    let (mut usage, mut items, mut batches) = (Usage::default(), 0u64, Vec::new());

    let mut done = 0;
    while let Some(unit) = plan.next(done) {
        let (queue, slack, log) = spans.time("mesa.setup", unit, || {
            let queue = BoundedQueue::new("echo.keys", CAPACITY);
            let log = Arc::new(Mutex::new(EchoLog::default()));
            let sink = Arc::clone(&log);
            let slack = SlackProcess::spawn(
                "echo.slack",
                queue.clone(),
                Duration::ZERO,
                merge_by_key(|k: &Key| k.cell),
                move |batch: Vec<Key>| {
                    let now = Instant::now();
                    let mut log = sink.lock().expect("echo log poisoned");
                    log.echoed += batch.len() as u64;
                    for k in &batch {
                        log.latency.record((now - k.typed).as_nanos() as u64);
                    }
                },
            );
            (queue, slack, log)
        });
        let usage0 = Usage::now();
        let mut refused = 0u64;
        spans.time("mesa.type", unit, || {
            for &cell in keys {
                let typed = Instant::now();
                if !queue.put(Key { cell, typed }) {
                    refused += 1;
                }
                if unit.traced {
                    put.record(typed.elapsed().as_nanos() as u64);
                }
            }
        });
        let counters = spans.time("mesa.teardown", unit, || {
            queue.close();
            slack.join()
        });
        let log = Arc::try_unwrap(log)
            .ok()
            .expect("the slack process has exited")
            .into_inner()
            .expect("echo log poisoned");

        let typed = keys.len() as u64;
        // Each keystroke is either echoed or merged into a later
        // keystroke for the same cell; anything else was lost.
        let accounted = log.echoed + counters.merged_away();
        out.attempted += typed;
        out.failed += typed.saturating_sub(accounted);
        if refused > 0 || counters.items_in() != typed || accounted != typed {
            out.problem(format!(
                "{unit:?}: typed {typed}, refused {refused}, taken {}, echoed {} + merged {}",
                counters.items_in(),
                log.echoed,
                counters.merged_away()
            ));
        }
        if !unit.traced {
            usage = usage.plus(Usage::now().since(usage0));
            items += typed;
            batches.push(counters.batches_out() as f64);
            latency.merge(&log.latency);
        }
        done += 1;
    }

    out.set_unit_times(spans, plan, "mesa.setup", &["mesa.type", "mesa.teardown"]);
    out.set("events_per_s", ratio(keys.len() as f64, out.get("run_s")));
    out.set("mesa.put_us_p50", put.quantile(0.50) / 1e3);
    out.set("mesa.put_us_p99", put.quantile(0.99) / 1e3);
    out.set(
        "mesa.items_per_batch",
        ratio(items as f64, batches.iter().sum()),
    );
    out.set("mesa.batches", median(&batches));
    out.set(
        "mesa.cpu_us_per_item",
        ratio(usage.cpu_s() * 1e6, items as f64),
    );
    out.set(
        "mesa.os_switches_per_item",
        ratio(usage.switches as f64, items as f64),
    );
    out.set("mesa.echo_p50_us", latency.quantile(0.50) / 1e3);
    out.set("mesa.echo_p99_us", latency.quantile(0.99) / 1e3);
    out.set("mesa.echo_samples", latency.count() as f64);
    out.note(format!(
        "mesa-echo: {done} blocks of {} keystrokes; echo p50 {:.1} us, p99 {:.1} us over {} samples",
        keys.len(),
        latency.quantile(0.50) / 1e3,
        latency.quantile(0.99) / 1e3,
        latency.count()
    ));
    out
}
