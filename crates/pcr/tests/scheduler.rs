//! Integration tests for the Mesa-model scheduler: priorities,
//! preemption, timeslicing, yields, and determinism.

use pcr::{
    micros, millis, secs, Priority, RunLimit, Sim, SimConfig, StopReason, SystemDaemonConfig,
    VecSink,
};

fn sim() -> Sim {
    Sim::new(SimConfig::default())
}

#[test]
fn single_thread_runs_to_completion() {
    let mut s = sim();
    let h = s.fork_root("t", Priority::DEFAULT, |ctx| {
        ctx.work(millis(10));
        42u32
    });
    let report = s.run(RunLimit::ToCompletion);
    assert_eq!(report.reason, StopReason::AllExited);
    // The thread's 10ms of work plus a switch cost elapsed.
    assert!(report.now >= pcr::SimTime::from_micros(10_000));
    assert_eq!(h.into_result().unwrap().unwrap(), 42);
    assert_eq!(s.stats().forks, 1);
    assert_eq!(s.stats().exits, 1);
}

#[test]
fn join_returns_value() {
    let mut s = sim();
    let h = s.fork_root("main", Priority::DEFAULT, |ctx| {
        let child = ctx
            .fork("child", |ctx| {
                ctx.work(millis(5));
                "result".to_string()
            })
            .unwrap();
        ctx.join(child).unwrap()
    });
    s.run(RunLimit::ToCompletion);
    drop(h);
    let infos = s.threads();
    assert_eq!(infos.len(), 2);
    assert!(infos.iter().all(|t| t.exited && !t.panicked));
}

#[test]
fn join_of_already_exited_thread_is_immediate() {
    let mut s = sim();
    let _ = s.fork_root("main", Priority::DEFAULT, |ctx| {
        let child = ctx.fork("quick", |_| 7u8).unwrap();
        ctx.work(millis(100)); // Child (same priority? forked later) ...
        ctx.yield_now();
        ctx.join(child).unwrap()
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
}

#[test]
fn panicking_child_reports_via_join() {
    let mut s = sim();
    let h = s.fork_root("main", Priority::DEFAULT, |ctx| {
        let child = ctx
            .fork("doomed", |_ctx| -> u32 { panic!("intentional failure") })
            .unwrap();
        ctx.join(child)
    });
    s.run(RunLimit::ToCompletion);
    drop(h);
    assert_eq!(s.stats().panics, 1);
    let infos = s.threads();
    let doomed = infos.iter().find(|t| t.name == "doomed").unwrap();
    assert!(doomed.panicked);
    let main = infos.iter().find(|t| t.name == "main").unwrap();
    assert!(!main.panicked, "joiner must survive the child's panic");
}

#[test]
fn higher_priority_preempts_lower() {
    // A low-priority hog runs; a high-priority thread wakes from a
    // precise sleep mid-hog and must finish first (strict priority).
    let mut s = sim();
    let hog = s.fork_root("hog", Priority::of(2), move |ctx| {
        ctx.work(millis(40));
        ctx.now()
    });
    let urgent = s.fork_root("urgent", Priority::of(6), move |ctx| {
        ctx.sleep_precise(millis(5));
        ctx.work(millis(1));
        ctx.now()
    });
    s.run(RunLimit::ToCompletion);
    let hog_end = hog.into_result().unwrap().unwrap();
    let urgent_end = urgent.into_result().unwrap().unwrap();
    assert!(
        urgent_end < hog_end,
        "urgent ({urgent_end}) must preempt and finish before hog ({hog_end})"
    );
    // Urgent finished right around t = 6ms, far inside the hog's work.
    assert!(urgent_end.as_micros() < 10_000);
}

#[test]
fn preemption_order_via_events() {
    let mut s = sim();
    s.set_sink(Box::new(VecSink::default()));
    let _ = s.fork_root("hog", Priority::of(2), |ctx| ctx.work(millis(40)));
    let _ = s.fork_root("urgent", Priority::of(6), |ctx| {
        ctx.sleep_precise(millis(5));
        ctx.work(millis(1));
    });
    s.run(RunLimit::ToCompletion);
    let sink = s.take_sink().unwrap();
    // Downcast through Any is unavailable on the trait object; re-run
    // isn't needed — instead check counters: at least 3 switches
    // (hog, urgent preempts, hog resumes).
    drop(sink);
    assert!(s.stats().switches >= 3, "switches = {}", s.stats().switches);
}

#[test]
fn equal_priority_round_robin_on_quantum() {
    let mut s = sim();
    let _ = s.fork_root("a", Priority::DEFAULT, |ctx| ctx.work(millis(200)));
    let _ = s.fork_root("b", Priority::DEFAULT, |ctx| ctx.work(millis(200)));
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    // 400ms total work over 50ms quanta: ~8 quanta, of which the final
    // quantum of each thread ends in an exit rather than an expiry.
    assert!(
        s.stats().quantum_expiries >= 6,
        "expiries = {}",
        s.stats().quantum_expiries
    );
    assert!(s.stats().switches >= 8, "switches = {}", s.stats().switches);
}

#[test]
fn lone_thread_gets_fresh_quanta_without_switch() {
    let mut s = sim();
    let _ = s.fork_root("solo", Priority::DEFAULT, |ctx| ctx.work(millis(200)));
    s.run(RunLimit::ToCompletion);
    // Quantum expires 3 times mid-run but there is nobody to rotate to.
    assert!(s.stats().quantum_expiries >= 3);
    assert_eq!(s.stats().switches, 1);
}

#[test]
fn yield_rotates_same_priority() {
    let mut s = sim();
    let m = s.monitor("order", Vec::<u8>::new());
    for id in 0..3u8 {
        let m = m.clone();
        let _ = s.fork_root(&format!("t{id}"), Priority::DEFAULT, move |ctx| {
            for _ in 0..3 {
                let mut g = ctx.enter(&m);
                g.with_mut(|v| v.push(id));
                drop(g);
                ctx.yield_now();
            }
        });
    }
    let h = s.fork_root("reader", Priority::of(3), move |ctx| {
        let g = ctx.enter(&m);
        g.with(|v| v.clone())
    });
    s.run(RunLimit::ToCompletion);
    let order = h.into_result().unwrap().unwrap();
    // With pure round-robin yielding the pattern interleaves 0,1,2,0,1,2...
    assert_eq!(order.len(), 9);
    assert_eq!(&order[0..3], &[0, 1, 2]);
}

#[test]
fn run_for_time_limit_stops_at_limit() {
    let mut s = sim();
    let _ = s.fork_root("eternal", Priority::DEFAULT, |ctx| loop {
        ctx.work(millis(10));
        ctx.sleep(millis(10));
    });
    let r = s.run(RunLimit::For(secs(2)));
    assert_eq!(r.reason, StopReason::TimeLimit);
    assert_eq!(r.elapsed, secs(2));
    assert_eq!(s.now(), pcr::SimTime::ZERO + secs(2));
}

#[test]
fn sleep_quantizes_to_granularity() {
    let mut s = sim(); // 50ms granularity
    let h = s.fork_root("sleeper", Priority::DEFAULT, |ctx| {
        ctx.sleep(millis(1));
        ctx.now()
    });
    s.run(RunLimit::ToCompletion);
    let woke = h.into_result().unwrap().unwrap();
    // Sleeping 1ms from t≈0 wakes at the 50ms tick.
    assert_eq!(woke.as_micros(), 50_000);
}

#[test]
fn sleep_precise_is_exact() {
    let mut s = sim();
    let h = s.fork_root("sleeper", Priority::DEFAULT, |ctx| {
        let before = ctx.now();
        ctx.sleep_precise(millis(7));
        ctx.now().since(before)
    });
    s.run(RunLimit::ToCompletion);
    assert_eq!(h.into_result().unwrap().unwrap(), millis(7));
}

#[test]
fn yield_but_not_to_me_favors_lower_priority() {
    // High-priority consumer yields-but-not-to-me; the only other ready
    // thread is a lower-priority producer, which must run despite strict
    // priority.
    let mut s = sim();
    let m = s.monitor("cell", 0u32);
    let m2 = m.clone();
    let h = s.fork_root("high", Priority::of(6), move |ctx| {
        ctx.work(micros(100));
        ctx.yield_but_not_to_me();
        // After the donated slice the high thread resumes; the producer
        // must have run by now.
        let g = ctx.enter(&m2);
        g.with(|v| *v)
    });
    let _ = s.fork_root("low", Priority::of(3), move |ctx| {
        let mut g = ctx.enter(&m);
        g.with_mut(|v| *v = 99);
        drop(g);
        ctx.work(millis(200));
    });
    s.run(RunLimit::ToCompletion);
    assert_eq!(h.into_result().unwrap().unwrap(), 99);
}

#[test]
fn yield_but_not_to_me_with_no_other_thread_continues() {
    let mut s = sim();
    let h = s.fork_root("solo", Priority::DEFAULT, |ctx| {
        ctx.yield_but_not_to_me();
        123u8
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    assert_eq!(h.into_result().unwrap().unwrap(), 123);
}

#[test]
fn directed_yield_runs_target() {
    let mut s = sim();
    let m = s.monitor("cell", 0u32);
    let m2 = m.clone();
    let low = s.fork_root("low", Priority::of(2), move |ctx| {
        let mut g = ctx.enter(&m);
        g.with_mut(|v| *v = 7);
    });
    let low_tid = low.tid();
    let h = s.fork_root("high", Priority::of(6), move |ctx| {
        ctx.work(micros(10));
        ctx.directed_yield(low_tid, millis(5));
        let g = ctx.enter(&m2);
        g.with(|v| *v)
    });
    s.run(RunLimit::ToCompletion);
    drop(low);
    assert_eq!(h.into_result().unwrap().unwrap(), 7);
}

#[test]
fn system_daemon_rescues_starved_thread() {
    // Stable priority inversion (§6.2): a middle-priority hog starves a
    // low-priority thread under strict priority. The SystemDaemon's
    // random donations must give the low thread some CPU anyway.
    let run = |daemon: bool| -> bool {
        let cfg = if daemon {
            SimConfig::default().with_system_daemon(SystemDaemonConfig {
                period: millis(100),
                slice: millis(5),
            })
        } else {
            SimConfig::default()
        };
        let mut s = Sim::new(cfg);
        let _ = s.fork_root("hog", Priority::of(4), |ctx| loop {
            ctx.work(millis(50));
        });
        let _ = s.fork_root("starved", Priority::of(2), |ctx| {
            ctx.work(millis(1));
        });
        s.run(RunLimit::For(secs(5)));
        let infos = s.threads();
        infos.iter().find(|t| t.name == "starved").unwrap().exited
    };
    assert!(!run(false), "without the daemon the low thread starves");
    assert!(run(true), "the daemon must donate slices to the low thread");
}

#[test]
fn set_priority_applies_immediately() {
    let mut s = sim();
    let _ = s.fork_root("self-demoting", Priority::of(6), |ctx| {
        assert_eq!(ctx.priority().get(), 6);
        ctx.set_priority(Priority::of(2));
        assert_eq!(ctx.priority().get(), 2);
        ctx.work(millis(1));
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    let infos = s.threads();
    assert_eq!(infos[0].priority.get(), 2);
}

#[test]
fn fork_priority_inherits_parent() {
    let mut s = sim();
    let _ = s.fork_root("parent", Priority::of(5), |ctx| {
        let c = ctx.fork("child", |ctx| ctx.priority().get()).unwrap();
        let p = ctx.join(c).unwrap();
        assert_eq!(p, 5);
    });
    s.run(RunLimit::ToCompletion);
}

#[test]
fn fork_generation_tracking() {
    let mut s = sim();
    let _ = s.fork_root("worker", Priority::DEFAULT, |ctx| {
        let g1 = ctx
            .fork("gen1", |ctx| {
                let g2 = ctx.fork("gen2", |_| ()).unwrap();
                ctx.join(g2).unwrap();
            })
            .unwrap();
        ctx.join(g1).unwrap();
    });
    s.run(RunLimit::ToCompletion);
    let infos = s.threads();
    assert_eq!(
        infos
            .iter()
            .find(|t| t.name == "worker")
            .unwrap()
            .generation,
        0
    );
    assert_eq!(
        infos.iter().find(|t| t.name == "gen1").unwrap().generation,
        1
    );
    assert_eq!(
        infos.iter().find(|t| t.name == "gen2").unwrap().generation,
        2
    );
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = || {
        let mut s = Sim::new(
            SimConfig::default()
                .with_seed(7)
                .with_system_daemon(SystemDaemonConfig::default()),
        );
        s.set_sink(Box::new(VecSink::default()));
        let m = s.monitor("m", 0u64);
        let cv = s.condition(&m, "cv", Some(millis(50)));
        for i in 0..4 {
            let m = m.clone();
            let cv = cv.clone();
            let _ = s.fork_root(
                &format!("w{i}"),
                Priority::of(3 + (i % 3) as u8),
                move |ctx| {
                    let mut rng = ctx.rng();
                    for _ in 0..20 {
                        ctx.work(micros(rng.next_below(3000)));
                        let mut g = ctx.enter(&m);
                        g.with_mut(|v| *v += 1);
                        if rng.next_below(2) == 0 {
                            g.notify(&cv);
                        } else {
                            g.wait(&cv);
                        }
                        drop(g);
                        ctx.yield_now();
                    }
                },
            );
        }
        s.run(RunLimit::For(secs(3)));
        let stats = s.stats().clone();
        (
            stats.switches,
            stats.ml_enters,
            stats.cv_waits,
            stats.cv_timeouts,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn different_seeds_can_diverge() {
    let run = |seed| {
        let mut s = Sim::new(
            SimConfig::default()
                .with_seed(seed)
                .with_system_daemon(SystemDaemonConfig::default()),
        );
        let _ = s.fork_root("a", Priority::of(2), |ctx| loop {
            ctx.work(millis(3));
        });
        let _ = s.fork_root("b", Priority::of(3), |ctx| loop {
            ctx.work(millis(3));
        });
        s.run(RunLimit::For(secs(2)));
        s.stats().daemon_donations
    };
    // Both runs donate; the targets differ but counts may coincide.
    assert!(run(1) > 0);
    assert!(run(2) > 0);
}

#[test]
fn switch_events_are_emitted() {
    let mut s = sim();
    s.set_sink(Box::new(VecSink::default()));
    let _ = s.fork_root("a", Priority::DEFAULT, |ctx| ctx.work(millis(120)));
    let _ = s.fork_root("b", Priority::DEFAULT, |ctx| ctx.work(millis(120)));
    s.run(RunLimit::ToCompletion);
    let stats_switches = s.stats().switches;
    assert!(stats_switches >= 4);
    // The sink cannot be downcast through the public API; the event
    // counts are cross-checked in the trace crate's tests instead.
}

#[test]
fn max_live_threads_high_water_mark() {
    let mut s = sim();
    let _ = s.fork_root("spawner", Priority::DEFAULT, |ctx| {
        let hs: Vec<_> = (0..10)
            .map(|i| {
                ctx.fork(&format!("c{i}"), |ctx| ctx.work(millis(1)))
                    .unwrap()
            })
            .collect();
        for h in hs {
            ctx.join(h).unwrap();
        }
    });
    s.run(RunLimit::ToCompletion);
    assert!(s.stats().max_live_threads >= 11);
}

#[test]
fn stats_cpu_by_priority() {
    let mut s = sim();
    let _ = s.fork_root("p2", Priority::of(2), |ctx| ctx.work(millis(30)));
    let _ = s.fork_root("p6", Priority::of(6), |ctx| ctx.work(millis(10)));
    s.run(RunLimit::ToCompletion);
    let st = s.stats();
    assert_eq!(st.cpu_by_priority[1], millis(30)); // index 1 = priority 2
    assert_eq!(st.cpu_by_priority[5], millis(10)); // index 5 = priority 6
    assert_eq!(st.total_cpu, millis(40));
}

#[test]
fn directed_yield_to_sleeping_target_is_a_noop() {
    let mut s = sim();
    let sleeper = s.fork_root("sleeper", Priority::of(3), |ctx| {
        ctx.sleep_precise(millis(100));
    });
    let target = sleeper.tid();
    let h = s.fork_root("donor", Priority::of(5), move |ctx| {
        ctx.work(millis(1));
        // Target is sleeping, not ready: the donation must not block or
        // reschedule anything.
        ctx.directed_yield(target, millis(5));
        ctx.now()
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    let done = h.into_result().unwrap().unwrap();
    assert!(done.as_micros() < 5_000, "donor stalled until {done}");
    drop(sleeper);
}

#[test]
fn yield_but_not_to_me_shield_yields_to_higher_priority_third_party() {
    // Donor (P6) YBNTMs to a low producer (P3); an unrelated P7 device
    // wakes mid-slice and must preempt the favored thread — the shield
    // only excludes the donor.
    let mut s = sim();
    let h = s.fork_root("device", Priority::of(7), |ctx| {
        ctx.sleep_precise(millis(5));
        ctx.work(millis(1));
        ctx.now()
    });
    let _ = s.fork_root("donor", Priority::of(6), |ctx| {
        ctx.work(millis(1));
        ctx.yield_but_not_to_me();
        ctx.work(millis(1));
    });
    let _ = s.fork_root("low", Priority::of(3), |ctx| {
        ctx.work(millis(30));
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    // The device ran promptly at ~6ms despite the active donation.
    let device_done = h.into_result().unwrap().unwrap();
    assert!(
        device_done.as_micros() < 8_000,
        "device delayed to {device_done}"
    );
}

#[test]
fn work_zero_is_free_and_legal() {
    let mut s = sim();
    let h = s.fork_root("t", Priority::DEFAULT, |ctx| {
        let t0 = ctx.now();
        for _ in 0..100 {
            ctx.work(pcr::SimDuration::ZERO);
        }
        ctx.now().since(t0)
    });
    s.run(RunLimit::ToCompletion);
    assert_eq!(h.into_result().unwrap().unwrap(), pcr::SimDuration::ZERO);
}

#[test]
fn set_priority_to_lower_yields_to_waiting_peer() {
    // A P6 thread demotes itself to P2 while a P4 peer is ready: the
    // peer must immediately take over, finishing first.
    let mut s = sim();
    let demoted = s.fork_root("self-demoting", Priority::of(6), |ctx| {
        ctx.work(millis(1));
        ctx.set_priority(Priority::of(2));
        ctx.work(millis(5));
        ctx.now()
    });
    let peer = s.fork_root("peer", Priority::of(4), |ctx| {
        ctx.work(millis(5));
        ctx.now()
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    let demoted_end = demoted.into_result().unwrap().unwrap();
    let peer_end = peer.into_result().unwrap().unwrap();
    assert!(
        peer_end < demoted_end,
        "peer ({peer_end}) must overtake the demoted thread ({demoted_end})"
    );
}

// ---- the baton: handoffs, scheduler panics, teardown -----------------------

#[test]
fn a_lone_thread_keeps_the_baton() {
    // The thread holding the baton runs every scheduler step itself, so
    // a thread that never switches costs one handoff out of `Sim::run`
    // and one back, however many primitives it calls.
    let mut s = sim();
    let m = s.monitor("counter", 0u32);
    let _ = s.fork_root("hammer", Priority::DEFAULT, move |ctx| {
        for _ in 0..1_000 {
            ctx.enter(&m).with_mut(|n| *n += 1);
        }
    });
    let before = s.alloc_counters();
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    assert_eq!(s.stats().ml_enters, 1_000);
    let passes = s.alloc_counters().since(before).baton_passes;
    assert!(passes <= 2, "{passes} baton passes for one thread");
}

#[test]
fn baton_passes_track_simulated_switches() {
    // A CV ping-pong switches on every turn; each switch moves the baton
    // once, plus the trip out of `Sim::run` and back.
    let mut s = sim();
    let turn = s.monitor("turn", false);
    let flipped = s.condition(&turn, "flipped", None);
    for me in [false, true] {
        let (m, cv) = (turn.clone(), flipped.clone());
        let _ = s.fork_root(
            if me { "pong" } else { "ping" },
            Priority::DEFAULT,
            move |ctx| {
                for _ in 0..200 {
                    let mut g = ctx.enter(&m);
                    g.wait_until(&cv, |t| *t == me);
                    g.with_mut(|t| *t = !me);
                    g.notify(&cv);
                }
            },
        );
    }
    let before = s.alloc_counters();
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    let passes = s.alloc_counters().since(before).baton_passes;
    let switches = s.stats().switches;
    assert!(switches >= 400, "ping-pong made only {switches} switches");
    assert!(
        passes <= switches + 2,
        "{passes} baton passes for {switches} switches"
    );
}

/// A sink that panics on the first event of the chosen kind.
struct ExplodingSink(fn(&pcr::EventKind) -> bool);

impl pcr::TraceSink for ExplodingSink {
    fn record(&mut self, ev: &pcr::Event) {
        if (self.0)(&ev.kind) {
            panic!("sink exploded");
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

fn run_with_exploding_sink(trigger: fn(&pcr::EventKind) -> bool) {
    let mut s = sim();
    let m = s.monitor("m", 0u32);
    for name in ["a", "b"] {
        let m = m.clone();
        let _ = s.fork_root(name, Priority::DEFAULT, move |ctx| loop {
            ctx.enter(&m).with_mut(|n| *n += 1);
            ctx.work(millis(1));
            ctx.yield_now();
        });
    }
    s.set_sink(Box::new(ExplodingSink(trigger)));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        s.run(RunLimit::For(secs(1)))
    }));
    let payload = caught.expect_err("the sink's panic must escape Sim::run");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"sink exploded"));
    assert_eq!(s.stats().panics, 0, "a scheduler panic is no thread panic");
    assert!(s.threads().iter().all(|t| !t.panicked));
    drop(s); // Must unwind both parked threads and return.
}

#[test]
fn sink_panic_on_the_run_thread_escapes_run() {
    // The first Switch is emitted by the step `Sim::run` itself takes.
    run_with_exploding_sink(|k| matches!(k, pcr::EventKind::Switch { .. }));
}

#[test]
fn sink_panic_on_a_carrier_escapes_run() {
    // The first MlExit is emitted by a step a simulated thread runs.
    run_with_exploding_sink(|k| matches!(k, pcr::EventKind::MlExit { .. }));
}

#[test]
fn dropping_a_stopped_sim_unwinds_every_parked_thread() {
    use std::sync::Arc;
    // Every body (and the one fork still waiting for a slot) holds a
    // clone of `token`; after the drop only the test's own is left.
    let token = Arc::new(());
    let cfg = SimConfig::default()
        .with_max_threads(6)
        .with_fork_policy(pcr::ForkPolicy::WaitForResources);
    let mut s = Sim::new(cfg);
    let m = s.monitor("held", ());
    let cv_m = s.monitor("cv", ());
    let never = s.condition(&cv_m, "never", None);
    let (hi, lo) = (Priority::of(5), Priority::of(4));
    let t = Arc::clone(&token);
    let mh = m.clone();
    let holder = s.fork_root("holder", lo, move |ctx| {
        let _t = t;
        let _g = ctx.enter(&mh);
        ctx.work(secs(3600)); // Preempted inside `held`.
    });
    let t = Arc::clone(&token);
    let _ = s.fork_root("blocked", hi, move |ctx| {
        let _t = t;
        ctx.sleep_precise(millis(1));
        let _g = ctx.enter(&m); // Parked in a monitor.
    });
    let t = Arc::clone(&token);
    let _ = s.fork_root("waiter", hi, move |ctx| {
        let _t = t;
        let mut g = ctx.enter(&cv_m);
        ctx.wait(&mut g, &never); // Parked in a CV wait.
    });
    let t = Arc::clone(&token);
    let _ = s.fork_root("sleeper", hi, move |ctx| {
        let _t = t;
        ctx.sleep(secs(3600)); // Parked in a sleep.
    });
    let t = Arc::clone(&token);
    let _ = s.fork_root("joiner", hi, move |ctx| {
        let _t = t;
        ctx.join(holder).ok(); // Parked in a join.
    });
    let t = Arc::clone(&token);
    let _ = s.fork_root("forker", hi, move |ctx| {
        let t2 = Arc::clone(&t);
        let _t = t;
        ctx.sleep_precise(millis(2));
        // Six live threads: parked waiting for a slot.
        if let Ok(tid) = ctx.fork_detached("late", move |_| drop(t2)) {
            panic!("fork of {tid:?} should have waited for a slot");
        }
    });
    let r = s.run(RunLimit::For(millis(50)));
    assert_eq!(r.reason, StopReason::TimeLimit);
    assert_eq!(s.stats().fork_blocks, 1);
    assert_eq!(s.stats().ml_contended, 1);
    assert_eq!(s.live_threads(), 6);
    assert_eq!(Arc::strong_count(&token), 8);
    drop(s);
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "a parked body outlived its Sim"
    );
}

// ---- coroutine carriers: hazards of running every thread on one OS thread --

#[test]
fn a_panic_unwinding_through_a_switch_survives_a_second_panic() {
    use std::sync::{Arc, Mutex};
    // `a` panics inside a monitor. Its unwind drops the guard, and the
    // monitor exit hands the lock, and the baton, to higher-priority `b`,
    // so `b` runs on its own stack while `a` is still unwinding on its
    // own. `b` panics too. Each unwind must end in its own thread's
    // catch, and the run must go on.
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut s = sim();
    let m = s.monitor("m", ());
    struct Unwound(Arc<Mutex<Vec<&'static str>>>);
    impl Drop for Unwound {
        fn drop(&mut self) {
            self.0.lock().unwrap().push("a unwound");
        }
    }
    let (ma, la) = (m.clone(), Arc::clone(&log));
    let a = s.fork_root("a", Priority::of(3), move |ctx| {
        let _last = Unwound(la);
        let _g = ctx.enter(&ma);
        ctx.work(millis(5)); // `b` wakes and blocks on the monitor.
        panic!("a failed");
    });
    let lb = Arc::clone(&log);
    let b = s.fork_root("b", Priority::of(5), move |ctx| {
        ctx.sleep_precise(millis(1));
        let _g = ctx.enter(&m);
        lb.lock().unwrap().push("b panics");
        panic!("b failed");
    });
    let after = s.fork_root("after", Priority::of(2), |ctx| {
        ctx.work(millis(1));
        7u32
    });
    let r = s.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    assert!(matches!(a.into_result(), Some(Err(_))));
    assert!(matches!(b.into_result(), Some(Err(_))));
    assert_eq!(after.into_result().unwrap().unwrap(), 7);
    assert_eq!(s.stats().panics, 2);
    assert_eq!(*log.lock().unwrap(), ["b panics", "a unwound"]);
    assert!(!std::thread::panicking());
}

#[test]
fn a_backtrace_captured_on_a_carrier_stack_ends_at_the_carrier() {
    let mut s = sim();
    let h = s.fork_root("tracer", Priority::DEFAULT, |ctx| {
        ctx.yield_now();
        let bt = std::backtrace::Backtrace::force_capture();
        (bt.status(), bt.to_string())
    });
    s.run(RunLimit::ToCompletion);
    let (status, text) = h.into_result().unwrap().unwrap();
    assert_eq!(status, std::backtrace::BacktraceStatus::Captured);
    assert!(text.contains("carrier_main"), "{text}");
}

#[test]
fn a_sim_runs_inside_another_sims_thread() {
    fn ping_pong(s: &mut Sim, rounds: u32) {
        let turn = s.monitor("turn", false);
        let flipped = s.condition(&turn, "flipped", None);
        for me in [false, true] {
            let (m, cv) = (turn.clone(), flipped.clone());
            let _ = s.fork_root("player", Priority::DEFAULT, move |ctx| {
                for _ in 0..rounds {
                    let mut g = ctx.enter(&m);
                    g.wait_until(&cv, |t| *t == me);
                    g.with_mut(|t| *t = !me);
                    g.notify(&cv);
                }
            });
        }
    }
    let mut outer = sim();
    ping_pong(&mut outer, 50);
    let host = outer.fork_root("host", Priority::DEFAULT, |ctx| {
        let mut inner = sim();
        ping_pong(&mut inner, 50);
        let done = inner.run(RunLimit::ToCompletion);
        ctx.yield_now();
        // A second inner sim left with parked threads is torn down here,
        // on the host's stack.
        let mut parked = sim();
        ping_pong(&mut parked, u32::MAX);
        parked.run(RunLimit::For(millis(5)));
        drop(parked);
        ctx.yield_now();
        (done.reason, inner.stats().switches)
    });
    let r = outer.run(RunLimit::ToCompletion);
    assert_eq!(r.reason, StopReason::AllExited);
    let (reason, switches) = host.into_result().unwrap().unwrap();
    assert_eq!(reason, StopReason::AllExited);
    assert!(switches >= 100, "inner ping-pong made {switches} switches");
    assert!(outer.stats().switches >= 100);
}

#[test]
fn stack_overflow_in_a_sim_thread_hits_the_guard_page() {
    use std::os::unix::process::ExitStatusExt;
    const CHILD: &str = "PCR_STACK_OVERFLOW_CHILD";
    if std::env::var_os(CHILD).is_some() {
        overflow_next_to_parked_neighbours();
        return;
    }
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--exact",
            "stack_overflow_in_a_sim_thread_hits_the_guard_page",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.signal(),
        Some(11),
        "the overflow must die by SIGSEGV: {:?}\n{stdout}",
        out.status
    );
    assert!(!stdout.contains("survived"), "{stdout}");
}

/// Recurses through about `depth` KiB of stack.
fn recurse(depth: u32) -> u64 {
    let pad = std::hint::black_box([depth as u8; 1024]);
    if depth == 0 {
        return 0;
    }
    recurse(depth - 1) + u64::from(std::hint::black_box(pad[1023]))
}

/// Maps the overflowing thread's stack first and then parks neighbours
/// whose stacks are mapped after it (below it, as mmap places them), so
/// an overflow without a guard page would run into their live frames
/// rather than into unmapped memory. It needs twice the carrier stack.
fn overflow_next_to_parked_neighbours() {
    let mut s = sim();
    let _ = s.fork_root("deep", Priority::of(1), |_| {
        recurse(256);
        println!("survived the overflow");
    });
    let m = s.monitor("m", ());
    let never = s.condition(&m, "never", None);
    for _ in 0..4 {
        let (m, cv) = (m.clone(), never.clone());
        let _ = s.fork_root("neighbour", Priority::of(5), move |ctx| {
            let mut g = ctx.enter(&m);
            ctx.wait(&mut g, &cv);
        });
    }
    s.run(RunLimit::ToCompletion);
}
