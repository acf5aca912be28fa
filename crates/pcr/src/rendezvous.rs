//! The baton: how simulated threads and the scheduler share one runner.
//!
//! Each simulated thread runs on a pooled OS carrier thread, but exactly
//! one OS thread ever runs simulation code: the one holding the baton,
//! the boxed scheduler core. A thread that calls into the runtime
//! ([`crate::ThreadCtx`]) runs the scheduler step itself, on its own
//! stack, with the core it holds (Observationally Cooperative
//! Multithreading: the baton is the global lock, so no separate
//! scheduler thread is needed). When the step's decision resumes the
//! caller, which is the common case, the call just returns. Only when it
//! resumes a *different* thread does the core move, by value, into that
//! thread's carrier [`Mailbox`], and the caller parks on its own. A run
//! that stops hands the core back to the thread blocked in
//! [`crate::Sim::run`].
//!
//! User code between two requests executes in zero virtual time; virtual
//! time advances only through explicit costs processed by the scheduler.
//! All scheduling state travels with the baton and the simulation is
//! deterministic.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::ctx::{Link, ThreadCtx};
use crate::error::StopReason;
use crate::event::{CondId, WaitOutcome};
use crate::monitor::MonitorId;
use crate::sched::{Baton, Core};
use crate::thread::{Priority, ThreadId};
use crate::time::SimDuration;

/// A simulated thread body, already wrapped for result capture and panic
/// handling.
pub(crate) type BodyFn = Box<dyn FnOnce(&crate::ctx::ThreadCtx) + Send + 'static>;

/// Everything the scheduler needs to create a thread.
pub(crate) struct ForkSpec {
    pub name: String,
    pub priority: Option<Priority>,
    pub detached: bool,
    pub body: BodyFn,
}

impl std::fmt::Debug for ForkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForkSpec")
            .field("name", &self.name)
            .field("priority", &self.priority)
            .field("detached", &self.detached)
            .finish_non_exhaustive()
    }
}

/// A request from the running thread to the scheduler.
#[derive(Debug)]
pub(crate) enum Request {
    /// Create a thread.
    Fork(ForkSpec),
    /// Wait for a thread to exit.
    Join(ThreadId),
    /// Mark a thread as never-to-be-joined.
    Detach(ThreadId),
    /// Consume virtual CPU time (preemptible).
    Work(SimDuration),
    /// Sleep. `precise` sleeps wake exactly on time (modelling external
    /// device events delivered by the host OS); plain sleeps are quantized
    /// to the timer granularity like PCR timeouts.
    Sleep { d: SimDuration, precise: bool },
    /// Plain YIELD.
    Yield,
    /// `YieldButNotToMe` (§5.2).
    YieldButNotToMe,
    /// Directed yield: donate `slice` to `target` if it is ready.
    DirectedYield {
        target: ThreadId,
        slice: SimDuration,
    },
    /// Donate `slice` to a randomly chosen ready thread (SystemDaemon).
    DonateRandom { slice: SimDuration },
    /// Change own priority.
    SetPriority(Priority),
    /// Enter a monitor.
    MonitorEnter(MonitorId),
    /// Exit a monitor.
    MonitorExit(MonitorId),
    /// Atomically exit the CV's monitor and wait on the CV.
    CvWait { cv: CondId },
    /// Wake at most one waiter.
    Notify { cv: CondId },
    /// Wake all waiters.
    Broadcast { cv: CondId },
    /// Allocate a monitor id.
    NewMonitor { name: String },
    /// Allocate a condition-variable id.
    NewCondition {
        name: String,
        monitor: MonitorId,
        timeout: Option<SimDuration>,
    },
    /// Thread terminated (normally or by panic). No reply follows.
    Exit { panicked: bool },
}

/// The scheduler's reply that resumes a parked thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Reply {
    /// Generic completion.
    Ok,
    /// Fork succeeded.
    Forked(ThreadId),
    /// Fork failed under [`crate::ForkPolicy::Error`].
    ForkFailed,
    /// Join target has exited.
    Joined,
    /// A CV wait finished with this outcome.
    Wait(WaitOutcome),
    /// Fresh monitor id.
    MonitorId(MonitorId),
    /// Fresh condition id.
    CondId(CondId),
    /// The request was illegal (recursive monitor entry, exiting an
    /// unowned monitor, CV op without the lock...). The thread panics
    /// with this message; the simulation continues.
    Fault(String),
    /// The simulation is tearing down: unwind out of the thread body.
    Shutdown,
}

/// Panic payload used to unwind a simulated thread at shutdown.
pub(crate) struct ShutdownSignal;

/// A one-message slot an OS thread parks on. Every message but
/// [`CarrierMsg::Shutdown`] carries the baton, so at most one is ever
/// in flight to a given thread.
pub(crate) struct Mailbox<T> {
    msg: Mutex<Option<T>>,
    ready: Condvar,
}

impl<T> Mailbox<T> {
    pub(crate) fn new() -> Arc<Mailbox<T>> {
        Arc::new(Mailbox {
            msg: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Deposits `msg` and wakes the owner.
    pub(crate) fn put(&self, msg: T) {
        let mut slot = self.msg.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(slot.is_none(), "two messages in flight to one thread");
        *slot = Some(msg);
        drop(slot);
        self.ready.notify_one();
    }

    /// Parks until a message arrives, then takes it.
    pub(crate) fn take(&self) -> T {
        let mut slot = self.msg.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(msg) = slot.take() {
                return msg;
            }
            slot = self
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What a carrier thread can be handed.
pub(crate) enum CarrierMsg {
    /// Run a newly dispatched thread's body, holding the baton.
    Start {
        ctx: ThreadCtx,
        body: BodyFn,
        core: Box<Core>,
    },
    /// Resume the carrier's parked thread with its reply.
    Resume { core: Box<Core>, reply: Reply },
    /// The `Sim` is being dropped: unwind any parked body and quit.
    Shutdown,
}

/// The baton coming home to the thread blocked in [`crate::Sim::run`]:
/// the run stopped, or a scheduler step panicked on a carrier.
pub(crate) struct Handback {
    pub core: Box<Core>,
    pub outcome: std::thread::Result<StopReason>,
}

struct Carrier {
    mailbox: Arc<Mailbox<CarrierMsg>>,
    join: Option<std::thread::JoinHandle<()>>,
}

/// The carrier-thread pool. A carrier loops over [`CarrierMsg::Start`]s;
/// the body wrapper ([`crate::ctx::wrap_body`]) catches every unwind, so
/// a finished or torn-down body always returns control to the loop. An
/// exited thread releases its carrier index while the carrier is still
/// handing the baton on: a successor's `Start` just waits in the
/// carrier's mailbox until it loops back.
pub(crate) struct CarrierPool {
    carriers: Vec<Carrier>,
    /// LIFO free list of carrier indices, so the hottest carrier (most
    /// recently exited, stack still warm) is reused first.
    free: Vec<u32>,
    pub spawns: u64,
    pub reuses: u64,
}

impl CarrierPool {
    pub(crate) fn new() -> CarrierPool {
        CarrierPool {
            carriers: Vec::new(),
            free: Vec::new(),
            spawns: 0,
            reuses: 0,
        }
    }

    /// An idle carrier's index, spawning one only when none is free.
    pub(crate) fn acquire(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.reuses += 1;
            return idx;
        }
        let idx = self.carriers.len() as u32;
        let mailbox = Mailbox::new();
        let inbox = Arc::clone(&mailbox);
        let join = std::thread::Builder::new()
            .name(format!("sim-worker-{idx}"))
            .stack_size(128 * 1024)
            .spawn(move || carrier_loop(&inbox))
            .expect("failed to spawn carrier thread for simulated thread");
        self.spawns += 1;
        self.carriers.push(Carrier {
            mailbox,
            join: Some(join),
        });
        idx
    }

    /// Returns a carrier to the free list.
    pub(crate) fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }

    pub(crate) fn mailbox(&self, idx: u32) -> &Arc<Mailbox<CarrierMsg>> {
        &self.carriers[idx as usize].mailbox
    }

    /// Unwinds every parked body, stops every carrier and joins them.
    /// The caller holds the baton, so no other message is in flight.
    ///
    /// Carriers stop one at a time, newest first. glibc hands an exited
    /// thread's malloc arena to the next thread that starts, last exited
    /// first, so this order gives the next `Sim`'s carriers back the
    /// arenas their predecessors used. Stopped all at once, a process
    /// that builds one world after another spreads each world's
    /// allocations over a different arena every time and its resident
    /// memory creeps up by hundreds of KiB per arena.
    pub(crate) fn shutdown(&mut self) {
        for c in self.carriers.iter_mut().rev() {
            c.mailbox.put(CarrierMsg::Shutdown);
            if let Some(h) = c.join.take() {
                let _ = h.join();
            }
        }
    }
}

fn carrier_loop(mailbox: &Mailbox<CarrierMsg>) {
    loop {
        match mailbox.take() {
            CarrierMsg::Start { ctx, body, core } => {
                let Link::Baton(link) = &ctx.link else {
                    unreachable!("Sim threads hold a baton link")
                };
                link.core.set(Some(core));
                body(&ctx);
                if ctx.shutting_down.get() {
                    // The body unwound on `Shutdown`: the pool is going away.
                    return;
                }
            }
            CarrierMsg::Shutdown => return,
            CarrierMsg::Resume { .. } => unreachable!("resume sent to an idle carrier"),
        }
    }
}

/// A `Sim` thread's end of the baton: the core while the thread runs,
/// and its carrier's mailbox to park on while another thread does.
pub(crate) struct BatonLink {
    core: Cell<Option<Box<Core>>>,
    mailbox: Arc<Mailbox<CarrierMsg>>,
}

impl BatonLink {
    pub(crate) fn new(mailbox: Arc<Mailbox<CarrierMsg>>) -> BatonLink {
        BatonLink {
            core: Cell::new(None),
            mailbox,
        }
    }

    /// Runs the scheduler step for `req` on this stack. Returns the reply
    /// to `tid`, or `None` if the sim is tearing down.
    pub(crate) fn call(&self, tid: ThreadId, req: Request) -> Option<Reply> {
        match self.step(tid, req) {
            Baton::Kept(core, reply) => {
                self.core.set(Some(core));
                Some(reply)
            }
            Baton::Passed => match self.mailbox.take() {
                CarrierMsg::Resume { core, reply } => {
                    self.core.set(Some(core));
                    Some(reply)
                }
                CarrierMsg::Shutdown => None,
                CarrierMsg::Start { .. } => unreachable!("start sent to a busy carrier"),
            },
            Baton::Home(..) => unreachable!("a carrier kept a stopped run's baton"),
        }
    }

    /// Reports `tid`'s exit and passes the baton on for good.
    pub(crate) fn exit(&self, tid: ThreadId, panicked: bool) {
        let next = self.step(tid, Request::Exit { panicked });
        debug_assert!(matches!(next, Baton::Passed), "an exited thread resumed");
    }

    /// One scheduler step on the baton holder's stack. A panic inside it
    /// is the scheduler's (or a sink's), not the thread's: it travels
    /// home with the baton and resurfaces from [`crate::Sim::run`].
    fn step(&self, tid: ThreadId, req: Request) -> Baton {
        let mut core = self
            .core
            .take()
            .expect("a running simulated thread holds the baton");
        let step = catch_unwind(AssertUnwindSafe(|| core.request(tid, req)));
        core.pass(step, Some(tid))
    }
}
