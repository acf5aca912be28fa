//! The baton: how simulated threads and the scheduler share one runner.
//!
//! Every simulated thread runs on a coroutine carrier of its own, a
//! guarded stack from [`crate::stack`], and all of them run on the OS
//! thread that called [`crate::Sim::run`], as PCR's threads ran inside
//! one process (§2). Only the holder of the baton runs: the thread that
//! holds the boxed scheduler core. A thread that calls into the runtime
//! ([`crate::ThreadCtx`]) runs the scheduler step itself, on its own
//! stack, with the core it holds (Observationally Cooperative
//! Multithreading: the baton is the global lock, so no scheduler thread
//! is needed). When the step resumes the caller, the common case, the
//! call just returns. When it resumes a *different* thread, the caller
//! switches stacks to it in user space and hands over the core in the
//! switch's [`Transfer`]. A run that stops switches back to the stack
//! in `Sim::run`, which is the home context of the run.
//!
//! The receiver of a switch files the switcher's resume point: in the
//! switcher's thread record if it parked, as the home context if it was
//! `Sim::run`, and back into the stack pool if the switcher has exited
//! (only then is its stack idle). Dropping a `Sim` resumes each parked
//! thread, newest first, with [`Reply::Shutdown`]; the body unwinds on
//! its own stack and switches back when done.
//!
//! User code between two requests executes in zero virtual time; virtual
//! time advances only through explicit costs processed by the scheduler.
//! All scheduling state travels with the baton and the simulation is
//! deterministic.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::ctx::{Link, ThreadCtx};
use crate::error::StopReason;
use crate::event::{CondId, WaitOutcome};
use crate::monitor::MonitorId;
use crate::sched::{Baton, Core};
use crate::stack::{self, Context};
use crate::thread::{Priority, ThreadId};
use crate::time::SimDuration;

/// A simulated thread body, already wrapped for result capture and panic
/// handling. Returns whether the body panicked.
pub(crate) type BodyFn = Box<dyn FnOnce(&crate::ctx::ThreadCtx) -> bool + Send + 'static>;

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

/// A suspended stack of the sim: a simulated thread's, or the one in
/// [`crate::Sim::run`]. Every switch among them carries a [`Transfer`].
pub(crate) type Carrier = Context<Transfer>;

/// Whose stack a switch left suspended, so that the receiver files its
/// resume point where the next switch to it will look.
#[derive(Clone, Copy)]
pub(crate) enum Origin {
    /// The thread in [`crate::Sim::run`].
    Home,
    /// A simulated thread, to be resumed with a reply.
    Parked(ThreadId),
    /// A thread that has exited. Its stack (this pool index) is free
    /// once it has switched away for the last time.
    Retired(u32),
}

/// What one stack switch carries.
pub(crate) enum Transfer {
    /// The baton, where it came from, and what the receiver does next.
    Baton {
        core: Box<Core>,
        from: Origin,
        cargo: Cargo,
    },
    /// `Drop for Sim`: unwind the parked body, then switch back.
    Shutdown,
    /// A torn-down thread has finished unwinding.
    Finished,
}

/// What the receiver of the baton does with it.
pub(crate) enum Cargo {
    /// Run a thread's body: its first dispatch.
    Start(Box<(ThreadCtx, BodyFn)>),
    /// Resume a parked thread with its reply.
    Resume(Reply),
    /// The run stopped, or a scheduler step panicked: the baton is home.
    Stopped(std::thread::Result<StopReason>),
}

/// A `Sim` thread's end of the baton: the core while the thread runs
/// and, once the sim is being dropped, the stack to switch back to when
/// the body has unwound.
pub(crate) struct BatonLink {
    core: Cell<Option<Box<Core>>>,
    teardown: Cell<Option<Carrier>>,
}

impl BatonLink {
    pub(crate) fn new() -> BatonLink {
        BatonLink {
            core: Cell::new(None),
            teardown: Cell::new(None),
        }
    }

    /// Runs the scheduler step for `req` on this stack and returns the
    /// reply to `tid`: [`Reply::Shutdown`] if the sim is tearing down.
    pub(crate) fn call(&self, tid: ThreadId, req: Request) -> Reply {
        let core = self
            .core
            .take()
            .expect("a running simulated thread holds the baton");
        match step(core, tid, req) {
            Baton::Kept(core, reply) => {
                self.core.set(Some(core));
                reply
            }
            Baton::Shutdown(back) => {
                self.teardown.set(Some(back));
                Reply::Shutdown
            }
            Baton::Home(..) => unreachable!("a stopped run's baton went to a simulated thread"),
        }
    }
}

/// One scheduler step on the baton holder's stack. A panic inside it is
/// the scheduler's (or a sink's), not the thread's: it travels home with
/// the baton and resurfaces from [`crate::Sim::run`].
fn step(mut core: Box<Core>, tid: ThreadId, req: Request) -> Baton {
    let step = catch_unwind(AssertUnwindSafe(|| core.request(tid, req)));
    core.pass(step, Some(tid))
}

/// The entry of every carrier stack. Runs one simulated thread from its
/// first dispatch to its exit or teardown, then switches away for good.
/// Nothing on this stack is ever dropped after that, so everything the
/// thread owned must be gone first: [`run_thread`] has returned.
#[allow(unsafe_code)]
pub(crate) fn carrier_main(back: Carrier, msg: Transfer) -> ! {
    let home = match run_thread(back, msg) {
        Ended::Exited {
            core,
            tid,
            panicked,
        } => retire(core, tid, panicked),
        Ended::TornDown(home) => home,
    };
    // SAFETY: `home` is the stack running `Drop for Sim`, which waits in
    // its switch for this one.
    let _ = unsafe { stack::switch(home, Transfer::Finished) };
    unreachable!("a finished carrier was resumed")
}

/// How a thread's body ended.
enum Ended {
    /// It returned or panicked: its exit step is still to run.
    Exited {
        core: Box<Core>,
        tid: ThreadId,
        panicked: bool,
    },
    /// It unwound because the sim is being dropped: switch back here.
    TornDown(Carrier),
}

/// Runs a thread's body, starting from its first dispatch.
fn run_thread(back: Carrier, msg: Transfer) -> Ended {
    let Transfer::Baton {
        mut core,
        from,
        cargo: Cargo::Start(start),
    } = msg
    else {
        unreachable!("a fresh carrier's first switch starts its thread")
    };
    core.file(from, back);
    let (ctx, body) = *start;
    let Link::Baton(link) = &ctx.link else {
        unreachable!("Sim threads hold a baton link")
    };
    link.core.set(Some(core));
    let panicked = body(&ctx);
    match link.teardown.take() {
        Some(home) => Ended::TornDown(home),
        None => Ended::Exited {
            core: link.core.take().expect("a finished thread holds the baton"),
            tid: ctx.tid,
            panicked,
        },
    }
}

/// Reports `tid`'s exit and passes the baton on for good. Returns only
/// if the sim is dropped after the exit step itself panicked: with the
/// stack to switch back to.
fn retire(core: Box<Core>, tid: ThreadId, panicked: bool) -> Carrier {
    match step(core, tid, Request::Exit { panicked }) {
        Baton::Shutdown(back) => back,
        Baton::Kept(..) | Baton::Home(..) => unreachable!("an exited thread was resumed"),
    }
}
