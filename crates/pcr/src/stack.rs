//! Coroutine carriers: guarded stacks and the user-space switch between
//! them.
//!
//! Every [`crate::Sim`] thread runs on a stack of its own, all on the OS
//! thread that called [`crate::Sim::run`], the way PCR ran its threads
//! inside one process (§2). A thread switch is a register swap, not an
//! OS handoff:
//!
//! * [`Stack`]: a 128 KiB `mmap`'d stack with a `PROT_NONE` guard page
//!   below it, so an overflowing thread faults instead of writing into
//!   its neighbour. [`StackPool`] maps stacks on demand and reuses them
//!   last-freed first.
//! * [`switch`]: saves the callee-saved registers (rbx, rbp, r12–r15) on
//!   the current stack, moves rsp to the target context and restores
//!   its registers. The switch carries one message each way.
//! * The entry trampoline: a fresh stack's first switch lands in a small
//!   assembly frame whose unwind info marks it outermost, so backtraces
//!   end there, and which calls the stack's entry function through an
//!   `extern "C"` shim that aborts rather than unwind past it.
//!
//! A [`Context`] is the resume point of one suspended stack. It is
//! consumed by the switch that resumes it, so each suspension is resumed
//! at most once; dropping one abandons the suspended frames without
//! running their destructors. Contexts are neither `Send` nor `Sync`: a
//! suspended stack belongs to the OS thread it ran on. What the type
//! cannot see is whether the memory behind a context is still mapped,
//! which is why [`switch`] is `unsafe`.
//!
//! The switch is written for x86_64 Linux (System V ABI) only.

#![allow(unsafe_code)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("pcr's coroutine carriers are implemented for x86_64 Linux only");

use std::arch::global_asm;
use std::ffi::c_void;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::ptr::{self, NonNull};

/// Usable bytes per carrier stack.
const STACK_SIZE: usize = 128 * 1024;
/// The `PROT_NONE` page below each stack.
const GUARD_SIZE: usize = 4096;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

// pcr_coro_switch(to: rdi = target rsp, msg: rsi) -> (rax = suspended
// rsp, rdx = msg). Pushes the six callee-saved registers, parks rsp in
// rax, loads the target's rsp and pops its registers, so the `ret`
// returns from the target's own earlier switch (or, on a fresh stack,
// into pcr_coro_start) with this call's message.
//
// pcr_coro_start: the outermost frame of every carrier stack. A fresh
// stack's primed registers hold the shim (r12) and the entry (r13); the
// switch that resumes it leaves (from, msg) in rax:rdx. The return
// address is undefined in its unwind info, which ends every backtrace.
global_asm!(
    ".pushsection .text.pcr_coro,\"ax\",@progbits",
    ".p2align 4",
    ".globl pcr_coro_switch",
    ".hidden pcr_coro_switch",
    ".type pcr_coro_switch,@function",
    "pcr_coro_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov rax, rsp",
    "mov rsp, rdi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "mov rdx, rsi",
    "ret",
    ".size pcr_coro_switch, . - pcr_coro_switch",
    "",
    ".p2align 4",
    ".globl pcr_coro_start",
    ".hidden pcr_coro_start",
    ".type pcr_coro_start,@function",
    "pcr_coro_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, rax",
    "mov rsi, rdx",
    "mov rdx, r13",
    "call r12",
    "ud2",
    ".cfi_endproc",
    ".size pcr_coro_start, . - pcr_coro_start",
    ".popsection",
);

/// What a switch returns on the resumed side.
#[repr(C)]
struct Switched {
    /// The switcher's suspended rsp.
    from: usize,
    /// Address of the switcher's message.
    msg: usize,
}

extern "C" {
    fn pcr_coro_switch(to: usize, msg: usize) -> Switched;
    fn pcr_coro_start();
}

/// The resume point of a suspended stack whose switches carry `M`.
pub(crate) struct Context<M> {
    sp: NonNull<u8>,
    _msg: PhantomData<*mut M>,
}

impl<M> Context<M> {
    fn from_sp(sp: usize) -> Context<M> {
        Context {
            sp: NonNull::new(sp as *mut u8).expect("a suspended stack has an rsp"),
            _msg: PhantomData,
        }
    }
}

impl<M> std::fmt::Debug for Context<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Context({:p})", self.sp)
    }
}

/// Suspends the caller and resumes `to`, handing it `msg`. Returns once
/// some stack switches back here, with that stack's resume point and its
/// message.
///
/// # Safety
///
/// The memory `to` was suspended on must still be mapped: if it is a
/// pool stack, the [`StackPool`] that mapped it has not been dropped.
/// (A stack the caller did not get from a pool, such as an OS thread's,
/// stays mapped while its code waits in `switch` to be resumed.)
pub(crate) unsafe fn switch<M>(to: Context<M>, msg: M) -> (Context<M>, M) {
    let slot = ManuallyDrop::new(msg);
    // SAFETY: `to` is mapped (the caller's contract) and suspended inside
    // a `switch::<M>` or primed by `prime::<M>`, and it is consumed here,
    // so it is resumed once. The target moves the message out of `slot`
    // before anything can resume this stack, so the slot is live then
    // and read exactly once.
    let back = unsafe { pcr_coro_switch(to.sp.as_ptr() as usize, &slot as *const _ as usize) };
    // SAFETY: the switcher's slot stays live until this stack switches
    // again; it holds an `M` that nobody else reads.
    let msg = unsafe { ptr::read(back.msg as *const M) };
    (Context::from_sp(back.from), msg)
}

/// The first code a fresh stack runs: moves the message in and calls
/// the stack's entry. `extern "C"`, so a panic escaping `entry` aborts
/// instead of unwinding into the trampoline.
extern "C" fn start_shim<M>(from: usize, msg: usize, entry: usize) -> ! {
    // SAFETY: `entry` was a `fn(Context<M>, M) -> !` when `prime` stored
    // it, and `msg` is the first switcher's live message slot.
    let entry: fn(Context<M>, M) -> ! = unsafe { std::mem::transmute(entry) };
    let msg = unsafe { ptr::read(msg as *const M) };
    entry(Context::from_sp(from), msg)
}

/// One `mmap`'d carrier stack: a guard page, then [`STACK_SIZE`] bytes.
struct Stack {
    base: NonNull<c_void>,
}

impl Stack {
    fn map() -> Stack {
        let len = GUARD_SIZE + STACK_SIZE;
        // SAFETY: a fresh anonymous private mapping aliases nothing.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a {len}-byte carrier stack failed"
        );
        // SAFETY: the guard page is the low end of the mapping just made.
        let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of a carrier stack's guard page failed");
        Stack {
            base: NonNull::new(base).expect("mmap never returns null"),
        }
    }

    /// The highest address of the stack, 16-byte aligned (the stack
    /// grows down from here toward the guard page).
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + GUARD_SIZE + STACK_SIZE
    }

    fn contains(&self, sp: NonNull<u8>) -> bool {
        let sp = sp.as_ptr() as usize;
        sp > self.base.as_ptr() as usize + GUARD_SIZE && sp <= self.top()
    }

    /// Lays out a first frame that runs `entry` when switched to.
    ///
    /// # Safety
    ///
    /// No context may be suspended on the stack: its frames are
    /// overwritten.
    unsafe fn prime<M>(&mut self, entry: fn(Context<M>, M) -> !) -> Context<M> {
        // Popped by the switch in order r15, r14, r13, r12, rbx, rbp, then
        // `ret` enters the trampoline with rsp back at the aligned top.
        let frame: [usize; 7] = [
            0,
            0,
            entry as usize,
            start_shim::<M> as *const () as usize,
            0,
            0,
            pcr_coro_start as *const () as usize,
        ];
        let sp = self.top() - std::mem::size_of_val(&frame);
        // SAFETY: the frame fits below the top of this stack's mapping,
        // 8-byte aligned, and nothing else is using that memory.
        unsafe { ptr::write(sp as *mut [usize; 7], frame) };
        Context::from_sp(sp)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping is this stack's own, and nothing runs on it:
        // stacks are dropped only with their pool, after every context on
        // them has finished or been abandoned.
        unsafe { munmap(self.base.as_ptr(), GUARD_SIZE + STACK_SIZE) };
    }
}

/// Carrier stacks, mapped on demand and reused last-freed first (the
/// warmest stack goes out next).
pub(crate) struct StackPool {
    stacks: Vec<Stack>,
    free: Vec<u32>,
    /// Stacks mapped so far.
    pub mapped: u64,
    /// Starts served by a freed stack.
    pub reuses: u64,
}

impl StackPool {
    pub(crate) fn new() -> StackPool {
        StackPool {
            stacks: Vec::new(),
            free: Vec::new(),
            mapped: 0,
            reuses: 0,
        }
    }

    /// A free stack, primed to run `entry` on its first switch. Returns
    /// the stack's index (for [`StackPool::release`]) and its context.
    pub(crate) fn start<M>(&mut self, entry: fn(Context<M>, M) -> !) -> (u32, Context<M>) {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.reuses += 1;
                idx
            }
            None => {
                self.stacks.push(Stack::map());
                self.mapped += 1;
                (self.stacks.len() - 1) as u32
            }
        };
        // SAFETY: a stack is free only once the context that ran on it
        // has been handed to `release`, so nothing is live on it.
        let ctx = unsafe { self.stacks[idx as usize].prime(entry) };
        (idx, ctx)
    }

    /// Frees stack `idx`, given the last context that will ever be
    /// suspended on it: the one its finished coroutine left behind.
    pub(crate) fn release<M>(&mut self, idx: u32, last: Context<M>) {
        assert!(
            self.stacks[idx as usize].contains(last.sp),
            "released {last:?} does not belong to carrier stack {idx}"
        );
        self.free.push(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn echo(mut back: Context<u64>, mut msg: u64) -> ! {
        loop {
            // SAFETY: the test's own stack stays suspended in its switch.
            (back, msg) = unsafe { switch(back, msg * 2) };
        }
    }

    #[test]
    fn messages_cross_each_switch_both_ways() {
        let mut pool = StackPool::new();
        let (_, mut ctx) = pool.start(echo);
        for i in 1..1_000u64 {
            // SAFETY: `pool` is alive.
            let (next, doubled) = unsafe { switch(ctx, i) };
            assert_eq!(doubled, 2 * i);
            ctx = next;
        }
        assert_eq!((pool.mapped, pool.reuses), (1, 0));
    }

    fn finish(back: Context<u64>, msg: u64) -> ! {
        // SAFETY: the test's own stack stays suspended in its switch.
        let _ = unsafe { switch(back, msg + 1) };
        unreachable!("a finished coroutine was resumed")
    }

    #[test]
    fn a_released_stack_is_reused_first() {
        let mut pool = StackPool::new();
        let (a, ctx) = pool.start(finish);
        // SAFETY: `pool` is alive.
        let (dead, n) = unsafe { switch(ctx, 41) };
        assert_eq!(n, 42);
        pool.release(a, dead);
        let (b, ctx) = pool.start(finish);
        assert_eq!(a, b);
        // SAFETY: `pool` is alive.
        let (dead, n) = unsafe { switch(ctx, 1) };
        assert_eq!(n, 2);
        pool.release(b, dead);
        assert_eq!((pool.mapped, pool.reuses), (1, 1));
    }

    #[test]
    fn stacks_are_aligned_and_guarded_below() {
        let s = Stack::map();
        assert_eq!(s.top() % 16, 0);
        let guard = s.base.as_ptr() as usize;
        assert!(!s.contains(NonNull::new((guard + GUARD_SIZE) as *mut u8).unwrap()));
        assert!(s.contains(NonNull::new(s.top() as *mut u8).unwrap()));
    }
}
