//! Heap accounting across whole simulations: building, running and
//! dropping a `Sim` must give back every byte it allocated, whether its
//! threads exited or were parked when it was dropped. A carrier stack
//! is abandoned after its thread's last switch, so anything still owned
//! on it then is never freed; this file's counting allocator catches
//! that. (One test per binary: the count is process-wide.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use pcr::{millis, Priority, RunLimit, Sim, SimConfig};

struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

// SAFETY: defers every call to the system allocator unchanged.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Eight threads that exit and eight parked in a CV wait at the drop.
fn world() {
    let mut s = Sim::new(SimConfig::default());
    let m = s.monitor("m", 0u32);
    let never = s.condition(&m, "never", None);
    for i in 0..8 {
        let prio = Priority::of(3 + (i % 3) as u8);
        let mc = m.clone();
        let _ = s.fork_root(&format!("exits{i}"), prio, move |ctx| {
            ctx.work(millis(1));
            ctx.enter(&mc).with_mut(|n| *n += 1);
            i
        });
        let (mc, cv) = (m.clone(), never.clone());
        let _ = s.fork_root(&format!("parks{i}"), prio, move |ctx| {
            ctx.work(millis(1));
            let mut g = ctx.enter(&mc);
            ctx.wait(&mut g, &cv);
        });
    }
    let r = s.run(RunLimit::For(millis(100)));
    assert_eq!(s.live_threads(), 8, "{r:?}");
}

#[test]
fn dropped_sims_give_back_every_heap_byte() {
    world(); // Warm up std's lazily allocated state.
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    for _ in 0..100 {
        world();
    }
    let grown = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert!(grown <= 0, "100 worlds left {grown} bytes allocated");
}
