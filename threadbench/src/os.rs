//! What the benchmark reads from and asks of the OS: CPU placement,
//! CPU time and context switches (`getrusage`), and memory and thread
//! counts (`/proc/self/status`). Linux only.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("threadbench reads Linux rusage, affinity and /proc; build it on 64-bit Linux");

use std::time::Duration;

/// `cpu_set_t`: 1024 CPU bits.
const CPU_SET_WORDS: usize = 16;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

const RUSAGE_SELF: i32 = 0;
const NVCSW: usize = 12;
const NIVCSW: usize = 13;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Process-wide CPU time and context switches, every thread included
/// (exited ones too).
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User CPU time.
    pub user: Duration,
    /// System CPU time.
    pub sys: Duration,
    /// Voluntary plus involuntary context switches.
    pub switches: u64,
}

impl Usage {
    /// Reads the process's usage now.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a writable, properly aligned `struct rusage`
        // for 64-bit Linux (checked by the compile_error gate above).
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let tv = |t: Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
        Usage {
            user: tv(raw.ru_utime),
            sys: tv(raw.ru_stime),
            switches: (raw.longs[NVCSW] + raw.longs[NIVCSW]) as u64,
        }
    }

    /// The usage accrued since `earlier`.
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            switches: self.switches.saturating_sub(earlier.switches),
        }
    }

    /// Sums two deltas.
    pub fn plus(self, other: Usage) -> Usage {
        Usage {
            user: self.user + other.user,
            sys: self.sys + other.sys,
            switches: self.switches + other.switches,
        }
    }

    /// User plus system CPU, seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.user + self.sys).as_secs_f64()
    }
}

/// Confines the calling thread, and every thread it later spawns, to
/// the last `n` CPUs it is allowed to run on (CPU 0 tends to carry the
/// most interrupt and housekeeping work). Returns the CPUs chosen (fewer
/// than `n` when fewer are allowed). Call before spawning threads.
pub fn confine_to(n: usize) -> std::io::Result<Vec<usize>> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let allowed: Vec<usize> = (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    let chosen = allowed[allowed.len().saturating_sub(n)..].to_vec();
    let mut want = [0u64; CPU_SET_WORDS];
    for &c in &chosen {
        want[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `want` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&want), want.as_ptr()) };
    if rc != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(chosen)
}

/// A numeric field of `/proc/self/status` (for example `VmHWM`, in kB,
/// or `Threads`), or 0 when absent.
pub fn status_field(name: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far, MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_grows_with_work() {
        let a = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let d = Usage::now().since(a);
        assert!(d.cpu_s() > 0.0, "no CPU time accrued ({x})");
    }

    #[test]
    fn status_fields_are_read() {
        assert!(status_field("Threads") >= 1);
        assert!(peak_rss_mb() > 0.0);
        assert_eq!(status_field("NoSuchField"), 0);
    }
}
