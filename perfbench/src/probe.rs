//! Process-level probes read from outside the layers: a counting global
//! allocator, `getrusage`, `/proc/self/io` and `/proc/self/status`.
//!
//! Every probe here is a *deterministic counter* or an OS-reported figure;
//! none of them feeds an end-to-end time.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Global allocator that counts allocation calls (alloc, alloc_zeroed,
/// realloc) while [`count_allocations`] is on, and otherwise forwards to
/// [`System`].  Off by default, so untraced runs pay one relaxed load per
/// allocation and no shared-counter traffic between the checker's workers.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards the exact arguments to `System`, whose
// `GlobalAlloc` contract is inherited unchanged; the counter update has no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `layout` validity.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `layout` validity.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the realloc contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; the caller upholds the dealloc contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Turns allocation counting on or off (traced runs only).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls counted so far (all threads).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User and system CPU seconds of the whole process (every thread).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user_s: f64,
    pub sys_s: f64,
}

impl Cpu {
    pub fn now() -> Cpu {
        let mut usage = Rusage::default();
        // SAFETY: `usage` is a live, writable `struct rusage` with the
        // kernel's 64-bit layout, and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Cpu {
            user_s: secs(&usage.ru_utime),
            sys_s: secs(&usage.ru_stime),
        }
    }

    pub fn since(self, start: Cpu) -> Cpu {
        Cpu {
            user_s: self.user_s - start.user_s,
            sys_s: self.sys_s - start.sys_s,
        }
    }

    pub fn total(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Counters from `/proc/self/io`: read and write syscalls and the bytes they
/// moved (`rchar`/`wchar`, i.e. including page-cache hits).
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    pub read_syscalls: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
}

impl Io {
    /// The current counters; all zero where the kernel does not expose them.
    /// Reading the file itself adds one small read to the next delta.
    pub fn now() -> Io {
        let text = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        let field = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        Io {
            read_syscalls: field("syscr:"),
            read_bytes: field("rchar:"),
            write_bytes: field("wchar:"),
        }
    }

    pub fn since(self, start: Io) -> Io {
        Io {
            read_syscalls: self.read_syscalls - start.read_syscalls,
            read_bytes: self.read_bytes - start.read_bytes,
            write_bytes: self.write_bytes - start.write_bytes,
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    kib / 1024.0
}
