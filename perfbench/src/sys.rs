//! Process accounting through libc, which `std` does not expose:
//! `wait4` reaps a child together with its CPU time and peak resident
//! memory, `getrusage` reads this process's, and `kill` delivers the
//! injected worker crash. Linux only, like the rest of the benchmark.

use std::process::Child;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs,
/// of which only `ru_maxrss` is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const SIGKILL: i32 = 9;

/// CPU time and peak resident memory of a process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set size in KiB.
    pub peak_rss_kb: u64,
}

impl Rusage {
    fn usage(&self) -> Usage {
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
        Usage {
            cpu_s: secs(&self.ru_utime) + secs(&self.ru_stime),
            peak_rss_kb: u64::try_from(self.ru_maxrss).unwrap_or(0),
        }
    }
}

/// This process's CPU time (all threads) and peak RSS so far.
#[must_use]
pub fn self_usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the
    // 64-bit Linux layout; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc == 0 {
        ru.usage()
    } else {
        Usage::default()
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exit {
    /// Exit code of a normal exit.
    pub code: Option<i32>,
    /// Terminating signal otherwise.
    pub signal: Option<i32>,
}

impl Exit {
    /// Exited normally with code 0.
    #[must_use]
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

impl std::fmt::Display for Exit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.code, self.signal) {
            (Some(c), _) => write!(f, "exit code {c}"),
            (None, Some(s)) => write!(f, "signal {s}"),
            (None, None) => f.write_str("unknown exit"),
        }
    }
}

/// Waits for `child` and returns how it ended plus its resource usage,
/// which on Linux includes every descendant the child itself reaped.
///
/// # Errors
///
/// The `wait4` error, other than an interrupted wait.
pub fn reap(child: Child) -> std::io::Result<(Exit, Usage)> {
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live and writable; `pid` is a
        // child of this process that nothing else waits for, since
        // `child` is consumed here.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // Already reaped: dropping a `Child` neither waits nor kills.
    drop(child);
    let exit = if status & 0x7f == 0 {
        Exit {
            code: Some((status >> 8) & 0xff),
            signal: None,
        }
    } else {
        Exit {
            code: None,
            signal: Some(status & 0x7f),
        }
    };
    Ok((exit, ru.usage()))
}

/// Sends SIGKILL to `pid`; `true` when delivered.
#[must_use]
pub fn sigkill(pid: u32) -> bool {
    let Ok(pid) = i32::try_from(pid) else {
        return false;
    };
    // SAFETY: kill has no memory preconditions; `pid` is a child of
    // this process that has not been reaped yet.
    unsafe { kill(pid, SIGKILL) == 0 }
}
