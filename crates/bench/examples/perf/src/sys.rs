//! Process accounting: CPU time and peak memory of this process, of a child
//! it waits for, and of a running child read from `/proc`.

use std::io;
use std::process::Child;
use std::time::Duration;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s of
/// which the first is `ru_maxrss` (KiB).
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn zeroed() -> Self {
        Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss: 0,
            rest: [0; 13],
        }
    }

    fn usage(&self) -> Usage {
        let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
        Usage {
            cpu: Duration::from_micros(micros(&self.utime) + micros(&self.stime)),
            maxrss_kib: self.maxrss.max(0) as u64,
        }
    }
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed at
/// 100 on Linux for every architecture this runs on).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) and peak resident set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    pub cpu: Duration,
    pub maxrss_kib: u64,
}

/// This process, all threads included.
pub fn self_usage() -> Usage {
    let mut raw = Rusage::zeroed();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and `RUSAGE_SELF` is a value the call accepts.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    raw.usage()
}

/// Waits for `child` to exit. Returns whether it exited with status 0, and
/// the CPU time and peak memory of that child alone (which
/// `RUSAGE_CHILDREN` cannot give: it also counts children reaped before this
/// program was exec'd, such as the build).
pub fn wait_with_usage(child: Child) -> io::Result<(bool, Usage)> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in pid_t");
    let mut raw = Rusage::zeroed();
    let mut status = 0;
    loop {
        // SAFETY: `pid` is a child of this process that nothing else waits
        // for (`child` is consumed), and `status` and `raw` are live,
        // writable values of the types `wait4` writes.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut raw) };
        if rc == pid {
            return Ok((status == 0, raw.usage()));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn self_peak_rss_mb() -> f64 {
    peak_rss_mb("self").expect("/proc/self/status has VmHWM")
}

/// Peak resident set (`VmHWM`) of process `pid` (or `"self"`), MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time (user + system, all threads) of a running process `pid`.
pub fn cpu_of(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_secs_f64((utime + stime) / USER_HZ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_accounting_is_live() {
        let before = self_usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let after = self_usage();
        assert!(after.cpu > before.cpu);
        assert!(after.maxrss_kib > 0);
        assert!(self_peak_rss_mb() > 0.0);
        assert!(cpu_of(std::process::id()).is_some());
    }

    #[test]
    fn a_waited_child_reports_its_status_and_usage() {
        let spawn = |code: &str| {
            std::process::Command::new("sh")
                .args(["-c", &format!("exit {code}")])
                .spawn()
                .unwrap()
        };
        let (ok, usage) = wait_with_usage(spawn("0")).unwrap();
        assert!(ok);
        assert!(usage.maxrss_kib > 0);
        assert!(!wait_with_usage(spawn("3")).unwrap().0);
    }
}
