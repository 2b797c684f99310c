//! Reading the process and the host: process CPU time, peak resident
//! memory, and host-wide CPU accounting (steal and idle).
//!
//! The `/proc` parsers take the file's text so they can be tested
//! without `/proc`.

/// A `kB` line of `/proc/<pid>/status` — `key` is e.g. `"VmHWM"` (peak
/// resident set) or `"VmRSS"` (resident set now) — in KiB.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Host-wide CPU time, in ticks, from the aggregate `cpu` line of
/// `/proc/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostCpu {
    /// Every tick accounted: user, nice, system, idle, iowait, irq,
    /// softirq and steal (guest time is already inside user and nice).
    pub total: u64,
    /// Idle plus iowait ticks.
    pub idle: u64,
    /// Ticks the hypervisor ran something else while this host wanted
    /// to run.
    pub steal: u64,
}

/// Parses the aggregate `cpu ` line of `/proc/stat`.
pub fn parse_host_cpu(stat: &str) -> Option<HostCpu> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if v.len() < 8 {
        return None;
    }
    Some(HostCpu {
        total: v.iter().sum(),
        idle: v[3] + v[4],
        steal: v[7],
    })
}

impl HostCpu {
    /// Shares of host CPU time that were stolen and idle between `self`
    /// and the later reading `later` (both 0 when no time passed).
    pub fn fracs_until(&self, later: &HostCpu) -> (f64, f64) {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return (0.0, 0.0);
        }
        let steal = later.steal.saturating_sub(self.steal) as f64 / total as f64;
        let idle = later.idle.saturating_sub(self.idle) as f64 / total as f64;
        (steal, idle)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// This process's user + system CPU time so far, every thread included
/// (exited ones too), in seconds with nanosecond resolution.
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for one world's
/// timed window.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel defines.
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    parse_status_kib(&status, key).expect("memory line in /proc/self/status") as f64 / 1024.0
}

/// This process's peak resident set so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// This process's resident set now, in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// The host's CPU accounting now.
pub fn host_cpu() -> HostCpu {
    let stat = std::fs::read_to_string("/proc/stat").expect("reading /proc/stat");
    parse_host_cpu(&stat).expect("parsing the cpu line of /proc/stat")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - t0 < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s() > t0);
    }

    #[test]
    fn status_memory_lines_are_read_in_kib() {
        let status = "Name:\tVmHWM\nVmPeak:\t  900000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(51234));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(40000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib("VmHWM:\tlots kB\n", "VmHWM"), None);
    }

    #[test]
    fn host_cpu_line_and_fractions() {
        let a = parse_host_cpu(
            "cpu  100 0 50 800 50 0 0 0 0 0\ncpu0 50 0 25 400 25 0 0 0 0 0\nintr 1\n",
        )
        .unwrap();
        assert_eq!(
            a,
            HostCpu {
                total: 1000,
                idle: 850,
                steal: 0
            }
        );
        let b = parse_host_cpu("cpu  300 0 100 850 50 0 0 100 0 0\n").unwrap();
        let (steal, idle) = a.fracs_until(&b);
        // 400 ticks passed: 100 stolen, 50 idle.
        assert!((steal - 0.25).abs() < 1e-12);
        assert!((idle - 0.125).abs() < 1e-12);
        assert_eq!(a.fracs_until(&a), (0.0, 0.0));
        assert_eq!(parse_host_cpu("cpu  1 2 3\n"), None);
        assert_eq!(parse_host_cpu("intr 5\n"), None);
    }
}
