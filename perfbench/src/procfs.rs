//! Process and thread resource readings from `/proc` (Linux).

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// CPU time of the whole process (every thread, live or exited), seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name is parenthesised and may contain spaces; fields
    // resume after the last ')'. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// CPU time of one thread of this process, by kernel task id, seconds
/// (nanosecond resolution).
pub fn task_cpu_s(tid: &str) -> f64 {
    let s = std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .expect("read a task's schedstat");
    let ns: f64 = s.split_whitespace().next().and_then(|v| v.parse().ok()).expect("schedstat");
    ns / 1e9
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb / 1024.0
}

/// Resident set size of the process now, MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor gave this machine's CPUs to someone else, and all time.
pub fn steal_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu: Vec<f64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .expect("aggregate cpu line")
        .split_whitespace()
        .map(|v| v.parse().expect("numeric /proc/stat field"))
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already inside user.
    (cpu.get(7).copied().unwrap_or(0.0), cpu.iter().take(8).sum())
}

/// Stolen share of the machine's CPU time between two [`steal_ticks`]
/// readings.
pub fn steal_share(from: (f64, f64), to: (f64, f64)) -> f64 {
    (to.0 - from.0) / (to.1 - from.1).max(1.0)
}
