//! The closed-loop load generator and the statistics over what it saw.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::client::Failure;
use crate::{alloc, procfs};

/// When a phase ends. Either way every client finishes whole rounds, so
/// each run attempts the same mix of operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Start no new round once `total` has passed. The time is cut into
    /// `windows` equal slices, each measured on its own.
    Time { total: Duration, windows: usize },
    /// Run exactly this many rounds per client.
    Rounds(usize),
}

/// How the clients of a phase start their rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Each client starts its next round as soon as its last one ends.
    Free,
    /// All clients start each round together, and all run the same number
    /// of rounds.
    Lockstep,
}

/// One attempted operation: its latency and what it returned.
pub struct Op<T> {
    pub latency_us: f64,
    pub end: Instant,
    pub result: Result<T, Failure>,
}

/// Times `f` as one operation and appends it to `out`. `check` runs after
/// the clock stops, so verifying an answer never counts as latency.
pub fn timed<R, T>(
    out: &mut Vec<Op<T>>,
    f: impl FnOnce() -> Result<R, Failure>,
    check: impl FnOnce(R) -> Result<T, Failure>,
) {
    let t0 = Instant::now();
    let r = f();
    let end = Instant::now();
    let latency_us = (end - t0).as_secs_f64() * 1e6;
    out.push(Op { latency_us, end, result: r.and_then(check) });
}

/// One time slice of a phase.
pub struct Window {
    /// Operations that completed inside the slice.
    pub completed: usize,
    pub width_s: f64,
    /// Their latencies, sorted, ms.
    pub latencies_ms: Vec<f64>,
    /// CPU the program spent inside the slice, seconds.
    pub program_cpu_s: f64,
    /// Share of the machine's CPU time the hypervisor stole in the slice.
    pub steal_share: f64,
}

/// Everything one phase of load produced.
pub struct Phase<T> {
    pub ops: Vec<Op<T>>,
    pub wall_s: f64,
    /// Per-slice measurements of a timed phase (empty for `Stop::Rounds`).
    pub windows: Vec<Window>,
    /// Share of the machine's CPU time stolen by the hypervisor during the
    /// phase: interference from outside, not the program.
    pub steal_share: f64,
}

impl<T> Phase<T> {
    pub fn completed(&self) -> impl Iterator<Item = (&Op<T>, &T)> {
        self.ops.iter().filter_map(|op| op.result.as_ref().ok().map(|t| (op, t)))
    }

    pub fn completed_count(&self) -> usize {
        self.completed().count()
    }

    pub fn throughput(&self) -> f64 {
        self.completed_count() as f64 / self.wall_s
    }

    pub fn mean_latency_ms(&self) -> f64 {
        let v: Vec<f64> = self.completed().map(|(op, _)| op.latency_us / 1e3).collect();
        mean(&v)
    }
}

/// The calling thread's kernel task id.
fn tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").expect("read /proc/thread-self");
    link.file_name().expect("task id").to_string_lossy().into_owned()
}

/// Runs one closed loop per client state, on its own thread, until `stop`.
/// With [`Pace::Lockstep`] the clients wait for each other before every
/// round.
///
/// With `inline` the program's code runs on the client threads (a library
/// call, not a request), so their CPU and heap use count as the program's;
/// otherwise the client threads are exempt from both, and a slice's
/// program CPU is the process's CPU minus theirs.
pub fn closed_loop<S: Send, T: Send>(
    clients: &mut [S],
    stop: Stop,
    pace: Pace,
    inline: bool,
    round: impl Fn(&mut S, &mut Vec<Op<T>>) + Sync,
) -> Phase<T> {
    let barrier = Barrier::new(clients.len() + 1);
    // In lockstep, one client decides at each round boundary whether the
    // phase is over, and all of them follow that decision.
    let round_start = Barrier::new(clients.len());
    let over = AtomicBool::new(false);
    // Clients stay alive until the last slice boundary has been read, so
    // their schedstat files still exist then.
    let done = Barrier::new(clients.len() + 1);
    let start = OnceLock::<Instant>::new();
    let tids = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (barrier, done, start, round, tids) = (&barrier, &done, &start, &round, &tids);
                let (round_start, over) = (&round_start, &over);
                s.spawn(move || {
                    if !inline {
                        alloc::exempt_thread();
                        tids.lock().expect("tid list").push(tid());
                    }
                    let mut out = Vec::new();
                    barrier.wait();
                    let t0 = *start.wait();
                    let mut rounds = 0usize;
                    let is_over = |rounds: usize| match stop {
                        Stop::Time { total, .. } => t0.elapsed() >= total,
                        Stop::Rounds(n) => rounds >= n,
                    };
                    loop {
                        if pace == Pace::Lockstep {
                            if round_start.wait().is_leader() {
                                over.store(is_over(rounds), Ordering::Relaxed);
                            }
                            round_start.wait();
                            if over.load(Ordering::Relaxed) {
                                break;
                            }
                        } else if is_over(rounds) {
                            break;
                        }
                        round(client, &mut out);
                        rounds += 1;
                    }
                    done.wait();
                    out
                })
            })
            .collect();
        // Client CPU comes from each client thread's schedstat, read here
        // at every slice boundary together with the process total.
        let program_cpu = |tids: &[String]| {
            let clients: f64 = tids.iter().map(|t| procfs::task_cpu_s(t)).sum();
            procfs::process_cpu_s() - clients
        };
        barrier.wait();
        let tids = tids.lock().expect("tid list").clone();
        let mark = || (Instant::now(), program_cpu(&tids), procfs::steal_ticks());
        let mut marks = vec![mark()];
        start.set(marks[0].0).expect("start is set once");
        if let Stop::Time { total, windows } = stop {
            for k in 1..=windows {
                let at = marks[0].0 + total.mul_f64(k as f64 / windows as f64);
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                marks.push(mark());
            }
        }
        done.wait();
        let mut ops = Vec::new();
        for h in handles {
            ops.extend(h.join().expect("client thread panicked"));
        }
        let t0 = marks[0].0;
        let windows = marks
            .windows(2)
            .map(|w| {
                let (from, to) = (w[0].0, w[1].0);
                let mut latencies_ms: Vec<f64> = ops
                    .iter()
                    .filter(|op: &&Op<T>| op.result.is_ok() && op.end > from && op.end <= to)
                    .map(|op| op.latency_us / 1e3)
                    .collect();
                latencies_ms.sort_by(f64::total_cmp);
                Window {
                    completed: latencies_ms.len(),
                    width_s: (to - from).as_secs_f64(),
                    latencies_ms,
                    program_cpu_s: w[1].1 - w[0].1,
                    steal_share: procfs::steal_share(w[0].2, w[1].2),
                }
            })
            .collect();
        let steal_share = procfs::steal_share(marks[0].2, procfs::steal_ticks());
        Phase { ops, wall_s: t0.elapsed().as_secs_f64(), windows, steal_share }
    })
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Linear-interpolated quantile of sorted values (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}
