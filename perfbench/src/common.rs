//! Pieces every workload shares: repeated set-up, `/stats`, and the
//! switch between the untraced and traced halves of a traced run.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use tsdx_tensor::workspace;

use crate::client::Conn;
use crate::json::Json;
use crate::load::{self, Phase, Stop};
use crate::report::Outcome;
use crate::{alloc, procfs, report};

/// Weights are seeded, untrained and fixed: forward cost does not depend
/// on weight values, and the workload seed varies only the inputs.
pub const MODEL_SEED: u64 = 7;

/// Load generator threads, one keep-alive connection each.
pub const CLIENTS: usize = 2;

/// What the set-ups of a run measured.
pub struct Setup {
    /// Every set-up's time in seconds and the share of the machine's CPU
    /// time stolen during it, in order.
    pub runs: Vec<(f64, f64)>,
    /// Resident memory before the first set-up, MiB: the benchmark's own
    /// inputs and reference copies, which `peak_rss_mb` leaves out.
    pub rss_base_mib: f64,
}

/// Builds the system `n` times, keeping the last, and times each build.
/// Each earlier system is torn down (dropped) before the next is built.
/// `prep` makes the caller-side copy of inputs a build consumes and is not
/// timed; the copy becomes the program's, so it counts towards its memory.
pub fn repeat_setup<P, E>(
    n: usize,
    mut prep: impl FnMut() -> P,
    mut build: impl FnMut(P) -> E,
) -> (Setup, E) {
    let rss_base_mib = procfs::rss_mib();
    let mut runs = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n {
        drop(kept.take());
        let p = prep();
        let s0 = procfs::steal_ticks();
        let t0 = Instant::now();
        kept = Some(build(p));
        runs.push((t0.elapsed().as_secs_f64(), procfs::steal_share(s0, procfs::steal_ticks())));
    }
    (Setup { runs, rss_base_mib }, kept.expect("at least one set-up"))
}

/// The server's `/stats` document.
pub fn stats(addr: SocketAddr) -> Json {
    let mut conn = Conn::open(addr).expect("connect for /stats");
    conn.call("GET", "/stats", &[], &[]).expect("/stats answers 200")
}

/// A `/stats` counter, with `path` naming nested objects.
pub fn stat(doc: &Json, path: &[&str]) -> f64 {
    let mut j = doc;
    for key in &path[..path.len() - 1] {
        j = j.get(key).unwrap_or_else(|| panic!("/stats lacks {key}"));
    }
    j.num(path[path.len() - 1]).unwrap_or_else(|| panic!("/stats lacks {}", path.join(".")))
}

/// Heap and arena readings across the traced half of a traced run.
pub struct Tracing {
    bytes0: u64,
    arena0: (u64, u64, u64),
}

impl Tracing {
    pub fn start() -> Tracing {
        let t = Tracing { bytes0: alloc::bytes(), arena0: workspace::stats() };
        alloc::set_counting(true);
        t
    }

    /// Stops counting and sets the rows measured over the traced phase:
    /// heap bytes per completed operation, arena hit ratio, and the
    /// tracing overhead against the untraced phase.
    pub fn finish<T>(self, out: &mut Outcome, untraced: &Phase<T>, traced: &Phase<T>) {
        alloc::set_counting(false);
        let ops = traced.completed_count().max(1) as f64;
        out.set("tensor.alloc_bytes_per_op", (alloc::bytes() - self.bytes0) as f64 / ops);
        out.set("tensor.arena_hit_ratio", report::arena_hit_ratio(self.arena0, workspace::stats()));
        out.set("trace.overhead_pct", (untraced.throughput() / traced.throughput() - 1.0) * 100.0);
        out.note(format!(
            "traced run: {:.1} ops/s untraced vs {:.1} ops/s traced",
            untraced.throughput(),
            traced.throughput()
        ));
    }
}

/// Median wall time of `f` over `n` calls, in microseconds.
pub fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    v.sort_by(f64::total_cmp);
    load::quantile(&v, 0.5)
}

/// The timed phase of an untraced run: `seconds` cut into slices of
/// `slice_ms` milliseconds.
pub fn sliced(seconds: u64, slice_ms: u64) -> Stop {
    let windows = (seconds * 1000 / slice_ms).max(1) as usize;
    Stop::Time { total: Duration::from_secs(seconds), windows }
}

/// Each half of a traced run: the untraced half, then the traced one.
pub fn half(seconds: u64) -> Stop {
    Stop::Time { total: Duration::from_secs(seconds) / 2, windows: 1 }
}
