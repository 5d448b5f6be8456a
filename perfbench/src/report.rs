//! What a run prints: the result line, failure tally, and notes.

use std::collections::BTreeMap;

use tsdx_tensor::metrics::Snapshot;

use crate::common::Setup;
use crate::load::{self, Phase, Window};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// never enters reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.http_ms", "ms"),
    ("serve.batcher_ms", "ms"),
    ("serve.batch_clips", "clips"),
    ("serve.mux_streams", "streams"),
    ("core.extract_batch_ms.b1", "ms"),
    ("core.extract_batch_ms.b2", "ms"),
    ("core.outside_ops_share", "ratio"),
    ("core.stage_us", "us"),
    ("core.group_encode_us.s1", "us"),
    ("core.group_encode_us.s2", "us"),
    ("core.readout_us", "us"),
    ("core.group_cache_hit_ratio", "ratio"),
    ("core.train_forward_ms", "ms"),
    ("tensor.backward_ms", "ms"),
    ("tensor.op.matmul_ms", "ms"),
    ("tensor.op.attention_ms", "ms"),
    ("tensor.op.layer_norm_ms", "ms"),
    ("tensor.op.elementwise_ms", "ms"),
    ("tensor.pool.queue_wait_us", "us"),
    ("tensor.pool.exec_us", "us"),
    ("tensor.arena_hit_ratio", "ratio"),
    ("tensor.alloc_bytes_per_op", "B"),
    ("nn.optim_ms", "ms"),
    ("data.collate_ms", "ms"),
    ("index.scan_ms", "ms"),
    ("sdl.query_us", "us"),
    ("sdl.render_hits_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Timings are taken over the `1/QUIET_SHARE` of a phase's slices with
/// the least stolen time (and every slice tied with them).
pub const QUIET_SHARE: usize = 10;

/// How a workload's latency percentiles are taken over the quiet slices.
#[derive(Debug, Clone, Copy)]
pub enum Latency {
    /// Each quiet slice's median and `tail_pct` percentile; the median of
    /// each over the quiet slices is reported. For slices that hold many
    /// operations.
    PerSlice { tail_pct: f64 },
    /// Percentiles of all operations of the quiet slices together. For
    /// slices that hold only a few operations each.
    Pooled { tail_pct: f64 },
}

/// Failure kind that marks a wrong answer rather than a refused request.
pub const WRONG: &str = "wrong_output";

pub struct Outcome {
    trace: bool,
    attempted: u64,
    failed: u64,
    failures: BTreeMap<String, u64>,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn new(trace: bool) -> Outcome {
        let metrics = if trace {
            PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Outcome {
            trace,
            attempted: 0,
            failed: 0,
            failures: BTreeMap::new(),
            problems: Vec::new(),
            metrics,
            notes: Vec::new(),
        }
    }

    /// Records a wrong output found outside an operation (set-up or a
    /// post-run reference check).
    pub fn wrong(&mut self, detail: String) {
        self.problems.push(detail);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        let known = if self.trace { PER_LAYER } else { END_TO_END };
        assert!(known.iter().any(|(n, _)| *n == name), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// Counts a timed phase's operations into `attempted`/`failed`.
    pub fn count<T>(&mut self, phase: &Phase<T>) {
        for op in &phase.ops {
            self.attempted += 1;
            if let Err(f) = &op.result {
                self.failed += 1;
                self.tally(&f.kind);
            }
        }
    }

    /// Operations outside the timed phases (set-up, warm-up) are not
    /// counted as attempts, but any failure among them fails the run.
    pub fn require_clean<T>(&mut self, what: &str, phase: &Phase<T>) {
        for op in &phase.ops {
            if let Err(f) = &op.result {
                self.problems.push(format!("{what}: {}", f.kind));
            }
        }
    }

    fn tally(&mut self, kind: &str) {
        if let Some(detail) = kind.strip_prefix(WRONG) {
            self.problems.push(detail.trim_start_matches(": ").to_string());
            *self.failures.entry(WRONG.to_string()).or_default() += 1;
        } else {
            *self.failures.entry(kind.to_string()).or_default() += 1;
        }
    }

    /// The end-to-end metrics of one timed phase. Every timing is taken
    /// over the tenth of the time slices in which the hypervisor stole the
    /// least CPU time, together with every slice tied with them
    /// ([`quietest`]): on a shared host, stolen time, not the program, is
    /// what moves a closed loop from run to run. Throughput and CPU per
    /// operation are totals over those slices; latency is taken as the
    /// workload's [`Latency`] says. Set-up time is the median over the
    /// quieter half of the set-ups. Peak memory is counted above what the
    /// process held before its first set-up.
    pub fn end_to_end<T>(&mut self, setup: &Setup, phase: &Phase<T>, latency: Latency) {
        let w =
            quietest(&phase.windows, phase.windows.len().div_ceil(QUIET_SHARE), |w| w.steal_share);
        let sum = |f: &dyn Fn(&Window) -> f64| w.iter().map(|w| f(w)).sum::<f64>();
        let completed = sum(&|w| w.completed as f64);
        let (tail_pct, p50, tail, per) = match latency {
            Latency::PerSlice { tail_pct } => {
                let med = |f: &dyn Fn(&Window) -> f64| {
                    load::median(&w.iter().map(|w| f(w)).collect::<Vec<_>>())
                };
                let n = med(&|w| w.completed as f64);
                (
                    tail_pct,
                    med(&|w| load::quantile(&w.latencies_ms, 0.5)),
                    med(&|w| load::quantile(&w.latencies_ms, tail_pct / 100.0)),
                    format!("each slice ({n:.0} operations per slice at the median)"),
                )
            }
            Latency::Pooled { tail_pct } => {
                let mut all: Vec<f64> =
                    w.iter().flat_map(|w| w.latencies_ms.iter().copied()).collect();
                all.sort_by(f64::total_cmp);
                (
                    tail_pct,
                    load::quantile(&all, 0.5),
                    load::quantile(&all, tail_pct / 100.0),
                    format!("the {completed:.0} operations of these slices together"),
                )
            }
        };
        let quiet_setups: Vec<f64> = quietest(&setup.runs, setup.runs.len().div_ceil(2), |r| r.1)
            .into_iter()
            .map(|r| r.0)
            .collect();
        self.set("setup_s", load::median(&quiet_setups));
        self.set("throughput_ops_s", completed / sum(&|w| w.width_s));
        self.set("latency_p50_ms", p50);
        self.set("latency_tail_ms", tail);
        self.set("cpu_ms_per_op", sum(&|w| w.program_cpu_s) * 1e3 / completed.max(1.0));
        self.set("peak_rss_mb", crate::procfs::peak_rss_mib() - setup.rss_base_mib);
        self.note(format!(
            "quiet slices: {} of {} slices of {:.2} s, {completed:.0} operations; latency_tail_ms \
             is p{tail_pct} of {per}",
            w.len(),
            phase.windows.len(),
            phase.windows.first().map_or(0.0, |w| w.width_s),
        ));
        self.note(format!("host steal: {:.4} of machine CPU time", phase.steal_share));
        self.note(format!(
            "steal in the quiet slices: {:.4}",
            sum(&|w| w.steal_share * w.width_s) / sum(&|w| w.width_s)
        ));
        let times: Vec<String> =
            setup.runs.iter().map(|(t, steal)| format!("{t:.4}@{steal:.3}")).collect();
        self.note(format!("set-up time (s)@steal: {}", times.join(" ")));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Prints notes, problems and the failure tally, then the result as the
    /// last line of standard output.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for p in self.problems.iter().take(20) {
            println!("# WRONG OUTPUT: {p}");
        }
        let tally: Vec<String> =
            self.failures.iter().map(|(k, v)| format!("\"{}\": {v}", escape(k))).collect();
        println!("# failures by kind: {{{}}}", tally.join(", "));
        let units = if self.trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = units
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(f64::NAN);
                assert!(v.is_finite(), "metric {name} was not measured ({v})");
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Self time of one `op/*` kernel span, ms per operation.
pub fn op_ms(snap: &Snapshot, kernel: &str, ops: f64) -> f64 {
    snap.span(&format!("op/{kernel}")).self_ns as f64 / 1e6 / ops
}

/// Sets the kernel and pool rows from a probe's metrics scope, normalised
/// per operation.
pub fn tensor_rows(out: &mut Outcome, snap: &Snapshot, ops: f64) {
    out.set("tensor.op.matmul_ms", op_ms(snap, "matmul", ops));
    out.set("tensor.op.attention_ms", op_ms(snap, "attention", ops));
    out.set("tensor.op.layer_norm_ms", op_ms(snap, "layer_norm", ops));
    out.set("tensor.op.elementwise_ms", op_ms(snap, "elementwise", ops));
    let hist_us = |prefix: &str| {
        snap.hists
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, h)| h.sum_ns as f64)
            .sum::<f64>()
            / 1e3
            / ops
    };
    out.set("tensor.pool.queue_wait_us", hist_us("pool/queue_wait/"));
    out.set("tensor.pool.exec_us", hist_us("pool/exec/"));
}

/// Share of `wall_ns` not covered by any `op/*` kernel span: graph build,
/// parameter binding, tape and glue.
pub fn outside_ops_share(snap: &Snapshot, wall_ns: f64) -> f64 {
    let in_ops: f64 = snap
        .spans
        .iter()
        .filter(|(k, _)| k.starts_with("op/"))
        .map(|(_, s)| s.self_ns as f64)
        .sum();
    1.0 - in_ops / wall_ns
}

/// Workspace-arena hits over requests between two `workspace::stats()`
/// readings.
pub fn arena_hit_ratio(before: (u64, u64, u64), after: (u64, u64, u64)) -> f64 {
    let hits = (after.0 - before.0) as f64;
    let misses = (after.1 - before.1) as f64;
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

/// The `keep` items with the least `steal`, and every other item that
/// had no more steal than the last of them. Steal is counted in whole
/// 10-ms ticks, so in quiet minutes most slices tie at zero and all of
/// them are kept.
pub fn quietest<T>(items: &[T], keep: usize, steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut v: Vec<&T> = items.iter().collect();
    v.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let cutoff = steal(v[keep.clamp(1, v.len()) - 1]);
    v.retain(|x| steal(x) <= cutoff);
    v
}
