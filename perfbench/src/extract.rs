//! `extract`: one-shot clips POSTed to `/v1/extract` as octet-stream over
//! two keep-alive connections. The batcher coalesces the two callers'
//! clips; the full forward, packed GEMM and attention do the work.

use std::hint::black_box;
use std::time::Instant;

use tsdx_core::precision::{self, Precision};
use tsdx_core::{ModelConfig, ScenarioExtractor};
use tsdx_sdl::{parse_scenario, Scenario};
use tsdx_serve::{Server, ServerConfig};
use tsdx_tensor::{metrics, Tensor};

use crate::client::{f32_bytes, Conn, Failure};
use crate::common::{self, median_us, repeat_setup, stat, Tracing, CLIENTS, MODEL_SEED};
use crate::load::{closed_loop, timed, Op, Pace, Phase, Stop};
use crate::report::{self, Latency, Outcome, WRONG};
use crate::{inputs, json::Json, Args};

/// Distinct clips, reused cyclically.
pub const CLIPS: usize = 32;
/// Warm-up requests per connection during set-up (the pool, once).
const WARMUP_ROUNDS: usize = CLIPS / CLIENTS;
/// Set-ups per untraced run; `setup_s` is the median of the half with the least
/// steal. A set-up takes about 50 ms, so a run can afford many.
const SETUPS: usize = 21;
/// Milliseconds per slice of the timed phase. Short slices let the choice
/// of quiet slices find the quiet moments inside a steal storm; 0.1 s
/// keeps forty or more operations in a slice, so that it has a tail.
const SLICE_MS: u64 = 100;
/// Tail percentile of each slice: the highest with ten samples beyond it
/// at the median count of the quiet slices in the slowest runs measured on
/// the reference host, 64-70 operations per 0.1-s slice in steal storms
/// (10.2-11.2 beyond p84); calm minutes held 130-180.
const LATENCY: Latency = Latency::PerSlice { tail_pct: 84.0 };
/// In-process calls per probe of the traced run.
const PROBE_CALLS: usize = 200;

struct Inputs {
    videos: Vec<Tensor>,
    bodies: Vec<Vec<u8>>,
    shape: String,
    /// `extract_checked` of each clip on the f32 plane.
    expected: Vec<String>,
    reference: ScenarioExtractor,
}

struct Client {
    conn: Conn,
    next: usize,
}

// Field order is drop order: connections close before the server drains.
struct Env {
    clients: Vec<Client>,
    server: Server,
}

struct Answer {
    clip: usize,
    /// Answers served on the int8 plane are checked after the run.
    int8_text: Option<String>,
    queued_us: f64,
    batch_size: f64,
}

pub fn wrong(detail: String) -> Failure {
    Failure { kind: format!("{WRONG}: {detail}") }
}

/// An extracted scenario's SDL must parse back to itself, validate, and
/// print identically after the round trip.
pub fn check_sdl(s: &Scenario, out: &mut Outcome) {
    let text = s.to_string();
    if let Err(e) = s.validate() {
        out.wrong(format!("scenario `{text}` does not validate: {e}"));
    }
    match parse_scenario(&text) {
        Ok(p) if p == *s && p.to_string() == text => {}
        Ok(p) => out.wrong(format!("SDL `{text}` round-trips to `{p}`")),
        Err(e) => out.wrong(format!("SDL `{text}` does not parse: {e}")),
    }
}

fn prepare(seed: u64, out: &mut Outcome) -> Inputs {
    let cfg = ModelConfig::default();
    let videos: Vec<Tensor> = inputs::clips(seed, CLIPS).into_iter().map(|c| c.video).collect();
    let reference = ScenarioExtractor::untrained(cfg, MODEL_SEED);
    let expected = videos
        .iter()
        .map(|v| {
            let s = reference.extract_checked(v).expect("simulator clips are well-formed");
            check_sdl(&s, out);
            s.to_string()
        })
        .collect();
    Inputs {
        bodies: videos.iter().map(|v| f32_bytes(v.data())).collect(),
        videos,
        shape: format!("{}x{}x{}", cfg.frames, cfg.height, cfg.width),
        expected,
        reference,
    }
}

fn check(inputs: &Inputs, clip: usize, j: Json) -> Result<Answer, Failure> {
    let text = j.str("scenario").ok_or_else(|| wrong("answer has no scenario".into()))?;
    let queued_us = j.num("queued_us").ok_or_else(|| wrong("answer has no queued_us".into()))?;
    let batch_size = j.num("batch_size").ok_or_else(|| wrong("answer has no batch_size".into()))?;
    let int8_text = match j.str("plane") {
        Some("f32") if text == inputs.expected[clip] => None,
        Some("f32") => {
            return Err(wrong(format!(
                "clip {clip}: `{text}`, expected `{}`",
                inputs.expected[clip]
            )))
        }
        Some("int8") => Some(text.to_string()),
        other => return Err(wrong(format!("clip {clip}: unknown plane {other:?}"))),
    };
    Ok(Answer { clip, int8_text, queued_us, batch_size })
}

fn round(inputs: &Inputs, c: &mut Client, ops: &mut Vec<Op<Answer>>) {
    let clip = c.next;
    c.next = (c.next + CLIENTS) % CLIPS;
    let headers = [("content-type", "application/octet-stream"), ("x-video-shape", &*inputs.shape)];
    timed(
        ops,
        || c.conn.call("POST", "/v1/extract", &headers, &inputs.bodies[clip]),
        |j| check(inputs, clip, j),
    );
}

/// Model build, int8 prepack (the server arms the degrade plane), server
/// start, connections, and one warm-up pass over the clip pool.
fn setup(inputs: &Inputs, out: &mut Outcome) -> Env {
    let extractor = ScenarioExtractor::untrained(ModelConfig::default(), MODEL_SEED);
    let server = Server::start(extractor, ServerConfig::default()).expect("bind server");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|t| Client { conn: Conn::open(server.local_addr()).expect("connect"), next: t })
        .collect();
    let warm =
        closed_loop(&mut clients, Stop::Rounds(WARMUP_ROUNDS), Pace::Free, false, |c, ops| {
            round(inputs, c, ops)
        });
    out.require_clean("extract warm-up", &warm);
    Env { clients, server }
}

/// Answers served on the int8 plane must equal `extract_checked` under
/// int8.
fn check_int8(inputs: &Inputs, phase: &Phase<Answer>, out: &mut Outcome) {
    for (_, a) in phase.completed() {
        if let Some(text) = &a.int8_text {
            let want = precision::with_forced(Precision::Int8, || {
                inputs.reference.extract_checked(&inputs.videos[a.clip])
            })
            .expect("simulator clips are well-formed")
            .to_string();
            if *text != want {
                out.wrong(format!("clip {} on int8: `{text}`, expected `{want}`", a.clip));
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let inputs = prepare(args.seed, &mut out);
    let load = |env: &mut Env, stop: Stop| {
        closed_loop(&mut env.clients, stop, Pace::Free, false, |c, ops| round(&inputs, c, ops))
    };
    if !args.trace {
        let (setup, mut env) = repeat_setup(SETUPS, || (), |()| setup(&inputs, &mut out));
        let phase = load(&mut env, common::sliced(args.seconds, SLICE_MS));
        drop(env);
        out.count(&phase);
        check_int8(&inputs, &phase, &mut out);
        out.end_to_end(&setup, &phase, LATENCY);
        let sizes: Vec<f64> = phase.completed().map(|(_, a)| a.batch_size).collect();
        out.note(format!(
            "mean clips per forward seen by a request: {:.3}",
            crate::load::mean(&sizes)
        ));
        return out;
    }

    let (_, mut env) = repeat_setup(1, || (), |()| setup(&inputs, &mut out));
    let addr = env.server.local_addr();
    let untraced = load(&mut env, common::half(args.seconds));
    let s0 = common::stats(addr);
    let tracing = Tracing::start();
    let traced = load(&mut env, common::half(args.seconds));
    tracing.finish(&mut out, &untraced, &traced);
    let s1 = common::stats(addr);
    drop(env);
    for phase in [&untraced, &traced] {
        out.count(phase);
        check_int8(&inputs, phase, &mut out);
    }

    let latency_ms = traced.mean_latency_ms();
    let queued: Vec<f64> = traced.completed().map(|(_, a)| a.queued_us / 1e3).collect();
    let batcher_ms = crate::load::mean(&queued);
    out.set("serve.batcher_ms", batcher_ms);
    out.set("serve.http_ms", latency_ms - batcher_ms);
    let d = |path: &[&str]| stat(&s1, path) - stat(&s0, path);
    out.set("serve.batch_clips", d(&["batched_clips"]) / d(&["batches"]).max(1.0));
    out.set("trace.coverage", batcher_ms / latency_ms);
    probe(&inputs, &mut out);
    out
}

/// In-process timings of the core and tensor layers on the same clips,
/// with the server gone.
fn probe(inputs: &Inputs, out: &mut Outcome) {
    let r = &inputs.reference;
    let v = &inputs.videos;
    for clip in v.iter().take(8) {
        black_box(r.extract_window_batch(&[clip]));
    }
    let b1 = median_us(PROBE_CALLS, |i| {
        black_box(r.extract_window_batch(&[&v[i % CLIPS]]));
    });
    let b2 = median_us(PROBE_CALLS / 2, |i| {
        black_box(r.extract_window_batch(&[&v[(2 * i) % CLIPS], &v[(2 * i + 1) % CLIPS]]));
    });
    out.set("core.extract_batch_ms.b1", b1 / 1e3);
    out.set("core.extract_batch_ms.b2", b2 / 1e3);

    let scope = metrics::scope();
    let t0 = Instant::now();
    for i in 0..PROBE_CALLS {
        black_box(r.extract_window_batch(&[&v[i % CLIPS]]));
    }
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let snap = scope.snapshot();
    drop(scope);
    report::tensor_rows(out, &snap, PROBE_CALLS as f64);
    out.set("core.outside_ops_share", report::outside_ops_share(&snap, wall_ns));
}
