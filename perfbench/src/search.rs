//! `search`: SDL-text `/search` queries over two keep-alive connections
//! against a corpus of a million scenarios. The exact scan and its shard
//! fan-out on the pool do the work; the model does none.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use tsdx_core::{ModelConfig, ScenarioExtractor};
use tsdx_index::{IndexConfig, VectorIndex};
use tsdx_sdl::{embed, parse_scenario, Scenario, EMBED_DIM};
use tsdx_serve::{SearchService, Server, ServerConfig};
use tsdx_tensor::metrics;

use crate::client::{Conn, Failure};
use crate::common::{self, repeat_setup, Tracing, CLIENTS, MODEL_SEED};
use crate::extract::wrong;
use crate::load::{self, closed_loop, timed, Op, Pace, Phase, Stop};
use crate::report::{Latency, Outcome};
use crate::{inputs, json::Json, Args};

/// Scenarios in the corpus.
pub const CORPUS: usize = 1_000_000;
/// Distinct query texts, reused cyclically.
pub const QUERIES: usize = 64;
/// Hits per query.
pub const K: usize = 10;
/// Queries whose answers are checked against a full f64 reference scan.
const REFERENCE_QUERIES: usize = 16;
/// Warm-up queries per connection during set-up.
const WARMUP_ROUNDS: usize = 4;
/// Set-ups per untraced run; `setup_s` is the median of the half with the
/// least steal. Each one also clones the corpus for the program (untimed),
/// about 0.7 s in all.
const SETUPS: usize = 7;
/// Milliseconds per slice of the timed phase.
const SLICE_MS: u64 = 1000;
/// Tail percentile of each slice: the highest with ten samples beyond it
/// at the median count of the quiet slices in the slowest runs measured on
/// the reference host, 58-61 queries per 1-s slice (10.4-11.0 beyond p82);
/// the fastest held 147-194.
const LATENCY: Latency = Latency::PerSlice { tail_pct: 82.0 };
/// Probe iterations of the traced run.
const PROBES: usize = 24;

struct Inputs {
    corpus: Vec<Scenario>,
    /// Row-major embeddings of the corpus, as the index stores them.
    emb: Vec<f32>,
    queries: Vec<Scenario>,
    texts: Vec<String>,
    bodies: Vec<Vec<u8>>,
}

struct Client {
    conn: Conn,
    next: usize,
}

// Field order is drop order: connections close before the server drains.
struct Env {
    clients: Vec<Client>,
    _server: Server,
    service: Arc<SearchService>,
}

struct Answer {
    query: usize,
    hits: Vec<(u64, f32)>,
}

fn prepare(seed: u64) -> Inputs {
    let mut rng = inputs::Rng::new(seed);
    let corpus: Vec<Scenario> = (0..CORPUS).map(|_| inputs::scenario(&mut rng)).collect();
    let mut emb = Vec::with_capacity(CORPUS * EMBED_DIM);
    for s in &corpus {
        emb.extend_from_slice(&embed(s));
    }
    let queries: Vec<Scenario> = (0..QUERIES).map(|_| inputs::scenario(&mut rng)).collect();
    let texts: Vec<String> = queries.iter().map(Scenario::to_string).collect();
    let bodies =
        texts.iter().map(|t| format!("{{\"sdl\":\"{t}\",\"k\":{K}}}").into_bytes()).collect();
    Inputs { corpus, emb, queries, texts, bodies }
}

/// Per-answer checks: `k` distinct hits, best first, each carrying the
/// stored scenario's SDL.
fn check(inputs: &Inputs, query: usize, j: Json) -> Result<Answer, Failure> {
    let bad = |what: String| wrong(format!("query {query}: {what}"));
    let hits = j.arr("hits").ok_or_else(|| bad("no hits".into()))?;
    if hits.len() != K || j.num("indexed") != Some(CORPUS as f64) {
        return Err(bad(format!("{} hits over {:?} rows", hits.len(), j.num("indexed"))));
    }
    let mut out: Vec<(u64, f32)> = Vec::with_capacity(K);
    for h in hits {
        let (Some(id), Some(sim), Some(sdl)) = (h.num("id"), h.num("similarity"), h.str("sdl"))
        else {
            return Err(bad("malformed hit".into()));
        };
        let (id, sim) = (id as u64, sim as f32);
        let Some(stored) = inputs.corpus.get(id as usize) else {
            return Err(bad(format!("hit id {id} outside the corpus")));
        };
        if stored.to_string() != sdl {
            return Err(bad(format!("hit {id} SDL `{sdl}` is not the stored `{stored}`")));
        }
        if out.iter().any(|&(seen, s)| seen == id || s < sim) {
            return Err(bad("hits repeat or are not best-first".into()));
        }
        out.push((id, sim));
    }
    Ok(Answer { query, hits: out })
}

fn round(inputs: &Inputs, c: &mut Client, ops: &mut Vec<Op<Answer>>) {
    let q = c.next;
    c.next = (c.next + CLIENTS) % QUERIES;
    let headers = [("content-type", "application/json")];
    timed(
        ops,
        || c.conn.call("POST", "/search", &headers, &inputs.bodies[q]),
        |j| check(inputs, q, j),
    );
}

/// Corpus embedding and index build, model build, server start,
/// connections and warm-up queries.
fn setup(inputs: &Inputs, corpus: Vec<Scenario>, out: &mut Outcome) -> Env {
    let service = Arc::new(SearchService::build(corpus));
    let extractor = ScenarioExtractor::untrained(ModelConfig::default(), MODEL_SEED);
    let server =
        Server::start_with_search(extractor, Some(Arc::clone(&service)), ServerConfig::default())
            .expect("bind server");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|t| Client { conn: Conn::open(server.local_addr()).expect("connect"), next: t })
        .collect();
    let warm =
        closed_loop(&mut clients, Stop::Rounds(WARMUP_ROUNDS), Pace::Free, false, |c, ops| {
            round(inputs, c, ops)
        });
    out.require_clean("search warm-up", &warm);
    Env { clients, _server: server, service }
}

/// Every answer to one query must be the same, and the first answers to
/// `REFERENCE_QUERIES` queries must agree with an f64 reference scan,
/// tie-aware.
fn check_answers(inputs: &Inputs, phase: &Phase<Answer>, out: &mut Outcome) {
    let mut first: Vec<Option<&[(u64, f32)]>> = vec![None; QUERIES];
    for (_, a) in phase.completed() {
        match first[a.query] {
            None => first[a.query] = Some(&a.hits),
            Some(f) if f == a.hits.as_slice() => {}
            Some(_) => out.wrong(format!("query {} answered differently across requests", a.query)),
        }
    }
    for (q, hits) in
        first.iter().enumerate().filter_map(|(q, h)| Some((q, (*h)?))).take(REFERENCE_QUERIES)
    {
        reference_check(inputs, q, hits, out);
    }
}

/// The benchmark's own exact scan: f64 dot products over the corpus
/// embeddings, fully sorted. A returned hit is right when its reference
/// score reaches the k-th best reference score. The allowance is the
/// f32 rounding bound of a dim-length dot product of unit vectors, once
/// for the hit and once for the reference entry it displaced
/// (gamma_n = n*u / (1 - n*u), u = 2^-24).
fn reference_check(inputs: &Inputs, q: usize, hits: &[(u64, f32)], out: &mut Outcome) {
    let qe: Vec<f64> = embed(&inputs.queries[q]).into_iter().map(f64::from).collect();
    let score = |id: usize| -> f64 {
        let row = &inputs.emb[id * EMBED_DIM..(id + 1) * EMBED_DIM];
        row.iter().zip(&qe).map(|(&x, &y)| f64::from(x) * y).sum()
    };
    let mut all: Vec<f64> = (0..CORPUS).map(score).collect();
    all.sort_by(|a, b| b.total_cmp(a));
    let kth = all[K - 1];
    let nu = EMBED_DIM as f64 * f64::powi(2.0, -24);
    let gamma = nu / (1.0 - nu);
    for &(id, sim) in hits {
        let exact = score(id as usize);
        if exact < kth - 2.0 * gamma {
            out.wrong(format!("query {q}: hit {id} scores {exact}, below the k-th best {kth}"));
        }
        if (f64::from(sim) - exact).abs() > gamma {
            out.wrong(format!("query {q}: hit {id} similarity {sim}, exact {exact}"));
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let inputs = prepare(args.seed);
    for (q, text) in inputs.texts.iter().enumerate() {
        if parse_scenario(text).as_ref() != Ok(&inputs.queries[q]) {
            out.wrong(format!("query text `{text}` does not parse back to its scenario"));
        }
    }
    let load = |env: &mut Env, stop: Stop| {
        closed_loop(&mut env.clients, stop, Pace::Free, false, |c, ops| round(&inputs, c, ops))
    };
    let corpus = || inputs.corpus.clone();
    if !args.trace {
        let (setup, mut env) = repeat_setup(SETUPS, corpus, |c| setup(&inputs, c, &mut out));
        let phase = load(&mut env, common::sliced(args.seconds, SLICE_MS));
        drop(env);
        out.count(&phase);
        check_answers(&inputs, &phase, &mut out);
        out.end_to_end(&setup, &phase, LATENCY);
        return out;
    }

    let (_, mut env) = repeat_setup(1, corpus, |c| setup(&inputs, c, &mut out));
    let untraced = load(&mut env, common::half(args.seconds));
    let tracing = Tracing::start();
    let traced = load(&mut env, common::half(args.seconds));
    tracing.finish(&mut out, &untraced, &traced);
    let service = Arc::clone(&env.service);
    drop(env);
    for phase in [&untraced, &traced] {
        out.count(phase);
        check_answers(&inputs, phase, &mut out);
    }
    probe(&inputs, &service, traced.mean_latency_ms(), &mut out);
    out
}

/// In-process timings of the query path's layers: SDL parse and embed,
/// the index scan, and rendering the hits' SDL. The pool rows come from
/// scans run one at a time.
fn probe(inputs: &Inputs, service: &SearchService, latency_ms: f64, out: &mut Outcome) {
    let mut index = VectorIndex::new(IndexConfig::default());
    for row in inputs.emb.chunks_exact(EMBED_DIM) {
        index.push(row).expect("EMBED_DIM rows");
    }
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let (mut query, mut scan, mut render) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wait_ns, mut exec_ns) = (0.0, 0.0);
    for i in 0..PROBES {
        let text = &inputs.texts[i % QUERIES];
        let t = Instant::now();
        let parsed = parse_scenario(text).expect("query texts parse");
        let q = embed(&parsed);
        query.push(us(t));

        let scope = metrics::scope();
        let t = Instant::now();
        let hits = index.query(&q, K).expect("EMBED_DIM query");
        scan.push(us(t));
        let snap = scope.snapshot();
        drop(scope);
        for (k, h) in &snap.hists {
            if k.starts_with("pool/queue_wait/") {
                wait_ns += h.sum_ns as f64;
            } else if k.starts_with("pool/exec/") {
                exec_ns += h.sum_ns as f64;
            }
        }

        // What the service adds to the scan: each hit's canonical SDL.
        let t = Instant::now();
        let texts: Vec<String> =
            hits.iter().map(|h| inputs.corpus[h.0 as usize].to_string()).collect();
        render.push(us(t));
        let answered = service.query(&parsed, K).expect("EMBED_DIM query");
        assert!(
            answered.iter().map(|h| (h.id, &h.sdl)).eq(hits.iter().map(|h| h.0).zip(&texts)),
            "the service and the bare index disagree"
        );
    }
    // Under load the two clients' scans run at once and share the cores,
    // so the scan is timed the same way: one caller per client, started
    // together. The remainder left for `serve.http_ms` then excludes that
    // contention.
    let start = Barrier::new(CLIENTS);
    let loaded: Vec<f64> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (index, start) = (&index, &start);
                s.spawn(move || {
                    start.wait();
                    (0..PROBES)
                        .map(|i| {
                            let q = embed(&inputs.queries[(i * CLIENTS + t) % QUERIES]);
                            let t0 = Instant::now();
                            index.query(&q, K).expect("EMBED_DIM query");
                            us(t0)
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        callers.into_iter().flat_map(|h| h.join().expect("scan caller panicked")).collect()
    });
    let (query_us, scan_ms, render_us) =
        (load::median(&query), load::median(&loaded) / 1e3, load::median(&render));
    out.note(format!(
        "index.scan_ms with {CLIENTS} concurrent callers; {:.3} ms with one",
        load::median(&scan) / 1e3
    ));
    out.set("sdl.query_us", query_us);
    out.set("index.scan_ms", scan_ms);
    out.set("sdl.render_hits_us", render_us);
    out.set("tensor.pool.queue_wait_us", wait_ns / 1e3 / PROBES as f64);
    out.set("tensor.pool.exec_us", exec_ns / 1e3 / PROBES as f64);
    let layers_ms = query_us / 1e3 + scan_ms + render_us / 1e3;
    out.set("serve.http_ms", latency_ms - layers_ms);
    out.set("trace.coverage", layers_ms / latency_ms);
}
