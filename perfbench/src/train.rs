//! `train`: optimizer steps at the default batch through the public
//! `train` entry point on simulator clips. Autograd backward, the
//! optimizer, collation and the workspace arena under tape release do the
//! work; no other workload runs them.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tsdx_core::{
    multitask_loss, train, ClipModel, ModelConfig, TrainConfig, VideoScenarioTransformer,
};
use tsdx_data::{collate, Clip};
use tsdx_nn::{clip_global_norm, AdamW, LrSchedule, Optimizer};
use tsdx_tensor::{metrics, Graph};

use crate::client::Failure;
use crate::common::{self, repeat_setup, Tracing, MODEL_SEED};
use crate::extract::wrong;
use crate::load::{self, closed_loop, timed, Op, Pace, Stop};
use crate::report::{self, Latency, Outcome};
use crate::{inputs, Args};

/// Clips in the training set: eight default batches.
pub const TRAIN_CLIPS: usize = 128;
/// Set-ups per untraced run; `setup_s` is the median of the half with the least
/// steal. A set-up takes about 0.6 s.
const SETUPS: usize = 7;
/// Milliseconds per slice of the timed phase. A slice holds four or five
/// steps, too few for percentiles of its own, so latency is taken over
/// the steps of all quiet slices together.
const SLICE_MS: u64 = 250;
/// Tail percentile of the pooled steps of the quiet slices. The quiet
/// slices of runs on the reference host held 44-173 steps together in
/// steal storms and all of a run's steps, about 1000, in calm minutes; p80
/// keeps ten beyond it from 50 steps.
const LATENCY: Latency = Latency::Pooled { tail_pct: 80.0 };
/// Learning rate. Each `train` call is one step from a fresh optimizer, so
/// the default warm-up schedule would pin every step at its first value.
const LR: f32 = 1e-3;

fn config() -> TrainConfig {
    TrainConfig { epochs: 1, schedule: LrSchedule::Constant(LR), ..TrainConfig::default() }
}

fn batches() -> usize {
    TRAIN_CLIPS / config().batch_size
}

struct Env {
    clips: Vec<Clip>,
    model: VideoScenarioTransformer,
    /// Every step's training loss, in order.
    losses: Vec<f32>,
}

/// One pass over the training set: one `train` call per batch, each a
/// single optimizer step on that batch.
fn round(env: &mut Env, ops: &mut Vec<Op<()>>) {
    let cfg = config();
    for b in 0..batches() {
        let idx: Vec<usize> = (b * cfg.batch_size..(b + 1) * cfg.batch_size).collect();
        let Env { clips, model, losses } = env;
        timed(
            ops,
            || Ok::<_, Failure>(train(model, clips, &idx, &cfg)),
            |r| {
                let loss = r.final_loss();
                if r.steps != 1 || r.skipped_steps != 0 || !loss.is_finite() {
                    return Err(wrong(format!("batch {b}: loss {loss}, {} steps", r.steps)));
                }
                losses.push(loss);
                Ok(())
            },
        );
    }
}

/// Dataset generation, model build and one warm-up pass.
fn setup(seed: u64, out: &mut Outcome) -> Env {
    let mut env = Env {
        clips: inputs::clips(seed, TRAIN_CLIPS),
        model: VideoScenarioTransformer::new(ModelConfig::default(), MODEL_SEED),
        losses: Vec::new(),
    };
    let warm =
        closed_loop(std::slice::from_mut(&mut env), Stop::Rounds(1), Pace::Free, true, round);
    out.require_clean("train warm-up", &warm);
    env
}

/// The loss must fall: the last pass over the training set must end at
/// least 1% below the first. Weight decay alone (an optimizer that stopped
/// following the gradient) moves it by about 0.001%.
fn check_losses(env: &Env, out: &mut Outcome) {
    let n = batches();
    let first = load::mean(&env.losses[..n].iter().map(|&l| f64::from(l)).collect::<Vec<_>>());
    let tail = &env.losses[env.losses.len() - n..];
    let last = load::mean(&tail.iter().map(|&l| f64::from(l)).collect::<Vec<_>>());
    out.note(format!("training loss {first:.4} over the first pass, {last:.4} over the last"));
    if env.losses.len() < 2 * n || last >= 0.99 * first {
        out.wrong(format!(
            "training loss did not fall: {first} -> {last} over {} steps",
            env.losses.len()
        ));
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new(args.trace);
    let load = |env: &mut Env, stop: Stop| {
        closed_loop(std::slice::from_mut(env), stop, Pace::Free, true, round)
    };
    if !args.trace {
        let (setup, mut env) = repeat_setup(SETUPS, || (), |()| setup(args.seed, &mut out));
        let phase = load(&mut env, common::sliced(args.seconds, SLICE_MS));
        out.count(&phase);
        check_losses(&env, &mut out);
        out.end_to_end(&setup, &phase, LATENCY);
        return out;
    }

    let (_, mut env) = repeat_setup(1, || (), |()| setup(args.seed, &mut out));
    let untraced = load(&mut env, common::half(args.seconds));
    let tracing = Tracing::start();
    let traced = load(&mut env, common::half(args.seconds));
    tracing.finish(&mut out, &untraced, &traced);
    for phase in [&untraced, &traced] {
        out.count(phase);
    }
    check_losses(&env, &mut out);
    probe(&mut env, traced.mean_latency_ms(), &mut out);
    out
}

/// One pass of the training step rebuilt from the public pieces `train`
/// calls, each timed: collation, forward and loss, backward, and the
/// gradient clip plus optimizer step.
fn probe(env: &mut Env, step_ms: f64, out: &mut Outcome) {
    let cfg = config();
    let mut opt = AdamW::new(cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let (mut collate_ms, mut forward_ms, mut backward_ms, mut optim_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let scope = metrics::scope();
    for b in 0..batches() {
        let refs: Vec<&Clip> =
            env.clips[b * cfg.batch_size..(b + 1) * cfg.batch_size].iter().collect();
        let t = Instant::now();
        let batch = collate(&refs);
        collate_ms.push(ms(t));

        let t = Instant::now();
        let mut g = Graph::new();
        let binding = env.model.params().bind(&mut g);
        let logits = env.model.forward(&mut g, &binding, &batch.videos, &mut rng, true);
        let loss = multitask_loss(&mut g, &logits, &batch, &cfg.loss_weights);
        let loss_value = g.value(loss).item();
        forward_ms.push(ms(t));

        let t = Instant::now();
        let grads = g.backward(loss);
        backward_ms.push(ms(t));

        let t = Instant::now();
        let mut collected = env.model.params().collect_grads(&binding, &grads);
        clip_global_norm(&mut collected, cfg.clip_norm);
        opt.step(env.model.params_mut(), &collected, LR);
        optim_ms.push(ms(t));
        if !loss_value.is_finite() {
            out.wrong(format!("probe step {b}: loss {loss_value}"));
        }
    }
    let snap = scope.snapshot();
    drop(scope);
    let steps = batches() as f64;
    report::tensor_rows(out, &snap, steps);
    let parts = [
        ("data.collate_ms", load::median(&collate_ms)),
        ("core.train_forward_ms", load::median(&forward_ms)),
        ("tensor.backward_ms", load::median(&backward_ms)),
        ("nn.optim_ms", load::median(&optim_ms)),
    ];
    for (name, v) in parts {
        out.set(name, v);
    }
    out.set("trace.coverage", parts.iter().map(|p| p.1).sum::<f64>() / step_ms);
}
