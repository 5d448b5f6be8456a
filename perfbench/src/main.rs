//! The tsdx benchmark: one command runs one named workload against the
//! program, checks every output, and prints its end-to-end metrics (or,
//! with `--trace 1`, its per-layer metrics) as the last line of standard
//! output.
//!
//! ```text
//! tsdx-perfbench --workload extract|stream|search|train --seed N --seconds S --trace 0|1
//! ```
//!
//! See `README.md` beside this package for the workloads, metrics and
//! reference figures.

mod alloc;
mod client;
mod common;
mod extract;
mod inputs;
mod json;
mod load;
mod procfs;
mod report;
mod search;
mod stream;
mod train;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: tsdx-perfbench --workload extract|stream|search|train --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    // The main thread only orchestrates and checks; the program's heap
    // traffic is counted on the threads it runs on.
    alloc::exempt_thread();
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = match args.workload.as_str() {
        "extract" => extract::run(&args),
        "stream" => stream::run(&args),
        "search" => search::run(&args),
        "train" => train::run(&args),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    outcome.print();
    if !outcome.correct() {
        std::process::exit(1);
    }
}
