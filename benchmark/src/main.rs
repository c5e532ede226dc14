//! `xrpc-benchmark`: end-to-end and per-layer benchmark of the XRPC
//! reproduction. See README.md for what each workload and metric means.
//!
//! ```text
//! xrpc-benchmark --workload <name> [--seed <n>] [--seconds <s> | --quick] [--trace <0|1>]
//! xrpc-benchmark calibrate [--workload <name>] [--runs N] [--seconds S]
//! xrpc-benchmark trace-summary [--workload <name>] [--runs N] [--seconds S]
//! ```

mod alloc;
mod calibrate;
mod cluster;
mod host;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// `benchmark/out/`: span dumps, calibration tables and the update
/// workload's WAL all stay inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        runs: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.seconds = 1.5;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                out.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?)
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value == "1",
            "--runs" => out.runs = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(out)
}

/// One contract run: human-readable lines, then the result as the last line.
fn run_once(args: &Args) -> Result<(), String> {
    let w = args.workload.ok_or("--workload is required")?;
    let out = out_dir();
    let processors = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "host has {processors} processors; update_2pc runs {} clients",
        workloads::update_clients()
    );
    match host::pin_to_one_processor() {
        Some(cpu) => println!("pinned to processor {cpu}"),
        None => println!("could not pin to one processor: timings will be noisier"),
    }
    let result = if args.trace {
        let tracer = trace::Tracer::new();
        // half the time measures live spans, the other half replays layers
        let span = Duration::from_secs_f64(args.seconds / 2.0 / run::ROUNDS as f64);
        let (data, last) = run::run(w, args.seed, span, Some(&tracer), &out, true);
        let mut cluster = last.expect("last round kept for replay");
        let budget = Duration::from_secs_f64(args.seconds / 2.0);
        let sampled: Vec<&'static str> = cluster.replay.queries.iter().map(|q| q.0).collect();
        let mut yard = host::Yardstick::new();
        let replayed = replay::replay(w, &mut cluster, budget, &mut yard, &out);
        drop(cluster);
        std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
        let dump = out.join(format!("{}.trace.jsonl", w.name()));
        std::fs::write(&dump, trace::to_jsonl(&data.spans)).map_err(|e| e.to_string())?;
        println!("spans: {} written to {}", data.spans.len(), dump.display());
        metrics::per_layer(w, &data, &sampled, &replayed)
    } else {
        let span = Duration::from_secs_f64(args.seconds / run::ROUNDS as f64);
        let (data, _) = run::run(w, args.seed, span, None, &out, false);
        metrics::end_to_end(w, &data)
    };
    println!("{}", result.to_json());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("calibrate") => ("calibrate", &argv[1..]),
        Some("trace-summary") => ("trace-summary", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let outcome = parse_args(rest).and_then(|mut args| match command {
        "calibrate" => {
            if args.runs == 0 {
                args.runs = 5;
            }
            calibrate::calibrate(&args)
        }
        "trace-summary" => calibrate::trace_summary(&args),
        _ => run_once(&args),
    });
    if let Err(e) = outcome {
        eprintln!("xrpc-benchmark: {e}");
        std::process::exit(2);
    }
}
