//! Loopback serving benchmark for the private incremental regression
//! engine.
//!
//! Brings the engine up in-process behind `serve_tcp` on 127.0.0.1 and
//! drives it over real sockets with at most two client threads and two
//! connections. Every end-to-end metric is printed by name with its unit
//! and sample count, every release is checked against a 1-shard replay,
//! and the process exits non-zero on any mismatch or failed operation.
//!
//! ```text
//! sockbench --workload <observe_d8_open|batch_d64_window|durable_churn|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 1` runs the separate traced mode instead: per-layer metrics
//! from depth-1 replays through each layer's entry point, written as
//! spans to `.sockbench/spans-<workload>-<seed>.tsv` (see `trace.rs`).

mod gate;
mod gen;
mod memdisk;
mod net;
mod rig;
mod run;
mod stats;
mod trace;

use gen::Workload;
use stats::{result_json, Metric, Tally, KINDS};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: run this one round and report it to the parent process.
    round: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workloads =
                    match value.as_str() {
                        "all" => Workload::ALL.to_vec(),
                        name => vec![Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name}"))?],
                    }
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            "--round" => {
                args.round = Some(value.parse().map_err(|_| format!("bad round {value}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sockbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the working tree, for the traced run's WAL
    // microbenchmark on the real filesystem.
    let work = PathBuf::from(".sockbench").join(format!("work-{}", std::process::id()));
    let result = match args.round {
        Some(r) => std::fs::create_dir_all(&work)
            .map_err(|e| e.to_string())
            .and_then(|()| run::child(args.workloads[0], args.seed, r, args.seconds, &work))
            .map(|()| true),
        None => bench(&args, &work),
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("sockbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run every requested workload; `Ok(true)` when all were correct and
/// nothing failed.
fn bench(args: &Args, work: &std::path::Path) -> Result<bool, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let prefix = args.workloads.len() > 1;
    let (mut metrics, mut tally, mut faults) = (Vec::<Metric>::new(), Tally::default(), 0u64);
    for &w in &args.workloads {
        println!(
            "# {} seed {} seconds {} (engine {} shards, {} cores)",
            w.name(),
            args.seed,
            args.seconds,
            rig::SHARDS,
            cores
        );
        let o = if args.trace {
            let spans =
                PathBuf::from(".sockbench").join(format!("spans-{}-{}.tsv", w.name(), args.seed));
            let o = trace::trace(w, args.seed, args.seconds, work, &spans)?;
            println!("note spans written to {}", spans.display());
            o
        } else {
            run::run(w, args.seed, args.seconds)?
        };
        for m in &o.metrics {
            println!("metric {:<28} {:>14} {:<9} n={}", m.name, stats::sig(m.value), m.unit, m.n);
        }
        for (k, name) in KINDS.iter().enumerate() {
            println!(
                "ops {:<14} sent {:>8} ok {:>8} failed {}",
                name, o.tally.sent[k], o.tally.ok[k], o.tally.failed[k]
            );
        }
        o.notes.iter().for_each(|n| println!("note {n}"));
        o.faults.iter().for_each(|f| println!("FAILED {f}"));
        tally.add(&o.tally);
        faults += o.faults.len() as u64;
        for mut m in o.metrics {
            if prefix {
                m.name = format!("{}.{}", w.name(), m.name);
            }
            metrics.push(m);
        }
    }
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = faults == 0 && tally.failures() == 0 && finite;
    println!("{}", result_json(correct, tally.attempted(), tally.failures() + faults, &metrics));
    Ok(correct)
}
