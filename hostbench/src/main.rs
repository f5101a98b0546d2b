//! `hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's metrics by name and unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exits non-zero when any reply or end-of-run
//! check was wrong.

use starlink_hostbench::alloc::CountingAlloc;
use starlink_hostbench::env;
use starlink_hostbench::run::{run, Metric, Options};
use starlink_hostbench::workload::{Tamper, Workload};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Memory touched and freed before the run; about one round of
/// `flickr-bulk-mem`'s growth.
const PREFAULT_BYTES: usize = 256 << 20;

/// Where the traced run writes its kept span trees.
const SPANS_DIR: &str = ".bench_out";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: hostbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Options, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options {
        workload: Workload::AddPlusTcp,
        seed: 1,
        seconds: 10.0,
        trace: false,
        tamper: Tamper::None,
    };
    let mut workload = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
        return Err(format!(
            "--seconds must be in (0, 600], got {}",
            opts.seconds
        ));
    }
    Ok(opts)
}

fn json_metrics(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    env::prefault(PREFAULT_BYTES);
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {}: {e}", opts.workload.name());
            return ExitCode::from(3);
        }
    };
    println!(
        "# workload={} seed={} seconds={} trace={} clients={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.workload.clients()
    );
    for m in outcome.metrics.iter().chain(&outcome.info) {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        println!("! {p}");
    }
    if let Some(spans) = &outcome.spans {
        let path = format!(
            "{SPANS_DIR}/spans-{}-seed{}.tsv",
            opts.workload.name(),
            opts.seed
        );
        if let Err(e) =
            std::fs::create_dir_all(SPANS_DIR).and_then(|()| std::fs::write(&path, spans))
        {
            eprintln!("hostbench: could not write {path}: {e}");
        } else {
            println!("# spans written to {path}");
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
