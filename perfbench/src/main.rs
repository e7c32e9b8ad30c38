//! `perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]`
//!
//! Runs one workload of the capture → replay pipeline in this process,
//! checks its outputs, prints every metric by name and unit, and ends
//! with one JSON result line. The traced run (`--trace 1`) also writes
//! its spans and per-layer metrics to `out/` beside this crate.

use std::process::ExitCode;

use perfbench::run::{run, Args, DEFAULT_SEED};
use perfbench::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <oltp_sweep|oltp_contended|dss_network> \
[--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => seconds = parse_u64(&value).filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let t0 = perfbench::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&args, t0);
    for l in &out.lines {
        println!("{l}");
    }
    if let Some(json) = &out.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!(
            "{dir}/trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        );
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("spans and per-layer metrics written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
    println!("{}", out.report.to_json());
    if out.report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
