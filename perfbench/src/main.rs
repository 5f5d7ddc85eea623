//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable notes, then as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Spans of a traced run go to `perfbench/out/`.

use perfbench::{run, workload, RunConfig};
use std::path::Path;
use std::process::ExitCode;

fn parse_args() -> Result<RunConfig, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{name} needs a value"))
    };
    let name = flag("--workload")?;
    let w = workload::by_name(name).ok_or(format!(
        "unknown workload {name:?} (one of: {})",
        workload::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let seed: u64 = flag("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let mut cfg = RunConfig::new(w, seed, seconds, trace);
    if trace {
        let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        cfg.spans_path = Some(out.join(format!("spans-{name}-{seed}.jsonl")));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        Ok(out) => {
            for m in &out.metrics {
                println!(
                    "{:<32} {:>14.4} {:<6} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
            for n in &out.notes {
                println!("{n}");
            }
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
