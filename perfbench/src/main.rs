//! `perfbench --workload W --seed N --seconds T [--traced --untraced-wall-s S
//! --expect-digest D] [--smoke] [--out-dir DIR] [--report PATH]`
//!
//! Runs one workload for `T` seconds, prints every metric by name with
//! its unit, median and quartiles, writes the full record to `--report`,
//! and prints the result object as the last line. `run.py` builds this
//! binary (untraced and traced) and is the benchmark's entry point.

use perfbench::run::{run_traced, run_untraced, Options};
use perfbench::workload::{Budget, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(Options, bool, Option<PathBuf>), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced, mut smoke) = (None, None, false, false);
    let (mut out_dir, mut report) = (PathBuf::from(".bench_out"), None);
    let (mut untraced_wall_s, mut expect_digest) = (None, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::by_name(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(val()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--out-dir" => out_dir = PathBuf::from(val()?),
            "--report" => report = Some(PathBuf::from(val()?)),
            "--untraced-wall-s" => {
                untraced_wall_s = Some(val()?.parse::<f64>().map_err(|e| e.to_string())?)
            }
            "--expect-digest" => expect_digest = Some(val()?),
            "--traced" => traced = true,
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let budget = if smoke { Budget::smoke() } else { Budget::standard(workload) };
    let opts = Options {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        budget,
        out_dir,
        untraced_wall_s,
        expect_digest,
    };
    if traced && opts.untraced_wall_s.is_none() {
        return Err("--traced needs --untraced-wall-s".into());
    }
    Ok((opts, traced, report))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, traced, report_path) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if traced != cfg!(feature = "traced") {
        eprintln!("perfbench: --traced runs need the binary built with the `traced` feature, untraced runs the one without");
        return ExitCode::from(2);
    }
    let report = if traced { run_traced(&opts) } else { run_untraced(&opts) };
    print!("{}", report.human());
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, report.report_json(opts.budget)) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{}", report.result_json());
    ExitCode::SUCCESS
}
