//! `ledger` — the benchmark's one command.
//!
//! ```text
//! ledger [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat K]
//!        [--out F] [--scratch DIR]
//! ledger --compare A.json B.json
//! ```
//!
//! Without `--workload`, all five workloads run in turn. Every run prints
//! its metrics by name with units and sample counts and then the result
//! line of the benchmark contract (`{"correct":…,"attempted":…,"failed":…,
//! "metrics":{…}}`), so the last line of standard output is the result of
//! the last run. `--repeat K` runs seeds `N … N+K-1`; `--out` collects
//! every run of the invocation, with the environment record, into a file
//! `--compare` reads.

use std::path::PathBuf;
use std::process::ExitCode;

use prov_ledger::compare;
use prov_ledger::report::{self, Declared, Environment, ResultFile};
use prov_ledger::workloads::{Scale, NAMES};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    out: Option<PathBuf>,
    scratch: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(declared: &Declared) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: declared.run_seconds as f64,
        trace: false,
        repeat: 1,
        out: None,
        // Inside the working directory: the benchmark reads and writes
        // nowhere else.
        scratch: PathBuf::from(".ledger/scratch"),
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: {v:?} is not a number"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed =
                    value()?.parse().map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0.0,
            "--repeat" => args.repeat = number(value()?)?.max(1.0) as u64,
            "--out" => args.out = Some(value()?.into()),
            "--scratch" => args.scratch = value()?.into(),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &args.workload {
        if !NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w:?} (one of {NAMES:?})"));
        }
    }
    Ok(args)
}

fn read_results(path: &PathBuf) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the invocation; `Ok(false)` means `--compare` found a regression.
fn run(args: &Args, declared: &Declared) -> Result<bool, String> {
    if let Some((a, b)) = &args.compare {
        let rows = compare::compare(declared, &read_results(a)?, &read_results(b)?)?;
        return Ok(!compare::print(&rows));
    }
    let env = Environment::capture();
    println!(
        "ledger: commit {}, nproc {}, {} — {}",
        env.git_commit, env.nproc, env.rustc, env.note
    );
    let scale = Scale::paper();
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    let mut file = ResultFile { env, runs: Vec::new() };
    for seed in args.seed..args.seed + args.repeat {
        for workload in &workloads {
            let trace_out = PathBuf::from(format!(".ledger/trace-{workload}.json"));
            let record = prov_ledger::run_one(
                workload,
                seed,
                args.seconds,
                args.trace,
                &scale,
                &args.scratch,
                Some(&trace_out),
            )?;
            report::print_run(&record);
            if args.trace {
                println!("  chrome trace: {}", trace_out.display());
            }
            println!("{}", report::result_line(&record));
            file.runs.push(record);
        }
    }
    if let Some(path) = &args.out {
        let json = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(true)
}

fn main() -> ExitCode {
    let outcome = Declared::load().and_then(|declared| run(&parse_args(&declared)?, &declared));
    match outcome {
        // A wrong or failed output is reported in the result line
        // (`correct`, `failed`); only a run that could not measure exits
        // non-zero — and `--compare` when something regressed.
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
