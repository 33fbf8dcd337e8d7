//! `mmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs
//! one workload and prints its metrics; the last line is the result JSON.
//! `mmbench compare <a> <b>` compares two saved outputs.

use mmbench::host::{compare, Meta};
use mmbench::report::{declared, result_line, Value};
use mmbench::run::{Args, Workload};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: mmbench --workload <link-mmreliable|fleet-reactive|campaign-mixed> \
--seed <n> --seconds <s> --trace <0|1>\n       mmbench compare <saved-output-a> <saved-output-b>";

fn parse(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let read = |i: usize| {
            argv.get(i)
                .ok_or_else(|| USAGE.to_string())
                .and_then(|p| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}")))
        };
        return match read(1).and_then(|a| read(2).and_then(|b| compare(&a, &b))) {
            Ok(text) => {
                println!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let meta = Meta::collect(args.workload.name(), args.seed, args.seconds, args.trace);
    let mut out = mmbench::execute(&args, start);
    for &(name, unit) in declared(args.trace) {
        if out.report.get(name).is_none() {
            out.report.absent(
                name,
                unit,
                "not measured: an operation it depends on failed",
            );
        }
    }
    for line in meta.lines() {
        println!("{line}");
    }
    for line in &out.tally.info {
        println!("info {line}");
    }
    for line in &out.tally.failures {
        println!("FAILED {line}");
    }
    for line in out.report.lines() {
        println!("metric {line}");
    }
    let selected = out
        .report
        .select(declared(args.trace))
        .expect("every declared metric is recorded");
    let t = &out.tally;
    let complete = selected.iter().all(|m| matches!(m.value, Value::Num(_)));
    println!(
        "{}",
        result_line(t.failed == 0 && complete, t.attempted, t.failed, &selected)
    );
    ExitCode::SUCCESS
}
