//! # mmbench
//!
//! The reproduction's benchmark: three closed-loop workloads, each run in
//! a timed mode (end-to-end metrics) and a traced mode (per-layer metrics
//! from thin wrappers around the crates' public entry points), with output
//! checks that count as failures. See `README.md` in this directory.

pub mod campaign;
pub mod fleet;
pub mod host;
pub mod kernels;
pub mod link;
pub mod report;
pub mod run;
pub mod wrap;

use report::Report;
use run::{Args, Tally, Workload};
use std::time::Instant;

/// Everything one invocation produced.
pub struct Outcome {
    /// Every metric, declared or not.
    pub report: Report,
    /// Operations, failures and informational lines.
    pub tally: Tally,
}

/// Runs one workload in the mode `args` asks for and derives the
/// process-level metrics.
pub fn execute(args: &Args, start: Instant) -> Outcome {
    let mut r = Report::default();
    let mut t = Tally::default();
    let run = match (args.workload, args.trace) {
        (Workload::Link, false) => link::timed,
        (Workload::Link, true) => link::traced,
        (Workload::Fleet, false) => fleet::timed,
        (Workload::Fleet, true) => fleet::traced,
        (Workload::Campaign, false) => campaign::timed,
        (Workload::Campaign, true) => campaign::traced,
    };
    run(args, start, &mut r, &mut t);
    if args.trace {
        run::check_wrappers_transparent(args.seed, &mut t);
    }
    run::fingerprints(&mut t);
    if !args.trace {
        r.put("peak_rss_mb", "MB", peak_rss_mb());
        if t.attempted == 0 {
            r.absent("success_rate", "fraction", "no operation was attempted");
            r.absent("error_rate", "fraction", "no operation was attempted");
        } else {
            let err = t.failed as f64 / t.attempted as f64;
            r.num("success_rate", "fraction", 1.0 - err);
            r.num("error_rate", "fraction", err);
        }
    }
    Outcome {
        report: r,
        tally: t,
    }
}

/// The process's peak resident set (VmHWM), MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
