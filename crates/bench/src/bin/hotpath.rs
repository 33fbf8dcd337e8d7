//! Hot-path throughput benchmark: slots simulated per wall-clock second.
//!
//! Replays the `static_walker` scenario (the paper's Fig. 16 workload)
//! under the single-beam reactive baseline and the full mmReliable stack,
//! each through the scenario's front-end stack (`Scenario::front_end`) as
//! every runner plays it, and reports the absolute slots per second of each, best of the
//! repetitions. Writes the numbers to `results/BENCH_hotpath.json`. The
//! numbers describe this code on this host; compare them only with runs
//! on the same machine (`mmbench compare` enforces that for the
//! repository benchmark).
//!
//! Usage:
//!
//! ```text
//! hotpath            # full run: best of 5 repetitions per strategy
//! hotpath --test     # CI smoke mode: 1 repetition, same JSON artifact
//! ```
//!
//! Build with `--features telemetry` to include the per-run counters
//! (snapshot rebuild/reuse, SNR evaluations). Without it they print as
//! `n/a (telemetry off)` and the JSON omits them.

use mmreliable::config::MmReliableConfig;
use mmreliable::controller::MmReliableController;
use mmwave_baselines::single_reactive::ReactiveConfig;
use mmwave_baselines::strategy::{BeamStrategy, MmReliableStrategy};
use mmwave_baselines::SingleBeamReactive;
use mmwave_sim::{run_front_end, scenario, RunCounters};
use std::time::Instant;

const STRATEGIES: [&str; 2] = ["single-beam reactive", "mmReliable"];

struct Measurement {
    name: &'static str,
    slots: usize,
    best_slots_per_sec: f64,
    counters: RunCounters,
}

fn make_strategy(name: &str) -> Box<dyn BeamStrategy> {
    match name {
        "single-beam reactive" => Box::new(SingleBeamReactive::new(ReactiveConfig::default())),
        "mmReliable" => Box::new(MmReliableStrategy::new(MmReliableController::new(
            MmReliableConfig::paper_default(),
        ))),
        other => panic!("unknown strategy {other}"),
    }
}

fn measure(name: &'static str, reps: usize) -> Measurement {
    let mut best = 0.0f64;
    let mut slots = 0;
    let mut counters = RunCounters::default();
    for _ in 0..reps {
        let sc = scenario::static_walker();
        let mut fe = sc.front_end(42).expect("library scenario builds");
        let mut s = make_strategy(name);
        let t0 = Instant::now();
        let r = run_front_end(
            &mut fe,
            s.as_mut(),
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        );
        let dt = t0.elapsed().as_secs_f64();
        slots = r.samples.len();
        counters = r.counters;
        best = best.max(slots as f64 / dt);
    }
    Measurement {
        name,
        slots,
        best_slots_per_sec: best,
        counters,
    }
}

/// The counters as one human-readable line.
fn counters_line(c: &RunCounters) -> String {
    if !RunCounters::ENABLED {
        return "n/a (telemetry off)".to_string();
    }
    format!(
        "{} data slots, {} ticks, {} snapshot rebuilds, {} reuses, {} SNR evals",
        c.data_slots, c.ticks, c.snapshot_rebuilds, c.snapshot_reuses, c.snr_evals
    )
}

fn json_entry(m: &Measurement) -> String {
    let counters = if RunCounters::ENABLED {
        format!(
            r#",
      "counters": {{
        "data_slots": {},
        "ticks": {},
        "snapshot_rebuilds": {},
        "snapshot_reuses": {},
        "snr_evals": {}
      }}"#,
            m.counters.data_slots,
            m.counters.ticks,
            m.counters.snapshot_rebuilds,
            m.counters.snapshot_reuses,
            m.counters.snr_evals
        )
    } else {
        String::new()
    };
    format!(
        r#"    {{
      "strategy": "{}",
      "slots": {},
      "slots_per_sec": {:.0}{}
    }}"#,
        m.name, m.slots, m.best_slots_per_sec, counters
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let reps = if smoke { 1 } else { 5 };
    let mode = if smoke { "smoke" } else { "full" };

    let mut entries = Vec::new();
    for name in STRATEGIES {
        let m = measure(name, reps);
        println!(
            "{}: {} slots, {:.0} slots/sec; counters: {}",
            m.name,
            m.slots,
            m.best_slots_per_sec,
            counters_line(&m.counters)
        );
        entries.push(json_entry(&m));
    }

    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"scenario\": \"static_walker\",\n  \"mode\": \"{}\",\n  \"profile\": \"{}\",\n  \"notes\": \"absolute best-of-N slots/s on the recording host; reactive is data-plane (per-slot) bound, mmReliable is tick-compute (probing, training and super-resolution fits) bound\",\n  \"results\": [\n{}\n  ]\n}}\n",
        mode,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        entries.join(",\n")
    );
    mmwave_bench::figures::write_csv("BENCH_hotpath.json", &json).expect("write artifact");
}
