//! `link-mmreliable`: mmReliable (`paper_default`) on seeded
//! mobile-blockage runs (the Fig. 18b/c protocol), back to back on one
//! thread — the control-plane workload, where ticks dominate the wall.

use crate::kernels;
use crate::report::{mean, Report};
use crate::run::{
    data_slots, derive, paired_single, passes, record_slots_per_s, record_workers, simulator,
    single_run, tick_steps, time_setups, window, Args, Paired, Tally, UnitRun, Wrap, WARMUP_SEED,
};
use crate::wrap::{shared_log, take};
use mmwave_phy::mcs::McsTable;
use mmwave_sim::campaign::build_strategy;
use mmwave_sim::{scenario, try_run_many};
use std::time::Instant;

const SCENARIO: &str = "mobile-blockage";
const STRATEGY: &str = "mmreliable";
/// Distinct run seeds per benchmark run; the timed window runs them in
/// passes, and the quality metrics average over them. A run's cost
/// depends on its seed (about a third of runs keep three beams, which
/// costs ~1.4x two), so the pool is as large as a window allows.
const POOL: usize = 32;
/// Passes at least; the window repeats whole passes while time is left.
const MIN_PASSES: usize = 1;
/// Runs per pass of the worker-scaling probe.
const SCALING_RUNS: usize = 4;

/// The run seeds of one benchmark run.
pub fn pool(seed: u64) -> Vec<u64> {
    (0..POOL as u64).map(|i| derive(seed, 1, i)).collect()
}

/// The timed run.
pub fn timed(args: &Args, start: Instant, r: &mut Report, t: &mut Tally) {
    let pool = time_setups(start, r, || {
        // The warm-up unit: one wrapped run, not measured.
        let warm = Wrap::Timed(false, shared_log());
        let _ = single_run(SCENARIO, STRATEGY, WARMUP_SEED, &warm, None);
        pool(args.seed)
    });
    let mcs = McsTable::nr_table();
    let mut first = [0u64; POOL];
    let (mut rel, mut tput) = (Vec::new(), Vec::new());
    let runs = passes(args.seconds, POOL, MIN_PASSES, |pass, i| {
        let seed = pool[i];
        let sink = shared_log();
        let t0 = Instant::now();
        let res = single_run(
            SCENARIO,
            STRATEGY,
            seed,
            &Wrap::Timed(false, sink.clone()),
            None,
        );
        let wall_s = t0.elapsed().as_secs_f64();
        let what = format!("run {SCENARIO}/{STRATEGY}/{seed}");
        let run = match res {
            Ok(run) => run,
            Err(e) => {
                t.op(&what, Err(e));
                return None;
            }
        };
        t.op(&what, Ok(()));
        if pass == 0 {
            first[i] = run.digest();
            rel.push(run.reliability());
            tput.push(run.mean_throughput_bps(&mcs) * 1e-6);
            t.info(format!("digest {what}: {:016x}", first[i]));
        } else {
            t.same_digest(format!("{what} repeats"), first[i], run.digest());
        }
        Some(UnitRun {
            wall_s,
            slots: data_slots(&run),
            keep: take(&sink).tick_ns,
        })
    });
    match single_run(SCENARIO, STRATEGY, pool[0], &Wrap::Plain, None) {
        Ok(run) => {
            t.same_digest("unwrapped run equals timed run", first[0], run.digest());
        }
        Err(e) => {
            t.op("unwrapped run", Err(e));
        }
    }
    record_slots_per_s(&runs, r);
    tick_steps(runs.iter().flat_map(|u| &u.keep), r);
    r.put("reliability", "fraction", mean(&rel));
    r.put("throughput_mbps", "Mbps", mean(&tput));
}

/// The traced run.
pub fn traced(args: &Args, start: Instant, r: &mut Report, t: &mut Tally) {
    let sink = shared_log();
    let traced = Wrap::Timed(true, sink.clone());
    let pool = time_setups(start, r, || {
        let _ = single_run(SCENARIO, STRATEGY, WARMUP_SEED, &traced, None);
        pool(args.seed)
    });
    take(&sink);
    let mut pair = Paired::default();
    window(args.seconds, |i| {
        paired_single(
            &mut pair,
            i,
            (SCENARIO, STRATEGY, pool[i % POOL]),
            (&traced, None),
            t,
        );
    });
    let log = take(&sink);
    let sc = scenario::mobile_blockage(pool[0]);
    kernels::replay(&log, || simulator(&sc, pool[0], None), sc.duration_s, r);
    pair.record(&log, r);

    // Worker scaling: the same seeded runs on one thread and on the pool.
    let base = derive(args.seed, 3, 0);
    let pass = |threads: usize| {
        let t0 = Instant::now();
        let runs = try_run_many(
            SCALING_RUNS,
            base,
            threads,
            scenario::mobile_blockage,
            || build_strategy(STRATEGY).expect("registry strategy"),
        );
        (runs, t0.elapsed().as_secs_f64())
    };
    let (seq, seq_s) = pass(1);
    let (par, par_s) = pass(crate::run::workers());
    let mut seq_slots = 0u64;
    for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
        let what = format!("run {i} of the scaling pass is thread-count invariant");
        match (a, b) {
            (Ok(a), Ok(b)) => {
                seq_slots += data_slots(a);
                t.same_digest(what, a.digest(), b.digest());
            }
            _ => {
                t.op(what, Err("a run panicked".to_string()));
            }
        }
    }
    record_workers(seq_slots as f64 / seq_s, seq_slots as f64 / par_s, r);
}
