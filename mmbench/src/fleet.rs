//! `fleet-reactive`: a static-walker fleet under single-beam reactive on
//! `min(2, nproc)` workers — the data-plane and scheduler workload (slot
//! path, `SlotLoop` stepping, sharding, the shared scene cache), where
//! ticks are a small share of the wall.

use crate::kernels;
use crate::report::{beyond, mean, tail_check, Report};
use crate::run::{
    derive, paired_single, passes, record_slots_per_s, record_workers, simulator, single_run,
    time_setups, window, workers, Args, Paired, Tally, UnitRun, Wrap, WARMUP_SEED,
};
use crate::wrap::{shared_log, take};
use mmwave_channel::SharedSceneCache;
use mmwave_phy::mcs::McsTable;
use mmwave_sim::campaign::build_scenario;
use mmwave_sim::fleet::{run_fleet, ue_seed, FleetConfig, FleetReport};
use mmwave_telemetry::LatencyHist;
use std::sync::Arc;
use std::time::Instant;

const SCENARIO: &str = "static-walker";
const STRATEGY: &str = "single-beam-reactive";
/// Fleet size (a fleet runs 51 handler passes per shard whatever its
/// size, so smaller fleets give more passes per second).
const N_UES: u32 = 64;
/// Distinct fleet seeds per benchmark run. Fleets of one scenario cost
/// the same whatever the seed, so a few suffice.
const POOL: usize = 4;
/// Each fleet runs at least this often: 3 passes of 4 fleets hold the
/// ≥ 1000 handler passes that put 10 beyond the p99 for the tail mean
/// (102 per fleet on 2 workers).
const MIN_PASSES: usize = 3;
/// Members per pool fleet replayed as single links (digest check and
/// throughput).
const REPLAYED: usize = 2;

/// The scene cache every lane of a fleet of this scenario shares, built
/// as `run_fleet` builds it.
fn scene_cache(seed: u64) -> Arc<SharedSceneCache> {
    let sc = build_scenario(SCENARIO, seed).expect("registry scenario");
    Arc::new(SharedSceneCache::build(&sc.dynamic.scene))
}

/// Percentile `p` of the merged handler-pass histogram, µs, as the
/// histogram reports it (the upper bound of the bucket holding the rank);
/// absent when fewer than 10 passes lie beyond it.
pub fn pass_us(h: &LatencyHist, p: f64) -> Result<f64, String> {
    tail_check(h.count() as usize, p).map(|()| h.percentile_ns(p) as f64 * 1e-3)
}

/// Mean of the handler passes beyond percentile `p`, µs. The histogram
/// keeps no samples, so each tail pass counts at the midpoint of its
/// bucket (the top bucket's range capped at the exact maximum); absent
/// when fewer than 10 passes lie beyond `p`.
pub fn pass_tail_us(h: &LatencyHist, p: f64) -> Result<f64, String> {
    let n = h.count() as usize;
    tail_check(n, p)?;
    let k = beyond(n, p) as u64;
    let (mut left, mut sum_ns) = (k, 0.0);
    for (b, &c) in h.bucket_counts().iter().enumerate().rev() {
        if left == 0 {
            break;
        }
        let take = c.min(left);
        let (lo, hi) = LatencyHist::bucket_bounds(b);
        sum_ns += take as f64 * 0.5 * (lo + hi.min(h.max_ns())) as f64;
        left -= take;
    }
    Ok(sum_ns / k as f64 * 1e-3)
}

/// Runs one `n_ues` fleet of the workload on `threads` workers and
/// shards; every member is one operation. Returns the report and the wall
/// time of `run_fleet`, seconds.
pub fn fleet(seed: u64, n_ues: u32, threads: usize, t: &mut Tally) -> Option<(FleetReport, f64)> {
    let cfg = FleetConfig {
        threads,
        shards: threads,
        ..FleetConfig::new(SCENARIO, STRATEGY, n_ues, seed)
    };
    let t0 = Instant::now();
    let res = run_fleet(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    t.attempted += u64::from(n_ues);
    match res {
        Ok(rep) => Some((rep, wall)),
        Err(e) => {
            t.failed += u64::from(n_ues);
            t.failures
                .push(format!("fleet {seed} on {threads} workers: {e}"));
            None
        }
    }
}

/// The timed run.
pub fn timed(args: &Args, start: Instant, r: &mut Report, t: &mut Tally) {
    let w = workers();
    let pool = time_setups(start, r, || {
        let _ = fleet(WARMUP_SEED, N_UES, w, &mut Tally::default());
        (0..POOL as u64)
            .map(|i| derive(args.seed, 1, i))
            .collect::<Vec<_>>()
    });
    let mut first = [0u64; POOL];
    let (mut rel, mut members) = (Vec::new(), Vec::new());
    let runs = passes(args.seconds, POOL, MIN_PASSES, |pass, i| {
        let seed = pool[i];
        let (rep, wall_s) = fleet(seed, N_UES, w, t)?;
        if pass == 0 {
            first[i] = rep.digest;
            rel.push(rep.mean_reliability());
            members.extend(
                rep.outcomes
                    .iter()
                    .take(REPLAYED)
                    .map(|o| (seed, o.ue, o.digest)),
            );
            t.info(format!(
                "digest fleet {SCENARIO}/{STRATEGY}/{N_UES}/{seed}: {:016x}",
                rep.digest
            ));
        } else {
            t.same_digest(format!("fleet {seed} repeats"), first[i], rep.digest);
        }
        Some(UnitRun {
            wall_s,
            slots: rep.data_slots,
            keep: rep.pass_latency,
        })
    });
    record_slots_per_s(&runs, r);
    let mut hist = LatencyHist::new();
    for u in &runs {
        hist.merge(&u.keep);
    }
    r.put(
        "step_us_mean",
        "us",
        if hist.is_empty() {
            Err("no handler pass was recorded".to_string())
        } else {
            Ok(hist.mean_ns() * 1e-3)
        },
    );
    r.put("step_us_tail_mean", "us", pass_tail_us(&hist, 99.0));
    for (p, pass) in [
        (50.0, "pass_us_p50"),
        (90.0, "pass_us_p90"),
        (99.0, "pass_us_p99"),
    ] {
        r.put(pass, "us", pass_us(&hist, p));
    }
    for name in ["tick_us_p50", "tick_us_p90", "tick_us_p99"] {
        r.absent(
            name,
            "us",
            "fleet lanes build their strategies inside run_fleet; no tick wrapper",
        );
    }

    // Output checks outside the window.
    if let Some((one, _)) = fleet(pool[0], N_UES, 1, t) {
        t.same_digest(
            format!("fleet {} on 1 and {w} workers", pool[0]),
            first[0],
            one.digest,
        );
    }
    let mcs = McsTable::nr_table();
    let mut tput = Vec::new();
    for (seed, ue, digest) in members {
        let what = format!("fleet {seed} member {ue} replays as a single link");
        let cache = scene_cache(seed);
        match single_run(
            SCENARIO,
            STRATEGY,
            ue_seed(seed, ue),
            &Wrap::Plain,
            Some(&cache),
        ) {
            Ok(run) => {
                tput.push(run.mean_throughput_bps(&mcs) * 1e-6);
                t.same_digest(what, digest, run.digest());
            }
            Err(e) => {
                t.op(what, Err(e));
            }
        }
    }
    r.put("reliability", "fraction", mean(&rel));
    r.put("throughput_mbps", "Mbps", mean(&tput));
}

/// The traced run: the fleet's lanes cannot be wrapped from outside, so
/// the layers are measured on the single-link reference behind it — the
/// same scenario and strategy, one member seed at a time, sharing the
/// fleet's scene cache as a lane does.
pub fn traced(args: &Args, start: Instant, r: &mut Report, t: &mut Tally) {
    let w = workers();
    let sink = shared_log();
    let traced = Wrap::Timed(true, sink.clone());
    let fleet_seed = time_setups(start, r, || {
        let mut warm = Tally::default();
        let _ = fleet(WARMUP_SEED, N_UES, w, &mut warm);
        derive(args.seed, 1, 0)
    });
    take(&sink);
    let cache = scene_cache(fleet_seed);
    let mut pair = Paired::default();
    window(args.seconds, |i| {
        let seed = ue_seed(fleet_seed, (i % N_UES as usize) as u32);
        paired_single(
            &mut pair,
            i,
            (SCENARIO, STRATEGY, seed),
            (&traced, Some(&cache)),
            t,
        );
    });
    let log = take(&sink);
    let member = ue_seed(fleet_seed, 0);
    let sc = build_scenario(SCENARIO, member).expect("registry scenario");
    kernels::replay(
        &log,
        || simulator(&sc, member, Some(&cache)),
        sc.duration_s,
        r,
    );
    pair.record(&log, r);

    // Worker scaling: the fleet on one worker and one shard, then on the
    // pool; the fleet digest must not change.
    let seq = fleet(fleet_seed, N_UES, 1, t);
    let par = fleet(fleet_seed, N_UES, w, t);
    if let (Some((a, a_s)), Some((b, b_s))) = (seq, par) {
        t.same_digest(
            format!("fleet {fleet_seed} on 1 and {w} workers"),
            a.digest,
            b.digest,
        );
        record_workers(a.data_slots as f64 / a_s, b.data_slots as f64 / b_s, r);
    }
}
