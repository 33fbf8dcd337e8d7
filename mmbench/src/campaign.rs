//! `campaign-mixed`: a supervised, journaled campaign on `min(2, nproc)`
//! workers over every registry strategy × {mobile-blockage,
//! rotation-blockage} × {clean, probe loss, moderate impairments}. It runs
//! the fault and impairment decorator stack, SSB retraining scans, the
//! journal and worker pool, and the three baselines no other workload
//! runs.

use crate::kernels;
use crate::report::{mean, Report};
use crate::run::{
    data_slots, derive, passes, record_slots_per_s, record_workers, simulator, tick_steps,
    time_setups, window, workers, wrapped, Args, Paired, Tally, UnitRun, Wrap, WARMUP_SEED,
};
use crate::wrap::{shared_log, take};
use mmwave_phy::mcs::McsTable;
use mmwave_sim::campaign::{
    build_scenario, build_strategy, load_journal, replay_cell, run_campaign, CampaignConfig,
    CellStatus, Job, JobSetup, STRATEGY_NAMES,
};
use mmwave_sim::{scenario, FaultSchedule, ImpairmentConfig, RunResult};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

const SCENARIOS: [&str; 2] = ["mobile-blockage", "rotation-blockage"];
/// Probe loss of 30 % between 0.2 s and 0.8 s.
const FAULT: &str = "seed=5;loss=0.3@0.2..0.8";
/// Distinct cell seeds per benchmark run; each unit is one campaign over
/// one seed's 30 cells. Cell costs vary with the seed, so the pool is
/// large enough that its mix changes little from one benchmark seed to
/// the next.
const POOL: usize = 8;
/// One pass of the pool fills the window on 2 workers.
const MIN_PASSES: usize = 1;
/// Replay every this-many-th journal line.
const REPLAY_STRIDE: usize = 5;

/// A scratch directory for journals inside the working directory (the
/// build directory, which version control ignores); removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_build/mmbench-work-<pid>`.
    pub fn new() -> std::io::Result<Self> {
        let dir =
            PathBuf::from(".bench_build").join(format!("mmbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// A fresh journal path in the directory.
    pub fn journal(&self, name: &str) -> PathBuf {
        let p = self.0.join(format!("{name}.jsonl"));
        // A leftover journal would make the campaign resume instead of run.
        let _ = std::fs::remove_file(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The cells of one unit: 5 strategies × 2 scenarios × 3 variants.
/// mmReliable cells, the longest, are queued first so the pool does not
/// end on one long straggler.
pub fn jobs(seed: u64, wrap: &Wrap) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for strategy in STRATEGY_NAMES {
        for scn in SCENARIOS {
            for variant in 0..3 {
                let fault = if variant == 1 {
                    FaultSchedule::parse_spec(FAULT)?
                } else {
                    FaultSchedule::none()
                };
                let priority = if *strategy == "mmreliable" { 2 } else { 1 };
                let mut job = Job::from_registry(scn, strategy, seed, fault, priority)?;
                if variant == 2 {
                    job = job.with_impairments(&ImpairmentConfig::moderate(seed))?;
                }
                jobs.push(match wrap {
                    Wrap::Plain => job,
                    Wrap::Timed(..) => {
                        let wrap = wrap.clone();
                        Job::custom(job.key.clone(), move |key| {
                            let fault = FaultSchedule::parse_spec(&key.fault_spec)?;
                            let imp = ImpairmentConfig::parse_spec(&key.impairment_spec)?;
                            let scenario = build_scenario(&key.scenario, key.seed)
                                .ok_or("unknown scenario")?
                                .with_faults(fault)
                                .map_err(|e| e.to_string())?
                                .with_impairments(imp)
                                .map_err(|e| e.to_string())?;
                            let strategy =
                                build_strategy(&key.strategy).ok_or("unknown strategy")?;
                            Ok(JobSetup {
                                scenario,
                                strategy: wrapped(strategy, &wrap),
                            })
                        })
                        .with_priority(priority)
                    }
                });
            }
        }
    }
    Ok(jobs)
}

/// What one campaign unit produced.
#[derive(Default)]
pub struct Unit {
    /// Cell id → digest of each completed cell.
    pub digests: BTreeMap<String, u64>,
    /// Completed run records.
    pub runs: Vec<RunResult>,
    /// Wall time of `run_campaign`, seconds.
    pub wall_s: f64,
}

/// Runs one campaign; every cell is one operation, failed unless it
/// completed and validated.
pub fn campaign(jobs: &[Job], threads: usize, journal: PathBuf, t: &mut Tally) -> Unit {
    let cfg = CampaignConfig {
        threads,
        journal: Some(journal),
        ..CampaignConfig::default()
    };
    let t0 = Instant::now();
    let res = run_campaign(jobs, &cfg);
    let mut unit = Unit {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Unit::default()
    };
    let report = match res {
        Ok(report) => report,
        Err(e) => {
            t.attempted += jobs.len() as u64;
            t.failed += jobs.len() as u64;
            t.failures.push(format!("campaign: {e}"));
            return unit;
        }
    };
    for o in report.outcomes {
        let id = o.key.id();
        let r = match o.status {
            CellStatus::Completed { result, digest } => {
                let ok = result.validate();
                if ok.is_ok() {
                    unit.digests.insert(id.clone(), digest);
                    unit.runs.push(*result);
                }
                ok
            }
            CellStatus::Failed { failure } => {
                Err(format!("{:?}: {}", failure.kind, failure.message))
            }
            CellStatus::Resumed { .. } => Err("resumed from a stale journal".to_string()),
            CellStatus::Shed => Err("shed".to_string()),
        };
        t.op(format!("cell {id}"), r);
    }
    unit
}

/// Replays every [`REPLAY_STRIDE`]-th line of a journal through
/// `replay_cell`; each must reproduce its recorded digest. Returns the
/// number that did.
pub fn replay_journal(path: &Path, t: &mut Tally) -> usize {
    let entries = match load_journal(path) {
        Ok(e) => e,
        Err(e) => {
            t.op("load journal", Err(e));
            return 0;
        }
    };
    let mut ok = 0;
    for e in entries.iter().step_by(REPLAY_STRIDE) {
        let what = format!("journal line {} replays bit-identically", e.key().id());
        let r = match replay_cell(e) {
            Ok((_, d)) if d == e.digest => Ok(()),
            Ok((_, d)) => Err(format!("digest {d:016x} != journaled {:016x}", e.digest)),
            Err(f) => Err(format!("{:?}: {}", f.kind, f.message)),
        };
        ok += usize::from(t.op(what, r));
    }
    ok
}

fn slots(unit: &Unit) -> u64 {
    unit.runs.iter().map(data_slots).sum()
}

fn journal_metrics(dir: &WorkDir, name: &str, cells: usize, t: &mut Tally, r: &mut Report) {
    let path = dir.0.join(format!("{name}.jsonl"));
    r.num("sim.campaign.cells", "count", cells as f64);
    r.put(
        "sim.campaign.journal_bytes",
        "bytes",
        std::fs::metadata(&path)
            .map(|m| m.len() as f64)
            .map_err(|e| e.to_string()),
    );
    let ok = replay_journal(&path, t);
    r.num("sim.campaign.replayed_ok", "count", ok as f64);
}

/// The timed run.
pub fn timed(args: &Args, start: Instant, r: &mut Report, t: &mut Tally) {
    let w = workers();
    let dir = WorkDir::new().expect("create the journal directory");
    let seeds = time_setups(start, r, || {
        let warm: Vec<Job> = jobs(WARMUP_SEED, &Wrap::Timed(false, shared_log()))
            .expect("valid cells")
            .into_iter()
            .filter(is_clean_first_scenario)
            .collect();
        let _ = campaign(&warm, w, dir.journal("warm-up"), &mut Tally::default());
        (0..POOL as u64)
            .map(|i| derive(args.seed, 1, i))
            .collect::<Vec<_>>()
    });
    let mcs = McsTable::nr_table();
    let mut first: Vec<BTreeMap<String, u64>> = Vec::new();
    let (mut rel, mut tput) = (Vec::new(), Vec::new());
    let runs = passes(args.seconds, POOL, MIN_PASSES, |pass, i| {
        let seed = seeds[i];
        let sink = shared_log();
        let cells = jobs(seed, &Wrap::Timed(false, sink.clone())).expect("valid cells");
        let unit = campaign(&cells, w, dir.journal(&format!("pass-{pass}-unit-{i}")), t);
        if pass == 0 {
            rel.extend(unit.runs.iter().map(RunResult::reliability));
            tput.extend(
                unit.runs
                    .iter()
                    .map(|run| run.mean_throughput_bps(&mcs) * 1e-6),
            );
            let combined = unit
                .digests
                .values()
                .fold(0u64, |h, d| h.rotate_left(5) ^ d);
            t.info(format!(
                "digest campaign seed {seed}, {} cells combined: {combined:016x}",
                unit.digests.len()
            ));
            first.push(unit.digests.clone());
        } else {
            let same = first[i] == unit.digests;
            t.op(
                format!("campaign seed {seed} repeats"),
                if same {
                    Ok(())
                } else {
                    Err("cell digests differ".to_string())
                },
            );
        }
        Some(UnitRun {
            wall_s: unit.wall_s,
            slots: slots(&unit),
            keep: take(&sink).tick_ns,
        })
    });
    record_slots_per_s(&runs, r);
    tick_steps(runs.iter().flat_map(|u| &u.keep), r);
    journal_metrics(
        &dir,
        "pass-0-unit-0",
        3 * SCENARIOS.len() * STRATEGY_NAMES.len(),
        t,
        r,
    );
    r.put("reliability", "fraction", mean(&rel));
    r.put("throughput_mbps", "Mbps", mean(&tput));
}

/// The warm-up cells: every strategy, first scenario, clean.
fn is_clean_first_scenario(j: &Job) -> bool {
    j.key.scenario == SCENARIOS[0] && j.key.fault_spec == "none" && j.key.impairment_spec == "none"
}

/// The traced run. Campaigns run on one worker here, so the tick and
/// probe times add up against the campaign's wall time.
pub fn traced(args: &Args, start: Instant, r: &mut Report, t: &mut Tally) {
    let w = workers();
    let sink = shared_log();
    let traced = Wrap::Timed(true, sink.clone());
    let dir = WorkDir::new().expect("create the journal directory");
    let seed = time_setups(start, r, || {
        let warm: Vec<Job> = jobs(WARMUP_SEED, &traced)
            .expect("valid cells")
            .into_iter()
            .filter(is_clean_first_scenario)
            .collect();
        let _ = campaign(&warm, w, dir.journal("warm-up"), &mut Tally::default());
        derive(args.seed, 1, 0)
    });
    take(&sink);
    let plain_jobs = jobs(seed, &Wrap::Plain).expect("valid cells");
    let traced_jobs = jobs(seed, &traced).expect("valid cells");
    let mut pair = Paired::default();
    window(args.seconds, |i| {
        let (a, b) = pair.run(
            i,
            t,
            |t| campaign(&plain_jobs, 1, dir.journal(&format!("plain-{i}")), t),
            |t| campaign(&traced_jobs, 1, dir.journal(&format!("traced-{i}")), t),
            slots,
        );
        for (id, d) in &a.digests {
            let what = format!("traced cell {id} equals unwrapped");
            match b.digests.get(id) {
                Some(e) => t.same_digest(what, *d, *e),
                None => t.op(what, Err("traced cell missing".to_string())),
            };
        }
    });
    let log = take(&sink);
    let sc = scenario::mobile_blockage(seed);
    kernels::replay(&log, || simulator(&sc, seed, None), sc.duration_s, r);
    pair.record(&log, r);
    journal_metrics(&dir, "traced-0", traced_jobs.len(), t, r);

    // Worker scaling: the clean cells on one worker, then on the pool;
    // every cell digest must not change.
    let clean: Vec<Job> = jobs(derive(args.seed, 3, 0), &Wrap::Plain)
        .expect("valid cells")
        .into_iter()
        .filter(|j| j.key.fault_spec == "none" && j.key.impairment_spec == "none")
        .collect();
    let seq = campaign(&clean, 1, dir.journal("seq"), t);
    let par = campaign(&clean, w, dir.journal("par"), t);
    t.op(
        format!("clean cells on 1 and {w} workers"),
        if seq.digests == par.digests {
            Ok(())
        } else {
            Err("cell digests differ".to_string())
        },
    );
    record_workers(
        slots(&seq) as f64 / seq.wall_s,
        slots(&par) as f64 / par.wall_s,
        r,
    );
}
