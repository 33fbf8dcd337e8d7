//! What every workload shares: arguments, the failure tally, seeds, the
//! set-up and closed-loop timing, single-link runs, and the metrics built
//! from wrapper logs.

use crate::report::{percentile, tail_mean, Report};
use crate::wrap::{shared_log, SharedLog, TickLog, Timed};
use mmwave_baselines::BeamStrategy;
use mmwave_channel::SharedSceneCache;
use mmwave_sim::campaign::{build_scenario, build_strategy, STRATEGY_NAMES};
use mmwave_sim::{LinkSimulator, RunResult, Scenario};
use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// mmReliable on seeded mobile-blockage runs, back to back, one thread.
    Link,
    /// A static-walker fleet under single-beam reactive on the worker pool.
    Fleet,
    /// A supervised, journaled campaign over every strategy.
    Campaign,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Link, Workload::Fleet, Workload::Campaign];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Link => "link-mmreliable",
            Workload::Fleet => "fleet-reactive",
            Workload::Campaign => "campaign-mixed",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One benchmark invocation.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Traced (per-layer) rather than timed (end-to-end) run.
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Seed of every warm-up unit. It is fixed, not derived from `--seed`, so
/// each set-up does the same work and `setup_s` does not move with the
/// workload seed (a warm-up mmReliable run keeping three beams costs
/// ~1.4x one keeping two).
pub const WARMUP_SEED: u64 = 0x5eed_0001;

/// Worker threads for the parallel layers: `min(2, nproc)`.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Operations attempted and failed, with the failure messages and the
/// informational lines (digests) the run prints.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: runs, fleet members, cells and output checks.
    pub attempted: u64,
    /// Operations that failed, failed output checks included.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Informational lines.
    pub info: Vec<String>,
}

impl Tally {
    /// Counts one operation; returns whether it succeeded.
    pub fn op(&mut self, what: impl Display, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.failures.push(format!("{what}: {e}"));
                false
            }
        }
    }

    /// Counts one equality check between two digests.
    pub fn same_digest(&mut self, what: impl Display, a: u64, b: u64) -> bool {
        self.op(
            what,
            if a == b {
                Ok(())
            } else {
                Err(format!("digest {a:016x} != {b:016x}"))
            },
        )
    }

    /// Records an informational line.
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }
}

/// The `i`-th seed of input stream `stream` under workload seed `seed`
/// (SplitMix64 finalizer, so nearby seeds give unrelated inputs).
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) >> 1
}

/// Sets up [`SETUPS`] times and records the median as `setup_s`. The
/// first set-up is timed from process start; `setup()` builds the
/// workload's inputs and runs one warm-up unit of [`WARMUP_SEED`].
pub fn time_setups<T>(start: Instant, r: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUPS);
    let mut t0 = start;
    let mut out = None;
    for _ in 0..SETUPS {
        out = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
        t0 = Instant::now();
    }
    r.put("setup_s", "s", crate::report::median(&times));
    out.expect("SETUPS > 0")
}

/// Runs units back to back (closed loop), `unit(i)` for i = 0, 1, …,
/// until `seconds` have passed and at least one unit has run.
pub fn window(seconds: u64, mut unit: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i == 0 || t0.elapsed().as_secs_f64() < seconds as f64 {
        unit(i);
        i += 1;
    }
}

/// One run of a unit: its wall time, the data slots it executed, and
/// what else the workload keeps from it.
pub struct UnitRun<T> {
    /// Wall time, seconds.
    pub wall_s: f64,
    /// Data slots executed.
    pub slots: u64,
    /// Workload-specific payload (latency samples).
    pub keep: T,
}

/// Runs a fixed pool of units in whole passes, closed loop, until
/// `seconds` have passed and at least `min_passes` passes are done;
/// `unit(pass, index)` runs one. Whole passes give every unit the same
/// number of runs, so the pool's mix is the same in every estimate.
/// Returns every completed run.
pub fn passes<T>(
    seconds: u64,
    pool: usize,
    min_passes: usize,
    mut unit: impl FnMut(usize, usize) -> Option<UnitRun<T>>,
) -> Vec<UnitRun<T>> {
    let t0 = Instant::now();
    let mut runs = Vec::new();
    let mut pass = 0;
    while pass < min_passes || t0.elapsed().as_secs_f64() < seconds as f64 {
        runs.extend((0..pool).filter_map(|i| unit(pass, i)));
        pass += 1;
    }
    runs
}

/// Records `slots_per_s`: Σ slots ÷ Σ wall over every run of the window.
///
/// The host's speed drifts by tens of percent over minutes. A
/// fastest-run estimate was tried as well; it repeated worse than this
/// one, because most windows hold no fast moment at all.
pub fn record_slots_per_s<T>(runs: &[UnitRun<T>], r: &mut Report) {
    let slots: u64 = runs.iter().map(|u| u.slots).sum();
    let wall: f64 = runs.iter().map(|u| u.wall_s).sum();
    r.put(
        "slots_per_s",
        "1/s",
        if slots == 0 {
            Err("no run completed".to_string())
        } else {
            Ok(slots as f64 / wall)
        },
    );
}

/// Non-probing data slots of a run.
pub fn data_slots(r: &RunResult) -> u64 {
    r.samples.iter().filter(|s| !s.probing).count() as u64
}

/// How a single-link run's strategy is wrapped.
#[derive(Clone)]
pub enum Wrap {
    /// The registry strategy as is.
    Plain,
    /// Wrapped in [`Timed`]; `true` also times probes and captures inputs.
    Timed(bool, SharedLog),
}

/// Wraps a registry strategy as `wrap` asks.
pub fn wrapped(inner: Box<dyn BeamStrategy + Send>, wrap: &Wrap) -> Box<dyn BeamStrategy + Send> {
    match wrap {
        Wrap::Plain => inner,
        Wrap::Timed(trace, sink) => Box::new(Timed::new(inner, *trace, sink.clone())),
    }
}

/// The simulator of `sc` under `seed`. Given a scene cache, it shares
/// the per-wall images as a fleet lane does (`FleetShard::new`: installed
/// only when the wall count matches); results are bit-identical either
/// way.
pub fn simulator(sc: &Scenario, seed: u64, cache: Option<&Arc<SharedSceneCache>>) -> LinkSimulator {
    let mut sim = sc.simulator(seed);
    if let Some(c) = cache {
        if c.len() == sim.dynamic.scene.walls.len() {
            sim.dynamic.set_shared_cache(Arc::clone(c));
        }
    }
    sim
}

/// One single-link run of registry scenario × strategy under `seed`,
/// exactly as a campaign cell (no cache) or a fleet member (with the
/// fleet's scene cache) of that seed runs it, validated.
pub fn single_run(
    scenario: &str,
    strategy: &str,
    seed: u64,
    wrap: &Wrap,
    cache: Option<&Arc<SharedSceneCache>>,
) -> Result<RunResult, String> {
    let sc =
        build_scenario(scenario, seed).ok_or_else(|| format!("unknown scenario {scenario}"))?;
    let inner = build_strategy(strategy).ok_or_else(|| format!("unknown strategy {strategy}"))?;
    let mut s = wrapped(inner, wrap);
    let mut sim = simulator(&sc, seed, cache);
    let r = sim.run_with_warmup(
        s.as_mut(),
        sc.duration_s,
        sc.tick_period_s,
        sc.name,
        sc.warmup_s,
    );
    r.validate()?;
    Ok(r)
}

/// `step_us_mean`/`step_us_tail_mean` from per-tick wall times, ns, plus
/// the `tick_us_*` percentiles.
pub fn tick_steps<'a>(tick_ns: impl Iterator<Item = &'a u64>, r: &mut Report) {
    let us: Vec<f64> = tick_ns.map(|&ns| ns as f64 * 1e-3).collect();
    r.put("step_us_mean", "us", crate::report::mean(&us));
    r.put("step_us_tail_mean", "us", tail_mean(&us, 99.0));
    for (p, tick) in [
        (50.0, "tick_us_p50"),
        (90.0, "tick_us_p90"),
        (99.0, "tick_us_p99"),
    ] {
        r.put(tick, "us", percentile(&us, p));
    }
    for name in ["pass_us_p50", "pass_us_p90", "pass_us_p99"] {
        r.absent(name, "us", "no fleet handler passes in this workload");
    }
}

/// The traced window's totals: each unit runs once plain and once
/// traced, and the traced runs' wall time is split into ticks, probes
/// inside them, and the rest.
#[derive(Debug, Default)]
pub struct Paired {
    /// Wall time of the plain runs, seconds.
    pub plain_s: f64,
    /// Data slots of the plain runs.
    pub plain_slots: u64,
    /// Wall time of the traced runs, seconds.
    pub wall_s: f64,
    /// Data slots of the traced runs.
    pub slots: u64,
}

impl Paired {
    /// Runs one unit plain and traced — plain first on even `i`, last on
    /// odd `i`, so drift in host speed favours neither — and adds both to
    /// the totals.
    pub fn run<T>(
        &mut self,
        i: usize,
        t: &mut Tally,
        plain: impl FnOnce(&mut Tally) -> T,
        traced: impl FnOnce(&mut Tally) -> T,
        slots: impl Fn(&T) -> u64,
    ) -> (T, T) {
        fn timed<T>(t: &mut Tally, f: impl FnOnce(&mut Tally) -> T) -> (T, f64) {
            let t0 = Instant::now();
            let out = f(t);
            (out, t0.elapsed().as_secs_f64())
        }
        let ((a, a_s), (b, b_s)) = if i.is_multiple_of(2) {
            let a = timed(t, plain);
            (a, timed(t, traced))
        } else {
            let b = timed(t, traced);
            (timed(t, plain), b)
        };
        self.plain_s += a_s;
        self.plain_slots += slots(&a);
        self.wall_s += b_s;
        self.slots += slots(&b);
        (a, b)
    }

    /// Records the tick/probe/outside split. Needs `sim.true_snr.ns`
    /// already recorded (kernel replays run first).
    pub fn record(&self, log: &TickLog, r: &mut Report) {
        let tick_s = log.tick_s();
        let probe_s = log.probe_s();
        let wall = self.wall_s;
        r.num("baselines.tick.count", "count", log.tick_ns.len() as f64);
        r.num("baselines.tick.s", "s", tick_s);
        r.num("baselines.tick.frac", "fraction", tick_s / wall);
        for (name, (n, ns)) in &log.by_strategy {
            let name = crate::report::name_segment(name);
            r.num(format!("baselines.tick.count.{name}"), "count", *n as f64);
            r.num(format!("baselines.tick.s.{name}"), "s", *ns as f64 * 1e-9);
        }
        r.num("phy.probe.count", "count", log.probe_ns.len() as f64);
        r.num("phy.probe.s", "s", probe_s);
        let probe_us: Vec<f64> = log.probe_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
        r.put("phy.probe.us_p50", "us", percentile(&probe_us, 50.0));
        r.num("core.tick_self.s", "s", tick_s - probe_s);
        r.num("core.tick_self.frac", "fraction", (tick_s - probe_s) / wall);
        r.num("sim.wall.s", "s", wall);
        let outside = wall - tick_s;
        r.num("sim.outside_tick.s", "s", outside);
        r.num(
            "sim.outside_tick.ns_per_slot",
            "ns",
            outside * 1e9 / self.slots.max(1) as f64,
        );
        let snr = match r.get("sim.true_snr.ns").map(|m| &m.value) {
            Some(crate::report::Value::Num(ns)) => Ok(*ns),
            _ => Err("sim.true_snr.ns was not measured".to_string()),
        };
        r.put(
            "sim.unattributed.s",
            "s",
            snr.map(|ns| outside - ns * 1e-9 * self.slots as f64),
        );
        let plain = self.plain_slots as f64 / self.plain_s;
        r.num("sim.link.slots_per_s", "1/s", plain);
        r.num(
            "bench.trace_overhead.frac",
            "fraction",
            1.0 - self.slots as f64 / wall / plain,
        );
    }
}

/// Records `sim.workers.*` from one sequential and one parallel pass over
/// the same units.
pub fn record_workers(seq_slots_per_s: f64, par_slots_per_s: f64, r: &mut Report) {
    let scaling = par_slots_per_s / seq_slots_per_s;
    r.num("sim.workers.seq_slots_per_s", "1/s", seq_slots_per_s);
    r.num("sim.workers.par_slots_per_s", "1/s", par_slots_per_s);
    r.num("sim.workers.scaling", "ratio", scaling);
    r.num(
        "sim.workers.efficiency",
        "ratio",
        scaling / workers() as f64,
    );
}

/// One single-link unit of a traced window, plain and traced: both runs
/// must be bit-identical.
pub fn paired_single(
    pair: &mut Paired,
    i: usize,
    (scenario, strategy, seed): (&str, &str, u64),
    (traced, cache): (&Wrap, Option<&Arc<SharedSceneCache>>),
    t: &mut Tally,
) {
    let (a, b) = pair.run(
        i,
        t,
        |_| single_run(scenario, strategy, seed, &Wrap::Plain, cache),
        |_| single_run(scenario, strategy, seed, traced, cache),
        |r| r.as_ref().map_or(0, data_slots),
    );
    let what = format!("traced {scenario}/{strategy}/{seed} equals unwrapped");
    match (a, b) {
        (Ok(a), Ok(b)) => t.same_digest(what, a.digest(), b.digest()),
        (a, b) => t.op(what, a.and(b).map(|_| ())),
    };
}

/// Output check shared by every traced run: for each registry strategy,
/// a traced (wrapped) run is bit-identical to the unwrapped one.
pub fn check_wrappers_transparent(seed: u64, t: &mut Tally) {
    for (i, name) in STRATEGY_NAMES.iter().enumerate() {
        let s = derive(seed, 5, i as u64);
        let plain = single_run("mobile-blockage", name, s, &Wrap::Plain, None);
        let traced = single_run(
            "mobile-blockage",
            name,
            s,
            &Wrap::Timed(true, shared_log()),
            None,
        );
        let what = format!("traced {name} run equals unwrapped run");
        match (plain, traced) {
            (Ok(a), Ok(b)) => {
                t.info(format!(
                    "digest mobile-blockage/{name}/{s}: {:016x}",
                    a.digest()
                ));
                t.same_digest(what, a.digest(), b.digest());
            }
            (a, b) => {
                t.op(what, a.and(b).map(|_| ()));
            }
        }
    }
}

/// The `static_walker` fingerprints (the repository's bit-identity
/// reference), printed for information only.
pub fn fingerprints(t: &mut Tally) {
    for (label, name) in [
        ("single-beam reactive", "single-beam-reactive"),
        ("mmReliable", "mmreliable"),
    ] {
        let sc = mmwave_sim::scenario::static_walker();
        let mut sim = sc.simulator(42);
        let Some(mut s) = build_strategy(name) else {
            continue;
        };
        let r = sim.run_with_warmup(
            s.as_mut(),
            sc.duration_s,
            sc.tick_period_s,
            sc.name,
            sc.warmup_s,
        );
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        };
        for smp in &r.samples {
            fnv(&smp.t_s.to_bits().to_le_bytes());
            fnv(&smp.dur_s.to_bits().to_le_bytes());
            fnv(&smp.snr_db.to_bits().to_le_bytes());
            fnv(&[smp.probing as u8]);
        }
        fnv(&(r.probes as u64).to_le_bytes());
        fnv(&r.probe_airtime_s.to_bits().to_le_bytes());
        t.info(format!("fingerprint static_walker {label}: {h:016x}"));
    }
}
