//! Thin forwarding wrappers that time calls into the crates' public entry
//! points from outside: [`Timed`] around `BeamStrategy::on_tick`, and (in
//! traced mode) a front end around `LinkFrontEnd::probe_kind[_into]`.
//!
//! Every method forwards unchanged, so a wrapped run is bit-identical to
//! an unwrapped one; the benchmark checks that digest equality as one of
//! its output checks.

use mmreliable::frontend::{LinkFrontEnd, ProbeKind};
use mmreliable::linkstate::Transition;
use mmwave_array::{ArrayGeometry, BeamWeights};
use mmwave_baselines::BeamStrategy;
use mmwave_channel::GeometricChannel;
use mmwave_phy::chanest::ProbeObservation;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many probes and channels a traced log keeps for the kernel replays.
pub const CAPTURE: usize = 16;

/// Keep one channel in this many data slots for the kernel replays.
const CHANNEL_STRIDE: u64 = 509;

/// What the wrappers measured.
#[derive(Clone, Debug, Default)]
pub struct TickLog {
    /// Wall time of every `on_tick`, ns.
    pub tick_ns: Vec<u64>,
    /// Wall time of every probe (traced mode only), ns.
    pub probe_ns: Vec<u64>,
    /// Tick count and total tick ns per strategy name.
    pub by_strategy: BTreeMap<&'static str, (u64, u64)>,
    /// Probe weights and observations for the kernel replays.
    pub probes: Vec<(BeamWeights, ProbeObservation)>,
    /// True channels for the kernel replays.
    pub channels: Vec<GeometricChannel>,
}

impl TickLog {
    fn tick(&mut self, name: &'static str, d: Duration) {
        let ns = d.as_nanos() as u64;
        self.tick_ns.push(ns);
        let e = self.by_strategy.entry(name).or_default();
        e.0 += 1;
        e.1 += ns;
    }

    /// Folds `other` into `self`.
    pub fn absorb(&mut self, other: TickLog) {
        self.tick_ns.extend(other.tick_ns);
        self.probe_ns.extend(other.probe_ns);
        for (k, (n, ns)) in other.by_strategy {
            let e = self.by_strategy.entry(k).or_default();
            e.0 += n;
            e.1 += ns;
        }
        let room = CAPTURE.saturating_sub(self.probes.len());
        self.probes.extend(other.probes.into_iter().take(room));
        let room = CAPTURE.saturating_sub(self.channels.len());
        self.channels.extend(other.channels.into_iter().take(room));
    }

    /// Total tick time, seconds.
    pub fn tick_s(&self) -> f64 {
        self.tick_ns.iter().sum::<u64>() as f64 * 1e-9
    }

    /// Total probe time, seconds.
    pub fn probe_s(&self) -> f64 {
        self.probe_ns.iter().sum::<u64>() as f64 * 1e-9
    }
}

/// A log that wrapped strategies fold into when they are dropped, so
/// strategies running on campaign or sweep worker threads report back.
pub type SharedLog = Arc<Mutex<TickLog>>;

/// A new, empty shared log.
pub fn shared_log() -> SharedLog {
    Arc::new(Mutex::new(TickLog::default()))
}

/// Takes everything recorded so far out of `log`.
pub fn take(log: &SharedLog) -> TickLog {
    std::mem::take(
        &mut *log
            .lock()
            .expect("a wrapped strategy panicked while reporting"),
    )
}

/// A strategy whose `on_tick` calls are timed. With `trace`, the probes it
/// issues are timed too, and a few probes and channels are kept for the
/// kernel replays.
pub struct Timed {
    inner: Box<dyn BeamStrategy + Send>,
    trace: bool,
    log: TickLog,
    sink: SharedLog,
    slots: u64,
}

impl Timed {
    /// Wraps `inner`; what it measures is folded into `sink` on drop.
    pub fn new(inner: Box<dyn BeamStrategy + Send>, trace: bool, sink: SharedLog) -> Self {
        Self {
            inner,
            trace,
            log: TickLog::default(),
            sink,
            slots: 0,
        }
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned sink only loses this strategy's timings.
        if let Ok(mut sink) = self.sink.lock() {
            sink.absorb(std::mem::take(&mut self.log));
        }
    }
}

impl BeamStrategy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_tick(&mut self, fe: &mut dyn LinkFrontEnd, t_s: f64) {
        let name = self.inner.name();
        let t0 = Instant::now();
        if self.trace {
            let mut timed = TimedFrontEnd {
                inner: fe,
                log: &mut self.log,
            };
            self.inner.on_tick(&mut timed, t_s);
        } else {
            self.inner.on_tick(fe, t_s);
        }
        self.log.tick(name, t0.elapsed());
    }

    fn weights(&self) -> BeamWeights {
        self.inner.weights()
    }

    fn weights_into(&self, out: &mut BeamWeights) {
        self.inner.weights_into(out);
    }

    fn observe_truth(&mut self, ch: &GeometricChannel) {
        if self.trace && self.log.channels.len() < CAPTURE {
            if self.slots.is_multiple_of(CHANNEL_STRIDE) && !ch.paths.is_empty() {
                self.log.channels.push(ch.clone());
            }
            self.slots += 1;
        }
        self.inner.observe_truth(ch);
    }

    fn drain_transitions(&mut self) -> Vec<Transition> {
        self.inner.drain_transitions()
    }

    fn set_tracer(&mut self, tracer: mmwave_telemetry::Tracer) {
        self.inner.set_tracer(tracer);
    }
}

/// The front end a traced strategy sees: times every probe.
struct TimedFrontEnd<'a> {
    inner: &'a mut dyn LinkFrontEnd,
    log: &'a mut TickLog,
}

impl TimedFrontEnd<'_> {
    fn record(&mut self, t0: Instant, w: &BeamWeights, obs: &ProbeObservation) {
        self.log.probe_ns.push(t0.elapsed().as_nanos() as u64);
        if self.log.probes.len() < CAPTURE && !obs.csi.is_empty() {
            self.log.probes.push((w.clone(), obs.clone()));
        }
    }
}

impl LinkFrontEnd for TimedFrontEnd<'_> {
    fn geometry(&self) -> &ArrayGeometry {
        self.inner.geometry()
    }

    fn probe_kind(&mut self, weights: &BeamWeights, kind: ProbeKind) -> ProbeObservation {
        let t0 = Instant::now();
        let obs = self.inner.probe_kind(weights, kind);
        self.record(t0, weights, &obs);
        obs
    }

    fn probe(&mut self, weights: &BeamWeights) -> ProbeObservation {
        let t0 = Instant::now();
        let obs = self.inner.probe(weights);
        self.record(t0, weights, &obs);
        obs
    }

    fn probe_kind_into(
        &mut self,
        weights: &BeamWeights,
        kind: ProbeKind,
        out: &mut ProbeObservation,
    ) {
        let t0 = Instant::now();
        self.inner.probe_kind_into(weights, kind, out);
        self.record(t0, weights, out);
    }

    fn probe_into(&mut self, weights: &BeamWeights, out: &mut ProbeObservation) {
        let t0 = Instant::now();
        self.inner.probe_into(weights, out);
        self.record(t0, weights, out);
    }

    fn wait(&mut self, dur_s: f64) {
        self.inner.wait(dur_s);
    }

    fn now_s(&self) -> f64 {
        self.inner.now_s()
    }

    fn cancel_requested(&self) -> bool {
        self.inner.cancel_requested()
    }

    fn probes_used(&self) -> usize {
        self.inner.probes_used()
    }
}
