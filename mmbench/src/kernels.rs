//! Kernel replays: the hot kernels timed call by call on probes and
//! channels captured during the traced run.

use crate::report::{median, Report};
use crate::wrap::TickLog;
use mmreliable::superres::{estimate_per_beam, SuperResConfig};
use mmwave_array::{ArrayGeometry, BeamComponent, BeamWeights, MultiBeam, Quantizer};
use mmwave_channel::{GeometricChannel, UeReceiver};
use mmwave_dsp::complex::Complex64;
use mmwave_dsp::fft::fft;
use mmwave_dsp::linalg::{ridge_least_squares, CMatrix};
use mmwave_dsp::sinc::sinc_dictionary;
use mmwave_phy::chanest::ProbeObservation;
use mmwave_sim::LinkSimulator;
use std::f64::consts::PI;
use std::hint::black_box;
use std::time::Instant;

/// Each kernel runs at least this many calls...
const MIN_CALLS: usize = 24;
/// ...and for at least this long.
const MIN_S: f64 = 0.15;
/// Relative beam delays of the replayed fits, ns (the per-beam fit's cost
/// does not depend on their values, only on their count).
const REL_DELAYS_NS: [f64; 3] = [0.0, 6.0, 12.0];
/// Ridge weight of the replayed solves (the estimator's default).
const LAMBDA: f64 = 1e-3;
/// `true_snr_db` calls per timed batch (one call is too short to time).
const SNR_BATCH: usize = 256;

/// Median wall time of one call, µs, cycling through `inputs`.
fn time_calls<T>(inputs: &[T], mut call: impl FnMut(&T)) -> Result<f64, String> {
    if inputs.is_empty() {
        return Err("no captured inputs".to_string());
    }
    let mut us = Vec::new();
    let start = Instant::now();
    while us.len() < MIN_CALLS || start.elapsed().as_secs_f64() < MIN_S {
        let x = &inputs[us.len() % inputs.len()];
        let t0 = Instant::now();
        call(x);
        us.push(t0.elapsed().as_nanos() as f64 * 1e-3);
    }
    median(&us)
}

/// The `M×K` complex-exponential dictionary the per-beam fit solves
/// against at one candidate delay.
fn cis_dictionary(obs: &ProbeObservation, tau0_ns: f64, rel_ns: &[f64]) -> CMatrix {
    let cols: Vec<Vec<Complex64>> = rel_ns
        .iter()
        .map(|&d| {
            let tau_s = (tau0_ns + d) * 1e-9;
            obs.freqs_hz
                .iter()
                .map(|&f| Complex64::cis(-2.0 * PI * f * tau_s))
                .collect()
        })
        .collect();
    CMatrix::from_columns(&cols)
}

/// The strongest `k` paths of a channel as a `k`-beam multi-beam.
fn multibeam_of(ch: &GeometricChannel, k: usize) -> MultiBeam {
    let mut paths: Vec<_> = ch.paths.iter().collect();
    paths.sort_by(|a, b| b.gain.norm_sqr().total_cmp(&a.gain.norm_sqr()));
    let strongest = paths.first().map_or(1.0, |p| p.gain.norm_sqr().sqrt());
    MultiBeam::new(
        paths
            .iter()
            .take(k)
            .map(|p| {
                let amp = (p.gain.norm_sqr().sqrt() / strongest).clamp(0.05, 1.0);
                BeamComponent::new(p.aod_deg, amp, p.gain.arg())
            })
            .collect(),
    )
}

/// Median wall time of one `true_snr_db` call, ns, over batches of
/// [`SNR_BATCH`] data slots, each slot advanced as the run loop does. The
/// simulator restarts from `fresh()`, untimed, whenever the next batch
/// would pass `duration_s`, so every timed call falls on a slot the
/// workload executes.
fn time_true_snr(
    weights: &[&BeamWeights],
    fresh: impl Fn() -> LinkSimulator,
    duration_s: f64,
) -> Result<f64, String> {
    if weights.is_empty() {
        return Err("no captured inputs".to_string());
    }
    let mut sim = fresh();
    let slot_s = sim.slot_s;
    let batch_s = SNR_BATCH as f64 * slot_s;
    let mut ns = Vec::new();
    let start = Instant::now();
    while ns.len() < MIN_CALLS || start.elapsed().as_secs_f64() < MIN_S {
        if sim.now_s() + batch_s > duration_s {
            sim = fresh();
        }
        let w = weights[ns.len() % weights.len()];
        let t0 = Instant::now();
        for _ in 0..SNR_BATCH {
            mmreliable::LinkFrontEnd::wait(&mut sim, slot_s);
            black_box(sim.true_snr_db(w));
        }
        ns.push(t0.elapsed().as_nanos() as f64 / SNR_BATCH as f64);
    }
    median(&ns)
}

/// Replays every kernel on the captured inputs and records one metric
/// each. `fresh()` builds a simulator of the workload's scenario, set up
/// as the workload's runs are; it lasts `duration_s` simulated seconds.
pub fn replay(log: &TickLog, fresh: impl Fn() -> LinkSimulator, duration_s: f64, r: &mut Report) {
    let sim = fresh();
    let (geom, rx): (ArrayGeometry, UeReceiver) = (sim.geom, sim.rx.clone());
    let (geom, rx) = (&geom, &rx);
    let probes: Vec<&ProbeObservation> = log
        .probes
        .iter()
        .map(|(_, o)| o)
        .filter(|o| o.csi.len() >= REL_DELAYS_NS.len())
        .collect();
    let cfg = SuperResConfig::default();
    for (k, name) in [(2, "core.superres.us_k2"), (3, "core.superres.us_k3")] {
        let rel = &REL_DELAYS_NS[..k];
        r.put(
            name,
            "us",
            time_calls(&probes, |o| {
                black_box(estimate_per_beam(o, rel, &cfg));
            }),
        );
    }
    let systems: Vec<(CMatrix, &ProbeObservation)> = probes
        .iter()
        .enumerate()
        .map(|(i, o)| (cis_dictionary(o, 20.0 + i as f64, &REL_DELAYS_NS), *o))
        .collect();
    r.put(
        "dsp.ridge.us_264x3",
        "us",
        time_calls(&systems, |(s, o)| {
            black_box(ridge_least_squares(s, &o.csi, LAMBDA).ok());
        }),
    );
    r.put(
        "dsp.fft.us_264",
        "us",
        time_calls(&probes, |o| {
            black_box(fft(&o.csi));
        }),
    );
    r.put(
        "dsp.sinc_dict.us_264x3",
        "us",
        time_calls(&probes, |o| {
            let bw = o.comb_spacing_hz() * o.csi.len() as f64;
            let base = 20e-9;
            let delays: Vec<f64> = REL_DELAYS_NS.iter().map(|d| base + d * 1e-9).collect();
            black_box(sinc_dictionary(o.csi.len(), bw, 1.0 / bw, &delays));
        }),
    );
    let weights: Vec<&BeamWeights> = log.probes.iter().map(|(w, _)| w).collect();
    let pairs: Vec<(&GeometricChannel, &BeamWeights, &ProbeObservation)> = log
        .channels
        .iter()
        .zip(weights.iter().cycle())
        .zip(probes.iter().cycle())
        .map(|((c, w), o)| (c, *w, *o))
        .collect();
    r.put(
        "channel.csi.us_264",
        "us",
        time_calls(&pairs, |(c, w, o)| {
            black_box(c.csi(geom, w, rx, &o.freqs_hz));
        }),
    );
    r.put(
        "sim.true_snr.ns",
        "ns",
        time_true_snr(&weights, fresh, duration_s),
    );
    let beams: Vec<MultiBeam> = log
        .channels
        .iter()
        .enumerate()
        .map(|(i, c)| multibeam_of(c, 2 + i % 2))
        .collect();
    r.put(
        "array.multibeam.us_64el",
        "us",
        time_calls(&beams, |m| {
            black_box(m.weights(geom));
        }),
    );
    let synthesized: Vec<BeamWeights> = beams.iter().map(|m| m.weights(geom)).collect();
    let q = Quantizer::paper_array();
    r.put(
        "array.quantize.us_64el",
        "us",
        time_calls(&synthesized, |w| {
            black_box(q.quantize(w));
        }),
    );
}
