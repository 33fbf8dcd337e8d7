//! Super-resolution per-beam channel decomposition (paper §4.3, Eq. 21–23).
//!
//! A single-RF-chain multi-beam superposes all beams into one received
//! signal; maintenance needs the *per-beam* amplitudes `α_k` back. The
//! paper fits a sinc model over the measured CIR with L2 regularization,
//! exploiting that the **relative** ToFs between beams are known from
//! training and drift slowly.
//!
//! We solve the same convex program in the frequency domain, where the
//! band-limited sinc of Eq. 22 is exactly a complex exponential across the
//! sounded comb:
//!
//! ```text
//! csi(f) = Σ_k α_k · e^{-j2πf(τ₀ + Δτ_k)} + noise
//! ```
//!
//! with `Δτ_k` known and the bulk delay `τ₀` (plus small relative-ToF
//! jitter) recovered by a fine grid search, each candidate scored by its
//! ridge-regularized least-squares residual (Eq. 23). The two domains are
//! unitarily equivalent (Parseval), so this *is* the paper's estimator —
//! just without the detour through an interpolated CIR.

use mmwave_dsp::complex::Complex64;
use mmwave_dsp::linalg::{
    cholesky_factor_in_place, cholesky_substitute, lu_factor_in_place, lu_substitute,
};
use mmwave_phy::chanest::ProbeObservation;
use std::f64::consts::PI;

/// Configuration of the super-resolution solver.
#[derive(Clone, Debug)]
pub struct SuperResConfig {
    /// Ridge regularization weight λ of Eq. 23.
    pub lambda: f64,
    /// Bulk-delay search: ± this many CIR taps around the coarse estimate.
    pub tau0_search_taps: f64,
    /// Bulk-delay search resolution, fraction of a tap.
    pub tau0_step_taps: f64,
    /// Relative-ToF jitter candidates tried per non-reference beam, ns.
    pub jitter_ns: Vec<f64>,
}

impl Default for SuperResConfig {
    fn default() -> Self {
        Self {
            lambda: 1e-3,
            tau0_search_taps: 1.5,
            tau0_step_taps: 0.05,
            jitter_ns: vec![-0.4, -0.2, 0.0, 0.2, 0.4],
        }
    }
}

/// Result of one per-beam decomposition.
#[derive(Clone, Debug)]
pub struct PerBeamEstimate {
    /// Complex per-beam amplitudes `α_k` (order matches the input delays).
    pub alphas: Vec<Complex64>,
    /// Per-beam received powers `|α_k|²` (mW in sounder units).
    pub powers_mw: Vec<f64>,
    /// Residual `‖csi − S·α‖²` of the best fit.
    pub residual: f64,
    /// Recovered bulk delay τ₀, ns.
    pub tau0_ns: f64,
    /// Relative delays actually used after jitter refinement, ns.
    pub rel_delays_ns: Vec<f64>,
}

impl PerBeamEstimate {
    /// Per-beam powers in dB (floored at −200 dB).
    // xtask-allow(hot-path-closure): one short per-beam vector per estimate on the maintenance cadence
    pub fn powers_db(&self) -> Vec<f64> {
        self.powers_mw
            .iter()
            .map(|&p| 10.0 * p.max(1e-20).log10())
            .collect()
    }
}

/// Decomposes one multi-beam probe into per-beam complex amplitudes, given
/// the beams' relative delays (first entry is the reference, typically 0).
///
/// Every candidate on the τ₀ grid is scored by the ridge fit of Eq. 23,
/// evaluated in closed form by `DelayFit`: the Gram matrix is factored
/// once per delay set, and the derotated CSI `z` steps from one τ₀ to the
/// next by one complex multiply per subcarrier, so the grid runs no
/// trigonometry and allocates nothing.
// xtask-allow(hot-path-closure): the per-beam decomposition owns its outputs (amplitudes, delays) and its per-probe scratch, sized once per call; it runs per probe on the maintenance cadence
pub fn estimate_per_beam(
    obs: &ProbeObservation,
    rel_delays_ns: &[f64],
    cfg: &SuperResConfig,
) -> PerBeamEstimate {
    assert!(!rel_delays_ns.is_empty(), "need at least one beam delay");
    assert!(
        obs.csi.len() >= rel_delays_ns.len(),
        "underdetermined: fewer subcarriers than beams"
    );
    let (m, k) = (obs.csi.len(), rel_delays_ns.len());
    debug_assert_eq!(obs.freqs_hz.len(), m);
    let n = m.div_ceil(LANES) * LANES;
    let split = |parts: usize| Split {
        n,
        re: vec![0.0; parts * n],
        im: vec![0.0; parts * n],
    };
    let tap_ns = 1.0 / (obs.comb_spacing_hz().max(1.0) * m as f64) * 1e9;
    // ω_m, rad/ns.
    let w: Vec<f64> = obs.freqs_hz.iter().map(|&f| 2.0 * PI * f * 1e-9).collect();
    // The residual of the zero-α fallback, ‖y‖².
    let y_energy: f64 = obs.csi.iter().map(|y| y.norm_sqr()).sum();
    let mut fit = DelayFit {
        k,
        ridge: cfg.lambda * m as f64,
        d: split(k),
        gram: vec![Complex64::ZERO; k * k],
        factor: vec![Complex64::ZERO; k * k],
        piv: vec![0; k],
        solver: Solver::Singular,
        b: vec![Complex64::ZERO; k],
        alpha: vec![Complex64::ZERO; k],
    };
    fit.set_delays(&w, rel_delays_ns);
    // One grid step advances z by e^{+jω_m·δ}.
    let step_ns = cfg.tau0_step_taps * tap_ns;
    let mut step = split(1);
    fill_cis(&w, step_ns, step.part_mut(0));
    let mut z = split(1);
    let mut best_alpha = vec![Complex64::ZERO; k];
    let mut best_res: Option<f64> = None;
    // The CIR magnitude peak belongs to whichever beam currently dominates —
    // not necessarily the reference (e.g. when the LOS beam is blocked the
    // peak jumps to a reflection). Try anchoring it to each beam's relative
    // delay and grid-search the bulk delay around every candidate.
    let peak_ns = crate::training::estimate_delay_ns(obs);
    let mut best_tau0 = peak_ns;
    for &anchor in rel_delays_ns {
        let coarse_ns = peak_ns - anchor;
        let mut t = -cfg.tau0_search_taps;
        derotate(&obs.csi, &w, coarse_ns + t * tap_ns, z.part_mut(0));
        while t <= cfg.tau0_search_taps {
            let tau0 = coarse_ns + t * tap_ns;
            let res = fit.fit(z.part(0), y_energy);
            if best_res.is_none_or(|b| res < b) {
                best_res = Some(res);
                best_alpha.copy_from_slice(&fit.alpha);
                best_tau0 = tau0;
            }
            t += cfg.tau0_step_taps;
            rotate(z.part_mut(0), step.part(0));
        }
    }
    // An empty grid leaves the zero-α fit at the CIR peak.
    let mut best_res = best_res.unwrap_or(y_energy);
    // Pass 2: greedy per-beam relative-ToF jitter refinement at the best τ₀.
    // Only column `col` of D moves, by the phasors e^{−jω_m·j}.
    let mut rel = rel_delays_ns.to_vec();
    if k > 1 && !cfg.jitter_ns.is_empty() {
        derotate(&obs.csi, &w, best_tau0, z.part_mut(0));
        let mut jitter = split(cfg.jitter_ns.len());
        for (i, &j) in cfg.jitter_ns.iter().enumerate() {
            fill_cis(&w, -j, jitter.part_mut(i));
        }
        let mut nominal = split(1);
        for col in 1..k {
            let (re, im) = fit.d.part(col);
            nominal.re.copy_from_slice(re);
            nominal.im.copy_from_slice(im);
            let mut kept = None;
            for (i, &j) in cfg.jitter_ns.iter().enumerate() {
                fit.set_column(col, nominal.part(0), Some(jitter.part(i)));
                let res = fit.fit(z.part(0), y_energy);
                if res < best_res {
                    best_res = res;
                    best_alpha.copy_from_slice(&fit.alpha);
                    rel[col] = rel_delays_ns[col] + j;
                    kept = Some(i);
                }
            }
            // Later beams are refined against the offset this one kept.
            fit.set_column(col, nominal.part(0), kept.map(|i| jitter.part(i)));
        }
    }
    PerBeamEstimate {
        powers_mw: best_alpha.iter().map(|a| a.norm_sqr()).collect(),
        alphas: best_alpha,
        residual: best_res,
        tau0_ns: best_tau0,
        rel_delays_ns: rel,
    }
}

/// Lane width of the split-complex kernels. Their per-subcarrier loops keep
/// `LANES` independent accumulators, which the compiler can vectorise
/// without reassociating a single running sum.
const LANES: usize = 4;

/// Complex vectors stacked back to back, real and imaginary parts stored
/// apart, each zero-padded to whole lane groups. Zero padding is inert:
/// it adds nothing to a dot product or a residual.
struct Split {
    /// Padded length of each vector.
    n: usize,
    re: Vec<f64>,
    im: Vec<f64>,
}

/// A borrowed `(re, im)` vector of a [`Split`].
type Parts<'a> = (&'a [f64], &'a [f64]);
type PartsMut<'a> = (&'a mut [f64], &'a mut [f64]);

impl Split {
    /// Vector `i` of the stack.
    fn part(&self, i: usize) -> Parts<'_> {
        let n = self.n;
        debug_assert!((i + 1) * n <= self.re.len() && self.im.len() == self.re.len());
        (&self.re[i * n..(i + 1) * n], &self.im[i * n..(i + 1) * n])
    }

    fn part_mut(&mut self, i: usize) -> PartsMut<'_> {
        let n = self.n;
        debug_assert!((i + 1) * n <= self.re.len() && self.im.len() == self.re.len());
        (
            &mut self.re[i * n..(i + 1) * n],
            &mut self.im[i * n..(i + 1) * n],
        )
    }
}

/// Writes `e^{jω_m·τ}` for every subcarrier; the padding stays zero.
fn fill_cis(w: &[f64], tau_ns: f64, (re, im): PartsMut<'_>) {
    for ((r, i), &wm) in re.iter_mut().zip(im.iter_mut()).zip(w) {
        let v = Complex64::cis(wm * tau_ns);
        (*r, *i) = (v.re, v.im);
    }
}

/// `z_m = y_m·e^{+jω_m·τ₀}`: the CSI with the bulk delay τ₀ removed.
fn derotate(csi: &[Complex64], w: &[f64], tau0_ns: f64, (re, im): PartsMut<'_>) {
    for (((r, i), &y), &wm) in re.iter_mut().zip(im.iter_mut()).zip(csi).zip(w) {
        let v = y * Complex64::cis(wm * tau0_ns);
        (*r, *i) = (v.re, v.im);
    }
}

/// `z_m ← z_m·s_m`.
fn rotate((zr, zi): PartsMut<'_>, (sr, si): Parts<'_>) {
    for (((zr, zi), &sr), &si) in zr.iter_mut().zip(zi.iter_mut()).zip(sr).zip(si) {
        (*zr, *zi) = (*zr * sr - *zi * si, *zr * si + *zi * sr);
    }
}

/// `Σ_m conj(a_m)·b_m`.
fn dot_conj((ar, ai): Parts<'_>, (br, bi): Parts<'_>) -> Complex64 {
    debug_assert!(ar.len() % LANES == 0 && [ai.len(), br.len(), bi.len()] == [ar.len(); 3]);
    let (mut re, mut im) = ([0.0; LANES], [0.0; LANES]);
    let groups = ar
        .chunks_exact(LANES)
        .zip(ai.chunks_exact(LANES))
        .zip(br.chunks_exact(LANES).zip(bi.chunks_exact(LANES)));
    for ((ar, ai), (br, bi)) in groups {
        for l in 0..LANES {
            re[l] += ar[l] * br[l] + ai[l] * bi[l];
            im[l] += ar[l] * bi[l] - ai[l] * br[l];
        }
    }
    Complex64::new(re.iter().sum(), im.iter().sum())
}

/// `‖z − D·α‖²`, with D's columns stacked in `d`.
fn residual(d: &Split, alpha: &[Complex64], (zr, zi): Parts<'_>) -> f64 {
    let n = zr.len();
    debug_assert!(n == d.n && n % LANES == 0 && zi.len() == n && d.re.len() == n * alpha.len());
    let mut acc = [0.0; LANES];
    for g in (0..n).step_by(LANES) {
        let (mut er, mut ei) = ([0.0; LANES], [0.0; LANES]);
        er.copy_from_slice(&zr[g..g + LANES]);
        ei.copy_from_slice(&zi[g..g + LANES]);
        for (c, a) in alpha.iter().enumerate() {
            let (dr, di) = (&d.re[c * n + g..][..LANES], &d.im[c * n + g..][..LANES]);
            for l in 0..LANES {
                er[l] -= a.re * dr[l] - a.im * di[l];
                ei[l] -= a.re * di[l] + a.im * dr[l];
            }
        }
        for l in 0..LANES {
            acc[l] += er[l] * er[l] + ei[l] * ei[l];
        }
    }
    acc.iter().sum()
}

/// How [`DelayFit`] solves its K×K system; the order is `ridge_least_squares`'s.
#[derive(Clone, Copy)]
enum Solver {
    Cholesky,
    /// Cholesky failed; Gaussian elimination with partial pivoting.
    Lu,
    /// Both failed: α = 0.
    Singular,
}

/// The ridge fit of Eq. 23 for one set of relative delays, in closed form
/// across the τ₀ grid.
///
/// With `d_mk = e^{−jω_m·Δτ_k}` the dictionary at τ₀ is
/// `S = diag(e^{−jω_m·τ₀})·D`. So `SᴴS = DᴴD` does not depend on τ₀, and
/// with `z = diag(e^{+jω_m·τ₀})·y` we have `Sᴴy = Dᴴz` and
/// `‖y − S·α‖ = ‖z − D·α‖` exactly. A candidate costs `Dᴴz`, two K×K
/// triangular solves on the stored factor, and one residual pass. The
/// residual is summed directly: the expanded `‖y‖² − 2Re(bᴴα) + αᴴGα`
/// cancels catastrophically at high SNR.
struct DelayFit {
    /// Number of beams (columns of D).
    k: usize,
    /// Ridge weight λ·M (λ scaled with the column energy, M subcarriers).
    ridge: f64,
    /// D, one column per beam.
    d: Split,
    /// DᴴD + λ·M·I, row-major K×K.
    gram: Vec<Complex64>,
    /// The factor of `gram` that `solver` names.
    factor: Vec<Complex64>,
    /// LU row swaps (used when `solver` is `Lu`).
    piv: Vec<usize>,
    solver: Solver,
    /// Dᴴz of the last candidate.
    b: Vec<Complex64>,
    /// α of the last candidate.
    alpha: Vec<Complex64>,
}

impl DelayFit {
    /// Builds D for the relative delays `rel_ns`, its Gram matrix and the
    /// factor.
    fn set_delays(&mut self, w: &[f64], rel_ns: &[f64]) {
        for (c, &dk) in rel_ns.iter().enumerate() {
            fill_cis(w, -dk, self.d.part_mut(c));
        }
        for col in 0..self.k {
            self.update_gram(col);
        }
        self.refactor();
    }

    /// Sets column `col` of D to `nominal`, rotated by `rot` if given,
    /// then updates row and column `col` of the Gram matrix and the factor.
    fn set_column(&mut self, col: usize, nominal: Parts<'_>, rot: Option<Parts<'_>>) {
        let (re, im) = self.d.part_mut(col);
        re.copy_from_slice(nominal.0);
        im.copy_from_slice(nominal.1);
        if let Some(rot) = rot {
            rotate((re, im), rot);
        }
        self.update_gram(col);
        self.refactor();
    }

    /// Recomputes row and column `col` of `gram` from D.
    fn update_gram(&mut self, col: usize) {
        let k = self.k;
        debug_assert!(col < k && self.gram.len() == k * k);
        for i in 0..k {
            let g = dot_conj(self.d.part(i), self.d.part(col));
            self.gram[i * k + col] = g;
            self.gram[col * k + i] = g.conj();
        }
        // The diagonal is real by construction.
        let diag = &mut self.gram[col * k + col];
        *diag = Complex64::new(diag.re + self.ridge, 0.0);
    }

    /// Factors `gram`: Cholesky first, then LU, else α = 0 for every τ₀.
    fn refactor(&mut self) {
        self.factor.copy_from_slice(&self.gram);
        self.solver = if cholesky_factor_in_place(&mut self.factor, self.k).is_ok() {
            Solver::Cholesky
        } else {
            self.factor.copy_from_slice(&self.gram);
            if lu_factor_in_place(&mut self.factor, self.k, &mut self.piv).is_ok() {
                Solver::Lu
            } else {
                Solver::Singular
            }
        };
    }

    /// Fits α to the derotated CSI `z` (left in `self.alpha`) and returns
    /// the residual `‖z − D·α‖²`. `y_energy` is `‖y‖²`, the residual when
    /// the system is singular and α = 0.
    fn fit(&mut self, z: Parts<'_>, y_energy: f64) -> f64 {
        for (c, b) in self.b.iter_mut().enumerate() {
            *b = dot_conj(self.d.part(c), z);
        }
        match self.solver {
            Solver::Cholesky => cholesky_substitute(&self.factor, self.k, &self.b, &mut self.alpha),
            Solver::Lu => lu_substitute(&self.factor, self.k, &self.piv, &self.b, &mut self.alpha),
            Solver::Singular => {
                self.alpha.fill(Complex64::ZERO);
                return y_energy;
            }
        }
        residual(&self.d, &self.alpha, z)
    }
}

/// The estimator as it was before the closed form: every candidate
/// rebuilds the M×K `cis` dictionary and runs `ridge_least_squares`. Kept
/// as the oracle the closed form is checked against.
#[cfg(test)]
mod reference {
    use super::{PerBeamEstimate, SuperResConfig};
    use mmwave_dsp::complex::Complex64;
    use mmwave_dsp::linalg::{ridge_least_squares, CMatrix};
    use mmwave_phy::chanest::ProbeObservation;
    use std::f64::consts::PI;

    /// Scratch buffers shared by every ridge fit of one decomposition. The
    /// grid search solves the same K-column system ~10²× per probe; building
    /// the dictionary in place and fusing the residual pass keeps the search
    /// out of the allocator (only the K-sized solver outputs still allocate).
    struct FitScratch {
        /// `(-2π)·f` per sounded subcarrier — the phase is `cf·τ`, bitwise
        /// identical to the original `-2π·f·τ` left-to-right evaluation.
        cf: Vec<f64>,
        /// Per-column absolute delays of the current candidate, seconds.
        tau_s: Vec<f64>,
        /// The M×K dictionary, rebuilt in place per candidate.
        s: CMatrix,
    }

    impl FitScratch {
        fn for_probe(obs: &ProbeObservation) -> Self {
            Self {
                cf: obs.freqs_hz.iter().map(|&f| -2.0 * PI * f).collect(),
                tau_s: Vec::new(),
                s: CMatrix::zeros(0, 0),
            }
        }
    }

    /// Decomposes one multi-beam probe into per-beam complex amplitudes, given
    /// the beams' relative delays (first entry is the reference, typically 0).
    pub fn estimate_per_beam(
        obs: &ProbeObservation,
        rel_delays_ns: &[f64],
        cfg: &SuperResConfig,
    ) -> PerBeamEstimate {
        assert!(!rel_delays_ns.is_empty(), "need at least one beam delay");
        assert!(
            obs.csi.len() >= rel_delays_ns.len(),
            "underdetermined: fewer subcarriers than beams"
        );
        let mut scratch = FitScratch::for_probe(obs);
        let tap_ns = 1.0 / (obs.comb_spacing_hz().max(1.0) * obs.csi.len() as f64) * 1e9;
        // The CIR magnitude peak belongs to whichever beam currently dominates —
        // not necessarily the reference (e.g. when the LOS beam is blocked the
        // peak jumps to a reflection). Try anchoring it to each beam's relative
        // delay and grid-search the bulk delay around every candidate.
        let peak_ns = crate::training::estimate_delay_ns(obs);
        let mut best: Option<(Vec<Complex64>, f64)> = None;
        let mut best_tau0 = peak_ns;
        for &anchor in rel_delays_ns {
            let coarse_ns = peak_ns - anchor;
            let mut t = -cfg.tau0_search_taps;
            while t <= cfg.tau0_search_taps {
                let tau0 = coarse_ns + t * tap_ns;
                let fit = fit_at(obs, tau0, rel_delays_ns, cfg.lambda, &mut scratch);
                if best.as_ref().is_none_or(|b| fit.1 < b.1) {
                    best = Some(fit);
                    best_tau0 = tau0;
                }
                t += cfg.tau0_step_taps;
            }
        }
        let mut best = best.expect("at least one candidate");
        // Pass 2: greedy per-beam relative-ToF jitter refinement.
        let mut rel = rel_delays_ns.to_vec();
        for k in 1..rel.len() {
            let nominal = rel[k];
            for &j in &cfg.jitter_ns {
                let mut trial = rel.clone();
                trial[k] = nominal + j;
                let fit = fit_at(obs, best_tau0, &trial, cfg.lambda, &mut scratch);
                if fit.1 < best.1 {
                    best = fit;
                    rel[k] = nominal + j;
                }
            }
        }
        let alphas = best.0;
        PerBeamEstimate {
            powers_mw: alphas.iter().map(|a| a.norm_sqr()).collect(),
            alphas,
            residual: best.1,
            tau0_ns: best_tau0,
            rel_delays_ns: rel,
        }
    }

    /// Solves the ridge LS fit for fixed delays; returns (α, residual).
    ///
    /// The dictionary column `k` at subcarrier `i` is
    /// `cis(-2π·f_i·(τ₀+Δτ_k)·1e-9)` — evaluated here as `cis(cf_i·τ_s)` with
    /// `cf` precomputed per probe, which groups the products exactly as the
    /// textbook expression does, so every matrix entry (and hence the solve
    /// and the residual) is bit-identical to a scratch-free evaluation.
    fn fit_at(
        obs: &ProbeObservation,
        tau0_ns: f64,
        rel_delays_ns: &[f64],
        lambda: f64,
        scratch: &mut FitScratch,
    ) -> (Vec<Complex64>, f64) {
        let (rows, cols) = (obs.csi.len(), rel_delays_ns.len());
        scratch.tau_s.clear();
        scratch
            .tau_s
            .extend(rel_delays_ns.iter().map(|&dk| (tau0_ns + dk) * 1e-9));
        let s = &mut scratch.s;
        s.reset(rows, cols);
        for (row, &cf) in s.as_mut_slice().chunks_exact_mut(cols).zip(&scratch.cf) {
            for (slot, &tau) in row.iter_mut().zip(&scratch.tau_s) {
                *slot = Complex64::cis(cf * tau);
            }
        }
        // Scale λ with the dictionary's column energy (M subcarriers).
        let alphas = ridge_least_squares(s, &obs.csi, lambda * obs.csi.len() as f64)
            .unwrap_or_else(|_| vec![Complex64::ZERO; rel_delays_ns.len()]);
        // Residual ‖y − S·α‖², fused with the fitted-model evaluation: the
        // inner accumulation is `mul_vec`'s fold and the outer sum runs in
        // subcarrier order from 0.0, matching the separate-pass bit pattern.
        let mut residual = 0.0f64;
        for (row, &y) in s.as_slice().chunks_exact(cols).zip(&obs.csi) {
            let mut acc = Complex64::ZERO;
            for (&sij, &a) in row.iter().zip(&alphas) {
                acc += sij * a;
            }
            residual += (y - acc).norm_sqr();
        }
        (alphas, residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmwave_dsp::complex::c64;
    use mmwave_dsp::rng::Rng64;
    use proptest::prelude::*;

    /// Builds a synthetic probe: α_k at delays τ0+Δτ_k over a 264-pt comb
    /// (400 MHz / RB-spacing), with optional noise and CFO phase.
    fn synth_probe(
        alphas: &[(f64, f64)], // (amplitude, phase)
        rel_delays_ns: &[f64],
        tau0_ns: f64,
        noise_pow: f64,
        rng: &mut Rng64,
    ) -> ProbeObservation {
        let n = 264;
        let spacing = 12.0 * 120e3;
        let freqs: Vec<f64> = (0..n)
            .map(|i| (i as f64 - (n as f64 - 1.0) / 2.0) * spacing)
            .collect();
        let cfo = rng.random_phasor();
        let csi: Vec<Complex64> = freqs
            .iter()
            .map(|&f| {
                let mut acc = Complex64::ZERO;
                for (k, &(a, ph)) in alphas.iter().enumerate() {
                    let tau = (tau0_ns + rel_delays_ns[k]) * 1e-9;
                    acc += Complex64::from_polar(a, ph) * Complex64::cis(-2.0 * PI * f * tau);
                }
                cfo * acc + rng.awgn(noise_pow)
            })
            .collect();
        ProbeObservation {
            csi,
            freqs_hz: freqs,
            noise_power_mw: noise_pow.max(1e-18),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The closed form computes the old estimator: the same τ₀ and
        /// relative delays bit for bit, and the same powers and residual
        /// up to rounding.
        #[test]
        fn closed_form_matches_reference(
            k in 1usize..4,
            log10_noise in -8.0..-1.0f64,
            seed in 0u64..1 << 32,
        ) {
            let mut rng = Rng64::seed(seed);
            let mut trained = vec![0.0];
            for _ in 1..k {
                let last = trained[trained.len() - 1];
                trained.push(last + rng.uniform_in(0.8, 8.0));
            }
            // The channel's relative delays have drifted from the trained ones.
            let truth: Vec<f64> = trained
                .iter()
                .enumerate()
                .map(|(i, &d)| if i == 0 { d } else { d + rng.uniform_in(-0.5, 0.5) })
                .collect();
            let alphas: Vec<(f64, f64)> = (0..k)
                .map(|_| (rng.uniform_in(0.2, 1.0), rng.uniform_in(-PI, PI)))
                .collect();
            let tau0 = rng.uniform_in(15.0, 45.0);
            let obs = synth_probe(&alphas, &truth, tau0, 10f64.powf(log10_noise), &mut rng);
            let cfg = SuperResConfig::default();
            let new = estimate_per_beam(&obs, &trained, &cfg);
            let old = reference::estimate_per_beam(&obs, &trained, &cfg);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                new.tau0_ns.to_bits(),
                old.tau0_ns.to_bits(),
                "τ₀ {} vs {}",
                new.tau0_ns,
                old.tau0_ns
            );
            prop_assert_eq!(
                bits(&new.rel_delays_ns),
                bits(&old.rel_delays_ns),
                "{:?} vs {:?}",
                new.rel_delays_ns,
                old.rel_delays_ns
            );
            for (p, q) in new.powers_mw.iter().zip(&old.powers_mw) {
                prop_assert!((p - q).abs() <= 1e-12 * q, "power {p} vs {q}");
            }
            let (r, q) = (new.residual, old.residual);
            prop_assert!((r - q).abs() <= 1e-10 * q, "residual {r} vs {q}");
        }
    }

    #[test]
    fn recovers_two_beam_powers_well_separated() {
        let mut rng = Rng64::seed(1);
        let rel = [0.0, 10.0]; // 10 ns apart (4 taps at 2.6 ns)
        let obs = synth_probe(&[(1.0, 0.3), (0.5, -1.0)], &rel, 25.0, 1e-6, &mut rng);
        let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
        assert!(
            (est.powers_mw[0] - 1.0).abs() < 0.05,
            "p0 {}",
            est.powers_mw[0]
        );
        assert!(
            (est.powers_mw[1] - 0.25).abs() < 0.03,
            "p1 {}",
            est.powers_mw[1]
        );
        assert!((est.tau0_ns - 25.0).abs() < 0.5, "τ0 {}", est.tau0_ns);
    }

    #[test]
    fn resolves_below_fourier_limit() {
        // Fig. 11a's claim: accurate per-beam power even when ΔToF is below
        // the 2.5 ns bandwidth resolution, because relative ToF is known.
        let mut rng = Rng64::seed(2);
        for dt in [0.8, 1.2, 1.8] {
            let rel = [0.0, dt];
            let obs = synth_probe(&[(1.0, 0.0), (0.6, 1.1)], &rel, 30.0, 1e-6, &mut rng);
            let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
            assert!(
                (est.powers_mw[0] - 1.0).abs() < 0.1,
                "Δτ={dt}: p0 {}",
                est.powers_mw[0]
            );
            assert!(
                (est.powers_mw[1] - 0.36).abs() < 0.1,
                "Δτ={dt}: p1 {}",
                est.powers_mw[1]
            );
        }
    }

    #[test]
    fn cfo_phase_does_not_break_power_estimates() {
        let rel = [0.0, 6.0];
        for seed in 0..5 {
            let mut rng = Rng64::seed(seed);
            let obs = synth_probe(&[(1.0, 0.0), (0.4, 2.0)], &rel, 20.0, 1e-6, &mut rng);
            let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
            assert!((est.powers_mw[0] - 1.0).abs() < 0.05);
            assert!((est.powers_mw[1] - 0.16).abs() < 0.05);
        }
    }

    #[test]
    fn jitter_refinement_absorbs_drift() {
        // True relative delay drifted 0.4 ns from the trained value.
        let mut rng = Rng64::seed(3);
        let true_rel = [0.0, 8.4];
        let trained_rel = [0.0, 8.0];
        let obs = synth_probe(&[(1.0, 0.0), (0.7, -0.5)], &true_rel, 22.0, 1e-6, &mut rng);
        let est = estimate_per_beam(&obs, &trained_rel, &SuperResConfig::default());
        assert!(
            (est.rel_delays_ns[1] - 8.4).abs() < 0.21,
            "refined to {}",
            est.rel_delays_ns[1]
        );
        assert!((est.powers_mw[1] - 0.49).abs() < 0.06);
    }

    #[test]
    fn noise_floor_limits_but_does_not_bias_much() {
        let mut rng = Rng64::seed(4);
        let rel = [0.0, 10.0];
        // SNR ≈ 20 dB per subcarrier.
        let obs = synth_probe(&[(1.0, 0.0), (0.5, 0.7)], &rel, 25.0, 0.01, &mut rng);
        let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
        assert!((est.powers_mw[0] - 1.0).abs() < 0.15);
        assert!((est.powers_mw[1] - 0.25).abs() < 0.1);
    }

    #[test]
    fn three_beam_decomposition() {
        let mut rng = Rng64::seed(5);
        let rel = [0.0, 5.0, 13.0];
        let obs = synth_probe(
            &[(1.0, 0.0), (0.6, 1.0), (0.3, -2.0)],
            &rel,
            28.0,
            1e-6,
            &mut rng,
        );
        let est = estimate_per_beam(&obs, &rel, &SuperResConfig::default());
        assert!((est.powers_mw[0] - 1.0).abs() < 0.08);
        assert!((est.powers_mw[1] - 0.36).abs() < 0.08);
        assert!((est.powers_mw[2] - 0.09).abs() < 0.05);
    }

    #[test]
    fn single_beam_degenerates_to_power_measurement() {
        let mut rng = Rng64::seed(6);
        let obs = synth_probe(&[(0.8, 0.4)], &[0.0], 35.0, 1e-6, &mut rng);
        let est = estimate_per_beam(&obs, &[0.0], &SuperResConfig::default());
        assert!((est.powers_mw[0] - 0.64).abs() < 0.03);
    }

    #[test]
    fn powers_db_conversion() {
        let e = PerBeamEstimate {
            alphas: vec![c64(1.0, 0.0)],
            powers_mw: vec![0.1],
            residual: 0.0,
            tau0_ns: 0.0,
            rel_delays_ns: vec![0.0],
        };
        assert!((e.powers_db()[0] + 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one beam")]
    fn needs_delays() {
        let mut rng = Rng64::seed(7);
        let obs = synth_probe(&[(1.0, 0.0)], &[0.0], 20.0, 1e-6, &mut rng);
        estimate_per_beam(&obs, &[], &SuperResConfig::default());
    }
}
