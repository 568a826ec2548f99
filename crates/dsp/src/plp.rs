//! PLP front-end (Hermansky 1990, simplified):
//! power spectrum → bark critical-band analysis → equal-loudness
//! pre-emphasis → intensity-loudness compression (cube root) → all-pole
//! model via autocorrelation + Levinson-Durbin → LPC cepstra.
//!
//! This is the feature used by the paper's DNN-HMM English recognizer
//! ("13-dimensional PLP features plus their first and second order
//! derivatives", §4.1).

use crate::filterbank::bark_filterbank;
use crate::frame::FrameConfig;
use crate::frames::FrameMatrix;
use crate::spectral::SpectralPlan;
use lre_linalg::{levinson_durbin_into, lpc_to_cepstrum_into};
use std::sync::OnceLock;

/// PLP extraction parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct PlpConfig {
    pub frame: FrameConfig,
    pub nfft: usize,
    /// Number of bark critical bands.
    pub num_bands: usize,
    /// All-pole model order.
    pub lpc_order: usize,
    /// Cepstra to keep, *including* c0.
    pub num_ceps: usize,
    pub f_lo: f32,
    pub f_hi: f32,
}

impl Default for PlpConfig {
    fn default() -> Self {
        Self {
            frame: FrameConfig::default(),
            nfft: 256,
            num_bands: 17,
            lpc_order: 12,
            num_ceps: 13,
            f_lo: 100.0,
            f_hi: 3800.0,
        }
    }
}

/// Equal-loudness weight for a frequency in Hz (Hermansky's E(ω) approximation).
pub fn equal_loudness(hz: f32) -> f32 {
    let w2 = (hz as f64 * 2.0 * std::f64::consts::PI).powi(2);
    let num = (w2 + 56.8e6) * w2.powi(2);
    let den = (w2 + 6.3e6).powi(2) * (w2 + 0.38e9);
    (num / den) as f32
}

/// Everything [`plp`] precomputes for one configuration.
#[derive(Clone, Debug)]
struct PlpPlan {
    spectral: SpectralPlan,
    /// Equal-loudness weight of each band's center frequency.
    loudness: Vec<f32>,
    autocorrelation: CosineAutocorrelation,
    lpc_order: usize,
    num_ceps: usize,
}

impl PlpPlan {
    fn new(cfg: &PlpConfig) -> Self {
        let bank = bark_filterbank(
            cfg.num_bands,
            cfg.nfft,
            cfg.frame.sample_rate,
            cfg.f_lo,
            cfg.f_hi,
        );
        let loudness = bank
            .centers_hz
            .iter()
            .map(|&hz| equal_loudness(hz))
            .collect();
        Self {
            spectral: SpectralPlan::new(cfg.frame, cfg.nfft, bank),
            loudness,
            autocorrelation: CosineAutocorrelation::new(cfg.num_bands, cfg.lpc_order),
            lpc_order: cfg.lpc_order,
            num_ceps: cfg.num_ceps,
        }
    }

    fn extract(&self, samples: &[f32]) -> FrameMatrix {
        let mut compressed = vec![0.0_f64; self.loudness.len()];
        let mut r = vec![0.0_f64; self.lpc_order + 1];
        let mut lpc = vec![0.0_f64; self.lpc_order + 1];
        let mut reflection = vec![0.0_f64; self.lpc_order];
        let mut ceps = vec![0.0_f64; self.num_ceps];
        self.spectral.analyze(samples, self.num_ceps, |bands, row| {
            // Relative energy floor (see the MFCC pipeline for rationale).
            let peak = bands
                .iter()
                .zip(&self.loudness)
                .fold(1e-10f32, |m, (&e, &w)| m.max(e * w));
            let floor = peak * 1e-4 + 1e-10;
            // Equal loudness + cube-root compression.
            for (c, (&e, &w)) in compressed.iter_mut().zip(bands.iter().zip(&self.loudness)) {
                *c = ((e * w).max(floor) as f64).powf(1.0 / 3.0);
            }
            // The compressed band spectrum is treated as half of a symmetric
            // spectrum; its autocorrelation is the inverse DCT (type-I style
            // cosine transform).
            self.autocorrelation.apply(&compressed, &mut r);
            match levinson_durbin_into(&r, &mut lpc, &mut reflection) {
                Some(error) => lpc_to_cepstrum_into(&lpc[1..], error, &mut ceps),
                // Degenerate frame (all-zero energy): emit zeros.
                None => ceps.fill(0.0),
            }
            for (o, c) in row.iter_mut().zip(&ceps) {
                *o = *c as f32;
            }
        })
    }
}

/// Extract PLP features for an utterance.
///
/// The default configuration's plan is built once per process; any other
/// configuration builds its plan per call.
pub fn plp(samples: &[f32], cfg: &PlpConfig) -> FrameMatrix {
    static DEFAULT: OnceLock<PlpPlan> = OnceLock::new();
    if *cfg == PlpConfig::default() {
        DEFAULT.get_or_init(|| PlpPlan::new(cfg)).extract(samples)
    } else {
        PlpPlan::new(cfg).extract(samples)
    }
}

/// Autocorrelation of the symmetric extension of a one-sided band spectrum:
/// `r[k] = Σ_j s[j] cos(π k j / (J-1))`, with half weights at the endpoints
/// (discretized inverse Fourier transform of a real even spectrum), with
/// the `(max_lag + 1) × J` cosine table precomputed.
#[derive(Clone, Debug)]
pub(crate) struct CosineAutocorrelation {
    j_max: usize,
    cos: Vec<f64>,
}

impl CosineAutocorrelation {
    pub(crate) fn new(j_max: usize, max_lag: usize) -> Self {
        assert!(j_max >= 2);
        let mut cos = Vec::with_capacity((max_lag + 1) * j_max);
        for k in 0..=max_lag {
            for j in 0..j_max {
                cos.push((std::f64::consts::PI * k as f64 * j as f64 / (j_max as f64 - 1.0)).cos());
            }
        }
        Self { j_max, cos }
    }

    /// Lags `0..=max_lag` of `spectrum` (`len == J`) into `r`.
    pub(crate) fn apply(&self, spectrum: &[f64], r: &mut [f64]) {
        let j_max = self.j_max;
        assert_eq!(spectrum.len(), j_max, "band spectrum length mismatch");
        for (rk, row) in r.iter_mut().zip(self.cos.chunks_exact(j_max)) {
            let mut acc = 0.0;
            for (j, (&s, &c)) in spectrum.iter().zip(row).enumerate() {
                let w = if j == 0 || j == j_max - 1 { 0.5 } else { 1.0 };
                acc += w * s * c;
            }
            *rk = acc / (j_max as f64 - 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_loudness_has_midband_emphasis() {
        // The curve should weight ~1-2 kHz well above 100 Hz.
        assert!(equal_loudness(1500.0) > equal_loudness(100.0) * 10.0);
    }

    #[test]
    fn cosine_autocorrelation_flat_spectrum() {
        // A flat spectrum corresponds to a white process: r[0] > 0, r[k>0] ≈ 0.
        let mut r = vec![0.0; 5];
        CosineAutocorrelation::new(33, 4).apply(&[1.0; 33], &mut r);
        assert!(r[0] > 0.0);
        for &v in &r[1..] {
            assert!(v.abs() < 1e-9 * r[0].max(1.0), "lag leak: {v}");
        }
    }

    #[test]
    fn cosine_autocorrelation_r0_dominates() {
        let s: Vec<f64> = (0..17)
            .map(|i| 1.0 + (i as f64 * 0.4).sin().abs())
            .collect();
        let mut r = vec![0.0; 9];
        CosineAutocorrelation::new(17, 8).apply(&s, &mut r);
        for &v in &r[1..] {
            assert!(v.abs() <= r[0] + 1e-12);
        }
    }

    #[test]
    fn plp_dims_and_finiteness() {
        let cfg = PlpConfig::default();
        let samples: Vec<f32> = (0..8000)
            .map(|i| (2.0 * std::f32::consts::PI * 700.0 * i as f32 / 8000.0).sin())
            .collect();
        let p = plp(&samples, &cfg);
        assert_eq!(p.dim(), 13);
        assert_eq!(p.num_frames(), cfg.frame.num_frames(8000));
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn silence_yields_frames_without_panicking() {
        let cfg = PlpConfig::default();
        let p = plp(&vec![0.0_f32; 4000], &cfg);
        assert!(p.num_frames() > 0);
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
    }
}
