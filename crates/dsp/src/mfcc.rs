//! MFCC front-end: power spectrum → mel filterbank → log → DCT-II.

use crate::filterbank::mel_filterbank;
use crate::frame::FrameConfig;
use crate::frames::FrameMatrix;
use crate::spectral::SpectralPlan;
use std::sync::OnceLock;

/// MFCC extraction parameters (defaults match the paper's telephone setup:
/// 8 kHz, 25 ms/10 ms, 13 coefficients including c0).
#[derive(Clone, Debug, PartialEq)]
pub struct MfccConfig {
    pub frame: FrameConfig,
    pub nfft: usize,
    pub num_filters: usize,
    /// Cepstra to keep, *including* c0.
    pub num_ceps: usize,
    pub f_lo: f32,
    pub f_hi: f32,
}

impl Default for MfccConfig {
    fn default() -> Self {
        Self {
            frame: FrameConfig::default(),
            nfft: 256,
            num_filters: 23,
            num_ceps: 13,
            f_lo: 100.0,
            f_hi: 3800.0,
        }
    }
}

/// Orthonormal DCT-II from `n` inputs to the first `k` coefficients, with
/// its `k × n` cosine table precomputed.
#[derive(Clone, Debug)]
struct Dct2 {
    n: usize,
    cos: Vec<f64>,
    norm0: f64,
    norm: f64,
}

impl Dct2 {
    fn new(n: usize, k: usize) -> Self {
        assert!(n > 0 && k <= n);
        let mut cos = Vec::with_capacity(k * n);
        for i in 0..k {
            for j in 0..n {
                cos.push(
                    (std::f64::consts::PI * i as f64 * (2.0 * j as f64 + 1.0) / (2.0 * n as f64))
                        .cos(),
                );
            }
        }
        Self {
            n,
            cos,
            norm0: (1.0 / n as f64).sqrt(),
            norm: (2.0 / n as f64).sqrt(),
        }
    }

    /// Transform `x` (`len == n`) into `out` (`len == k`).
    fn apply(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "DCT input length mismatch");
        for (i, (o, row)) in out
            .iter_mut()
            .zip(self.cos.chunks_exact(self.n))
            .enumerate()
        {
            let mut acc = 0.0;
            for (&xj, &c) in x.iter().zip(row) {
                acc += xj * c;
            }
            *o = acc * if i == 0 { self.norm0 } else { self.norm };
        }
    }
}

/// DCT-II of `x`, keeping `k` coefficients, with orthonormal scaling.
pub fn dct2(x: &[f64], k: usize) -> Vec<f64> {
    let mut out = vec![0.0; k];
    Dct2::new(x.len(), k).apply(x, &mut out);
    out
}

/// Everything [`mfcc`] precomputes for one configuration.
#[derive(Clone, Debug)]
struct MfccPlan {
    spectral: SpectralPlan,
    dct: Dct2,
    num_ceps: usize,
}

impl MfccPlan {
    fn new(cfg: &MfccConfig) -> Self {
        let bank = mel_filterbank(
            cfg.num_filters,
            cfg.nfft,
            cfg.frame.sample_rate,
            cfg.f_lo,
            cfg.f_hi,
        );
        Self {
            spectral: SpectralPlan::new(cfg.frame, cfg.nfft, bank),
            dct: Dct2::new(cfg.num_filters, cfg.num_ceps),
            num_ceps: cfg.num_ceps,
        }
    }

    fn extract(&self, samples: &[f32]) -> FrameMatrix {
        let mut logs = vec![0.0_f64; self.dct.n];
        let mut ceps = vec![0.0_f64; self.num_ceps];
        self.spectral
            .analyze(samples, self.num_ceps, |energies, row| {
                // Relative energy floor: bands more than ~40 dB below the frame's
                // strongest band are clamped. Synthetic speech otherwise has
                // spectrally empty bands whose log-energy swings wildly with any
                // additive noise, destabilizing every cepstral coefficient.
                let peak = energies.iter().fold(1e-10f32, |m, &e| m.max(e));
                let floor = peak * 1e-4 + 1e-10;
                for (l, &e) in logs.iter_mut().zip(energies) {
                    *l = (e.max(floor) as f64).ln();
                }
                self.dct.apply(&logs, &mut ceps);
                for (o, c) in row.iter_mut().zip(&ceps) {
                    *o = *c as f32;
                }
            })
    }
}

/// Extract MFCC features for an utterance.
///
/// The default configuration's plan is built once per process; any other
/// configuration builds its plan per call.
pub fn mfcc(samples: &[f32], cfg: &MfccConfig) -> FrameMatrix {
    static DEFAULT: OnceLock<MfccPlan> = OnceLock::new();
    if *cfg == MfccConfig::default() {
        DEFAULT.get_or_init(|| MfccPlan::new(cfg)).extract(samples)
    } else {
        MfccPlan::new(cfg).extract(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dct2_of_constant_is_only_c0() {
        let c = dct2(&[2.0; 8], 8);
        assert!((c[0] - 2.0 * (8.0_f64).sqrt()).abs() < 1e-12);
        for &v in &c[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn dct2_is_orthonormal_energy_preserving() {
        let x: Vec<f64> = (0..16).map(|i| ((i as f64) * 0.83).sin()).collect();
        let c = dct2(&x, 16);
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = c.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() < 1e-9);
    }

    #[test]
    fn mfcc_dims_and_frame_count() {
        let cfg = MfccConfig::default();
        let samples = vec![0.1_f32; 8000]; // 1 second
        let m = mfcc(&samples, &cfg);
        assert_eq!(m.dim(), 13);
        assert_eq!(m.num_frames(), cfg.frame.num_frames(8000));
    }

    #[test]
    fn distinct_tones_give_distinct_cepstra() {
        let cfg = MfccConfig::default();
        let mk = |f0: f32| -> Vec<f32> {
            (0..4000)
                .map(|i| (2.0 * std::f32::consts::PI * f0 * i as f32 / 8000.0).sin())
                .collect()
        };
        let a = mfcc(&mk(300.0), &cfg);
        let b = mfcc(&mk(2000.0), &cfg);
        // Compare mean cepstra; they must differ substantially.
        let mean = |m: &FrameMatrix| -> Vec<f32> {
            let mut acc = vec![0.0; m.dim()];
            for fr in m.iter() {
                for (a, &v) in acc.iter_mut().zip(fr) {
                    *a += v;
                }
            }
            let n = m.num_frames() as f32;
            acc.iter().map(|v| v / n).collect()
        };
        let (ma, mb) = (mean(&a), mean(&b));
        let dist: f32 = ma
            .iter()
            .zip(&mb)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "cepstral distance too small: {dist}");
    }
}
