//! Test oracle: the original naive MFCC/PLP pipeline, kept verbatim.
//!
//! Every frame re-derives the FFT twiddles by recurrence, swaps the
//! bit-reversal permutation in place, evaluates the DCT-II and the PLP
//! cosine-autocorrelation `cos` terms inline, applies dense filterbank rows
//! and allocates its buffers; the utterance is framed into one materialized
//! windowed copy. The plan-based production pipeline must agree with it on
//! every output bit (`f32::to_bits` / `f64::to_bits`), which the property
//! tests below check on random signals and configurations.

use crate::fft::Complex;
use crate::filterbank::{bark_filterbank, mel_filterbank, Filterbank};
use crate::frame::{hamming_window, pre_emphasis, FrameConfig};
use crate::frames::FrameMatrix;
use crate::mfcc::MfccConfig;
use crate::plp::{equal_loudness, PlpConfig};
use lre_linalg::{levinson_durbin, lpc_to_cepstrum};

pub(crate) fn fft_in_place(buf: &mut [Complex]) {
    let n = buf.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            buf.swap(i, j);
        }
    }

    // Butterflies.
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        let (s, c) = ang.sin_cos();
        let wlen = Complex::new(c as f32, s as f32);
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = buf[i + k];
                let v = buf[i + k + len / 2] * w;
                buf[i + k] = u + v;
                buf[i + k + len / 2] = u - v;
                w = w * wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

pub(crate) fn power_spectrum(frame: &[f32], nfft: usize) -> Vec<f32> {
    assert!(nfft.is_power_of_two());
    assert!(nfft >= frame.len(), "nfft must cover the frame");
    let mut buf = vec![Complex::ZERO; nfft];
    for (b, &x) in buf.iter_mut().zip(frame) {
        b.re = x;
    }
    fft_in_place(&mut buf);
    buf[..=nfft / 2].iter().map(|c| c.norm_sq()).collect()
}

/// Dense filterbank application over every bin.
pub(crate) fn apply_dense(fb: &Filterbank, power: &[f32]) -> Vec<f32> {
    assert_eq!(power.len(), fb.num_bins(), "spectrum length mismatch");
    (0..fb.num_filters())
        .map(|f| fb.filter(f).iter().zip(power).map(|(w, p)| w * p).sum())
        .collect()
}

pub(crate) fn frame_signal(signal: &[f32], cfg: &FrameConfig) -> Vec<f32> {
    let window = hamming_window(cfg.window_len);
    let emphasized = if cfg.pre_emphasis != 0.0 {
        pre_emphasis(signal, cfg.pre_emphasis)
    } else {
        signal.to_vec()
    };
    let nf = cfg.num_frames(emphasized.len());
    let mut out = Vec::with_capacity(nf * cfg.window_len);
    for f in 0..nf {
        let start = f * cfg.hop;
        for (w, &s) in window
            .iter()
            .zip(&emphasized[start..start + cfg.window_len])
        {
            out.push(w * s);
        }
    }
    out
}

pub(crate) fn dct2(x: &[f64], k: usize) -> Vec<f64> {
    let n = x.len();
    assert!(n > 0 && k <= n);
    let norm0 = (1.0 / n as f64).sqrt();
    let norm = (2.0 / n as f64).sqrt();
    (0..k)
        .map(|i| {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += xj
                    * (std::f64::consts::PI * i as f64 * (2.0 * j as f64 + 1.0) / (2.0 * n as f64))
                        .cos();
            }
            acc * if i == 0 { norm0 } else { norm }
        })
        .collect()
}

pub(crate) fn cosine_autocorrelation(spectrum: &[f64], max_lag: usize) -> Vec<f64> {
    let j_max = spectrum.len();
    assert!(j_max >= 2);
    let mut r = vec![0.0; max_lag + 1];
    for (k, rk) in r.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (j, &s) in spectrum.iter().enumerate() {
            let w = if j == 0 || j == j_max - 1 { 0.5 } else { 1.0 };
            acc +=
                w * s * (std::f64::consts::PI * k as f64 * j as f64 / (j_max as f64 - 1.0)).cos();
        }
        *rk = acc / (j_max as f64 - 1.0);
    }
    r
}

pub(crate) fn mfcc(samples: &[f32], cfg: &MfccConfig) -> FrameMatrix {
    let fb = mel_filterbank(
        cfg.num_filters,
        cfg.nfft,
        cfg.frame.sample_rate,
        cfg.f_lo,
        cfg.f_hi,
    );
    let frames = frame_signal(samples, &cfg.frame);
    let wl = cfg.frame.window_len;
    let nf = frames.len() / wl.max(1);
    let mut out = FrameMatrix::with_capacity(cfg.num_ceps, nf);
    let mut ceps_f32 = vec![0.0_f32; cfg.num_ceps];
    for f in 0..nf {
        let ps = power_spectrum(&frames[f * wl..(f + 1) * wl], cfg.nfft);
        let energies = apply_dense(&fb, &ps);
        let peak = energies.iter().fold(1e-10f32, |m, &e| m.max(e));
        let floor = peak * 1e-4 + 1e-10;
        let logs: Vec<f64> = energies
            .iter()
            .map(|&e| (e.max(floor) as f64).ln())
            .collect();
        let ceps = dct2(&logs, cfg.num_ceps);
        for (o, c) in ceps_f32.iter_mut().zip(&ceps) {
            *o = *c as f32;
        }
        out.push(&ceps_f32);
    }
    out
}

pub(crate) fn plp(samples: &[f32], cfg: &PlpConfig) -> FrameMatrix {
    let fb = bark_filterbank(
        cfg.num_bands,
        cfg.nfft,
        cfg.frame.sample_rate,
        cfg.f_lo,
        cfg.f_hi,
    );
    let loudness: Vec<f32> = fb.centers_hz.iter().map(|&hz| equal_loudness(hz)).collect();
    let frames = frame_signal(samples, &cfg.frame);
    let wl = cfg.frame.window_len;
    let nf = frames.len() / wl.max(1);

    let mut out = FrameMatrix::with_capacity(cfg.num_ceps, nf);
    let mut ceps_f32 = vec![0.0_f32; cfg.num_ceps];
    for f in 0..nf {
        let ps = power_spectrum(&frames[f * wl..(f + 1) * wl], cfg.nfft);
        let bands = apply_dense(&fb, &ps);
        let peak = bands
            .iter()
            .zip(&loudness)
            .fold(1e-10f32, |m, (&e, &w)| m.max(e * w));
        let floor = peak * 1e-4 + 1e-10;
        let compressed: Vec<f64> = bands
            .iter()
            .zip(&loudness)
            .map(|(&e, &w)| ((e * w).max(floor) as f64).powf(1.0 / 3.0))
            .collect();
        let r = cosine_autocorrelation(&compressed, cfg.lpc_order);
        let ceps = match levinson_durbin(&r, cfg.lpc_order) {
            Some(lpc) => lpc_to_cepstrum(&lpc.coeffs, lpc.error, cfg.num_ceps - 1),
            None => vec![0.0; cfg.num_ceps],
        };
        for (o, c) in ceps_f32.iter_mut().zip(&ceps) {
            *o = *c as f32;
        }
        out.push(&ceps_f32);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits32(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn bits64(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `raw` scaled by `amp`, with the run of `silent.1` samples starting at
    /// `silent.0` set to exact zeros (silence inside speech).
    fn signal(raw: &[f32], amp: f32, silent: (usize, usize)) -> Vec<f32> {
        let (a, b) = (silent.0.min(raw.len()), silent.1.min(raw.len()));
        raw.iter()
            .enumerate()
            .map(|(i, &x)| if i >= a && i < a + b { 0.0 } else { amp * x })
            .collect()
    }

    fn frame_cfg(pre: bool, window_len: usize, hop: usize) -> FrameConfig {
        FrameConfig {
            sample_rate: 8000.0,
            window_len,
            hop,
            pre_emphasis: if pre { 0.97 } else { 0.0 },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn mfcc_matches_naive_bits(
            raw in prop::collection::vec(-1.0f32..1.0, 0..2600),
            amp in 1e-4f32..30.0,
            silent in (0usize..2600, 0usize..1200),
        ) {
            let s = signal(&raw, amp, silent);
            let cfg = MfccConfig::default();
            prop_assert_eq!(
                bits32(crate::mfcc(&s, &cfg).as_slice()),
                bits32(mfcc(&s, &cfg).as_slice())
            );
        }

        #[test]
        fn plp_matches_naive_bits(
            raw in prop::collection::vec(-1.0f32..1.0, 0..2600),
            amp in 1e-4f32..30.0,
            silent in (0usize..2600, 0usize..1200),
        ) {
            let s = signal(&raw, amp, silent);
            let cfg = PlpConfig::default();
            prop_assert_eq!(
                bits32(crate::plp(&s, &cfg).as_slice()),
                bits32(plp(&s, &cfg).as_slice())
            );
        }

        #[test]
        fn non_default_configs_match_naive_bits(
            raw in prop::collection::vec(-1.0f32..1.0, 0..3000),
            pre in prop::bool::ANY,
            window_len in 100usize..400,
            hop in 40usize..160,
            filters in 8usize..30,
            lpc_order in 4usize..14,
        ) {
            let nfft = window_len.next_power_of_two();
            let frame = frame_cfg(pre, window_len, hop);
            let m = MfccConfig {
                frame,
                nfft,
                num_filters: filters,
                num_ceps: filters.min(13),
                ..MfccConfig::default()
            };
            prop_assert_eq!(
                bits32(crate::mfcc(&raw, &m).as_slice()),
                bits32(mfcc(&raw, &m).as_slice())
            );
            let p = PlpConfig {
                frame,
                nfft,
                num_bands: filters,
                lpc_order,
                num_ceps: lpc_order + 1,
                ..PlpConfig::default()
            };
            prop_assert_eq!(
                bits32(crate::plp(&raw, &p).as_slice()),
                bits32(plp(&raw, &p).as_slice())
            );
        }

        #[test]
        fn framing_matches_naive_bits(
            raw in prop::collection::vec(-1.0f32..1.0, 0..1500),
            pre in prop::bool::ANY,
            window_len in 1usize..300,
            hop in 1usize..200,
        ) {
            let cfg = frame_cfg(pre, window_len, hop);
            prop_assert_eq!(
                bits32(&crate::frame::frame_signal(&raw, &cfg)),
                bits32(&frame_signal(&raw, &cfg))
            );
        }

        #[test]
        fn fft_matches_naive_bits(
            log_n in 0u32..10,
            vals in prop::collection::vec(-4.0f32..4.0, 1024),
        ) {
            let n = 1usize << log_n;
            let buf: Vec<Complex> = (0..n).map(|i| Complex::new(vals[i], vals[1023 - i])).collect();
            let (mut got, mut want) = (buf.clone(), buf);
            crate::fft::fft_in_place(&mut got);
            fft_in_place(&mut want);
            let flat = |b: &[Complex]| b.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect::<Vec<_>>();
            prop_assert_eq!(flat(&got), flat(&want));
        }

        #[test]
        fn power_spectrum_matches_naive_bits(
            frame in prop::collection::vec(-1.0f32..1.0, 0..512),
            log_extra in 0u32..2,
        ) {
            let nfft = frame.len().max(1).next_power_of_two() << log_extra;
            prop_assert_eq!(
                bits32(&crate::fft::power_spectrum(&frame, nfft)),
                bits32(&power_spectrum(&frame, nfft))
            );
        }

        #[test]
        fn filterbank_matches_dense_bits(
            power in prop::collection::vec(0.0f32..100.0, 129),
            zeros in prop::collection::vec(prop::bool::ANY, 129),
            filters in 4usize..30,
        ) {
            // Exact zero bins exercise the `+0.0` terms the sparse path skips.
            let power: Vec<f32> = power.iter().zip(&zeros).map(|(&p, &z)| if z { 0.0 } else { p }).collect();
            for fb in [
                mel_filterbank(filters, 256, 8000.0, 100.0, 3800.0),
                bark_filterbank(filters, 256, 8000.0, 100.0, 3800.0),
            ] {
                prop_assert_eq!(bits32(&fb.apply(&power)), bits32(&apply_dense(&fb, &power)));
            }
        }

        #[test]
        fn dct2_matches_naive_bits(
            x in prop::collection::vec(-30.0f64..30.0, 1..40),
            keep in 0.0f64..1.0,
        ) {
            let k = ((x.len() as f64 * keep) as usize).min(x.len());
            prop_assert_eq!(bits64(&crate::mfcc::dct2(&x, k)), bits64(&dct2(&x, k)));
        }

        #[test]
        fn cosine_autocorrelation_matches_naive_bits(
            s in prop::collection::vec(0.0f64..10.0, 2..40),
            max_lag in 0usize..16,
        ) {
            let mut r = vec![0.0; max_lag + 1];
            crate::plp::CosineAutocorrelation::new(s.len(), max_lag).apply(&s, &mut r);
            prop_assert_eq!(bits64(&r), bits64(&cosine_autocorrelation(&s, max_lag)));
        }
    }
}
