//! Bit-level pins on the MFCC/PLP front-ends.
//!
//! Each case hashes the full output matrix (dimension, frame count and every
//! value's `f32::to_bits`) with 64-bit FNV-1a and compares it against a
//! digest captured from the original naive pipeline (per-call FFT twiddle
//! recurrence, per-frame `cos` tables, dense filterbanks). Any change to the
//! front-end's arithmetic — reassociation, contraction, a different
//! transcendental — shows up here as a digest mismatch, while an
//! implementation change that keeps every bit passes.
//!
//! The input signals use integer xorshift noise and fixed-coefficient
//! resonators only, so they do not depend on the platform's libm.

use lre_am::{extract_features, FeatureKind};
use lre_dsp::{mfcc, plp, FrameMatrix, MfccConfig, PlpConfig};

/// Samples in an utterance of `frames` default frames (25 ms window, 10 ms hop).
fn samples_for(frames: usize) -> usize {
    200 + (frames - 1) * 80
}

/// A seeded speech-like signal: a glottal pulse train whose period wanders,
/// mixed with noise and passed through three two-pole formant resonators,
/// with voiced and unvoiced stretches.
fn speech_like(seed: u64, n: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // (a1, a2) of y[n] = x[n] + a1 y[n-1] + a2 y[n-2]; pole radii 0.9/0.85/0.8.
    let resonators = [(1.62_f64, -0.81_f64), (0.35, -0.7225), (-1.1, -0.64)];
    let mut hist = [(0.0_f64, 0.0_f64); 3];
    let mut period = 60_usize;
    let mut voiced = true;
    let mut phase = 0_usize;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        if i % 400 == 0 {
            period = 45 + (next() % 50) as usize;
            voiced = next() % 4 != 0;
        }
        let noise = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let pulse = if voiced && phase == 0 { 1.0 } else { 0.0 };
        phase = (phase + 1) % period;
        let x = pulse + if voiced { 0.02 } else { 0.3 } * noise;
        let mut y = 0.0;
        for ((a1, a2), (y1, y2)) in resonators.iter().zip(hist.iter_mut()) {
            let v = x + a1 * *y1 + a2 * *y2;
            *y2 = *y1;
            *y1 = v;
            y += v;
        }
        out.push((0.05 * y) as f32);
    }
    out
}

/// 64-bit FNV-1a over dimension, frame count and every value's bits.
fn digest(m: &FrameMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(m.dim() as u64).to_le_bytes());
    eat(&(m.num_frames() as u64).to_le_bytes());
    for v in m.as_slice() {
        eat(&v.to_bits().to_le_bytes());
    }
    h
}

/// The pinned inputs: name and samples.
fn inputs() -> Vec<(&'static str, Vec<f32>)> {
    vec![
        ("seed1_75f", speech_like(1, samples_for(75))),
        ("seed2_75f", speech_like(2, samples_for(75))),
        ("seed3_750f", speech_like(3, samples_for(750))),
        ("seed4_750f", speech_like(4, samples_for(750))),
        ("silence_50f", vec![0.0; samples_for(50)]),
        ("short_150", speech_like(5, 150)),
    ]
}

/// Compare every case's digest and report all mismatches at once, so a
/// failure shows the full picture.
fn check(what: &str, expect: &[(&str, u64)], f: impl Fn(&[f32]) -> FrameMatrix) {
    let got: Vec<(&str, u64)> = inputs()
        .iter()
        .map(|(name, s)| (*name, digest(&f(s))))
        .collect();
    let names: Vec<&str> = expect.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        got.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        "case list changed"
    );
    let bad: Vec<String> = expect
        .iter()
        .zip(&got)
        .filter(|(e, g)| e.1 != g.1)
        .map(|(e, g)| format!("{}: expected {:#018x}, got {:#018x}", e.0, e.1, g.1))
        .collect();
    assert!(
        bad.is_empty(),
        "{what} output bits changed:\n{}",
        bad.join("\n")
    );
}

#[test]
fn signal_generator_is_stable() {
    let s = speech_like(1, samples_for(75));
    assert_eq!(s.len(), 6120);
    assert!(s.iter().all(|v| v.is_finite()));
    let peak = s.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    assert!(peak > 0.05 && peak < 10.0, "peak {peak}");
}

#[test]
fn mfcc_bits_are_pinned() {
    check(
        "mfcc",
        &[
            ("seed1_75f", 0x60b2_5e26_2d7e_9381),
            ("seed2_75f", 0xbf02_6562_646b_b171),
            ("seed3_750f", 0x2a5c_aef4_430d_615a),
            ("seed4_750f", 0x96a0_8f2b_1537_e9e9),
            ("silence_50f", 0xccd4_a16f_bfe4_9c9a),
            ("short_150", 0x751a_6111_9a3e_ad28),
        ],
        |s| mfcc(s, &MfccConfig::default()),
    );
}

#[test]
fn plp_bits_are_pinned() {
    check(
        "plp",
        &[
            ("seed1_75f", 0x89e3_da56_d656_106b),
            ("seed2_75f", 0x79c8_1541_20e4_de55),
            ("seed3_750f", 0x711d_3f5f_33e5_e843),
            ("seed4_750f", 0x96f4_71fc_8264_afa3),
            ("silence_50f", 0xaac9_915b_916f_497a),
            ("short_150", 0x751a_6111_9a3e_ad28),
        ],
        |s| plp(s, &PlpConfig::default()),
    );
}

#[test]
fn extract_features_mfcc_bits_are_pinned() {
    check(
        "extract_features(Mfcc)",
        &[
            ("seed1_75f", 0xa67c_3cb4_08d1_f16f),
            ("seed2_75f", 0x00fe_09ec_207a_22d7),
            ("seed3_750f", 0xd8a3_6005_1ad9_af06),
            ("seed4_750f", 0xce06_f334_7876_eacc),
            ("silence_50f", 0x3656_3123_bfc6_7770),
            ("short_150", 0xbb63_255e_c51d_1382),
        ],
        |s| extract_features(s, FeatureKind::Mfcc),
    );
}

#[test]
fn extract_features_plp_bits_are_pinned() {
    check(
        "extract_features(Plp)",
        &[
            ("seed1_75f", 0x0eeb_0683_00a6_aa01),
            ("seed2_75f", 0xce27_037e_c2c2_5c47),
            ("seed3_750f", 0xdbe6_3437_4ca9_785b),
            ("seed4_750f", 0xdb3d_f1e3_242a_8b64),
            ("silence_50f", 0x3656_3123_bfc6_7770),
            ("short_150", 0xbb63_255e_c51d_1382),
        ],
        |s| extract_features(s, FeatureKind::Plp),
    );
}
