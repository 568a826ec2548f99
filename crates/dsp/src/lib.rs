//! Signal-processing substrate for the LRE-DBA reproduction.
//!
//! The paper's front-ends consume 13-dimensional PLP (or MFCC) features plus
//! first- and second-order derivatives, extracted every 10 ms over a 25 ms
//! Hamming window from 8 kHz telephone speech, normalized by CMVN (§4.1).
//! This crate implements that entire path from raw samples, plus the formant
//! waveform synthesizer the synthetic corpus uses in place of real speech:
//!
//! - [`fft`]: iterative radix-2 complex FFT over a precomputed plan (twiddle
//!   and bit-reversal tables) and real power spectra,
//! - [`frame`]: pre-emphasis, framing, Hamming windows,
//! - [`filterbank`]: mel and bark filterbanks,
//! - [`mfcc()`](mfcc::mfcc) / [`plp()`](plp::plp): the two cepstral front-ends,
//! - [`delta`]: derivative appending,
//! - [`cmvn`]: per-utterance cepstral mean/variance normalization,
//! - [`synth`]: a formant synthesizer that renders phone sequences to samples,
//! - [`FrameMatrix`]: the flat row-major `f32` feature container every other
//!   crate consumes.

pub mod cmvn;
pub mod delta;
pub mod fft;
pub mod filterbank;
pub mod frame;
pub mod frames;
pub mod mfcc;
#[cfg(test)]
mod naive;
pub mod plp;
pub mod sdc;
mod spectral;
pub mod synth;

pub use cmvn::cmvn_in_place;
pub use delta::append_deltas;
pub use fft::{fft_in_place, power_spectrum, Complex};
pub use filterbank::{
    bark_filterbank, hz_to_bark, hz_to_mel, mel_filterbank, mel_to_hz, Filterbank,
};
pub use frame::{frame_signal, hamming_window, pre_emphasis, FrameConfig};
pub use frames::FrameMatrix;
pub use mfcc::{mfcc, MfccConfig};
pub use plp::{plp, PlpConfig};
pub use sdc::{sdc, SdcConfig};
pub use synth::{FormantSpec, Segment, SynthConfig, Synthesizer};

#[cfg(test)]
mod pipeline_tests {
    use super::*;

    /// End-to-end smoke test: a synthetic vowel-like tone goes through the
    /// full MFCC and PLP paths and produces finite, non-degenerate features.
    #[test]
    fn tone_through_both_frontends() {
        let sr = 8000.0;
        let samples: Vec<f32> = (0..8000)
            .map(|i| {
                let t = i as f32 / sr;
                (2.0 * std::f32::consts::PI * 500.0 * t).sin()
                    + 0.5 * (2.0 * std::f32::consts::PI * 1500.0 * t).sin()
            })
            .collect();

        let m = mfcc(&samples, &MfccConfig::default());
        let p = plp(&samples, &PlpConfig::default());
        assert!(m.num_frames() > 50);
        assert_eq!(m.num_frames(), p.num_frames());
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
        assert!(p.as_slice().iter().all(|v| v.is_finite()));
        // Features must not be constant across frames.
        let first = m.frame(0).to_vec();
        assert!((0..m.num_frames()).any(|i| m.frame(i) != &first[..]) || m.num_frames() == 1);
    }
}
