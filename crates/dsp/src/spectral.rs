//! The front half shared by the MFCC and PLP pipelines: framing,
//! windowing, power spectrum and filterbank energies, with every
//! loop-invariant table (window, FFT plan, filter supports) built once per
//! configuration instead of once per frame.

use crate::fft::FftPlan;
use crate::filterbank::Filterbank;
use crate::frame::{hamming_window, window_frame_into, FrameConfig};
use crate::frames::FrameMatrix;

/// Precomputed spectral analysis for one framing/FFT/filterbank setup.
#[derive(Clone, Debug)]
pub(crate) struct SpectralPlan {
    frame: FrameConfig,
    window: Vec<f32>,
    fft: FftPlan,
    bank: Filterbank,
}

impl SpectralPlan {
    /// `nfft` must be a power of two covering `frame.window_len`.
    pub(crate) fn new(frame: FrameConfig, nfft: usize, bank: Filterbank) -> Self {
        let fft = FftPlan::new(nfft);
        assert!(nfft >= frame.window_len, "nfft must cover the frame");
        assert_eq!(
            bank.num_bins(),
            nfft / 2 + 1,
            "filterbank/FFT size mismatch"
        );
        Self {
            window: hamming_window(frame.window_len),
            frame,
            fft,
            bank,
        }
    }

    /// Run the frame loop over `samples`: each frame is pre-emphasized,
    /// Hamming-windowed, zero-padded to the FFT size and reduced to
    /// filterbank energies, which `cepstra` maps to one `dim`-wide output
    /// row. Working buffers are allocated once per call, not per frame.
    pub(crate) fn analyze(
        &self,
        samples: &[f32],
        dim: usize,
        mut cepstra: impl FnMut(&[f32], &mut [f32]),
    ) -> FrameMatrix {
        let nf = if self.frame.window_len == 0 {
            0
        } else {
            self.frame.num_frames(samples.len())
        };
        let n = self.fft.len();
        let mut frame = vec![0.0; self.frame.window_len];
        let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
        let mut power = vec![0.0; n / 2 + 1];
        let mut energies = vec![0.0; self.bank.num_filters()];
        let mut row = vec![0.0; dim];
        let mut out = FrameMatrix::with_capacity(dim, nf);
        for f in 0..nf {
            let start = f * self.frame.hop;
            window_frame_into(
                samples,
                start,
                self.frame.pre_emphasis,
                &self.window,
                &mut frame,
            );
            self.fft
                .power_spectrum_into(&frame, &mut re, &mut im, &mut power);
            self.bank.apply_into(&power, &mut energies);
            cepstra(&energies, &mut row);
            out.push(&row);
        }
        out
    }
}
