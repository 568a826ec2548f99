//! Pre-emphasis, framing and windowing.

/// Framing parameters. The paper's setting (§4.1): 25 ms Hamming window
/// every 10 ms at 8 kHz telephone bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameConfig {
    /// Sample rate in Hz.
    pub sample_rate: f32,
    /// Window length in samples.
    pub window_len: usize,
    /// Hop (frame shift) in samples.
    pub hop: usize,
    /// Pre-emphasis coefficient (0 disables).
    pub pre_emphasis: f32,
}

impl Default for FrameConfig {
    fn default() -> Self {
        Self {
            sample_rate: 8000.0,
            window_len: 200,
            hop: 80,
            pre_emphasis: 0.97,
        }
    }
}

impl FrameConfig {
    /// Number of whole frames extractable from `n` samples.
    pub fn num_frames(&self, n: usize) -> usize {
        if n < self.window_len {
            0
        } else {
            (n - self.window_len) / self.hop + 1
        }
    }
}

/// First-order pre-emphasis filter `y[n] = x[n] - a x[n-1]`.
pub fn pre_emphasis(x: &[f32], a: f32) -> Vec<f32> {
    if x.is_empty() {
        return Vec::new();
    }
    let mut y = Vec::with_capacity(x.len());
    y.push(x[0]);
    for i in 1..x.len() {
        y.push(x[i] - a * x[i - 1]);
    }
    y
}

/// Hamming window of length `n`.
pub fn hamming_window(n: usize) -> Vec<f32> {
    if n == 1 {
        return vec![1.0];
    }
    (0..n)
        .map(|i| 0.54 - 0.46 * (2.0 * std::f32::consts::PI * i as f32 / (n as f32 - 1.0)).cos())
        .collect()
}

/// Cut `signal` into overlapping windowed frames.
///
/// Returns a flat buffer of `num_frames * window_len` samples; caller knows
/// the stride.
pub fn frame_signal(signal: &[f32], cfg: &FrameConfig) -> Vec<f32> {
    let window = hamming_window(cfg.window_len);
    let nf = cfg.num_frames(signal.len());
    let mut out = vec![0.0; nf * cfg.window_len];
    for (f, frame) in out.chunks_exact_mut(cfg.window_len.max(1)).enumerate() {
        window_frame_into(signal, f * cfg.hop, cfg.pre_emphasis, &window, frame);
    }
    out
}

/// Pre-emphasize (coefficient `a`, 0 disables) and window the frame of
/// `signal` that starts at sample `start`, writing `window.len()` samples
/// to `out`. The filter runs on the fly over the frame's own samples and
/// the one before it, with the same arithmetic as [`pre_emphasis`], so no
/// emphasized copy of the whole signal is needed.
pub(crate) fn window_frame_into(
    signal: &[f32],
    start: usize,
    a: f32,
    window: &[f32],
    out: &mut [f32],
) {
    let samples = &signal[start..start + window.len()];
    for (i, ((o, &w), &x)) in out.iter_mut().zip(window).zip(samples).enumerate() {
        let k = start + i;
        let y = if a != 0.0 && k > 0 {
            x - a * signal[k - 1]
        } else {
            x
        };
        *o = w * y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn num_frames_formula() {
        let cfg = FrameConfig {
            sample_rate: 8000.0,
            window_len: 200,
            hop: 80,
            pre_emphasis: 0.0,
        };
        assert_eq!(cfg.num_frames(199), 0);
        assert_eq!(cfg.num_frames(200), 1);
        assert_eq!(cfg.num_frames(280), 2);
        assert_eq!(cfg.num_frames(8000), (8000 - 200) / 80 + 1);
    }

    #[test]
    fn pre_emphasis_dc_removal() {
        // A constant signal should be almost annihilated (except first sample).
        let y = pre_emphasis(&[1.0; 10], 1.0);
        assert_eq!(y[0], 1.0);
        for &v in &y[1..] {
            assert!(v.abs() < 1e-7);
        }
    }

    #[test]
    fn hamming_endpoints_and_symmetry() {
        let w = hamming_window(11);
        assert!((w[0] - 0.08).abs() < 1e-6);
        assert!((w[10] - 0.08).abs() < 1e-6);
        assert!((w[5] - 1.0).abs() < 1e-6);
        for i in 0..w.len() {
            assert!((w[i] - w[w.len() - 1 - i]).abs() < 1e-6);
        }
    }

    #[test]
    fn framing_produces_expected_count_and_window_applied() {
        let cfg = FrameConfig {
            sample_rate: 8000.0,
            window_len: 4,
            hop: 2,
            pre_emphasis: 0.0,
        };
        let sig = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let frames = frame_signal(&sig, &cfg);
        assert_eq!(frames.len(), 2 * 4);
        let w = hamming_window(4);
        for (got, want) in frames[..4].iter().zip(&w) {
            assert!((got - want).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_signal_is_fine() {
        let cfg = FrameConfig::default();
        assert!(frame_signal(&[], &cfg).is_empty());
        assert!(pre_emphasis(&[], 0.97).is_empty());
    }
}
