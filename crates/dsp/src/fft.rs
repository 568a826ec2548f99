//! Iterative radix-2 Cooley-Tukey FFT over a precomputed plan.

/// Minimal complex number for the FFT (we avoid pulling in a numerics crate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Complex {
    pub re: f32,
    pub im: f32,
}

impl Complex {
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };

    #[inline]
    pub fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, other: Complex) -> Complex {
        Complex::new(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, other: Complex) -> Complex {
        Complex::new(self.re + other.re, self.im + other.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, other: Complex) -> Complex {
        Complex::new(self.re - other.re, self.im - other.im)
    }
}

/// Precomputed tables for `n`-point radix-2 FFTs: the bit-reversal
/// permutation and every butterfly stage's twiddle factors.
///
/// The stage of half-width `h` keeps its `h` twiddles at `[h - 1, 2h - 1)`.
/// They come from the same `w ← w·wlen` f32 recurrence a stage would run
/// inline, so the plan reproduces the textbook iterative FFT bit for bit.
#[derive(Clone, Debug)]
pub(crate) struct FftPlan {
    bitrev: Vec<usize>,
    tw_re: Vec<f32>,
    tw_im: Vec<f32>,
}

impl FftPlan {
    /// Plan for `n`-point transforms. `n` must be a power of two.
    pub(crate) fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two(),
            "FFT length must be a power of two, got {n}"
        );
        let shift = usize::BITS - n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| i.reverse_bits().checked_shr(shift).unwrap_or(0))
            .collect();
        let mut tw_re = Vec::with_capacity(n - 1);
        let mut tw_im = Vec::with_capacity(n - 1);
        let mut len = 2;
        while len <= n {
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            let (s, c) = ang.sin_cos();
            let wlen = Complex::new(c as f32, s as f32);
            let mut w = Complex::new(1.0, 0.0);
            for _ in 0..len / 2 {
                tw_re.push(w.re);
                tw_im.push(w.im);
                w = w * wlen;
            }
            len <<= 1;
        }
        Self {
            bitrev,
            tw_re,
            tw_im,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.bitrev.len()
    }

    /// Forward transform of split real/imaginary buffers that already hold
    /// the input in bit-reversed order; the output is in natural order.
    fn butterflies(&self, re: &mut [f32], im: &mut [f32]) {
        let n = self.len();
        assert!(re.len() == n && im.len() == n, "FFT buffer length mismatch");
        let mut h = 1;
        while h < n {
            let tw = self.tw_re[h - 1..2 * h - 1]
                .iter()
                .zip(&self.tw_im[h - 1..2 * h - 1]);
            for (re, im) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
                let (a_re, b_re) = re.split_at_mut(h);
                let (a_im, b_im) = im.split_at_mut(h);
                let pairs = a_re.iter_mut().zip(a_im).zip(b_re.iter_mut().zip(b_im));
                for (((ar, ai), (br, bi)), (&wr, &wi)) in pairs.zip(tw.clone()) {
                    // v = b·w, then (a, b) ← (a + v, a − v): the same
                    // per-element arithmetic as `Complex` mul/add/sub.
                    let vr = *br * wr - *bi * wi;
                    let vi = *br * wi + *bi * wr;
                    let (ur, ui) = (*ar, *ai);
                    *ar = ur + vr;
                    *ai = ui + vi;
                    *br = ur - vr;
                    *bi = ui - vi;
                }
            }
            h <<= 1;
        }
    }

    /// `|X[k]|²` for `k = 0..=n/2` of the real `frame` zero-padded to `n`,
    /// written to `power`. `re` and `im` are length-`n` scratch.
    pub(crate) fn power_spectrum_into(
        &self,
        frame: &[f32],
        re: &mut [f32],
        im: &mut [f32],
        power: &mut [f32],
    ) {
        let n = self.len();
        assert!(n >= frame.len(), "nfft must cover the frame");
        assert_eq!(power.len(), n / 2 + 1, "power spectrum length mismatch");
        re.fill(0.0);
        im.fill(0.0);
        for (&x, &j) in frame.iter().zip(&self.bitrev) {
            re[j] = x;
        }
        self.butterflies(re, im);
        for ((p, &r), &i) in power.iter_mut().zip(&*re).zip(&*im) {
            *p = r * r + i * i;
        }
    }
}

/// In-place forward FFT. `buf.len()` must be a power of two.
pub fn fft_in_place(buf: &mut [Complex]) {
    let plan = FftPlan::new(buf.len());
    let mut re = vec![0.0; buf.len()];
    let mut im = vec![0.0; buf.len()];
    for (c, &j) in buf.iter().zip(&plan.bitrev) {
        re[j] = c.re;
        im[j] = c.im;
    }
    plan.butterflies(&mut re, &mut im);
    for (c, (&r, &i)) in buf.iter_mut().zip(re.iter().zip(&im)) {
        *c = Complex::new(r, i);
    }
}

/// Power spectrum (`|X[k]|²` for `k = 0..=n/2`) of a real frame, zero-padded to
/// `nfft` (must be a power of two and ≥ `frame.len()`).
pub fn power_spectrum(frame: &[f32], nfft: usize) -> Vec<f32> {
    let plan = FftPlan::new(nfft);
    let mut re = vec![0.0; nfft];
    let mut im = vec![0.0; nfft];
    let mut power = vec![0.0; nfft / 2 + 1];
    plan.power_spectrum_into(frame, &mut re, &mut im, &mut power);
    power
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dft_naive(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::ZERO;
                for (j, &xj) in x.iter().enumerate() {
                    let ang = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                    let w = Complex::new(ang.cos() as f32, ang.sin() as f32);
                    acc = acc + xj * w;
                }
                acc
            })
            .collect()
    }

    #[test]
    fn matches_naive_dft() {
        let x: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let expect = dft_naive(&x);
        let mut got = x.clone();
        fft_in_place(&mut got);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g.re - e.re).abs() < 1e-4, "{g:?} vs {e:?}");
            assert!((g.im - e.im).abs() < 1e-4);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut buf = vec![Complex::ZERO; 8];
        buf[0].re = 1.0;
        fft_in_place(&mut buf);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-6 && c.im.abs() < 1e-6);
        }
    }

    #[test]
    fn pure_tone_peaks_at_its_bin() {
        let n = 64;
        let k0 = 5;
        let x: Vec<f32> = (0..n)
            .map(|i| (2.0 * std::f32::consts::PI * k0 as f32 * i as f32 / n as f32).cos())
            .collect();
        let ps = power_spectrum(&x, n);
        let peak = ps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, k0);
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<f32> = (0..32).map(|i| ((i * i) as f32 * 0.013).sin()).collect();
        let time_energy: f32 = x.iter().map(|v| v * v).sum();
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        fft_in_place(&mut buf);
        let freq_energy: f32 = buf.iter().map(|c| c.norm_sq()).sum::<f32>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-3 * time_energy.max(1.0));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_panics() {
        let mut buf = vec![Complex::ZERO; 12];
        fft_in_place(&mut buf);
    }
}
