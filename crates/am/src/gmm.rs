//! Diagonal-covariance Gaussian mixture models.

use rand::RngExt;

/// Minimum variance floor, applied per dimension. Features entering the
/// models are CMVN-normalized (unit variance overall), so a floor well below
/// 1.0 but far above numerical noise keeps sparsely-trained states from
/// becoming high-density "absorber" states that swallow every frame.
const VAR_FLOOR: f32 = 5e-2;

/// Below this argument libm `expf` returns exactly `+0.0`: the smallest
/// subnormal is `e^-103.28`, and glibc rounds everything under
/// `-103.972…` (half of it) to zero.
pub const EXP_UNDERFLOW_CUT: f32 = -104.0;

/// Below this argument `expf` is under `2^-24`, less than half an ulp of
/// any sum `≥ 1`, so adding it leaves such a sum unchanged.
pub const EXP_TAIL_CUT: f32 = -17.0;

/// Below this argument `expf` is under `2^-28`: up to 15 such terms sum to
/// less than `2^-24`, which rounds away when `1.0` is added to it.
pub const EXP_LEAD_CUT: f32 = -20.0;

/// A diagonal-covariance GMM over `dim`-dimensional frames.
///
/// Parameters are stored flat (`num_mix × dim`) and the per-mixture constant
/// `log w_m - ½Σlog(2πσ²)` is precomputed, so scoring one frame is a single
/// fused loop per mixture — this is the innermost hot path of the whole
/// system (it runs once per HMM state per frame).
#[derive(Clone, Debug)]
pub struct DiagGmm {
    dim: usize,
    num_mix: usize,
    /// Flat `num_mix × dim` means.
    means: Vec<f32>,
    /// Flat `num_mix × dim` *inverse* variances (precomputed reciprocals).
    inv_vars: Vec<f32>,
    /// Per-mixture constant: `ln w_m - ½ Σ_d ln(2π σ²_{m,d})`.
    log_consts: Vec<f32>,
    /// Normalized mixture weights (kept for model surgery/diagnostics).
    weights: Vec<f32>,
}

impl DiagGmm {
    /// Train a GMM on `frames` (flat `n × dim`) with k-means init + EM.
    ///
    /// `num_mix` is clamped down when there are too few frames. Returns a
    /// single-Gaussian fallback model if `frames` is empty.
    pub fn train<R: RngExt>(
        frames: &[f32],
        dim: usize,
        num_mix: usize,
        em_iters: usize,
        rng: &mut R,
    ) -> DiagGmm {
        assert!(dim > 0);
        let n = frames.len() / dim;
        if n == 0 {
            // Degenerate: unit Gaussian at the origin.
            // Degenerate: broad unit Gaussian at the origin (the global
            // feature transform makes this the population distribution).
            return Self::from_params(vec![0.0; dim], vec![2.0; dim], vec![1.0], dim);
        }
        let m = num_mix.min(n).max(1);

        // --- k-means initialization -------------------------------------------------
        let mut means = Vec::with_capacity(m * dim);
        for _ in 0..m {
            let pick = rng.random_range(0..n);
            means.extend_from_slice(&frames[pick * dim..(pick + 1) * dim]);
        }
        let mut assign = vec![0usize; n];
        for _ in 0..4 {
            // Assign.
            for (i, a) in assign.iter_mut().enumerate() {
                let x = &frames[i * dim..(i + 1) * dim];
                let mut best = (f32::INFINITY, 0usize);
                for c in 0..m {
                    let mu = &means[c * dim..(c + 1) * dim];
                    let d: f32 = x.iter().zip(mu).map(|(a, b)| (a - b) * (a - b)).sum();
                    if d < best.0 {
                        best = (d, c);
                    }
                }
                *a = best.1;
            }
            // Update.
            let mut counts = vec![0f32; m];
            let mut sums = vec![0f32; m * dim];
            for (i, &a) in assign.iter().enumerate() {
                counts[a] += 1.0;
                let x = &frames[i * dim..(i + 1) * dim];
                for (s, &v) in sums[a * dim..(a + 1) * dim].iter_mut().zip(x) {
                    *s += v;
                }
            }
            for c in 0..m {
                if counts[c] > 0.0 {
                    for d in 0..dim {
                        means[c * dim + d] = sums[c * dim + d] / counts[c];
                    }
                }
            }
        }

        // --- Initial variances/weights from the hard assignment ---------------------
        let mut weights = vec![0f32; m];
        let mut vars = vec![0f32; m * dim];
        for (i, &a) in assign.iter().enumerate() {
            weights[a] += 1.0;
            let x = &frames[i * dim..(i + 1) * dim];
            for d in 0..dim {
                let diff = x[d] - means[a * dim + d];
                vars[a * dim + d] += diff * diff;
            }
        }
        for c in 0..m {
            let w = weights[c].max(1.0);
            for d in 0..dim {
                vars[c * dim + d] = (vars[c * dim + d] / w).max(VAR_FLOOR);
            }
        }
        let total: f32 = weights.iter().sum();
        weights.iter_mut().for_each(|w| *w = (*w / total).max(1e-6));

        let mut gmm = Self::from_params(means, vars, weights, dim);

        // --- EM refinement ------------------------------------------------------------
        let mut resp = vec![0f32; m];
        for _ in 0..em_iters {
            let mut new_w = vec![0f32; m];
            let mut new_mu = vec![0f32; m * dim];
            let mut new_var = vec![0f32; m * dim];
            for i in 0..n {
                let x = &frames[i * dim..(i + 1) * dim];
                gmm.posteriors(x, &mut resp);
                for c in 0..m {
                    let r = resp[c];
                    if r < 1e-8 {
                        continue;
                    }
                    new_w[c] += r;
                    for d in 0..dim {
                        new_mu[c * dim + d] += r * x[d];
                        new_var[c * dim + d] += r * x[d] * x[d];
                    }
                }
            }
            let total: f32 = new_w.iter().sum();
            let mut means = vec![0f32; m * dim];
            let mut vars = vec![0f32; m * dim];
            let mut weights = vec![0f32; m];
            for c in 0..m {
                let wc = new_w[c].max(1e-6);
                weights[c] = (new_w[c] / total).max(1e-6);
                for d in 0..dim {
                    let mu = new_mu[c * dim + d] / wc;
                    means[c * dim + d] = mu;
                    vars[c * dim + d] = (new_var[c * dim + d] / wc - mu * mu).max(VAR_FLOOR);
                }
            }
            gmm = Self::from_params(means, vars, weights, dim);
        }
        gmm
    }

    /// Return a copy with an extra broad "background" component: a zero-mean
    /// Gaussian with `var_scale` × unit variance and mixture weight `w_bg`.
    /// Features are globally normalized upstream, so zero-mean/scaled-unit
    /// is the population distribution; the component acts as a likelihood
    /// floor for off-distribution frames.
    pub fn with_background(&self, w_bg: f32, var_scale: f32) -> DiagGmm {
        assert!((0.0..1.0).contains(&w_bg));
        let dim = self.dim;
        let mut means = self.means.clone();
        means.extend(std::iter::repeat_n(0.0f32, dim));
        let mut vars: Vec<f32> = self.inv_vars.iter().map(|iv| 1.0 / iv).collect();
        vars.extend(std::iter::repeat_n(var_scale, dim));
        let mut weights: Vec<f32> = self.weights.iter().map(|w| w * (1.0 - w_bg)).collect();
        weights.push(w_bg);
        Self::from_params(means, vars, weights, dim)
    }

    /// Build from explicit parameters (weights need not be normalized).
    pub fn from_params(means: Vec<f32>, vars: Vec<f32>, weights: Vec<f32>, dim: usize) -> DiagGmm {
        let num_mix = weights.len();
        assert_eq!(means.len(), num_mix * dim);
        assert_eq!(vars.len(), num_mix * dim);
        let wsum: f32 = weights.iter().sum();
        let norm_weights: Vec<f32> = weights.iter().map(|w| (w / wsum).max(1e-10)).collect();
        let ln2pi = (2.0 * std::f32::consts::PI).ln();
        let mut inv_vars = Vec::with_capacity(num_mix * dim);
        let mut log_consts = Vec::with_capacity(num_mix);
        for c in 0..num_mix {
            let mut log_det = 0.0f32;
            for d in 0..dim {
                let v = vars[c * dim + d].max(VAR_FLOOR);
                inv_vars.push(1.0 / v);
                log_det += v.ln();
            }
            log_consts
                .push((weights[c] / wsum).max(1e-10).ln() - 0.5 * (dim as f32 * ln2pi + log_det));
        }
        DiagGmm {
            dim,
            num_mix,
            means,
            inv_vars,
            log_consts,
            weights: norm_weights,
        }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    #[inline]
    pub fn num_mix(&self) -> usize {
        self.num_mix
    }

    /// Normalized mixture weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Log-likelihood of one frame: `ln Σ_m w_m N(x; μ_m, σ²_m)`.
    pub fn log_likelihood(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.dim);
        let mut max = f32::NEG_INFINITY;
        let mut comps = [0f32; 16]; // stack buffer; num_mix is small
        debug_assert!(self.num_mix <= 16);
        for (c, slot) in comps.iter_mut().enumerate().take(self.num_mix) {
            let mu = &self.means[c * self.dim..(c + 1) * self.dim];
            let iv = &self.inv_vars[c * self.dim..(c + 1) * self.dim];
            let mut q = 0.0f32;
            for d in 0..self.dim {
                let diff = x[d] - mu[d];
                q += diff * diff * iv[d];
            }
            let l = self.log_consts[c] - 0.5 * q;
            *slot = l;
            if l > max {
                max = l;
            }
        }
        // Log-sum-exp.
        let mut sum = 0.0f32;
        for &l in &comps[..self.num_mix] {
            sum += (l - max).exp();
        }
        max + sum.ln()
    }

    /// Log-likelihood of every frame in a **transposed** block, written to
    /// `out` (`n = out.len()` frames; `ft[d · n + t]` holds dimension `d` of
    /// frame `t`).
    ///
    /// Iterates mixture components in the outer loop and feature dimensions
    /// in the middle loop, so the innermost loop walks the `n` frames of one
    /// dimension with unit stride: the serial `q` accumulation chain each
    /// frame imposes runs for all frames in parallel, which vectorizes where
    /// the per-frame path cannot. The log-sum-exp runs frame-innermost too.
    /// Per frame, the arithmetic (distance accumulation order over `d`, the
    /// `l > max` first-wins rule, summation order over components) is
    /// exactly [`DiagGmm::log_likelihood`]'s, so results are bit-identical.
    /// The caller transposes a frame block once and reuses it across every
    /// state's GMM.
    ///
    /// The sum pass calls libm `exp` only for terms whose contribution to
    /// the sum is not known in advance. With `x = l − max`:
    /// - the first maximal term has `x = 0` and adds exactly `1.0`; so
    ///   does any tie;
    /// - `x <` [`EXP_UNDERFLOW_CUT`] gives `exp = +0`, which leaves the
    ///   non-negative sum unchanged;
    /// - after the first maximal term the sum is at least 1, and
    ///   `x <` [`EXP_TAIL_CUT`] adds less than half an ulp of it;
    /// - if every term before the first maximal one has
    ///   `x <` [`EXP_LEAD_CUT`], their partial sum is below half an ulp of
    ///   1 and adding the maximal term's `1.0` rounds it away.
    ///
    /// On trained models that leaves about one term in six for `exp`. A
    /// NaN term passes none of the tests and still goes through `exp`, so
    /// it propagates as before.
    ///
    /// `comps` is caller-owned scratch (resized internally) holding the
    /// per-component log terms and three per-frame rows,
    /// `(num_mix + 3) × n`.
    pub fn log_likelihood_block_t(&self, ft: &[f32], comps: &mut Vec<f32>, out: &mut [f32]) {
        let n = out.len();
        let k = self.num_mix;
        self.fill_comps_block_t(ft, comps, n);
        comps.resize((k + 3) * n, 0.0);
        let (crows, rest) = comps.split_at_mut(k * n);
        let (sums, rest) = rest.split_at_mut(n);
        let (first, lead) = rest.split_at_mut(n);
        // Max pass: `first` is the index of the first maximal term, `lead`
        // the largest term before it.
        out.fill(f32::NEG_INFINITY);
        lead.fill(f32::NEG_INFINITY);
        for c in 0..k {
            let row = &crows[c * n..(c + 1) * n];
            let frames = out.iter_mut().zip(first.iter_mut()).zip(lead.iter_mut());
            for (((mx, fi), ld), &l) in frames.zip(row) {
                if l > *mx {
                    *ld = *mx;
                    *mx = l;
                    *fi = c as f32;
                }
            }
        }
        // `lead` becomes the cut for terms before the first maximal one.
        for (ld, &mx) in lead.iter_mut().zip(out.iter()) {
            *ld = if *ld - mx < EXP_LEAD_CUT {
                f32::INFINITY
            } else {
                EXP_UNDERFLOW_CUT
            };
        }
        // Each term becomes its contribution: `1.0`, `0.0`, or `x` still
        // to be exponentiated (negative or NaN).
        for c in 0..k {
            let row = &mut crows[c * n..(c + 1) * n];
            let frames = out.iter().zip(first.iter()).zip(lead.iter());
            for (v, ((&mx, &fi), &ld)) in row.iter_mut().zip(frames) {
                let x = *v - mx;
                let cut = if (c as f32) < fi { ld } else { EXP_TAIL_CUT };
                *v = if x == 0.0 {
                    1.0
                } else if x < cut {
                    0.0
                } else {
                    x
                };
            }
            for v in row.iter_mut() {
                if *v < 0.0 || v.is_nan() {
                    *v = v.exp();
                }
            }
            for (s, &v) in sums.iter_mut().zip(row.iter()) {
                *s += v;
            }
        }
        for (o, &s) in out.iter_mut().zip(sums.iter()) {
            *o += s.ln();
        }
    }

    /// Per-component log terms for a transposed block: the exact kernel's
    /// Mahalanobis distance accumulation and `log_const − q/2` shift, in
    /// [`DiagGmm::log_likelihood`]'s operation order, so the exact path
    /// through this helper stays bit-identical.
    fn fill_comps_block_t(&self, ft: &[f32], comps: &mut Vec<f32>, n: usize) {
        debug_assert_eq!(ft.len(), n * self.dim);
        comps.clear();
        comps.resize(self.num_mix * n, 0.0);
        for c in 0..self.num_mix {
            let crow = &mut comps[c * n..(c + 1) * n];
            for d in 0..self.dim {
                let mu = self.means[c * self.dim + d];
                let iv = self.inv_vars[c * self.dim + d];
                let col = &ft[d * n..(d + 1) * n];
                for (q, &x) in crow.iter_mut().zip(col) {
                    let diff = x - mu;
                    *q += diff * diff * iv;
                }
            }
            let log_const = self.log_consts[c];
            for q in crow.iter_mut() {
                *q = log_const - 0.5 * *q;
            }
        }
    }

    /// [`DiagGmm::log_likelihood_block_t`] under the bounded-error
    /// fast-math contract.
    ///
    /// The Mahalanobis form is expanded around the mean,
    /// `log_const − q/2 = c₀ + Σ_d (iv·µ)_d·x_d − ½ Σ_d iv_d·x²_d`, and
    /// accumulated as two fused multiply-adds per element — the
    /// reassociation + FMA contraction that the exact kernel deliberately
    /// forgoes to stay bit-identical. The log-sum-exp tail runs on the
    /// polynomial [`crate::fastmath`] kernels. Each rounding difference is
    /// at the 1-ulp scale of the partial sums, so the per-frame deviation
    /// stays well inside [`crate::fastmath::FASTMATH_LSE_ABS_BOUND`] for
    /// CMVN-normalized features. (The speedup assumes FMA hardware; without
    /// it `mul_add` falls back to a slow-but-correct libm call.)
    ///
    /// Components are accumulated four rows at a time, so each feature
    /// value loaded (and its square, formed in a register) feeds eight
    /// FMAs instead of two. The log-sum-exp tail is frame-innermost and
    /// branch-free, so the autovectorizer runs it one vector of *frames* at
    /// a time. All scratch (component rows, per-frame sums) lives in the
    /// caller's `comps` buffer, so steady-state block scoring does no
    /// allocation in either mode.
    pub fn log_likelihood_block_t_fast(&self, ft: &[f32], comps: &mut Vec<f32>, out: &mut [f32]) {
        let n = out.len();
        let k = self.num_mix;
        debug_assert_eq!(ft.len(), n * self.dim);
        if n == 0 {
            return;
        }
        comps.clear();
        comps.resize((k + 1) * n, 0.0);
        let (crows, sums) = comps.split_at_mut(k * n);
        let mut fours = crows.chunks_exact_mut(4 * n);
        for (g, rows) in fours.by_ref().enumerate() {
            self.fast_rows4(4 * g, ft, rows);
        }
        for (i, row) in fours.into_remainder().chunks_exact_mut(n).enumerate() {
            self.fast_row(k - k % 4 + i, ft, row);
        }
        out.fill(f32::NEG_INFINITY);
        for crow in crows.chunks_exact(n) {
            for (mx, &l) in out.iter_mut().zip(crow) {
                *mx = mx.max(l);
            }
        }
        for crow in crows.chunks_exact(n) {
            for ((s, &l), &mx) in sums.iter_mut().zip(crow).zip(out.iter()) {
                *s += crate::fastmath::fast_exp(l - mx);
            }
        }
        for (o, &s) in out.iter_mut().zip(sums.iter()) {
            *o += crate::fastmath::fast_ln_normal(s);
        }
        // Every sum holds an `exp(0)` term, so only a NaN frame gets here;
        // `fast_ln` keeps its edge semantics for it.
        for (t, &s) in sums.iter().enumerate() {
            if s < f32::MIN_POSITIVE || s.is_nan() {
                let max = crows
                    .chunks_exact(n)
                    .map(|row| row[t])
                    .fold(f32::NEG_INFINITY, f32::max);
                out[t] = max + crate::fastmath::fast_ln(s);
            }
        }
    }

    /// Expanded-form constant `c₀ = log_const − ½ Σ_d µ·(iv·µ)` of
    /// component `c`.
    fn fast_c0(&self, c: usize) -> f32 {
        let dims = c * self.dim..(c + 1) * self.dim;
        let params = self.means[dims.clone()].iter().zip(&self.inv_vars[dims]);
        params.fold(self.log_consts[c], |c0, (&mu, &iv)| {
            c0 - 0.5 * mu * (mu * iv)
        })
    }

    /// Expanded-form coefficients `(iv·µ, −iv/2)` of component `c`,
    /// dimension `d`.
    fn fast_coef(&self, c: usize, d: usize) -> (f32, f32) {
        let i = c * self.dim + d;
        let iv = self.inv_vars[i];
        (self.means[i] * iv, -0.5 * iv)
    }

    /// Fast-math terms of components `c..c + 4` into the four `n`-frame
    /// rows of `rows`.
    fn fast_rows4(&self, c: usize, ft: &[f32], rows: &mut [f32]) {
        let n = rows.len() / 4;
        let (r01, r23) = rows.split_at_mut(2 * n);
        let (r0, r1) = r01.split_at_mut(n);
        let (r2, r3) = r23.split_at_mut(n);
        r0.fill(self.fast_c0(c));
        r1.fill(self.fast_c0(c + 1));
        r2.fill(self.fast_c0(c + 2));
        r3.fill(self.fast_c0(c + 3));
        for (d, col) in ft.chunks_exact(n).enumerate() {
            let (m0, v0) = self.fast_coef(c, d);
            let (m1, v1) = self.fast_coef(c + 1, d);
            let (m2, v2) = self.fast_coef(c + 2, d);
            let (m3, v3) = self.fast_coef(c + 3, d);
            let rows = r0
                .iter_mut()
                .zip(r1.iter_mut())
                .zip(r2.iter_mut())
                .zip(r3.iter_mut());
            for ((((q0, q1), q2), q3), &x) in rows.zip(col) {
                let x2 = x * x;
                *q0 = m0.mul_add(x, v0.mul_add(x2, *q0));
                *q1 = m1.mul_add(x, v1.mul_add(x2, *q1));
                *q2 = m2.mul_add(x, v2.mul_add(x2, *q2));
                *q3 = m3.mul_add(x, v3.mul_add(x2, *q3));
            }
        }
    }

    /// Fast-math terms of component `c` into the `n`-frame `row`.
    fn fast_row(&self, c: usize, ft: &[f32], row: &mut [f32]) {
        row.fill(self.fast_c0(c));
        for (d, col) in ft.chunks_exact(row.len()).enumerate() {
            let (m, v) = self.fast_coef(c, d);
            for (q, &x) in row.iter_mut().zip(col) {
                *q = m.mul_add(x, v.mul_add(x * x, *q));
            }
        }
    }

    /// Mode-dispatched transposed-block scoring: `Exact` is the historical
    /// bit-identical kernel, `FastMath` the bounded-error one.
    pub fn log_likelihood_block_t_mode(
        &self,
        ft: &[f32],
        comps: &mut Vec<f32>,
        out: &mut [f32],
        mode: crate::fastmath::ScoringMode,
    ) {
        match mode {
            crate::fastmath::ScoringMode::Exact => self.log_likelihood_block_t(ft, comps, out),
            crate::fastmath::ScoringMode::FastMath => {
                self.log_likelihood_block_t_fast(ft, comps, out)
            }
        }
    }

    /// Mixture posteriors for one frame (responsibilities), written to `out`.
    pub fn posteriors(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.num_mix);
        let mut max = f32::NEG_INFINITY;
        for (c, o) in out.iter_mut().enumerate() {
            let mu = &self.means[c * self.dim..(c + 1) * self.dim];
            let iv = &self.inv_vars[c * self.dim..(c + 1) * self.dim];
            let mut q = 0.0f32;
            for d in 0..self.dim {
                let diff = x[d] - mu[d];
                q += diff * diff * iv[d];
            }
            *o = self.log_consts[c] - 0.5 * q;
            max = max.max(*o);
        }
        let mut sum = 0.0f32;
        for o in out.iter_mut() {
            *o = (*o - max).exp();
            sum += *o;
        }
        for o in out.iter_mut() {
            *o /= sum;
        }
    }
}

// The derived fields (`inv_vars`, `log_consts`) are persisted directly
// rather than re-derived through `from_params` on load: recomputing the
// reciprocals/logs would round differently and break the bit-identical
// save→load→score contract.
impl lre_artifact::ArtifactWrite for DiagGmm {
    const KIND: [u8; 4] = *b"GMM0";
    const VERSION: u32 = 1;

    fn write_payload(&self, w: &mut lre_artifact::ArtifactWriter) {
        w.put_u32(self.dim as u32);
        w.put_u32(self.num_mix as u32);
        w.put_f32_slice(&self.means);
        w.put_f32_slice(&self.inv_vars);
        w.put_f32_slice(&self.log_consts);
        w.put_f32_slice(&self.weights);
    }
}

impl lre_artifact::ArtifactRead for DiagGmm {
    fn read_payload(
        r: &mut lre_artifact::ArtifactReader,
    ) -> Result<DiagGmm, lre_artifact::ArtifactError> {
        use lre_artifact::ArtifactError;
        let dim = r.get_u32()? as usize;
        let num_mix = r.get_u32()? as usize;
        let means = r.get_f32_slice()?;
        let inv_vars = r.get_f32_slice()?;
        let log_consts = r.get_f32_slice()?;
        let weights = r.get_f32_slice()?;
        // Scoring uses a 16-slot stack buffer; anything outside [1, 16]
        // cannot have come from this workspace's training code.
        if dim == 0 || num_mix == 0 || num_mix > 16 {
            return Err(ArtifactError::Corrupt("GMM shape out of range"));
        }
        if means.len() != num_mix * dim
            || inv_vars.len() != num_mix * dim
            || log_consts.len() != num_mix
            || weights.len() != num_mix
        {
            return Err(ArtifactError::Corrupt("GMM parameter lengths disagree"));
        }
        Ok(DiagGmm {
            dim,
            num_mix,
            means,
            inv_vars,
            log_consts,
            weights,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(17)
    }

    /// Two well-separated clusters in 2-D.
    fn two_cluster_data(n_each: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut data = Vec::with_capacity(n_each * 4);
        for i in 0..2 * n_each {
            let center = if i < n_each { (-3.0, -3.0) } else { (3.0, 3.0) };
            data.push(center.0 + rng.random::<f32>() - 0.5);
            data.push(center.1 + rng.random::<f32>() - 0.5);
        }
        data
    }

    #[test]
    fn single_gaussian_matches_closed_form() {
        // Unit Gaussian at 0: ll(0) = -d/2 ln(2π).
        let g = DiagGmm::from_params(vec![0.0, 0.0], vec![1.0, 1.0], vec![1.0], 2);
        let expect = -(2.0 * std::f32::consts::PI).ln();
        assert!((g.log_likelihood(&[0.0, 0.0]) - expect).abs() < 1e-5);
        // One std away in one dim: subtract 1/2.
        assert!((g.log_likelihood(&[1.0, 0.0]) - (expect - 0.5)).abs() < 1e-5);
    }

    #[test]
    fn em_finds_two_clusters() {
        let mut r = rng();
        let data = two_cluster_data(200, &mut r);
        let g = DiagGmm::train(&data, 2, 2, 5, &mut r);
        // Each cluster center should be near (±3, ±3).
        let m0 = &g.means[0..2];
        let m1 = &g.means[2..4];
        let near = |m: &[f32], c: f32| (m[0] - c).abs() < 0.7 && (m[1] - c).abs() < 0.7;
        assert!(
            (near(m0, -3.0) && near(m1, 3.0)) || (near(m0, 3.0) && near(m1, -3.0)),
            "means: {m0:?} {m1:?}"
        );
    }

    #[test]
    fn training_data_scores_higher_than_outliers() {
        let mut r = rng();
        let data = two_cluster_data(100, &mut r);
        let g = DiagGmm::train(&data, 2, 2, 5, &mut r);
        assert!(g.log_likelihood(&[3.0, 3.0]) > g.log_likelihood(&[30.0, -40.0]) + 10.0);
    }

    #[test]
    fn posteriors_sum_to_one() {
        let mut r = rng();
        let data = two_cluster_data(100, &mut r);
        let g = DiagGmm::train(&data, 2, 4, 3, &mut r);
        let mut p = vec![0.0; g.num_mix()];
        g.posteriors(&[0.5, -0.5], &mut p);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn empty_data_gives_usable_fallback() {
        let g = DiagGmm::train(&[], 3, 4, 5, &mut rng());
        assert_eq!(g.num_mix(), 1);
        assert!(g.log_likelihood(&[0.0, 0.0, 0.0]).is_finite());
    }

    #[test]
    fn mixtures_clamped_to_sample_count() {
        let data = vec![1.0f32, 2.0, 3.0, 4.0]; // 2 frames of dim 2
        let g = DiagGmm::train(&data, 2, 8, 2, &mut rng());
        assert!(g.num_mix() <= 2);
    }

    #[test]
    fn em_improves_or_maintains_total_likelihood() {
        let mut r = rng();
        let data = two_cluster_data(150, &mut r);
        let total_ll = |g: &DiagGmm| -> f64 {
            (0..data.len() / 2)
                .map(|i| g.log_likelihood(&data[i * 2..i * 2 + 2]) as f64)
                .sum()
        };
        let mut r1 = rng();
        let g0 = DiagGmm::train(&data, 2, 2, 0, &mut r1);
        let mut r2 = rng();
        let g5 = DiagGmm::train(&data, 2, 2, 5, &mut r2);
        assert!(
            total_ll(&g5) >= total_ll(&g0) - 1e-3,
            "{} vs {}",
            total_ll(&g5),
            total_ll(&g0)
        );
    }
}

#[cfg(test)]
mod timing {
    use super::*;

    #[test]
    #[ignore = "manual timing probe"]
    fn block_kernel_stage_split() {
        let dim = 39;
        let k = 8;
        let n = 64;
        let mut rng = 0x12345u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        // Tight, well-separated components plus the broad background one
        // that training appends, so most terms fall far below the max as
        // they do on trained models.
        let means: Vec<f32> = (0..dim * k).map(|_| next() * 6.0).collect();
        let vars: Vec<f32> = (0..dim * k).map(|_| 0.1 + next().abs() * 0.6).collect();
        let weights: Vec<f32> = vec![1.0 / k as f32; k];
        let g = DiagGmm::from_params(means, vars, weights, dim).with_background(0.08, 3.0);
        let ft: Vec<f32> = (0..dim * n).map(|_| next() * 4.0).collect();
        let mut comps = Vec::new();
        let mut out = vec![0.0f32; n];
        let reps = 4000;
        let terms = (reps * g.num_mix() * n) as f64;
        // Best of seven interleaved trials (the host is noisy), in ns per
        // (frame, component) term.
        let mut best = [f64::INFINITY; 3];
        for _ in 0..7 {
            for (i, b) in best.iter_mut().enumerate() {
                let t0 = std::time::Instant::now();
                for _ in 0..reps {
                    match i {
                        0 => g.fill_comps_block_t(&ft, &mut comps, n),
                        1 => g.log_likelihood_block_t(&ft, &mut comps, &mut out),
                        _ => g.log_likelihood_block_t_fast(&ft, &mut comps, &mut out),
                    }
                }
                *b = b.min(t0.elapsed().as_secs_f64() * 1e9 / terms);
            }
        }
        std::hint::black_box(&out);
        let [fill, exact, fast] = best;
        println!(
            "ns/term: fill={fill:.2} exact={exact:.2} (tail={:.2}) fast={fast:.2}",
            exact - fill
        );
    }
}
