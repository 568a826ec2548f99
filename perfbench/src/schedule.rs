//! Seeded workload shapes: utterance order, the 3:2:1 duration mix and
//! Poisson arrival times. Everything here is a pure function of the
//! `--seed` argument, so two runs with one seed send the same requests in
//! the same order at the same offsets.

/// SplitMix64: a tiny, well-mixed, fully deterministic generator. The
/// benchmark owns its randomness so a change to any workspace RNG can never
/// change the inputs it sends.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (order, mix, arrivals).
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` indices into a pool of `pool_len` items: back-to-back seeded
/// permutations, so every item is used once before any is used twice.
pub fn pool_order(rng: &mut Rng, pool_len: usize, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    let mut perm: Vec<usize> = (0..pool_len).collect();
    while out.len() < count {
        rng.shuffle(&mut perm);
        let take = (count - out.len()).min(pool_len);
        out.extend_from_slice(&perm[..take]);
    }
    out
}

/// Duration classes in `lre_corpus::Duration::all()` order.
pub const S30: usize = 0;
pub const S10: usize = 1;
pub const S3: usize = 2;

/// `count` duration classes in a 3:2:1 mix of 3 s / 10 s / 30 s. The mix is
/// stratified: every block of six holds exactly three 3 s, two 10 s and one
/// 30 s class in seeded order, so the compute a run asks for does not drift
/// with the seed.
pub fn mixed_classes(rng: &mut Rng, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count + 6);
    while out.len() < count {
        let mut block = [S3, S3, S3, S10, S10, S30];
        rng.shuffle(&mut block);
        out.extend_from_slice(&block);
    }
    out.truncate(count);
    out
}

/// Due offsets in seconds of `n` Poisson arrivals at `rate` per second,
/// ascending. The arrivals are a Poisson process conditioned on `n`
/// arrivals in `n / rate` seconds — `n` uniform times in that span — so
/// the offered rate is exactly `rate` whatever the seed, while the gaps
/// keep their Poisson burstiness.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, n: usize) -> Vec<f64> {
    let span = n as f64 / rate;
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * span).collect();
    due.sort_by(f64::total_cmp);
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_order_and_due_times() {
        let a = pool_order(&mut Rng::derive(7, 1), 138, 500);
        let b = pool_order(&mut Rng::derive(7, 1), 138, 500);
        assert_eq!(a, b);
        let c = pool_order(&mut Rng::derive(8, 1), 138, 500);
        assert_ne!(a, c);

        let s1 = poisson_schedule(&mut Rng::derive(7, 2), 90.0, 400);
        let s2 = poisson_schedule(&mut Rng::derive(7, 2), 90.0, 400);
        assert_eq!(
            s1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            s2.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_ne!(s1, poisson_schedule(&mut Rng::derive(8, 2), 90.0, 400));

        let m1 = mixed_classes(&mut Rng::derive(7, 3), 100);
        assert_eq!(m1, mixed_classes(&mut Rng::derive(7, 3), 100));
    }

    #[test]
    fn streams_of_one_seed_are_independent() {
        let mut a = Rng::derive(7, 1);
        let mut b = Rng::derive(7, 2);
        let xa: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(xa, xb);
    }

    #[test]
    fn pool_order_uses_each_item_once_per_pass() {
        let order = pool_order(&mut Rng::new(3), 10, 25);
        assert_eq!(order.len(), 25);
        for pass in order.chunks(10).take(2) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn mix_is_exactly_three_two_one_per_block() {
        let classes = mixed_classes(&mut Rng::new(11), 600);
        for block in classes.chunks(6) {
            let count = |c| block.iter().filter(|&&x| x == c).count();
            assert_eq!((count(S3), count(S10), count(S30)), (3, 2, 1));
        }
    }

    #[test]
    fn schedule_is_poisson_at_exactly_the_asked_rate() {
        let due = poisson_schedule(&mut Rng::new(5), 50.0, 20_000);
        assert!(due.windows(2).all(|w| w[1] >= w[0]));
        assert!(due[0] >= 0.0 && *due.last().unwrap() < 400.0);
        // Gaps are exponential: mean 1/rate, and about e^-1 of them exceed
        // the mean.
        let gaps: Vec<f64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.02).abs() < 0.001, "mean gap {mean}");
        let long = gaps.iter().filter(|&&g| g > 0.02).count() as f64 / gaps.len() as f64;
        assert!(
            (long - (-1.0f64).exp()).abs() < 0.02,
            "share of long gaps {long}"
        );
    }
}
