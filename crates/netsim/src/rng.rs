//! Deterministic pseudo-random numbers: SplitMix64 seeding and
//! Xoshiro256★★ generation, implemented from scratch.
//!
//! Why not the `rand` crate? Every table in the reproduction must be
//! bit-identical across machines and crate upgrades; `rand` changes value
//! streams between major versions. Both algorithms here are public-domain
//! (Blackman & Vigna) and validated against hand-derived reference values
//! in the tests.

/// SplitMix64: used to expand a single `u64` seed into Xoshiro state and to
/// derive independent sub-streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Split a master seed into the seed of independent stream `stream_id`.
///
/// The derivation depends only on the two inputs — never on thread count,
/// scheduling, or execution order. The fault schedules take one stream per
/// fault domain and vantage this way (see [`crate::fault`]), so a world's
/// faults are the same however the fleet spreads worlds across workers
/// (see `cw_core::fleet`).
///
/// # Example
///
/// ```
/// use cw_netsim::rng::fork_seed;
///
/// // Per-run seeds are a pure function of (master, stream).
/// assert_eq!(fork_seed(42, 3), fork_seed(42, 3));
/// // Neighboring streams land far apart.
/// assert_ne!(fork_seed(42, 3), fork_seed(42, 4));
/// assert_ne!(fork_seed(42, 0), fork_seed(43, 0));
/// ```
pub fn fork_seed(master_seed: u64, stream_id: u64) -> u64 {
    // One SplitMix64 round over the master decorrelates nearby masters;
    // folding in the stream id via the golden-gamma multiplier (a bijection
    // on u64) then one more round decorrelates nearby streams.
    let mut sm = SplitMix64::new(master_seed);
    let base = sm.next_u64();
    let mut sm = SplitMix64::new(base ^ stream_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    sm.next_u64()
}

/// FNV-1a 64-bit hash, used to derive labeled RNG sub-streams.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The workhorse generator: Xoshiro256★★.
///
/// # Example
///
/// ```
/// use cw_netsim::rng::SimRng;
///
/// let mut rng = SimRng::seed_from_u64(7);
/// let a = rng.range(0, 100);
/// assert!(a < 100);
/// // Labeled sub-streams are independent and reproducible.
/// let mut s1 = rng.derive("censys");
/// let mut s2 = rng.derive("censys");
/// assert_eq!(s1.next_u64(), s2.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed via SplitMix64 expansion (the author-recommended procedure).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        // All-zero state is invalid for xoshiro; SplitMix64 cannot produce
        // four consecutive zeros, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    /// Construct from raw state words (used by reference-vector tests).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0, 0, 0, 0], "xoshiro state must be non-zero");
        SimRng { s }
    }

    /// Derive an independent, reproducible sub-stream for `label`.
    ///
    /// Used to give every agent / module its own value stream so that adding
    /// an agent never perturbs any other agent's randomness (a requirement
    /// for stable, debuggable scenarios).
    pub fn derive(&self, label: &str) -> SimRng {
        let mix = fnv1a(label.as_bytes());
        let mut sm = SplitMix64::new(self.s[0] ^ mix.rotate_left(17));
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        SimRng { s }
    }

    /// Split off the independent generator for stream `stream_id`.
    ///
    /// Like [`derive`](Self::derive) this does not advance `self`; `fork`
    /// is specified as *the* seed-splitting API for parallel fleets: the
    /// forked stream is a pure function of the current state and
    /// `stream_id`, so consuming forks from different worker threads — in
    /// any order — yields exactly the values a serial loop would see.
    ///
    /// # Example
    ///
    /// One value drawn from each of four forked streams, serially and then
    /// from four worker threads; the results are bit-identical:
    ///
    /// ```
    /// use cw_netsim::rng::SimRng;
    ///
    /// let root = SimRng::seed_from_u64(0xC10D);
    /// let serial: Vec<u64> = (0..4).map(|i| root.fork(i).next_u64()).collect();
    ///
    /// let threaded: Vec<u64> = std::thread::scope(|scope| {
    ///     let handles: Vec<_> = (0..4)
    ///         .map(|i| {
    ///             let fork = root.fork(i);
    ///             scope.spawn(move || {
    ///                 let mut rng = fork;
    ///                 rng.next_u64()
    ///             })
    ///         })
    ///         .collect();
    ///     handles.into_iter().map(|h| h.join().unwrap()).collect()
    /// });
    ///
    /// assert_eq!(serial, threaded);
    /// ```
    pub fn fork(&self, stream_id: u64) -> SimRng {
        SimRng::seed_from_u64(fork_seed(self.s[0] ^ self.s[2].rotate_left(29), stream_id))
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, n)` via Lemire's multiply-shift rejection
    /// method (unbiased).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n {
                return (m >> 64) as u64;
            }
            // Rejection zone: only when low < n do we need the threshold.
            let threshold = n.wrapping_neg() % n;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to [0, 1]).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Uniformly choose an element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }

    /// Weighted choice: pick index `i` with probability `w[i] / Σw`.
    ///
    /// # Panics
    /// Panics if weights are empty or sum to zero.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must sum to a positive value");
        let mut x = self.f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Exponential inter-arrival time with the given rate (events/second).
    /// Returns at least 1 (simulated time is integer seconds).
    pub fn exp_interval_secs(&mut self, rate_per_sec: f64) -> u64 {
        assert!(rate_per_sec > 0.0, "rate must be positive");
        let u = self.f64();
        let dt = -(1.0 - u).ln() / rate_per_sec;
        (dt.round() as u64).max(1)
    }

    /// Poisson draw. Knuth's method for small λ, normal approximation
    /// (rounded, clamped at 0) for λ > 30.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        if lambda == 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            // Normal approximation N(λ, λ).
            let z = self.normal();
            let v = lambda + lambda.sqrt() * z;
            return v.round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// A heavy-tailed integer volume factor in `[1, max]`: discretized
    /// Pareto with shape `alpha` (smaller alpha = heavier tail). Used to
    /// model the wildly unequal per-campaign scan volumes that make
    /// neighboring honeypots see different traffic (§4.1).
    pub fn pareto_volume(&mut self, alpha: f64, max: u64) -> u64 {
        assert!(alpha > 0.0 && max >= 1);
        let u = loop {
            let u = self.f64();
            if u < 1.0 {
                break u;
            }
        };
        let v = (1.0 / (1.0 - u)).powf(1.0 / alpha);
        (v.floor() as u64).clamp(1, max)
    }

    /// Standard normal draw (Box–Muller, one value per call).
    pub fn normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Public-domain reference outputs for seed 0.
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // Hand-derived from the reference algorithm with state [1, 2, 3, 4]:
        // out0 = rotl(2*5, 7)*9 = 11520; out1 = 0; out2 = 1509978240.
        let mut rng = SimRng::from_state([1, 2, 3, 4]);
        assert_eq!(rng.next_u64(), 11_520);
        assert_eq!(rng.next_u64(), 0);
        assert_eq!(rng.next_u64(), 1_509_978_240);
    }

    #[test]
    fn seeding_is_deterministic() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = SimRng::seed_from_u64(7);
        let mut a = root.derive("censys");
        let mut b = root.derive("shodan");
        let mut a2 = root.derive("censys");
        assert_eq!(a.next_u64(), a2.next_u64());
        // Streams should differ immediately (overwhelmingly likely).
        let mut same = 0;
        for _ in 0..16 {
            if a.next_u64() == b.next_u64() {
                same += 1;
            }
        }
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_is_pure_and_streams_are_decorrelated() {
        let root = SimRng::seed_from_u64(7);
        // Pure: forking never advances the parent, and repeated forks agree.
        let mut a = root.fork(0);
        let mut a2 = root.fork(0);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), a2.next_u64());
        }
        // Distinct streams (and the parent) diverge immediately.
        let mut b = root.fork(1);
        let mut parent = root.clone();
        let mut collisions = 0;
        for _ in 0..32 {
            let x = a.next_u64();
            if x == b.next_u64() || x == parent.next_u64() {
                collisions += 1;
            }
        }
        assert_eq!(collisions, 0);
    }

    #[test]
    fn fork_seed_distributes_nearby_inputs() {
        // Adjacent (master, stream) pairs must land on distinct seeds.
        let mut seen = std::collections::BTreeSet::new();
        for master in 0..32u64 {
            for stream in 0..32u64 {
                assert!(seen.insert(fork_seed(master, stream)));
            }
        }
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            let v = rng.below(10);
            assert!(v < 10);
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((8_500..11_500).contains(&c), "bucket count {c} too skewed");
        }
    }

    #[test]
    fn range_bounds() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.range(100, 110);
            assert!((100..110).contains(&v));
        }
        assert_eq!(rng.range(5, 6), 5);
    }

    #[test]
    #[should_panic]
    fn empty_range_panics() {
        SimRng::seed_from_u64(0).range(5, 5);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(4);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2_200..2_800).contains(&hits), "hits {hits}");
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = SimRng::seed_from_u64(5);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        let mut rng = SimRng::seed_from_u64(8);
        for &lambda in &[0.5, 4.0, 50.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.max(1.0) * 0.08,
                "lambda {lambda} mean {mean}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn exp_interval_positive_and_mean_reasonable() {
        let mut rng = SimRng::seed_from_u64(9);
        let rate = 0.01; // mean 100 s
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exp_interval_secs(rate)).sum();
        let mean = total as f64 / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn pareto_volume_bounds_and_tail() {
        let mut rng = SimRng::seed_from_u64(10);
        let draws: Vec<u64> = (0..20_000).map(|_| rng.pareto_volume(1.0, 16)).collect();
        assert!(draws.iter().all(|&v| (1..=16).contains(&v)));
        let ones = draws.iter().filter(|&&v| v == 1).count();
        let big = draws.iter().filter(|&&v| v >= 8).count();
        // Mostly small, but a real tail exists.
        assert!(ones > draws.len() / 3, "ones {ones}");
        assert!(big > draws.len() / 50, "big {big}");
    }

    #[test]
    fn fnv1a_known_values() {
        // FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }
}
