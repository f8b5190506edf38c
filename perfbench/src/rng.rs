//! Seeded generators for the benchmark's inputs.
//!
//! Every input a workload feeds the program — population, sample, plans,
//! request streams, ingest batches — derives from the `--seed` argument
//! through these generators, so the same seed always yields the same
//! inputs. They use no process entropy.

/// SplitMix64: a small, fast, well-mixed 64-bit generator.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix { state: seed }
    }

    /// A generator for one named purpose, independent of the others drawn
    /// from the same seed.
    pub fn stream(seed: u64, purpose: u64) -> SplitMix {
        SplitMix::new(mix(seed, purpose))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Derive a sub-seed from a seed and a purpose tag.
pub fn mix(seed: u64, purpose: u64) -> u64 {
    SplitMix::new(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64()
}

/// Zipf(s) over ranks `0..n`: rank k is drawn with probability
/// proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k as f64 + 1.0).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// FNV-1a over bytes, for structure fingerprints and answer checksums.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = SplitMix::stream(7, 3);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix::stream(7, 3);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = SplitMix::stream(8, 3);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn zipf_is_seed_deterministic_and_skewed() {
        let z = Zipf::new(256, 1.0);
        let draw = |seed| {
            let mut r = SplitMix::new(seed);
            (0..5_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(42);
        assert_eq!(a, draw(42));
        assert_ne!(a, draw(43));
        assert!(a.iter().all(|&k| k < 256));
        let top = a.iter().filter(|&&k| k == 0).count();
        let tail = a.iter().filter(|&&k| k == 255).count();
        // P(rank 0) = 1/H(256) ≈ 16%; P(rank 255) ≈ 0.06%.
        assert!(top > 600 && top < 1000, "rank-0 share {top}");
        assert!(tail < 20, "rank-255 count {tail}");
    }
}
