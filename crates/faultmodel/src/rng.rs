//! Deterministic hash-based parameter derivation.
//!
//! Every random quantity in the fault model is a pure function of a
//! seed and a coordinate tuple, computed with splitmix64 finalization.
//! This keeps the model storage-free (no per-cell state for an 8 Gb
//! chip) and makes every experiment bit-reproducible.

/// Splitmix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a seed with a sequence of coordinate parts.
#[inline]
pub fn hash(seed: u64, parts: &[u64]) -> u64 {
    parts.iter().fold(mix(seed), |h, &p| extend(h, p))
}

/// Extends a hash by one more coordinate part:
/// `hash(s, [a, b]) == extend(hash(s, [a]), b)`. Derivations that draw
/// many values under one coordinate prefix hash the prefix once and
/// extend it per draw.
#[inline]
pub fn extend(h: u64, part: u64) -> u64 {
    mix(h ^ part.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// A uniform sample in `[0, 1)` from a hash value.
#[inline]
pub fn unit(h: u64) -> f64 {
    // 53 significant bits.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Uniform `[0, 1)` directly from seed+parts.
#[inline]
pub fn uniform(seed: u64, parts: &[u64]) -> f64 {
    unit(hash(seed, parts))
}

/// A standard normal sample derived from seed+parts (Box–Muller on two
/// decorrelated hashes).
pub fn normal(seed: u64, parts: &[u64]) -> f64 {
    normal_of(hash(seed, parts))
}

/// The standard normal sample [`normal`] derives from the hash `h1` of
/// its seed and parts.
pub fn normal_of(h1: u64) -> f64 {
    let h2 = mix(h1 ^ 0xA5A5_A5A5_A5A5_A5A5);
    let u1 = unit(h1).max(1e-12);
    let u2 = unit(h2);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A log-normal sample `exp(mu + sigma * N(0,1))`.
pub fn lognormal(seed: u64, parts: &[u64], mu: f64, sigma: f64) -> f64 {
    (mu + sigma * normal(seed, parts)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1), mix(1));
        assert_ne!(mix(1), mix(2));
        // Adjacent inputs should differ in many bits.
        let d = (mix(100) ^ mix(101)).count_ones();
        assert!(d > 16, "only {d} differing bits");
    }

    #[test]
    fn extend_continues_a_hash() {
        assert_eq!(hash(7, &[1, 2, 3]), extend(extend(hash(7, &[1]), 2), 3));
        assert_eq!(hash(7, &[]), mix(7));
    }

    #[test]
    fn hash_order_sensitive() {
        assert_ne!(hash(7, &[1, 2]), hash(7, &[2, 1]));
    }

    #[test]
    fn unit_in_range() {
        for i in 0..1000u64 {
            let u = uniform(42, &[i]);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let n = 20_000u64;
        let s: f64 = (0..n).map(|i| uniform(9, &[i])).sum();
        let m = s / n as f64;
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn normal_moments() {
        let n = 20_000u64;
        let xs: Vec<f64> = (0..n).map(|i| normal(3, &[i])).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_median() {
        let n = 20_000u64;
        let xs: Vec<f64> = (0..n).map(|i| lognormal(5, &[i], (100.0f64).ln(), 0.5)).collect();
        let med = rh_stats::median(&xs).expect("non-empty sample");
        assert!((med - 100.0).abs() < 5.0, "median {med}");
    }
}
