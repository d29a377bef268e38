//! The workspace's random number generator and seeded random-tensor
//! construction.
//!
//! All stochastic parts of the reproduction (weight init, device variation,
//! dataset synthesis) draw from an explicitly seeded [`Rng`], so
//! every experiment is bit-reproducible from its seed. The generator is
//! xoshiro256++ (Blackman and Vigna) seeded through SplitMix64; floats
//! take the top mantissa-width bits of one draw, bounded integers use
//! Lemire's multiply-and-reject method and normals use the Box–Muller
//! transform.

use std::ops::{Bound, RangeBounds};

use crate::tensor::Tensor;

/// One step of SplitMix64 (Steele, Lea and Flood): advances `state` by
/// the golden-ratio increment and returns the mixed value. It seeds
/// [`Rng`] and serves as a stateless per-index mixer elsewhere.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++: 256 bits of state, period 2^256 − 1, passes BigCrush.
/// Create one with [`seeded_rng`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A float uniform in `[0, 1)` from the top 24 bits of one draw.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// A float uniform in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A value uniform in `range`, which is `low..high` or `low..=high`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty, unbounded at either end, or has a
    /// float bound that is not finite.
    #[inline]
    pub fn gen_range<T: SampleUniform>(&mut self, range: impl RangeBounds<T>) -> T {
        let (low, high, inclusive) = match (range.start_bound(), range.end_bound()) {
            (Bound::Included(&low), Bound::Excluded(&high)) => (low, high, false),
            (Bound::Included(&low), Bound::Included(&high)) => (low, high, true),
            _ => panic!("gen_range: the range must be `low..high` or `low..=high`"),
        };
        T::sample_between(low, high, inclusive, self)
    }

    /// One `N(mean, std²)` draw: Box–Muller from two uniforms, dropping
    /// the paired sine value so that sampling needs no extra state. The
    /// caller guarantees a finite, non-negative `std`.
    #[inline]
    pub fn normal(&mut self, mean: f64, std: f64) -> f64 {
        let u1 = self.f64();
        let u2 = self.f64();
        // 1 − u1 lies in (0, 1], so the logarithm is finite
        let z = (-2.0 * (1.0 - u1).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std * z
    }

    /// A value uniform in `[0, n)` for `n > 0` (Lemire 2019): one
    /// 64×64→128-bit multiply, rejecting only the `2^64 mod n` low
    /// products that would bias the high word.
    #[inline]
    fn bounded_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let mut m = u128::from(self.next_u64()) * u128::from(n);
        if (m as u64) < n {
            let threshold = n.wrapping_neg() % n;
            while (m as u64) < threshold {
                m = u128::from(self.next_u64()) * u128::from(n);
            }
        }
        (m >> 64) as u64
    }
}

mod sealed {
    pub trait Sealed {}
}

/// The element types [`Rng::gen_range`] samples.
pub trait SampleUniform: Copy + sealed::Sealed {
    /// A value in `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between(low: Self, high: Self, inclusive: bool, rng: &mut Rng) -> Self;
}

macro_rules! int_uniform {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl SampleUniform for $t {
            #[inline]
            fn sample_between(low: Self, high: Self, inclusive: bool, rng: &mut Rng) -> Self {
                let span = high as i128 - low as i128 + i128::from(inclusive);
                assert!(span > 0, "gen_range: empty range");
                let offset = if span > i128::from(u64::MAX) {
                    rng.next_u64()
                } else {
                    rng.bounded_u64(span as u64)
                };
                (low as i128 + i128::from(offset)) as $t
            }
        }
    )*};
}
int_uniform!(usize, u32, u64, i32, i64);

macro_rules! float_uniform {
    ($($t:ident),*) => {$(
        impl sealed::Sealed for $t {}
        impl SampleUniform for $t {
            #[inline]
            fn sample_between(low: Self, high: Self, inclusive: bool, rng: &mut Rng) -> Self {
                assert!(low.is_finite() && high.is_finite(), "gen_range: non-finite bound");
                assert!(low < high || (inclusive && low == high), "gen_range: empty range");
                let scale = high - low;
                loop {
                    let v = low + scale * rng.$t();
                    if inclusive {
                        return v.min(high);
                    }
                    // rounding can land exactly on `high`; redraw
                    if v < high {
                        return v;
                    }
                }
            }
        }
    )*};
}
float_uniform!(f32, f64);

/// Creates a deterministic generator from a 64-bit seed: SplitMix64
/// expands it into the four state words, and never yields the all-zero
/// state from four consecutive outputs.
///
/// # Examples
///
/// ```
/// use rdo_tensor::rng::{seeded_rng, randn};
///
/// let mut r1 = seeded_rng(42);
/// let mut r2 = seeded_rng(42);
/// assert_eq!(randn(&[4], 0.0, 1.0, &mut r1), randn(&[4], 0.0, 1.0, &mut r2));
/// ```
pub fn seeded_rng(seed: u64) -> Rng {
    let mut x = seed;
    Rng { s: [splitmix64(&mut x), splitmix64(&mut x), splitmix64(&mut x), splitmix64(&mut x)] }
}

/// Samples a tensor of i.i.d. normal values with the given mean and
/// standard deviation.
///
/// # Panics
///
/// Panics if `std` is negative or not finite.
pub fn randn(dims: &[usize], mean: f32, std: f32, rng: &mut Rng) -> Tensor {
    assert!(std.is_finite() && std >= 0.0, "std must be finite and non-negative");
    Tensor::from_fn(dims, |_| rng.normal(f64::from(mean), f64::from(std)) as f32)
}

/// Samples a tensor of i.i.d. uniform values in `[lo, hi)`.
///
/// # Panics
///
/// Panics if `lo >= hi`.
pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Tensor {
    Tensor::from_fn(dims, |_| rng.gen_range(lo..hi))
}

/// Kaiming/He-style init for a layer with `fan_in` inputs: normal with
/// `std = sqrt(2 / fan_in)`. The standard choice for ReLU networks.
pub fn kaiming(dims: &[usize], fan_in: usize, rng: &mut Rng) -> Tensor {
    let std = (2.0 / fan_in.max(1) as f32).sqrt();
    randn(dims, 0.0, std, rng)
}

/// Produces a random permutation of `0..n` (Fisher–Yates), used for
/// epoch shuffling.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 200_000;

    /// Mean, variance, skewness and kurtosis.
    fn moments(xs: &[f64]) -> (f64, f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let skew = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n / var.powf(1.5);
        let kurt = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        (mean, var, skew, kurt)
    }

    /// The first draws of seeds 0 and 42, pinned bit for bit: a change
    /// here moves every fixed-seed result in the repository.
    #[test]
    fn golden_streams() {
        struct Golden {
            seed: u64,
            u64s: [u64; 8],
            f32: u32,
            f64: u64,
            index: usize,
            ranged: u32,
            normal: u64,
        }
        let golden = [
            Golden {
                seed: 0,
                u64s: [
                    0x5317_5d61_490b_23df,
                    0x61da_6f3d_c380_d507,
                    0x5c0f_df91_ec9a_7bfc,
                    0x02ee_bf8c_3bbe_5e1a,
                    0x7eca_04eb_af4a_5eea,
                    0x0543_c377_57f0_8d9a,
                    0xdb74_90c7_5ab5_026e,
                    0xd873_43e6_464b_c959,
                ],
                f32: 0x3e96_fb40,
                f64: 0x3fb3_00fc_58c0_4248,
                index: 1,
                ranged: 0xbe85_4d92,
                normal: 0x4002_3d75_085a_bede,
            },
            Golden {
                seed: 42,
                u64s: [
                    0xd076_4d4f_4476_689f,
                    0x519e_4174_576f_3791,
                    0xfbe0_7cfb_0c24_ed8c,
                    0xb37d_9f60_0cd8_35b8,
                    0xcb23_1c38_7484_6a73,
                    0x968d_9f00_4e50_de7d,
                    0x2017_18ff_221a_3556,
                    0x9ae9_4e07_0ed8_cb46,
                ],
                f32: 0x3e54_b3cc,
                f64: 0x3fed_ddfa_c643_3694,
                index: 2,
                ranged: 0x3e57_0ef0,
                normal: 0x4010_f14c_ca60_d40c,
            },
        ];
        for g in golden {
            let mut r = seeded_rng(g.seed);
            let u64s: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
            assert_eq!(u64s, g.u64s, "seed {}", g.seed);
            assert_eq!(r.f32().to_bits(), g.f32, "seed {}", g.seed);
            assert_eq!(r.f64().to_bits(), g.f64, "seed {}", g.seed);
            assert_eq!(r.gen_range(0..=4usize), g.index, "seed {}", g.seed);
            assert_eq!(r.gen_range(-0.3..=0.3f32).to_bits(), g.ranged, "seed {}", g.seed);
            assert_eq!(r.normal(1.5, 2.0).to_bits(), g.normal, "seed {}", g.seed);
        }
    }

    #[test]
    fn seeds_give_distinct_nondegenerate_streams() {
        let stream = |seed| {
            let mut r = seeded_rng(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
        assert_ne!(stream(0), stream(1));
        assert!(stream(0).iter().any(|&v| v != 0));
    }

    #[test]
    fn unit_floats_are_uniform_in_the_half_open_interval() {
        let mut r = seeded_rng(1);
        let u: Vec<f64> = (0..N).map(|_| r.f64()).collect();
        let uf: Vec<f64> = (0..N).map(|_| f64::from(r.f32())).collect();
        for xs in [u, uf] {
            let (mean, var, _, _) = moments(&xs);
            assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
            assert!((var - 1.0 / 12.0).abs() < 0.002, "variance {var}");
            assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    #[test]
    fn float_ranges_stay_in_range() {
        let mut r = seeded_rng(2);
        assert!((0..N).all(|_| (-2.0..3.0).contains(&r.gen_range(-2.0f32..3.0))));
        assert!((0..N).all(|_| (0.35..0.65).contains(&r.gen_range(0.35..0.65))));
    }

    #[test]
    fn normal_moments_match() {
        let mut r = seeded_rng(3);
        let z: Vec<f64> = (0..N).map(|_| r.normal(1.5, 2.0)).collect();
        let (mean, var, skew, kurt) = moments(&z);
        assert!((mean - 1.5).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.06, "variance {var}");
        assert!(skew.abs() < 0.03, "skew {skew}");
        assert!((kurt - 3.0).abs() < 0.06, "kurtosis {kurt}");
    }

    #[test]
    fn integer_ranges_draw_every_value() {
        let mut r = seeded_rng(5);
        for n in [1usize, 2, 3, 7, 10, 1000] {
            let mut hits = vec![0usize; n];
            let draws = 2000 * n;
            for _ in 0..draws {
                hits[r.gen_range(0..n)] += 1;
            }
            let expect = (draws / n) as f64;
            let worst =
                hits.iter().map(|&h| (h as f64 - expect).abs() / expect).fold(0.0, f64::max);
            assert!(hits.iter().all(|&h| h > 0), "0..{n}: a value never drawn");
            assert!(worst < 0.2, "0..{n}: worst deviation {:.1}%", worst * 100.0);
        }
    }

    #[test]
    fn inclusive_ranges_reach_both_ends() {
        let mut r = seeded_rng(6);
        let drawn: Vec<usize> = (0..N).map(|_| r.gen_range(0..=4)).collect();
        assert!(drawn.contains(&0) && drawn.contains(&4));
        assert!(drawn.iter().all(|&v| v <= 4));
    }

    #[test]
    fn integer_extremes_stay_in_range() {
        let mut r = seeded_rng(7);
        assert!((0..1000).all(|_| (-5..=5i64).contains(&r.gen_range(-5..=5i64))));
        assert!((0..1000).all(|_| r.gen_range(u64::MAX - 3..u64::MAX) >= u64::MAX - 3));
        // a span of 2^64 takes one raw draw
        let _ = r.gen_range(0..=u64::MAX);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let _ = seeded_rng(8).gen_range(3usize..3);
    }

    #[test]
    fn seeding_is_deterministic() {
        let a = randn(&[16], 0.0, 1.0, &mut seeded_rng(7));
        let b = randn(&[16], 0.0, 1.0, &mut seeded_rng(7));
        let c = randn(&[16], 0.0, 1.0, &mut seeded_rng(8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn randn_moments_plausible() {
        let t = randn(&[20_000], 1.5, 2.0, &mut seeded_rng(1));
        assert!((t.mean() - 1.5).abs() < 0.1, "mean {}", t.mean());
        let var = t.map(|x| (x - 1.5) * (x - 1.5)).mean();
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    #[should_panic(expected = "std must be finite and non-negative")]
    fn randn_rejects_a_negative_std() {
        let _ = randn(&[4], 0.0, -1.0, &mut seeded_rng(1));
    }

    #[test]
    fn uniform_in_range() {
        let t = rand_uniform(&[1000], -2.0, 3.0, &mut seeded_rng(2));
        assert!(t.min() >= -2.0 && t.max() < 3.0);
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let wide = kaiming(&[10_000], 1000, &mut seeded_rng(3));
        let narrow = kaiming(&[10_000], 10, &mut seeded_rng(3));
        assert!(wide.norm_sq() < narrow.norm_sq());
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = permutation(100, &mut seeded_rng(4));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
