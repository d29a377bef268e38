//! Property tests for the device, codec and LUT layers. Each runs a
//! fixed number of seeded cases, case `i` drawing its inputs from
//! `seeded_rng(i)`.

use rdo_rram::{
    CellKind, CellTechnology, DeviceLut, DeviceModel, VariationKind, VariationModel, WeightCodec,
};
use rdo_tensor::rng::seeded_rng;
use rdo_tensor::rng::Rng;

/// The paper codec of an SLC or a 2-bit MLC cell, equally likely.
fn random_codec(rng: &mut Rng) -> WeightCodec {
    let kind = [CellKind::Slc, CellKind::Mlc2][rng.gen_range(0..2)];
    WeightCodec::paper(CellTechnology::paper(kind))
}

/// Either variation kind, equally likely.
fn random_kind(rng: &mut Rng) -> VariationKind {
    [VariationKind::PerCell, VariationKind::PerWeight][rng.gen_range(0..2)]
}

/// encode/decode is the identity on every representable weight.
#[test]
fn codec_roundtrip() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (codec, v) = (random_codec(&mut rng), rng.gen_range(0u32..256));
        let slices = codec.encode(v).unwrap();
        assert_eq!(slices.len(), codec.cells_per_weight(), "case {case}");
        assert_eq!(codec.decode(&slices).unwrap(), v, "case {case}");
    }
}

/// The decoded value equals the place-value sum of the slices.
#[test]
fn codec_place_values() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (codec, v) = (random_codec(&mut rng), rng.gen_range(0u32..256));
        let slices = codec.encode(v).unwrap();
        let sum: u32 = slices.iter().enumerate().map(|(j, &s)| s * codec.place_value(j)).sum();
        assert_eq!(sum, v, "case {case}");
    }
}

/// Zero-σ writes are exact for both variation kinds.
#[test]
fn zero_sigma_write_is_exact() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (codec, v) = (random_codec(&mut rng), rng.gen_range(0u32..256));
        let model = VariationModel::new(0.0, random_kind(&mut rng));
        let crw = model.write(v, &codec, &mut seeded_rng(rng.gen_range(0u64..1000))).unwrap();
        assert!((crw - v as f64).abs() < 1e-9, "case {case}: wrote {crw} for {v}");
    }
}

/// The analytic LUT is strictly monotone and inverts exactly on its
/// own means, for any σ and either cell kind.
#[test]
fn lut_monotone_and_invertible() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (codec, sigma) = (random_codec(&mut rng), rng.gen_range(0.05f64..1.0));
        let v = rng.gen_range(0u32..256);
        let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &codec).unwrap();
        assert!(lut.is_monotone(), "case {case}");
        assert_eq!(lut.inverse_mean(lut.mean(v)), v, "case {case}");
    }
}

/// inverse_mean always returns the closest entry.
#[test]
fn inverse_mean_is_nearest() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (sigma, target) = (rng.gen_range(0.05f64..1.0), rng.gen_range(-50.0f64..400.0));
        let codec = WeightCodec::paper(CellTechnology::paper(CellKind::Slc));
        let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &codec).unwrap();
        let v = lut.inverse_mean(target);
        let d = (lut.mean(v) - target).abs();
        for cand in [v.saturating_sub(1), (v + 1).min(255)] {
            assert!(d <= (lut.mean(cand) - target).abs() + 1e-9, "case {case}: {v} vs {cand}");
        }
    }
}

/// E[R(v)] ≥ v under lognormal noise (mean inflation), with equality
/// only as σ → 0.
#[test]
fn mean_inflation_nonnegative() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (codec, sigma) = (random_codec(&mut rng), rng.gen_range(0.05f64..1.0));
        let v = rng.gen_range(0u32..256);
        let (mean, var) = VariationModel::per_weight(sigma).moments(v, &codec).unwrap();
        assert!(mean >= v as f64 - 1e-9, "case {case}: mean {mean} below {v}");
        assert!(var >= 0.0, "case {case}: var {var}");
    }
}

/// Variance grows with the stored value for the per-weight model.
#[test]
fn variance_monotone_in_value() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (sigma, v) = (rng.gen_range(0.1f64..1.0), rng.gen_range(0u32..255));
        let codec = WeightCodec::paper(CellTechnology::paper(CellKind::Slc));
        let model = VariationModel::per_weight(sigma);
        let (_, var_lo) = model.moments(v, &codec).unwrap();
        let (_, var_hi) = model.moments(v + 1, &codec).unwrap();
        assert!(var_hi > var_lo, "case {case}: v = {v}");
    }
}

/// Read power is monotone in the sum of cell levels and invariant to
/// which cells hold them (same level multiset ⇒ same power).
#[test]
fn read_power_depends_on_level_multiset() {
    for case in 0..64 {
        let v = seeded_rng(case).gen_range(0u32..256);
        let codec = WeightCodec::paper(CellTechnology::paper(CellKind::Slc));
        // bit-rotating an SLC pattern preserves the popcount ⇒ same power
        let rotated = ((v << 1) | (v >> 7)) & 0xFF;
        let p1 = codec.read_power(v).unwrap();
        let p2 = codec.read_power(rotated).unwrap();
        assert!((p1 - p2).abs() < 1e-9, "case {case}: {p1} vs {p2}");
    }
}

/// The binary-search mean inverse agrees with an exhaustive linear
/// scan over the whole table, for any target.
#[test]
fn inverse_mean_matches_linear_scan() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (codec, sigma) = (random_codec(&mut rng), rng.gen_range(0.05f64..1.0));
        let target = rng.gen_range(-80.0f64..500.0);
        let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &codec).unwrap();
        assert_eq!(lut.inverse_mean(target), lut.inverse_mean_linear(target), "case {case}");
    }
}
