//! Conversions between [`F80`] and `f64`.

use crate::{Kind, F80};

impl F80 {
    /// Converts an `f64` exactly (every `f64` is representable in the
    /// extended format).
    pub fn from_f64(v: f64) -> F80 {
        let bits = v.to_bits();
        let sign = bits >> 63 == 1;
        let exp = ((bits >> 52) & 0x7ff) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        match exp {
            0 => {
                if frac == 0 {
                    F80 {
                        sign,
                        kind: Kind::Zero,
                    }
                } else {
                    // Subnormal f64: value = frac × 2^−1074. `normalized`
                    // interprets (exp, sig) as sig × 2^(exp − 63).
                    F80::normalized(sign, -1074 + 63, frac)
                }
            }
            0x7ff => {
                if frac == 0 {
                    F80 {
                        sign,
                        kind: Kind::Inf,
                    }
                } else {
                    F80 {
                        sign,
                        kind: Kind::Nan,
                    }
                }
            }
            _ => {
                let sig = (frac | (1 << 52)) << 11;
                F80 {
                    sign,
                    kind: Kind::Normal {
                        exp: exp - 1023,
                        sig,
                    },
                }
            }
        }
    }

    /// Converts to `f64`, rounding the 64-bit significand to 53 bits with
    /// round-to-nearest-even. Overflow produces ±∞; deep underflow rounds
    /// through the `f64` subnormal range.
    pub fn to_f64(self) -> f64 {
        match self.kind {
            Kind::Zero => {
                if self.sign {
                    -0.0
                } else {
                    0.0
                }
            }
            Kind::Inf => {
                if self.sign {
                    f64::NEG_INFINITY
                } else {
                    f64::INFINITY
                }
            }
            Kind::Nan => f64::NAN,
            Kind::Normal { exp, sig } => {
                // value = sig × 2^(exp − 63); build via scaled integer.
                let magnitude = compose_f64(exp, sig);
                if self.sign {
                    -magnitude
                } else {
                    magnitude
                }
            }
        }
    }
}

/// Composes `sig × 2^(exp − 63)` as a positive `f64` with
/// round-to-nearest-even on the significand.
fn compose_f64(exp: i32, sig: u64) -> f64 {
    debug_assert!(sig >> 63 == 1);
    // Biased f64 exponent if the value stays normal.
    let e = exp + 1023;
    if e >= 0x7ff {
        return f64::INFINITY;
    }
    if e >= 1 {
        // Round 64-bit sig to 53 bits: drop 11 bits with RNE.
        let (mantissa, carry) = round_shift(sig, 11);
        let (mantissa, e) = if carry {
            (mantissa >> 1, e + 1)
        } else {
            (mantissa, e)
        };
        if e >= 0x7ff {
            return f64::INFINITY;
        }
        let frac = mantissa & ((1u64 << 52) - 1);
        return f64::from_bits(((e as u64) << 52) | frac);
    }
    // Subnormal range: shift further right.
    let extra = 1 - e; // ≥ 1
    if extra > 63 {
        return 0.0;
    }
    let shift = 11 + extra as u32;
    if shift >= 64 {
        // kept = 0 (even); at shift 64 the round bit is sig's bit 63 (set),
        // so RNE rounds up to the smallest subnormal unless it is an exact
        // tie (sig with no sticky bits), which rounds to even zero.
        return if shift == 64 && sig != (1 << 63) {
            f64::from_bits(1)
        } else {
            0.0
        };
    }
    let (mantissa, carry) = round_shift(sig, shift);
    let mantissa = if carry { mantissa >> 1 } else { mantissa };
    f64::from_bits(mantissa)
}

/// Shifts `sig` right by `n` (1..=63) with round-to-nearest-even.
/// Returns `(result, carried)` where `carried` means the rounding overflowed
/// into one extra bit.
fn round_shift(sig: u64, n: u32) -> (u64, bool) {
    debug_assert!((1..=63).contains(&n));
    let kept = sig >> n;
    let round_bit = (sig >> (n - 1)) & 1;
    let sticky = sig & ((1u64 << (n - 1)) - 1) != 0;
    let round_up = round_bit == 1 && (sticky || kept & 1 == 1);
    let out = kept + round_up as u64;
    let carried = out >> (64 - n) != kept >> (64 - n) && out.leading_zeros() < kept.leading_zeros();
    (out, carried)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple_values() {
        for v in [
            0.0,
            1.0,
            -1.0,
            0.5,
            std::f64::consts::PI,
            1e300,
            1e-300,
            -42.125,
        ] {
            assert_eq!(F80::from_f64(v).to_f64(), v, "roundtrip {v}");
        }
    }

    #[test]
    fn roundtrip_signed_zero() {
        assert!(F80::from_f64(-0.0).is_sign_negative());
        assert_eq!(F80::from_f64(-0.0).to_f64().to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn roundtrip_specials() {
        assert!(F80::from_f64(f64::NAN).is_nan());
        assert!(F80::from_f64(f64::NAN).to_f64().is_nan());
        assert_eq!(F80::from_f64(f64::INFINITY).to_f64(), f64::INFINITY);
        assert_eq!(F80::from_f64(f64::NEG_INFINITY).to_f64(), f64::NEG_INFINITY);
    }

    #[test]
    fn roundtrip_subnormals() {
        let tiny = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(F80::from_f64(tiny).to_f64(), tiny);
        let sub = f64::from_bits(0x000f_ffff_ffff_ffff);
        assert_eq!(F80::from_f64(sub).to_f64(), sub);
    }

    #[test]
    fn roundtrip_extremes() {
        assert_eq!(F80::from_f64(f64::MAX).to_f64(), f64::MAX);
        assert_eq!(F80::from_f64(f64::MIN_POSITIVE).to_f64(), f64::MIN_POSITIVE);
    }

    #[test]
    fn round_shift_nearest_even() {
        // kept = 0b11, round bit 0 → unchanged.
        assert_eq!(round_shift(0b110 << 61, 62).0, 0b11);
        // Exact half with odd kept → round up to even.
        let (r, _) = round_shift((0b11u64 << 62) | (1 << 61), 62);
        assert_eq!(r, 0b100);
        // Exact half with even kept → stays even.
        let (r, _) = round_shift((0b10u64 << 62) | (1 << 61), 62);
        assert_eq!(r, 0b10);
        // Above half → rounds up regardless of parity.
        let (r, _) = round_shift((0b10u64 << 62) | (1 << 61) | 1, 62);
        assert_eq!(r, 0b11);
    }

    #[test]
    fn extended_precision_exceeds_f64() {
        // 1 + 2^−60 is representable in F80 but rounds to 1.0 in f64.
        let one = F80::ONE;
        let tiny = F80::from_f64(2f64.powi(-60));
        let sum = one + tiny;
        assert_eq!(sum.to_f64(), 1.0);
        assert_ne!(sum, F80::ONE, "extended precision retains the 2^-60 term");
    }
}
