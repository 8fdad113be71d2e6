//! Typed values stored as raw bit representations.
//!
//! SDC records compare an expected and an actual result at the bit level
//! (Figure 4–5) and at the value level (precision-loss CDFs, Figure 4e–h).
//! `Value` carries the raw representation in the low bits of a `u128`
//! together with its [`DataType`], and knows how to interpret itself
//! numerically — including the 80-bit x87 extended format.

use crate::datatype::DataType;

/// A typed value stored as its raw bit representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Value {
    /// The datatype of the representation.
    pub dt: DataType,
    /// Raw bits in the low `dt.bits()` bits.
    pub bits: u128,
}

impl Value {
    /// Builds a value from raw bits, masking to the datatype width.
    pub fn from_bits(dt: DataType, bits: u128) -> Self {
        Value {
            dt,
            bits: bits & dt.mask(),
        }
    }

    /// Builds an `i16` value.
    pub fn from_i16(v: i16) -> Self {
        Value::from_bits(DataType::I16, v as u16 as u128)
    }

    /// Builds an `i32` value.
    pub fn from_i32(v: i32) -> Self {
        Value::from_bits(DataType::I32, v as u32 as u128)
    }

    /// Builds a `u32` value.
    pub fn from_u32(v: u32) -> Self {
        Value::from_bits(DataType::U32, v as u128)
    }

    /// Builds an `f32` value from its numeric value.
    pub fn from_f32(v: f32) -> Self {
        Value::from_bits(DataType::F32, v.to_bits() as u128)
    }

    /// Builds an `f64` value from its numeric value.
    pub fn from_f64(v: f64) -> Self {
        Value::from_bits(DataType::F64, v.to_bits() as u128)
    }

    /// Builds an 80-bit extended-precision value from its raw encoding
    /// (sign bit 79, 15-bit exponent, 64-bit significand with explicit
    /// integer bit).
    pub fn from_f64x_bits(bits: u128) -> Self {
        Value::from_bits(DataType::F64X, bits)
    }

    /// Interprets the representation as a numeric `f64`, when the datatype
    /// is numeric. Non-numeric (binary) datatypes return `None`.
    pub fn to_f64(self) -> Option<f64> {
        match self.dt {
            DataType::I16 => Some(self.bits as u16 as i16 as f64),
            DataType::I32 => Some(self.bits as u32 as i32 as f64),
            DataType::U32 => Some(self.bits as u32 as f64),
            DataType::F32 => Some(f32::from_bits(self.bits as u32) as f64),
            DataType::F64 => Some(f64::from_bits(self.bits as u64)),
            DataType::F64X => Some(decode_f64x(self.bits)),
            DataType::Bit
            | DataType::Byte
            | DataType::Bin16
            | DataType::Bin32
            | DataType::Bin64 => None,
        }
    }

    /// Relative precision loss of `actual` with respect to `expected`:
    /// `|expected − actual| / |expected|`.
    ///
    /// For floating-point values whose sign and exponent agree, the loss is
    /// computed exactly from the significands, so sub-`f64`-epsilon losses
    /// (e.g. a flip in the low fraction bit of an 80-bit value) do not
    /// round to zero. Returns `None` for non-numeric datatypes, and
    /// `f64::INFINITY` when the expected value is zero but the actual is
    /// not.
    pub fn rel_precision_loss(expected: Value, actual: Value) -> Option<f64> {
        if expected.dt != actual.dt || !expected.dt.is_numeric() {
            return None;
        }
        if expected.bits == actual.bits {
            return Some(0.0);
        }
        if let Some(loss) = float_exact_loss(expected, actual) {
            return Some(loss);
        }
        let e = expected.to_f64()?;
        let a = actual.to_f64()?;
        if e == 0.0 {
            return Some(if a == 0.0 { 0.0 } else { f64::INFINITY });
        }
        Some(((e - a) / e).abs())
    }
}

/// Exact loss path for float formats when sign and exponent agree: the
/// relative difference is `|m_e − m_a| / m_e` over the significands.
fn float_exact_loss(expected: Value, actual: Value) -> Option<f64> {
    let (se, ee, me) = split_float(expected)?;
    let (sa, ea, ma) = split_float(actual)?;
    if se != sa || ee != ea || me == 0 {
        return None;
    }
    let diff = me.abs_diff(ma);
    Some(diff as f64 / me as f64)
}

/// Splits a float representation into (sign, biased exponent, significand
/// with the implicit/explicit leading bit made explicit).
fn split_float(v: Value) -> Option<(bool, u32, u128)> {
    match v.dt {
        DataType::F32 => {
            let b = v.bits as u32;
            let exp = (b >> 23) & 0xff;
            let frac = (b & 0x7f_ffff) as u128;
            let m = if exp == 0 { frac } else { frac | (1 << 23) };
            Some((b >> 31 == 1, exp, m))
        }
        DataType::F64 => {
            let b = v.bits as u64;
            let exp = ((b >> 52) & 0x7ff) as u32;
            let frac = (b & ((1u64 << 52) - 1)) as u128;
            let m = if exp == 0 { frac } else { frac | (1 << 52) };
            Some((b >> 63 == 1, exp, m))
        }
        DataType::F64X => {
            let b = v.bits;
            let exp = ((b >> 64) & 0x7fff) as u32;
            // The integer bit is explicit in the x87 format.
            let m = b & u64::MAX as u128;
            Some(((b >> 79) & 1 == 1, exp, m))
        }
        _ => None,
    }
}

/// Decodes an 80-bit x87 extended-precision representation to `f64`
/// (with precision loss, for display and coarse comparisons).
fn decode_f64x(bits: u128) -> f64 {
    let sign = if (bits >> 79) & 1 == 1 { -1.0 } else { 1.0 };
    let exp = ((bits >> 64) & 0x7fff) as i32;
    let frac = (bits & u64::MAX as u128) as u64;
    if exp == 0 && frac == 0 {
        return sign * 0.0;
    }
    if exp == 0x7fff {
        return if frac << 1 == 0 {
            sign * f64::INFINITY
        } else {
            f64::NAN
        };
    }
    if exp != 0 && frac >> 63 == 0 {
        // "Unnormal": nonzero exponent with a clear integer bit — invalid
        // on modern x87 hardware, decoded as NaN (matching `softfloat`).
        return f64::NAN;
    }
    // value = sign · frac · 2^(e); the exponent field 0 denotes an x87
    // denormal with the same scale as exponent 1.
    let e = if exp == 0 { 1 } else { exp } - 16383 - 63;
    // Split the scaling so deep f64 underflow is gradual rather than an
    // abrupt zero from `powi` underflowing before the multiply.
    if e >= -1000 {
        sign * (frac as f64) * 2f64.powi(e)
    } else {
        sign * (frac as f64) * 2f64.powi(-1000) * 2f64.powi(e + 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_numeric_interpretations() {
        assert_eq!(Value::from_i16(-5).to_f64(), Some(-5.0));
        assert_eq!(Value::from_i32(123456).to_f64(), Some(123456.0));
        assert_eq!(Value::from_u32(u32::MAX).to_f64(), Some(u32::MAX as f64));
        assert_eq!(Value::from_f32(1.5).to_f64(), Some(1.5));
        assert_eq!(Value::from_f64(-2.25).to_f64(), Some(-2.25));
    }

    #[test]
    fn binary_types_have_no_numeric_view() {
        assert_eq!(
            Value::from_bits(DataType::Bin32, 0xdead_beef).to_f64(),
            None
        );
        assert_eq!(Value::from_bits(DataType::Byte, 0xff).to_f64(), None);
    }

    #[test]
    fn f64x_decode_one() {
        // 1.0 in x87: exponent 16383, significand 1 << 63.
        let bits = (16383u128 << 64) | (1u128 << 63);
        assert_eq!(decode_f64x(bits), 1.0);
    }

    #[test]
    fn f64x_decode_negative_two() {
        let bits = (1u128 << 79) | (16384u128 << 64) | (1u128 << 63);
        assert_eq!(decode_f64x(bits), -2.0);
    }

    #[test]
    fn loss_zero_for_identical() {
        let v = Value::from_f64(3.125);
        assert_eq!(Value::rel_precision_loss(v, v), Some(0.0));
    }

    #[test]
    fn loss_int_flip_can_exceed_one() {
        // Flipping bit 5 of the value 1 gives 33: loss 32/1 = 3200%.
        let e = Value::from_i32(1);
        let a = Value::from_i32(33);
        let loss = Value::rel_precision_loss(e, a).unwrap();
        assert!((loss - 32.0).abs() < 1e-12);
    }

    #[test]
    fn loss_low_fraction_flip_is_tiny_but_nonzero() {
        // Flip the least-significant fraction bit of an F64X value of 1.0.
        let e = Value::from_f64x_bits((16383u128 << 64) | (1u128 << 63));
        let a = Value::from_f64x_bits(e.bits ^ 1);
        let loss = Value::rel_precision_loss(e, a).unwrap();
        assert!(loss > 0.0);
        assert!(loss < 1e-18, "loss {loss} should be ~2^-63");
    }

    #[test]
    fn loss_fraction_flip_independent_of_value() {
        // Observation 7: for floats, the relative loss of a fraction-bit
        // flip depends only on the bit position, not the value.
        for v in [1.0f64, 3.7, 1234.5, 9.1e-3] {
            let e = Value::from_f64(v);
            let a = Value::from_bits(DataType::F64, e.bits ^ (1 << 30));
            let loss = Value::rel_precision_loss(e, a).unwrap();
            let expected = 2f64.powi(30 - 52)
                / (f64::from_bits(e.bits as u64).abs()
                    / 2f64.powi(f64::from_bits(e.bits as u64).abs().log2().floor() as i32));
            // Position-only dependence: loss ∈ [2^-23, 2^-21] for bit 30.
            assert!(
                loss > 2f64.powi(-24) && loss < 2f64.powi(-21),
                "loss {loss} vs {expected}"
            );
        }
    }

    #[test]
    fn loss_from_zero_is_infinite() {
        let e = Value::from_i32(0);
        let a = Value::from_i32(4);
        assert_eq!(Value::rel_precision_loss(e, a), Some(f64::INFINITY));
    }

    #[test]
    fn loss_none_for_binary() {
        let e = Value::from_bits(DataType::Bin32, 1);
        let a = Value::from_bits(DataType::Bin32, 2);
        assert_eq!(Value::rel_precision_loss(e, a), None);
    }
}
