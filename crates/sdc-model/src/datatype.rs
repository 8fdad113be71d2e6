//! Operation datatypes affected by SDCs (Observation 6, Figure 3).
//!
//! The paper's Figure 3 enumerates: i16, i32, ui32, f32, f64, bit, byte,
//! bin16, bin32, bin64; Table 3 additionally mentions f64x (80-bit extended
//! precision) and Figure 4(d)/(h) analyse it.

use std::fmt;

/// A datatype an operation (and thus an SDC) can act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DataType {
    /// 16-bit signed integer.
    I16,
    /// 32-bit signed integer.
    I32,
    /// 32-bit unsigned integer.
    U32,
    /// Single-precision IEEE-754 floating point.
    F32,
    /// Double-precision IEEE-754 floating point.
    F64,
    /// 80-bit x87 extended-precision floating point ("float64x" in Table 3).
    F64X,
    /// A single bit (flag / predicate results).
    Bit,
    /// An 8-bit raw byte.
    Byte,
    /// 16 bits of non-numerical binary data (e.g. a hash fragment).
    Bin16,
    /// 32 bits of non-numerical binary data (e.g. a CRC32 value).
    Bin32,
    /// 64 bits of non-numerical binary data (e.g. a 64-bit hash).
    Bin64,
}

impl DataType {
    /// All datatypes, in the order of the paper's Figure 3 (with F64X
    /// inserted after F64, as analysed in Figure 4).
    pub const ALL: [DataType; 11] = [
        DataType::I16,
        DataType::I32,
        DataType::U32,
        DataType::F32,
        DataType::F64,
        DataType::F64X,
        DataType::Bit,
        DataType::Byte,
        DataType::Bin16,
        DataType::Bin32,
        DataType::Bin64,
    ];

    /// Width of the representation in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        match self {
            DataType::Bit => 1,
            DataType::Byte => 8,
            DataType::I16 | DataType::Bin16 => 16,
            DataType::I32 | DataType::U32 | DataType::F32 | DataType::Bin32 => 32,
            DataType::F64 | DataType::Bin64 => 64,
            DataType::F64X => 80,
        }
    }

    /// Mask with the low `bits()` bits set; representations are stored in
    /// the low bits of a `u128`.
    #[inline]
    pub fn mask(self) -> u128 {
        if self.bits() == 128 {
            u128::MAX
        } else {
            (1u128 << self.bits()) - 1
        }
    }

    /// Whether this datatype carries a numerical value (integers and
    /// floats); bitflip *position* analyses split on this (Figures 4 vs 5).
    pub fn is_numeric(self) -> bool {
        matches!(
            self,
            DataType::I16
                | DataType::I32
                | DataType::U32
                | DataType::F32
                | DataType::F64
                | DataType::F64X
        )
    }

    /// Whether this datatype is an IEEE-754-style floating-point format.
    pub fn is_float(self) -> bool {
        matches!(self, DataType::F32 | DataType::F64 | DataType::F64X)
    }

    /// Number of fraction (mantissa) bits for float formats, `None`
    /// otherwise.
    ///
    /// For `F64X` this counts the 63 bits below the explicit integer bit.
    pub fn fraction_bits(self) -> Option<u32> {
        match self {
            DataType::F32 => Some(23),
            DataType::F64 => Some(52),
            DataType::F64X => Some(63),
            _ => None,
        }
    }

    /// Label used in tables and figures (matches Figure 3 ticks).
    pub fn label(self) -> &'static str {
        match self {
            DataType::I16 => "i16",
            DataType::I32 => "i32",
            DataType::U32 => "ui32",
            DataType::F32 => "f32",
            DataType::F64 => "f64",
            DataType::F64X => "f64x",
            DataType::Bit => "bit",
            DataType::Byte => "byte",
            DataType::Bin16 => "bin16",
            DataType::Bin32 => "bin32",
            DataType::Bin64 => "bin64",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths() {
        assert_eq!(DataType::Bit.bits(), 1);
        assert_eq!(DataType::Byte.bits(), 8);
        assert_eq!(DataType::I16.bits(), 16);
        assert_eq!(DataType::F32.bits(), 32);
        assert_eq!(DataType::F64.bits(), 64);
        assert_eq!(DataType::F64X.bits(), 80);
    }

    #[test]
    fn masks_cover_exactly_width() {
        for dt in DataType::ALL {
            assert_eq!(dt.mask().count_ones(), dt.bits());
        }
    }

    #[test]
    fn numeric_and_float_split() {
        assert!(DataType::I32.is_numeric());
        assert!(!DataType::I32.is_float());
        assert!(DataType::F64X.is_float());
        assert!(!DataType::Bin64.is_numeric());
        assert!(!DataType::Byte.is_numeric());
    }

    #[test]
    fn fraction_bits_for_floats_only() {
        assert_eq!(DataType::F32.fraction_bits(), Some(23));
        assert_eq!(DataType::F64.fraction_bits(), Some(52));
        assert_eq!(DataType::F64X.fraction_bits(), Some(63));
        assert_eq!(DataType::I32.fraction_bits(), None);
    }

    #[test]
    fn all_has_eleven_distinct() {
        let set: std::collections::HashSet<_> = DataType::ALL.into_iter().collect();
        assert_eq!(set.len(), 11);
    }
}
