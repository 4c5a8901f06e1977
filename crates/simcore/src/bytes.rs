//! Byte-size constants and human-readable formatting.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;

/// A byte count with saturating arithmetic and human-readable display.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from kibibytes.
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * KIB)
    }

    /// Creates a size from mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }

    /// Creates a size from gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * GIB)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Whether this is zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// `self * num / den`, computed without overflow for realistic sizes.
    pub fn mul_ratio(self, num: u64, den: u64) -> ByteSize {
        ByteSize((self.0 as u128 * num as u128 / den.max(1) as u128) as u64)
    }
}

impl From<u64> for ByteSize {
    fn from(n: u64) -> Self {
        ByteSize(n)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(rhs))
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= GIB {
            write!(f, "{:.2}GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2}MiB", b as f64 / MIB as f64)
        } else if b >= KIB {
            write!(f, "{:.2}KiB", b as f64 / KIB as f64)
        } else {
            write!(f, "{b}B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale() {
        assert_eq!(ByteSize::kib(2).as_u64(), 2048);
        assert_eq!(ByteSize::mib(1).as_u64(), 1024 * 1024);
        assert_eq!(ByteSize::gib(1).as_u64(), 1024 * 1024 * 1024);
    }

    #[test]
    fn saturating_arithmetic() {
        assert_eq!(ByteSize(5) - ByteSize(10), ByteSize::ZERO);
        assert_eq!(ByteSize(u64::MAX) + ByteSize(1), ByteSize(u64::MAX));
    }

    #[test]
    fn ratio_is_exact_for_large_values() {
        let huge = ByteSize::gib(100);
        assert_eq!(huge.mul_ratio(1, 2), ByteSize::gib(50));
        assert_eq!(huge.mul_ratio(3, 4), ByteSize::gib(75));
        // Zero denominator clamps rather than panics.
        assert_eq!(huge.mul_ratio(1, 0), huge);
    }

    #[test]
    fn display_units() {
        assert_eq!(ByteSize(512).to_string(), "512B");
        assert_eq!(ByteSize::kib(1).to_string(), "1.00KiB");
        assert_eq!(ByteSize::mib(3).to_string(), "3.00MiB");
        assert_eq!(ByteSize::gib(2).to_string(), "2.00GiB");
    }
}
