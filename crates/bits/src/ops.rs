//! Arithmetic, logical, shift, comparison, and structural operations.
//!
//! All binary operations panic on width mismatch: in a structural netlist a
//! width mismatch is an elaboration bug, never a runtime condition, so the
//! simulator treats it as a programming error rather than an `Err`.
//!
//! Each operation is its [lane kernel](crate::lanes) at one lane, where a
//! lane's storage is exactly a `Value`'s limbs, so `Value`, opt's
//! const-fold and the simulator share one implementation. Values of up to
//! 64 bits stay inline, so no operation on them allocates.

use crate::value::Value;
use crate::{lanes, limbs};
use std::cmp::Ordering;

fn assert_same_width(a: &Value, b: &Value, op: &str) {
    assert_eq!(
        a.width(),
        b.width(),
        "width mismatch in {op}: {} vs {}",
        a.width(),
        b.width()
    );
}

type Kernel2 = fn(u32, u32, &[u64], &[u64], &mut [u64]);

impl Value {
    /// A `width`-bit value written by a one-lane kernel.
    #[inline(always)]
    fn from_kernel(width: u32, kernel: impl FnOnce(&mut [u64])) -> Value {
        let mut out = Value::zero(width);
        kernel(out.limbs_mut());
        out
    }

    /// A same-width binary kernel at one lane.
    #[inline(always)]
    fn kernel2(&self, rhs: &Value, op: &str, kernel: Kernel2) -> Value {
        assert_same_width(self, rhs, op);
        let w = self.width();
        Value::from_kernel(w, |o| kernel(1, w, self.limbs(), rhs.limbs(), o))
    }

    /// Wrapping addition modulo `2^width`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn add(&self, rhs: &Value) -> Value {
        self.kernel2(rhs, "add", lanes::add)
    }

    /// Wrapping subtraction modulo `2^width`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn sub(&self, rhs: &Value) -> Value {
        self.kernel2(rhs, "sub", lanes::sub)
    }

    /// Wrapping multiplication modulo `2^width` (schoolbook over limbs).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn mul(&self, rhs: &Value) -> Value {
        self.kernel2(rhs, "mul", lanes::mul)
    }

    /// Widening multiplication: the full `2 * width`-bit product.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn mul_full(&self, rhs: &Value) -> Value {
        assert_same_width(self, rhs, "mul_full");
        let w2 = self.width() * 2;
        self.resize(w2).mul(&rhs.resize(w2))
    }

    /// Unsigned division; returns all-ones on divide-by-zero (matching the
    /// common FPGA divider IP convention).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn div(&self, rhs: &Value) -> Value {
        assert_same_width(self, rhs, "div");
        self.divmod(rhs).0
    }

    /// Unsigned remainder; returns the dividend on divide-by-zero.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn rem(&self, rhs: &Value) -> Value {
        assert_same_width(self, rhs, "rem");
        self.divmod(rhs).1
    }

    /// Unsigned quotient and remainder via restoring long division — the same
    /// algorithm as the paper's Section 2.5 divider designs.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn divmod(&self, rhs: &Value) -> (Value, Value) {
        assert_same_width(self, rhs, "divmod");
        let w = self.width();
        if let (Some(a), Some(b)) = (self.as_small(), rhs.as_small()) {
            return match a.checked_div(b) {
                None => (Value::ones(w), self.clone()),
                Some(q) => (Value::small(w, q), Value::small(w, a % b)),
            };
        }
        if rhs.is_zero() {
            return (Value::ones(w), self.clone());
        }
        let mut quotient = Value::zero(w);
        let mut acc = Value::zero(w);
        for i in (0..w).rev() {
            acc = acc.shl(1).with_bit(0, self.bit(i));
            if acc.ucmp(rhs) != Ordering::Less {
                acc = acc.sub(rhs);
                quotient = quotient.with_bit(i, true);
            }
        }
        (quotient, acc)
    }

    /// Bitwise NOT.
    #[inline]
    pub fn not(&self) -> Value {
        let w = self.width();
        Value::from_kernel(w, |o| lanes::not(1, w, self.limbs(), o))
    }

    /// Bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn and(&self, rhs: &Value) -> Value {
        self.kernel2(rhs, "and", lanes::and)
    }

    /// Bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn or(&self, rhs: &Value) -> Value {
        self.kernel2(rhs, "or", lanes::or)
    }

    /// Bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn xor(&self, rhs: &Value) -> Value {
        self.kernel2(rhs, "xor", lanes::xor)
    }

    /// Logical left shift by a constant amount; bits shifted past the width
    /// are dropped.
    #[inline]
    pub fn shl(&self, amount: u32) -> Value {
        let w = self.width();
        Value::from_kernel(w, |o| lanes::shl_const(1, w, self.limbs(), amount, o))
    }

    /// Logical right shift by a constant amount.
    #[inline]
    pub fn shr(&self, amount: u32) -> Value {
        let w = self.width();
        Value::from_kernel(w, |o| lanes::shr_const(1, w, self.limbs(), amount, o))
    }

    /// Logical left shift by a dynamic amount (a `Value`); amounts at or
    /// beyond the width produce zero.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ (RTL shifters take same-width operands).
    pub fn shl_dyn(&self, amount: &Value) -> Value {
        self.kernel2(amount, "shl_dyn", lanes::shl_dyn)
    }

    /// Logical right shift by a dynamic amount.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn shr_dyn(&self, amount: &Value) -> Value {
        self.kernel2(amount, "shr_dyn", lanes::shr_dyn)
    }

    /// Unsigned comparison.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[inline]
    pub fn ucmp(&self, rhs: &Value) -> Ordering {
        assert_same_width(self, rhs, "ucmp");
        limbs::cmp(self.limbs(), rhs.limbs())
    }

    /// Extracts bits `[lo, hi]` inclusive (Verilog `v[hi:lo]`).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi >= self.width()`.
    #[inline]
    pub fn slice(&self, hi: u32, lo: u32) -> Value {
        assert!(lo <= hi, "slice low index {lo} above high index {hi}");
        assert!(
            hi < self.width(),
            "slice high index {hi} out of range for width {}",
            self.width()
        );
        let w = self.width();
        Value::from_kernel(hi - lo + 1, |o| lanes::slice(1, w, self.limbs(), hi, lo, o))
    }

    /// Concatenation: `self` becomes the *high* bits (Verilog `{self, low}`).
    #[inline]
    pub fn concat(&self, low: &Value) -> Value {
        let (hw, lw) = (self.width(), low.width());
        Value::from_kernel(hw + lw, |o| {
            lanes::concat(1, hw, lw, self.limbs(), low.limbs(), o);
        })
    }

    /// Number of leading zeros within the declared width.
    ///
    /// # Examples
    ///
    /// ```
    /// # use fil_bits::Value;
    /// assert_eq!(Value::from_u64(8, 0b0001_0000).leading_zeros(), 3);
    /// assert_eq!(Value::zero(8).leading_zeros(), 8);
    /// ```
    #[inline]
    pub fn leading_zeros(&self) -> u32 {
        limbs::leading_zeros(self.limbs(), self.width())
    }

    /// OR-reduction: 1-bit result, set if any bit of `self` is set.
    #[inline]
    pub fn reduce_or(&self) -> Value {
        Value::from_bool(!self.is_zero())
    }

    /// AND-reduction: 1-bit result, set if all bits of `self` are set.
    #[inline]
    pub fn reduce_and(&self) -> Value {
        Value::from_bool(limbs::all_ones(self.limbs(), self.width()))
    }

    /// Two's-complement negation modulo `2^width`.
    #[inline]
    pub fn neg(&self) -> Value {
        Value::zero(self.width()).sub(self)
    }

    /// True if the value, read as a two's-complement signed number, is
    /// negative (i.e. the top bit is set).
    #[inline]
    pub fn is_negative_signed(&self) -> bool {
        self.bit(self.width() - 1)
    }
}

/// Builds a value by concatenating fields from most significant to least.
///
/// This is the programmatic analogue of a Verilog concatenation literal
/// `{a, b, c}` and is used heavily when assembling AES state and FP fields.
///
/// # Examples
///
/// ```
/// use fil_bits::{concat_fields, Value};
///
/// let v = concat_fields(&[Value::from_u64(4, 0xa), Value::from_u64(4, 0xb)]);
/// assert_eq!(v.to_u64(), 0xab);
/// ```
///
/// # Panics
///
/// Panics if `fields` is empty.
pub fn concat_fields(fields: &[Value]) -> Value {
    assert!(!fields.is_empty(), "concat_fields needs at least one field");
    let mut iter = fields.iter();
    let mut acc = iter.next().expect("nonempty").clone();
    for f in iter {
        acc = acc.concat(f);
    }
    acc
}

/// Debug helper: asserts the internal invariants of a [`Value`].
///
/// # Panics
///
/// Panics if the limb count, top-bit masking, or inline-representation
/// invariant is violated.
pub fn assert_invariants(v: &Value) {
    assert_eq!(v.limbs().len(), limbs::count(v.width()));
    assert_eq!(
        v.as_small().is_some(),
        v.width() <= 64,
        "width {} must {}use the inline representation",
        v.width(),
        if v.width() <= 64 { "" } else { "not " },
    );
    let mut masked = v.clone();
    masked.mask_top();
    assert_eq!(&masked, v, "top bits above width must be zero");
}
