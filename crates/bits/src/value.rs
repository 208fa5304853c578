//! The [`Value`] type: construction, access, and formatting.
//!
//! # Representation
//!
//! Signals in real designs are overwhelmingly narrow: every signal in the
//! paper's ALU, divider, conv2d, and systolic designs is at most 64 bits.
//! `Value` therefore stores widths of up to 64 bits as a single inline
//! `u64` — no heap allocation on construction, `clone`, or any operation —
//! and only widths above 64 bits as a boxed limb slice. The representation
//! is an internal invariant (`width <= 64` ⇔ inline); the public API is
//! unchanged and width-driven.

use std::fmt;

/// Number of bits per storage limb.
pub(crate) const LIMB_BITS: u32 = 64;

/// Storage: one inline limb for narrow values, boxed limbs for wide ones.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// All values with `width <= 64`.
    Small(u64),
    /// All values with `width > 64`; `len == ceil(width / 64)`.
    Big(Box<[u64]>),
}

/// A fixed-width, two-state bit vector.
///
/// Invariants maintained by every constructor and operation:
/// * `width >= 1`,
/// * `limbs().len() == ceil(width / 64)`,
/// * all bits above `width` in the top limb are zero,
/// * widths of at most 64 bits are stored inline (allocation-free).
///
/// # Examples
///
/// ```
/// use fil_bits::Value;
///
/// let v = Value::from_u64(12, 0xabc);
/// assert_eq!(v.width(), 12);
/// assert_eq!(v.to_u64(), 0xabc);
/// assert_eq!(format!("{v}"), "12'habc");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Value {
    width: u32,
    repr: Repr,
}

/// Error returned when parsing a [`Value`] from a string fails.
///
/// Produced by [`Value::from_hex_str`] and [`Value::from_bin_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseValueError {
    msg: String,
}

impl ParseValueError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for ParseValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid bit-vector literal: {}", self.msg)
    }
}

impl std::error::Error for ParseValueError {}

/// The mask of valid bits for an inline value of `width <= 64` bits.
#[inline]
pub(crate) fn mask64(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl Value {
    /// Creates an inline value, masking `bits` to `width` (which must be at
    /// most 64).
    #[inline]
    pub(crate) fn small(width: u32, bits: u64) -> Self {
        debug_assert!((1..=64).contains(&width));
        Value {
            width,
            repr: Repr::Small(bits & mask64(width)),
        }
    }

    /// The inline limb, if this value is narrow (`width <= 64`).
    #[inline]
    pub(crate) fn as_small(&self) -> Option<u64> {
        match self.repr {
            Repr::Small(x) => Some(x),
            Repr::Big(_) => None,
        }
    }

    /// Creates an all-zero value of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[inline]
    pub fn zero(width: u32) -> Self {
        assert!(width > 0, "bit-vector width must be at least 1");
        if width <= LIMB_BITS {
            Value {
                width,
                repr: Repr::Small(0),
            }
        } else {
            Value {
                width,
                repr: Repr::Big(vec![0; crate::limbs::count(width)].into_boxed_slice()),
            }
        }
    }

    /// Creates a value with every bit set.
    ///
    /// # Examples
    ///
    /// ```
    /// # use fil_bits::Value;
    /// assert_eq!(Value::ones(6).to_u64(), 0b111111);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn ones(width: u32) -> Self {
        let mut v = Value::zero(width);
        for limb in v.limbs_mut() {
            *limb = u64::MAX;
        }
        v.mask_top();
        v
    }

    /// Creates a value from a `u64`, truncating to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    #[inline]
    pub fn from_u64(width: u32, bits: u64) -> Self {
        assert!(width > 0, "bit-vector width must be at least 1");
        if width <= LIMB_BITS {
            Value::small(width, bits)
        } else {
            let mut v = Value::zero(width);
            v.limbs_mut()[0] = bits;
            v
        }
    }

    /// Creates a value from a `u128`, truncating to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    // The casts keep the low and the high 64 bits, as the limbs do.
    #[allow(clippy::cast_possible_truncation)]
    pub fn from_u128(width: u32, bits: u128) -> Self {
        assert!(width > 0, "bit-vector width must be at least 1");
        if width <= LIMB_BITS {
            return Value::small(width, bits as u64);
        }
        let mut v = Value::zero(width);
        let limbs = v.limbs_mut();
        limbs[0] = bits as u64;
        limbs[1] = (bits >> 64) as u64;
        v.mask_top();
        v
    }

    /// Creates a `width`-bit value from little-endian limbs, truncating or
    /// zero-extending as needed.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn from_limbs(width: u32, limbs: &[u64]) -> Self {
        let mut v = Value::zero(width);
        let dst = v.limbs_mut();
        let n = dst.len().min(limbs.len());
        dst[..n].copy_from_slice(&limbs[..n]);
        v.mask_top();
        v
    }

    /// Creates a 1-bit value from a boolean.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        Value::small(1, b as u64)
    }

    /// Parses a hexadecimal string (without prefix) into a `width`-bit value.
    ///
    /// # Errors
    ///
    /// Returns an error if the string is empty, contains a non-hex character,
    /// or encodes a number that does not fit in `width` bits.
    ///
    /// # Examples
    ///
    /// ```
    /// # use fil_bits::Value;
    /// let v = Value::from_hex_str(16, "beef")?;
    /// assert_eq!(v.to_u64(), 0xbeef);
    /// # Ok::<(), fil_bits::ParseValueError>(())
    /// ```
    pub fn from_hex_str(width: u32, s: &str) -> Result<Self, ParseValueError> {
        if s.is_empty() {
            return Err(ParseValueError::new("empty string"));
        }
        let mut v = Value::zero(width);
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let digit = c
                .to_digit(16)
                .ok_or_else(|| ParseValueError::new(format!("bad hex digit {c:?}")))?;
            v = v.checked_shift_in(4, digit as u64)?;
        }
        Ok(v)
    }

    /// Parses a binary string (without prefix) into a `width`-bit value.
    ///
    /// # Errors
    ///
    /// Returns an error if the string is empty, contains a character other
    /// than `0`, `1`, or `_`, or does not fit in `width` bits.
    pub fn from_bin_str(width: u32, s: &str) -> Result<Self, ParseValueError> {
        if s.is_empty() {
            return Err(ParseValueError::new("empty string"));
        }
        let mut v = Value::zero(width);
        for c in s.chars() {
            if c == '_' {
                continue;
            }
            let digit = match c {
                '0' => 0,
                '1' => 1,
                _ => return Err(ParseValueError::new(format!("bad binary digit {c:?}"))),
            };
            v = v.checked_shift_in(1, digit)?;
        }
        Ok(v)
    }

    /// Shifts `bits` new low-order bits in from the right, failing if any set
    /// bit would be shifted out the top.
    fn checked_shift_in(&self, bits: u32, low: u64) -> Result<Self, ParseValueError> {
        // Every bit in the top `bits` positions must currently be clear.
        for i in (self.width.saturating_sub(bits))..self.width {
            if self.bit(i) {
                return Err(ParseValueError::new(format!(
                    "literal does not fit in {} bits",
                    self.width
                )));
            }
        }
        if bits < self.width {
            Ok(self.shl(bits).or(&Value::from_u64(self.width, low)))
        } else {
            Ok(Value::from_u64(self.width, low))
        }
    }

    /// The width of this value in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The little-endian storage limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.repr {
            Repr::Small(x) => std::slice::from_ref(x),
            Repr::Big(b) => b,
        }
    }

    #[inline]
    pub(crate) fn limbs_mut(&mut self) -> &mut [u64] {
        match &mut self.repr {
            Repr::Small(x) => std::slice::from_mut(x),
            Repr::Big(b) => b,
        }
    }

    /// Clears any bits above `width` in the top limb, restoring the invariant.
    #[inline]
    pub(crate) fn mask_top(&mut self) {
        let width = self.width;
        crate::limbs::mask_top(self.limbs_mut(), width);
    }

    /// Reads bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[inline]
    pub fn bit(&self, i: u32) -> bool {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        match &self.repr {
            Repr::Small(x) => (x >> i) & 1 == 1,
            Repr::Big(b) => (b[(i / LIMB_BITS) as usize] >> (i % LIMB_BITS)) & 1 == 1,
        }
    }

    /// Returns a copy with bit `i` set to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn with_bit(&self, i: u32, b: bool) -> Self {
        assert!(
            i < self.width,
            "bit index {i} out of range for width {}",
            self.width
        );
        let mut v = self.clone();
        let limb = (i / LIMB_BITS) as usize;
        let mask = 1u64 << (i % LIMB_BITS);
        if b {
            v.limbs_mut()[limb] |= mask;
        } else {
            v.limbs_mut()[limb] &= !mask;
        }
        v
    }

    /// True if every bit is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        match &self.repr {
            Repr::Small(x) => *x == 0,
            Repr::Big(b) => b.iter().all(|&l| l == 0),
        }
    }

    /// The low 64 bits of this value (truncating; see [`Value::try_to_u64`]
    /// for the checked variant).
    #[inline]
    pub fn to_u64(&self) -> u64 {
        self.limbs()[0]
    }

    /// The full value as a `u64` if it fits.
    #[inline]
    pub fn try_to_u64(&self) -> Option<u64> {
        match &self.repr {
            Repr::Small(x) => Some(*x),
            Repr::Big(b) => {
                if b[1..].iter().all(|&l| l == 0) {
                    Some(b[0])
                } else {
                    None
                }
            }
        }
    }

    /// The low 128 bits of this value (truncating).
    pub fn to_u128(&self) -> u128 {
        let limbs = self.limbs();
        let lo = limbs[0] as u128;
        let hi = if limbs.len() > 1 { limbs[1] as u128 } else { 0 };
        (hi << 64) | lo
    }

    /// Interprets a 1-bit value as a boolean; wider values are "truthy" when
    /// nonzero (matching Verilog's implicit boolean coercion of guards).
    #[inline]
    pub fn as_bool(&self) -> bool {
        !self.is_zero()
    }

    /// Number of significant bits (position of highest set bit + 1; 0 if zero).
    pub fn significant_bits(&self) -> u32 {
        self.width - self.leading_zeros()
    }

    /// Zero-extends or truncates to a new width.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn resize(&self, width: u32) -> Self {
        assert!(width > 0, "bit-vector width must be at least 1");
        if width <= LIMB_BITS {
            return Value::small(width, self.limbs()[0]);
        }
        let mut v = Value::zero(width);
        crate::limbs::resize(self.limbs(), v.limbs_mut());
        v.mask_top();
        v
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Value({self})")
    }
}

impl fmt::Display for Value {
    /// Verilog-style sized hex literal, e.g. `8'hff`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'h{:x}", self.width, self)
    }
}

impl fmt::LowerHex for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let limbs = self.limbs();
        match limbs.iter().rposition(|&l| l != 0) {
            None => write!(f, "0"),
            Some(top) => {
                write!(f, "{:x}", limbs[top])?;
                for &limb in limbs[..top].iter().rev() {
                    write!(f, "{limb:016x}")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Binary for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width).rev() {
            write!(f, "{}", if self.bit(i) { '1' } else { '0' })?;
        }
        Ok(())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::from_bool(b)
    }
}
