//! Wide operations over little-endian limb slices.
//!
//! Each operation is written once here and serves both storages: the wide
//! paths of [`Value`](crate::Value) and one lane of a multi-limb signal in
//! the [lane layout](crate::lanes). None allocates. Operands and results
//! are little-endian `u64` limbs; a result's bits above its width are left
//! for the caller to clear with [`mask_top`] where an operation can set
//! them.

use std::cmp::Ordering;

/// Number of `u64` limbs holding `width` bits.
#[inline]
pub fn count(width: u32) -> usize {
    width.div_ceil(64) as usize
}

/// Clears the bits at and above `width` in the top limb.
#[inline]
pub fn mask_top(out: &mut [u64], width: u32) {
    let rem = width % 64;
    if rem != 0 {
        if let Some(top) = out.last_mut() {
            *top &= (1u64 << rem) - 1;
        }
    }
}

/// `out = a + b`, wrapping at `64 * out.len()` bits.
pub fn add(a: &[u64], b: &[u64], out: &mut [u64]) {
    let mut carry = false;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let (s1, c1) = x.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(u64::from(carry));
        *o = s2;
        carry = c1 | c2;
    }
}

/// `out = a - b`, wrapping at `64 * out.len()` bits.
pub fn sub(a: &[u64], b: &[u64], out: &mut [u64]) {
    let mut borrow = false;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let (s1, b1) = x.overflowing_sub(y);
        let (s2, b2) = s1.overflowing_sub(u64::from(borrow));
        *o = s2;
        borrow = b1 | b2;
    }
}

/// `out = a * b`, truncated to `out.len()` limbs (schoolbook).
pub fn mul(a: &[u64], b: &[u64], out: &mut [u64]) {
    let n = out.len();
    out.fill(0);
    for (i, &x) in a.iter().enumerate().take(n) {
        if x == 0 {
            continue;
        }
        let mut carry: u128 = 0;
        for (j, &y) in b.iter().enumerate().take(n - i) {
            let cur = u128::from(out[i + j]) + u128::from(x) * u128::from(y) + carry;
            // Keep the low limb; the high one carries.
            #[allow(clippy::cast_possible_truncation)]
            {
                out[i + j] = cur as u64;
            }
            carry = cur >> 64;
        }
    }
}

/// `out = a << amount`, truncated to `out.len()` limbs.
pub fn shl(a: &[u64], amount: u32, out: &mut [u64]) {
    let (ls, bs) = ((amount / 64) as usize, amount % 64);
    for i in (0..out.len()).rev() {
        let mut limb = 0;
        if i >= ls {
            limb = a.get(i - ls).map_or(0, |&x| x << bs);
            if bs > 0 && i > ls {
                limb |= a.get(i - ls - 1).map_or(0, |&x| x >> (64 - bs));
            }
        }
        out[i] = limb;
    }
}

/// `out = a >> amount`: the bits of `a` from `amount` up, as many as
/// `out` holds (a bit-field extraction when `out` is narrower than `a`).
pub fn shr(a: &[u64], amount: u32, out: &mut [u64]) {
    let (ls, bs) = ((amount / 64) as usize, amount % 64);
    for (i, o) in out.iter_mut().enumerate() {
        let s = i + ls;
        let mut limb = a.get(s).map_or(0, |&x| x >> bs);
        if bs > 0 {
            limb |= a.get(s + 1).map_or(0, |&x| x << (64 - bs));
        }
        *o = limb;
    }
}

/// `out = {hi, lo}` for a `lo_width`-bit `lo`: `lo` in the low bits, `hi`
/// shifted above it, truncated to `out.len()` limbs.
pub fn concat(hi: &[u64], lo: &[u64], lo_width: u32, out: &mut [u64]) {
    shl(hi, lo_width, out);
    for (o, &x) in out.iter_mut().zip(lo) {
        *o |= x;
    }
}

/// `out = a`, zero-extended or truncated to `out.len()` limbs.
pub fn resize(a: &[u64], out: &mut [u64]) {
    let n = out.len().min(a.len());
    out[..n].copy_from_slice(&a[..n]);
    out[n..].fill(0);
}

/// Unsigned comparison of same-length limb slices.
pub fn cmp(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

/// Whether every one of the `width` bits is set.
pub fn all_ones(a: &[u64], width: u32) -> bool {
    let (last, body) = a.split_last().expect("at least one limb");
    let top = match width % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    };
    *last == top && body.iter().all(|&x| x == u64::MAX)
}

/// Number of leading zeros within `width` bits.
pub fn leading_zeros(a: &[u64], width: u32) -> u32 {
    let pad = 64 * a.len() as u64 - u64::from(width);
    let mut zeros = 0u64;
    for &x in a.iter().rev() {
        zeros += u64::from(x.leading_zeros());
        if x != 0 {
            break;
        }
    }
    // Bounded by `width`, a `u32`.
    #[allow(clippy::cast_possible_truncation)]
    {
        (zeros - pad) as u32
    }
}
