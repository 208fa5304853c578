//! Lane-array value storage for batched simulation.
//!
//! A [`LaneBuf`] holds the same signal for `B` independent simulation traces
//! ("lanes") in a layout chosen by width:
//!
//! * **width == 1** (control signals, guards): *bit-sliced* — lane `l` is bit
//!   `l % 64` of word `l / 64`, so one machine word carries 64 traces and
//!   boolean logic across all lanes is a single bitwise instruction. Bits at
//!   positions `>= lanes` in the last word are kept zero (the *tail
//!   invariant*), so whole-word comparisons decide lane-wise equality.
//! * **2 ..= 64 bits** (datapath signals): *word-per-lane* — lane `l` is
//!   word `l`, masked to the width.
//!
//! Widths above 64 bits have no lane layout; batched simulation rejects such
//! designs up front (see `rtl_sim::BatchSim`).
//!
//! All operations mirror the scalar [`Value`](crate::Value) semantics
//! exactly — wrapping arithmetic modulo `2^width`, shift amounts at or past
//! the width producing zero, two-state logic — so a batched simulation is
//! bit-identical, lane for lane, with `B` scalar runs.

use crate::value::mask64;

/// Number of `u64` words backing a `width`-bit signal across `lanes` traces.
#[inline]
pub fn word_count(width: u32, lanes: u32) -> usize {
    if width == 1 {
        plane_words(lanes)
    } else {
        lanes as usize
    }
}

/// Number of words in a 1-bit *plane* over `lanes` traces.
#[inline]
pub fn plane_words(lanes: u32) -> usize {
    lanes.div_ceil(64) as usize
}

/// Mask of valid lane bits in the *last* word of a plane.
#[inline]
pub fn plane_tail_mask(lanes: u32) -> u64 {
    match lanes % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

/// Zeroes the tail (lane `>= lanes`) bits of a raw plane.
#[inline]
pub fn mask_plane_tail(words: &mut [u64], lanes: u32) {
    if let Some(last) = words.last_mut() {
        *last &= plane_tail_mask(lanes);
    }
}

/// A signal's value across `B` independent simulation lanes.
///
/// See the [module docs](self) for the layout. Construct with
/// [`LaneBuf::zero`]; all operations write into pre-sized buffers and never
/// allocate, which keeps the batched simulator's per-cycle hot path
/// allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneBuf {
    width: u32,
    lanes: u32,
    words: Vec<u64>,
}

impl LaneBuf {
    /// An all-zero buffer for a `width`-bit signal across `lanes` traces.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 64, or `lanes` is 0.
    pub fn zero(width: u32, lanes: u32) -> Self {
        assert!(
            (1..=64).contains(&width),
            "lane layout exists only for widths 1..=64, got {width}"
        );
        assert!(lanes > 0, "need at least one lane");
        LaneBuf {
            width,
            lanes,
            words: vec![0; word_count(width, lanes)],
        }
    }

    /// The signal width in bits.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// The number of lanes.
    #[inline]
    pub fn lanes(&self) -> u32 {
        self.lanes
    }

    /// True if this buffer uses the bit-sliced 1-bit plane layout.
    #[inline]
    pub fn is_plane(&self) -> bool {
        self.width == 1
    }

    /// The backing words (layout per the module docs).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words. Callers must preserve the layout invariants
    /// (width masking, plane tail zeroing).
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Lane `l`'s value.
    #[inline]
    pub fn get(&self, lane: u32) -> u64 {
        debug_assert!(lane < self.lanes);
        if self.width == 1 {
            (self.words[(lane / 64) as usize] >> (lane % 64)) & 1
        } else {
            self.words[lane as usize]
        }
    }

    /// Sets lane `l` (the value is masked to the width).
    #[inline]
    pub fn set(&mut self, lane: u32, v: u64) {
        debug_assert!(lane < self.lanes);
        if self.width == 1 {
            let w = &mut self.words[(lane / 64) as usize];
            let bit = 1u64 << (lane % 64);
            *w = (*w & !bit) | (bit * (v & 1));
        } else {
            self.words[lane as usize] = v & mask64(self.width);
        }
    }

    /// Sets every lane to the same value (masked to the width).
    pub fn broadcast(&mut self, v: u64) {
        if self.width == 1 {
            let fill = if v & 1 == 1 { u64::MAX } else { 0 };
            self.words.fill(fill);
            mask_plane_tail(&mut self.words, self.lanes);
        } else {
            self.words.fill(v & mask64(self.width));
        }
    }

    /// Zeroes every lane.
    #[inline]
    pub fn fill_zero(&mut self) {
        self.words.fill(0);
    }

    /// Copies all lanes from a same-shape buffer.
    #[inline]
    pub fn copy_from(&mut self, src: &LaneBuf) {
        debug_assert_eq!(self.width, src.width);
        debug_assert_eq!(self.lanes, src.lanes);
        self.words.copy_from_slice(&src.words);
    }
}

/// `out[l] = f(a[l], b[l]) & mask` for every lane — the generic (slow) path
/// used when no word-level kernel applies.
fn lanewise2(a: &LaneBuf, b: &LaneBuf, out: &mut LaneBuf, f: impl Fn(u64, u64) -> u64) {
    for l in 0..out.lanes {
        out.set(l, f(a.get(l), b.get(l)));
    }
}

macro_rules! binop_words {
    ($name:ident, $plane:expr, $wide:expr, $doc:literal) => {
        #[doc = $doc]
        pub fn $name(a: &LaneBuf, b: &LaneBuf, out: &mut LaneBuf) {
            debug_assert_eq!(a.width, b.width);
            debug_assert_eq!(a.width, out.width);
            if a.is_plane() {
                #[allow(clippy::redundant_closure_call)]
                for ((o, &x), &y) in out.words.iter_mut().zip(&a.words).zip(&b.words) {
                    *o = ($plane)(x, y);
                }
                mask_plane_tail(&mut out.words, out.lanes);
            } else {
                let m = mask64(a.width);
                #[allow(clippy::redundant_closure_call)]
                for ((o, &x), &y) in out.words.iter_mut().zip(&a.words).zip(&b.words) {
                    *o = ($wide)(x, y) & m;
                }
            }
        }
    };
}

binop_words!(
    add,
    |x: u64, y: u64| x ^ y,
    |x: u64, y: u64| x.wrapping_add(y),
    "Lane-wise wrapping addition (XOR on 1-bit planes)."
);
binop_words!(
    sub,
    |x: u64, y: u64| x ^ y,
    |x: u64, y: u64| x.wrapping_sub(y),
    "Lane-wise wrapping subtraction (XOR on 1-bit planes)."
);
binop_words!(
    mul,
    |x: u64, y: u64| x & y,
    |x: u64, y: u64| x.wrapping_mul(y),
    "Lane-wise wrapping multiplication (AND on 1-bit planes)."
);
binop_words!(
    and,
    |x: u64, y: u64| x & y,
    |x: u64, y: u64| x & y,
    "Lane-wise bitwise AND."
);
binop_words!(
    or,
    |x: u64, y: u64| x | y,
    |x: u64, y: u64| x | y,
    "Lane-wise bitwise OR."
);
binop_words!(
    xor,
    |x: u64, y: u64| x ^ y,
    |x: u64, y: u64| x ^ y,
    "Lane-wise bitwise XOR."
);

/// Lane-wise wrapping add-in-place: `dst[l] += b[l]`.
pub fn add_assign(dst: &mut LaneBuf, b: &LaneBuf) {
    debug_assert_eq!(dst.width, b.width);
    if dst.is_plane() {
        for (o, &y) in dst.words.iter_mut().zip(&b.words) {
            *o ^= y;
        }
    } else {
        let m = mask64(dst.width);
        for (o, &y) in dst.words.iter_mut().zip(&b.words) {
            *o = o.wrapping_add(y) & m;
        }
    }
}

/// Lane-wise bitwise NOT.
pub fn not(a: &LaneBuf, out: &mut LaneBuf) {
    debug_assert_eq!(a.width, out.width);
    if a.is_plane() {
        for (o, &x) in out.words.iter_mut().zip(&a.words) {
            *o = !x;
        }
        mask_plane_tail(&mut out.words, out.lanes);
        return;
    }
    let m = mask64(a.width);
    for (o, &x) in out.words.iter_mut().zip(&a.words) {
        *o = !x & m;
    }
}

/// Lane-wise constant left shift (amounts at or past the width give zero).
pub fn shl_const(a: &LaneBuf, amount: u32, out: &mut LaneBuf) {
    if amount >= a.width {
        out.fill_zero();
        return;
    }
    if amount == 0 {
        out.copy_from(a);
        return;
    }
    // width >= 2 here, so word-per-lane layout.
    let m = mask64(a.width);
    for (o, &x) in out.words.iter_mut().zip(&a.words) {
        *o = (x << amount) & m;
    }
}

/// Lane-wise constant right shift (amounts at or past the width give zero).
pub fn shr_const(a: &LaneBuf, amount: u32, out: &mut LaneBuf) {
    if amount >= a.width {
        out.fill_zero();
        return;
    }
    if amount == 0 {
        out.copy_from(a);
        return;
    }
    for (o, &x) in out.words.iter_mut().zip(&a.words) {
        *o = x >> amount;
    }
}

/// Lane-wise dynamic left shift: `out[l] = a[l] << amt[l]`, zero when the
/// amount reaches the width (matching [`Value::shl_dyn`](crate::Value::shl_dyn)).
pub fn shl_dyn(a: &LaneBuf, amt: &LaneBuf, out: &mut LaneBuf) {
    let w = a.width as u64;
    lanewise2(a, amt, out, |x, s| if s < w { x << s } else { 0 });
}

/// Lane-wise dynamic right shift.
pub fn shr_dyn(a: &LaneBuf, amt: &LaneBuf, out: &mut LaneBuf) {
    let w = a.width as u64;
    lanewise2(a, amt, out, |x, s| if s < w { x >> s } else { 0 });
}

/// Builds a 1-bit plane from a lane-wise predicate over two same-width
/// operands.
fn cmp_plane(a: &LaneBuf, b: &LaneBuf, out: &mut LaneBuf, f: impl Fn(u64, u64) -> bool) {
    debug_assert_eq!(a.width, b.width);
    debug_assert!(out.is_plane());
    if a.is_plane() {
        for l in 0..out.lanes {
            out.set(l, f(a.get(l), b.get(l)) as u64);
        }
        return;
    }
    let lanes = out.lanes;
    for (wi, o) in out.words.iter_mut().enumerate() {
        let base = wi as u32 * 64;
        let n = 64.min(lanes - base);
        let mut acc = 0u64;
        for i in 0..n {
            let l = (base + i) as usize;
            acc |= (f(a.words[l], b.words[l]) as u64) << i;
        }
        *o = acc;
    }
}

/// Lane-wise equality into a 1-bit plane.
pub fn eq(a: &LaneBuf, b: &LaneBuf, out: &mut LaneBuf) {
    cmp_plane(a, b, out, |x, y| x == y);
}

/// Lane-wise unsigned less-than into a 1-bit plane.
pub fn lt(a: &LaneBuf, b: &LaneBuf, out: &mut LaneBuf) {
    cmp_plane(a, b, out, |x, y| x < y);
}

/// Lane-wise unsigned greater-or-equal into a 1-bit plane.
pub fn ge(a: &LaneBuf, b: &LaneBuf, out: &mut LaneBuf) {
    cmp_plane(a, b, out, |x, y| x >= y);
}

/// Lane-wise two-way mux: `out[l] = sel[l] ? b[l] : a[l]` with a 1-bit
/// `sel` plane.
pub fn mux(sel: &LaneBuf, a: &LaneBuf, b: &LaneBuf, out: &mut LaneBuf) {
    debug_assert!(sel.is_plane());
    debug_assert_eq!(a.width, b.width);
    debug_assert_eq!(a.width, out.width);
    if a.is_plane() {
        for (((o, &s), &x), &y) in out
            .words
            .iter_mut()
            .zip(&sel.words)
            .zip(&a.words)
            .zip(&b.words)
        {
            *o = (s & y) | (!s & x);
        }
        mask_plane_tail(&mut out.words, out.lanes);
        return;
    }
    for l in 0..out.lanes as usize {
        let bit = (sel.words[l / 64] >> (l % 64)) & 1;
        let m = 0u64.wrapping_sub(bit);
        out.words[l] = (b.words[l] & m) | (a.words[l] & !m);
    }
}

/// Lane-wise bit-field extraction `a[hi:lo]`.
pub fn slice(a: &LaneBuf, hi: u32, lo: u32, out: &mut LaneBuf) {
    debug_assert_eq!(out.width, hi - lo + 1);
    if out.is_plane() {
        // Extract one bit per lane into the plane.
        for l in 0..out.lanes {
            out.set(l, (a.get(l) >> lo) & 1);
        }
        return;
    }
    let m = mask64(out.width);
    for (o, &x) in out.words.iter_mut().zip(&a.words) {
        *o = (x >> lo) & m;
    }
}

/// Lane-wise concatenation `{hi, lo}` (the high part lands in the upper bits).
pub fn concat(hi: &LaneBuf, lo: &LaneBuf, out: &mut LaneBuf) {
    debug_assert_eq!(out.width, hi.width + lo.width);
    let sh = lo.width;
    // out.width >= 2, so `out` is word-per-lane; operands may be planes.
    if !hi.is_plane() && !lo.is_plane() {
        for l in 0..out.lanes as usize {
            out.words[l] = (hi.words[l] << sh) | lo.words[l];
        }
    } else {
        for l in 0..out.lanes {
            out.set(l, (hi.get(l) << sh) | lo.get(l));
        }
    }
}

/// Lane-wise zero extension or truncation to `out.width()`.
pub fn resize(a: &LaneBuf, out: &mut LaneBuf) {
    if a.width == out.width {
        out.copy_from(a);
        return;
    }
    if !a.is_plane() && !out.is_plane() {
        let m = mask64(out.width);
        for (o, &x) in out.words.iter_mut().zip(&a.words) {
            *o = x & m;
        }
        return;
    }
    let m = mask64(out.width);
    for l in 0..out.lanes {
        out.set(l, a.get(l) & m);
    }
}

/// Lane-wise OR-reduction into a 1-bit plane.
pub fn reduce_or(a: &LaneBuf, out: &mut LaneBuf) {
    if a.is_plane() {
        out.copy_from(a);
        return;
    }
    cmp_with(a, out, |x| x != 0);
}

/// Lane-wise AND-reduction into a 1-bit plane.
pub fn reduce_and(a: &LaneBuf, out: &mut LaneBuf) {
    if a.is_plane() {
        out.copy_from(a);
        return;
    }
    let m = mask64(a.width);
    cmp_with(a, out, |x| x == m);
}

fn cmp_with(a: &LaneBuf, out: &mut LaneBuf, f: impl Fn(u64) -> bool) {
    debug_assert!(out.is_plane());
    let lanes = out.lanes;
    for (wi, o) in out.words.iter_mut().enumerate() {
        let base = wi as u32 * 64;
        let n = 64.min(lanes - base);
        let mut acc = 0u64;
        for i in 0..n {
            acc |= (f(a.words[(base + i) as usize]) as u64) << i;
        }
        *o = acc;
    }
}

/// Lane-wise count-leading-zeros within the declared width.
pub fn clz(a: &LaneBuf, out: &mut LaneBuf) {
    debug_assert_eq!(a.width, out.width);
    let w = a.width;
    let m = mask64(out.width);
    for l in 0..out.lanes {
        let x = a.get(l);
        let lz = if x == 0 {
            w as u64
        } else {
            (x.leading_zeros() - (64 - w)) as u64
        };
        out.set(l, lz & m);
    }
}

/// Lane-wise 8-bit table lookup (the AES S-box in batched mode).
pub fn lut8(table: &[u8; 256], a: &LaneBuf, out: &mut LaneBuf) {
    debug_assert_eq!(a.width, 8);
    debug_assert_eq!(out.width, 8);
    for (o, &x) in out.words.iter_mut().zip(&a.words) {
        *o = table[(x & 0xff) as usize] as u64;
    }
}

/// Copies `src` lanes into `dst` only where the 1-bit `mask` plane is set —
/// the batched analogue of a guarded write.
pub fn copy_masked(dst: &mut LaneBuf, src: &LaneBuf, mask: &[u64]) {
    for (word, &m) in mask.iter().enumerate() {
        copy_masked_word(dst, src, word, m);
    }
}

/// [`copy_masked`] for the 64 lanes of one plane word: lane `64 * word + i`
/// is copied where bit `i` of `mask` is set.
#[inline]
pub fn copy_masked_word(dst: &mut LaneBuf, src: &LaneBuf, word: usize, mask: u64) {
    debug_assert_eq!(dst.width, src.width);
    if mask == 0 {
        return;
    }
    if dst.is_plane() {
        let d = &mut dst.words[word];
        *d = (*d & !mask) | (src.words[word] & mask);
        return;
    }
    let lo = word * 64;
    let hi = (lo + 64).min(dst.lanes as usize);
    let (dst, src) = (&mut dst.words[lo..hi], &src.words[lo..hi]);
    for (i, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
        let m = 0u64.wrapping_sub((mask >> i) & 1);
        *d = (s & m) | (*d & !m);
    }
}

/// Copies `src` into `dst`, reporting whether anything actually changed —
/// a fused compare-and-copy: one pass over the words instead of a
/// comparison pass followed by a copy pass (the hot adoption step when a
/// settle traversal commits a freshly evaluated signal).
pub fn copy_changed(dst: &mut LaneBuf, src: &LaneBuf) -> bool {
    debug_assert_eq!(dst.width, src.width);
    debug_assert_eq!(dst.lanes, src.lanes);
    let mut diff = 0u64;
    for (d, &s) in dst.words.iter_mut().zip(&src.words) {
        diff |= *d ^ s;
        *d = s;
    }
    diff != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    /// Deterministic xorshift stimulus, independent per (seed, step).
    fn rng(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_buf(width: u32, lanes: u32, seed: u64) -> LaneBuf {
        let mut b = LaneBuf::zero(width, lanes);
        let mut s = seed | 1;
        for l in 0..lanes {
            b.set(l, rng(&mut s));
        }
        b
    }

    fn val(width: u32, x: u64) -> Value {
        Value::from_u64(width, x & mask64(width))
    }

    /// Every lane op must agree with the scalar `Value` op, lane by lane.
    #[test]
    fn lane_ops_match_scalar_value_ops() {
        for &width in &[1u32, 2, 7, 8, 31, 32, 63, 64] {
            for &lanes in &[1u32, 3, 64, 65, 130] {
                let a = random_buf(width, lanes, 0x1234_5678 + width as u64);
                let b = random_buf(width, lanes, 0x9abc_def0 + lanes as u64);
                let mut out = LaneBuf::zero(width, lanes);
                let mut plane = LaneBuf::zero(1, lanes);

                macro_rules! check2 {
                    ($op:ident, $scalar:expr) => {
                        $op(&a, &b, &mut out);
                        for l in 0..lanes {
                            let (x, y) = (val(width, a.get(l)), val(width, b.get(l)));
                            assert_eq!(
                                out.get(l),
                                ($scalar)(&x, &y).to_u64(),
                                "{} w={width} lane={l}",
                                stringify!($op)
                            );
                        }
                    };
                }
                check2!(add, |x: &Value, y: &Value| x.add(y));
                check2!(sub, |x: &Value, y: &Value| x.sub(y));
                check2!(mul, |x: &Value, y: &Value| x.mul(y));
                check2!(and, |x: &Value, y: &Value| x.and(y));
                check2!(or, |x: &Value, y: &Value| x.or(y));
                check2!(xor, |x: &Value, y: &Value| x.xor(y));
                check2!(shl_dyn, |x: &Value, y: &Value| x.shl_dyn(y));
                check2!(shr_dyn, |x: &Value, y: &Value| x.shr_dyn(y));

                not(&a, &mut out);
                for l in 0..lanes {
                    assert_eq!(out.get(l), val(width, a.get(l)).not().to_u64());
                }
                clz(&a, &mut out);
                for l in 0..lanes {
                    assert_eq!(
                        out.get(l),
                        val(width, a.get(l)).leading_zeros() as u64 & mask64(width)
                    );
                }
                for amount in [0, 1, width / 2, width - 1, width, width + 3] {
                    shl_const(&a, amount, &mut out);
                    for l in 0..lanes {
                        assert_eq!(out.get(l), val(width, a.get(l)).shl(amount).to_u64());
                    }
                    shr_const(&a, amount, &mut out);
                    for l in 0..lanes {
                        assert_eq!(out.get(l), val(width, a.get(l)).shr(amount).to_u64());
                    }
                }

                eq(&a, &b, &mut plane);
                for l in 0..lanes {
                    assert_eq!(plane.get(l) == 1, a.get(l) == b.get(l));
                }
                lt(&a, &b, &mut plane);
                for l in 0..lanes {
                    assert_eq!(plane.get(l) == 1, a.get(l) < b.get(l));
                }
                ge(&a, &b, &mut plane);
                for l in 0..lanes {
                    assert_eq!(plane.get(l) == 1, a.get(l) >= b.get(l));
                }
                reduce_or(&a, &mut plane);
                for l in 0..lanes {
                    assert_eq!(plane.get(l) == 1, a.get(l) != 0);
                }
                reduce_and(&a, &mut plane);
                for l in 0..lanes {
                    assert_eq!(plane.get(l) == 1, a.get(l) == mask64(width));
                }

                let sel = random_buf(1, lanes, 77);
                mux(&sel, &a, &b, &mut out);
                for l in 0..lanes {
                    let want = if sel.get(l) == 1 { b.get(l) } else { a.get(l) };
                    assert_eq!(out.get(l), want, "mux w={width} lane={l}");
                }

                let mut dst = random_buf(width, lanes, 991);
                let orig = dst.clone();
                copy_masked(&mut dst, &a, sel.words());
                for l in 0..lanes {
                    let want = if sel.get(l) == 1 {
                        a.get(l)
                    } else {
                        orig.get(l)
                    };
                    assert_eq!(dst.get(l), want, "copy_masked w={width} lane={l}");
                }
            }
        }
    }

    #[test]
    fn slice_concat_resize_match_scalar() {
        let lanes = 67;
        let a = random_buf(32, lanes, 5);
        for (hi, lo) in [(31, 0), (31, 31), (17, 3), (0, 0), (8, 1)] {
            let mut out = LaneBuf::zero(hi - lo + 1, lanes);
            slice(&a, hi, lo, &mut out);
            for l in 0..lanes {
                assert_eq!(out.get(l), val(32, a.get(l)).slice(hi, lo).to_u64());
            }
        }
        let lo_part = random_buf(5, lanes, 9);
        let hi_part = random_buf(1, lanes, 11);
        let mut out = LaneBuf::zero(6, lanes);
        concat(&hi_part, &lo_part, &mut out);
        for l in 0..lanes {
            assert_eq!(
                out.get(l),
                val(1, hi_part.get(l))
                    .concat(&val(5, lo_part.get(l)))
                    .to_u64()
            );
        }
        for out_w in [1u32, 8, 32, 48, 64] {
            let mut out = LaneBuf::zero(out_w, lanes);
            resize(&a, &mut out);
            for l in 0..lanes {
                assert_eq!(out.get(l), val(32, a.get(l)).resize(out_w).to_u64());
            }
        }
    }

    #[test]
    fn plane_tail_invariant_maintained() {
        let lanes = 70; // 2 words, 6 valid bits in the tail word
        let mut a = LaneBuf::zero(1, lanes);
        a.broadcast(1);
        assert_eq!(a.words()[1], plane_tail_mask(lanes));
        let b = a.clone();
        let mut out = LaneBuf::zero(1, lanes);
        not(&a, &mut out);
        assert_eq!(out.words()[1], 0);
        add(&a, &b, &mut out);
        assert_eq!(out.words()[1], 0);
        let mut p = LaneBuf::zero(1, lanes);
        eq(&a, &b, &mut p);
        assert_eq!(p.words()[1], plane_tail_mask(lanes));
    }

    #[test]
    fn broadcast_and_accessors() {
        let mut b = LaneBuf::zero(16, 10);
        b.broadcast(0x1_2345);
        for l in 0..10 {
            assert_eq!(b.get(l), 0x2345);
        }
        b.set(3, 0xffff_ffff);
        assert_eq!(b.get(3), 0xffff);
        assert!(!b.is_plane());
        assert_eq!(b.width(), 16);
        assert_eq!(b.lanes(), 10);
    }
}
