//! The lane layout, and the kernels that run on it.
//!
//! The simulator stores each signal for `B` independent traces ("lanes")
//! as a run of `u64` words in one arena. The layout depends only on the
//! signal's width:
//!
//! * **width == 1** (control signals, guards): *bit-sliced* — lane `l` is
//!   bit `l % 64` of word `l / 64`, so one machine word carries 64 traces
//!   and boolean logic across all lanes is a single bitwise instruction.
//!   Bits at positions `>= lanes` in the last word are kept zero (the
//!   *tail invariant*), so whole-word comparisons decide lane-wise
//!   equality.
//! * **2 ..= 64 bits** (datapath signals): *word-per-lane* — lane `l` is
//!   word `l`, masked to the width.
//! * **over 64 bits** (the AES state and key buses): `ceil(width / 64)`
//!   little-endian limbs per lane, each lane's limbs contiguous, the top
//!   limb masked to the width.
//!
//! At one lane every layout is exactly a [`Value`]'s limbs, so a one-lane
//! simulator, opt's const-fold and `Value` share one storage format.
//!
//! Every kernel takes the lane count and widths, reads its operands from
//! slices and writes a pre-sized output slice; none allocates. Multi-limb
//! lanes run the limb-slice functions of [`crate::limbs`], the same ones
//! behind `Value`'s wide paths. All kernels mirror the `Value` semantics
//! exactly — wrapping arithmetic modulo `2^width`, shift amounts at or
//! past the width producing zero, two-state logic — so lane `l` of a
//! batched simulation is bit-identical to a one-lane run of its stimulus.

use crate::limbs;
use crate::value::mask64;
use crate::Value;
use std::cmp::Ordering;

/// Number of words in a 1-bit *plane* over `lanes` traces.
#[inline(always)]
pub fn plane_words(lanes: u32) -> usize {
    lanes.div_ceil(64) as usize
}

/// Number of `u64` words backing a `width`-bit signal across `lanes`
/// traces. Written per layout, so a constant lane count folds it to a
/// constant for every width up to 64 bits.
#[inline(always)]
pub fn words(width: u32, lanes: u32) -> usize {
    if width == 1 {
        plane_words(lanes)
    } else if width <= 64 {
        lanes as usize
    } else {
        lanes as usize * limbs::count(width)
    }
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

/// Lane `lane`'s bit of a plane.
#[inline(always)]
pub fn bit(plane: &[u64], lane: usize) -> bool {
    (plane[lane / 64] >> (lane % 64)) & 1 != 0
}

/// Lane `l`'s limbs of a `width`-bit signal; a plane lane is copied into
/// `tmp` first.
#[inline(always)]
fn lane<'a>(width: u32, words: &'a [u64], l: usize, tmp: &'a mut [u64; 1]) -> &'a [u64] {
    if width == 1 {
        tmp[0] = u64::from(bit(words, l));
        tmp
    } else {
        let k = limbs::count(width);
        &words[l * k..(l + 1) * k]
    }
}

/// Lane `l` of a `width`-bit signal of at most 64 bits, as one word.
#[inline(always)]
fn word(width: u32, words: &[u64], l: usize) -> u64 {
    if width == 1 {
        u64::from(bit(words, l))
    } else {
        words[l]
    }
}

/// Builds a plane from a per-lane predicate.
#[inline(always)]
fn pack(lanes: u32, out: &mut [u64], mut f: impl FnMut(usize) -> bool) {
    let n = lanes as usize;
    for (wi, o) in out[..plane_words(lanes)].iter_mut().enumerate() {
        let base = wi * 64;
        let mut acc = 0u64;
        for i in 0..(n - base).min(64) {
            acc |= u64::from(f(base + i)) << i;
        }
        *o = acc;
    }
}

/// Lane `lane` of a `width`-bit signal.
#[inline]
pub fn get(width: u32, words: &[u64], lane: u32) -> Value {
    let l = lane as usize;
    if width <= 64 {
        Value::from_u64(width, word(width, words, l))
    } else {
        let k = limbs::count(width);
        Value::from_limbs(width, &words[l * k..(l + 1) * k])
    }
}

/// Sets lane `lane` of a `width`-bit signal to `value`, the limbs of a
/// `width`-bit value; returns whether the lane changed.
#[inline(always)]
pub fn set(width: u32, words: &mut [u64], lane: u32, value: &[u64]) -> bool {
    let l = lane as usize;
    if width == 1 {
        let w = &mut words[l / 64];
        let bit = 1u64 << (l % 64);
        let new = (*w & !bit) | (bit * (value[0] & 1));
        let changed = new != *w;
        *w = new;
        changed
    } else if width <= 64 {
        let changed = words[l] != value[0];
        words[l] = value[0];
        changed
    } else {
        let k = limbs::count(width);
        copy_changed(&mut words[l * k..(l + 1) * k], value)
    }
}

/// Sets every lane of a `width`-bit signal to `value`, the limbs of a
/// `width`-bit value; returns whether any lane changed.
pub fn broadcast(lanes: u32, width: u32, words: &mut [u64], value: &[u64]) -> bool {
    (0..lanes).fold(false, |changed, l| set(width, words, l, value) | changed)
}

/// `dst = src` for same-sized regions: a single store for one word.
#[inline(always)]
pub fn copy(dst: &mut [u64], src: &[u64]) {
    if let ([d], [s]) = (&mut *dst, src) {
        *d = *s;
    } else {
        dst.copy_from_slice(src);
    }
}

/// Copies `src` into `dst`, reporting whether anything changed (the
/// adoption step when a settle commits a freshly evaluated signal; the
/// comparison stops at the first difference).
#[inline(always)]
pub fn copy_changed(dst: &mut [u64], src: &[u64]) -> bool {
    if let ([d], [s]) = (&mut *dst, src) {
        let changed = *d != *s;
        *d = *s;
        return changed;
    }
    let changed = *dst != *src;
    if changed {
        dst.copy_from_slice(src);
    }
    changed
}

/// Zeroes every lane, reporting whether any lane changed.
#[inline(always)]
pub fn clear(words: &mut [u64]) -> bool {
    if let [w] = words {
        return std::mem::take(w) != 0;
    }
    let changed = words.iter().any(|&w| w != 0);
    words.fill(0);
    changed
}

/// Per-lane `f` over the limbs of multi-limb operands of one width,
/// masking each result lane to the width.
fn wide2(
    width: u32,
    a: &[u64],
    b: &[u64],
    out: &mut [u64],
    f: impl Fn(&[u64], &[u64], &mut [u64]),
) {
    let k = limbs::count(width);
    for ((o, x), y) in out
        .chunks_exact_mut(k)
        .zip(a.chunks_exact(k))
        .zip(b.chunks_exact(k))
    {
        f(x, y, o);
        limbs::mask_top(o, width);
    }
}

/// [`wide2`] for one operand.
fn wide1(width: u32, a: &[u64], out: &mut [u64], f: impl Fn(&[u64], &mut [u64])) {
    let k = limbs::count(width);
    for (o, x) in out.chunks_exact_mut(k).zip(a.chunks_exact(k)) {
        f(x, o);
        limbs::mask_top(o, width);
    }
}

macro_rules! bitwise {
    ($name:ident, $op:tt, $doc:literal) => {
        #[doc = $doc]
        #[inline(always)]
        pub fn $name(lanes: u32, width: u32, a: &[u64], b: &[u64], out: &mut [u64]) {
            // Every layout keeps its padding zero under a bitwise op.
            let n = words(width, lanes);
            for ((o, &x), &y) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
                *o = x $op y;
            }
        }
    };
}

bitwise!(and, &, "Lane-wise bitwise AND.");
bitwise!(or, |, "Lane-wise bitwise OR.");
bitwise!(xor, ^, "Lane-wise bitwise XOR.");

macro_rules! arith {
    ($name:ident, $plane:expr, $word:expr, $wide:expr, $doc:literal) => {
        #[doc = $doc]
        #[inline(always)]
        #[allow(clippy::redundant_closure_call)]
        pub fn $name(lanes: u32, width: u32, a: &[u64], b: &[u64], out: &mut [u64]) {
            let n = words(width, lanes);
            let (a, b, out) = (&a[..n], &b[..n], &mut out[..n]);
            if width == 1 {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = ($plane)(x, y);
                }
            } else if width <= 64 {
                let m = mask64(width);
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    *o = ($word)(x, y) & m;
                }
            } else {
                wide2(width, a, b, out, $wide);
            }
        }
    };
}

arith!(
    add,
    |x: u64, y: u64| x ^ y,
    |x: u64, y: u64| x.wrapping_add(y),
    limbs::add,
    "Lane-wise wrapping addition (XOR on 1-bit planes)."
);
arith!(
    sub,
    |x: u64, y: u64| x ^ y,
    |x: u64, y: u64| x.wrapping_sub(y),
    limbs::sub,
    "Lane-wise wrapping subtraction (XOR on 1-bit planes)."
);
arith!(
    mul,
    |x: u64, y: u64| x & y,
    |x: u64, y: u64| x.wrapping_mul(y),
    limbs::mul,
    "Lane-wise wrapping multiplication (AND on 1-bit planes)."
);

/// Lane-wise bitwise NOT.
#[inline(always)]
pub fn not(lanes: u32, width: u32, a: &[u64], out: &mut [u64]) {
    let n = words(width, lanes);
    let (a, out) = (&a[..n], &mut out[..n]);
    if width == 1 {
        for (o, &x) in out.iter_mut().zip(a) {
            *o = !x;
        }
        mask_plane_tail(out, lanes);
    } else if width <= 64 {
        let m = mask64(width);
        for (o, &x) in out.iter_mut().zip(a) {
            *o = !x & m;
        }
    } else {
        wide1(width, a, out, |x, o| {
            for (o, &x) in o.iter_mut().zip(x) {
                *o = !x;
            }
        });
    }
}

macro_rules! shift_const {
    ($name:ident, $op:tt, $limbs:path, $doc:literal) => {
        #[doc = $doc]
        #[inline(always)]
        pub fn $name(lanes: u32, width: u32, a: &[u64], amount: u32, out: &mut [u64]) {
            let n = words(width, lanes);
            let (a, out) = (&a[..n], &mut out[..n]);
            if amount >= width {
                out.fill(0);
            } else if amount == 0 {
                out.copy_from_slice(a);
            } else if width <= 64 {
                // width >= 2 here, so word-per-lane layout.
                let m = mask64(width);
                for (o, &x) in out.iter_mut().zip(a) {
                    *o = (x $op amount) & m;
                }
            } else {
                wide1(width, a, out, |x, o| $limbs(x, amount, o));
            }
        }
    };
}

shift_const!(
    shl_const,
    <<,
    limbs::shl,
    "Lane-wise constant left shift (amounts at or past the width give zero)."
);
shift_const!(shr_const, >>, limbs::shr, "Lane-wise constant right shift.");

/// The shift amount a multi-limb lane encodes, if below `width`.
fn amount_below(amt: &[u64], width: u32) -> Option<u32> {
    let rest_zero = amt[1..].iter().all(|&x| x == 0);
    u32::try_from(amt[0])
        .ok()
        .filter(|&s| rest_zero && s < width)
}

macro_rules! shift_dyn {
    ($name:ident, $op:tt, $limbs:path, $doc:literal) => {
        #[doc = $doc]
        #[inline(always)]
        pub fn $name(lanes: u32, width: u32, a: &[u64], amt: &[u64], out: &mut [u64]) {
            let n = words(width, lanes);
            let (a, amt, out) = (&a[..n], &amt[..n], &mut out[..n]);
            if width == 1 {
                // A 1-bit amount of 1 reaches the width.
                for ((o, &x), &s) in out.iter_mut().zip(a).zip(amt) {
                    *o = x & !s;
                }
            } else if width <= 64 {
                let (m, w) = (mask64(width), u64::from(width));
                for ((o, &x), &s) in out.iter_mut().zip(a).zip(amt) {
                    *o = if s < w { (x $op s) & m } else { 0 };
                }
            } else {
                wide2(width, a, amt, out, |x, s, o| match amount_below(s, width) {
                    Some(s) => $limbs(x, s, o),
                    None => o.fill(0),
                });
            }
        }
    };
}

shift_dyn!(
    shl_dyn,
    <<,
    limbs::shl,
    "Lane-wise dynamic left shift: `out[l] = a[l] << amt[l]`, zero when the \
     amount reaches the width (matching [`Value::shl_dyn`])."
);
shift_dyn!(shr_dyn, >>, limbs::shr, "Lane-wise dynamic right shift.");

/// Lane-wise unsigned comparison into a plane: lane `l` is set where
/// `f(a[l].cmp(b[l]))`; `plane` gives the same predicate on 1-bit planes.
#[inline(always)]
fn compare(
    lanes: u32,
    width: u32,
    a: &[u64],
    b: &[u64],
    out: &mut [u64],
    plane: impl Fn(u64, u64) -> u64,
    f: impl Fn(Ordering) -> bool,
) {
    if width == 1 {
        let n = plane_words(lanes);
        for ((o, &x), &y) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
            *o = plane(x, y);
        }
        mask_plane_tail(&mut out[..n], lanes);
    } else if width <= 64 {
        pack(lanes, out, |l| f(a[l].cmp(&b[l])));
    } else {
        let k = limbs::count(width);
        pack(lanes, out, |l| {
            let r = l * k..(l + 1) * k;
            f(limbs::cmp(&a[r.clone()], &b[r]))
        });
    }
}

/// Lane-wise equality into a 1-bit plane.
#[inline(always)]
pub fn eq(lanes: u32, width: u32, a: &[u64], b: &[u64], out: &mut [u64]) {
    compare(lanes, width, a, b, out, |x, y| !(x ^ y), |o| o.is_eq());
}

/// Lane-wise unsigned less-than into a 1-bit plane.
#[inline(always)]
pub fn lt(lanes: u32, width: u32, a: &[u64], b: &[u64], out: &mut [u64]) {
    compare(lanes, width, a, b, out, |x, y| !x & y, |o| o.is_lt());
}

/// Lane-wise unsigned greater-or-equal into a 1-bit plane.
#[inline(always)]
pub fn ge(lanes: u32, width: u32, a: &[u64], b: &[u64], out: &mut [u64]) {
    compare(lanes, width, a, b, out, |x, y| x | !y, |o| o.is_ge());
}

/// Lane-wise two-way mux: `out[l] = sel[l] ? b[l] : a[l]` with a 1-bit
/// `sel` plane.
#[inline(always)]
pub fn mux(lanes: u32, width: u32, sel: &[u64], a: &[u64], b: &[u64], out: &mut [u64]) {
    let n = words(width, lanes);
    let (a, b, out) = (&a[..n], &b[..n], &mut out[..n]);
    if width == 1 {
        for (((o, &s), &x), &y) in out.iter_mut().zip(sel).zip(a).zip(b) {
            *o = (s & y) | (!s & x);
        }
    } else if width <= 64 {
        for (l, ((o, &x), &y)) in out.iter_mut().zip(a).zip(b).enumerate() {
            let m = 0u64.wrapping_sub(u64::from(bit(sel, l)));
            *o = (y & m) | (x & !m);
        }
    } else {
        let k = limbs::count(width);
        for (l, ((o, x), y)) in out
            .chunks_exact_mut(k)
            .zip(a.chunks_exact(k))
            .zip(b.chunks_exact(k))
            .enumerate()
        {
            o.copy_from_slice(if bit(sel, l) { y } else { x });
        }
    }
}

/// Lane-wise bit-field extraction `a[hi:lo]` of an `in_width`-bit `a`.
#[inline(always)]
pub fn slice(lanes: u32, in_width: u32, a: &[u64], hi: u32, lo: u32, out: &mut [u64]) {
    let width = hi - lo + 1;
    if width == 1 {
        if in_width == 1 {
            let n = plane_words(lanes);
            out[..n].copy_from_slice(&a[..n]);
        } else {
            let (k, at, sh) = (limbs::count(in_width), (lo / 64) as usize, lo % 64);
            pack(lanes, out, |l| (a[l * k + at] >> sh) & 1 != 0);
        }
    } else if in_width <= 64 {
        let (n, m) = (lanes as usize, mask64(width));
        for (o, &x) in out[..n].iter_mut().zip(&a[..n]) {
            *o = (x >> lo) & m;
        }
    } else {
        let (ki, ko) = (limbs::count(in_width), limbs::count(width));
        for (o, x) in out
            .chunks_exact_mut(ko)
            .zip(a.chunks_exact(ki))
            .take(lanes as usize)
        {
            limbs::shr(x, lo, o);
            limbs::mask_top(o, width);
        }
    }
}

/// Lane-wise concatenation `{hi, lo}` of a `hi_width`-bit `hi` and a
/// `lo_width`-bit `lo` (the high part lands in the upper bits).
#[inline(always)]
pub fn concat(lanes: u32, hi_width: u32, lo_width: u32, hi: &[u64], lo: &[u64], out: &mut [u64]) {
    let width = hi_width + lo_width;
    // width >= 2, so `out` is never a plane; the operands may be.
    let n = lanes as usize;
    if width <= 64 && hi_width > 1 && lo_width > 1 {
        for ((o, &h), &x) in out[..n].iter_mut().zip(&hi[..n]).zip(&lo[..n]) {
            *o = (h << lo_width) | x;
        }
    } else if width <= 64 {
        for (l, o) in out[..n].iter_mut().enumerate() {
            *o = (word(hi_width, hi, l) << lo_width) | word(lo_width, lo, l);
        }
    } else {
        let k = limbs::count(width);
        for (l, o) in out.chunks_exact_mut(k).take(lanes as usize).enumerate() {
            let (mut th, mut tl) = ([0], [0]);
            let (h, x) = (
                lane(hi_width, hi, l, &mut th),
                lane(lo_width, lo, l, &mut tl),
            );
            limbs::concat(h, x, lo_width, o);
        }
    }
}

/// Lane-wise zero extension or truncation of an `in_width`-bit `a` to
/// `out_width` bits.
#[inline(always)]
pub fn resize(lanes: u32, in_width: u32, out_width: u32, a: &[u64], out: &mut [u64]) {
    if in_width == out_width {
        let n = words(in_width, lanes);
        out[..n].copy_from_slice(&a[..n]);
    } else if out_width == 1 {
        let k = limbs::count(in_width);
        pack(lanes, out, |l| a[l * k] & 1 != 0);
    } else if out_width <= 64 && in_width <= 64 {
        let (n, m) = (lanes as usize, mask64(out_width));
        if in_width == 1 {
            for (l, o) in out[..n].iter_mut().enumerate() {
                *o = u64::from(bit(a, l));
            }
        } else {
            for (o, &x) in out[..n].iter_mut().zip(&a[..n]) {
                *o = x & m;
            }
        }
    } else {
        let k = limbs::count(out_width);
        for (l, o) in out.chunks_exact_mut(k).take(lanes as usize).enumerate() {
            let mut t = [0];
            limbs::resize(lane(in_width, a, l, &mut t), o);
            limbs::mask_top(o, out_width);
        }
    }
}

/// Lane-wise AND-reduction (`all`) or OR-reduction into a 1-bit plane.
#[inline(always)]
pub fn reduce(lanes: u32, width: u32, a: &[u64], all: bool, out: &mut [u64]) {
    if width == 1 {
        let n = plane_words(lanes);
        out[..n].copy_from_slice(&a[..n]);
    } else {
        let k = limbs::count(width);
        pack(lanes, out, |l| {
            let x = &a[l * k..(l + 1) * k];
            if all {
                limbs::all_ones(x, width)
            } else {
                x.iter().any(|&w| w != 0)
            }
        });
    }
}

/// Lane-wise count-leading-zeros within the declared width.
#[inline(always)]
pub fn clz(lanes: u32, width: u32, a: &[u64], out: &mut [u64]) {
    if width == 1 {
        // One bit: 1 leading zero exactly where the bit is clear.
        not(lanes, width, a, out);
    } else if width <= 64 {
        let (n, m) = (lanes as usize, mask64(width));
        for (o, &x) in out[..n].iter_mut().zip(&a[..n]) {
            *o = u64::from(x.leading_zeros() - (64 - width)) & m;
        }
    } else {
        wide1(width, a, out, |x, o| {
            o.fill(0);
            o[0] = u64::from(limbs::leading_zeros(x, width));
        });
    }
}

/// Copies `src` lanes into `dst` only where the 1-bit `mask` plane is set —
/// the batched analogue of a guarded write.
#[inline(always)]
pub fn copy_masked(lanes: u32, width: u32, dst: &mut [u64], src: &[u64], mask: &[u64]) {
    for (word, &m) in mask[..plane_words(lanes)].iter().enumerate() {
        copy_masked_word(lanes, width, dst, src, word, m);
    }
}

/// [`copy_masked`] for the 64 lanes of one plane word: lane `64 * word + i`
/// is copied where bit `i` of `mask` is set.
#[inline(always)]
pub fn copy_masked_word(
    lanes: u32,
    width: u32,
    dst: &mut [u64],
    src: &[u64],
    word: usize,
    mask: u64,
) {
    if mask == 0 {
        return;
    }
    if lanes == 1 {
        // One lane: every layout is the lane's limbs.
        copy(dst, src);
        return;
    }
    if width == 1 {
        let d = &mut dst[word];
        *d = (*d & !mask) | (src[word] & mask);
        return;
    }
    let k = limbs::count(width);
    let (lo, hi) = (word * 64, (word * 64 + 64).min(lanes as usize));
    let (dst, src) = (&mut dst[lo * k..hi * k], &src[lo * k..hi * k]);
    if k == 1 {
        for (i, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
            let m = 0u64.wrapping_sub((mask >> i) & 1);
            *d = (s & m) | (*d & !m);
        }
    } else {
        for (i, (d, s)) in dst.chunks_exact_mut(k).zip(src.chunks_exact(k)).enumerate() {
            if (mask >> i) & 1 != 0 {
                d.copy_from_slice(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift stimulus, independent per (seed, step).
    fn rng(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A random `width`-bit value per lane, and the signal holding them.
    fn random(width: u32, lanes: u32, seed: u64) -> (Vec<Value>, Vec<u64>) {
        let mut s = seed | 1;
        let vals: Vec<Value> = (0..lanes)
            .map(|_| {
                let limbs: Vec<u64> = (0..limbs::count(width)).map(|_| rng(&mut s)).collect();
                // A few small values, to reach every shift amount.
                match limbs[0] % 4 {
                    0 => Value::from_u64(width, limbs[0] % u64::from(width + 2)),
                    _ => Value::from_limbs(width, &limbs),
                }
            })
            .collect();
        let mut buf = vec![0; words(width, lanes)];
        for (l, v) in (0..).zip(&vals) {
            set(width, &mut buf, l, v.limbs());
        }
        (vals, buf)
    }

    fn check(width: u32, lanes: u32, buf: &[u64], want: impl Fn(usize) -> Value, what: &str) {
        for l in 0..lanes {
            assert_eq!(
                get(width, buf, l),
                want(l as usize),
                "{what} w={width} lanes={lanes} lane={l}"
            );
        }
        if width == 1 {
            let last = buf[plane_words(lanes) - 1];
            assert_eq!(last & !plane_tail_mask(lanes), 0, "{what}: plane tail");
        }
    }

    /// Every lane op must agree with the scalar `Value` op, lane by lane.
    #[test]
    fn lane_ops_match_scalar_value_ops() {
        for &width in &[1u32, 2, 7, 8, 31, 32, 63, 64, 65, 128, 200] {
            for &lanes in &[1u32, 3, 64, 65, 130] {
                let (av, a) = random(width, lanes, 0x1234_5678 + u64::from(width));
                let (bv, b) = random(width, lanes, 0x9abc_def0 + u64::from(lanes));
                let (sv, sel) = random(1, lanes, 77);
                let mut out = vec![0; words(width, lanes)];
                let mut plane = vec![0; plane_words(lanes)];

                macro_rules! check2 {
                    ($op:ident, $scalar:expr) => {
                        $op(lanes, width, &a, &b, &mut out);
                        check(
                            width,
                            lanes,
                            &out,
                            |l| ($scalar)(&av[l], &bv[l]),
                            stringify!($op),
                        );
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

                not(lanes, width, &a, &mut out);
                check(width, lanes, &out, |l| av[l].not(), "not");
                clz(lanes, width, &a, &mut out);
                let lz = |l: usize| Value::from_u64(width, u64::from(av[l].leading_zeros()));
                check(width, lanes, &out, lz, "clz");
                for amount in [0, 1, width / 2, width - 1, width, width + 3, 64] {
                    shl_const(lanes, width, &a, amount, &mut out);
                    check(width, lanes, &out, |l| av[l].shl(amount), "shl_const");
                    shr_const(lanes, width, &a, amount, &mut out);
                    check(width, lanes, &out, |l| av[l].shr(amount), "shr_const");
                }

                let cmp = |l: usize| av[l].ucmp(&bv[l]);
                eq(lanes, width, &a, &b, &mut plane);
                check(1, lanes, &plane, |l| Value::from_bool(cmp(l).is_eq()), "eq");
                lt(lanes, width, &a, &b, &mut plane);
                check(1, lanes, &plane, |l| Value::from_bool(cmp(l).is_lt()), "lt");
                ge(lanes, width, &a, &b, &mut plane);
                check(1, lanes, &plane, |l| Value::from_bool(cmp(l).is_ge()), "ge");
                reduce(lanes, width, &a, false, &mut plane);
                check(1, lanes, &plane, |l| av[l].reduce_or(), "reduce_or");
                reduce(lanes, width, &a, true, &mut plane);
                check(1, lanes, &plane, |l| av[l].reduce_and(), "reduce_and");

                mux(lanes, width, &sel, &a, &b, &mut out);
                let pick = |l: usize| {
                    if sv[l].as_bool() {
                        bv[l].clone()
                    } else {
                        av[l].clone()
                    }
                };
                check(width, lanes, &out, pick, "mux");
                let mut dst = b.clone();
                copy_masked(lanes, width, &mut dst, &a, &sel);
                let pick = |l: usize| {
                    if sv[l].as_bool() {
                        av[l].clone()
                    } else {
                        bv[l].clone()
                    }
                };
                check(width, lanes, &dst, pick, "copy_masked");
            }
        }
    }

    #[test]
    fn slice_concat_resize_match_scalar() {
        let lanes = 67;
        for in_w in [32u32, 130] {
            let (av, a) = random(in_w, lanes, 5);
            for (hi, lo) in [
                (in_w - 1, 0),
                (in_w - 1, in_w - 1),
                (17, 3),
                (0, 0),
                (8, 1),
                (100, 30),
            ] {
                if hi >= in_w {
                    continue;
                }
                let mut out = vec![0; words(hi - lo + 1, lanes)];
                slice(lanes, in_w, &a, hi, lo, &mut out);
                check(hi - lo + 1, lanes, &out, |l| av[l].slice(hi, lo), "slice");
            }
            for out_w in [1u32, 8, 32, 48, 64, 65, 130, 200] {
                let mut out = vec![0; words(out_w, lanes)];
                resize(lanes, in_w, out_w, &a, &mut out);
                check(out_w, lanes, &out, |l| av[l].resize(out_w), "resize");
            }
        }
        for (hw, lw) in [
            (1u32, 5u32),
            (1, 1),
            (1, 64),
            (64, 1),
            (65, 63),
            (7, 121),
            (100, 100),
        ] {
            let (hv, h) = random(hw, lanes, 9);
            let (lv, lo) = random(lw, lanes, 11);
            let mut out = vec![0; words(hw + lw, lanes)];
            concat(lanes, hw, lw, &h, &lo, &mut out);
            check(hw + lw, lanes, &out, |l| hv[l].concat(&lv[l]), "concat");
        }
        let (av, a) = random(1, lanes, 13);
        let mut out = vec![0; words(70, lanes)];
        resize(lanes, 1, 70, &a, &mut out);
        check(70, lanes, &out, |l| av[l].resize(70), "resize from a plane");
    }

    #[test]
    fn plane_tail_invariant_maintained() {
        let lanes = 70; // 2 words, 6 valid bits in the tail word
        let mut a = vec![0; plane_words(lanes)];
        broadcast(lanes, 1, &mut a, &[1]);
        assert_eq!(a[1], plane_tail_mask(lanes));
        let b = a.clone();
        let mut out = vec![0; plane_words(lanes)];
        not(lanes, 1, &a, &mut out);
        assert_eq!(out[1], 0);
        add(lanes, 1, &a, &b, &mut out);
        assert_eq!(out[1], 0);
        eq(lanes, 1, &a, &b, &mut out);
        assert_eq!(out[1], plane_tail_mask(lanes));
    }

    #[test]
    fn broadcast_set_and_get() {
        for width in [1u32, 16, 100] {
            let lanes = 10;
            let mut b = vec![0; words(width, lanes)];
            let v = Value::from_u128(width, 0x1_2345_6789_abcd_ef01_2345);
            broadcast(lanes, width, &mut b, v.limbs());
            for l in 0..lanes {
                assert_eq!(get(width, &b, l), v);
            }
            let other = v.not();
            assert!(set(width, &mut b, 3, other.limbs()));
            assert!(!set(width, &mut b, 3, other.limbs()));
            assert_eq!(get(width, &b, 3), other);
            assert_eq!(get(width, &b, 4), v);
        }
    }
}
