//! Explicit AVX-512 and AVX2 kernels for the two short-stride radix-4
//! passes of the half-width merged transforms.
//!
//! A radix-4 pass at butterfly distance `d` touches, per chunk of `4d`
//! coefficients, the four quarters `x0..x3` of length `d`. Distances are
//! `n/(4m)`, powers of 4, so every `n = 2^k` has exactly two passes with
//! `d` shorter than an AVX-512 vector: `d = 4` and `d = 1`. The generic
//! loops run those near-scalar; these kernels instead regroup whole
//! vectors in registers so that each lane holds the same quarter of a
//! different chunk (or of a different half-block), run the half-width
//! Shoup butterfly lane-wise, and regroup back before the store.
//!
//! The lane arithmetic is the exact integer sequence of
//! [`super::ct_bfly`] / [`super::gs_bfly`] with [`super::HalfMul`]: the
//! three 32×32→64 products, the wrapping subtraction and the masked
//! `2q` correction. Outputs are therefore bit-identical to the portable
//! loops, lazy `[0, 2q)` words included, not merely the same residues.
//!
//! Twiddles stay in [`modmath::roots::NttTables`]' bit-reversed tables:
//! the per-chunk pairs `tw[2m + 2c]`, `tw[2m + 2c + 1]` are
//! deinterleaved in registers, and the half-width Shoup companion is the
//! 64-bit one shifted right by 32 (see [`modmath::shoup::precompute_half`]).
//! Nothing is allocated per call.

use core::arch::x86_64::*;

/// Vector helpers for 8 × u64 lanes. Every lane holds a value `< 2^32`
/// (lazy words are `< 4q < 2^32`), which is what `_mm512_mul_epu32`'s
/// low-half operands require.
mod v512 {
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn load(s: &[u64]) -> __m512i {
        let s = &s[..8];
        // SAFETY: `s` has exactly 8 readable words; the load is unaligned.
        unsafe { _mm512_loadu_epi64(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn store(d: &mut [u64], v: __m512i) {
        let d = &mut d[..8];
        // SAFETY: `d` has exactly 8 writable words; the store is unaligned.
        unsafe { _mm512_storeu_epi64(d.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    /// Lanes `[lo; 4]` then `[hi; 4]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn halves(lo: u64, hi: u64) -> __m512i {
        _mm512_inserti64x4::<1>(splat(lo), _mm256_set1_epi64x(hi as i64))
    }

    /// `mul_lazy_half(t, w, ws >> 32, q)` per lane; `wsh` is already
    /// shifted.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn mul(t: __m512i, w: __m512i, wsh: __m512i, q: __m512i) -> __m512i {
        let h = _mm512_srli_epi64::<32>(_mm512_mul_epu32(wsh, t));
        _mm512_sub_epi64(_mm512_mul_epu32(w, t), _mm512_mul_epu32(h, q))
    }

    /// `lazy_sub_2q` per lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn sub_2q(a: __m512i, two_q: __m512i) -> __m512i {
        _mm512_mask_sub_epi64(a, _mm512_cmpge_epu64_mask(a, two_q), a, two_q)
    }

    /// Lane-wise CT butterfly: `(a + w·b, a − w·b)`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn ct(
        a: __m512i,
        b: __m512i,
        w: __m512i,
        wsh: __m512i,
        q: __m512i,
        two_q: __m512i,
    ) -> (__m512i, __m512i) {
        let v = mul(b, w, wsh, q);
        (
            sub_2q(_mm512_add_epi64(a, v), two_q),
            sub_2q(_mm512_sub_epi64(_mm512_add_epi64(a, two_q), v), two_q),
        )
    }

    /// Lane-wise GS butterfly: `(a + b, w·(a − b))`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn gs(
        a: __m512i,
        b: __m512i,
        w: __m512i,
        wsh: __m512i,
        q: __m512i,
        two_q: __m512i,
    ) -> (__m512i, __m512i) {
        (
            sub_2q(_mm512_add_epi64(a, b), two_q),
            mul(_mm512_sub_epi64(_mm512_add_epi64(a, two_q), b), w, wsh, q),
        )
    }

    /// Element `i` of the result is element `idx[i]` of `a ++ b`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn pick(a: __m512i, idx: __m512i, b: __m512i) -> __m512i {
        _mm512_permutex2var_epi64(a, idx, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn index(i: [i64; 8]) -> __m512i {
        _mm512_setr_epi64(i[0], i[1], i[2], i[3], i[4], i[5], i[6], i[7])
    }

    /// `[a.lo256, b.lo256]` and `[a.hi256, b.hi256]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub fn swap_halves(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        (
            _mm512_shuffle_i64x2::<0b01_00_01_00>(a, b),
            _mm512_shuffle_i64x2::<0b11_10_11_10>(a, b),
        )
    }
}

/// Vector helpers for 4 × u64 lanes, same contract as [`v512`].
mod v256 {
    use core::arch::x86_64::*;

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn load(s: &[u64]) -> __m256i {
        let s = &s[..4];
        // SAFETY: `s` has exactly 4 readable words; the load is unaligned.
        unsafe { _mm256_loadu_si256(s.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn store(d: &mut [u64], v: __m256i) {
        let d = &mut d[..4];
        // SAFETY: `d` has exactly 4 writable words; the store is unaligned.
        unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), v) }
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn splat(x: u64) -> __m256i {
        _mm256_set1_epi64x(x as i64)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn mul(t: __m256i, w: __m256i, wsh: __m256i, q: __m256i) -> __m256i {
        let h = _mm256_srli_epi64::<32>(_mm256_mul_epu32(wsh, t));
        _mm256_sub_epi64(_mm256_mul_epu32(w, t), _mm256_mul_epu32(h, q))
    }

    /// `lazy_sub_2q` per lane. AVX2 has only a signed 64-bit compare,
    /// which agrees with the unsigned one because lanes are `< 2^63`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn sub_2q(a: __m256i, two_q: __m256i) -> __m256i {
        let below = _mm256_cmpgt_epi64(two_q, a);
        _mm256_sub_epi64(a, _mm256_andnot_si256(below, two_q))
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn ct(
        a: __m256i,
        b: __m256i,
        w: __m256i,
        wsh: __m256i,
        q: __m256i,
        two_q: __m256i,
    ) -> (__m256i, __m256i) {
        let v = mul(b, w, wsh, q);
        (
            sub_2q(_mm256_add_epi64(a, v), two_q),
            sub_2q(_mm256_sub_epi64(_mm256_add_epi64(a, two_q), v), two_q),
        )
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn gs(
        a: __m256i,
        b: __m256i,
        w: __m256i,
        wsh: __m256i,
        q: __m256i,
        two_q: __m256i,
    ) -> (__m256i, __m256i) {
        (
            sub_2q(_mm256_add_epi64(a, b), two_q),
            mul(_mm256_sub_epi64(_mm256_add_epi64(a, two_q), b), w, wsh, q),
        )
    }

    /// 4×4 transpose of four chunks `v[k] = [x0, x1, x2, x3]` into four
    /// quarter vectors `X[j]` whose lanes hold chunks in the order
    /// `[0, 2, 1, 3]`; [`untranspose`] undoes it.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn transpose(v: [__m256i; 4]) -> [__m256i; 4] {
        let t0 = _mm256_unpacklo_epi64(v[0], v[2]);
        let t1 = _mm256_unpackhi_epi64(v[0], v[2]);
        let t2 = _mm256_unpacklo_epi64(v[1], v[3]);
        let t3 = _mm256_unpackhi_epi64(v[1], v[3]);
        [
            _mm256_permute2x128_si256::<0x20>(t0, t2),
            _mm256_permute2x128_si256::<0x20>(t1, t3),
            _mm256_permute2x128_si256::<0x31>(t0, t2),
            _mm256_permute2x128_si256::<0x31>(t1, t3),
        ]
    }

    /// Quarter vectors (lane order `[0, 2, 1, 3]`) back to four chunks.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn untranspose(x: [__m256i; 4]) -> [__m256i; 4] {
        let t0 = _mm256_permute2x128_si256::<0x20>(x[0], x[2]);
        let t2 = _mm256_permute2x128_si256::<0x31>(x[0], x[2]);
        let t1 = _mm256_permute2x128_si256::<0x20>(x[1], x[3]);
        let t3 = _mm256_permute2x128_si256::<0x31>(x[1], x[3]);
        [
            _mm256_unpacklo_epi64(t0, t1),
            _mm256_unpacklo_epi64(t2, t3),
            _mm256_unpackhi_epi64(t0, t1),
            _mm256_unpackhi_epi64(t2, t3),
        ]
    }

    /// Four consecutive per-chunk twiddles in lane order `[0, 2, 1, 3]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn per_chunk(s: &[u64]) -> __m256i {
        _mm256_permute4x64_epi64::<0b11_01_10_00>(load(s))
    }

    /// Eight interleaved twiddles `[e0, o0, e1, o1, …]` of four chunks
    /// split into evens and odds, each in lane order `[0, 2, 1, 3]`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub fn deinterleave(s: &[u64]) -> (__m256i, __m256i) {
        let (a, b) = (load(s), load(&s[4..]));
        (_mm256_unpacklo_epi64(a, b), _mm256_unpackhi_epi64(a, b))
    }
}

/// The 4×4 chunk transpose on 8-lane vectors: `v[k]` holds chunks
/// `2k, 2k+1`; `X[j]` holds quarter `j` of chunks `0..8` in order.
/// Each `X[j]` is built in two `permutex2var` steps and taken apart the
/// same way by [`untranspose8`].
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose8(v: [__m512i; 4]) -> [__m512i; 4] {
    let even = v512::index([0, 4, 8, 12, 1, 5, 9, 13]);
    let odd = v512::index([2, 6, 10, 14, 3, 7, 11, 15]);
    let lo = v512::index([0, 1, 2, 3, 8, 9, 10, 11]);
    let hi = v512::index([4, 5, 6, 7, 12, 13, 14, 15]);
    // Quarters 0|1 and 2|3 of chunks 0..4, then of chunks 4..8.
    let t0 = v512::pick(v[0], even, v[1]);
    let t1 = v512::pick(v[0], odd, v[1]);
    let t2 = v512::pick(v[2], even, v[3]);
    let t3 = v512::pick(v[2], odd, v[3]);
    [
        v512::pick(t0, lo, t2),
        v512::pick(t0, hi, t2),
        v512::pick(t1, lo, t3),
        v512::pick(t1, hi, t3),
    ]
}

#[inline]
#[target_feature(enable = "avx512f")]
fn untranspose8(x: [__m512i; 4]) -> [__m512i; 4] {
    let even = v512::index([0, 4, 8, 12, 1, 5, 9, 13]);
    let odd = v512::index([2, 6, 10, 14, 3, 7, 11, 15]);
    let lo = v512::index([0, 1, 2, 3, 8, 9, 10, 11]);
    let hi = v512::index([4, 5, 6, 7, 12, 13, 14, 15]);
    let t0 = v512::pick(x[0], lo, x[1]);
    let t2 = v512::pick(x[0], hi, x[1]);
    let t1 = v512::pick(x[2], lo, x[3]);
    let t3 = v512::pick(x[2], hi, x[3]);
    [
        v512::pick(t0, even, t1),
        v512::pick(t0, odd, t1),
        v512::pick(t2, even, t3),
        v512::pick(t2, odd, t3),
    ]
}

/// Sixteen interleaved twiddles `[e0, o0, e1, o1, …]` of eight chunks
/// split into evens and odds, in chunk order.
#[inline]
#[target_feature(enable = "avx512f")]
fn deinterleave8(s: &[u64]) -> (__m512i, __m512i) {
    let (a, b) = (v512::load(s), v512::load(&s[8..]));
    (
        v512::pick(a, v512::index([0, 2, 4, 6, 8, 10, 12, 14]), b),
        v512::pick(a, v512::index([1, 3, 5, 7, 9, 11, 13, 15]), b),
    )
}

/// Forward radix-4 pass at distance 1 (`m = n/4` blocks), eight chunks
/// per iteration. Requires `n` a multiple of 32.
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
pub(super) fn fwd_d1_avx512(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let m = poly.len() / 4;
    let (qv, two_q) = (v512::splat(q), v512::splat(2 * q));
    for (g, x) in poly.chunks_exact_mut(32).enumerate() {
        let (i0, i12) = (m + 8 * g, 2 * m + 16 * g);
        let w0 = v512::load(&tw[i0..]);
        let ws0 = _mm512_srli_epi64::<32>(v512::load(&tws[i0..]));
        let (w1, w2) = deinterleave8(&tw[i12..]);
        let (ws1, ws2) = deinterleave8(&tws[i12..]);
        let (ws1, ws2) = (_mm512_srli_epi64::<32>(ws1), _mm512_srli_epi64::<32>(ws2));
        let [x0, x1, x2, x3] = transpose8([
            v512::load(x),
            v512::load(&x[8..]),
            v512::load(&x[16..]),
            v512::load(&x[24..]),
        ]);
        let (a0, a2) = v512::ct(x0, x2, w0, ws0, qv, two_q);
        let (a1, a3) = v512::ct(x1, x3, w0, ws0, qv, two_q);
        let (y0, y1) = v512::ct(a0, a1, w1, ws1, qv, two_q);
        let (y2, y3) = v512::ct(a2, a3, w2, ws2, qv, two_q);
        let v = untranspose8([y0, y1, y2, y3]);
        for (k, vk) in v.into_iter().enumerate() {
            v512::store(&mut x[8 * k..], vk);
        }
    }
}

/// Forward radix-4 pass at distance 4 (`m = n/16` blocks), one chunk of
/// 16 per iteration: the distance-8 butterflies pair the two vector
/// halves directly; the distance-4 ones pair 256-bit halves after one
/// swap.
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
pub(super) fn fwd_d4_avx512(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let m = poly.len() / 16;
    let (qv, two_q) = (v512::splat(q), v512::splat(2 * q));
    for (c, x) in poly.chunks_exact_mut(16).enumerate() {
        let w0 = v512::splat(tw[m + c]);
        let ws0 = v512::splat(tws[m + c] >> 32);
        let (j, k) = (2 * m + 2 * c, 2 * m + 2 * c + 1);
        let w12 = v512::halves(tw[j], tw[k]);
        let ws12 = v512::halves(tws[j] >> 32, tws[k] >> 32);
        // [x0|x1] and [x2|x3]: stage m pairs them lane for lane.
        let (a01, a23) = v512::ct(v512::load(x), v512::load(&x[8..]), w0, ws0, qv, two_q);
        let (a02, a13) = v512::swap_halves(a01, a23);
        let (y02, y13) = v512::ct(a02, a13, w12, ws12, qv, two_q);
        let (y01, y23) = v512::swap_halves(y02, y13);
        v512::store(x, y01);
        v512::store(&mut x[8..], y23);
    }
}

/// Inverse radix-4 pass at distance 1 (`h = n/2` blocks), eight chunks
/// per iteration. Requires `n` a multiple of 32.
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
pub(super) fn inv_d1_avx512(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let h = poly.len() / 2;
    let (qv, two_q) = (v512::splat(q), v512::splat(2 * q));
    for (g, x) in poly.chunks_exact_mut(32).enumerate() {
        let (i01, i2) = (h + 16 * g, h / 2 + 8 * g);
        let (w0, w1) = deinterleave8(&tw[i01..]);
        let (ws0, ws1) = deinterleave8(&tws[i01..]);
        let (ws0, ws1) = (_mm512_srli_epi64::<32>(ws0), _mm512_srli_epi64::<32>(ws1));
        let w2 = v512::load(&tw[i2..]);
        let ws2 = _mm512_srli_epi64::<32>(v512::load(&tws[i2..]));
        let [x0, x1, x2, x3] = transpose8([
            v512::load(x),
            v512::load(&x[8..]),
            v512::load(&x[16..]),
            v512::load(&x[24..]),
        ]);
        let (a0, a1) = v512::gs(x0, x1, w0, ws0, qv, two_q);
        let (a2, a3) = v512::gs(x2, x3, w1, ws1, qv, two_q);
        let (y0, y2) = v512::gs(a0, a2, w2, ws2, qv, two_q);
        let (y1, y3) = v512::gs(a1, a3, w2, ws2, qv, two_q);
        let v = untranspose8([y0, y1, y2, y3]);
        for (k, vk) in v.into_iter().enumerate() {
            v512::store(&mut x[8 * k..], vk);
        }
    }
}

/// Inverse radix-4 pass at distance 4 (`h = n/8` blocks), one chunk of
/// 16 per iteration; mirror image of [`fwd_d4_avx512`].
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
pub(super) fn inv_d4_avx512(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let h = poly.len() / 8;
    let (qv, two_q) = (v512::splat(q), v512::splat(2 * q));
    for (c, x) in poly.chunks_exact_mut(16).enumerate() {
        let (j, k) = (h + 2 * c, h + 2 * c + 1);
        let w01 = v512::halves(tw[j], tw[k]);
        let ws01 = v512::halves(tws[j] >> 32, tws[k] >> 32);
        let w2 = v512::splat(tw[h / 2 + c]);
        let ws2 = v512::splat(tws[h / 2 + c] >> 32);
        let (x02, x13) = v512::swap_halves(v512::load(x), v512::load(&x[8..]));
        let (a02, a13) = v512::gs(x02, x13, w01, ws01, qv, two_q);
        let (a01, a23) = v512::swap_halves(a02, a13);
        let (y01, y23) = v512::gs(a01, a23, w2, ws2, qv, two_q);
        v512::store(x, y01);
        v512::store(&mut x[8..], y23);
    }
}

/// Forward radix-4 pass at distance 1 on AVX2, four chunks per
/// iteration. Requires `n` a multiple of 16.
#[target_feature(enable = "avx2")]
pub(super) fn fwd_d1_avx2(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let m = poly.len() / 4;
    let (qv, two_q) = (v256::splat(q), v256::splat(2 * q));
    for (g, x) in poly.chunks_exact_mut(16).enumerate() {
        let (i0, i12) = (m + 4 * g, 2 * m + 8 * g);
        let w0 = v256::per_chunk(&tw[i0..]);
        let ws0 = _mm256_srli_epi64::<32>(v256::per_chunk(&tws[i0..]));
        let (w1, w2) = v256::deinterleave(&tw[i12..]);
        let (ws1, ws2) = v256::deinterleave(&tws[i12..]);
        let (ws1, ws2) = (_mm256_srli_epi64::<32>(ws1), _mm256_srli_epi64::<32>(ws2));
        let [x0, x1, x2, x3] = v256::transpose([
            v256::load(x),
            v256::load(&x[4..]),
            v256::load(&x[8..]),
            v256::load(&x[12..]),
        ]);
        let (a0, a2) = v256::ct(x0, x2, w0, ws0, qv, two_q);
        let (a1, a3) = v256::ct(x1, x3, w0, ws0, qv, two_q);
        let (y0, y1) = v256::ct(a0, a1, w1, ws1, qv, two_q);
        let (y2, y3) = v256::ct(a2, a3, w2, ws2, qv, two_q);
        let v = v256::untranspose([y0, y1, y2, y3]);
        for (k, vk) in v.into_iter().enumerate() {
            v256::store(&mut x[4 * k..], vk);
        }
    }
}

/// Forward radix-4 pass at distance 4 on AVX2: each quarter of a
/// 16-coefficient chunk is exactly one vector, so no regrouping at all.
#[target_feature(enable = "avx2")]
pub(super) fn fwd_d4_avx2(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let m = poly.len() / 16;
    let (qv, two_q) = (v256::splat(q), v256::splat(2 * q));
    for (c, x) in poly.chunks_exact_mut(16).enumerate() {
        let w = |i: usize| (v256::splat(tw[i]), v256::splat(tws[i] >> 32));
        let ((w0, ws0), (w1, ws1), (w2, ws2)) = (w(m + c), w(2 * m + 2 * c), w(2 * m + 2 * c + 1));
        let (a0, a2) = v256::ct(v256::load(x), v256::load(&x[8..]), w0, ws0, qv, two_q);
        let (a1, a3) = v256::ct(
            v256::load(&x[4..]),
            v256::load(&x[12..]),
            w0,
            ws0,
            qv,
            two_q,
        );
        let (y0, y1) = v256::ct(a0, a1, w1, ws1, qv, two_q);
        let (y2, y3) = v256::ct(a2, a3, w2, ws2, qv, two_q);
        for (k, yk) in [y0, y1, y2, y3].into_iter().enumerate() {
            v256::store(&mut x[4 * k..], yk);
        }
    }
}

/// Inverse radix-4 pass at distance 1 on AVX2, four chunks per
/// iteration. Requires `n` a multiple of 16.
#[target_feature(enable = "avx2")]
pub(super) fn inv_d1_avx2(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let h = poly.len() / 2;
    let (qv, two_q) = (v256::splat(q), v256::splat(2 * q));
    for (g, x) in poly.chunks_exact_mut(16).enumerate() {
        let (i01, i2) = (h + 8 * g, h / 2 + 4 * g);
        let (w0, w1) = v256::deinterleave(&tw[i01..]);
        let (ws0, ws1) = v256::deinterleave(&tws[i01..]);
        let (ws0, ws1) = (_mm256_srli_epi64::<32>(ws0), _mm256_srli_epi64::<32>(ws1));
        let w2 = v256::per_chunk(&tw[i2..]);
        let ws2 = _mm256_srli_epi64::<32>(v256::per_chunk(&tws[i2..]));
        let [x0, x1, x2, x3] = v256::transpose([
            v256::load(x),
            v256::load(&x[4..]),
            v256::load(&x[8..]),
            v256::load(&x[12..]),
        ]);
        let (a0, a1) = v256::gs(x0, x1, w0, ws0, qv, two_q);
        let (a2, a3) = v256::gs(x2, x3, w1, ws1, qv, two_q);
        let (y0, y2) = v256::gs(a0, a2, w2, ws2, qv, two_q);
        let (y1, y3) = v256::gs(a1, a3, w2, ws2, qv, two_q);
        let v = v256::untranspose([y0, y1, y2, y3]);
        for (k, vk) in v.into_iter().enumerate() {
            v256::store(&mut x[4 * k..], vk);
        }
    }
}

/// Inverse radix-4 pass at distance 4 on AVX2; mirror image of
/// [`fwd_d4_avx2`].
#[target_feature(enable = "avx2")]
pub(super) fn inv_d4_avx2(poly: &mut [u64], tw: &[u64], tws: &[u64], q: u64) {
    let h = poly.len() / 8;
    let (qv, two_q) = (v256::splat(q), v256::splat(2 * q));
    for (c, x) in poly.chunks_exact_mut(16).enumerate() {
        let w = |i: usize| (v256::splat(tw[i]), v256::splat(tws[i] >> 32));
        let ((w0, ws0), (w1, ws1), (w2, ws2)) = (w(h + 2 * c), w(h + 2 * c + 1), w(h / 2 + c));
        let (a0, a1) = v256::gs(v256::load(x), v256::load(&x[4..]), w0, ws0, qv, two_q);
        let (a2, a3) = v256::gs(
            v256::load(&x[8..]),
            v256::load(&x[12..]),
            w1,
            ws1,
            qv,
            two_q,
        );
        let (y0, y2) = v256::gs(a0, a2, w2, ws2, qv, two_q);
        let (y1, y3) = v256::gs(a1, a3, w2, ws2, qv, two_q);
        for (k, yk) in [y0, y1, y2, y3].into_iter().enumerate() {
            v256::store(&mut x[4 * k..], yk);
        }
    }
}
