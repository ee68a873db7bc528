//! Merged-twiddle negacyclic transforms — the host-side hot path.
//!
//! The classic Algorithm-1 pipeline spends two full passes per operand
//! on the `φ ⊙ a` pre-scaling (plus a bit-reversal permutation) and one
//! on the `φ̄` post-scaling. The merged formulation (Longa–Naehrig
//! style) folds the `φ` powers *into the butterfly twiddles*:
//!
//! * **Forward**: Cooley–Tukey butterflies over the
//!   [`NttTables::phi_powers_bitrev`] table (`ψ^{rev(i)}`), natural-order
//!   input, **bit-reversed** lazy output. No pre-scaling pass, no
//!   permutation.
//! * **Inverse**: Gentleman–Sande butterflies over
//!   [`NttTables::phi_inv_powers_bitrev`], bit-reversed lazy input,
//!   natural-order **canonical** output; only the `n⁻¹` factor survives
//!   as a final fused scale-and-normalize pass.
//!
//! Pointwise products commute with any fixed permutation, so a
//! multiply that keeps *both* spectra in the same bit-reversed domain
//! produces exactly the canonical product of the natural-order pipeline
//! — bit-identical, since canonical representatives are unique.
//!
//! The kernels share the shape of [`crate::gs`]: branch-free lazy
//! `[0, 2q)` butterflies, radix-4 (merged two-stage) passes and a
//! half-width 32×32→64 multiply path for `q < 2^30`. Batch entry points
//! run stage-outer/polynomial-inner so one twiddle-table walk serves the
//! whole batch.
//!
//! # Dispatch paths
//!
//! The half-width transforms run on one of three [`KernelPath`]s, picked at
//! runtime by CPU feature detection:
//!
//! * **AVX-512** and **AVX2**: `#[target_feature]`-recompiled copies of
//!   the generic loops, which the autovectorizer handles well while the
//!   butterfly distance `d` spans whole vectors (`d ≥ 16`). The two
//!   radix-4 passes with a shorter distance, `d = 4` and `d = 1`, are
//!   the explicit `std::arch` kernels of `x86.rs`: they regroup
//!   vectors in registers so each lane carries one butterfly, and run
//!   the same half-width butterfly lane-wise. Before them those two
//!   passes ran near-scalar and took more than half of each transform.
//! * **Portable**: the generic loops for the baseline target, and the
//!   only path off x86-64 and for `q ≥ 2^30` (the wide multiply).
//!
//! Every path produces the same words, lazy values included.
//! [`with_path`] pins the calling thread to one path so tests can check
//! each against the others.
//!
//! # Lazy bounds
//!
//! Butterfly inputs are `< 2q`. The CT butterfly computes
//! `v = w·b mod⁻ 2q` then `a + v < 4q` and `a + 2q − v < 4q`, both
//! masked back to `< 2q`; the GS butterfly sums to `< 4q` (masked) and
//! feeds `a + 2q − b < 4q` into a Shoup multiply. No intermediate ever
//! reaches `4q`, which keeps the half-width path inside `u32` range
//! (`4q < 2^32`) and the wide path inside `u64` for `q ≤ 2^62`.

use modmath::roots::NttTables;
use modmath::{barrett, bitrev, shoup};

#[cfg(target_arch = "x86_64")]
mod x86;

/// One lazy modular multiply strategy (`w` fixed with Shoup companion).
trait LazyMul: Copy {
    fn q(self) -> u64;
    fn two_q(self) -> u64;
    /// `w · t mod q` in `[0, 2q)` for `t < 4q`.
    fn mul(self, t: u64, w: u64, ws: u64) -> u64;
}

/// Full-width (`u128`-producing) Shoup multiply, any `q ≤ 2^62`.
#[derive(Clone, Copy)]
struct WideMul {
    q: u64,
    two_q: u64,
}

impl LazyMul for WideMul {
    #[inline(always)]
    fn q(self) -> u64 {
        self.q
    }
    #[inline(always)]
    fn two_q(self) -> u64 {
        self.two_q
    }
    #[inline(always)]
    fn mul(self, t: u64, w: u64, ws: u64) -> u64 {
        shoup::mul_lazy(t, w, ws, self.q)
    }
}

/// Half-width 32×32→64 Shoup multiply for `q < 2^30` (`pmuludq`-friendly).
#[derive(Clone, Copy)]
struct HalfMul {
    q: u64,
    two_q: u64,
}

impl LazyMul for HalfMul {
    #[inline(always)]
    fn q(self) -> u64 {
        self.q
    }
    #[inline(always)]
    fn two_q(self) -> u64 {
        self.two_q
    }
    #[inline(always)]
    fn mul(self, t: u64, w: u64, ws: u64) -> u64 {
        shoup::mul_lazy_half(t, w, ws >> 32, self.q)
    }
}

/// CT butterfly on lazy values: `(a + w·b, a − w·b)`, both `< 2q`.
#[inline(always)]
fn ct_bfly<M: LazyMul>(a: u64, b: u64, w: u64, ws: u64, m: M) -> (u64, u64) {
    debug_assert!(a < m.two_q() && b < m.two_q(), "lazy inputs must be < 2q");
    let v = m.mul(b, w, ws);
    (
        shoup::lazy_sub_2q(a + v, m.two_q()),
        shoup::lazy_sub_2q(a + m.two_q() - v, m.two_q()),
    )
}

/// GS butterfly on lazy values: `(a + b, w·(a − b))`, both `< 2q`.
#[inline(always)]
fn gs_bfly<M: LazyMul>(a: u64, b: u64, w: u64, ws: u64, m: M) -> (u64, u64) {
    debug_assert!(a < m.two_q() && b < m.two_q(), "lazy inputs must be < 2q");
    (
        shoup::lazy_sub_2q(a + b, m.two_q()),
        m.mul(a + m.two_q() - b, w, ws),
    )
}

/// Merged forward stages `m` and `2m` in one radix-4 pass.
///
/// Chunk `c` (one stage-`m` block of `4d` coefficients, `d = n/(4m)`)
/// uses `tw[m + c]` for the distance-`2d` butterflies and
/// `tw[2m + 2c]`, `tw[2m + 2c + 1]` for the distance-`d` butterflies of
/// its two half-blocks.
#[inline(always)]
fn fwd_radix4<M: LazyMul>(data: &mut [u64], tw: &[u64], tws: &[u64], m_blocks: usize, mul: M) {
    let n = data.len();
    let d = n / (4 * m_blocks);
    for (c, chunk) in data.chunks_exact_mut(4 * d).enumerate() {
        let (w0, ws0) = (tw[m_blocks + c], tws[m_blocks + c]);
        let (w1, ws1) = (tw[2 * m_blocks + 2 * c], tws[2 * m_blocks + 2 * c]);
        let (w2, ws2) = (tw[2 * m_blocks + 2 * c + 1], tws[2 * m_blocks + 2 * c + 1]);
        let (lo, hi) = chunk.split_at_mut(2 * d);
        let (q0, q1) = lo.split_at_mut(d);
        let (q2, q3) = hi.split_at_mut(d);
        for (((x0, x1), x2), x3) in q0
            .iter_mut()
            .zip(q1.iter_mut())
            .zip(q2.iter_mut())
            .zip(q3.iter_mut())
        {
            // Stage m (distance 2d): pairs (q0, q2) and (q1, q3).
            let (a0, a2) = ct_bfly(*x0, *x2, w0, ws0, mul);
            let (a1, a3) = ct_bfly(*x1, *x3, w0, ws0, mul);
            // Stage 2m (distance d): pairs (q0, q1) and (q2, q3).
            let (y0, y1) = ct_bfly(a0, a1, w1, ws1, mul);
            let (y2, y3) = ct_bfly(a2, a3, w2, ws2, mul);
            *x0 = y0;
            *x1 = y1;
            *x2 = y2;
            *x3 = y3;
        }
    }
}

/// One forward CT stage with `m_blocks` blocks (radix-2).
#[inline(always)]
fn fwd_radix2<M: LazyMul>(data: &mut [u64], tw: &[u64], tws: &[u64], m_blocks: usize, mul: M) {
    let n = data.len();
    let t = n / (2 * m_blocks);
    for (c, chunk) in data.chunks_exact_mut(2 * t).enumerate() {
        let (w, ws) = (tw[m_blocks + c], tws[m_blocks + c]);
        let (lo, hi) = chunk.split_at_mut(t);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (s, d) = ct_bfly(*a, *b, w, ws, mul);
            *a = s;
            *b = d;
        }
    }
}

/// Merged inverse stages with `h` then `h/2` blocks in one radix-4 pass.
///
/// Chunk `c` (`4t` coefficients, `t = n/(2h)`) covers the stage-`h`
/// blocks `2c`, `2c+1` (`tw[h + 2c]`, `tw[h + 2c + 1]`) and the
/// stage-`h/2` block `c` (`tw[h/2 + c]`).
#[inline(always)]
fn inv_radix4<M: LazyMul>(data: &mut [u64], tw: &[u64], tws: &[u64], h_blocks: usize, mul: M) {
    let n = data.len();
    let t = n / (2 * h_blocks);
    for (c, chunk) in data.chunks_exact_mut(4 * t).enumerate() {
        let (w0, ws0) = (tw[h_blocks + 2 * c], tws[h_blocks + 2 * c]);
        let (w1, ws1) = (tw[h_blocks + 2 * c + 1], tws[h_blocks + 2 * c + 1]);
        let (w2, ws2) = (tw[h_blocks / 2 + c], tws[h_blocks / 2 + c]);
        let (lo, hi) = chunk.split_at_mut(2 * t);
        let (q0, q1) = lo.split_at_mut(t);
        let (q2, q3) = hi.split_at_mut(t);
        for (((x0, x1), x2), x3) in q0
            .iter_mut()
            .zip(q1.iter_mut())
            .zip(q2.iter_mut())
            .zip(q3.iter_mut())
        {
            // Stage h (distance t): pairs (q0, q1) and (q2, q3).
            let (a0, a1) = gs_bfly(*x0, *x1, w0, ws0, mul);
            let (a2, a3) = gs_bfly(*x2, *x3, w1, ws1, mul);
            // Stage h/2 (distance 2t): pairs (q0, q2) and (q1, q3).
            let (y0, y2) = gs_bfly(a0, a2, w2, ws2, mul);
            let (y1, y3) = gs_bfly(a1, a3, w2, ws2, mul);
            *x0 = y0;
            *x1 = y1;
            *x2 = y2;
            *x3 = y3;
        }
    }
}

/// One inverse GS stage with `h_blocks` blocks (radix-2).
#[inline(always)]
fn inv_radix2<M: LazyMul>(data: &mut [u64], tw: &[u64], tws: &[u64], h_blocks: usize, mul: M) {
    let n = data.len();
    let t = n / (2 * h_blocks);
    for (c, chunk) in data.chunks_exact_mut(2 * t).enumerate() {
        let (w, ws) = (tw[h_blocks + c], tws[h_blocks + c]);
        let (lo, hi) = chunk.split_at_mut(t);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let (s, d) = gs_bfly(*a, *b, w, ws, mul);
            *a = s;
            *b = d;
        }
    }
}

/// How a dispatch path runs the radix-4 passes: the generic loops, or
/// explicit SIMD kernels for the passes whose distance is shorter than
/// a vector (see [`x86`]). Every implementation is bit-identical to
/// [`Portable`].
trait Radix4<M: LazyMul>: Copy {
    fn forward(self, poly: &mut [u64], tw: &[u64], tws: &[u64], m_blocks: usize, mul: M);
    fn inverse(self, poly: &mut [u64], tw: &[u64], tws: &[u64], h_blocks: usize, mul: M);
}

/// The generic loops at every distance.
#[derive(Clone, Copy)]
struct Portable;

impl<M: LazyMul> Radix4<M> for Portable {
    #[inline(always)]
    fn forward(self, poly: &mut [u64], tw: &[u64], tws: &[u64], m_blocks: usize, mul: M) {
        fwd_radix4(poly, tw, tws, m_blocks, mul);
    }
    #[inline(always)]
    fn inverse(self, poly: &mut [u64], tw: &[u64], tws: &[u64], h_blocks: usize, mul: M) {
        inv_radix4(poly, tw, tws, h_blocks, mul);
    }
}

/// Forward merged transform of every stacked polynomial, stage-outer.
///
/// When `log2 n` is odd the leftover radix-2 stage runs *first*
/// (`m = 1`: one block of length `n`, a single twiddle — the most
/// vectorizable stage); radix-4 pairs cover the rest.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_forward<M: LazyMul, R: Radix4<M>>(
    data: &mut [u64],
    n: usize,
    tw: &[u64],
    tws: &[u64],
    log_n: u32,
    mul: M,
    radix4: R,
) {
    let mut m = 1usize;
    if log_n % 2 == 1 {
        for poly in data.chunks_exact_mut(n) {
            fwd_radix2(poly, tw, tws, m, mul);
        }
        m = 2;
    }
    while m < n {
        for poly in data.chunks_exact_mut(n) {
            radix4.forward(poly, tw, tws, m, mul);
        }
        m *= 4;
    }
}

/// Inverse merged transform stages (no final scale), stage-outer.
///
/// The leftover radix-2 stage (odd `log2 n`) is the last one
/// (`h = 1`: one block of length `n`), mirroring the forward direction.
#[inline(always)]
fn run_inverse<M: LazyMul, R: Radix4<M>>(
    data: &mut [u64],
    n: usize,
    tw: &[u64],
    tws: &[u64],
    mul: M,
    radix4: R,
) {
    let mut h = n / 2;
    while h >= 2 {
        for poly in data.chunks_exact_mut(n) {
            radix4.inverse(poly, tw, tws, h, mul);
        }
        h /= 4;
    }
    if h == 1 {
        for poly in data.chunks_exact_mut(n) {
            inv_radix2(poly, tw, tws, 1, mul);
        }
    }
}

/// Fused `n⁻¹` scale and normalization: lazy in, canonical out,
/// branch-free.
#[inline(always)]
fn scale_n_inv<M: LazyMul>(data: &mut [u64], n_inv: u64, n_inv_shoup: u64, mul: M) {
    let q = mul.q();
    for c in data.iter_mut() {
        let r = mul.mul(*c, n_inv, n_inv_shoup);
        let mask = ((r >= q) as u64).wrapping_neg();
        *c = r - (q & mask);
    }
}

/// Direction selector for the dispatched driver.
#[derive(Clone, Copy)]
enum Dir {
    Forward,
    Inverse,
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn run_dir<M: LazyMul, R: Radix4<M>>(
    dir: Dir,
    data: &mut [u64],
    n: usize,
    tw: &[u64],
    tws: &[u64],
    log_n: u32,
    n_inv: u64,
    n_inv_shoup: u64,
    mul: M,
    radix4: R,
) {
    match dir {
        Dir::Forward => run_forward(data, n, tw, tws, log_n, mul, radix4),
        Dir::Inverse => {
            run_inverse(data, n, tw, tws, mul, radix4);
            scale_n_inv(data, n_inv, n_inv_shoup, mul);
        }
    }
}

/// Instruction-set path of the half-width (`q < 2^30`) transforms.
///
/// Every path produces the same words: the SIMD kernels run the exact
/// integer sequence of the portable butterflies, so outputs agree word
/// for word, lazy `[0, 2q)` values included.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelPath {
    /// AVX-512F/DQ/VL: autovectorized wide passes plus explicit
    /// distance-4 and distance-1 kernels.
    Avx512,
    /// AVX2: the same structure on 256-bit vectors.
    Avx2,
    /// The generic loops, compiled for the baseline target.
    Portable,
}

impl KernelPath {
    /// Every path, fastest first.
    pub const ALL: [KernelPath; 3] = [KernelPath::Avx512, KernelPath::Avx2, KernelPath::Portable];

    /// Short lowercase name (`avx512`, `avx2`, `portable`).
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Avx512 => "avx512",
            KernelPath::Avx2 => "avx2",
            KernelPath::Portable => "portable",
        }
    }

    /// Whether this CPU can run the path.
    pub fn is_supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512dq")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            KernelPath::Portable => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

/// The path the half-width transforms take on this CPU: the first
/// supported one of [`KernelPath::ALL`].
pub fn detected_path() -> KernelPath {
    KernelPath::ALL
        .into_iter()
        .find(|p| p.is_supported())
        .unwrap_or(KernelPath::Portable)
}

thread_local! {
    /// Per-thread dispatch override set by [`with_path`].
    static FORCED: std::cell::Cell<Option<KernelPath>> = const { std::cell::Cell::new(None) };
}

/// Runs `f` with this thread's half-width transforms pinned to `path`,
/// so tests can check each path against the others on one CPU. Returns
/// `None` without running `f` when the CPU lacks `path`. Other threads
/// (including pool workers `f` may wake) keep the detected path.
#[doc(hidden)]
pub fn with_path<R>(path: KernelPath, f: impl FnOnce() -> R) -> Option<R> {
    struct Restore(Option<KernelPath>);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    if !path.is_supported() {
        return None;
    }
    let _restore = Restore(FORCED.with(|c| c.replace(Some(path))));
    Some(f())
}

/// The path this thread's next half-width transform takes.
fn current_path() -> KernelPath {
    FORCED.with(|c| c.get()).unwrap_or_else(detected_path)
}

/// Runtime-dispatched compilations of the half-width driver (see
/// [`crate::gs`] for the rationale), plus the explicit short-stride
/// kernels of [`x86`].
mod simd {
    #[allow(unused_imports)]
    use super::{
        current_path, fwd_radix4, inv_radix4, run_dir, Dir, HalfMul, KernelPath, Portable, Radix4,
    };

    /// AVX-512 radix-4 passes: explicit kernels at distances 4 and 1
    /// (the latter needs eight whole chunks, `n ≥ 32`). Only
    /// constructed once the features have been detected.
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy)]
    struct Avx512(());

    #[cfg(target_arch = "x86_64")]
    impl Radix4<HalfMul> for Avx512 {
        #[inline(always)]
        fn forward(self, poly: &mut [u64], tw: &[u64], tws: &[u64], m: usize, mul: HalfMul) {
            let n = poly.len();
            // SAFETY (both arms): an `Avx512` exists only after the
            // AVX-512F/DQ/VL check in `run_dir_half`.
            match n / (4 * m) {
                4 => unsafe { super::x86::fwd_d4_avx512(poly, tw, tws, mul.q) },
                1 if n >= 32 => unsafe { super::x86::fwd_d1_avx512(poly, tw, tws, mul.q) },
                _ => fwd_radix4(poly, tw, tws, m, mul),
            }
        }
        #[inline(always)]
        fn inverse(self, poly: &mut [u64], tw: &[u64], tws: &[u64], h: usize, mul: HalfMul) {
            let n = poly.len();
            // SAFETY: as in `forward`.
            match n / (2 * h) {
                4 => unsafe { super::x86::inv_d4_avx512(poly, tw, tws, mul.q) },
                1 if n >= 32 => unsafe { super::x86::inv_d1_avx512(poly, tw, tws, mul.q) },
                _ => inv_radix4(poly, tw, tws, h, mul),
            }
        }
    }

    /// AVX2 radix-4 passes: explicit kernels at distances 4 and 1 (the
    /// latter needs four whole chunks, `n ≥ 16`). Only constructed
    /// once the feature has been detected.
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy)]
    struct Avx2(());

    #[cfg(target_arch = "x86_64")]
    impl Radix4<HalfMul> for Avx2 {
        #[inline(always)]
        fn forward(self, poly: &mut [u64], tw: &[u64], tws: &[u64], m: usize, mul: HalfMul) {
            let n = poly.len();
            // SAFETY (both arms): an `Avx2` exists only after the AVX2
            // check in `run_dir_half`.
            match n / (4 * m) {
                4 => unsafe { super::x86::fwd_d4_avx2(poly, tw, tws, mul.q) },
                1 if n >= 16 => unsafe { super::x86::fwd_d1_avx2(poly, tw, tws, mul.q) },
                _ => fwd_radix4(poly, tw, tws, m, mul),
            }
        }
        #[inline(always)]
        fn inverse(self, poly: &mut [u64], tw: &[u64], tws: &[u64], h: usize, mul: HalfMul) {
            let n = poly.len();
            // SAFETY: as in `forward`.
            match n / (2 * h) {
                4 => unsafe { super::x86::inv_d4_avx2(poly, tw, tws, mul.q) },
                1 if n >= 16 => unsafe { super::x86::inv_d1_avx2(poly, tw, tws, mul.q) },
                _ => inv_radix4(poly, tw, tws, h, mul),
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_dir_avx512(
        dir: Dir,
        data: &mut [u64],
        n: usize,
        tw: &[u64],
        tws: &[u64],
        log_n: u32,
        n_inv: u64,
        n_inv_shoup: u64,
        mul: HalfMul,
    ) {
        run_dir(
            dir,
            data,
            n,
            tw,
            tws,
            log_n,
            n_inv,
            n_inv_shoup,
            mul,
            Avx512(()),
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn run_dir_avx2(
        dir: Dir,
        data: &mut [u64],
        n: usize,
        tw: &[u64],
        tws: &[u64],
        log_n: u32,
        n_inv: u64,
        n_inv_shoup: u64,
        mul: HalfMul,
    ) {
        run_dir(
            dir,
            data,
            n,
            tw,
            tws,
            log_n,
            n_inv,
            n_inv_shoup,
            mul,
            Avx2(()),
        );
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn run_dir_half(
        dir: Dir,
        data: &mut [u64],
        n: usize,
        tw: &[u64],
        tws: &[u64],
        log_n: u32,
        n_inv: u64,
        n_inv_shoup: u64,
        mul: HalfMul,
    ) {
        // `current_path` only returns a path whose features are present.
        match current_path() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX-512F/DQ/VL presence checked by `KernelPath::is_supported`.
            KernelPath::Avx512 => unsafe {
                run_dir_avx512(dir, data, n, tw, tws, log_n, n_inv, n_inv_shoup, mul)
            },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence checked by `KernelPath::is_supported`.
            KernelPath::Avx2 => unsafe {
                run_dir_avx2(dir, data, n, tw, tws, log_n, n_inv, n_inv_shoup, mul)
            },
            _ => run_dir(
                dir,
                data,
                n,
                tw,
                tws,
                log_n,
                n_inv,
                n_inv_shoup,
                mul,
                Portable,
            ),
        }
    }
}

fn dispatch(dir: Dir, data: &mut [u64], n: usize, tables: &NttTables) {
    let q = tables.modulus();
    let two_q = q << 1;
    assert_eq!(n, tables.degree(), "table/degree mismatch");
    assert!(
        !data.is_empty() && data.len().is_multiple_of(n),
        "batch buffer must be a positive multiple of n"
    );
    let log_n = bitrev::log2_exact(n).expect("degree is a power of two");
    debug_assert!(data.iter().all(|&c| c < two_q), "inputs must be < 2q");
    let (tw, tws) = match dir {
        Dir::Forward => (tables.phi_powers_bitrev(), tables.phi_powers_bitrev_shoup()),
        Dir::Inverse => (
            tables.phi_inv_powers_bitrev(),
            tables.phi_inv_powers_bitrev_shoup(),
        ),
    };
    let (n_inv, n_inv_shoup) = (tables.n_inv(), tables.n_inv_shoup());
    if q < shoup::HALF_MODULUS_LIMIT {
        simd::run_dir_half(
            dir,
            data,
            n,
            tw,
            tws,
            log_n,
            n_inv,
            n_inv_shoup,
            HalfMul { q, two_q },
        );
    } else {
        run_dir(
            dir,
            data,
            n,
            tw,
            tws,
            log_n,
            n_inv,
            n_inv_shoup,
            WideMul { q, two_q },
            Portable,
        );
    }
}

/// Forward merged negacyclic transform in place: natural-order input
/// (`< 2q`; canonical qualifies), **bit-reversed** lazy output `< 2q`.
///
/// The output is `NTT(φ ⊙ a)` with spectrum value `X[k]` stored at index
/// `rev(k)`; normalizing and permuting yields exactly
/// `NttMultiplier::forward`'s result.
///
/// # Panics
///
/// Panics if `data.len() != tables.degree()`.
pub fn forward_lazy_in_place(data: &mut [u64], tables: &NttTables) {
    dispatch(Dir::Forward, data, tables.degree(), tables);
}

/// Batch forward: every `n`-length block of `data` is one independent
/// natural-order input, transformed as in [`forward_lazy_in_place`] but
/// stage-outer across the whole batch (one twiddle walk per batch).
///
/// # Panics
///
/// Panics if `data.len()` is not a positive multiple of
/// `tables.degree()`.
pub fn forward_lazy_batch_in_place(data: &mut [u64], tables: &NttTables) {
    dispatch(Dir::Forward, data, tables.degree(), tables);
}

/// Inverse merged negacyclic transform in place: bit-reversed lazy input
/// (`< 2q`), natural-order **canonical** output — the full
/// `φ̄ ⊙ INTT(·)` with `n⁻¹` folded into the final fused pass.
///
/// # Panics
///
/// Panics if `data.len() != tables.degree()`.
pub fn inverse_in_place(data: &mut [u64], tables: &NttTables) {
    dispatch(Dir::Inverse, data, tables.degree(), tables);
}

/// Batch inverse: every `n`-length block is one independent bit-reversed
/// lazy spectrum, inverted as in [`inverse_in_place`], stage-outer.
///
/// # Panics
///
/// Panics if `data.len()` is not a positive multiple of
/// `tables.degree()`.
pub fn inverse_batch_in_place(data: &mut [u64], tables: &NttTables) {
    dispatch(Dir::Inverse, data, tables.degree(), tables);
}

/// Lazy pointwise product `out[i] = a[i]·b[i] mod q ∈ [0, 2q)` for lazy
/// operands (`< 2q`).
///
/// For `q < 2^31` this is a Barrett multiply with the precomputed
/// `µ = ⌊2^64/q⌋` — no `u128` remainder. Larger moduli fall back to
/// normalizing the operands and a `u128` widening multiply.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn pointwise_lazy(a: &[u64], b: &[u64], out: &mut [u64], q: u64) {
    assert!(
        a.len() == b.len() && a.len() == out.len(),
        "length mismatch"
    );
    if q < 1 << 31 {
        let mu = barrett::precompute_mu(q);
        for ((&x, &y), o) in a.iter().zip(b).zip(out.iter_mut()) {
            *o = barrett::mul_lazy_mu(x, y, mu, q);
        }
    } else {
        for ((&x, &y), o) in a.iter().zip(b).zip(out.iter_mut()) {
            let x = shoup::reduce_2q(x, q);
            let y = shoup::reduce_2q(y, q);
            *o = ((x as u128 * y as u128) % q as u128) as u64;
        }
    }
}

/// In-place variant of [`pointwise_lazy`]: `a[i] ← a[i]·b[i] mod q`,
/// lazy in and out. Saves the third buffer in multiply pipelines.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn pointwise_lazy_in_place(a: &mut [u64], b: &[u64], q: u64) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    if q < 1 << 31 {
        let mu = barrett::precompute_mu(q);
        for (x, &y) in a.iter_mut().zip(b) {
            *x = barrett::mul_lazy_mu(*x, y, mu, q);
        }
    } else {
        for (x, &y) in a.iter_mut().zip(b) {
            let xc = shoup::reduce_2q(*x, q);
            let yc = shoup::reduce_2q(y, q);
            *x = ((xc as u128 * yc as u128) % q as u128) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::zq;

    fn tables(n: usize, q: u64) -> NttTables {
        NttTables::for_degree_modulus(n, q).unwrap()
    }

    fn lcg(n: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % q
            })
            .collect()
    }

    /// The natural-order reference spectrum via the existing pipeline:
    /// `NTT(φ ⊙ a)`, canonical.
    fn reference_forward(a: &[u64], t: &NttTables) -> Vec<u64> {
        let q = t.modulus();
        let mut data: Vec<u64> = a
            .iter()
            .enumerate()
            .map(|(i, &c)| zq::mul(c, t.phi_powers()[i], q))
            .collect();
        crate::gs::forward(&mut data, t);
        data
    }

    #[test]
    fn merged_forward_matches_reference_spectrum() {
        for (n, q) in [
            (2usize, 7681u64),
            (4, 7681),
            (8, 7681),
            (16, 12289),
            (64, 12289),
            (256, 786433),
            (512, 786433),
        ] {
            let t = tables(n, q);
            let a = lcg(n, q, 42);
            let reference = reference_forward(&a, &t);

            let mut merged = a.clone();
            forward_lazy_in_place(&mut merged, &t);
            assert!(merged.iter().all(|&c| c < 2 * q), "lazy outputs < 2q");
            shoup::normalize_slice(&mut merged, q);
            bitrev::permute_in_place(&mut merged);
            assert_eq!(merged, reference, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn merged_forward_wide_path_matches_reference() {
        // A modulus above the half-width limit exercises WideMul.
        let n = 64usize;
        let mut q = (1u64 << 62) - ((1u64 << 62) - 1) % (2 * n as u64);
        while !modmath::primes::is_prime(q) {
            q -= 2 * n as u64;
        }
        assert!(q >= shoup::HALF_MODULUS_LIMIT);
        let t = tables(n, q);
        let a = lcg(n, q, 7);
        let reference = reference_forward(&a, &t);
        let mut merged = a.clone();
        forward_lazy_in_place(&mut merged, &t);
        shoup::normalize_slice(&mut merged, q);
        bitrev::permute_in_place(&mut merged);
        assert_eq!(merged, reference);
    }

    #[test]
    fn merged_inverse_undoes_merged_forward() {
        for (n, q) in [(4usize, 7681u64), (8, 7681), (64, 12289), (1024, 786433)] {
            let t = tables(n, q);
            let a = lcg(n, q, 5);
            let mut data = a.clone();
            forward_lazy_in_place(&mut data, &t);
            inverse_in_place(&mut data, &t);
            assert_eq!(data, a, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn merged_inverse_output_is_canonical() {
        let n = 256usize;
        let q = 786433u64;
        let t = tables(n, q);
        // Feed worst-case lazy inputs (just below 2q).
        let mut data: Vec<u64> = (0..n as u64).map(|i| 2 * q - 1 - (i % 7)).collect();
        inverse_in_place(&mut data, &t);
        assert!(data.iter().all(|&c| c < q), "canonical outputs");
    }

    #[test]
    fn batch_matches_sequential_transforms() {
        let n = 128usize;
        let q = 12289u64;
        let t = tables(n, q);
        for b in 1..=4usize {
            let flat: Vec<u64> = lcg(b * n, q, b as u64 + 1);
            let mut batch = flat.clone();
            forward_lazy_batch_in_place(&mut batch, &t);
            let mut seq = flat.clone();
            for poly in seq.chunks_exact_mut(n) {
                forward_lazy_in_place(poly, &t);
            }
            assert_eq!(batch, seq, "forward b = {b}");

            let mut batch_inv = batch.clone();
            inverse_batch_in_place(&mut batch_inv, &t);
            let mut seq_inv = seq.clone();
            for poly in seq_inv.chunks_exact_mut(n) {
                inverse_in_place(poly, &t);
            }
            assert_eq!(batch_inv, seq_inv, "inverse b = {b}");
            assert_eq!(batch_inv, flat, "roundtrip b = {b}");
        }
    }

    #[test]
    fn pointwise_lazy_matches_canonical() {
        let q = 786433u64;
        let a: Vec<u64> = (0..256u64).map(|i| (i * 1337) % (2 * q)).collect();
        let b: Vec<u64> = (0..256u64).map(|i| (i * 7331 + 5) % (2 * q)).collect();
        let mut out = vec![0u64; 256];
        pointwise_lazy(&a, &b, &mut out, q);
        for i in 0..256 {
            assert!(out[i] < 2 * q);
            assert_eq!(
                out[i] % q,
                ((a[i] as u128 * b[i] as u128) % q as u128) as u64
            );
        }
    }
}
