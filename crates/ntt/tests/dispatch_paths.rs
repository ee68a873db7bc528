//! Forced-dispatch suite for the half-width merged transforms.
//!
//! Each instruction-set path of `ntt::merged` (AVX-512, AVX2, portable)
//! is pinned in turn with `merged::with_path` and checked two ways:
//!
//! * word for word against the portable path, on the *lazy* `[0, 2q)`
//!   forward and inverse outputs (single and batched), so a SIMD kernel
//!   cannot hide a wrong-but-congruent word behind a later
//!   normalization;
//! * against the independent `schoolbook` oracle, on the canonical
//!   product of `NttMultiplier::multiply`.
//!
//! Moduli are drawn from every NTT-friendly prime `q < 2^30` (the
//! half-width range): a log-uniform floor followed by the next prime
//! `q ≡ 1 (mod 2n)`, so every such prime can be drawn and small ones
//! are not starved. The worst lazy bound, the largest such prime below
//! `2^30`, is pinned explicitly at every degree. Degrees 512 and 2048
//! have odd `log2 n` and so exercise the radix-2 lead stage.
//!
//! A path this CPU lacks is reported on stderr as `SKIPPED <path>`
//! (written past the test harness's output capture, so it shows in a
//! plain `cargo test` run).

use std::io::Write;

use modmath::primes::{find_ntt_prime, supports_negacyclic_ntt};
use modmath::roots::NttTables;
use modmath::shoup::HALF_MODULUS_LIMIT;
use ntt::merged::{self, KernelPath};
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use ntt::schoolbook;
use proptest::prelude::*;

/// Sampled degrees; 512 and 2048 have odd `log2 n`.
const DEGREES: [usize; 5] = [256, 512, 1024, 2048, 4096];

/// Runs `f` on `path`, or reports the skip and returns `None`.
fn on_path<R>(path: KernelPath, what: &str, f: impl FnOnce() -> R) -> Option<R> {
    let ran = merged::with_path(path, f);
    if ran.is_none() {
        let _ = writeln!(
            std::io::stderr(),
            "SKIPPED {} ({what}): this CPU lacks it",
            path.name()
        );
    }
    ran
}

/// The largest NTT-friendly prime below `2^30` for degree `n`: the
/// tightest lazy bound the half-width path admits.
fn worst_prime(n: usize) -> u64 {
    let step = 2 * n as u64;
    let mut q = (HALF_MODULUS_LIMIT - 1) / step * step + 1;
    while !supports_negacyclic_ntt(q, n) {
        q -= step;
    }
    q
}

/// The first NTT-friendly prime above a log-uniform floor below `2^30`,
/// falling back to [`worst_prime`] when the search runs past `2^30`.
fn sample_prime(n: usize, bits: u32, frac: u64) -> u64 {
    let floor = frac % (1u64 << bits);
    match find_ntt_prime(n, floor) {
        Some(q) if q < HALF_MODULUS_LIMIT => q,
        _ => worst_prime(n),
    }
}

fn words(n: usize, bound: u64, seed: u64) -> Vec<u64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s % bound
        })
        .collect()
}

/// Lazy forward and inverse outputs of `path`, single and batched (B = 3),
/// for lazy inputs drawn below `2q`.
fn lazy_outputs(path: KernelPath, t: &NttTables, seed: u64) -> Option<[Vec<u64>; 4]> {
    let (n, q) = (t.degree(), t.modulus());
    on_path(path, "lazy words", || {
        let mut fwd = words(n, 2 * q, seed);
        merged::forward_lazy_in_place(&mut fwd, t);
        let mut inv = words(n, 2 * q, seed ^ 0x5555);
        merged::inverse_in_place(&mut inv, t);
        let mut fwd_batch = words(3 * n, 2 * q, seed ^ 0xAAAA);
        merged::forward_lazy_batch_in_place(&mut fwd_batch, t);
        let mut inv_batch = words(3 * n, 2 * q, seed ^ 0xF0F0);
        merged::inverse_batch_in_place(&mut inv_batch, t);
        [fwd, inv, fwd_batch, inv_batch]
    })
}

fn check_lazy_words(path: KernelPath, n: usize, q: u64, seed: u64) {
    let t = NttTables::for_degree_modulus(n, q).unwrap();
    let want = lazy_outputs(KernelPath::Portable, &t, seed).unwrap();
    let Some(got) = lazy_outputs(path, &t, seed) else {
        return;
    };
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!(
            g.iter().all(|&x| x < 2 * q),
            "{} output {k} not lazy",
            path.name()
        );
        assert_eq!(g, w, "{} output {k}, n = {n}, q = {q}", path.name());
    }
}

fn check_schoolbook(path: KernelPath, n: usize, q: u64, seed: u64) {
    let m = NttMultiplier::for_degree_modulus(n, q).unwrap();
    let a = Polynomial::from_coeffs(words(n, q, seed), q).unwrap();
    let b = Polynomial::from_coeffs(words(n, q, !seed), q).unwrap();
    let want = schoolbook::multiply(&a, &b).unwrap();
    on_path(path, "schoolbook", || {
        assert_eq!(
            m.multiply(&a, &b).unwrap(),
            want,
            "{} product, n = {n}, q = {q}",
            path.name()
        );
    });
}

fn path_matches_portable(path: KernelPath) {
    if on_path(path, "word-for-word", || ()).is_none() {
        return;
    }
    for n in DEGREES {
        check_lazy_words(path, n, worst_prime(n), 1);
        check_lazy_words(path, n, find_ntt_prime(n, 0).unwrap(), 2);
    }
    // Every power-of-two degree, so each kernel's smallest admissible
    // size and the sizes just below it (portable fallback) are covered.
    for log_n in 1..=13 {
        let n = 1usize << log_n;
        check_lazy_words(path, n, worst_prime(n), 3);
    }
}

#[test]
fn avx512_path_matches_portable_word_for_word() {
    path_matches_portable(KernelPath::Avx512);
}

#[test]
fn avx2_path_matches_portable_word_for_word() {
    path_matches_portable(KernelPath::Avx2);
}

#[test]
fn every_path_matches_schoolbook_at_worst_lazy_bound() {
    for path in KernelPath::ALL {
        for n in DEGREES {
            check_schoolbook(path, n, worst_prime(n), n as u64);
        }
    }
}

#[test]
fn detected_path_is_supported_and_reported() {
    let detected = merged::detected_path();
    assert!(detected.is_supported());
    let ran: Vec<&str> = KernelPath::ALL
        .into_iter()
        .filter(|p| p.is_supported())
        .map(KernelPath::name)
        .collect();
    let skipped: Vec<&str> = KernelPath::ALL
        .into_iter()
        .filter(|p| !p.is_supported())
        .map(KernelPath::name)
        .collect();
    let _ = writeln!(
        std::io::stderr(),
        "merged dispatch: detected {}, ran [{}], skipped [{}]",
        detected.name(),
        ran.join(", "),
        skipped.join(", ")
    );
    assert!(KernelPath::Portable.is_supported());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_simd_paths_match_portable_lazy_words(
        deg in 0usize..5,
        bits in 1u32..31,
        frac in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let n = DEGREES[deg];
        let q = sample_prime(n, bits, frac);
        prop_assert!(q < HALF_MODULUS_LIMIT && supports_negacyclic_ntt(q, n));
        check_lazy_words(KernelPath::Avx512, n, q, seed);
        check_lazy_words(KernelPath::Avx2, n, q, seed);
    }

    #[test]
    fn prop_every_path_multiply_matches_schoolbook(
        deg in 0usize..5,
        bits in 1u32..31,
        frac in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let n = DEGREES[deg];
        let q = sample_prime(n, bits, frac);
        for path in KernelPath::ALL {
            check_schoolbook(path, n, q, seed);
        }
    }
}
