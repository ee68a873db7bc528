//! Determinism regression: running a batch's chunks side by side on
//! host threads must be **bit-identical** to running them one after
//! another — same products, same per-job errors, same reports — for
//! every check policy, with and without a hot-operand cache, and for any
//! worker count.
//!
//! This is the contract that makes `--threads N` safe to default on:
//! the engine is single-threaded and every chunk of jobs is a pure
//! function of its inputs, so only wall-clock time depends on how the
//! chunks are spread across the persistent pool (see `pim::par` and
//! DESIGN.md §9). CI runs this suite under several `CRYPTOPIM_THREADS`
//! settings, which feed `Threads::Auto`.

use cryptopim::accelerator::CryptoPim;
use cryptopim::batch::{multiply_batch, multiply_batch_outcomes};
use cryptopim::check::CheckPolicy;
use cryptopim::hotcache::HotCache;
use modmath::params::ParamSet;
use ntt::poly::Polynomial;
use pim::par::Threads;
use std::sync::Arc;

/// The paper's (degree, modulus) pairs: 7681 (Table I row 1), 12289,
/// and 786433.
const PAPER_CASES: [(usize, u64); 3] = [(256, 7681), (1024, 12289), (4096, 786433)];

const POLICIES: [CheckPolicy; 3] = [
    CheckPolicy::Disabled,
    CheckPolicy::Residue { points: 4, seed: 7 },
    CheckPolicy::Recompute,
];

fn rand_vec(n: usize, q: u64, seed: u64) -> Vec<u64> {
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

/// `count` jobs of degree `n`; with `hot`, every third job reuses the
/// first job's `a` operand, so a hot cache sees hits and misses in the
/// same batch and across chunks.
fn jobs(n: usize, q: u64, count: u64, seed: u64, hot: bool) -> Vec<(Polynomial, Polynomial)> {
    let poly = |s: u64| Polynomial::from_coeffs(rand_vec(n, q, s), q).expect("canonical");
    (0..count)
        .map(|k| {
            let a_seed = if hot && k % 3 == 0 { seed } else { seed + k };
            (poly(a_seed), poly(seed + 1000 + k))
        })
        .collect()
}

fn accelerator(
    params: &ParamSet,
    threads: Threads,
    check: CheckPolicy,
    hot: Option<Arc<HotCache>>,
) -> CryptoPim {
    CryptoPim::new(params)
        .expect("paper parameters")
        .with_threads(threads)
        .with_check(check)
        .with_hot_cache(hot)
}

#[test]
fn auto_threads_match_pinned_sequential() {
    // Whatever Auto resolves to on this machine (including the
    // CRYPTOPIM_THREADS override), the chunk fan-out must reproduce the
    // one-worker run under every check policy, with and without a hot
    // cache — also on the second pass, when the cache is warm.
    for (n, q) in PAPER_CASES {
        let params = ParamSet::for_degree(n).expect("paper degree");
        assert_eq!(params.q, q, "paper modulus for n = {n}");
        for hot in [false, true] {
            let batch = jobs(n, q, 12, 0xC0FFEE ^ n as u64, hot);
            for check in POLICIES {
                let cache = || hot.then(|| Arc::new(HotCache::new(16)));
                let seq = accelerator(&params, Threads::Fixed(1), check, cache());
                let auto = accelerator(&params, Threads::Auto, check, cache());
                for pass in 0..2 {
                    let want = multiply_batch_outcomes(&seq, &batch).expect("sequential");
                    let got = multiply_batch_outcomes(&auto, &batch).expect("auto");
                    assert!(
                        want.iter().all(Result::is_ok),
                        "n = {n}, {check:?}: fault-free run must succeed"
                    );
                    assert_eq!(
                        got,
                        want,
                        "n = {n}, hot = {hot}, {check:?}, pass = {pass}, auto = {}",
                        Threads::Auto.resolve()
                    );
                }
            }
        }
    }
}

#[test]
fn fixed_worker_counts_match_pinned_sequential() {
    // Explicit worker counts, independent of the environment: 2, 4 and 8
    // workers split 12 jobs into 2, 4 and 6 chunks, and 11 jobs into
    // chunks of uneven size.
    let (n, q) = PAPER_CASES[0];
    let params = ParamSet::for_degree(n).expect("paper degree");
    for count in [11u64, 12] {
        for hot in [false, true] {
            let batch = jobs(n, q, count, 0xBEEF, hot);
            for check in POLICIES {
                let cache = || hot.then(|| Arc::new(HotCache::new(16)));
                let want = multiply_batch_outcomes(
                    &accelerator(&params, Threads::Fixed(1), check, cache()),
                    &batch,
                )
                .expect("sequential");
                for workers in [2usize, 4, 8] {
                    let par = accelerator(&params, Threads::Fixed(workers), check, cache());
                    let got = multiply_batch_outcomes(&par, &batch).expect("parallel");
                    assert_eq!(
                        got, want,
                        "jobs = {count}, hot = {hot}, {check:?}, workers = {workers}"
                    );
                }
            }
        }
    }
}

#[test]
fn persistent_pool_stays_deterministic_over_many_multiplies() {
    // 100 back-to-back batches per worker count, all through the
    // persistent pool: every one must be bit-identical to the one-worker
    // run, and the pool must not grow (regions reuse parked workers
    // instead of spawning).
    let (n, q) = PAPER_CASES[0];
    let params = ParamSet::for_degree(n).expect("paper degree");
    let seq = accelerator(&params, Threads::Fixed(1), CheckPolicy::Disabled, None);

    for workers in [2usize, 4, 8] {
        let par = accelerator(
            &params,
            Threads::Fixed(workers),
            CheckPolicy::Disabled,
            None,
        );
        // Prime the pool to its high-water mark for this worker count.
        multiply_batch_outcomes(&par, &jobs(n, q, 8, 0xA5, false)).expect("pool warm-up");
        let pool_before = pim::par::pool_threads();
        for round in 0..100u64 {
            let batch = jobs(n, q, 8, 0x5EED_0000 + 16 * round, false);
            let want = multiply_batch_outcomes(&seq, &batch).expect("sequential");
            let got = multiply_batch_outcomes(&par, &batch).expect("parallel");
            assert_eq!(got, want, "workers = {workers}, round = {round}");
        }
        assert_eq!(
            pim::par::pool_threads(),
            pool_before,
            "pool must reuse its workers, not spawn per batch (workers = {workers})"
        );
    }
}

#[test]
fn parallel_batch_report_is_identical() {
    let (n, q) = PAPER_CASES[0];
    let params = ParamSet::for_degree(n).expect("paper degree");
    let pairs: Vec<(Polynomial, Polynomial)> = (0..12u64)
        .map(|k| {
            (
                Polynomial::from_coeffs(rand_vec(n, q, 100 + k), q).expect("valid"),
                Polynomial::from_coeffs(rand_vec(n, q, 200 + k), q).expect("valid"),
            )
        })
        .collect();
    let seq = multiply_batch(
        &CryptoPim::new(&params)
            .expect("paper parameters")
            .with_threads(Threads::Fixed(1)),
        &pairs,
    )
    .expect("sequential batch");
    for workers in [2usize, 4, 8] {
        let par = multiply_batch(
            &CryptoPim::new(&params)
                .expect("paper parameters")
                .with_threads(Threads::Fixed(workers)),
            &pairs,
        )
        .expect("parallel batch");
        assert_eq!(par, seq, "workers = {workers}");
    }
}
