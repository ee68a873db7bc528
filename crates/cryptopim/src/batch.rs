//! Batched multiplication: the user-facing API over superbank packing
//! and pipeline streaming (§III-D).
//!
//! A 32k-provisioned chip processing degree-`n < 32k` polynomials has
//! idle banks; the architecture packs `32k/n` independent
//! multiplications side by side, and the pipeline streams jobs
//! back-to-back. [`multiply_batch`] exposes both: it computes every
//! product functionally and reports the batch's latency and effective
//! throughput from the occupancy simulation.
//!
//! Every multiply — a served batch or a single call — runs through one
//! core, `run_chunk`: a chunk of jobs, one fused engine pass, then the
//! configured check. Chunks of a batch fan out over the persistent
//! worker pool (`pim::par`); each chunk's engine runs single-threaded
//! and reuses its thread's scratch slabs, so a long batch settles into
//! the same zero-allocation steady state as a single-engine loop.

use crate::accelerator::CryptoPim;
use crate::arch::ArchConfig;
use crate::check::{self, CheckPolicy};
use crate::engine::EngineTrace;
use crate::hotcache::{HotCache, HotKey};
use crate::phase;
use crate::schedule::simulate_burst;
use crate::scratch::BatchScratch;
use crate::Result;
use ntt::negacyclic::NttMultiplier;
use ntt::poly::Polynomial;
use pim::par;
use pim::{PimError, CYCLE_TIME_NS};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

/// Outcome of a batched run.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// The products, in input order.
    pub products: Vec<Polynomial>,
    /// Wall-clock makespan of the batch on the hardware, µs.
    pub makespan_us: f64,
    /// Effective throughput of this batch (multiplications/s),
    /// including pipeline fill and packing.
    pub effective_throughput: f64,
    /// Independent multiplications running side by side.
    pub packed_lanes: usize,
}

/// Multiplies a batch of polynomial pairs on the accelerator.
///
/// Functionally every pair goes through the verified engine; timing
/// comes from the occupancy model — `⌈pairs / lanes⌉` pipeline beats
/// across `lanes` packed superbank slices.
///
/// # Errors
///
/// Propagates per-pair execution failures; [`PimError::EmptyBatch`]
/// when the batch holds zero jobs.
pub fn multiply_batch(acc: &CryptoPim, pairs: &[(Polynomial, Polynomial)]) -> Result<BatchReport> {
    let products = multiply_batch_products(acc, pairs)?;
    let arch = ArchConfig::for_degree(acc.params().n, acc.model(), acc.organization())?;
    let lanes = arch.parallel_multiplications.max(1);
    let jobs_per_lane = pairs.len().div_ceil(lanes);
    let burst = simulate_burst(acc.model(), acc.organization(), jobs_per_lane);
    let makespan_us = burst.makespan_cycles as f64 * CYCLE_TIME_NS / 1000.0 * arch.passes as f64;
    Ok(BatchReport {
        products,
        makespan_us,
        effective_throughput: pairs.len() as f64 / (makespan_us / 1e6),
        packed_lanes: lanes,
    })
}

/// Multiplies a batch of pairs, returning only the products in input
/// order — the serving hot path.
///
/// The analytic burst timing of [`multiply_batch`] (a discrete-event
/// walk of the pipeline occupancy model, tens of µs per call) is
/// skipped: a live service measures batch wall-clock itself, and under
/// low occupancy that fixed cost would be paid for every one- or
/// two-job batch.
///
/// # Errors
///
/// Same as [`multiply_batch`].
pub fn multiply_batch_products(
    acc: &CryptoPim,
    pairs: &[(Polynomial, Polynomial)],
) -> Result<Vec<Polynomial>> {
    multiply_batch_outcomes(acc, pairs)?.into_iter().collect()
}

/// Multiplies a batch of pairs, returning a **per-job** outcome in
/// input order — the fault-aware serving path.
///
/// Where [`multiply_batch_products`] fails the whole batch on the first
/// error, this variant isolates each job's result: a job of the wrong
/// degree fails alone with [`PimError::LengthMismatch`], and under an
/// armed fault injector with a [`CheckPolicy`] one corrupted lane
/// surfaces as that job's [`PimError::CorruptResult`] while its
/// batch-mates still return their (verified) products. The serving
/// layer retries exactly the failed jobs instead of re-running the
/// whole batch.
///
/// The batch is split into chunks of at most 16 jobs, one chunk per
/// worker of [`CryptoPim::with_threads`]; every chunk is one fused
/// engine pass plus its check, and the chunks run side by side on the
/// persistent pool. Outcomes do not depend on the worker count.
///
/// # Errors
///
/// [`PimError::EmptyBatch`] for a zero-job batch; per-job failures are
/// inside the vector, never an outer error.
pub fn multiply_batch_outcomes(
    acc: &CryptoPim,
    pairs: &[(Polynomial, Polynomial)],
) -> Result<Vec<Result<Polynomial>>> {
    if pairs.is_empty() {
        return Err(PimError::EmptyBatch);
    }
    let workers = acc.threads().resolve().min(pairs.len());
    let chunk_len = pairs.len().div_ceil(workers).min(MAX_FUSED_JOBS);
    let chunks: Vec<&[(Polynomial, Polynomial)]> = pairs.chunks(chunk_len).collect();
    let mut outcomes = par::map_jobs(&chunks, workers, |chunk| run_chunk(acc, chunk).0);
    if outcomes.len() == 1 {
        return Ok(outcomes.pop().expect("one chunk"));
    }
    Ok(outcomes.into_iter().flatten().collect())
}

/// Jobs fused into one chunk. Twiddle-walk amortization saturates
/// after a handful of polynomials, while scratch grows as `3·B·n` words
/// — this caps the memory at a size that stays cache-friendly for every
/// paper degree.
const MAX_FUSED_JOBS: usize = 16;

/// The one multiply core: runs a chunk of jobs through one fused engine
/// pass and the configured check, returning per-job outcomes in input
/// order and the chunk's [`EngineTrace`]. A single multiply is a chunk
/// of one ([`CryptoPim::multiply_product`]).
///
/// Jobs of the wrong degree fail alone with
/// [`PimError::LengthMismatch`]; the others run together as one chunk.
pub(crate) fn run_chunk<P: Borrow<Polynomial>>(
    acc: &CryptoPim,
    chunk: &[(P, P)],
) -> (Vec<Result<Polynomial>>, EngineTrace) {
    let n = acc.params().n;
    let fits = |(a, b): &(P, P)| a.borrow().degree_bound() == n && b.borrow().degree_bound() == n;
    if chunk.iter().all(fits) {
        return run_lanes(acc, chunk);
    }
    let lanes: Vec<(&Polynomial, &Polynomial)> = chunk
        .iter()
        .filter(|pair| fits(pair))
        .map(|(a, b)| (a.borrow(), b.borrow()))
        .collect();
    let (done, trace) = if lanes.is_empty() {
        (Vec::new(), EngineTrace::default())
    } else {
        run_lanes(acc, &lanes)
    };
    let mut done = done.into_iter();
    let outcomes = chunk
        .iter()
        .map(|pair| {
            if fits(pair) {
                done.next().expect("one outcome per lane")
            } else {
                Err(PimError::LengthMismatch {
                    left: pair.0.borrow().degree_bound(),
                    right: pair.1.borrow().degree_bound(),
                })
            }
        })
        .collect();
    (outcomes, trace)
}

/// [`run_chunk`] for a chunk whose jobs all have the accelerator's
/// degree: the hot-cache lookup (one hash per operand), one fused engine
/// pass, then the policy step — nothing for [`CheckPolicy::Disabled`],
/// a per-lane residue check for [`CheckPolicy::Residue`], the referee
/// pass plus a bit-for-bit compare for [`CheckPolicy::Recompute`].
///
/// Cache soundness: engine captures are inserted only when there is no
/// referee and no armed write path — a faulted engine image must never
/// become the trusted copy both datapaths reuse. With a referee its own
/// forward spectra (computed in host memory, outside any fault path)
/// populate the cache instead.
fn run_lanes<P: Borrow<Polynomial>>(
    acc: &CryptoPim,
    chunk: &[(P, P)],
) -> (Vec<Result<Polynomial>>, EngineTrace) {
    let n = acc.params().n;
    let q = acc.params().q;
    let hot = acc.hot_cache();
    let referee = acc.referee();
    let images = lookup_images(hot, n, q, chunk);
    let cached = cached_slices(&images, chunk.len());
    let any_miss = hot.is_some() && cached.iter().any(Option::is_none);
    let mut capture = (any_miss && referee.is_none() && !acc.faults_armed()).then(Vec::new);
    let mut out = Vec::new();
    let engine_run = {
        let mut inputs = BatchScratch::checkout(n, chunk.len());
        let (fa, fb, _) = inputs.buffers();
        for (i, (a, b)) in chunk.iter().enumerate() {
            fa[i * n..(i + 1) * n].copy_from_slice(a.borrow().coeffs());
            fb[i * n..(i + 1) * n].copy_from_slice(b.borrow().coeffs());
        }
        let engine_start = Instant::now();
        let run = acc
            .engine()
            .multiply_batch_cached(fa, fb, &mut out, &cached, capture.as_mut());
        phase::record_engine(engine_start.elapsed());
        run
    };
    let trace = match engine_run {
        Ok(trace) => trace,
        Err(e) => {
            let failed = chunk.iter().map(|_| Err(e.clone())).collect();
            return (failed, EngineTrace::default());
        }
    };
    if let (Some(h), Some(cap)) = (hot, &capture) {
        for (i, (a, _)) in chunk.iter().enumerate() {
            if let Err(key) = images[i] {
                h.insert(key, a.borrow().coeffs(), &cap[i * n..(i + 1) * n]);
            }
        }
    }
    let product = |i: usize| {
        Polynomial::from_canonical_coeffs(out[i * n..(i + 1) * n].to_vec(), q).map_err(Into::into)
    };
    let outcomes = match (acc.check_policy(), referee) {
        (CheckPolicy::Recompute, Some(referee)) => {
            referee_outcomes(acc, referee, chunk, &images, &cached, &out)
        }
        (CheckPolicy::Residue { points, seed }, _) => chunk
            .iter()
            .enumerate()
            .map(|(i, (a, b))| {
                let compare_start = Instant::now();
                let verdict = check::verify_product(
                    acc.mapping(),
                    a.borrow().coeffs(),
                    b.borrow().coeffs(),
                    &out[i * n..(i + 1) * n],
                    points,
                    seed,
                );
                phase::record_check(0, 0, compare_start.elapsed().as_nanos() as u64);
                match verdict {
                    Ok(()) => product(i),
                    Err((failed, checked)) => {
                        Err(PimError::CorruptResult(acc.fault_report(failed, checked)))
                    }
                }
            })
            .collect(),
        _ => (0..chunk.len()).map(product).collect(),
    };
    (outcomes, trace)
}

/// Looks up every lane's `a` operand in the hot cache (empty without
/// one): `Ok` holds a hit's image, `Err` the miss's key, so each operand
/// is hashed once per chunk.
fn lookup_images<P: Borrow<Polynomial>>(
    hot: Option<&Arc<HotCache>>,
    n: usize,
    q: u64,
    chunk: &[(P, P)],
) -> Vec<std::result::Result<Arc<Vec<u64>>, HotKey>> {
    hot.map_or_else(Vec::new, |h| {
        chunk
            .iter()
            .map(|(a, _)| h.lookup(n, q, a.borrow().coeffs()))
            .collect()
    })
}

/// The per-lane `cached` argument of `Engine::multiply_batch_cached`:
/// hit images as slices, `None` for misses (all `None` without a cache).
fn cached_slices(
    images: &[std::result::Result<Arc<Vec<u64>>, HotKey>],
    lanes: usize,
) -> Vec<Option<&[u64]>> {
    if images.is_empty() {
        vec![None; lanes]
    } else {
        images
            .iter()
            .map(|img| img.as_ref().ok().map(|v| v.as_slice()))
            .collect()
    }
}

/// The [`CheckPolicy::Recompute`] step of [`run_lanes`]: the software
/// referee re-derives the whole chunk in one batch-fused pass and every
/// engine product `out` is compared with it bit for bit. A corrupt lane
/// fails alone with [`PimError::CorruptResult`] while its batch-mates
/// return verified products.
///
/// Hit lanes splice the content-verified cached spectrum and still
/// recompute the full product, so a corrupt engine lane through the
/// cached path is still caught. Miss lanes are forward-transformed in
/// contiguous runs (so hits genuinely skip work), and their spectra —
/// trusted even under armed faults — populate the cache.
fn referee_outcomes<P: Borrow<Polynomial>>(
    acc: &CryptoPim,
    referee: &NttMultiplier,
    chunk: &[(P, P)],
    images: &[std::result::Result<Arc<Vec<u64>>, HotKey>],
    cached: &[Option<&[u64]>],
    out: &[u64],
) -> Vec<Result<Polynomial>> {
    let n = acc.params().n;
    let q = acc.params().q;
    let fail_all = |e: modmath::Error| -> Vec<Result<Polynomial>> {
        chunk.iter().map(|_| Err(e.clone().into())).collect()
    };
    let mut scratch = BatchScratch::checkout(n, chunk.len());
    let (fa, fb, _) = scratch.buffers();
    let forward_start = Instant::now();
    for (i, (a, b)) in chunk.iter().enumerate() {
        fb[i * n..(i + 1) * n].copy_from_slice(b.borrow().coeffs());
        // The cached image is already the merged-layout spectrum, and
        // canonical values are valid `< 2q` lazy inputs.
        fa[i * n..(i + 1) * n].copy_from_slice(cached[i].unwrap_or(a.borrow().coeffs()));
    }
    let forward = (|| {
        let mut i = 0;
        while i < chunk.len() {
            if cached[i].is_some() {
                i += 1;
                continue;
            }
            let start = i;
            while i < chunk.len() && cached[i].is_none() {
                i += 1;
            }
            referee.forward_batch(&mut fa[start * n..i * n])?;
        }
        referee.forward_batch(fb)
    })();
    if let Err(e) = forward {
        return fail_all(e);
    }
    let forward_ns = forward_start.elapsed().as_nanos() as u64;
    if let Some(h) = acc.hot_cache() {
        // Normalized in place to the canonical image form (still valid
        // lazy input for the point-wise pass).
        for (i, (a, _)) in chunk.iter().enumerate() {
            if let Err(key) = images[i] {
                let lane = &mut fa[i * n..(i + 1) * n];
                for v in lane.iter_mut() {
                    *v -= q * u64::from(*v >= q);
                }
                h.insert(key, a.borrow().coeffs(), lane);
            }
        }
    }
    let pointwise_start = Instant::now();
    if let Err(e) = referee.pointwise_batch(fa, fb) {
        return fail_all(e);
    }
    let pointwise_ns = pointwise_start.elapsed().as_nanos() as u64;
    let inverse_start = Instant::now();
    if let Err(e) = referee.inverse_batch(fa) {
        return fail_all(e);
    }
    let transform_ns = forward_ns + inverse_start.elapsed().as_nanos() as u64;
    let compare_start = Instant::now();
    let outcomes = (0..chunk.len())
        .map(|i| {
            let got = &out[i * n..(i + 1) * n];
            let want = &fa[i * n..(i + 1) * n];
            if got == want {
                Polynomial::from_canonical_coeffs(got.to_vec(), q).map_err(Into::into)
            } else {
                let failed = got.iter().zip(want).filter(|(g, w)| g != w).count();
                Err(PimError::CorruptResult(
                    acc.fault_report(failed as u32, n as u32),
                ))
            }
        })
        .collect();
    phase::record_check(
        transform_ns,
        pointwise_ns,
        compare_start.elapsed().as_nanos() as u64,
    );
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use modmath::params::ParamSet;
    use ntt::negacyclic::PolyMultiplier;
    use pim::par::Threads;

    fn pairs(n: usize, q: u64, count: usize) -> Vec<(Polynomial, Polynomial)> {
        (0..count)
            .map(|k| {
                let a = Polynomial::from_coeffs(
                    (0..n as u64).map(|i| (i * 3 + k as u64) % q).collect(),
                    q,
                )
                .unwrap();
                let b = Polynomial::from_coeffs(
                    (0..n as u64)
                        .map(|i| (i * 7 + 2 * k as u64 + 1) % q)
                        .collect(),
                    q,
                )
                .unwrap();
                (a, b)
            })
            .collect()
    }

    #[test]
    fn batch_products_match_reference() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let sw = NttMultiplier::new(&p).unwrap();
        let batch = pairs(256, p.q, 5);
        let report = multiply_batch(&acc, &batch).unwrap();
        assert_eq!(report.products.len(), 5);
        for (i, (a, b)) in batch.iter().enumerate() {
            assert_eq!(report.products[i], sw.multiply(a, b).unwrap(), "pair {i}");
        }
    }

    #[test]
    fn packing_boosts_small_degree_batches() {
        // 64 packed lanes at n = 512: a 256-pair batch needs only four
        // pipeline beats per lane, beating even the *steady-state*
        // single-lane throughput severalfold (and a single-lane burst by
        // far more, since that would also pay fill once per 256 jobs).
        let p = ParamSet::for_degree(512).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let single_steady = acc.report().unwrap().pipelined.throughput;
        let report = multiply_batch(&acc, &pairs(512, p.q, 256)).unwrap();
        assert_eq!(report.packed_lanes, 64);
        assert!(
            report.effective_throughput > 5.0 * single_steady,
            "packed {} vs single-lane steady {}",
            report.effective_throughput,
            single_steady
        );
    }

    #[test]
    fn large_degree_has_one_lane() {
        let p = ParamSet::for_degree(32768).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let report = multiply_batch(&acc, &pairs(32768, p.q, 2)).unwrap();
        assert_eq!(report.packed_lanes, 1);
        assert_eq!(report.products.len(), 2);
    }

    #[test]
    fn parallel_batch_matches_sequential_batch() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = pairs(256, p.q, 9);
        let seq = multiply_batch(
            &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
            &batch,
        )
        .unwrap();
        for workers in [2usize, 4, 8] {
            let par = multiply_batch(
                &CryptoPim::new(&p)
                    .unwrap()
                    .with_threads(Threads::Fixed(workers)),
                &batch,
            )
            .unwrap();
            assert_eq!(par, seq, "workers = {workers}");
        }
    }

    /// Mixed degrees never come from the scheduler, but a direct
    /// caller's wrong-degree job must fail alone with the length error
    /// while every other job returns the reference product — on one
    /// chunk and on two chunks side by side.
    fn assert_wrong_degree_job_fails_alone(policy: CheckPolicy) {
        let p = ParamSet::for_degree(256).unwrap();
        let sw = NttMultiplier::new(&p).unwrap();
        let mut batch = pairs(256, p.q, 5);
        let short = pairs(128, p.q, 1).remove(0);
        batch[1].0 = short.0.clone();
        batch[3].1 = short.1;
        for workers in [1usize, 2] {
            let acc = CryptoPim::new(&p)
                .unwrap()
                .with_threads(Threads::Fixed(workers))
                .with_check(policy);
            let outcomes = multiply_batch_outcomes(&acc, &batch).unwrap();
            assert_eq!(outcomes.len(), batch.len());
            for (i, ((a, b), outcome)) in batch.iter().zip(&outcomes).enumerate() {
                if i == 1 || i == 3 {
                    assert!(
                        matches!(
                            outcome,
                            Err(PimError::LengthMismatch { left, right })
                                if (*left, *right) == (a.degree_bound(), b.degree_bound())
                        ),
                        "workers = {workers}, job {i}: {outcome:?}"
                    );
                } else {
                    assert_eq!(
                        outcome.as_ref().unwrap(),
                        &sw.multiply(a, b).unwrap(),
                        "workers = {workers}, job {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_degree_job_fails_alone_unchecked() {
        assert_wrong_degree_job_fails_alone(CheckPolicy::Disabled);
    }

    #[test]
    fn wrong_degree_job_fails_alone_residue_checked() {
        assert_wrong_degree_job_fails_alone(CheckPolicy::residue(4, 9));
    }

    #[test]
    fn wrong_degree_job_fails_alone_recompute_checked() {
        assert_wrong_degree_job_fails_alone(CheckPolicy::Recompute);
    }

    #[test]
    fn empty_batch_errors() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        assert!(matches!(
            multiply_batch(&acc, &[]),
            Err(PimError::EmptyBatch)
        ));
        assert!(matches!(
            multiply_batch_products(&acc, &[]),
            Err(PimError::EmptyBatch)
        ));
    }

    #[test]
    fn products_only_path_matches_full_report() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let batch = pairs(256, p.q, 7);
        let report = multiply_batch(&acc, &batch).unwrap();
        let products = multiply_batch_products(&acc, &batch).unwrap();
        assert_eq!(products, report.products);
    }

    #[test]
    fn recompute_batch_fused_referee_matches_unchecked_products() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = pairs(256, p.q, 9);
        let want = multiply_batch_products(&CryptoPim::new(&p).unwrap(), &batch).unwrap();
        for workers in [1usize, 2, 4] {
            let acc = CryptoPim::new(&p)
                .unwrap()
                .with_threads(Threads::Fixed(workers))
                .with_check(CheckPolicy::Recompute);
            let got: Vec<Polynomial> = multiply_batch_outcomes(&acc, &batch)
                .unwrap()
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, want, "workers = {workers}");
        }
    }

    /// Corrupts pointwise-block row-0 stores during exactly one multiply
    /// (`begin_op` counts ops), so one batch lane goes bad.
    #[derive(Debug)]
    struct OneOpBitPath {
        block: u32,
        target_op: u32,
        op: std::sync::atomic::AtomicU32,
    }

    impl pim::fault::WritePath for OneOpBitPath {
        fn armed(&self) -> bool {
            true
        }
        fn begin_op(&self) {
            self.op.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
        fn store(&self, block: u32, row: u32, value: u64) -> u64 {
            let current = self.op.load(std::sync::atomic::Ordering::SeqCst);
            if current == self.target_op + 1 && block == self.block && row == 0 {
                value | (1 << 15)
            } else {
                value
            }
        }
        fn bank(&self) -> u32 {
            2
        }
        fn suspect_block(&self) -> Option<u32> {
            Some(self.block)
        }
    }

    #[test]
    fn recompute_batch_isolates_the_corrupt_lane() {
        use std::sync::Arc;
        let p = ParamSet::for_degree(256).unwrap();
        let batch = pairs(256, p.q, 5);
        let clean = multiply_batch_products(&CryptoPim::new(&p).unwrap(), &batch).unwrap();
        // Third job corrupted; q = 7681 < 2^13 so bit 15 always flips.
        let path = OneOpBitPath {
            block: pim::fault::layout::pointwise(8),
            target_op: 2,
            op: std::sync::atomic::AtomicU32::new(0),
        };
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_write_path(Some(Arc::new(path)))
            .with_check(CheckPolicy::Recompute);
        let outcomes = multiply_batch_outcomes(&acc, &batch).unwrap();
        assert_eq!(outcomes.len(), 5);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                match outcome {
                    Err(PimError::CorruptResult(report)) => {
                        assert_eq!(report.bank, 2);
                        assert!(report.failed_points >= 1);
                    }
                    other => panic!("lane 2 should fail, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.as_ref().unwrap(), &clean[i], "lane {i}");
            }
        }
    }

    /// Jobs sharing one hot `a` operand (the protocol key-reuse shape).
    fn hot_pairs(n: usize, q: u64, count: usize) -> Vec<(Polynomial, Polynomial)> {
        let base = pairs(n, q, count);
        let a0 = base[0].0.clone();
        base.into_iter().map(|(_, b)| (a0.clone(), b)).collect()
    }

    #[test]
    fn hot_cache_batch_is_bit_identical_and_hits() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 5);
        let want = multiply_batch_products(
            &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
            &batch,
        )
        .unwrap();
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_hot_cache(Some(Arc::clone(&hot)));
        // First pass: all lanes of the chunk are looked up before the
        // engine runs, so they miss together and the key is inserted.
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.hits(), 0);
        assert_eq!(hot.misses(), 5);
        assert_eq!(hot.len(), 1);
        // Second pass: every lane hits, products stay bit-identical.
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.hits(), 5);
    }

    #[test]
    fn hot_cache_recompute_batch_is_bit_identical_and_hits() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 5);
        let want = multiply_batch_products(
            &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
            &batch,
        )
        .unwrap();
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_check(CheckPolicy::Recompute)
            .with_hot_cache(Some(Arc::clone(&hot)));
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.len(), 1, "referee spectra populate the cache");
        assert_eq!(multiply_batch_products(&acc, &batch).unwrap(), want);
        assert_eq!(hot.hits(), 5);
    }

    #[test]
    fn referee_inserted_image_equals_unarmed_engine_capture() {
        // The referee populates the cache from its own merged spectra;
        // the unchecked fused path inserts engine captures. Both must
        // hold the same image, word for word, as a direct unarmed engine
        // capture of the operand — one image form, whoever produced it.
        for n in [256usize, 1024] {
            let p = ParamSet::for_degree(n).unwrap();
            let batch = pairs(n, p.q, 3);
            let referee_cache = Arc::new(crate::hotcache::HotCache::new(8));
            let engine_cache = Arc::new(crate::hotcache::HotCache::new(8));
            let base = CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1));
            let checked = base
                .clone()
                .with_check(CheckPolicy::Recompute)
                .with_hot_cache(Some(Arc::clone(&referee_cache)));
            let unchecked = base.clone().with_hot_cache(Some(Arc::clone(&engine_cache)));
            multiply_batch_products(&checked, &batch).unwrap();
            multiply_batch_products(&unchecked, &batch).unwrap();
            for (i, (a, b)) in batch.iter().enumerate() {
                let mut out = Vec::new();
                let mut capture = Vec::new();
                base.engine()
                    .multiply_batch_cached(
                        a.coeffs(),
                        b.coeffs(),
                        &mut out,
                        &[],
                        Some(&mut capture),
                    )
                    .unwrap();
                let from_referee = referee_cache.lookup(n, p.q, a.coeffs()).unwrap();
                let from_engine = engine_cache.lookup(n, p.q, a.coeffs()).unwrap();
                assert_eq!(*from_referee, capture, "referee image, n = {n}, lane {i}");
                assert_eq!(*from_engine, capture, "engine image, n = {n}, lane {i}");
            }
        }
    }

    #[test]
    fn recompute_catches_corrupt_lane_through_cached_path() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 5);
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        // Prime the cache through a clean recompute run.
        let clean_acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_check(CheckPolicy::Recompute)
            .with_hot_cache(Some(Arc::clone(&hot)));
        let clean: Vec<Polynomial> = multiply_batch_outcomes(&clean_acc, &batch)
            .unwrap()
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert!(!hot.is_empty());
        // Third op corrupted; every lane now takes the cached-hit engine
        // path, whose pointwise stores still route through the faulty
        // write path — the referee must reject exactly lane 2.
        let path = OneOpBitPath {
            block: pim::fault::layout::pointwise(8),
            target_op: 2,
            op: std::sync::atomic::AtomicU32::new(0),
        };
        let armed = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_write_path(Some(Arc::new(path)))
            .with_check(CheckPolicy::Recompute)
            .with_hot_cache(Some(Arc::clone(&hot)));
        let before_hits = hot.hits();
        let outcomes = multiply_batch_outcomes(&armed, &batch).unwrap();
        assert!(
            hot.hits() > before_hits,
            "armed run must exercise the cached path"
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                match outcome {
                    Err(PimError::CorruptResult(report)) => {
                        assert_eq!(report.bank, 2);
                        assert!(report.failed_points >= 1);
                    }
                    other => panic!("cached lane 2 should fail, got {other:?}"),
                }
            } else {
                assert_eq!(outcome.as_ref().unwrap(), &clean[i], "lane {i}");
            }
        }
    }

    #[test]
    fn armed_fused_batch_never_inserts_engine_captures() {
        let p = ParamSet::for_degree(256).unwrap();
        let batch = hot_pairs(256, p.q, 3);
        let hot = Arc::new(crate::hotcache::HotCache::new(8));
        // Unchecked armed run: the corrupted engine image must not
        // become a cache entry (it would poison every later hit).
        let path = OneOpBitPath {
            block: pim::fault::layout::pointwise(8),
            target_op: 0,
            op: std::sync::atomic::AtomicU32::new(0),
        };
        let armed = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_write_path(Some(Arc::new(path)))
            .with_hot_cache(Some(Arc::clone(&hot)));
        multiply_batch_products(&armed, &batch).unwrap();
        assert!(hot.is_empty(), "armed captures must never be inserted");
    }

    #[test]
    fn recompute_batch_records_phase_split() {
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p)
            .unwrap()
            .with_threads(Threads::Fixed(1))
            .with_check(CheckPolicy::Recompute);
        let before = phase::snapshot();
        multiply_batch_outcomes(&acc, &pairs(256, p.q, 4)).unwrap();
        let delta = phase::snapshot().since(&before);
        assert!(delta.engine_ns > 0, "engine phase must be recorded");
        assert!(
            delta.check_transform_ns > 0,
            "transform phase must be recorded"
        );
        assert!(
            delta.check_pointwise_ns > 0,
            "pointwise phase must be recorded"
        );
        assert!(delta.check_compare_ns > 0, "compare phase must be recorded");
    }

    #[test]
    fn makespan_grows_sublinearly_within_one_fill() {
        // Doubling the batch within the packed capacity costs far less
        // than double the makespan (pipeline streaming).
        let p = ParamSet::for_degree(512).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        let small = multiply_batch(&acc, &pairs(512, p.q, 8)).unwrap();
        let large = multiply_batch(&acc, &pairs(512, p.q, 64)).unwrap();
        assert!(large.makespan_us < small.makespan_us * 1.01);
    }

    /// Seeded hot batch (every job shares its `a`), batch width `count`.
    fn seeded_hot_pairs(
        n: usize,
        q: u64,
        count: usize,
        seed: u64,
    ) -> Vec<(Polynomial, Polynomial)> {
        let mut state = seed | 1;
        let mut draw = || -> Vec<u64> {
            (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (state >> 11) % q
                })
                .collect()
        };
        let a = Polynomial::from_coeffs(draw(), q).unwrap();
        (0..count)
            .map(|_| (a.clone(), Polynomial::from_coeffs(draw(), q).unwrap()))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Cache-hit and cache-miss serving must be bit-identical even
        /// under an armed fault plan: a primed (clean) cache entry never
        /// masks a corrupt result — the referee still isolates exactly
        /// the faulted lane, and every other lane matches the fault-free
        /// run whether its forward transform was cached or not.
        #[test]
        fn prop_cached_path_never_masks_faults(
            batch in 2usize..=6,
            target in 0usize..6,
            seed in 0u64..u64::MAX,
        ) {
            let target = target % batch;
            let p = ParamSet::for_degree(256).unwrap();
            let jobs = seeded_hot_pairs(256, p.q, batch, seed);
            let clean = multiply_batch_products(
                &CryptoPim::new(&p).unwrap().with_threads(Threads::Fixed(1)),
                &jobs,
            )
            .unwrap();
            let hot = Arc::new(crate::hotcache::HotCache::new(4));
            // Prime the cache from a clean recompute pass (referee
            // spectra), then serve the same batch with one op faulted.
            let prime = CryptoPim::new(&p)
                .unwrap()
                .with_threads(Threads::Fixed(1))
                .with_check(CheckPolicy::Recompute)
                .with_hot_cache(Some(Arc::clone(&hot)));
            multiply_batch_products(&prime, &jobs).unwrap();
            proptest::prop_assert!(!hot.is_empty());
            let path = OneOpBitPath {
                block: pim::fault::layout::pointwise(8),
                target_op: target as u32,
                op: std::sync::atomic::AtomicU32::new(0),
            };
            let armed = CryptoPim::new(&p)
                .unwrap()
                .with_threads(Threads::Fixed(1))
                .with_write_path(Some(Arc::new(path)))
                .with_check(CheckPolicy::Recompute)
                .with_hot_cache(Some(Arc::clone(&hot)));
            let before_hits = hot.hits();
            let outcomes = multiply_batch_outcomes(&armed, &jobs).unwrap();
            proptest::prop_assert!(hot.hits() > before_hits, "cached path exercised");
            for (i, outcome) in outcomes.iter().enumerate() {
                if i == target {
                    proptest::prop_assert!(
                        matches!(outcome, Err(PimError::CorruptResult(_))),
                        "faulted lane {} must be rejected, got {:?}",
                        i,
                        outcome
                    );
                } else {
                    proptest::prop_assert_eq!(
                        outcome.as_ref().unwrap(),
                        &clean[i],
                        "lane {} must match the fault-free product",
                        i
                    );
                }
            }
        }
    }
}
