//! Zero-allocation steady state: after warm-up, the engine's multiply
//! loop must not touch the heap at all.
//!
//! A counting `#[global_allocator]` (`support/counting_alloc.rs`) wraps
//! the system allocator; each test warms the plan cache, the
//! thread-local scratch pool, and the output vector's capacity, then
//! asserts that further multiplies perform zero allocations and zero
//! deallocations **on the measuring thread**. Every path here runs on
//! one thread (the engine is single-threaded; the accelerator below is
//! pinned to `Threads::Fixed(1)`), so the measuring thread does all of
//! the work;
//! heap traffic of the harness's own threads is not counted (it used to
//! be, and made these tests fail under CPU contention). The all-threads
//! check, which also catches pool workers, lives in
//! `alloc_all_threads.rs`, a binary of its own.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count_this_thread, CountingAlloc, HeapOps};
use cryptopim::accelerator::CryptoPim;
use cryptopim::batch::multiply_batch_outcomes;
use cryptopim::check::CheckPolicy;
use cryptopim::engine::Engine;
use cryptopim::hotcache::HotCache;
use cryptopim::mapping::NttMapping;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use pim::par::Threads;
use pim::reduce::ReductionStyle;
use std::sync::{Arc, Mutex};

/// The measured counters are shared by every flagged thread — each test
/// takes this lock so two measurement windows never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NO_HEAP: HeapOps = HeapOps {
    allocs: 0,
    deallocs: 0,
};

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

#[test]
fn steady_state_multiply_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A single multiply is the batch core at B = 1.
    assert_eq!(
        engine_batch_heap_ops(1024, 1),
        NO_HEAP,
        "steady-state multiply must not touch the heap"
    );
}

/// Warms up and then measures the engine's batch core
/// (`Engine::multiply_batch_cached`) on a batch of `batch` degree-`n`
/// jobs.
fn engine_batch_heap_ops(n: usize, batch: usize) -> HeapOps {
    let params = ParamSet::for_degree(n).expect("paper degree");
    let mapping = NttMapping::new(&params, ReductionStyle::CryptoPim).expect("mapping");
    let engine = Engine::new(&mapping);
    let a: Vec<u64> = (0..batch as u64)
        .flat_map(|j| rand_vec(n, params.q, 10 + j))
        .collect();
    let b: Vec<u64> = (0..batch as u64)
        .flat_map(|j| rand_vec(n, params.q, 20 + j))
        .collect();
    let mut out = Vec::new();

    // Warm-up: builds the cached plan, pools the scratch slab, and gives
    // `out` its capacity. Two rounds so the slab is checked out of the
    // pool (not freshly allocated) at least once before measuring.
    for _ in 0..2 {
        let trace = engine
            .multiply_batch_cached(&a, &b, &mut out, &[], None)
            .expect("warm-up");
        assert!(trace.total().cycles > 0);
    }
    let reference = out.clone();

    let ops = count_this_thread(|| {
        for _ in 0..10 {
            engine
                .multiply_batch_cached(&a, &b, &mut out, &[], None)
                .expect("steady state");
        }
    });
    assert_eq!(out, reference, "products must stay correct");
    ops
}

#[test]
fn engine_batch_fused_multiply_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The batch core at B = 4: one `StagePlan` walk over the pooled
    // `3·B·n` scratch slab per batch. After warm-up (plan cache,
    // slab pool, `out` capacity) a whole fused batch — products plus
    // the merged trace — performs zero heap operations.
    assert_eq!(
        engine_batch_heap_ops(1024, 4),
        NO_HEAP,
        "batch-fused engine multiply must not touch the heap"
    );
}

#[test]
fn engine_batch_at_4096_with_short_stride_kernels_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // n = 4096 runs every radix-4 distance the merged kernels have,
    // including the explicit distance-4 and distance-1 SIMD kernels on
    // hosts that have them: their twiddles come from the shared tables,
    // never from per-call buffers.
    assert_eq!(
        engine_batch_heap_ops(4096, 4),
        NO_HEAP,
        "batch engine multiply at n = 4096 must not touch the heap"
    );
}

#[test]
fn batch_fused_multiply_is_allocation_free() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The batch-fused referee path (`multiply_batch_into`) runs entirely
    // in caller buffers: once the multiplier and the three B·n slabs
    // exist, a whole batch of transforms touches the heap zero times.
    let n = 1024usize;
    let batch = 4usize;
    let params = ParamSet::for_degree(n).expect("paper degree");
    let q = params.q;
    let m = NttMultiplier::new(&params).expect("paper parameters");
    let fill = |buf: &mut [u64], seed: u64| {
        let mut state = seed;
        for c in buf.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *c = (state >> 16) % q;
        }
    };
    let mut a = vec![0u64; batch * n];
    let mut b = vec![0u64; batch * n];
    let mut out = vec![0u64; batch * n];
    fill(&mut a, 3);
    fill(&mut b, 4);
    let (a0, b0) = (a.clone(), b.clone());

    // Warm-up (also produces the reference products).
    m.multiply_batch_into(&mut a, &mut b, &mut out)
        .expect("warm-up");
    let reference = out.clone();

    let ops = count_this_thread(|| {
        for _ in 0..10 {
            a.copy_from_slice(&a0);
            b.copy_from_slice(&b0);
            m.multiply_batch_into(&mut a, &mut b, &mut out)
                .expect("steady state");
        }
    });

    assert_eq!(out, reference, "products must stay correct");
    assert_eq!(ops, NO_HEAP, "batch-fused multiply must not touch the heap");
}

#[test]
fn recompute_hot_cache_batch_heap_ops_are_bounded_per_job() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // One checked serving batch (`Recompute`, hot cache on, every `a`
    // operand fresh, so every lane misses and inserts) may allocate only
    // what it hands out or keeps, plus a few fixed per-batch vectors:
    //
    // * per job (c = 4): the product's coefficient vector, and the
    //   cache entry's coefficient copy, image vector and `Arc`;
    // * per batch (k = 7, one chunk at B = 4): the chunk list; the
    //   chunk's lookup, cached-slice, engine-output and outcome
    //   vectors; the list of chunk outcomes. That is six; a batch of
    //   several chunks also flattens its outcomes, the seventh
    //   (measured here: 22 allocations, 17 frees).
    //
    // Deallocations are bounded the same way: at capacity each insert
    // evicts one entry (three frees), and the per-batch vectors other
    // than the returned one are freed before returning. A per-batch
    // copy of the accelerator (tens of coefficient tables) would blow
    // both bounds.
    const PER_JOB: u64 = 4;
    const PER_BATCH: u64 = 7;
    let n = 1024usize;
    let batch = 4usize;
    let capacity = 64usize;
    let params = ParamSet::for_degree(n).expect("paper degree");
    let q = params.q;
    let hot = Arc::new(HotCache::new(capacity));
    let acc = CryptoPim::new(&params)
        .expect("paper parameters")
        .with_threads(Threads::Fixed(1))
        .with_check(CheckPolicy::Recompute)
        .with_hot_cache(Some(Arc::clone(&hot)));
    let reference = NttMultiplier::new(&params).expect("paper parameters");
    let poly = |seed: u64| Polynomial::from_coeffs(rand_vec(n, q, seed), q).expect("canonical");
    let batches: Vec<Vec<(Polynomial, Polynomial)>> = (0..capacity / batch + 8)
        .map(|k| {
            (0..batch)
                .map(|j| {
                    let seed = 1000 + 2 * (k * batch + j) as u64;
                    (poly(seed), poly(seed + 1))
                })
                .collect()
        })
        .collect();
    let (warm, measured) = batches.split_at(capacity / batch);

    // Warm-up fills the cache to capacity (plans, scratch pools and the
    // map's table are all built by then), so every measured insert also
    // evicts.
    for pairs in warm {
        for outcome in multiply_batch_outcomes(&acc, pairs).expect("warm-up") {
            outcome.expect("fault-free");
        }
    }
    assert_eq!(hot.len(), capacity);

    let bound = PER_JOB * batch as u64 + PER_BATCH;
    for pairs in measured {
        let mut outcomes = Vec::new();
        let ops = count_this_thread(|| {
            outcomes = multiply_batch_outcomes(&acc, pairs).expect("steady state");
        });
        for ((a, b), outcome) in pairs.iter().zip(outcomes) {
            let got = outcome.expect("fault-free");
            assert_eq!(got, reference.multiply(a, b).expect("reference"));
        }
        assert!(
            ops.allocs <= bound && ops.deallocs <= bound,
            "one Recompute batch of {batch} must stay within {PER_JOB}·B + {PER_BATCH} = \
             {bound} heap operations each way, got {ops:?}"
        );
    }
    assert_eq!(hot.hits(), 0, "fresh operands never hit");
}
