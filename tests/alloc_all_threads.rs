//! Steady-state heap traffic across *every* thread of the process, pool
//! workers included.
//!
//! `alloc_steady_state.rs` counts only the measuring thread, which is
//! exact for its one-thread paths but would miss a heap operation inside
//! a `pim::pool` worker. This binary holds a single test, so while it
//! measures the harness's main thread is parked waiting for it and no
//! other test thread exists. The pool is quiesced first: a barrier
//! region forces every worker the fan-out uses to have started (a
//! worker's first run allocates its thread state), warmed its scratch
//! slabs, and parked again before the window opens.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count_all_threads, CountingAlloc, HeapOps};
use cryptopim::accelerator::CryptoPim;
use cryptopim::batch::multiply_batch_outcomes;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use pim::par::{self, Threads};
use std::sync::Barrier;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs one region of `workers` jobs that all meet at a barrier, so each
/// job must be on its own thread, and then runs `warm` on that thread:
/// every pool worker the fan-out can use has started, run one chunk and
/// finished before this returns.
fn quiesce_pool(workers: usize, warm: impl Fn() + Sync) {
    let barrier = Barrier::new(workers);
    let slots = vec![(); workers];
    par::map_jobs(&slots, workers, |_| {
        barrier.wait();
        warm();
    });
}

#[test]
fn chunk_fan_out_heap_ops_are_exact_on_every_thread() {
    // Two workers split a batch of four unchecked jobs into two chunks
    // of two, one on the calling thread and one on a pool worker. After
    // warm-up (plans, both threads' scratch slabs, the pool's queue) a
    // batch allocates exactly what it hands out plus a fixed set of
    // vectors per chunk and per batch, on whichever threads run it:
    //
    // * per job (1): the product's coefficient vector;
    // * per chunk (3): the cached-slice, engine-output and outcome
    //   vectors;
    // * per batch (3): the chunk list, the list of chunk outcomes, and
    //   the flattened outcomes.
    //
    // Everything but the products and the flattened outcomes is freed
    // before the batch returns. A stray heap operation in a pool worker
    // (or anywhere else) breaks the equality.
    const PER_JOB: u64 = 1;
    const PER_CHUNK: u64 = 3;
    const PER_BATCH: u64 = 3;
    let (n, batch, workers) = (1024usize, 4usize, 2usize);
    let chunks = 2u64;
    let params = ParamSet::for_degree(n).expect("paper degree");
    let q = params.q;
    let acc = CryptoPim::new(&params)
        .expect("paper parameters")
        .with_threads(Threads::Fixed(workers));
    let poly = |seed: u64| {
        let mut state = seed;
        let coeffs = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % q
            })
            .collect();
        Polynomial::from_coeffs(coeffs, q).expect("canonical")
    };
    let pairs: Vec<(Polynomial, Polynomial)> = (0..batch as u64)
        .map(|j| (poly(10 + j), poly(20 + j)))
        .collect();
    let reference: Vec<Polynomial> = {
        let sw = NttMultiplier::new(&params).expect("paper parameters");
        pairs
            .iter()
            .map(|(a, b)| sw.multiply(a, b).expect("reference"))
            .collect()
    };
    for _ in 0..2 {
        multiply_batch_outcomes(&acc, &pairs).expect("warm-up");
    }
    let one_thread = acc.clone().with_threads(Threads::Fixed(1));
    quiesce_pool(workers, || {
        multiply_batch_outcomes(&one_thread, &pairs[..batch / 2]).expect("thread warm-up");
    });
    assert!(
        par::pool_threads() >= workers - 1,
        "the fan-out must have reached the pool"
    );

    let want = HeapOps {
        allocs: PER_JOB * batch as u64 + PER_CHUNK * chunks + PER_BATCH,
        deallocs: PER_CHUNK * chunks + PER_BATCH - 1,
    };
    for round in 0..10 {
        let mut outcomes = Vec::new();
        let ops = count_all_threads(|| {
            outcomes = multiply_batch_outcomes(&acc, &pairs).expect("steady state");
        });
        let products: Vec<Polynomial> = outcomes
            .into_iter()
            .map(|r| r.expect("fault-free"))
            .collect();
        assert_eq!(products, reference, "products must stay correct");
        assert_eq!(
            ops, want,
            "round {round}: a batch of {batch} on {workers} workers must make exactly \
             {PER_JOB}·B + {PER_CHUNK}·chunks + {PER_BATCH} allocations"
        );
    }
}
