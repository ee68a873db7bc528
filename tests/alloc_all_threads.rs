//! Zero-allocation steady state across *every* thread of the process,
//! pool workers included.
//!
//! `alloc_steady_state.rs` counts only the measuring thread, which is
//! exact for its `Threads::Fixed(1)` paths but would miss a heap
//! operation inside a `pim::pool` worker. This binary holds a single
//! test, so while it measures the harness's main thread is parked
//! waiting for it and no other test thread exists. The pool is
//! quiesced first: a barrier region forces every worker the engine uses
//! to have started (a worker's first run allocates its thread state)
//! and to be parked again before the window opens.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{count_all_threads, CountingAlloc, HeapOps};
use cryptopim::engine::Engine;
use cryptopim::mapping::NttMapping;
use modmath::params::ParamSet;
use pim::par::{self, Threads};
use pim::reduce::ReductionStyle;
use std::sync::Barrier;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs one region of `workers` chunks that all meet at a barrier, so
/// each chunk must be on its own thread: every pool worker the engine
/// can use has started and finished a task before this returns.
fn quiesce_pool(workers: usize) {
    let barrier = Barrier::new(workers);
    let mut slots = vec![0u8; workers];
    par::map_indexed_into(&mut slots, workers, |_| {
        barrier.wait();
        0
    });
}

#[test]
fn pooled_engine_batch_is_allocation_free_on_every_thread() {
    let (n, batch, workers) = (1024usize, 4usize, 2usize);
    let params = ParamSet::for_degree(n).expect("paper degree");
    let mapping = NttMapping::new(&params, ReductionStyle::CryptoPim).expect("mapping");
    let engine = Engine::new(&mapping).with_threads(Threads::Fixed(workers));
    let fill = |seed: u64| -> Vec<u64> {
        let mut state = seed;
        (0..batch * n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) % params.q
            })
            .collect()
    };
    let (a, b) = (fill(1), fill(2));
    let mut out = Vec::new();
    for _ in 0..2 {
        engine
            .multiply_batch_into(&a, &b, &mut out)
            .expect("warm-up");
    }
    let reference = out.clone();
    quiesce_pool(workers);
    assert!(
        par::pool_threads() >= workers - 1,
        "the fan-out must have reached the pool"
    );

    let ops = count_all_threads(|| {
        for _ in 0..10 {
            engine
                .multiply_batch_into(&a, &b, &mut out)
                .expect("steady state");
        }
    });

    assert_eq!(out, reference, "products must stay correct");
    assert_eq!(
        ops,
        HeapOps {
            allocs: 0,
            deallocs: 0
        },
        "pooled batch multiply must not touch the heap on any thread"
    );
}
