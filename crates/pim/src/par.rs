//! Deterministic job fan-out across a persistent worker pool.
//!
//! A CryptoPIM superbank packs many independent multiplications side by
//! side. The *simulator* exploits exactly that independence: each
//! batched job (or chunk of jobs) is a pure function of its inputs, so
//! jobs run on host threads in any order while the cycle and energy
//! accounting — which is data-oblivious (cycles depend only on the
//! datapath width, energy on cycles × active rows) — is replayed from
//! the plan. The result is a wall-clock speedup with **bit-identical**
//! products, tallies and traces.
//!
//! Execution runs on the lazily-initialized persistent pool in
//! [`crate::pool`]: the first parallel region spawns its workers, every
//! later region reuses them, so `Threads::Fixed(k)` no longer pays an OS
//! thread spawn per NTT stage (the pre-pool [`std::thread::scope`]
//! design did, tens of µs per scope). Still `std`-only — no external
//! thread-pool dependency — and a panicking worker propagates to the
//! caller instead of deadlocking. Worker counts come from [`Threads`],
//! which reads `CRYPTOPIM_THREADS` (or the machine's available
//! parallelism) unless a caller pins an explicit count.

use std::thread;

pub use crate::pool::pool_threads;

/// Environment variable overriding the auto-detected worker count.
pub const THREADS_ENV: &str = "CRYPTOPIM_THREADS";

/// Worker-count policy for parallel job execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// `CRYPTOPIM_THREADS` if set (and ≥ 1), else the machine's
    /// available parallelism.
    #[default]
    Auto,
    /// Exactly this many workers (clamped to ≥ 1). Used by the
    /// determinism tests and `--threads N`.
    Fixed(usize),
}

impl Threads {
    /// The worker count this policy asks for.
    pub fn resolve(self) -> usize {
        match self {
            Threads::Fixed(k) => k.max(1),
            Threads::Auto => std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&k| k >= 1)
                .unwrap_or_else(|| thread::available_parallelism().map_or(1, |p| p.get())),
        }
    }
}

/// Raw-pointer wrapper that lets disjoint chunk writers share one output
/// buffer across pool threads.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Core fan-out: writes `f(i)` into `out + i` for `i in 0..len`, split
/// into `workers` contiguous chunks (chunk 0 on the calling thread,
/// chunks 1.. on the persistent pool).
///
/// # Safety
///
/// `out` must be valid for writes of `len` elements, and the written
/// slots must be safe to overwrite with `ptr::write` (uninitialized, or
/// holding `Copy` values). On panic some slots may be left unwritten.
unsafe fn fill_indexed<T, F>(out: *mut T, len: usize, workers: usize, f: &F)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.min(len);
    let chunk = len.div_ceil(workers);
    let base = SendPtr(out);
    let base = &base;
    crate::pool::scope_run(workers, &move |w| {
        let start = w * chunk;
        let end = ((w + 1) * chunk).min(len);
        for i in start..end {
            // SAFETY: chunks are disjoint; every slot is written once.
            unsafe { base.0.add(i).write(f(i)) };
        }
    });
}

/// Maps `f` over a slice of independent jobs with `workers` pool
/// threads, returning results in input order.
///
/// The job range is split into `workers` contiguous chunks; chunk 0
/// runs on the calling thread while chunks 1.. run on pool workers, and
/// every chunk writes directly into its disjoint span of the output — so
/// the result is identical to the sequential map for any worker count.
/// `workers <= 1` short-circuits to a plain loop with zero dispatch.
///
/// # Panics
///
/// Propagates a panic from any worker (produced elements are leaked,
/// never double-dropped).
pub fn map_jobs<T, R, F>(jobs: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let len = jobs.len();
    if workers <= 1 || len <= 1 {
        return jobs.iter().map(f).collect();
    }
    let mut out: Vec<R> = Vec::with_capacity(len);
    // SAFETY: the buffer has capacity for `len` writes; on success every
    // slot is initialized before set_len; on panic set_len never runs.
    unsafe {
        fill_indexed(out.as_mut_ptr(), len, workers, &|i| f(&jobs[i]));
        out.set_len(len);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_jobs_matches_sequential_for_any_worker_count() {
        let jobs: Vec<u64> = (0..1000).collect();
        let reference: Vec<u64> = jobs.iter().map(|i| i * 17 + 3).collect();
        for workers in [1usize, 2, 3, 4, 7, 8, 16, 1000, 2000] {
            let got = map_jobs(&jobs, workers, |i| i * 17 + 3);
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn map_jobs_handles_tiny_and_empty_inputs() {
        assert_eq!(map_jobs(&[] as &[usize], 4, |&i| i), Vec::<usize>::new());
        assert_eq!(map_jobs(&[0usize], 4, |&i| i + 10), vec![10]);
        assert_eq!(map_jobs(&[0usize, 1, 2], 8, |&i| i), vec![0, 1, 2]);
    }

    #[test]
    fn map_jobs_preserves_input_order() {
        let jobs: Vec<String> = (0..57).map(|i| format!("job{i}")).collect();
        let out = map_jobs(&jobs, 4, |j| format!("{j}!"));
        let expect: Vec<String> = (0..57).map(|i| format!("job{i}!")).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn fixed_threads_resolve_clamped() {
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert_eq!(Threads::Fixed(6).resolve(), 6);
    }

    #[test]
    fn workers_beyond_len_are_harmless() {
        let jobs: Vec<usize> = (0..5).collect();
        let got = map_jobs(&jobs, 64, |&i| i * i);
        assert_eq!(got, vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn worker_panic_propagates() {
        let jobs: Vec<usize> = (0..100).collect();
        let result = std::panic::catch_unwind(|| {
            map_jobs(&jobs, 4, |&i| {
                assert!(i != 77, "deliberate worker panic");
                i
            })
        });
        assert!(result.is_err());
    }
}
