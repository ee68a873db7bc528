//! Deterministic open- and closed-loop load generation against a
//! [`Service`], with bit-exact verification against the direct engine
//! path.
//!
//! The job stream is derived entirely from a seed (degrees drawn from a
//! configured mix, coefficients from the workspace's deterministic
//! `rand` shim), so two runs with the same seed submit identical work —
//! the wall-clock numbers vary with the host, the products never do.
//! [`run`] optionally replays the same jobs one-at-a-time through
//! [`CryptoPim::multiply_product`] to (a) verify every service product
//! bit-for-bit and (b) measure the serving layer's throughput win over
//! unbatched, unscheduled submission.

use crate::scheduler::{Service, ServiceConfig};
use crate::stats::ServiceStats;
use cryptopim::accelerator::CryptoPim;
use cryptopim::phase::{self, PhaseSnapshot};
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use ntt::poly::Polynomial;
use ntt::rns::RnsMultiplier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How jobs arrive at the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// `clients` threads each keep exactly one job outstanding
    /// (submit → wait → repeat): throughput-oriented, never overloads.
    Closed {
        /// Concurrent client threads.
        clients: usize,
    },
    /// One submitter paces jobs at a fixed arrival rate regardless of
    /// completions: latency/overload-oriented (pair with
    /// [`crate::Backpressure::Reject`] to measure shed load).
    Open {
        /// Target arrivals per second.
        rate_per_s: f64,
    },
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Seed for the deterministic job stream.
    pub seed: u64,
    /// Total jobs to generate.
    pub jobs: usize,
    /// Degree mix; each job draws uniformly from this set.
    pub degrees: Vec<usize>,
    /// When non-zero, every job's `a` operand is drawn from a pool of
    /// this many reused seeded keys (a protocol-shaped workload: many
    /// ciphertexts against few public/evaluation keys) instead of being
    /// freshly random. Pair with [`ServiceConfig::hot_capacity`] to
    /// exercise the hot-operand transform cache; `b` stays fresh per
    /// job either way.
    pub hot_keys: usize,
    /// Arrival process.
    pub mode: LoadMode,
    /// Service under test.
    pub service: ServiceConfig,
    /// Also run the direct one-at-a-time baseline and bit-compare every
    /// product against it.
    pub verify_direct: bool,
    /// Fraction of the job stream submitted as **wide** RNS-decomposed
    /// jobs (`0.0..=1.0`). Wide jobs multiply under the product of
    /// [`LoadgenConfig::wide_channels`] discovered NTT-friendly primes
    /// and flow through [`Service::submit_wide`], so their residue
    /// lanes batch alongside the narrow traffic. `0.0` disables the
    /// blend and preserves the legacy narrow-only stream byte-for-byte.
    pub wide: f64,
    /// Residue channels (`k`) for wide jobs; 2..=4.
    pub wide_channels: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            seed: 7,
            jobs: 256,
            degrees: vec![256, 512, 1024],
            hot_keys: 0,
            mode: LoadMode::Closed { clients: 4 },
            service: ServiceConfig::default(),
            verify_direct: true,
            wide: 0.0,
            wide_channels: 2,
        }
    }
}

/// Outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Jobs generated.
    pub jobs: usize,
    /// How many of them were wide (RNS-decomposed) jobs.
    pub wide_jobs: usize,
    /// Tickets that resolved to a product.
    pub ok: usize,
    /// Jobs refused at admission (Reject backpressure).
    pub rejected: usize,
    /// Tickets that resolved to an execution error.
    pub failed: usize,
    /// Service products that differed from the direct engine path
    /// (must be 0; checked only when `verify_direct`).
    pub mismatches: usize,
    /// Admitted jobs that never completed (must be 0 after drain).
    pub dropped: u64,
    /// Wall-clock of the service run, seconds.
    pub wall_s: f64,
    /// Completed multiplications per second through the service.
    pub throughput: f64,
    /// Wall-clock of the direct one-at-a-time baseline, seconds
    /// (0 when not measured).
    pub direct_wall_s: f64,
    /// Multiplications per second issuing jobs one-at-a-time through
    /// `CryptoPim::multiply_product` (0 when not measured).
    pub direct_throughput: f64,
    /// `throughput / direct_throughput` (0 when not measured).
    pub speedup: f64,
    /// Final service statistics (post-drain).
    pub stats: ServiceStats,
    /// Per-phase time accumulated inside the service measurement
    /// windows: simulated engine vs referee transform / pointwise /
    /// compare (all zero under `CheckPolicy::Disabled` except the
    /// engine).
    pub phase: PhaseSnapshot,
    /// The same split for the direct one-at-a-time baseline windows
    /// (zero when the baseline is not measured).
    pub direct_phase: PhaseSnapshot,
}

impl LoadgenReport {
    /// True when no product mismatched and no admitted job was dropped.
    pub fn is_clean(&self) -> bool {
        self.mismatches == 0 && self.dropped == 0 && self.failed == 0
    }
}

/// Generates the deterministic job stream for `(seed, jobs, degrees)`.
pub fn generate_jobs(seed: u64, jobs: usize, degrees: &[usize]) -> Vec<(Polynomial, Polynomial)> {
    assert!(!degrees.is_empty(), "need at least one degree");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..jobs)
        .map(|_| {
            let n = degrees[rng.gen_range(0..degrees.len())];
            let q = ParamSet::for_degree(n).expect("paper degree").q;
            let mut draw = || -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..q)).collect() };
            let (ca, cb) = (draw(), draw());
            let a = Polynomial::from_coeffs(ca, q).expect("in-range coeffs");
            let b = Polynomial::from_coeffs(cb, q).expect("in-range coeffs");
            (a, b)
        })
        .collect()
}

/// Generates a job stream whose `a` operands are drawn from a pool of
/// `hot_keys` reused seeded keys (each pool entry fixes its degree when
/// drawn); `b` is fresh per job. Deterministic in `(seed, jobs,
/// degrees, hot_keys)` like [`generate_jobs`].
pub fn generate_hot_jobs(
    seed: u64,
    jobs: usize,
    degrees: &[usize],
    hot_keys: usize,
) -> Vec<(Polynomial, Polynomial)> {
    assert!(!degrees.is_empty(), "need at least one degree");
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Polynomial> = (0..hot_keys.max(1))
        .map(|_| {
            let n = degrees[rng.gen_range(0..degrees.len())];
            let q = ParamSet::for_degree(n).expect("paper degree").q;
            let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            Polynomial::from_coeffs(coeffs, q).expect("in-range coeffs")
        })
        .collect();
    (0..jobs)
        .map(|_| {
            let a = pool[rng.gen_range(0..pool.len())].clone();
            let (n, q) = (a.degree_bound(), a.modulus());
            let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let b = Polynomial::from_coeffs(coeffs, q).expect("in-range coeffs");
            (a, b)
        })
        .collect()
}

/// One job of a mixed narrow/wide stream.
#[derive(Debug, Clone, PartialEq)]
pub enum GenJob {
    /// A single-modulus pair served by [`Service::submit`].
    Narrow(Polynomial, Polynomial),
    /// A wide-modulus pair served by [`Service::submit_wide`];
    /// coefficients are canonical residues modulo the run's
    /// [`RnsBasis::modulus`].
    Wide(Vec<u128>, Vec<u128>),
}

/// A resolved product of either stream half.
#[derive(Debug, Clone, PartialEq)]
enum ProductVal {
    Narrow(Polynomial),
    Wide(Vec<u128>),
}

/// Generates a mixed narrow/wide stream: each job first rolls whether
/// it is wide (probability `wide`, seeded), then draws its degree and
/// coefficients. Deterministic in every argument; `wide = 0.0` yields
/// exactly the legacy [`generate_jobs`] / [`generate_hot_jobs`] stream.
pub fn generate_mixed_jobs(
    seed: u64,
    jobs: usize,
    degrees: &[usize],
    hot_keys: usize,
    wide: f64,
    basis: &RnsBasis,
) -> Vec<GenJob> {
    if wide <= 0.0 {
        let narrow = if hot_keys > 0 {
            generate_hot_jobs(seed, jobs, degrees, hot_keys)
        } else {
            generate_jobs(seed, jobs, degrees)
        };
        return narrow
            .into_iter()
            .map(|(a, b)| GenJob::Narrow(a, b))
            .collect();
    }
    assert!(!degrees.is_empty(), "need at least one degree");
    let wide_permille = (wide.clamp(0.0, 1.0) * 1000.0).round() as u64;
    let q_wide = basis.modulus();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Polynomial> = (0..hot_keys)
        .map(|_| {
            let n = degrees[rng.gen_range(0..degrees.len())];
            let q = ParamSet::for_degree(n).expect("paper degree").q;
            let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            Polynomial::from_coeffs(coeffs, q).expect("in-range coeffs")
        })
        .collect();
    (0..jobs)
        .map(|_| {
            if rng.gen_range(0..1000u64) < wide_permille {
                let n = degrees[rng.gen_range(0..degrees.len())];
                let mut draw = |_: usize| -> Vec<u128> {
                    (0..n).map(|_| rng.gen::<u128>() % q_wide).collect()
                };
                GenJob::Wide(draw(0), draw(1))
            } else if !pool.is_empty() {
                let a = pool[rng.gen_range(0..pool.len())].clone();
                let (n, q) = (a.degree_bound(), a.modulus());
                let coeffs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
                GenJob::Narrow(a, Polynomial::from_coeffs(coeffs, q).expect("in-range"))
            } else {
                let n = degrees[rng.gen_range(0..degrees.len())];
                let q = ParamSet::for_degree(n).expect("paper degree").q;
                let mut draw = || -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..q)).collect() };
                let (ca, cb) = (draw(), draw());
                GenJob::Narrow(
                    Polynomial::from_coeffs(ca, q).expect("in-range"),
                    Polynomial::from_coeffs(cb, q).expect("in-range"),
                )
            }
        })
        .collect()
}

/// Chunks the stream is split into when racing the direct baseline:
/// service and direct alternate per chunk so slow host-speed drift
/// (frequency ramp, neighbour steal) lands evenly on both sides.
const MEASURE_CHUNKS: usize = 4;

/// Runs the load generator: submits the seeded job stream under the
/// configured arrival process, drains the service, and (optionally)
/// verifies and races the direct path.
///
/// When the direct baseline is enabled the two sides are measured as
/// alternating chunks over the same stream — a service chunk, then the
/// identical chunk one-at-a-time — rather than as two back-to-back
/// phases, so neither side systematically collects the warmer half of
/// the run.
pub fn run(config: &LoadgenConfig) -> LoadgenReport {
    let basis = if config.wide > 0.0 {
        // One basis serves every degree in the mix: primes found
        // NTT-friendly at the largest degree satisfy `2n | q - 1` at
        // every smaller power of two too.
        let n_max = config.degrees.iter().copied().max().expect("degrees");
        RnsBasis::discover(n_max, config.wide_channels, 1 << 20).expect("discoverable basis")
    } else {
        RnsBasis::new(&[7681, 12289]).expect("static basis")
    };
    let jobs = generate_mixed_jobs(
        config.seed,
        config.jobs,
        &config.degrees,
        config.hot_keys,
        config.wide,
        &basis,
    );
    let wide_jobs = jobs
        .iter()
        .filter(|j| matches!(j, GenJob::Wide(..)))
        .count();
    let service = Service::start(config.service.clone());
    let mut results: Vec<Option<Result<ProductVal, ()>>> = vec![None; jobs.len()];
    let mut rejected = 0usize;

    let serve_one = |job: &GenJob| -> Option<Result<ProductVal, ()>> {
        match job {
            GenJob::Narrow(a, b) => match service.submit(a.clone(), b.clone()) {
                Ok(ticket) => Some(match ticket.wait() {
                    Ok(done) => Ok(ProductVal::Narrow(done.product)),
                    Err(_) => Err(()),
                }),
                Err(_) => None,
            },
            GenJob::Wide(a, b) => match service.submit_wide(a, b, &basis) {
                Ok(ticket) => Some(match ticket.wait() {
                    Ok(done) => Ok(ProductVal::Wide(done.product)),
                    Err(_) => Err(()),
                }),
                Err(_) => None,
            },
        }
    };

    let mut serve_slice = |lo: usize, hi: usize| match config.mode {
        LoadMode::Closed { clients } => {
            let outcomes = closed_loop(&jobs[lo..hi], clients, serve_one);
            for (slot, outcome) in results[lo..hi].iter_mut().zip(outcomes) {
                rejected += usize::from(outcome.is_none());
                *slot = outcome;
            }
        }
        LoadMode::Open { rate_per_s } => {
            let interval = Duration::from_secs_f64(1.0 / rate_per_s.max(1e-3));
            let slice_start = Instant::now();
            enum Pending {
                Narrow(crate::scheduler::JobTicket),
                Wide(crate::scheduler::WideTicket),
            }
            let mut tickets = Vec::with_capacity(hi - lo);
            for (j, job) in jobs[lo..hi].iter().enumerate() {
                let target = slice_start + interval * j as u32;
                if let Some(sleep) = target.checked_duration_since(Instant::now()) {
                    std::thread::sleep(sleep);
                }
                let admitted = match job {
                    GenJob::Narrow(a, b) => service
                        .submit(a.clone(), b.clone())
                        .map(Pending::Narrow)
                        .ok(),
                    GenJob::Wide(a, b) => service.submit_wide(a, b, &basis).map(Pending::Wide).ok(),
                };
                match admitted {
                    Some(t) => tickets.push((lo + j, t)),
                    None => rejected += 1,
                }
            }
            for (i, ticket) in tickets {
                let outcome = match ticket {
                    Pending::Narrow(t) => match t.wait() {
                        Ok(done) => Ok(ProductVal::Narrow(done.product)),
                        Err(_) => Err(()),
                    },
                    Pending::Wide(t) => match t.wait() {
                        Ok(done) => Ok(ProductVal::Wide(done.product)),
                        Err(_) => Err(()),
                    },
                };
                results[i] = Some(outcome);
            }
        }
    };

    let mut wall_s = 0.0;
    let (mut direct_wall_s, mut direct_throughput) = (0.0, 0.0);
    let mut service_phase = PhaseSnapshot::default();
    let mut direct_phase = PhaseSnapshot::default();
    let mut direct: Vec<ProductVal> = Vec::new();
    if config.verify_direct {
        // The baseline runs under the *same* check policy as the
        // service, so the speedup compares like with like (a checked
        // service against an unchecked baseline would fold the referee
        // cost into the scheduling comparison). Wide jobs baseline
        // against the sequential residue loop — one lane after another
        // through the same basis — which is exactly the fleet-sharding
        // comparison the RNS pipeline exists to win.
        let mut accelerators: HashMap<usize, CryptoPim> = HashMap::new();
        let mut sequential: HashMap<usize, RnsMultiplier> = HashMap::new();
        for &n in &config.degrees {
            let p = ParamSet::for_degree(n).expect("paper degree");
            accelerators.insert(
                n,
                CryptoPim::new(&p)
                    .expect("paper parameters")
                    .with_check(config.service.check),
            );
            if wide_jobs > 0 {
                sequential.insert(
                    n,
                    RnsMultiplier::with_basis(n, basis.clone()).expect("basis fits degree"),
                );
            }
        }
        let chunk = jobs.len().div_ceil(MEASURE_CHUNKS).max(1);
        let mut lo = 0;
        while lo < jobs.len() {
            let hi = (lo + chunk).min(jobs.len());
            let before = phase::snapshot();
            let t = Instant::now();
            serve_slice(lo, hi);
            wall_s += t.elapsed().as_secs_f64();
            service_phase.add(&phase::snapshot().since(&before));
            let before = phase::snapshot();
            let t = Instant::now();
            direct.extend(jobs[lo..hi].iter().map(|job| {
                match job {
                    GenJob::Narrow(a, b) => ProductVal::Narrow(
                        accelerators[&a.degree_bound()]
                            .multiply_product(a, b)
                            .expect("direct multiply"),
                    ),
                    GenJob::Wide(a, b) => ProductVal::Wide(
                        sequential[&a.len()]
                            .multiply(a, b)
                            .expect("sequential residue loop"),
                    ),
                }
            }));
            direct_wall_s += t.elapsed().as_secs_f64();
            direct_phase.add(&phase::snapshot().since(&before));
            lo = hi;
        }
        direct_throughput = jobs.len() as f64 / direct_wall_s;
    } else {
        let before = phase::snapshot();
        let t = Instant::now();
        serve_slice(0, jobs.len());
        wall_s = t.elapsed().as_secs_f64();
        service_phase.add(&phase::snapshot().since(&before));
    }
    let stats = service.shutdown();

    let ok = results.iter().filter(|r| matches!(r, Some(Ok(_)))).count();
    let failed = results
        .iter()
        .filter(|r| matches!(r, Some(Err(()))))
        .count();

    let mut mismatches = 0;
    for (r, d) in results.iter().zip(&direct) {
        if let Some(Ok(p)) = r {
            if p != d {
                mismatches += 1;
            }
        }
    }

    let throughput = ok as f64 / wall_s;
    LoadgenReport {
        jobs: jobs.len(),
        wide_jobs,
        ok,
        rejected,
        failed,
        mismatches,
        dropped: stats.admitted - stats.completed,
        wall_s,
        throughput,
        direct_wall_s,
        direct_throughput,
        speedup: if direct_throughput > 0.0 {
            throughput / direct_throughput
        } else {
            0.0
        },
        stats,
        phase: service_phase,
        direct_phase,
    }
}

/// The in-process closed-loop client fan-out: `clients` threads each
/// keep one job outstanding, client `c` serving `jobs[c]`,
/// `jobs[c + clients]`, … back to back through `serve`. Returns every
/// job's outcome at its index; clients keep their outcomes locally, so
/// result bookkeeping stays off the per-job timed path.
pub(crate) fn closed_loop<J: Sync, R: Send>(
    jobs: &[J],
    clients: usize,
    serve: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    let clients = clients.max(1);
    let mut results: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let serve = &serve;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mine = jobs.iter().enumerate().skip(c).step_by(clients);
                    mine.map(|(i, job)| (i, serve(job))).collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, outcome) in handle.join().expect("client thread panicked") {
                results[i] = Some(outcome);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every job served"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::Backpressure;

    #[test]
    fn job_stream_is_deterministic() {
        let a = generate_jobs(42, 20, &[256, 512]);
        let b = generate_jobs(42, 20, &[256, 512]);
        assert_eq!(a, b);
        let c = generate_jobs(43, 20, &[256, 512]);
        assert_ne!(a, c, "different seed, different stream");
        for (x, y) in &a {
            assert_eq!(x.degree_bound(), y.degree_bound());
            assert!([256, 512].contains(&x.degree_bound()));
        }
    }

    #[test]
    fn closed_loop_run_is_clean() {
        let report = run(&LoadgenConfig {
            seed: 11,
            jobs: 24,
            degrees: vec![256, 512],
            hot_keys: 0,
            mode: LoadMode::Closed { clients: 3 },
            service: ServiceConfig {
                workers: 2,
                linger: Duration::from_micros(200),
                ..ServiceConfig::default()
            },
            verify_direct: true,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.ok, 24);
        assert!(report.is_clean(), "{report:?}");
        assert!(report.speedup > 0.0);
        assert_eq!(report.stats.admitted, 24);
        assert!(report.phase.engine_ns > 0, "service engine phase recorded");
        assert!(
            report.direct_phase.engine_ns > 0,
            "direct engine phase recorded"
        );
        // (No zero-assertions on the referee phases here: the counters
        // are process-wide, and a checked run in a sibling test thread
        // may legitimately bump them inside this window.)
    }

    #[test]
    fn mixed_stream_is_deterministic_and_blends_wide_jobs() {
        let basis = RnsBasis::discover(512, 3, 1 << 20).unwrap();
        let a = generate_mixed_jobs(42, 64, &[256, 512], 0, 0.5, &basis);
        assert_eq!(a, generate_mixed_jobs(42, 64, &[256, 512], 0, 0.5, &basis));
        let wide = a.iter().filter(|j| matches!(j, GenJob::Wide(..))).count();
        assert!(wide > 0 && wide < 64, "a genuine blend, got {wide}/64 wide");
        for job in &a {
            if let GenJob::Wide(x, y) = job {
                assert_eq!(x.len(), y.len());
                assert!(x.iter().all(|&c| c < basis.modulus()));
            }
        }
        // wide = 0.0 degenerates to the legacy narrow stream exactly.
        let legacy = generate_jobs(42, 20, &[256, 512]);
        let mixed = generate_mixed_jobs(42, 20, &[256, 512], 0, 0.0, &basis);
        for (old, new) in legacy.iter().zip(&mixed) {
            assert_eq!(GenJob::Narrow(old.0.clone(), old.1.clone()), *new);
        }
    }

    #[test]
    fn wide_blend_run_is_clean_and_bit_exact() {
        let report = run(&LoadgenConfig {
            seed: 23,
            jobs: 24,
            degrees: vec![256],
            hot_keys: 0,
            mode: LoadMode::Closed { clients: 3 },
            service: ServiceConfig {
                workers: 2,
                linger: Duration::from_micros(200),
                ..ServiceConfig::default()
            },
            verify_direct: true,
            wide: 0.4,
            wide_channels: 3,
        });
        assert_eq!(report.ok, 24);
        assert!(report.is_clean(), "{report:?}");
        assert!(report.wide_jobs > 0, "blend produced wide jobs");
        assert_eq!(report.stats.wide_submitted, report.wide_jobs as u64);
        assert_eq!(report.stats.wide_completed, report.wide_jobs as u64);
        assert_eq!(report.stats.wide_failed, 0);
        assert_eq!(
            report.stats.wide_latency_samples, report.wide_jobs as u64,
            "every wide job lands in the wide histogram"
        );
        assert!(report.stats.wide_p50_us > 0.0);
        // Each wide job admits 3 residue-lane jobs; narrow jobs admit 1.
        assert_eq!(
            report.stats.admitted as usize,
            (24 - report.wide_jobs) + 3 * report.wide_jobs
        );
    }

    #[test]
    fn recompute_checked_run_records_referee_phases() {
        let report = run(&LoadgenConfig {
            seed: 19,
            jobs: 16,
            degrees: vec![256],
            hot_keys: 0,
            mode: LoadMode::Closed { clients: 2 },
            service: ServiceConfig {
                workers: 2,
                linger: Duration::from_micros(200),
                check: cryptopim::check::CheckPolicy::Recompute,
                ..ServiceConfig::default()
            },
            verify_direct: true,
            ..LoadgenConfig::default()
        });
        assert!(report.is_clean(), "{report:?}");
        for (side, split) in [("service", &report.phase), ("direct", &report.direct_phase)] {
            assert!(split.engine_ns > 0, "{side}: engine phase");
            assert!(split.check_transform_ns > 0, "{side}: transform phase");
            assert!(split.check_pointwise_ns > 0, "{side}: pointwise phase");
            assert!(split.check_compare_ns > 0, "{side}: compare phase");
        }
    }

    #[test]
    fn hot_key_stream_reuses_operands_and_hits_the_cache() {
        let jobs = generate_hot_jobs(13, 32, &[256], 4);
        assert_eq!(jobs, generate_hot_jobs(13, 32, &[256], 4), "deterministic");
        let distinct: std::collections::HashSet<&[u64]> =
            jobs.iter().map(|(a, _)| a.coeffs()).collect();
        assert!(distinct.len() <= 4, "a drawn from a 4-key pool");

        let report = run(&LoadgenConfig {
            seed: 13,
            jobs: 32,
            degrees: vec![256],
            hot_keys: 4,
            mode: LoadMode::Closed { clients: 2 },
            service: ServiceConfig {
                workers: 1,
                linger: Duration::from_micros(200),
                check: cryptopim::check::CheckPolicy::Recompute,
                hot_capacity: 8,
                ..ServiceConfig::default()
            },
            verify_direct: true,
            ..LoadgenConfig::default()
        });
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.ok, 32);
        assert_eq!(report.mismatches, 0, "cached products stay bit-exact");
        assert!(
            report.stats.hot_hits > 0,
            "reused keys must hit the cache: {:?}",
            report.stats
        );
    }

    #[test]
    fn open_loop_reject_sheds_load_without_drops() {
        // Arrival rate far above what tiny queue + one worker can take:
        // some jobs must be rejected, but every admitted one completes.
        let report = run(&LoadgenConfig {
            seed: 5,
            jobs: 60,
            degrees: vec![256],
            hot_keys: 0,
            mode: LoadMode::Open { rate_per_s: 1e6 },
            service: ServiceConfig {
                workers: 1,
                queue_capacity: 4,
                backpressure: Backpressure::Reject,
                linger: Duration::from_millis(2),
                ..ServiceConfig::default()
            },
            verify_direct: false,
            ..LoadgenConfig::default()
        });
        assert_eq!(report.ok + report.rejected + report.failed, 60);
        assert_eq!(report.dropped, 0, "admitted jobs never vanish");
        assert_eq!(report.stats.rejected as usize, report.rejected);
    }
}
