//! The scheduler core: bounded admission → batch former → superbank
//! fleet.
//!
//! ```text
//!  submit(a, b) ──► admission queue ──► batch forming ──► formed-batch
//!   (bounded,        (jobs grouped       (flush on full,    queue
//!    Block/Reject)    by (n, q))          idle worker,        │
//!                                         or linger)          ▼
//!  JobTicket::wait ◄── ticket fulfillment ◄── S superbank workers
//!                                              (multiply_batch each)
//! ```
//!
//! Batch forming is mostly *synchronous*: full groups and — whenever a
//! worker is idle — partial groups flush inline on the submitting
//! thread, and a worker going idle self-serves the oldest pending
//! partial. The dedicated former thread handles only the one decision
//! that needs a clock, sealing saturated-fleet partials at their linger
//! deadline. The saturated steady state therefore runs with no condvar
//! wakeups beyond per-job ticket fulfillment.
//!
//! Everything is plain `std` — one mutex-guarded state struct plus
//! three condvars (`admit` for backpressure waiters, `former` for the
//! batch-forming thread, `work` for the fleet), matching the no-deps
//! style of `pim::pool`.
//!
//! **Correctness contract.** Batching is a pure throughput mechanism:
//! every product is computed by the verified engine path
//! ([`cryptopim::batch::multiply_batch_products`] → `Engine`), each job
//! independently of its batch-mates, so products are bit-identical to a
//! direct [`CryptoPim::multiply_product`] of the same pair for any fleet size,
//! linger setting, or arrival order. `tests/service.rs` pins this with
//! a randomized mixed-degree proptest and a fleet-size determinism
//! sweep.

use crate::error::ServiceError;
use crate::stats::{LatencyHistogram, ProtocolLaneStats, ServiceStats};
use crate::ticket::Ticket;
use cryptopim::accelerator::CryptoPim;
use cryptopim::arch::ArchConfig;
use cryptopim::batch::multiply_batch_outcomes;
use cryptopim::check::CheckPolicy;
use cryptopim::hotcache::HotCache;
use cryptopim::phase;
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use modmath::primes;
use ntt::poly::Polynomial;
use pim::fault::{Injector, WritePath};
use pim::par::Threads;
use pim::PimError;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What `submit` does when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Block the submitting thread until space frees (no job is ever
    /// dropped; overload turns into submitter latency).
    Block,
    /// Fail fast with [`ServiceError::Overloaded`] (the caller owns the
    /// retry policy; overload turns into rejections, never into
    /// unbounded memory).
    Reject,
}

/// Tunables of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Virtual superbank workers draining formed batches. Each worker
    /// runs its engine single-threaded (the fleet itself is the
    /// parallelism), so this is also the host-thread budget.
    pub workers: usize,
    /// Admission-queue bound: jobs admitted but not yet dispatched
    /// (pending in the former plus formed-but-unclaimed).
    pub queue_capacity: usize,
    /// Policy when the queue is full.
    pub backpressure: Backpressure,
    /// How long a partial batch may wait for batch-mates before it is
    /// flushed anyway. Batch forming is work-conserving: while the
    /// fleet has an idle worker and nothing queued, partial batches
    /// flush immediately regardless of this setting — linger only
    /// delays jobs once every worker is busy, which is exactly when
    /// waiting buys packed-lane occupancy (§III-D) for free. Larger
    /// values trade saturated-load latency for occupancy.
    pub linger: Duration,
    /// Result-integrity policy every worker applies to every product
    /// ([`CheckPolicy::Residue`] enables the cheap probabilistic
    /// residue screen, [`CheckPolicy::Recompute`] the sound software
    /// referee; the default [`CheckPolicy::Disabled`] is the historical
    /// unchecked hot path). With checking on, a detected-corrupt
    /// product never reaches a ticket: the job is retried up to
    /// [`ServiceConfig::max_attempts`] times and otherwise fails with
    /// [`ServiceError::FaultUnrecovered`].
    pub check: CheckPolicy,
    /// Execution attempts per job before a detected-corrupt result is
    /// surfaced as [`ServiceError::FaultUnrecovered`] (min 1). Retries
    /// requeue the job at the front of the formed queue, so transient
    /// faults recover with one extra batch trip.
    pub max_attempts: u32,
    /// Consecutive faulted batches after which a bank (worker) is
    /// quarantined — removed from the fleet for the service's lifetime
    /// (min 1). When every bank is quarantined the service degrades
    /// gracefully: queued jobs fail and new submissions return
    /// [`ServiceError::Overloaded`], never a wrong answer.
    pub quarantine_after: u32,
    /// Optional fault injector (campaigns and tests): each worker
    /// routes its block writes through
    /// [`Injector::bank_writes`]`(worker_index)`. `None` — the default
    /// and the production setting — leaves the write path untouched.
    pub injector: Option<Arc<dyn Injector>>,
    /// Capacity of the fleet-wide hot-operand transform cache
    /// ([`cryptopim::hotcache::HotCache`]): protocol-style workloads
    /// that reuse `a` operands (public/evaluation keys) skip the
    /// operand's forward NTT on both the engine and the `Recompute`
    /// referee path when it hits. `0` (the default) disables the cache.
    /// The cache is shared across workers and invalidated whenever a
    /// bank is quarantined.
    pub hot_capacity: usize,
    /// Host threads executing protocol job graphs submitted through
    /// [`Service::submit_protocol`]: each runs the cheap host ops
    /// (sampling, additions, hashing) of one protocol op at a time and
    /// routes every NTT multiply through the batch former as an
    /// ordinary leaf job (min 1). More executors mean more protocol
    /// ops in flight, and therefore more chances for different
    /// tenants' inner products to pack into the same batch.
    pub protocol_workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 4096,
            backpressure: Backpressure::Block,
            linger: Duration::from_micros(500),
            check: CheckPolicy::Disabled,
            max_attempts: 3,
            quarantine_after: 3,
            injector: None,
            hot_capacity: 0,
            protocol_workers: 2,
        }
    }
}

/// Batch-formation key: jobs are only packed with same-parameter jobs.
pub(crate) type ParamKey = (usize, u64);

/// A fulfilled job, returned by [`JobTicket::wait`].
#[derive(Debug, Clone)]
pub struct CompletedJob {
    /// The product, bit-identical to a direct engine multiply.
    pub product: Polynomial,
    /// Time from submission to dispatch on a worker (queueing plus
    /// batch-forming linger), µs.
    pub queue_us: f64,
    /// Wall-clock execution time of the batch this job rode in, µs.
    pub service_us: f64,
    /// Jobs packed into that batch (realized occupancy).
    pub batch_jobs: usize,
    /// Packed-lane capacity of the hardware at this degree (`32k/n`).
    pub packed_lanes: usize,
    /// Execution attempts this job took (1 = first try; > 1 means a
    /// detected-corrupt result was retried and the job *recovered*).
    pub attempts: u32,
}

/// Handle to one submitted job. Obtain the result with
/// [`Ticket::wait`].
pub type JobTicket = Ticket<CompletedJob>;

/// A fulfilled wide (RNS-decomposed) job, returned by
/// [`WideTicket::wait`].
#[derive(Debug, Clone)]
pub struct WideCompletedJob {
    /// The recombined product over the composite modulus `Q = Π q_i`,
    /// bit-identical to a sequential residue-by-residue multiply.
    pub product: Vec<u128>,
    /// Per-lane completions in basis order — each lane rode the
    /// ordinary batch pipeline, so its latency split, batch occupancy,
    /// and attempt count are all observable.
    pub lanes: Vec<CompletedJob>,
    /// Host-side CRT recombination time for this job, µs.
    pub recombine_us: f64,
}

/// Handle to one wide job: `k` residue-lane tickets plus the basis that
/// recombines them. Obtain the product with [`WideTicket::wait`].
pub struct WideTicket {
    lanes: Vec<(JobTicket, u64)>,
    basis: RnsBasis,
    n: usize,
    shared: Arc<Shared>,
    submitted: Instant,
}

impl WideTicket {
    /// Blocks until every residue lane completes, then CRT-recombines
    /// the lane products on the host. The parent resolves only when all
    /// lanes have landed; a failed lane fails the wide job with
    /// [`ServiceError::WideLane`] naming the lane (sibling lanes are
    /// still drained so their results are accounted for).
    pub fn wait(self) -> Result<WideCompletedJob, ServiceError> {
        let mut lane_jobs = Vec::with_capacity(self.lanes.len());
        let mut failure: Option<ServiceError> = None;
        for (lane, (ticket, q)) in self.lanes.into_iter().enumerate() {
            match ticket.wait() {
                Ok(done) => lane_jobs.push(done),
                Err(error) => {
                    if failure.is_none() {
                        failure = Some(ServiceError::WideLane {
                            lane,
                            q,
                            error: Box::new(error),
                        });
                    }
                }
            }
        }
        if let Some(error) = failure {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.wide_failed += 1;
            return Err(error);
        }
        let t = Instant::now();
        let lane_refs: Vec<&[u64]> = lane_jobs.iter().map(|j| j.product.coeffs()).collect();
        let mut product = vec![0u128; self.n];
        self.basis.combine_into(&lane_refs, &mut product);
        let recombine = t.elapsed();
        phase::record_recombine(recombine);
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.wide_completed += 1;
            st.wide_hist
                .record_us(self.submitted.elapsed().as_micros() as u64);
        }
        Ok(WideCompletedJob {
            product,
            lanes: lane_jobs,
            recombine_us: recombine.as_secs_f64() * 1e6,
        })
    }

    /// Whether every residue lane has completed (non-blocking).
    pub fn is_done(&self) -> bool {
        self.lanes.iter().all(|(t, _)| t.is_done())
    }
}

struct Job {
    a: Polynomial,
    b: Polynomial,
    ticket: JobTicket,
    submitted: Instant,
    /// Execution attempts so far, counting the upcoming one (starts
    /// at 1; bumped on each detected-fault requeue).
    attempts: u32,
}

struct Group {
    jobs: Vec<Job>,
    oldest: Instant,
}

struct FormedBatch {
    key: ParamKey,
    jobs: Vec<Job>,
}

/// Why a group left the pending map for the formed queue.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FlushCause {
    /// Reached the packed-lane capacity.
    Full,
    /// Oldest job hit the linger deadline with the fleet saturated.
    Linger,
    /// A worker was idle with nothing queued — waiting would have
    /// wasted hardware, so the partial batch shipped immediately.
    Eager,
}

pub(crate) struct State {
    pending: HashMap<ParamKey, Group>,
    pending_jobs: usize,
    formed: VecDeque<FormedBatch>,
    formed_jobs: usize,
    in_flight: usize,
    /// Workers currently executing a batch (for the work-conserving
    /// flush decision: idle capacity = workers − busy − formed).
    busy_workers: usize,
    shutdown: bool,
    /// Set by the batch former once every pending group has been
    /// flushed during shutdown; workers exit only after this, so no
    /// admitted job is ever stranded.
    drained: bool,
    admitted: u64,
    rejected: u64,
    completed: u64,
    batches: u64,
    full_batches: u64,
    lingered_batches: u64,
    eager_batches: u64,
    occupancy_jobs: u64,
    faults_detected: u64,
    retries: u64,
    recovered: u64,
    /// Per-bank run of consecutive faulted batches (reset by any clean
    /// batch on that bank) — the quarantine trigger.
    bank_streak: Vec<u32>,
    /// Banks removed from the fleet after `quarantine_after`
    /// consecutive faulted batches.
    quarantined: Vec<bool>,
    /// Workers still serving (fleet size minus quarantined banks).
    active_workers: usize,
    /// Every bank quarantined: queued jobs failed, new submissions
    /// refused with `Overloaded`.
    degraded: bool,
    hist: LatencyHistogram,
    /// Wide (RNS-decomposed) jobs accepted by `submit_wide`.
    wide_submitted: u64,
    /// Wide jobs whose every residue lane landed and recombined.
    wide_completed: u64,
    /// Wide jobs that failed (any lane refused or failed).
    wide_failed: u64,
    /// End-to-end wide-job latency (submit → recombined product).
    wide_hist: LatencyHistogram,
    /// Per-kind protocol lane accumulators, indexed by
    /// [`crate::graph::ProtocolKind`] discriminant.
    pub(crate) proto_lanes: Vec<ProtoLane>,
}

/// Per-kind protocol counters (one per [`crate::graph::ProtocolKind`]).
#[derive(Debug, Default)]
pub(crate) struct ProtoLane {
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) hist: LatencyHistogram,
}

/// The protocol-executor queue: typed protocol ops waiting for a free
/// graph executor. Kept separate from the leaf-job admission queue so a
/// protocol op never deadlocks against its own leaf multiplies.
pub(crate) struct ProtoQueue {
    pub(crate) queue: VecDeque<crate::graph::ProtoTask>,
    pub(crate) shutdown: bool,
}

pub(crate) struct Shared {
    pub(crate) state: Mutex<State>,
    /// The started configuration (workers/attempts/quarantine already
    /// clamped); workers read their check policy and injector here.
    pub(crate) cfg: ServiceConfig,
    /// Fleet-wide hot-operand transform cache (`None` when
    /// [`ServiceConfig::hot_capacity`] is 0).
    hot: Option<Arc<HotCache>>,
    /// Space freed in the admission queue (Block-mode submitters wait).
    admit: Condvar,
    /// Deadline scheduling for the former (first pending group under a
    /// saturated fleet, or shutdown).
    former: Condvar,
    /// Formed batches for the fleet (workers wait).
    work: Condvar,
    /// Protocol ops waiting for a graph executor.
    pub(crate) proto: Mutex<ProtoQueue>,
    /// New protocol work (graph executors wait).
    pub(crate) proto_work: Condvar,
}

impl Shared {
    fn flush_locked(&self, st: &mut State, key: ParamKey, cause: FlushCause) {
        let Some(group) = st.pending.remove(&key) else {
            return;
        };
        let count = group.jobs.len();
        st.pending_jobs -= count;
        st.formed_jobs += count;
        st.batches += 1;
        st.occupancy_jobs += count as u64;
        match cause {
            FlushCause::Full => st.full_batches += 1,
            FlushCause::Linger => st.lingered_batches += 1,
            FlushCause::Eager => st.eager_batches += 1,
        }
        st.formed.push_back(FormedBatch {
            key,
            jobs: group.jobs,
        });
    }

    /// Workers the fleet could put to work right now beyond what the
    /// formed queue will already occupy (quarantined banks excluded).
    fn idle_capacity(&self, st: &State) -> usize {
        st.active_workers
            .saturating_sub(st.busy_workers + st.formed.len())
    }
}

/// Resolves the parameter set a `(n, q)` job runs under, or `None` when
/// the pair is unsupported. Paper-table degrees take the paper's
/// modulus assignment on the specialized fast path, and additionally
/// accept any NTT-friendly prime below `2^31` — the residue lanes of
/// wide (RNS-decomposed) jobs run under discovered primes and ride the
/// engine's generic-modulus datapath. Degrees above the native 32k
/// (which segment across hardware passes, §III-D) are accepted only
/// with the paper's large-degree modulus — the only specialized modulus
/// whose `q − 1` keeps the `2n | q − 1` NTT divisibility at those
/// sizes.
pub(crate) fn params_for(n: usize, q: u64) -> Option<ParamSet> {
    if let Ok(p) = ParamSet::for_degree(n) {
        if p.q == q {
            return Some(p);
        }
        if q < 1 << 31 && primes::is_prime(q) && primes::supports_negacyclic_ntt(q, n) {
            let bitwidth = if q < 1 << 16 { 16 } else { 32 };
            return ParamSet::custom(n, q, bitwidth).ok();
        }
        return None;
    }
    if n > CryptoPim::max_native_degree() && q == SEGMENTED_Q {
        return ParamSet::custom(n, q, 32).ok();
    }
    None
}

/// Modulus serving segmented (> 32k) degrees: the paper's large-degree
/// assignment `3·2^18 + 1`.
const SEGMENTED_Q: u64 = 786_433;

/// A long-running, multi-tenant serving front end for the accelerator.
///
/// See the [module docs](self) for the pipeline shape. Construct with
/// [`Service::start`], submit with [`Service::submit`], observe with
/// [`Service::stats`], stop with [`Service::shutdown`] (or drop — the
/// destructor drains too).
pub struct Service {
    shared: Arc<Shared>,
    config: ServiceConfig,
    former: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    proto_workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the batch former and the worker fleet.
    pub fn start(config: ServiceConfig) -> Service {
        let config = ServiceConfig {
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            max_attempts: config.max_attempts.max(1),
            quarantine_after: config.quarantine_after.max(1),
            protocol_workers: config.protocol_workers.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: HashMap::new(),
                pending_jobs: 0,
                formed: VecDeque::new(),
                formed_jobs: 0,
                in_flight: 0,
                busy_workers: 0,
                shutdown: false,
                drained: false,
                admitted: 0,
                rejected: 0,
                completed: 0,
                batches: 0,
                full_batches: 0,
                lingered_batches: 0,
                eager_batches: 0,
                occupancy_jobs: 0,
                faults_detected: 0,
                retries: 0,
                recovered: 0,
                bank_streak: vec![0; config.workers],
                quarantined: vec![false; config.workers],
                active_workers: config.workers,
                degraded: false,
                hist: LatencyHistogram::default(),
                wide_submitted: 0,
                wide_completed: 0,
                wide_failed: 0,
                wide_hist: LatencyHistogram::default(),
                proto_lanes: (0..crate::graph::ProtocolKind::COUNT)
                    .map(|_| ProtoLane::default())
                    .collect(),
            }),
            cfg: config.clone(),
            hot: (config.hot_capacity > 0).then(|| Arc::new(HotCache::new(config.hot_capacity))),
            admit: Condvar::new(),
            former: Condvar::new(),
            work: Condvar::new(),
            proto: Mutex::new(ProtoQueue {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            proto_work: Condvar::new(),
        });
        let former = {
            let shared = Arc::clone(&shared);
            let linger = config.linger;
            std::thread::Builder::new()
                .name("cryptopim-svc-former".into())
                .spawn(move || former_loop(&shared, linger))
                .expect("spawn batch former")
        };
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cryptopim-svc-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn superbank worker")
            })
            .collect();
        let proto_workers = (0..config.protocol_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("cryptopim-svc-proto-{i}"))
                    .spawn(move || crate::graph::proto_worker_loop(&shared))
                    .expect("spawn protocol executor")
            })
            .collect();
        Service {
            shared,
            config,
            former: Some(former),
            workers,
            proto_workers,
        }
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The shared scheduler state (for the protocol graph layer).
    pub(crate) fn shared_ref(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Submits one multiplication job; the returned ticket resolves to
    /// the product once a superbank worker has executed the batch the
    /// job was packed into.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::PairMismatch`] — operand degrees differ.
    /// * [`ServiceError::UnsupportedJob`] — no parameter set for the
    ///   pair's `(n, q)`: outside the paper table and not a segmented
    ///   (> 32k) degree under the large-degree modulus.
    /// * [`ServiceError::Overloaded`] — queue full under
    ///   [`Backpressure::Reject`], or every bank quarantined.
    /// * [`ServiceError::ShuttingDown`] — submitted during drain.
    pub fn submit(&self, a: Polynomial, b: Polynomial) -> Result<JobTicket, ServiceError> {
        submit_shared(&self.shared, a, b)
    }

    /// Submits one wide-modulus multiplication over `Q = Π q_i`: the
    /// operands split into one residue sub-job per basis channel, each
    /// flowing through the ordinary `(n, q_i)` batch former — residues
    /// of *different* tenants' wide jobs pack into the same batches —
    /// and the returned ticket CRT-recombines the lane products on the
    /// host once every lane lands. Each lane is checked, retried, and
    /// quarantine-accounted independently under the configured
    /// [`CheckPolicy`], so a corrupt lane fails or recovers alone.
    ///
    /// # Errors
    ///
    /// * [`ServiceError::PairMismatch`] — operand lengths differ.
    /// * [`ServiceError::UnsupportedJob`] — some lane's `(n, q_i)` has
    ///   no accelerator configuration (checked for every lane before
    ///   anything is queued).
    /// * [`ServiceError::WideLane`] — a lane was refused at admission
    ///   (e.g. `Overloaded` mid-way); earlier lanes stay queued and
    ///   execute harmlessly, their tickets discarded.
    pub fn submit_wide(
        &self,
        a: &[u128],
        b: &[u128],
        basis: &RnsBasis,
    ) -> Result<WideTicket, ServiceError> {
        submit_wide_shared(&self.shared, a, b, basis)
    }

    /// A point-in-time snapshot of queue depth, counters, occupancy,
    /// and latency percentiles.
    pub fn stats(&self) -> ServiceStats {
        let st = self.shared.state.lock().expect("service state poisoned");
        snapshot(&st, self.shared.hot.as_deref())
    }

    /// Graceful shutdown: stops admitting, flushes every pending
    /// partial batch, waits for the fleet to drain all in-flight jobs,
    /// and returns the final statistics. Every ticket issued before the
    /// call resolves.
    pub fn shutdown(mut self) -> ServiceStats {
        self.drain_and_join();
        let st = self.shared.state.lock().expect("service state poisoned");
        snapshot(&st, self.shared.hot.as_deref())
    }

    fn drain_and_join(&mut self) {
        // Drain the protocol executors *first*, while the batch fleet is
        // still accepting leaf submits: every queued protocol op runs to
        // completion (its leaf multiplies still admit and execute), so a
        // ProtocolTicket issued before shutdown always resolves.
        {
            let mut pq = self.shared.proto.lock().expect("proto queue poisoned");
            pq.shutdown = true;
        }
        self.shared.proto_work.notify_all();
        for handle in self.proto_workers.drain(..) {
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("protocol executor panicked");
            }
        }
        {
            let mut st = self.shared.state.lock().expect("service state poisoned");
            st.shutdown = true;
        }
        self.shared.former.notify_all();
        self.shared.work.notify_all();
        self.shared.admit.notify_all();
        if let Some(handle) = self.former.take() {
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("batch former panicked");
            }
        }
        for handle in self.workers.drain(..) {
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("superbank worker panicked");
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.drain_and_join();
    }
}

/// Validates one leaf pair, resolving its batch-formation key and the
/// packed-lane capacity at its degree.
pub(crate) fn validate_leaf(
    a: &Polynomial,
    b: &Polynomial,
) -> Result<(ParamKey, usize), ServiceError> {
    let n = a.degree_bound();
    if b.degree_bound() != n {
        return Err(ServiceError::PairMismatch {
            left: n,
            right: b.degree_bound(),
        });
    }
    let Some(params) = params_for(n, a.modulus()) else {
        return Err(ServiceError::UnsupportedJob { n, q: a.modulus() });
    };
    if b.modulus() != params.q {
        return Err(ServiceError::UnsupportedJob { n, q: b.modulus() });
    }
    let lanes = ArchConfig::packed_lanes(n).expect("validated degree");
    Ok(((n, params.q), lanes))
}

/// Leaf-submit core shared by [`Service::submit`], the wide residue
/// lanes, and the protocol graph executors: admits `pairs` (all
/// pre-validated to the same `(n, q)` key) under a *single* state-lock
/// acquisition, so multi-job callers land every job in the same
/// formation group — a flushed batch carries them together, which is
/// how a protocol op's independent inner products ride one batch.
fn submit_group_shared(
    shared: &Shared,
    key: ParamKey,
    lanes: usize,
    pairs: Vec<(Polynomial, Polynomial)>,
) -> Result<Vec<JobTicket>, ServiceError> {
    let count = pairs.len();
    let (tickets, writers): (Vec<JobTicket>, Vec<JobTicket>) =
        (0..count).map(|_| Ticket::new()).unzip();
    let mut st = shared.state.lock().expect("service state poisoned");
    loop {
        if st.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        if st.degraded {
            // Graceful degradation: with the whole fleet quarantined no
            // admitted job could ever execute, so even Block-mode
            // submitters are turned away.
            st.rejected += count as u64;
            return Err(ServiceError::Overloaded {
                capacity: shared.cfg.queue_capacity,
            });
        }
        if st.pending_jobs + st.formed_jobs + count <= shared.cfg.queue_capacity {
            break;
        }
        match shared.cfg.backpressure {
            Backpressure::Reject => {
                st.rejected += count as u64;
                return Err(ServiceError::Overloaded {
                    capacity: shared.cfg.queue_capacity,
                });
            }
            Backpressure::Block => {
                st = shared.admit.wait(st).expect("service state poisoned");
            }
        }
    }
    let now = Instant::now();
    st.admitted += count as u64;
    st.pending_jobs += count;
    let pending_was_empty = st.pending.is_empty();
    for ((a, b), ticket) in pairs.into_iter().zip(writers) {
        let group = st.pending.entry(key).or_insert_with(|| Group {
            jobs: Vec::with_capacity(lanes),
            oldest: now,
        });
        if group.jobs.is_empty() {
            group.oldest = now;
        }
        group.jobs.push(Job {
            a,
            b,
            ticket,
            submitted: now,
            attempts: 1,
        });
        if group.jobs.len() >= lanes {
            // Full-occupancy batch: flush immediately, no linger paid.
            // (A multi-job call crossing the lane boundary splits here,
            // never overfilling a batch past the packed-lane capacity.)
            shared.flush_locked(&mut st, key, FlushCause::Full);
            shared.work.notify_one();
        }
    }
    if st.pending.contains_key(&key) {
        if shared.idle_capacity(&st) > 0 {
            // Work-conserving fast path: an idle worker means waiting
            // cannot buy occupancy, so the partial ships straight from
            // the submitting thread — no batch-former hop.
            shared.flush_locked(&mut st, key, FlushCause::Eager);
            shared.work.notify_one();
        } else if pending_was_empty {
            // Fleet saturated and this is the first pending group: the
            // former must schedule its linger deadline. Any later job
            // or group has a strictly later deadline, so the former's
            // existing timed sleep already covers those — the saturated
            // steady state submits without a single wakeup.
            shared.former.notify_one();
        }
    }
    drop(st);
    Ok(tickets)
}

/// Free-function form of [`Service::submit`], callable from graph
/// executors that hold only the shared state.
pub(crate) fn submit_shared(
    shared: &Shared,
    a: Polynomial,
    b: Polynomial,
) -> Result<JobTicket, ServiceError> {
    let (key, lanes) = validate_leaf(&a, &b)?;
    let mut tickets = submit_group_shared(shared, key, lanes, vec![(a, b)])?;
    Ok(tickets.pop().expect("one ticket per pair"))
}

/// Submits two *independent* leaf multiplies as one admission: when the
/// pairs share a `(n, q)` key (the common case inside a protocol op)
/// both jobs join the same formation group atomically, so they pack
/// into the same hardware batch instead of racing other tenants for
/// separate ones. Falls back to two ordinary submissions when the keys
/// differ or the queue cannot hold two jobs at once.
pub(crate) fn submit_pair_shared(
    shared: &Shared,
    a0: Polynomial,
    b0: Polynomial,
    a1: Polynomial,
    b1: Polynomial,
) -> Result<(JobTicket, JobTicket), ServiceError> {
    let (k0, lanes) = validate_leaf(&a0, &b0)?;
    let (k1, _) = validate_leaf(&a1, &b1)?;
    if k0 == k1 && shared.cfg.queue_capacity >= 2 {
        let mut tickets = submit_group_shared(shared, k0, lanes, vec![(a0, b0), (a1, b1)])?;
        let t1 = tickets.pop().expect("two tickets");
        let t0 = tickets.pop().expect("two tickets");
        Ok((t0, t1))
    } else {
        let t0 = submit_shared(shared, a0, b0)?;
        let t1 = submit_shared(shared, a1, b1)?;
        Ok((t0, t1))
    }
}

/// Free-function form of [`Service::submit_wide`], callable from graph
/// executors that hold only the shared state.
pub(crate) fn submit_wide_shared(
    shared: &Arc<Shared>,
    a: &[u128],
    b: &[u128],
    basis: &RnsBasis,
) -> Result<WideTicket, ServiceError> {
    let n = a.len();
    if b.len() != n {
        return Err(ServiceError::PairMismatch {
            left: n,
            right: b.len(),
        });
    }
    // Validate every lane up front so an unsupported basis cannot
    // strand half-submitted sibling lanes.
    for &q in basis.moduli() {
        if params_for(n, q).is_none() {
            return Err(ServiceError::UnsupportedJob { n, q });
        }
    }
    let submitted = Instant::now();
    let mut lanes = Vec::with_capacity(basis.channels());
    let mut buf = vec![0u64; n];
    for (lane, &q) in basis.moduli().iter().enumerate() {
        basis.split_lane_into(a, lane, &mut buf);
        let pa = Polynomial::from_canonical_coeffs(buf.clone(), q)
            .expect("residues are canonical mod q");
        basis.split_lane_into(b, lane, &mut buf);
        let pb = Polynomial::from_canonical_coeffs(buf.clone(), q)
            .expect("residues are canonical mod q");
        match submit_shared(shared, pa, pb) {
            Ok(ticket) => lanes.push((ticket, q)),
            Err(error) => {
                let mut st = shared.state.lock().expect("service state poisoned");
                st.wide_submitted += 1;
                st.wide_failed += 1;
                drop(st);
                return Err(ServiceError::WideLane {
                    lane,
                    q,
                    error: Box::new(error),
                });
            }
        }
    }
    {
        let mut st = shared.state.lock().expect("service state poisoned");
        st.wide_submitted += 1;
    }
    Ok(WideTicket {
        lanes,
        basis: basis.clone(),
        n,
        shared: Arc::clone(shared),
        submitted,
    })
}

fn snapshot(st: &State, hot: Option<&HotCache>) -> ServiceStats {
    ServiceStats {
        queue_depth: st.pending_jobs + st.formed_jobs,
        in_flight: st.in_flight,
        admitted: st.admitted,
        rejected: st.rejected,
        completed: st.completed,
        batches: st.batches,
        full_batches: st.full_batches,
        lingered_batches: st.lingered_batches,
        eager_batches: st.eager_batches,
        mean_occupancy: if st.batches == 0 {
            0.0
        } else {
            st.occupancy_jobs as f64 / st.batches as f64
        },
        faults_detected: st.faults_detected,
        retries: st.retries,
        recovered: st.recovered,
        quarantined_banks: st.quarantined.iter().filter(|&&b| b).count(),
        active_workers: st.active_workers,
        hot_hits: hot.map_or(0, HotCache::hits),
        hot_misses: hot.map_or(0, HotCache::misses),
        latency_samples: st.hist.count(),
        p50_us: st.hist.quantile_us(0.50).unwrap_or(0.0),
        p95_us: st.hist.quantile_us(0.95).unwrap_or(0.0),
        p99_us: st.hist.quantile_us(0.99).unwrap_or(0.0),
        wide_submitted: st.wide_submitted,
        wide_completed: st.wide_completed,
        wide_failed: st.wide_failed,
        wide_latency_samples: st.wide_hist.count(),
        wide_p50_us: st.wide_hist.quantile_us(0.50).unwrap_or(0.0),
        wide_p95_us: st.wide_hist.quantile_us(0.95).unwrap_or(0.0),
        wide_p99_us: st.wide_hist.quantile_us(0.99).unwrap_or(0.0),
        protocol: st
            .proto_lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| ProtocolLaneStats {
                kind: crate::graph::ProtocolKind::from_index(i)
                    .expect("lane index is a kind")
                    .as_str(),
                submitted: lane.submitted,
                completed: lane.completed,
                failed: lane.failed,
                latency_samples: lane.hist.count(),
                p50_us: lane.hist.quantile_us(0.50).unwrap_or(0.0),
                p95_us: lane.hist.quantile_us(0.95).unwrap_or(0.0),
                p99_us: lane.hist.quantile_us(0.99).unwrap_or(0.0),
            })
            .collect(),
    }
}

/// The batch-forming thread, reduced to the one decision that needs a
/// clock: sealing groups at their linger deadline. The work-conserving
/// eager flushes happen synchronously elsewhere — in `submit` when a
/// worker is idle at arrival, and in the worker loop when a worker goes
/// idle with partials pending — so the saturated steady state runs
/// without a former hop per batch. On shutdown it flushes everything
/// and marks the state drained so workers can exit.
fn former_loop(shared: &Shared, linger: Duration) {
    let mut st = shared.state.lock().expect("service state poisoned");
    loop {
        if st.shutdown {
            let keys: Vec<ParamKey> = st.pending.keys().copied().collect();
            for key in keys {
                shared.flush_locked(&mut st, key, FlushCause::Linger);
            }
            st.drained = true;
            shared.work.notify_all();
            return;
        }
        let now = Instant::now();
        let expired: Vec<ParamKey> = st
            .pending
            .iter()
            .filter(|(_, g)| now.duration_since(g.oldest) >= linger)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            // A sealed group queues behind in-flight batches even when
            // every worker is busy: the deadline closes the batch to
            // further packing, it does not wait for idle capacity.
            shared.flush_locked(&mut st, key, FlushCause::Linger);
            shared.work.notify_one();
        }
        let next_deadline = st.pending.values().map(|g| g.oldest + linger).min();
        st = match next_deadline {
            None => shared.former.wait(st).expect("service state poisoned"),
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                shared
                    .former
                    .wait_timeout(st, timeout)
                    .expect("service state poisoned")
                    .0
            }
        };
    }
}

/// One virtual superbank: claims formed batches and runs them through
/// the verified `multiply_batch_outcomes` engine path, single-threaded
/// (the fleet is the parallelism), then fulfills every ticket. Returns
/// (permanently) once its bank is quarantined.
fn worker_loop(shared: &Shared, bank: usize) {
    // Each bank gets its own write-path view from the injector so
    // wear-out epochs age per bank, not per fleet.
    let writes: Option<Arc<dyn WritePath>> = shared
        .cfg
        .injector
        .as_ref()
        .map(|i| i.bank_writes(bank as u32));
    let mut accelerators: HashMap<ParamKey, CryptoPim> = HashMap::new();
    loop {
        let batch = {
            let mut st = shared.state.lock().expect("service state poisoned");
            loop {
                if let Some(batch) = st.formed.pop_front() {
                    st.formed_jobs -= batch.jobs.len();
                    st.in_flight += batch.jobs.len();
                    st.busy_workers += 1;
                    // Dispatch freed admission-queue space.
                    shared.admit.notify_all();
                    break batch;
                }
                if !st.pending.is_empty() {
                    // Self-serve: this worker is idle, so by the
                    // work-conserving rule the oldest pending partial
                    // ships now — flushed here and popped on the next
                    // turn of this loop, with no former hop and no
                    // condvar wake.
                    let key = *st
                        .pending
                        .iter()
                        .min_by_key(|(_, g)| g.oldest)
                        .map(|(k, _)| k)
                        .expect("pending non-empty");
                    shared.flush_locked(&mut st, key, FlushCause::Eager);
                    continue;
                }
                if st.shutdown && st.drained {
                    return;
                }
                st = shared.work.wait(st).expect("service state poisoned");
            }
        };
        if run_batch(shared, &mut accelerators, &writes, batch, bank) {
            // Quarantined: this bank leaves the fleet. Remaining (or
            // requeued) work belongs to the surviving workers.
            return;
        }
    }
}

/// Executes one formed batch: per-job outcomes, detected-fault retry
/// bookkeeping, and the quarantine decision. Returns whether this bank
/// was quarantined by the batch.
fn run_batch(
    shared: &Shared,
    accelerators: &mut HashMap<ParamKey, CryptoPim>,
    writes: &Option<Arc<dyn WritePath>>,
    batch: FormedBatch,
    bank: usize,
) -> bool {
    let dispatch = Instant::now();
    let count = batch.jobs.len();
    let key = batch.key;
    let mut pairs = Vec::with_capacity(count);
    let mut metas = Vec::with_capacity(count);
    for job in batch.jobs {
        pairs.push((job.a, job.b));
        metas.push((job.ticket, job.submitted, job.attempts));
    }

    let acc = match accelerators.entry(key) {
        std::collections::hash_map::Entry::Occupied(e) => Ok(e.into_mut()),
        std::collections::hash_map::Entry::Vacant(e) => params_for(key.0, key.1)
            .ok_or(PimError::Math(modmath::Error::InvalidDegree { n: key.0 }))
            .and_then(|p| CryptoPim::new(&p))
            // Workers run each batch on their own thread: the fleet
            // supplies the host parallelism, and nested chunk fan-out
            // would let worker counts contend for the same cores.
            .map(|acc| {
                e.insert(
                    acc.with_threads(Threads::Fixed(1))
                        .with_check(shared.cfg.check)
                        .with_write_path(writes.clone())
                        .with_hot_cache(shared.hot.clone()),
                )
            }),
    };
    // Per-job outcomes: batch wall-clock is measured right here, so the
    // analytic burst simulation of `multiply_batch` (a fixed tens-of-µs
    // cost per batch, painful at low occupancy) is skipped, and one
    // corrupt lane fails alone instead of failing its batch-mates.
    let outcome = acc.and_then(|acc| multiply_batch_outcomes(acc, &pairs));
    let done = Instant::now();
    let service_us = done.duration_since(dispatch).as_secs_f64() * 1e6;
    let lanes = ArchConfig::packed_lanes(key.0).expect("validated at submit");

    let mut requeue: Vec<Job> = Vec::new();
    // Outcomes are handed to their tickets only after the counters
    // below include them, so a waiter that wakes always finds its job
    // in `stats()`.
    let mut fulfilled: Vec<(JobTicket, Instant, Outcome)> = Vec::with_capacity(count);
    let mut faults = 0u64;
    let mut recovered = 0u64;

    match outcome {
        Ok(outcomes) => {
            for ((result, (a, b)), (ticket, submitted, attempts)) in
                outcomes.into_iter().zip(pairs).zip(metas)
            {
                match result {
                    Ok(product) => {
                        if attempts > 1 {
                            recovered += 1;
                        }
                        fulfilled.push((
                            ticket,
                            submitted,
                            Ok(CompletedJob {
                                product,
                                queue_us: dispatch.duration_since(submitted).as_secs_f64() * 1e6,
                                service_us,
                                batch_jobs: count,
                                packed_lanes: lanes,
                                attempts,
                            }),
                        ));
                    }
                    Err(PimError::CorruptResult(report)) => {
                        faults += 1;
                        if attempts < shared.cfg.max_attempts {
                            // Requeue at the front: the retry beats any
                            // newly formed work, bounding its added
                            // latency to one batch trip per attempt.
                            requeue.push(Job {
                                a,
                                b,
                                ticket,
                                submitted,
                                attempts: attempts + 1,
                            });
                        } else {
                            fulfilled.push((
                                ticket,
                                submitted,
                                Err(ServiceError::FaultUnrecovered {
                                    bank: report.bank,
                                    attempts,
                                }),
                            ));
                        }
                    }
                    Err(e) => {
                        fulfilled.push((ticket, submitted, Err(ServiceError::Pim(e))));
                    }
                }
            }
        }
        Err(e) => {
            for (ticket, submitted, _) in metas {
                fulfilled.push((ticket, submitted, Err(ServiceError::Pim(e.clone()))));
            }
        }
    }

    let retried = requeue.len();
    let mut st = shared.state.lock().expect("service state poisoned");
    st.in_flight -= count;
    st.busy_workers -= 1;
    st.completed += (count - retried) as u64;
    st.faults_detected += faults;
    st.retries += retried as u64;
    st.recovered += recovered;
    for (ticket, submitted, result) in fulfilled {
        st.hist
            .record_us(done.duration_since(submitted).as_micros() as u64);
        ticket.fulfill(result);
    }
    if !requeue.is_empty() {
        st.formed_jobs += retried;
        st.formed.push_front(FormedBatch { key, jobs: requeue });
        shared.work.notify_one();
    }
    // Quarantine policy: K consecutive faulted batches retire the bank.
    if faults > 0 {
        st.bank_streak[bank] += 1;
        if st.bank_streak[bank] >= shared.cfg.quarantine_after && !st.quarantined[bank] {
            st.quarantined[bank] = true;
            st.active_workers -= 1;
            // Epoch bump: transforms the quarantined bank may have
            // produced must never be replayed from the cache.
            if let Some(hot) = &shared.hot {
                hot.bump_epoch();
            }
            if st.active_workers == 0 {
                degrade(shared, &mut st);
            }
            // Wake Block-mode submitters (capacity changed or degraded)
            // and idle workers (requeued work may need a new owner).
            shared.admit.notify_all();
            shared.work.notify_all();
            return true;
        }
    } else {
        st.bank_streak[bank] = 0;
    }
    false
}

/// Last bank quarantined: fail everything queued (no bank can ever run
/// it) and refuse future submissions — the service still answers, it
/// just answers `Overloaded`. It never returns a wrong product.
fn degrade(shared: &Shared, st: &mut State) {
    st.degraded = true;
    let capacity = shared.cfg.queue_capacity;
    for batch in st.formed.drain(..) {
        for job in batch.jobs {
            job.ticket
                .fulfill(Err(ServiceError::Overloaded { capacity }));
            st.completed += 1;
        }
    }
    st.formed_jobs = 0;
    for (_, group) in st.pending.drain() {
        for job in group.jobs {
            job.ticket
                .fulfill(Err(ServiceError::Overloaded { capacity }));
            st.completed += 1;
        }
    }
    st.pending_jobs = 0;
    shared.former.notify_all();
}

/// What a ticket resolves to.
type Outcome = Result<CompletedJob, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;
    use pim::fault::{Injector, WritePath as WritePathTrait};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Test injector: bank 0 corrupts bit 15 of the first premul write
    /// for its first `bad_ops` operations (`u64::MAX` = forever); other
    /// banks are clean. At the test degrees `q < 2^13`, so OR-ing bit 15
    /// always changes the stored word, and `2^15 mod q ≠ 0` keeps the
    /// corruption alive through re-canonicalization — every faulted op
    /// yields a wrong product.
    #[derive(Debug)]
    struct StuckBitInjector {
        bad_ops: u64,
    }

    #[derive(Debug)]
    struct StuckBitPath {
        bank: u32,
        bad_ops: u64,
        epoch: AtomicU64,
    }

    impl Injector for StuckBitInjector {
        fn bank_writes(&self, bank: u32) -> Arc<dyn WritePathTrait> {
            Arc::new(StuckBitPath {
                bank,
                bad_ops: if bank == 0 { self.bad_ops } else { 0 },
                epoch: AtomicU64::new(0),
            })
        }
    }

    impl WritePathTrait for StuckBitPath {
        fn armed(&self) -> bool {
            self.bad_ops > 0
        }
        fn begin_op(&self) {
            self.epoch.fetch_add(1, Ordering::Relaxed);
        }
        fn store(&self, block: u32, row: u32, value: u64) -> u64 {
            if block == 0 && row == 0 && self.epoch.load(Ordering::Relaxed) <= self.bad_ops {
                value | (1 << 15)
            } else {
                value
            }
        }
        fn bank(&self) -> u32 {
            self.bank
        }
        fn suspect_block(&self) -> Option<u32> {
            Some(0)
        }
    }

    fn poly(n: usize, q: u64, seed: u64) -> Polynomial {
        Polynomial::from_coeffs(
            (0..n as u64).map(|i| (i * 31 + seed * 7 + 1) % q).collect(),
            q,
        )
        .unwrap()
    }

    #[test]
    fn single_job_round_trip() {
        let svc = Service::start(ServiceConfig::default());
        let p = ParamSet::for_degree(256).unwrap();
        let acc = CryptoPim::new(&p).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let (a, b) = (poly(256, p.q, 1), poly(256, p.q, 2));
        let direct = acc.multiply(&a, &b).unwrap();
        let done = svc
            .submit(a, b)
            .expect("admitted")
            .wait()
            .expect("executed");
        assert_eq!(done.product, direct);
        assert_eq!(done.packed_lanes, 64);
        assert!(done.batch_jobs >= 1);
        assert!(done.queue_us >= 0.0 && done.service_us > 0.0);
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn full_batch_flushes_without_linger() {
        // 64 lanes at n = 256: with the lone worker saturated (so the
        // eager path cannot drain singles) and an hour-long linger, 64
        // same-key jobs must still flush — as one full batch.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            linger: Duration::from_secs(3600),
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_worker(&svc, 2);
        let q = ParamSet::for_degree(256).unwrap().q;
        let tickets: Vec<JobTicket> = (0..64)
            .map(|k| {
                svc.submit(poly(256, q, k), poly(256, q, k + 100))
                    .expect("admitted")
            })
            .collect();
        for t in tickets {
            let done = t.wait().expect("executed");
            assert_eq!(done.batch_jobs, 64, "full-occupancy batch");
        }
        for b in blockers {
            b.wait().expect("executed");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.batches, 3, "two blocker batches plus one full batch");
        assert_eq!(
            stats.full_batches, 3,
            "32k blockers are full single-lane batches"
        );
        assert_eq!(stats.eager_batches, 0);
        assert_eq!(stats.lingered_batches, 0);
    }

    #[test]
    fn idle_fleet_flushes_partials_eagerly() {
        // A lone job with an hour-long linger and an idle fleet must
        // not wait: the work-conserving former ships it immediately.
        let svc = Service::start(ServiceConfig {
            linger: Duration::from_secs(3600),
            ..ServiceConfig::default()
        });
        let q = ParamSet::for_degree(512).unwrap().q;
        let t = svc
            .submit(poly(512, q, 3), poly(512, q, 4))
            .expect("admitted");
        let done = t.wait().expect("executed");
        assert_eq!(done.batch_jobs, 1, "lone job shipped eagerly");
        let stats = svc.shutdown();
        assert_eq!(stats.eager_batches, 1);
        assert_eq!(stats.lingered_batches, 0);
    }

    /// Occupies the single worker of `svc` for long enough to submit
    /// more work underneath it. Degree-32k jobs have exactly one
    /// packed lane, so each submit forms a *full* batch inline (no
    /// former involvement) and a debug-mode 32k multiply runs long;
    /// `count` of them keep the lone worker saturated back to back
    /// (the formed queue covers the gap between batches in the
    /// idle-capacity computation).
    fn saturate_one_worker(svc: &Service, count: usize) -> Vec<JobTicket> {
        let q = ParamSet::for_degree(32768).unwrap().q;
        let tickets: Vec<JobTicket> = (0..count as u64)
            .map(|k| {
                svc.submit(poly(32768, q, k), poly(32768, q, k + 9))
                    .expect("admitted")
            })
            .collect();
        // Wait until the first batch is actually on the worker. The
        // second condition is a hang-safe escape: if the blockers
        // somehow drained first, the caller's premise assertions fail
        // loudly instead of this loop spinning forever.
        while svc.stats().in_flight == 0 && tickets.iter().any(|t| !t.is_done()) {
            std::thread::yield_now();
        }
        tickets
    }

    #[test]
    fn wait_timeout_expires_then_collects() {
        // A job stuck behind a saturated single worker times out on a
        // short wait with a typed error, stays claimable, and resolves
        // to the correct product on a later (patient) wait.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            linger: Duration::from_nanos(1),
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_worker(&svc, 2);
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let direct = CryptoPim::new(&p)
            .unwrap()
            .multiply(&poly(256, p.q, 1), &poly(256, p.q, 2))
            .unwrap();
        let ticket = svc
            .submit(poly(256, p.q, 1), poly(256, p.q, 2))
            .expect("admitted");
        let err = ticket
            .wait_timeout(Duration::from_millis(1))
            .expect_err("worker still busy with 32k blockers");
        assert_eq!(err, ServiceError::WaitTimeout { timeout_ms: 1 });
        let done = ticket
            .wait_timeout(Duration::from_secs(300))
            .expect("eventually served");
        assert_eq!(done.product, direct);
        // The successful wait took the result: the ticket now reads as
        // never-completed and a further short wait times out again.
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(1)).err(),
            Some(ServiceError::WaitTimeout { timeout_ms: 1 })
        );
        for b in blockers {
            b.wait().expect("executed");
        }
        svc.shutdown();
    }

    #[test]
    fn linger_holds_partials_while_fleet_saturated() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            linger: Duration::from_nanos(1),
            ..ServiceConfig::default()
        });
        let blockers = saturate_one_worker(&svc, 2);
        // With the worker busy, this partial cannot flush eagerly; the
        // already-expired linger deadline flushes it on the former's
        // next wakeup instead.
        let q = ParamSet::for_degree(1024).unwrap().q;
        let t = svc
            .submit(poly(1024, q, 5), poly(1024, q, 6))
            .expect("admitted");
        t.wait().expect("executed");
        for b in blockers {
            b.wait().expect("executed");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.lingered_batches, 1, "{stats}");
    }

    #[test]
    fn reject_policy_returns_typed_error() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            backpressure: Backpressure::Reject,
            linger: Duration::from_secs(3600),
            ..ServiceConfig::default()
        });
        // Saturate the worker so the next job stays queued: eager
        // flushing needs idle capacity, and the linger is an hour.
        // One blocker only — its batch forms inline and is popped by
        // the worker, so it never counts against the queue bound.
        let blockers = saturate_one_worker(&svc, 1);
        let q = ParamSet::for_degree(1024).unwrap().q;
        let first = svc
            .submit(poly(1024, q, 1), poly(1024, q, 2))
            .expect("fits the queue");
        let second = svc.submit(poly(1024, q, 3), poly(1024, q, 4));
        assert_eq!(second.err(), Some(ServiceError::Overloaded { capacity: 1 }));
        let stats = svc.stats();
        assert_eq!(stats.rejected, 1);
        drop(first);
        drop(blockers);
        let final_stats = svc.shutdown();
        assert_eq!(final_stats.admitted, 2);
        assert_eq!(final_stats.completed, 2, "drained on shutdown");
    }

    #[test]
    fn invalid_jobs_fail_synchronously() {
        let svc = Service::start(ServiceConfig::default());
        let q = ParamSet::for_degree(256).unwrap().q;
        assert_eq!(
            svc.submit(poly(256, q, 1), poly(512, 12289, 1)).err(),
            Some(ServiceError::PairMismatch {
                left: 256,
                right: 512
            })
        );
        // Valid ring, but 17 − 1 = 16 has no order-512 subgroup: no
        // negacyclic NTT exists at this degree, so no lane (wide or
        // narrow) can run it.
        let wrong_q = Polynomial::from_coeffs(vec![1; 256], 17).unwrap();
        assert_eq!(
            svc.submit(wrong_q.clone(), wrong_q).err(),
            Some(ServiceError::UnsupportedJob { n: 256, q: 17 })
        );
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 0);
    }

    #[test]
    fn off_table_ntt_friendly_primes_are_served() {
        // Residue lanes of wide jobs run under discovered primes, not
        // the paper-table assignment; the scheduler must serve them
        // bit-exact through the generic-modulus engine path.
        let svc = Service::start(ServiceConfig::default());
        let q = modmath::primes::find_ntt_prime(256, 1 << 20).unwrap();
        let p = ParamSet::custom(256, q, 32).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let direct = CryptoPim::new(&p)
            .unwrap()
            .multiply(&poly(256, q, 1), &poly(256, q, 2))
            .unwrap();
        let done = svc
            .submit(poly(256, q, 1), poly(256, q, 2))
            .expect("admitted")
            .wait()
            .expect("executed");
        assert_eq!(done.product, direct);
        svc.shutdown();
    }

    #[test]
    fn wide_job_recombines_bit_exact() {
        let svc = Service::start(ServiceConfig::default());
        let n = 256;
        let basis = RnsBasis::discover(n, 3, 1 << 20).unwrap();
        let seq = ntt::rns::RnsMultiplier::with_basis(n, basis.clone()).unwrap();
        let q = basis.modulus();
        let wide_operand = |seed: u128| -> Vec<u128> {
            (0..n as u128).map(|i| (i * i * 977 + seed) % q).collect()
        };
        let (a, b) = (wide_operand(3), wide_operand(11));
        let want = seq.multiply(&a, &b).unwrap();
        let done = svc
            .submit_wide(&a, &b, &basis)
            .expect("admitted")
            .wait()
            .expect("all lanes landed");
        assert_eq!(done.product, want, "recombined == sequential residue loop");
        assert_eq!(done.lanes.len(), 3);
        assert!(done.recombine_us >= 0.0);
        let stats = svc.shutdown();
        assert_eq!(stats.wide_submitted, 1);
        assert_eq!(stats.wide_completed, 1);
        assert_eq!(stats.wide_failed, 0);
        assert_eq!(stats.wide_latency_samples, 1);
        assert_eq!(stats.admitted, 3, "one narrow job per residue lane");
    }

    #[test]
    fn wide_job_rejects_unsupported_basis_before_queueing() {
        let svc = Service::start(ServiceConfig::default());
        // Valid basis over primes that are not NTT-friendly at n = 256.
        let basis = RnsBasis::new(&[17, 23]).unwrap();
        let a = vec![1u128; 256];
        assert_eq!(
            svc.submit_wide(&a, &a, &basis).err(),
            Some(ServiceError::UnsupportedJob { n: 256, q: 17 })
        );
        let b = vec![1u128; 128];
        let basis_ok = RnsBasis::discover(256, 2, 1 << 20).unwrap();
        assert_eq!(
            svc.submit_wide(&a, &b, &basis_ok).err(),
            Some(ServiceError::PairMismatch {
                left: 256,
                right: 128
            })
        );
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 0, "nothing queued for a rejected basis");
        assert_eq!(stats.wide_submitted, 0);
    }

    #[test]
    fn wide_lane_fault_recovers_without_wrong_recombination() {
        // Bank 0 corrupts its first operation: exactly one residue lane
        // of the wide job is detected, retried, and recovered — and the
        // recombined product still matches the sequential reference.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            check: CheckPolicy::Recompute,
            max_attempts: 3,
            quarantine_after: 10,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: 1 })),
            ..ServiceConfig::default()
        });
        let n = 256;
        let basis = RnsBasis::discover(n, 2, 1 << 20).unwrap();
        let seq = ntt::rns::RnsMultiplier::with_basis(n, basis.clone()).unwrap();
        let q = basis.modulus();
        let a: Vec<u128> = (0..n as u128).map(|i| (i * 131 + 7) % q).collect();
        let b: Vec<u128> = (0..n as u128).map(|i| (i * 13 + 29) % q).collect();
        let want = seq.multiply(&a, &b).unwrap();
        let done = svc
            .submit_wide(&a, &b, &basis)
            .expect("admitted")
            .wait()
            .expect("faulted lane recovered");
        assert_eq!(done.product, want, "no wrong recombined answer");
        assert!(
            done.lanes.iter().any(|l| l.attempts > 1),
            "exactly the faulted lane retried: {:?}",
            done.lanes.iter().map(|l| l.attempts).collect::<Vec<_>>()
        );
        let stats = svc.shutdown();
        assert_eq!(stats.faults_detected, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.wide_completed, 1);
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let svc = Service::start(ServiceConfig::default());
        // Reach into the shared state the way shutdown does, then try
        // to submit: drop-based shutdown makes this race-free to test
        // only via the consuming API, so use two services.
        let q = ParamSet::for_degree(256).unwrap().q;
        let stats = svc.shutdown();
        assert_eq!(stats.admitted, 0);
        let svc2 = Service::start(ServiceConfig::default());
        {
            let mut st = svc2.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        assert_eq!(
            svc2.submit(poly(256, q, 1), poly(256, q, 2)).err(),
            Some(ServiceError::ShuttingDown)
        );
    }

    #[test]
    fn transient_fault_is_detected_retried_and_recovered() {
        // Bank 0 corrupts exactly its first operation; the residue
        // check catches it, the job requeues, and attempt 2 runs clean.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            check: CheckPolicy::residue(4, 0xFEED),
            max_attempts: 3,
            quarantine_after: 10,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: 1 })),
            ..ServiceConfig::default()
        });
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let direct = CryptoPim::new(&p)
            .unwrap()
            .multiply(&poly(256, p.q, 1), &poly(256, p.q, 2))
            .unwrap();
        let done = svc
            .submit(poly(256, p.q, 1), poly(256, p.q, 2))
            .expect("admitted")
            .wait()
            .expect("recovered on retry");
        assert_eq!(done.product, direct, "recovered product is bit-exact");
        assert_eq!(done.attempts, 2);
        let stats = svc.shutdown();
        assert_eq!(stats.faults_detected, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.quarantined_banks, 0);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn permanent_fault_quarantines_and_degrades() {
        // One worker, permanently corrupt: attempts exhaust into
        // FaultUnrecovered, the bank quarantines, and the degraded
        // service turns new submissions away instead of lying.
        let svc = Service::start(ServiceConfig {
            workers: 1,
            check: CheckPolicy::residue(4, 0xBEEF),
            max_attempts: 2,
            quarantine_after: 2,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: u64::MAX })),
            ..ServiceConfig::default()
        });
        let q = ParamSet::for_degree(256).unwrap().q;
        let err = svc
            .submit(poly(256, q, 1), poly(256, q, 2))
            .expect("admitted")
            .wait()
            .expect_err("corruption persists through every attempt");
        assert_eq!(
            err,
            ServiceError::FaultUnrecovered {
                bank: 0,
                attempts: 2
            }
        );
        // Quarantine bookkeeping lands just after ticket fulfillment;
        // wait for it before probing the degraded admission path.
        while svc.stats().active_workers > 0 {
            std::thread::yield_now();
        }
        let refused = svc.submit(poly(256, q, 3), poly(256, q, 4)).err();
        assert!(
            matches!(refused, Some(ServiceError::Overloaded { .. })),
            "degraded fleet refuses instead of corrupting: {refused:?}"
        );
        let stats = svc.shutdown();
        assert_eq!(stats.faults_detected, 2, "both attempts flagged");
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.quarantined_banks, 1);
        assert_eq!(stats.active_workers, 0);
    }

    #[test]
    fn surviving_banks_absorb_a_quarantined_banks_work() {
        // Two banks, only bank 0 faulty, hair-trigger quarantine: every
        // job must still come back with the correct product — retries
        // migrate to the clean bank once bank 0 is out.
        let svc = Service::start(ServiceConfig {
            workers: 2,
            check: CheckPolicy::residue(4, 0xACE),
            max_attempts: 3,
            quarantine_after: 1,
            injector: Some(Arc::new(StuckBitInjector { bad_ops: u64::MAX })),
            ..ServiceConfig::default()
        });
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let acc = CryptoPim::new(&p).unwrap();
        for k in 0..8u64 {
            let (a, b) = (poly(256, p.q, k), poly(256, p.q, k + 50));
            let direct = acc.multiply(&a, &b).unwrap();
            let done = svc.submit(a, b).expect("admitted").wait().expect("served");
            assert_eq!(done.product, direct, "job {k}");
        }
        let stats = svc.shutdown();
        assert_eq!(stats.completed, 8);
        assert!(stats.quarantined_banks <= 1);
        assert!(stats.active_workers >= 1);
        assert_eq!(
            stats.faults_detected, stats.recovered,
            "every detected fault was recovered: {stats}"
        );
    }

    #[test]
    fn hot_cache_serves_reused_keys_bit_exact() {
        let svc = Service::start(ServiceConfig {
            workers: 1,
            hot_capacity: 8,
            ..ServiceConfig::default()
        });
        let p = ParamSet::for_degree(256).unwrap();
        use ntt::negacyclic::PolyMultiplier;
        let acc = CryptoPim::new(&p).unwrap();
        let a = poly(256, p.q, 9);
        for k in 0..6u64 {
            let b = poly(256, p.q, k + 40);
            let direct = acc.multiply(&a, &b).unwrap();
            let done = svc
                .submit(a.clone(), b)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(done.product, direct, "job {k}");
        }
        let stats = svc.shutdown();
        assert!(stats.hot_hits >= 1, "reused key must hit: {stats}");
        assert!(stats.hot_misses >= 1, "first sight of the key misses");
    }

    #[test]
    fn mixed_keys_never_share_a_batch() {
        let svc = Service::start(ServiceConfig {
            linger: Duration::from_millis(1),
            ..ServiceConfig::default()
        });
        let q256 = ParamSet::for_degree(256).unwrap().q;
        let q512 = ParamSet::for_degree(512).unwrap().q;
        let t1 = svc
            .submit(poly(256, q256, 1), poly(256, q256, 2))
            .expect("admitted");
        let t2 = svc
            .submit(poly(512, q512, 1), poly(512, q512, 2))
            .expect("admitted");
        let d1 = t1.wait().expect("executed");
        let d2 = t2.wait().expect("executed");
        assert_eq!(d1.product.degree_bound(), 256);
        assert_eq!(d2.product.degree_bound(), 512);
        let stats = svc.shutdown();
        assert_eq!(stats.batches, 2, "parameter keys form separate batches");
    }
}
