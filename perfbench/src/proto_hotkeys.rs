//! `proto-hotkeys`: in-process RLWE protocol ops through
//! `Service::submit_protocol`, mix `kem:40,sign:30,she:20,mul:10` at
//! n = 1024 (NewHope, q = 12289), check off, hot cache on.
//!
//! The op stream comes from `service::protoload::generate_protocol_ops`
//! with key churn 0: a few long-lived keys serve the whole run, so leaf
//! multiplies mostly hit the hot cache. Per-op randomness is fresh within
//! a pool of 200 ops that the clients cycle through; the pool's leaf
//! operands far outnumber the cache entries, so cycling adds no hits. The
//! pool's sign ops follow a fixed profile of rejection attempts, so the
//! seed picks the operands but not the amount of work. Each of the two
//! clients keeps [`WINDOW`] ops outstanding, so the two protocol executors
//! always have work queued and leaf multiplies of different clients' ops
//! batch together. The latency includes the wait for an executor; with
//! one op per client the throughput followed every host stall of a
//! single op, and swung by a factor of three on a loaded host.

use crate::model;
use crate::trace::SpanLog;
use crate::workload::{
    collect_done, drive, record_spans, splitmix, verify_all, OpClass, OpRecord, Outcome, RunResult,
    StatsDelta, Window, CLIENTS, WAIT_LIMIT,
};
use modmath::params::ParamSet;
use service::protoload::generate_protocol_ops;
use service::{
    ProtocolJob, ProtocolKind, ProtocolMix, ProtocolOutput, ProtocolTicket, Service, ServiceConfig,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Ring degree of every op.
pub const N: usize = 1024;
/// Ops of each kind in the pool the clients cycle through: the exact
/// shares of the standard mix (`kem:40` split between encaps and decaps,
/// `sign:30` between sign and verify, `she:20`, `mul:10`). Exact shares
/// keep the work per op from depending on the seed, and a pool of a few
/// megabytes keeps the run from depending on how much of the shared
/// last-level cache other tenants of the host leave it.
const QUOTAS: [(ProtocolKind, usize); 6] = [
    (ProtocolKind::Encaps, 40),
    (ProtocolKind::Decaps, 40),
    (ProtocolKind::Sign, 30),
    (ProtocolKind::Verify, 30),
    (ProtocolKind::SheMul, 40),
    (ProtocolKind::Mul, 20),
];
/// Leading stream ops a set-up-only process generates: enough to hold one
/// op of every kind, the same warm-up ops the full pool starts with.
pub const SETUP_OPS: usize = 64;
/// Rejection-sampling attempts of the pool's sign ops, one entry per
/// sign op: close to the quantiles of the attempt counts the signer
/// shows on random inputs (about 1 in 4 attempts is accepted), topped at
/// 12. A pool of 30 free draws would swing between about 85 and 170
/// attempts in all, and its costliest op from 9 to 22 attempts, with
/// the seed; that alone moved throughput by a third and the p99 by 2.5x.
/// With the profile, the seed picks the operands but not the work.
const SIGN_ATTEMPTS: [u32; 30] = [
    1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 12,
];
/// Hot-operand cache capacity.
pub const HOT_CAPACITY: usize = 64;
/// Ops each client keeps outstanding. A client collects whichever of its
/// ops are done before it blocks on its oldest one.
pub const WINDOW: usize = 4;

/// The seeded op pool.
pub struct Inputs {
    pool: Vec<ProtocolJob>,
}

impl Inputs {
    /// The pool under `seed`: the first ops of each kind, up to its quota,
    /// from the seeded stream, in stream order, with each sign op's
    /// masking seed re-drawn until its attempts follow [`SIGN_ATTEMPTS`]
    /// (untimed: this is the benchmark preparing inputs, not the service).
    pub fn new(seed: u64) -> Inputs {
        let total: usize = QUOTAS.iter().map(|(_, q)| q).sum();
        let stream = generate_protocol_ops(seed, 6 * total, &[N], &ProtocolMix::standard(), 0);
        let mut left = QUOTAS;
        let mut signs = 0;
        let pool: Vec<ProtocolJob> = stream
            .into_iter()
            .filter(|job| {
                let slot = left
                    .iter_mut()
                    .find(|(k, _)| *k == job.kind())
                    .expect("the standard mix emits only quota kinds");
                let take = slot.1 > 0;
                slot.1 = slot.1.saturating_sub(1);
                take
            })
            .map(|job| match job {
                ProtocolJob::Sign { .. } => {
                    signs += 1;
                    profiled_sign(seed, signs - 1, job)
                }
                other => other,
            })
            .collect();
        assert_eq!(pool.len(), total, "the stream fills every quota");
        Inputs { pool }
    }

    /// Only the leading ops of the stream: enough for [`setup`], which
    /// takes the first op of each kind, the first sign op profiled as in
    /// the full pool.
    pub fn warm_up(seed: u64) -> Inputs {
        let mut pool = generate_protocol_ops(seed, SETUP_OPS, &[N], &ProtocolMix::standard(), 0);
        if let Some(i) = pool.iter().position(|j| j.kind() == ProtocolKind::Sign) {
            let job = pool.remove(i);
            pool.insert(i, profiled_sign(seed, 0, job));
        }
        Inputs { pool }
    }

    fn job(&self, id: u64) -> (usize, &ProtocolJob) {
        let i = (id % self.pool.len() as u64) as usize;
        (i, &self.pool[i])
    }
}

/// Attempts the sign op at `slot` (in stream order) takes: a seeded
/// shuffle of [`SIGN_ATTEMPTS`], so the costly ops sit at seed-dependent
/// places in the pool.
fn sign_target(seed: u64, slot: usize) -> u32 {
    let mut order = SIGN_ATTEMPTS;
    let mut s = splitmix(seed ^ 0x7369_676e);
    for i in (1..order.len()).rev() {
        s = splitmix(s);
        order.swap(i, (s % (i as u64 + 1)) as usize);
    }
    order[slot]
}

/// `job` (a sign op) with its masking seed re-drawn from a seeded chain
/// until signing takes the attempts [`sign_target`] gives its slot.
fn profiled_sign(seed: u64, slot: usize, job: ProtocolJob) -> ProtocolJob {
    let ProtocolJob::Sign {
        key,
        message,
        seed: mut masking,
    } = job
    else {
        unreachable!("only sign ops are profiled")
    };
    let target = sign_target(seed, slot);
    loop {
        let candidate = ProtocolJob::Sign {
            key: key.clone(),
            message: message.clone(),
            seed: masking,
        };
        match candidate.run_direct().expect("direct signing") {
            ProtocolOutput::Signature { sign_attempts, .. } if sign_attempts == target => {
                return candidate
            }
            _ => masking = splitmix(masking),
        }
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        hot_capacity: HOT_CAPACITY,
        ..ServiceConfig::default()
    }
}

/// Starts the service and completes one warm-up op per protocol kind.
pub fn setup(inputs: &Inputs) -> Service {
    let svc = Service::start(service_config());
    let mut seen = Vec::new();
    let mut tickets = Vec::new();
    for job in &inputs.pool {
        if !seen.contains(&job.kind()) {
            seen.push(job.kind());
            tickets.push(svc.submit_protocol(job.clone()).expect("warm-up admitted"));
        }
    }
    for t in tickets {
        t.wait().expect("warm-up protocol op");
    }
    svc
}

/// Waits for `ticket` (at once when it is done) and fills in `r`.
fn collect(ticket: ProtocolTicket, mut r: OpRecord, window: &Window) -> OpRecord {
    r.t2 = window.now();
    let result = ticket.wait_timeout(WAIT_LIMIT);
    r.t3 = window.now();
    match result {
        Ok(done) => {
            r.queue_us = done.queue_us;
            r.service_us = done.service_us;
            r.attributed_us = done.service_us;
            r.nodes = done.nodes;
            r.digest = done.output.digest();
        }
        Err(service::ServiceError::WaitTimeout { .. }) => r.outcome = Outcome::TimedOut,
        Err(_) => r.outcome = Outcome::Failed,
    }
    r
}

fn client(svc: &Service, inputs: &Inputs, first: u64, window: Window) -> (Vec<OpRecord>, SpanLog) {
    let mut records = Vec::with_capacity(1 << 15);
    let mut spans = window.span_log();
    let mut pending: VecDeque<(ProtocolTicket, OpRecord)> = VecDeque::with_capacity(WINDOW);
    let mut id = first;
    let mut done = Vec::with_capacity(WINDOW);
    loop {
        while pending.len() < WINDOW && window.is_open() {
            let (input, job) = inputs.job(id);
            let job = job.clone();
            let mut r = OpRecord {
                id,
                class: OpClass::Proto(job.kind()),
                input: input as u32,
                ..OpRecord::default()
            };
            id += CLIENTS as u64;
            r.t0 = window.now();
            r.traced = window.traces(r.t0);
            let submitted = svc.submit_protocol(job);
            r.t1 = window.now();
            match submitted {
                Ok(t) => pending.push_back((t, r)),
                Err(_) => {
                    r.outcome = Outcome::Refused;
                    r.t3 = r.t1;
                    records.push(r);
                }
            }
        }
        if pending.is_empty() {
            break;
        }
        collect_done(
            &mut pending,
            ProtocolTicket::is_done,
            |t, r| collect(t, r, &window),
            &mut done,
        );
        for r in done.drain(..) {
            if r.traced {
                record_spans(
                    &mut spans,
                    &r,
                    "service.graph.submit",
                    "service.graph.ticket.wait",
                );
            }
            records.push(r);
        }
    }
    (records, spans)
}

/// Runs the workload: set-up, a closed-loop window of `seconds`, drain,
/// then digest-exact verification of every output against
/// `ProtocolJob::run_direct` outside the window.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunResult {
    let inputs = Inputs::new(seed);
    let t = Instant::now();
    let svc = setup(&inputs);
    let setup_s = t.elapsed().as_secs_f64();

    let before = svc.stats();
    let phase_before = cryptopim::phase::snapshot();
    let window = Window::open(seconds, traced);
    let (mut records, spans) = drive(vec![(); CLIENTS], |c, ()| client(&svc, &inputs, c, window));
    let phase = cryptopim::phase::snapshot().since(&phase_before);
    let stats = StatsDelta::between(&before, &svc.stats());
    svc.shutdown();

    let pool = inputs.pool.len();
    let mut used = vec![false; pool];
    for r in &records {
        used[r.input as usize] = true;
    }
    let expected: Vec<Option<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (inputs, used) = (&inputs, &used);
                s.spawn(move || {
                    (c..pool)
                        .step_by(CLIENTS)
                        .map(|i| {
                            let out = used[i].then(|| inputs.pool[i].run_direct());
                            (i, out.map(|o| o.expect("direct execution").digest()))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut expected = vec![None; pool];
        for h in handles {
            for (i, d) in h.join().expect("reference thread") {
                expected[i] = d;
            }
        }
        expected
    });
    verify_all(&mut records, |r| {
        expected[r.input as usize] == Some(r.digest)
    });
    let q = ParamSet::for_degree(N).expect("paper degree").q;
    RunResult {
        workload: "proto-hotkeys",
        records,
        window_ns: window.len_ns(),
        setup_s,
        stats,
        phase,
        checked: false,
        frames: None,
        leaves: vec![(model::leaf_cost(N, q), stats.admitted)],
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_holds_the_exact_mix_and_starts_with_the_warm_up_ops() {
        let inputs = Inputs::new(5);
        for (kind, quota) in QUOTAS {
            let n = inputs.pool.iter().filter(|j| j.kind() == kind).count();
            assert_eq!(n, quota, "{kind}");
        }
        let mut attempts: Vec<u32> = inputs
            .pool
            .iter()
            .filter_map(|j| match j.run_direct().unwrap() {
                ProtocolOutput::Signature { sign_attempts, .. } => Some(sign_attempts),
                _ => None,
            })
            .collect();
        attempts.sort_unstable();
        assert_eq!(attempts, SIGN_ATTEMPTS);
        let warm = Inputs::warm_up(5);
        for (kind, _) in QUOTAS {
            let first = |i: &Inputs| {
                i.pool
                    .iter()
                    .find(|j| j.kind() == kind)
                    .map(|j| j.run_direct().unwrap().digest())
            };
            assert_eq!(first(&inputs), first(&warm), "{kind}");
        }
    }
}
