//! `mul-checked`: in-process raw multiplies at the three paper degrees in
//! equal shares, one op in eight a 2-residue wide multiply at n = 1024,
//! every product re-derived by the Recompute referee, hot cache on.
//!
//! Operands are fresh per op (derived from the seed and the op id), so the
//! hot cache only ever misses and inserts. Two client threads each keep
//! [`WINDOW`] tickets outstanding, deep enough that the `(n, q)` batch
//! former packs more than one job per batch. A client collects whichever
//! tickets are done before it blocks on its oldest one.

use crate::model::{self, LeafCost};
use crate::trace::SpanLog;
use crate::workload::{
    collect_done, drive, op_stream, record_spans, splitmix, uniform_words, verify_all, OpClass,
    OpRecord, Outcome, RunResult, StatsDelta, Window, CLIENTS, WAIT_LIMIT,
};
use crate::workload::{digest_wide, digest_words};
use cryptopim::check::CheckPolicy;
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use ntt::rns::RnsMultiplier;
use service::{JobTicket, Service, ServiceConfig, WideTicket};
use std::collections::VecDeque;
use std::time::Instant;

/// The paper degrees, in equal shares.
pub const DEGREES: [usize; 3] = [256, 1024, 4096];
/// Degree of the wide ops.
pub const WIDE_N: usize = 1024;
/// Ops are dealt in shuffled blocks of 24: 7 per degree plus 3 wide, so
/// the shares are exact (one in eight wide) over every whole block.
const BLOCK: usize = 24;
const WIDE_PER_BLOCK: usize = 3;
/// Tickets each client keeps outstanding. A queue this deep keeps both
/// workers busy through a stall of either client: in alternating runs on
/// a loaded 2-core host, the throughput spread by 0.14 of its median at 8
/// tickets and by 0.04 at 16.
pub const WINDOW: usize = 32;
/// Hot-operand cache capacity.
pub const HOT_CAPACITY: usize = 64;

/// Seed-derived inputs shared by the clients and the verifier.
pub struct Inputs {
    seed: u64,
    qs: [u64; 3],
    basis: RnsBasis,
}

enum Op {
    Raw(Polynomial, Polynomial),
    Wide(Vec<u128>, Vec<u128>),
}

enum Ticket {
    Raw(JobTicket),
    Wide(WideTicket),
}

impl Inputs {
    /// Inputs of the workload under `seed`.
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            seed,
            qs: DEGREES.map(|n| ParamSet::for_degree(n).expect("paper degree").q),
            basis: RnsBasis::discover(WIDE_N, 2, 1 << 20).expect("a 2-residue basis exists"),
        }
    }

    /// Class and degree of op `id`: its slot in a seed-shuffled block.
    fn class(&self, id: u64) -> (OpClass, usize) {
        let block = id / BLOCK as u64;
        let mut perm: [u8; BLOCK] = std::array::from_fn(|i| i as u8);
        let mut s = splitmix(self.seed ^ block.wrapping_mul(0xa076_1d64_78bd_642f));
        for i in (1..BLOCK).rev() {
            s = splitmix(s);
            perm.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let slot = perm[(id % BLOCK as u64) as usize] as usize;
        if slot >= BLOCK - WIDE_PER_BLOCK {
            (OpClass::Wide, WIDE_N)
        } else {
            (
                OpClass::Raw,
                DEGREES[slot * DEGREES.len() / (BLOCK - WIDE_PER_BLOCK)],
            )
        }
    }

    fn op(&self, id: u64) -> Op {
        let (class, n) = self.class(id);
        let mut s = op_stream(self.seed, id);
        match class {
            OpClass::Wide => {
                let big_q = self.basis.modulus();
                let mut draw = || -> Vec<u128> {
                    (0..n)
                        .map(|_| {
                            s = splitmix(s);
                            (u128::from(s) * big_q) >> 64
                        })
                        .collect()
                };
                let a = draw();
                Op::Wide(a, draw())
            }
            _ => {
                let q = self.qs[DEGREES.iter().position(|&d| d == n).expect("paper degree")];
                let a = uniform_words(&mut s, n, q);
                let b = uniform_words(&mut s, n, q);
                Op::Raw(
                    Polynomial::from_canonical_coeffs(a, q).expect("canonical"),
                    Polynomial::from_canonical_coeffs(b, q).expect("canonical"),
                )
            }
        }
    }

    /// Modeled cost per leaf multiply, weighted by the exact block mix:
    /// 7 multiplies at each paper degree and 3 wide ops of one multiply
    /// per residue.
    pub fn leaves(&self) -> Vec<(LeafCost, u64)> {
        let per_degree = ((BLOCK - WIDE_PER_BLOCK) / DEGREES.len()) as u64;
        let mut leaves: Vec<(LeafCost, u64)> = DEGREES
            .iter()
            .zip(self.qs)
            .map(|(&n, q)| (model::leaf_cost(n, q), per_degree))
            .collect();
        for &q in self.basis.moduli() {
            leaves.push((model::leaf_cost(WIDE_N, q), WIDE_PER_BLOCK as u64));
        }
        leaves
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        check: CheckPolicy::Recompute,
        hot_capacity: HOT_CAPACITY,
        ..ServiceConfig::default()
    }
}

/// Starts the service and completes one warm-up op per `(n, q)` (each
/// paper degree, and the wide basis).
pub fn setup(inputs: &Inputs) -> Service {
    let svc = Service::start(service_config());
    let mut tickets = Vec::new();
    let mut wide = None;
    // Warm-up ids live far above any id a window reaches.
    for id in (u64::MAX - 4 * BLOCK as u64)..u64::MAX {
        let (class, n) = inputs.class(id);
        let needed = match class {
            OpClass::Wide => wide.is_none(),
            _ => !tickets.iter().any(|(d, _)| *d == n),
        };
        if !needed {
            continue;
        }
        match inputs.op(id) {
            Op::Raw(a, b) => tickets.push((n, svc.submit(a, b).expect("warm-up admitted"))),
            Op::Wide(a, b) => {
                wide = Some(
                    svc.submit_wide(&a, &b, &inputs.basis)
                        .expect("warm-up admitted"),
                );
            }
        }
    }
    assert_eq!(tickets.len(), DEGREES.len(), "warm-up covers every degree");
    for (_, t) in tickets {
        t.wait().expect("warm-up multiply");
    }
    wide.expect("warm-up covers the wide basis")
        .wait()
        .expect("warm-up wide multiply");
    svc
}

impl Ticket {
    fn is_done(&self) -> bool {
        match self {
            Ticket::Raw(t) => t.is_done(),
            Ticket::Wide(t) => t.is_done(),
        }
    }
}

/// Waits for `ticket` (at once when it is done) and fills in `r`.
fn collect(ticket: Ticket, mut r: OpRecord, window: &Window) -> OpRecord {
    r.t2 = window.now();
    match ticket {
        Ticket::Raw(t) => match t.wait_timeout(WAIT_LIMIT) {
            Ok(done) => {
                r.t3 = window.now();
                r.queue_us = done.queue_us;
                r.service_us = done.service_us;
                r.attributed_us = done.queue_us + done.service_us;
                r.nodes = 1;
                r.digest = digest_words(done.product.coeffs().iter().copied());
            }
            Err(service::ServiceError::WaitTimeout { .. }) => {
                r.t3 = window.now();
                r.outcome = Outcome::TimedOut;
            }
            Err(_) => {
                r.t3 = window.now();
                r.outcome = Outcome::Failed;
            }
        },
        Ticket::Wide(t) => match t.wait() {
            Ok(done) => {
                r.t3 = window.now();
                let lane_end = done
                    .lanes
                    .iter()
                    .map(|l| l.queue_us + l.service_us)
                    .fold(0.0, f64::max);
                r.queue_us = done.lanes.iter().map(|l| l.queue_us).fold(0.0, f64::max);
                r.service_us = lane_end - r.queue_us;
                r.recombine_us = done.recombine_us;
                r.attributed_us = lane_end + done.recombine_us;
                r.nodes = done.lanes.len() as u32;
                r.digest = digest_wide(&done.product);
            }
            Err(_) => {
                r.t3 = window.now();
                r.outcome = Outcome::Failed;
            }
        },
    }
    r
}

fn client(svc: &Service, inputs: &Inputs, first: u64, window: Window) -> (Vec<OpRecord>, SpanLog) {
    let mut records = Vec::with_capacity(1 << 15);
    let mut spans = window.span_log();
    let mut pending: VecDeque<(Ticket, OpRecord)> = VecDeque::with_capacity(WINDOW);
    let mut next = first;
    let mut done = Vec::with_capacity(WINDOW);
    loop {
        while pending.len() < WINDOW && window.is_open() {
            let id = next;
            next += CLIENTS as u64;
            let class = inputs.class(id).0;
            let op = inputs.op(id);
            let mut r = OpRecord {
                id,
                class,
                ..OpRecord::default()
            };
            r.t0 = window.now();
            r.traced = window.traces(r.t0);
            let submitted = match op {
                Op::Raw(a, b) => svc.submit(a, b).map(Ticket::Raw),
                Op::Wide(a, b) => svc.submit_wide(&a, &b, &inputs.basis).map(Ticket::Wide),
            };
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
            Ticket::is_done,
            |t, r| collect(t, r, &window),
            &mut done,
        );
        for r in done.drain(..) {
            if r.traced {
                let submit = match r.class {
                    OpClass::Wide => "service.scheduler.submit_wide",
                    _ => "service.scheduler.submit",
                };
                record_spans(&mut spans, &r, submit, "service.ticket.wait");
            }
            records.push(r);
        }
    }
    (records, spans)
}

/// Runs the workload: set-up, a closed-loop window of `seconds`, drain,
/// then bit-for-bit verification of every product outside the window.
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

    let ntts: Vec<NttMultiplier> = DEGREES
        .iter()
        .map(|&n| NttMultiplier::new(&ParamSet::for_degree(n).expect("paper degree")))
        .collect::<Result<_, _>>()
        .expect("paper parameters");
    let rns = RnsMultiplier::with_basis(WIDE_N, inputs.basis.clone()).expect("wide basis");
    verify_all(&mut records, |r| match inputs.op(r.id) {
        Op::Raw(a, b) => {
            let i = DEGREES
                .iter()
                .position(|&d| d == a.degree_bound())
                .expect("degree");
            let want = ntts[i].multiply(&a, &b).expect("reference multiply");
            digest_words(want.coeffs().iter().copied()) == r.digest
        }
        Op::Wide(a, b) => {
            digest_wide(&rns.multiply(&a, &b).expect("reference wide multiply")) == r.digest
        }
    });
    RunResult {
        workload: "mul-checked",
        records,
        window_ns: window.len_ns(),
        setup_s,
        stats,
        phase,
        checked: true,
        frames: None,
        leaves: inputs.leaves(),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_hold_exact_shares() {
        let inputs = Inputs::new(11);
        let mut counts = [0usize; 4];
        for id in 0..(BLOCK as u64 * 5) {
            match inputs.class(id) {
                (OpClass::Wide, n) => {
                    assert_eq!(n, WIDE_N);
                    counts[3] += 1;
                }
                (_, n) => counts[DEGREES.iter().position(|&d| d == n).unwrap()] += 1,
            }
        }
        assert_eq!(counts, [35, 35, 35, 15]);
        // Another seed deals the same shares in another order.
        let other = Inputs::new(12);
        assert!((0..BLOCK as u64).any(|id| other.class(id) != inputs.class(id)));
    }
}
