//! Isolated layer timings, run only in the traced run: each calls one
//! public function of a layer in a loop, outside any service, and reports
//! the median over repetitions.

use crate::measure::{median, time_ns};
use crate::workload::{op_stream, uniform_words};
use cryptopim::accelerator::CryptoPim;
use cryptopim::batch::multiply_batch_products;
use modmath::params::ParamSet;
use net::wire::{encode_frame, read_frame};
use net::Frame;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use ntt::rns::RnsMultiplier;
use pim::par::Threads;
use service::{ProtocolJob, ProtocolKind};
use std::hint::black_box;

/// One isolated measurement: name, value, unit, and how many calls the
/// median was taken over.
pub type Kernel = (String, f64, &'static str, u64);

const REPS: usize = 15;
/// Scripted scenarios per protocol kind in the direct-latency floor.
const SCENARIOS: u64 = 16;

fn poly(seed: u64, n: usize, q: u64) -> Polynomial {
    let mut s = op_stream(seed, n as u64);
    Polynomial::from_canonical_coeffs(uniform_words(&mut s, n, q), q).expect("canonical")
}

/// Butterflies of one negacyclic multiply: three transforms of
/// `log2(n)` stages of `n/2` butterflies each.
pub fn butterflies_per_mul(n: usize) -> u64 {
    3 * u64::from(n.trailing_zeros()) * (n as u64 / 2)
}

/// Bytes one multiply moves, computed (not measured): each transform
/// stage loads and stores all `n` 8-byte words, and the pointwise pass
/// loads two vectors and stores one.
pub fn bytes_per_mul(n: usize) -> u64 {
    let n = n as u64;
    3 * u64::from(n.trailing_zeros()) * n * 8 * 2 + 3 * n * 8
}

/// The protocol kinds whose direct (host-only) latency is measured.
pub const DIRECT_KINDS: [ProtocolKind; 6] = [
    ProtocolKind::Mul,
    ProtocolKind::Encaps,
    ProtocolKind::Decaps,
    ProtocolKind::Sign,
    ProtocolKind::Verify,
    ProtocolKind::SheMul,
];

/// Runs every isolated timing under `seed`.
pub fn measure(seed: u64) -> Vec<Kernel> {
    let mut out: Vec<Kernel> = Vec::new();
    for n in [256usize, 1024, 4096] {
        let p = ParamSet::for_degree(n).expect("paper degree");
        let (a, b) = (poly(seed, n, p.q), poly(seed ^ 1, n, p.q));
        let inner = 16 * 4096 / n;
        let ntt = NttMultiplier::new(&p).expect("paper parameters");
        let calls = (REPS * inner) as u64;
        out.push((
            format!("ntt.multiply_ns.n{n}"),
            time_ns(inner, REPS, inner, || {
                black_box(
                    ntt.multiply(black_box(&a), black_box(&b))
                        .expect("multiply"),
                );
            }),
            "ns",
            calls,
        ));
        if n == 1024 {
            out.push((
                "ntt.forward_ns.n1024".into(),
                time_ns(inner, REPS, inner, || {
                    black_box(ntt.forward(black_box(&a)).expect("forward"));
                }),
                "ns",
                calls,
            ));
            let spec = ntt.forward(&a).expect("forward");
            out.push((
                "ntt.inverse_ns.n1024".into(),
                time_ns(inner, REPS, inner, || {
                    black_box(ntt.inverse(black_box(spec.clone())).expect("inverse"));
                }),
                "ns",
                calls,
            ));
        }
        let acc = CryptoPim::new(&p)
            .expect("paper accelerator")
            .with_threads(Threads::Fixed(1));
        let inner = (inner / 4).max(1);
        out.push((
            format!("cryptopim.engine.multiply_product_ns.n{n}"),
            time_ns(inner, REPS, inner, || {
                black_box(
                    acc.multiply_product(black_box(&a), black_box(&b))
                        .expect("engine"),
                );
            }),
            "ns",
            (REPS * inner) as u64,
        ));
        if n == 1024 {
            let pairs: Vec<(Polynomial, Polynomial)> = (0..4u64)
                .map(|i| (poly(seed ^ (2 + i), n, p.q), poly(seed ^ (9 + i), n, p.q)))
                .collect();
            out.push((
                "cryptopim.batch.ns_per_job.n1024x4".into(),
                time_ns(inner, REPS, inner, || {
                    black_box(multiply_batch_products(&acc, black_box(&pairs)).expect("batch"));
                }) / 4.0,
                "ns",
                (REPS * inner * 4) as u64,
            ));
        }
    }

    let rns = RnsMultiplier::with_discovered_basis(4096, 2, 1 << 20).expect("wide basis");
    let big_q = rns.modulus();
    let wide = |salt: u64| -> Vec<u128> {
        let mut s = op_stream(seed ^ salt, 4096);
        (0..4096)
            .map(|_| {
                s = crate::workload::splitmix(s);
                (u128::from(s) * big_q) >> 64
            })
            .collect()
    };
    let jobs: Vec<(Vec<u128>, Vec<u128>)> =
        (0..4u64).map(|i| (wide(2 * i), wide(2 * i + 1))).collect();
    out.push((
        "ntt.rns_multiply_ns.n4096k2".into(),
        time_ns(4, REPS, 4, || {
            black_box(
                rns.multiply(black_box(&jobs[0].0), black_box(&jobs[0].1))
                    .expect("rns"),
            );
        }),
        "ns",
        (REPS * 4) as u64,
    ));
    out.push((
        "ntt.rns_batch_ns_per_job.n4096k2".into(),
        time_ns(2, REPS, 2, || {
            black_box(rns.multiply_batch(black_box(&jobs)).expect("rns batch"));
        }) / 4.0,
        "ns",
        (REPS * 2 * 4) as u64,
    ));

    let q256 = ParamSet::for_degree(256).expect("paper degree").q;
    let words = |salt| uniform_words(&mut op_stream(seed ^ salt, 256), 256, q256);
    let submit = Frame::Submit {
        job_id: 7,
        q: q256,
        a: words(1),
        b: words(2),
    };
    let done = encode_frame(&Frame::Done {
        job_id: 7,
        q: q256,
        product: words(3),
        queue_us: 10,
        service_us: 20,
        attempts: 1,
    });
    out.push((
        "net.wire.encode_ns.submit_n256".into(),
        time_ns(256, REPS, 256, || {
            black_box(encode_frame(black_box(&submit)));
        }),
        "ns",
        (REPS * 256) as u64,
    ));
    out.push((
        "net.wire.decode_ns.done_n256".into(),
        time_ns(256, REPS, 256, || {
            black_box(read_frame(&mut black_box(done.as_slice())).expect("decode"));
        }),
        "ns",
        (REPS * 256) as u64,
    ));

    // Scenario cost varies with its seed (signing retries on rejection),
    // so each kind's floor is the median over several scenarios.
    for kind in DIRECT_KINDS {
        let jobs: Vec<ProtocolJob> = (0..SCENARIOS)
            .map(|i| ProtocolJob::scripted(kind, 1024, seed.wrapping_add(i)).expect("scenario"))
            .collect();
        let samples: Vec<f64> = jobs
            .iter()
            .map(|job| {
                time_ns(1, 3, 1, || {
                    black_box(job.run_direct().expect("direct execution"));
                }) / 1e3
            })
            .collect();
        out.push((
            format!("rlwe.direct_us.{kind}"),
            median(&samples).expect("scenarios > 0"),
            "us",
            SCENARIOS * 3,
        ));
    }

    for n in [256usize, 1024, 4096] {
        out.push((
            format!("ntt.butterflies_per_mul.n{n}"),
            butterflies_per_mul(n) as f64,
            "count",
            1,
        ));
        out.push((
            format!("ntt.bytes_per_mul.n{n}"),
            bytes_per_mul(n) as f64,
            "bytes",
            1,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_counts() {
        // n = 1024: 3 transforms x 10 stages x 512 butterflies.
        assert_eq!(butterflies_per_mul(1024), 15_360);
        assert_eq!(bytes_per_mul(256), 3 * 8 * 256 * 16 + 3 * 256 * 8);
    }
}
