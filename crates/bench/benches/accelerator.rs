//! Criterion benchmarks of the PIM simulator itself: how fast the
//! functional engine executes accelerated multiplications (host-side
//! simulation throughput, not modeled hardware time), plus the analytic
//! report path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cryptopim::accelerator::CryptoPim;
use modmath::params::ParamSet;
use ntt::poly::Polynomial;

fn poly(n: usize, q: u64, seed: u64) -> Polynomial {
    let mut state = seed;
    let coeffs: Vec<u64> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 16) % q
        })
        .collect();
    Polynomial::from_coeffs(coeffs, q).expect("valid degree")
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("pim_engine_multiply");
    group.sample_size(10);
    for n in [256usize, 1024, 4096] {
        let p = ParamSet::for_degree(n).expect("paper degree");
        let acc = CryptoPim::new(&p).expect("paper parameters");
        let a = poly(n, p.q, 1);
        let b = poly(n, p.q, 2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bch, _| {
            bch.iter(|| {
                acc.multiply_with_trace(std::hint::black_box(&a), std::hint::black_box(&b))
                    .expect("multiply")
            });
        });
    }
    group.finish();
}

fn bench_report(c: &mut Criterion) {
    c.bench_function("analytic_report_32k", |b| {
        let p = ParamSet::for_degree(32768).expect("paper degree");
        let acc = CryptoPim::new(&p).expect("paper parameters");
        b.iter(|| acc.report().expect("report"));
    });
}

criterion_group!(benches, bench_engine, bench_report);
criterion_main!(benches);
