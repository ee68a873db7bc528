//! Turns run results into named metrics: end-to-end (untraced run) and
//! per-layer (traced run), each with its unit and base count.

use crate::kernels::{Kernel, DIRECT_KINDS};
use crate::measure::{mean, median, nearest_rank, sorted, tail_quantile};
use crate::model;
use crate::trace::self_time_by_name;
use crate::workload::{OpClass, OpRecord, RunResult, SLICE_NS};
use service::ProtocolKind;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples or events the value is computed over.
    pub base: u64,
    /// Which run the value came from.
    pub source: &'static str,
}

fn in_window(r: &RunResult) -> impl Iterator<Item = &OpRecord> {
    r.records
        .iter()
        .filter(move |o| o.verified && o.t3 <= r.window_ns)
}

fn slice_seconds(r: &RunResult, i: u64) -> f64 {
    (((i + 1) * SLICE_NS).min(r.window_ns) - i * SLICE_NS) as f64 / 1e9
}

/// Verified completions per second in each whole second of the window,
/// printed to show how steady the host was while the run measured.
pub fn per_second_throughput(r: &RunResult) -> Vec<f64> {
    let count = r.window_ns.div_ceil(SLICE_NS).max(1);
    let mut ops = vec![0u64; count as usize];
    for o in in_window(r) {
        ops[(o.t3 / SLICE_NS).min(count - 1) as usize] += 1;
    }
    (0..count)
        .map(|i| ops[i as usize] as f64 / slice_seconds(r, i))
        .collect()
}

/// Shortest sub-window the wall-clock end-to-end metrics are taken over.
pub const SUB_WINDOW_NS: u64 = 5_000_000_000;

/// Throughput and exact latency percentiles of the verified ops that
/// completed in one sub-window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubWindow {
    /// Verified ops completed.
    pub ops: u64,
    /// Verified ops completed, per second of the sub-window.
    pub throughput: f64,
    /// Exact p50 latency, µs; `None` when no op completed.
    pub p50: Option<f64>,
    /// Exact p99 latency, µs; `None` unless ten samples lie beyond it.
    pub p99: Option<f64>,
}

/// The window cut into as many equal sub-windows of at least
/// [`SUB_WINDOW_NS`] as fit (left whole when it is shorter), each with
/// the figures of the verified ops that completed in it.
pub fn sub_windows(r: &RunResult) -> Vec<SubWindow> {
    let count = (r.window_ns / SUB_WINDOW_NS).max(1);
    let mut lat = vec![Vec::new(); count as usize];
    for o in in_window(r) {
        let i = (u128::from(o.t3) * u128::from(count) / u128::from(r.window_ns.max(1)))
            .min(u128::from(count - 1));
        lat[i as usize].push(o.latency_us());
    }
    let seconds = r.window_ns as f64 / 1e9 / count as f64;
    lat.iter().map(|v| figures(v, seconds)).collect()
}

fn figures(latencies: &[f64], seconds: f64) -> SubWindow {
    let v = sorted(latencies);
    SubWindow {
        ops: v.len() as u64,
        throughput: v.len() as f64 / seconds,
        p50: nearest_rank(&v, 0.5),
        p99: tail_quantile(&v, 0.99),
    }
}

/// Throughput and exact p50/p99 over the whole window, printed next to
/// the reported sub-window figures.
pub fn whole_window(r: &RunResult) -> SubWindow {
    let v: Vec<f64> = in_window(r).map(OpRecord::latency_us).collect();
    figures(&v, r.window_ns as f64 / 1e9)
}

/// The end-to-end metrics of an untraced run. Each wall-clock figure is
/// the best of the window's 5 s sub-windows ([`sub_windows`]): the
/// highest throughput and the lowest exact p50. On a shared host, other
/// tenants' load only ever slows a sub-window down, so the best one is
/// the figure least disturbed by it, as the minimum of repeated timings
/// is; a change in the program moves every sub-window. The p99 is printed
/// per sub-window, not reported: host stalls move it by more than a
/// quarter between runs of the same code. `setups` are the set-up times
/// of every cold start made for this run.
pub fn end_to_end(r: &RunResult, setups: &[f64]) -> Result<Vec<Metric>, String> {
    if in_window(r).next().is_none() {
        return Err("no verified op completed inside the window".into());
    }
    let subs = sub_windows(r);
    let fastest = subs
        .iter()
        .max_by(|a, b| a.throughput.total_cmp(&b.throughput))
        .expect("at least one sub-window");
    let (p50, p50_ops) = subs
        .iter()
        .filter_map(|w| Some((w.p50?, w.ops)))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("samples are non-empty");
    let attempted = r.records.len() as u64;
    let verified = r.records.iter().filter(|o| o.verified).count() as u64;
    let pim = model::weighted(&r.leaves).ok_or("no leaf multiplies to weight")?;
    let leaves: u64 = r.leaves.iter().map(|(_, c)| c).sum();
    let m = |name: &str, value: f64, unit: &'static str, base: u64| Metric {
        name: name.into(),
        value,
        unit,
        base,
        source: r.workload,
    };
    Ok(vec![
        m("throughput_ops_s", fastest.throughput, "ops/s", fastest.ops),
        m("latency_p50_us", p50, "us", p50_ops),
        m(
            "success_rate",
            verified as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
        m(
            "setup_s",
            median(setups).ok_or("no set-up time")?,
            "s",
            setups.len() as u64,
        ),
        m("pim_latency_us_per_mul", pim.latency_us, "sim_us", leaves),
        m("pim_energy_uj_per_mul", pim.energy_uj, "sim_uJ", leaves),
    ])
}

type Probe = Box<dyn Fn(&RunResult) -> Option<(f64, u64)>>;

fn traced(r: &RunResult, class: fn(OpClass) -> bool) -> impl Iterator<Item = &OpRecord> {
    in_window(r).filter(move |o| o.traced && class(o.class))
}

fn p50_of(values: Vec<f64>) -> Option<(f64, u64)> {
    let n = values.len() as u64;
    nearest_rank(&sorted(&values), 0.5).map(|v| (v, n))
}

fn is_raw(c: OpClass) -> bool {
    c == OpClass::Raw
}

fn is_proto(c: OpClass) -> bool {
    matches!(c, OpClass::Proto(_))
}

fn in_process(r: &RunResult) -> bool {
    r.frames.is_none()
}

fn served_p50(r: &RunResult, kind: ProtocolKind) -> Option<(f64, u64)> {
    if !in_process(r) {
        return None;
    }
    p50_of(
        traced(r, is_proto)
            .filter(|o| o.class == OpClass::Proto(kind))
            .map(OpRecord::latency_us)
            .collect(),
    )
}

/// Per-layer metrics measured on the traffic of one run.
fn traffic_probes() -> Vec<(String, &'static str, Probe)> {
    type Plain = fn(&RunResult) -> Option<(f64, u64)>;
    let plain: Vec<(&str, &'static str, Plain)> = vec![
        ("net.client.submit_us.p50", "us", |r| {
            r.frames?;
            p50_of(
                traced(r, |_| true)
                    .map(|o| (o.t1 - o.t0) as f64 / 1e3)
                    .collect(),
            )
        }),
        ("net.client.wait_us.p50", "us", |r| {
            r.frames?;
            p50_of(
                traced(r, |_| true)
                    .map(|o| (o.t3 - o.t2) as f64 / 1e3)
                    .collect(),
            )
        }),
        ("net.overhead_us.p50", "us", |r| {
            r.frames?;
            p50_of(
                traced(r, |_| true)
                    .map(|o| o.latency_us() - o.attributed_us)
                    .collect(),
            )
        }),
        ("net.frames_per_op", "count", |r| {
            let (frames, ops) = (r.frames?, r.records.len() as u64);
            (ops > 0).then(|| (frames as f64 / ops as f64, ops))
        }),
        ("service.scheduler.submit_us.p50", "us", |r| {
            in_process(r).then_some(())?;
            p50_of(
                traced(r, is_raw)
                    .map(|o| (o.t1 - o.t0) as f64 / 1e3)
                    .collect(),
            )
        }),
        ("service.scheduler.queue_us.p50", "us", |r| {
            in_process(r).then_some(())?;
            p50_of(traced(r, is_raw).map(|o| o.queue_us).collect())
        }),
        ("service.scheduler.queue_us.p99", "us", |r| {
            in_process(r).then_some(())?;
            let v: Vec<f64> = traced(r, is_raw).map(|o| o.queue_us).collect();
            tail_quantile(&sorted(&v), 0.99).map(|p| (p, v.len() as u64))
        }),
        ("service.scheduler.batch_us.p50", "us", |r| {
            in_process(r).then_some(())?;
            p50_of(traced(r, is_raw).map(|o| o.service_us).collect())
        }),
        ("service.scheduler.wake_us.p50", "us", |r| {
            in_process(r).then_some(())?;
            p50_of(
                traced(r, is_raw)
                    .map(|o| o.latency_us() - o.queue_us - o.service_us)
                    .collect(),
            )
        }),
        ("service.scheduler.occupancy", "jobs", |r| {
            let b = r.stats.batches;
            (b > 0).then(|| (r.stats.batch_jobs / b as f64, b))
        }),
        ("service.scheduler.flush_full_frac", "ratio", |r| {
            let b = r.stats.batches;
            (b > 0).then(|| (r.stats.full as f64 / b as f64, b))
        }),
        ("service.scheduler.flush_lingered_frac", "ratio", |r| {
            let b = r.stats.batches;
            (b > 0).then(|| (r.stats.lingered as f64 / b as f64, b))
        }),
        ("service.scheduler.flush_eager_frac", "ratio", |r| {
            let b = r.stats.batches;
            (b > 0).then(|| (r.stats.eager as f64 / b as f64, b))
        }),
        ("service.scheduler.retries", "count", |r| {
            (r.stats.batches > 0).then_some((r.stats.retries as f64, r.stats.batches))
        }),
        ("service.graph.submit_us.p50", "us", |r| {
            in_process(r).then_some(())?;
            p50_of(
                traced(r, is_proto)
                    .map(|o| (o.t1 - o.t0) as f64 / 1e3)
                    .collect(),
            )
        }),
        ("service.graph.queue_us.p50", "us", |r| {
            in_process(r).then_some(())?;
            p50_of(traced(r, is_proto).map(|o| o.queue_us).collect())
        }),
        ("service.graph.leaf_muls_per_op", "count", |r| {
            in_process(r).then_some(())?;
            let nodes: Vec<f64> = in_window(r)
                .filter(|o| is_proto(o.class))
                .map(|o| f64::from(o.nodes))
                .collect();
            mean(&nodes).map(|m| (m, nodes.len() as u64))
        }),
        ("cryptopim.engine.ns_per_mul", "ns", |r| {
            let c = r.stats.completed;
            (c > 0).then(|| (r.phase.engine_ns as f64 / c as f64, c))
        }),
        ("cryptopim.check.transform_ns_per_mul", "ns", |r| {
            let c = r.stats.completed;
            (r.checked && c > 0).then(|| (r.phase.check_transform_ns as f64 / c as f64, c))
        }),
        ("cryptopim.check.pointwise_ns_per_mul", "ns", |r| {
            let c = r.stats.completed;
            (r.checked && c > 0).then(|| (r.phase.check_pointwise_ns as f64 / c as f64, c))
        }),
        ("cryptopim.check.compare_ns_per_mul", "ns", |r| {
            let c = r.stats.completed;
            (r.checked && c > 0).then(|| (r.phase.check_compare_ns as f64 / c as f64, c))
        }),
        ("cryptopim.hotcache.hit_rate", "ratio", |r| {
            let looked = r.stats.hot_hits + r.stats.hot_misses;
            (looked > 0).then(|| (r.stats.hot_hits as f64 / looked as f64, looked))
        }),
        ("modmath.crt.recombine_us_per_wide", "us", |r| {
            let v: Vec<f64> = in_window(r)
                .filter(|o| o.class == OpClass::Wide)
                .map(|o| o.recombine_us)
                .collect();
            mean(&v).map(|m| (m, v.len() as u64))
        }),
    ];
    let mut v: Vec<(String, &'static str, Probe)> = plain
        .into_iter()
        .map(|(name, unit, f)| (name.to_string(), unit, Box::new(f) as Probe))
        .collect();
    // One latency probe per served kind; `overhead_x` is derived below.
    for kind in DIRECT_KINDS {
        let probe = move |r: &RunResult| served_p50(r, kind);
        v.push((
            format!("service.graph.latency_us.{kind}.p50"),
            "us",
            Box::new(probe),
        ));
    }
    v
}

/// Layer-sum check of one run's traced ops: mean client latency, mean
/// time some layer reports, and the unattributed residual.
pub fn layer_sum(r: &RunResult) -> Option<(f64, f64, u64)> {
    let ops: Vec<&OpRecord> = traced(r, |_| true).collect();
    let lat: f64 = ops.iter().map(|o| o.latency_us()).sum();
    let attributed: f64 = ops.iter().map(|o| o.attributed_us).sum();
    (!ops.is_empty() && lat > 0.0).then(|| {
        let n = ops.len() as f64;
        (lat / n, (lat - attributed) / n, ops.len() as u64)
    })
}

/// Tracing overhead of one traced run: (latency p50 change, throughput
/// loss), both as fractions of the untraced value. Latency compares the
/// traced ops with the untraced ones; throughput compares completions in
/// the traced (odd) seconds with those in the untraced (even) seconds.
pub fn tracing_overhead(r: &RunResult) -> Option<(f64, f64, u64)> {
    let mut lat: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut ops = [0u64; 2];
    for o in in_window(r) {
        lat[usize::from(o.traced)].push(o.latency_us());
        ops[((o.t3 / SLICE_NS) % 2) as usize] += 1;
    }
    let mut secs = [0.0; 2];
    for i in 0..r.window_ns.div_ceil(SLICE_NS) {
        secs[(i % 2) as usize] += slice_seconds(r, i);
    }
    let p50 = |v: &[f64]| nearest_rank(&sorted(v), 0.5);
    let (off, on) = (p50(&lat[0])?, p50(&lat[1])?);
    let thr = |k: usize| ops[k] as f64 / secs[k];
    Some((
        on / off - 1.0,
        1.0 - thr(1) / thr(0),
        (lat[0].len() + lat[1].len()) as u64,
    ))
}

/// Every per-layer metric of a traced run. Traffic metrics come from the
/// main run when it exercises the layer, otherwise from the first probe
/// run that does; isolated timings come from `kernels`.
pub fn per_layer(main: &RunResult, probes: &[RunResult], kernels: &[Kernel]) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, unit, probe) in traffic_probes() {
        let found = std::iter::once(main)
            .chain(probes)
            .find_map(|r| probe(r).map(|(v, b)| (v, b, r.workload)));
        if let Some((value, base, source)) = found {
            out.push(Metric {
                name,
                value,
                unit,
                base,
                source,
            });
        }
    }
    for (name, value, unit, base) in kernels {
        out.push(Metric {
            name: name.clone(),
            value: *value,
            unit,
            base: *base,
            source: "isolated",
        });
    }
    let get = |out: &[Metric], name: &str| out.iter().find(|m| m.name == name).cloned();
    for kind in DIRECT_KINDS {
        let served = get(&out, &format!("service.graph.latency_us.{kind}.p50"));
        let direct = get(&out, &format!("rlwe.direct_us.{kind}"));
        if let (Some(s), Some(d)) = (served, direct) {
            out.push(Metric {
                name: format!("service.graph.overhead_x.{kind}"),
                value: s.value / d.value,
                unit: "ratio",
                base: s.base,
                source: s.source,
            });
        }
    }
    if let Some((lat, residual, base)) = layer_sum(main) {
        out.push(metric(
            "trace.unattributed_us.mean",
            residual,
            "us",
            base,
            main,
        ));
        out.push(metric(
            "trace.unattributed_share",
            residual / lat,
            "ratio",
            base,
            main,
        ));
    }
    if let Some((p50, thr, base)) = tracing_overhead(main) {
        out.push(metric(
            "trace.overhead_latency_p50_frac",
            p50,
            "ratio",
            base,
            main,
        ));
        out.push(metric(
            "trace.overhead_throughput_frac",
            thr,
            "ratio",
            base,
            main,
        ));
    }
    let ratio = |out: &[Metric], a: &str, b: &str| -> Option<(f64, u64)> {
        Some((get(out, a)?.value / get(out, b)?.value, get(out, a)?.base))
    };
    let derived = [
        (
            "anomaly.rns_fused_over_seq.n4096k2",
            ratio(
                &out,
                "ntt.rns_batch_ns_per_job.n4096k2",
                "ntt.rns_multiply_ns.n4096k2",
            ),
        ),
        (
            "anomaly.forward_share.n1024",
            ratio(&out, "ntt.forward_ns.n1024", "ntt.multiply_ns.n1024"),
        ),
        (
            "anomaly.check_over_engine",
            std::iter::once(main)
                .chain(probes)
                .find(|r| r.checked && r.phase.engine_ns > 0)
                .map(|r| {
                    (
                        r.phase.check_total_ns() as f64 / r.phase.engine_ns as f64,
                        r.stats.completed,
                    )
                }),
        ),
    ];
    for (name, v) in derived {
        if let Some((value, base)) = v {
            out.push(Metric {
                name: name.into(),
                value,
                unit: "ratio",
                base,
                source: "derived",
            });
        }
    }
    out
}

fn metric(name: &str, value: f64, unit: &'static str, base: u64, r: &RunResult) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        base,
        source: r.workload,
    }
}

/// Human-readable layer-sum and self-time tables of a traced run.
pub fn trace_tables(r: &RunResult) -> String {
    let mut s = String::new();
    if let Some((lat, residual, base)) = layer_sum(r) {
        let _ = writeln!(
            s,
            "layer sum ({} traced ops): client latency mean {:.1} us = layer-reported {:.1} us \
             + unattributed {:.1} us ({:.1}%)",
            base,
            lat,
            lat - residual,
            residual,
            100.0 * residual / lat
        );
    }
    let leaves: u64 = r.records.iter().map(|o| u64::from(o.nodes)).sum();
    let _ = writeln!(
        s,
        "leaf multiplies: {leaves} reported by the ops, {} admitted by the scheduler, \
         {} retries",
        r.stats.admitted, r.stats.retries
    );
    let spans: Vec<_> = r
        .spans
        .iter()
        .flat_map(|l| l.spans().iter().copied())
        .collect();
    let dropped: u64 = r.spans.iter().map(|l| l.dropped()).sum();
    let _ = writeln!(
        s,
        "self time by span ({} spans, {dropped} dropped):",
        spans.len()
    );
    for (name, (count, dur, own)) in self_time_by_name(&spans) {
        let _ = writeln!(
            s,
            "  {name:<32} n={count:<8} mean {:>10.2} us  self {:>10.2} us",
            dur as f64 / count as f64 / 1e3,
            own as f64 / count as f64 / 1e3
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run whose verified ops complete at the given ns offsets, each
    /// with latency `lat_us`.
    fn run(window_ns: u64, completions: &[(u64, usize)], lat_us: f64) -> RunResult {
        let mut records = Vec::new();
        for &(t3, count) in completions {
            for _ in 0..count {
                records.push(OpRecord {
                    t0: t3 - (lat_us * 1e3) as u64,
                    t3,
                    verified: true,
                    ..OpRecord::default()
                });
            }
        }
        RunResult {
            records,
            window_ns,
            leaves: vec![(
                model::LeafCost {
                    latency_us: 1.0,
                    energy_uj: 1.0,
                },
                1,
            )],
            ..RunResult::default()
        }
    }

    #[test]
    fn per_second_throughput_counts_each_whole_second() {
        let r = run(
            2_500_000_000,
            &[
                (500_000_000, 1500),
                (1_500_000_000, 500),
                (2_200_000_000, 200),
            ],
            100.0,
        );
        assert_eq!(per_second_throughput(&r), [1500.0, 500.0, 400.0]);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let r = run(1_000_000_000, &[(500_000_000, 999)], 50.0);
        assert_eq!(whole_window(&r).p99, None);
        assert_eq!(sub_windows(&r)[0].p99, None);
        let r = run(1_000_000_000, &[(500_000_000, 1000)], 50.0);
        assert_eq!(whole_window(&r).p99, Some(50.0));
        let m = end_to_end(&r, &[0.1]).unwrap();
        assert_eq!((m[0].value, m[1].value), (1000.0, 50.0));
    }

    #[test]
    fn end_to_end_reports_the_best_sub_window() {
        // Four 5 s sub-windows; the second is slowed by host load: fewer
        // ops, all of them late. It moves neither figure, nor would load
        // in three of the four.
        let calm = |t: u64| (t, 2000);
        let mut r = run(
            20_000_000_000,
            &[
                calm(2_000_000_000),
                calm(12_000_000_000),
                calm(17_000_000_000),
            ],
            100.0,
        );
        r.records
            .extend(run(20_000_000_000, &[(7_000_000_000, 1000)], 900.0).records);
        let subs = sub_windows(&r);
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[1].throughput, 200.0);
        assert_eq!((subs[1].p50, subs[1].p99), (Some(900.0), Some(900.0)));
        assert_eq!((subs[0].p50, subs[0].p99), (Some(100.0), Some(100.0)));
        let m = end_to_end(&r, &[0.1]).unwrap();
        assert_eq!((m[0].value, m[1].value), (400.0, 100.0));
        assert_eq!(
            (m[0].base, m[1].base),
            (2000, 2000),
            "ops of the sub-window"
        );
        let whole = whole_window(&r);
        assert_eq!((whole.throughput, whole.p99), (350.0, Some(900.0)));
        // Latency that grows in every sub-window moves the p50.
        for t in [1_000_000_000, 11_000_000_000, 16_000_000_000] {
            r.records
                .extend(run(20_000_000_000, &[(t, 2100)], 700.0).records);
        }
        assert_eq!(end_to_end(&r, &[0.1]).unwrap()[1].value, 700.0);
        // A sub-window with too thin a tail prints no p99.
        let thin = run(
            20_000_000_000,
            &[calm(2_000_000_000), (7_000_000_000, 20)],
            100.0,
        );
        assert_eq!(sub_windows(&thin)[1].p99, None);
    }

    #[test]
    fn end_to_end_percentiles_span_a_short_window_whole() {
        // Four calm seconds and one stalled one: a window shorter than two
        // sub-windows is taken whole, so its p99 shows the stall.
        let mut r = run(
            5_000_000_000,
            &[
                (500_000_000, 1000),
                (1_500_000_000, 1000),
                (2_500_000_000, 1000),
                (3_500_000_000, 1000),
            ],
            100.0,
        );
        let stalled = run(5_000_000_000, &[(4_500_000_000, 1000)], 900.0);
        r.records.extend(stalled.records);
        let m = end_to_end(&r, &[0.1]).unwrap();
        assert_eq!(m[0].value, 1000.0, "5000 ops over 5 s");
        assert_eq!(m[1].value, 100.0);
        assert_eq!(whole_window(&r).p99, Some(900.0));
        assert_eq!(sub_windows(&r)[0], whole_window(&r));
        // Ops completing after the window closes are not counted.
        let late = run(5_000_000_000, &[(5_500_000_000, 500)], 100.0);
        r.records.extend(late.records);
        assert_eq!(end_to_end(&r, &[0.1]).unwrap()[0].value, 1000.0);
    }
}
