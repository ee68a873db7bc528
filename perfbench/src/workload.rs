//! What the three workloads share: seeded input derivation, the per-op
//! record every client thread fills, counter deltas, and the outcome a
//! workload hands to the metric code.

use crate::model::LeafCost;
use crate::trace::{Span, SpanLog, ROOT};
use cryptopim::phase::PhaseSnapshot;
use service::{ProtocolKind, ServiceStats};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Client threads (and TCP connections) the load generator uses: sized
/// for a 2-core host, where more clients would only measure contention.
pub const CLIENTS: usize = 2;

/// Server-side cap on how long any one result is waited for.
pub const WAIT_LIMIT: Duration = Duration::from_secs(30);

/// splitmix64: the benchmark's only random source, so the same seed
/// always yields the same inputs.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The independent random stream of op `id` under `seed`.
pub fn op_stream(seed: u64, id: u64) -> u64 {
    splitmix(seed ^ splitmix(id ^ 0x6f70_5f69_6400_0000))
}

/// `n` coefficients uniform below `bound` (multiply-shift), advancing
/// the stream `state`.
pub fn uniform_words(state: &mut u64, n: usize, bound: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            *state = splitmix(*state);
            ((u128::from(*state) * u128::from(bound)) >> 64) as u64
        })
        .collect()
}

/// 64-bit digest of a word sequence: every served product is compared to
/// its reference through this, after the measured window.
pub fn digest_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x243f_6a88_85a3_08d3, |h, w| splitmix(h ^ w))
}

/// Digest of a wide (u128-coefficient) product.
pub fn digest_wide(coeffs: &[u128]) -> u64 {
    digest_words(coeffs.iter().flat_map(|&c| [c as u64, (c >> 64) as u64]))
}

/// What an op was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OpClass {
    /// Raw negacyclic multiply.
    #[default]
    Raw,
    /// Wide (2-residue RNS) multiply.
    Wide,
    /// Protocol op of this kind.
    Proto(ProtocolKind),
}

/// How an op ended, before verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Outcome {
    /// A result arrived (still to be verified).
    #[default]
    Served,
    /// Refused at admission (quota, overload, draining).
    Refused,
    /// Waited for longer than [`WAIT_LIMIT`].
    TimedOut,
    /// The result was an error.
    Failed,
}

/// One op as the client saw it. Times are ns since the window opened:
/// `t0` submit called, `t1` submit returned, `t2` wait called, `t3`
/// result in hand. Only ops marked `traced` also record spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpRecord {
    /// Op id (the input derivation key).
    pub id: u64,
    /// Op class.
    pub class: OpClass,
    /// Submit called.
    pub t0: u64,
    /// Submit returned.
    pub t1: u64,
    /// Wait called.
    pub t2: u64,
    /// Result in hand.
    pub t3: u64,
    /// Whether this op was traced.
    pub traced: bool,
    /// Server-reported admission wait (+ linger, or executor pickup), µs.
    pub queue_us: f64,
    /// Server-reported batch execution (or graph end-to-end), µs.
    pub service_us: f64,
    /// Host recombination of a wide op, µs.
    pub recombine_us: f64,
    /// Time some layer reports for this op, µs (what the layer-sum check
    /// subtracts from the client latency).
    pub attributed_us: f64,
    /// Leaf multiplies the op put through the scheduler: 1 for a raw op,
    /// one per residue for a wide op, `ProtocolCompleted.nodes` for a
    /// protocol op.
    pub nodes: u32,
    /// Input-pool or reference index (workload-specific).
    pub input: u32,
    /// Digest of the served output.
    pub digest: u64,
    /// How the op ended.
    pub outcome: Outcome,
    /// Set by verification: served and bit-identical to the reference.
    pub verified: bool,
}

impl OpRecord {
    /// Client-observed latency, µs.
    pub fn latency_us(&self) -> f64 {
        self.t3.saturating_sub(self.t0) as f64 / 1e3
    }
}

/// Deltas of the scheduler counters over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatsDelta {
    /// Leaf jobs admitted.
    pub admitted: u64,
    /// Leaf jobs completed.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Batches flushed full.
    pub full: u64,
    /// Batches flushed at the linger deadline.
    pub lingered: u64,
    /// Batches flushed eagerly to an idle worker.
    pub eager: u64,
    /// Jobs carried by those batches.
    pub batch_jobs: f64,
    /// Retried executions.
    pub retries: u64,
    /// Hot-cache hits.
    pub hot_hits: u64,
    /// Hot-cache misses.
    pub hot_misses: u64,
}

impl StatsDelta {
    /// Counter change from `before` to `after`.
    pub fn between(before: &ServiceStats, after: &ServiceStats) -> StatsDelta {
        let jobs = |s: &ServiceStats| s.mean_occupancy * s.batches as f64;
        StatsDelta {
            admitted: after.admitted - before.admitted,
            completed: after.completed - before.completed,
            batches: after.batches - before.batches,
            full: after.full_batches - before.full_batches,
            lingered: after.lingered_batches - before.lingered_batches,
            eager: after.eager_batches - before.eager_batches,
            batch_jobs: jobs(after) - jobs(before),
            retries: after.retries - before.retries,
            hot_hits: after.hot_hits - before.hot_hits,
            hot_misses: after.hot_misses - before.hot_misses,
        }
    }
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Every op submitted in the window, verified.
    pub records: Vec<OpRecord>,
    /// Length of the measured window, ns.
    pub window_ns: u64,
    /// Set-up time of this run, s.
    pub setup_s: f64,
    /// Scheduler counter deltas over the window.
    pub stats: StatsDelta,
    /// Engine/check/recombine phase deltas over the window.
    pub phase: PhaseSnapshot,
    /// Whether results were checked by the Recompute referee.
    pub checked: bool,
    /// Wire frames in + out over the window (TCP only).
    pub frames: Option<u64>,
    /// Modeled per-multiply cost and the leaf multiplies it weighs.
    pub leaves: Vec<(LeafCost, u64)>,
    /// Spans of the traced ops.
    pub spans: Vec<SpanLog>,
}

impl RunResult {
    /// Ops that were served but differ from their reference.
    pub fn mismatches(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.outcome == Outcome::Served && !r.verified)
            .count()
    }

    /// Checks the scheduler's counters against what the ops report. No
    /// fault injector runs, so no execution may be retried. And every op
    /// submitted in the window completes before the closing snapshot, so
    /// when every op was served the leaf multiplies the ops report
    /// (`ProtocolCompleted.nodes` for protocol ops) must equal the jobs
    /// the scheduler admitted.
    pub fn counter_check(&self) -> Result<(), String> {
        if self.stats.retries > 0 {
            return Err(format!(
                "{}: {} retried executions without a fault injector",
                self.workload, self.stats.retries
            ));
        }
        if self.records.iter().any(|r| r.outcome != Outcome::Served) {
            return Ok(());
        }
        let leaves: u64 = self.records.iter().map(|r| u64::from(r.nodes)).sum();
        if leaves != self.stats.admitted {
            return Err(format!(
                "{}: ops report {leaves} leaf multiplies, the scheduler admitted {}",
                self.workload, self.stats.admitted
            ));
        }
        Ok(())
    }
}

/// The window clock every client thread shares.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    origin: Instant,
    end_ns: u64,
    /// Whether traced ops are mixed in (odd slices traced, even not).
    pub traced: bool,
}

/// Slice length for the per-second throughput and for alternating traced
/// and untraced ops.
pub const SLICE_NS: u64 = 1_000_000_000;

impl Window {
    /// Opens a window of `seconds` now.
    pub fn open(seconds: f64, traced: bool) -> Window {
        Window {
            origin: Instant::now(),
            end_ns: (seconds * 1e9) as u64,
            traced,
        }
    }

    /// ns since the window opened.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether new ops may still be submitted.
    pub fn is_open(&self) -> bool {
        self.now() < self.end_ns
    }

    /// Whether an op submitted at `t0` is traced.
    pub fn traces(&self, t0: u64) -> bool {
        self.traced && (t0 / SLICE_NS) % 2 == 1
    }

    /// Window length, ns.
    pub fn len_ns(&self) -> u64 {
        self.end_ns
    }

    /// A span log sized for one client thread over this window, allocated
    /// once before the window opens: room for 8,000 spans per second,
    /// three per op, so up to about 5,000 ops/s per thread when half the
    /// slices are traced.
    pub fn span_log(&self) -> SpanLog {
        let capacity = if self.traced {
            (self.end_ns / 1_000_000) as usize * 8
        } else {
            0
        };
        SpanLog::with_capacity(capacity)
    }
}

/// Pushes the client-side spans of a traced op: the op itself, the
/// submit call, the wait call, and (for wide ops) the host recombination
/// at the end of the wait.
pub fn record_spans(log: &mut SpanLog, r: &OpRecord, submit: &'static str, wait: &'static str) {
    let span = |name, start_ns, end_ns, parent| Span {
        name,
        start_ns,
        end_ns,
        parent,
        op: r.id,
    };
    let root = log.push(span("op", r.t0, r.t3, ROOT));
    log.push(span(submit, r.t0, r.t1, root));
    let wait_span = log.push(span(wait, r.t2, r.t3, root));
    if r.recombine_us > 0.0 {
        let start = r.t3.saturating_sub((r.recombine_us * 1e3) as u64).max(r.t2);
        log.push(span("modmath.crt.recombine", start, r.t3, wait_span));
    }
}

/// Runs `check` over every record on [`CLIENTS`] threads and stores the
/// verdict. Runs after the window closes, so it is never timed.
pub fn verify_all<F>(records: &mut [OpRecord], check: F)
where
    F: Fn(&OpRecord) -> bool + Sync,
{
    let chunk = records.len().div_ceil(CLIENTS).max(1);
    std::thread::scope(|s| {
        for part in records.chunks_mut(chunk) {
            let check = &check;
            s.spawn(move || {
                for r in part {
                    r.verified = r.outcome == Outcome::Served && check(r);
                }
            });
        }
    });
}

/// Moves every pending op whose ticket is done into `done` through
/// `collect`, in submission order. When none is done it first waits for
/// the oldest, so a client blocks only when it must, and a small op is not
/// timed behind a larger one submitted before it.
pub fn collect_done<T>(
    pending: &mut VecDeque<(T, OpRecord)>,
    is_done: impl Fn(&T) -> bool,
    mut collect: impl FnMut(T, OpRecord) -> OpRecord,
    done: &mut Vec<OpRecord>,
) {
    if !pending.iter().any(|(t, _)| is_done(t)) {
        if let Some((t, r)) = pending.pop_front() {
            done.push(collect(t, r));
        }
    }
    let mut i = 0;
    while i < pending.len() {
        if is_done(&pending[i].0) {
            let (t, r) = pending.remove(i).expect("index in range");
            done.push(collect(t, r));
        } else {
            i += 1;
        }
    }
}

/// Runs one client thread per entry of `states` (its op ids start at the
/// entry's index and step by [`CLIENTS`]), joins them all, and returns
/// every op record and span log.
pub fn drive<S, F>(states: Vec<S>, client: F) -> (Vec<OpRecord>, Vec<SpanLog>)
where
    S: Send,
    F: Fn(u64, S) -> (Vec<OpRecord>, SpanLog) + Sync,
{
    let per_client: Vec<(Vec<OpRecord>, SpanLog)> = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .into_iter()
            .enumerate()
            .map(|(i, state)| {
                let client = &client;
                s.spawn(move || client(i as u64, state))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let (records, spans): (Vec<Vec<OpRecord>>, Vec<SpanLog>) = per_client.into_iter().unzip();
    (records.into_iter().flatten().collect(), spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_done_takes_finished_ops_and_waits_only_when_none_is() {
        let rec = |id| OpRecord {
            id,
            ..OpRecord::default()
        };
        let mut pending: VecDeque<(bool, OpRecord)> = [
            (false, rec(0)),
            (true, rec(1)),
            (false, rec(2)),
            (true, rec(3)),
        ]
        .into();
        let (mut done, mut waited) = (Vec::new(), Vec::new());
        let ids = |v: &[OpRecord]| v.iter().map(|r| r.id).collect::<Vec<_>>();
        let mut step = |pending: &mut VecDeque<(bool, OpRecord)>, done: &mut Vec<OpRecord>| {
            collect_done(
                pending,
                |&d| d,
                |d, r| {
                    if !d {
                        waited.push(r.id);
                    }
                    r
                },
                done,
            )
        };
        step(&mut pending, &mut done);
        assert_eq!(ids(&done), [1, 3], "done ops, in submission order");
        assert_eq!(pending.len(), 2);
        // None is done: it waits for the oldest, and only for it.
        step(&mut pending, &mut done);
        assert_eq!(ids(&done), [1, 3, 0]);
        assert_eq!(pending.len(), 1);
        assert_eq!(waited, [0]);
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let mut a = op_stream(7, 3);
        let mut b = op_stream(7, 3);
        let mut c = op_stream(8, 3);
        let x = uniform_words(&mut a, 64, 12289);
        assert_eq!(x, uniform_words(&mut b, 64, 12289));
        assert_ne!(x, uniform_words(&mut c, 64, 12289));
        assert!(x.iter().all(|&w| w < 12289));
    }

    #[test]
    fn digests_see_every_word() {
        let base = digest_words([1, 2, 3]);
        assert_ne!(base, digest_words([1, 2, 4]));
        assert_ne!(base, digest_words([1, 2]));
        assert_ne!(digest_wide(&[1 << 64]), digest_wide(&[1]));
    }

    #[test]
    fn counter_check_fails_on_retries_and_lost_leaves() {
        let op = |nodes| OpRecord {
            nodes,
            ..OpRecord::default()
        };
        let mut r = RunResult {
            records: vec![op(1), op(2), op(7)],
            stats: StatsDelta {
                admitted: 10,
                ..StatsDelta::default()
            },
            ..RunResult::default()
        };
        assert!(r.counter_check().is_ok());
        r.stats.admitted = 11;
        assert!(r.counter_check().is_err());
        r.stats.admitted = 10;
        r.stats.retries = 1;
        assert!(r.counter_check().is_err());
        // A failed op may have admitted some leaves: no exact count then.
        r.stats.retries = 0;
        r.stats.admitted = 11;
        r.records[0].outcome = Outcome::Failed;
        assert!(r.counter_check().is_ok());
    }

    #[test]
    fn traced_ops_alternate_by_slice() {
        let w = Window {
            origin: Instant::now(),
            end_ns: 4 * SLICE_NS,
            traced: true,
        };
        assert!(!w.traces(0));
        assert!(w.traces(SLICE_NS + 5));
        assert!(!w.traces(2 * SLICE_NS));
    }
}
