//! `tcp-rr`: a loopback `net::Server` with two `net::Client` connections,
//! each strictly request-response (submit, then wait). 80% of ops are raw
//! n = 256 multiplies, 20% scripted `encaps`/`verify` refs at n = 256.
//! Check and hot cache are off, so with small ops and no queue the wire,
//! the connection threads and waiter wake-up are a large share of each op.

use crate::model;
use crate::trace::SpanLog;
use crate::workload::{
    digest_words, drive, op_stream, record_spans, splitmix, uniform_words, verify_all, OpClass,
    OpRecord, Outcome, RunResult, StatsDelta, Window, CLIENTS, WAIT_LIMIT,
};
use modmath::params::ParamSet;
use net::{Client, ErrorCode, NetError, Server, ServerConfig, TenantConfig};
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use service::{ProtocolJob, ProtocolKind};
use std::collections::HashMap;
use std::time::Instant;

/// Ring degree of every op.
pub const N: usize = 256;
/// One op in this many is a protocol ref.
const PROTO_EVERY: u64 = 5;
/// Distinct scenario seeds per protocol kind. Scenario cost varies with
/// the seed (signing retries on rejection), so the set is large enough
/// that the latency tail does not hinge on a few scenarios.
const REF_SEEDS: u64 = 512;
/// The protocol kinds the refs name.
const REF_KINDS: [ProtocolKind; 2] = [ProtocolKind::Encaps, ProtocolKind::Verify];
const TOKEN: &str = "perfbench-token";

/// Seed-derived inputs.
pub struct Inputs {
    seed: u64,
    q: u64,
}

enum Op {
    Raw(Vec<u64>, Vec<u64>),
    Proto(ProtocolKind, u64),
}

impl Inputs {
    /// Inputs of the workload under `seed`.
    pub fn new(seed: u64) -> Inputs {
        Inputs {
            seed,
            q: ParamSet::for_degree(N).expect("paper degree").q,
        }
    }

    fn op(&self, id: u64) -> Op {
        let mut s = op_stream(self.seed, id);
        if s.is_multiple_of(PROTO_EVERY) {
            let pick = splitmix(s);
            let kind = REF_KINDS[(pick % REF_KINDS.len() as u64) as usize];
            let seed = splitmix(self.seed ^ 0x7265_6673) ^ ((pick >> 8) % REF_SEEDS);
            Op::Proto(kind, seed)
        } else {
            let a = uniform_words(&mut s, N, self.q);
            Op::Raw(a, uniform_words(&mut s, N, self.q))
        }
    }
}

/// A running server and its two authenticated connections.
pub struct Env {
    server: Server,
    clients: Vec<Client>,
}

impl Env {
    /// Closes both connections and drains the server.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Starts the server, connects both clients, and completes one warm-up
/// raw multiply and one op of each protocol kind.
pub fn setup(inputs: &Inputs) -> Env {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            tenants: vec![TenantConfig::new("perfbench", TOKEN, 64)],
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port");
    let clients: Vec<Client> = (0..CLIENTS)
        .map(|_| {
            Client::connect(server.local_addr(), TOKEN)
                .expect("connect to the loopback server")
                .0
        })
        .collect();
    let mut env = Env { server, clients };
    let c = &mut env.clients[0];
    let Op::Raw(a, b) = (0..)
        .map(|id| inputs.op(u64::MAX - id))
        .find(|op| matches!(op, Op::Raw(..)))
        .expect("some op is raw")
    else {
        unreachable!("filtered to raw ops")
    };
    c.submit(1, inputs.q, a, b).expect("warm-up admitted");
    c.wait(1, WAIT_LIMIT.as_millis() as u32)
        .expect("warm-up multiply");
    for (i, kind) in REF_KINDS.into_iter().enumerate() {
        let id = 2 + i as u64;
        c.submit_protocol(id, kind, N as u64, inputs.seed)
            .expect("warm-up admitted");
        c.wait_protocol(id, WAIT_LIMIT.as_millis() as u32)
            .expect("warm-up protocol op");
    }
    env
}

fn classify(e: &NetError) -> Outcome {
    match e.code() {
        Some(ErrorCode::QuotaExceeded | ErrorCode::Overloaded | ErrorCode::ShuttingDown) => {
            Outcome::Refused
        }
        Some(ErrorCode::WaitTimeout) => Outcome::TimedOut,
        _ => Outcome::Failed,
    }
}

fn client(c: &mut Client, inputs: &Inputs, first: u64, window: Window) -> (Vec<OpRecord>, SpanLog) {
    let mut records = Vec::with_capacity(1 << 16);
    let mut spans = window.span_log();
    let limit_ms = WAIT_LIMIT.as_millis() as u32;
    let mut id = first;
    while window.is_open() {
        let op = inputs.op(id);
        let mut r = OpRecord {
            id,
            ..OpRecord::default()
        };
        id += CLIENTS as u64;
        r.t0 = window.now();
        r.traced = window.traces(r.t0);
        let submitted = match op {
            Op::Raw(a, b) => {
                r.class = OpClass::Raw;
                c.submit(r.id, inputs.q, a, b)
            }
            Op::Proto(kind, seed) => {
                r.class = OpClass::Proto(kind);
                c.submit_protocol(r.id, kind, N as u64, seed)
            }
        };
        r.t1 = window.now();
        if let Err(e) = submitted {
            r.outcome = classify(&e);
            r.t3 = r.t1;
            records.push(r);
            continue;
        }
        r.t2 = window.now();
        match r.class {
            OpClass::Proto(_) => match c.wait_protocol(r.id, limit_ms) {
                Ok(done) => {
                    r.t3 = window.now();
                    r.queue_us = done.queue_us as f64;
                    r.service_us = done.service_us as f64;
                    r.attributed_us = done.service_us as f64;
                    r.nodes = done.nodes;
                    r.digest = done.digest;
                }
                Err(e) => {
                    r.t3 = window.now();
                    r.outcome = classify(&e);
                }
            },
            _ => match c.wait(r.id, limit_ms) {
                Ok(done) => {
                    r.t3 = window.now();
                    r.queue_us = done.queue_us as f64;
                    r.service_us = done.service_us as f64;
                    r.attributed_us = (done.queue_us + done.service_us) as f64;
                    r.nodes = 1;
                    r.digest = digest_words(done.product);
                }
                Err(e) => {
                    r.t3 = window.now();
                    r.outcome = classify(&e);
                }
            },
        }
        if r.traced {
            record_spans(&mut spans, &r, "net.client.submit", "net.client.wait");
        }
        records.push(r);
    }
    (records, spans)
}

fn frames(server: &Server) -> u64 {
    let json = server.stats_json();
    ["frames_in", "frames_out"]
        .iter()
        .map(|key| json_u64(&json, key).expect("Stats document carries frame counters"))
        .sum()
}

/// The unsigned integer value of `"key": N` in a flat JSON document.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = json[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs the workload: set-up, a window of `seconds` of strict
/// request-response on both connections, then verification of every
/// product and protocol digest outside the window.
pub fn run(seed: u64, seconds: f64, traced: bool) -> RunResult {
    let inputs = Inputs::new(seed);
    let t = Instant::now();
    let mut env = setup(&inputs);
    let setup_s = t.elapsed().as_secs_f64();

    let before = env.server.stats();
    let frames_before = frames(&env.server);
    let phase_before = cryptopim::phase::snapshot();
    let window = Window::open(seconds, traced);
    let (mut records, spans) = drive(env.clients.iter_mut().collect(), |c, state| {
        client(state, &inputs, c, window)
    });
    let phase = cryptopim::phase::snapshot().since(&phase_before);
    let stats = StatsDelta::between(&before, &env.server.stats());
    let frames = frames(&env.server) - frames_before;
    env.shutdown();

    let mut expected: HashMap<(u8, u64), u64> = HashMap::new();
    for r in &records {
        if let (OpClass::Proto(kind), Op::Proto(_, seed)) = (r.class, inputs.op(r.id)) {
            expected.entry((kind as u8, seed)).or_insert_with(|| {
                ProtocolJob::scripted(kind, N, seed)
                    .and_then(|job| job.run_direct())
                    .expect("direct execution")
                    .digest()
            });
        }
    }
    let ntt = NttMultiplier::new(&ParamSet::for_degree(N).expect("paper degree"))
        .expect("paper parameters");
    verify_all(&mut records, |r| match inputs.op(r.id) {
        Op::Raw(a, b) => {
            let a = Polynomial::from_canonical_coeffs(a, inputs.q).expect("canonical");
            let b = Polynomial::from_canonical_coeffs(b, inputs.q).expect("canonical");
            let want = ntt.multiply(&a, &b).expect("reference multiply");
            digest_words(want.coeffs().iter().copied()) == r.digest
        }
        Op::Proto(kind, seed) => expected.get(&(kind as u8, seed)) == Some(&r.digest),
    });
    RunResult {
        workload: "tcp-rr",
        records,
        window_ns: window.len_ns(),
        setup_s,
        stats,
        phase,
        checked: false,
        frames: Some(frames),
        leaves: vec![(model::leaf_cost(N, inputs.q), stats.admitted)],
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_counters_parse() {
        let doc = r#"{"proto_version": 2, "frames_in": 41, "frames_out": 40, "x": 1}"#;
        assert_eq!(json_u64(doc, "frames_in"), Some(41));
        assert_eq!(json_u64(doc, "frames_out"), Some(40));
        assert_eq!(json_u64(doc, "missing"), None);
    }

    #[test]
    fn one_op_in_five_is_a_protocol_ref() {
        let inputs = Inputs::new(3);
        let refs = (0..5000)
            .filter(|&id| matches!(inputs.op(id), Op::Proto(..)))
            .count();
        assert!((900..1100).contains(&refs), "{refs}");
    }
}
