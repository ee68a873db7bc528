//! Mixed-protocol load generation against the job-graph layer, with
//! bit-exact verification against the direct host path.
//!
//! Where [`crate::loadgen`] drives raw multiply streams, this module
//! drives a weighted **mix of protocol ops** (KEM handshakes,
//! signatures, homomorphic multiplies, raw products) through
//! [`crate::Service::submit_protocol`]. The stream is deterministic in
//! its configuration, and — the part a raw-multiply stream cannot
//! express — it separates **key lifetime** from **per-op randomness**:
//! a pool of long-lived key material (public keys, signing keys,
//! evaluation operands) is reused across many ops with fresh
//! randomness each time, exactly the shape that makes the hot-operand
//! transform cache pay. The [`ProtoLoadgenConfig::key_churn`] knob
//! rotates that key material every K ops, so one generator measures
//! the cache under realistic reuse *and* under adversarial churn.

use crate::graph::{ProtocolJob, ProtocolKind, ProtocolOutput};
use crate::scheduler::{Service, ServiceConfig};
use crate::stats::ServiceStats;
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use ntt::negacyclic::NttMultiplier;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlwe::kem::{self, KemKeyPair};
use rlwe::pke::KeyPair;
use rlwe::sampling;
use rlwe::signature::SigningKey;
use std::collections::HashMap;
use std::time::Instant;

/// A weighted mix of protocol families, parsed from specs like
/// `"kem:40,sign:30,she:20,mul:10"`.
///
/// Family names expand to kinds: `kem` → Encaps + Decaps, `pke` →
/// PKE-Enc + PKE-Dec, `sign` → Sign + Verify (a signing service
/// verifies what it signs), `she` → SHE-Mul, `mul` → raw Mul, `wide` →
/// wide RNS Mul, `keygen` → KeyGen. Exact kind names
/// (`encaps`, `decaps`, `pke_enc`, `pke_dec`, `she_mul`, `wide_mul`,
/// `verify`) address a single kind. Weights are relative integers.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolMix {
    entries: Vec<(String, Vec<ProtocolKind>, u32)>,
    total: u64,
}

impl ProtocolMix {
    /// Parses a `name:weight,name:weight,...` spec.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending token (unknown
    /// family, non-numeric or zero weight, empty spec).
    pub fn parse(spec: &str) -> Result<ProtocolMix, String> {
        let mut entries: Vec<(String, Vec<ProtocolKind>, u32)> = Vec::new();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let (name, weight) = token
                .split_once(':')
                .ok_or_else(|| format!("mix token {token:?} is not name:weight"))?;
            let kinds = Self::family(name.trim())
                .ok_or_else(|| format!("unknown protocol family {:?}", name.trim()))?;
            let weight: u32 = weight
                .trim()
                .parse()
                .map_err(|_| format!("weight in {token:?} is not an integer"))?;
            if weight == 0 {
                return Err(format!("weight in {token:?} must be positive"));
            }
            if entries.iter().any(|(n, _, _)| n == name.trim()) {
                return Err(format!("family {:?} listed twice", name.trim()));
            }
            entries.push((name.trim().to_string(), kinds, weight));
        }
        if entries.is_empty() {
            return Err("empty protocol mix".to_string());
        }
        let total = entries.iter().map(|(_, _, w)| u64::from(*w)).sum();
        Ok(ProtocolMix { entries, total })
    }

    /// The issue's canonical mix: `kem:40,sign:30,she:20,mul:10`.
    pub fn standard() -> ProtocolMix {
        ProtocolMix::parse("kem:40,sign:30,she:20,mul:10").expect("canonical mix parses")
    }

    fn family(name: &str) -> Option<Vec<ProtocolKind>> {
        Some(match name {
            "kem" => vec![ProtocolKind::Encaps, ProtocolKind::Decaps],
            "pke" => vec![ProtocolKind::PkeEncrypt, ProtocolKind::PkeDecrypt],
            "sign" => vec![ProtocolKind::Sign, ProtocolKind::Verify],
            "she" | "she_mul" => vec![ProtocolKind::SheMul],
            "mul" => vec![ProtocolKind::Mul],
            "wide" | "wide_mul" => vec![ProtocolKind::WideMul],
            "keygen" => vec![ProtocolKind::KeyGen],
            "encaps" => vec![ProtocolKind::Encaps],
            "decaps" => vec![ProtocolKind::Decaps],
            "pke_enc" => vec![ProtocolKind::PkeEncrypt],
            "pke_dec" => vec![ProtocolKind::PkeDecrypt],
            "verify" => vec![ProtocolKind::Verify],
            _ => return None,
        })
    }

    /// Draws one kind: the family by weight, then a uniform member.
    fn draw(&self, rng: &mut StdRng) -> ProtocolKind {
        let mut roll = rng.gen_range(0..self.total);
        for (_, kinds, weight) in &self.entries {
            if roll < u64::from(*weight) {
                return kinds[rng.gen_range(0..kinds.len())];
            }
            roll -= u64::from(*weight);
        }
        unreachable!("weights sum to total")
    }

    /// Every kind the mix can emit (for reporting).
    pub fn kinds(&self) -> Vec<ProtocolKind> {
        let mut out: Vec<ProtocolKind> = Vec::new();
        for (_, kinds, _) in &self.entries {
            for &k in kinds {
                if !out.contains(&k) {
                    out.push(k);
                }
            }
        }
        out
    }
}

/// Protocol load-generator configuration.
#[derive(Debug, Clone)]
pub struct ProtoLoadgenConfig {
    /// Seed for the deterministic op stream (kinds, degrees, keys,
    /// per-op randomness).
    pub seed: u64,
    /// Total protocol ops to generate.
    pub ops: usize,
    /// Degree mix; each op draws uniformly from this set.
    pub degrees: Vec<usize>,
    /// The weighted kind mix.
    pub mix: ProtocolMix,
    /// Key lifetime: `0` reuses one key pool for the whole run
    /// (maximum reuse); `K > 0` regenerates every pool after K ops
    /// (`1` = fresh keys for every op, maximum churn).
    pub key_churn: usize,
    /// Closed-loop client threads, each keeping one op outstanding.
    pub clients: usize,
    /// Service under test.
    pub service: ServiceConfig,
    /// Bit-compare every served output against
    /// [`ProtocolJob::run_direct`].
    pub verify_direct: bool,
}

impl Default for ProtoLoadgenConfig {
    fn default() -> Self {
        ProtoLoadgenConfig {
            seed: 7,
            ops: 64,
            degrees: vec![256],
            mix: ProtocolMix::standard(),
            key_churn: 0,
            clients: 4,
            service: ServiceConfig::default(),
            verify_direct: true,
        }
    }
}

/// Client-side per-kind outcome counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoKindReport {
    /// The kind these counters describe.
    pub kind: ProtocolKind,
    /// Ops of this kind in the stream.
    pub ops: usize,
    /// Ops whose ticket resolved to an output.
    pub ok: usize,
    /// Ops refused at admission or resolved to an error.
    pub failed: usize,
    /// Served outputs that differed from the direct host execution
    /// (must be 0; counted only under `verify_direct`).
    pub mismatches: usize,
}

/// Outcome of one protocol load-generation run.
///
/// Per-kind latency percentiles live in
/// [`ServiceStats::protocol`] on the embedded `stats` — the service's
/// own histogram is the single source of truth; this report adds the
/// client-side verification verdicts the service cannot know.
#[derive(Debug, Clone)]
pub struct ProtoLoadgenReport {
    /// Ops generated.
    pub ops: usize,
    /// Ops that resolved to an output.
    pub ok: usize,
    /// Ops refused at admission or resolved to an error.
    pub failed: usize,
    /// Served outputs differing from the direct path (must be 0).
    pub mismatches: usize,
    /// Wall-clock of the serving run, seconds.
    pub wall_s: f64,
    /// Completed protocol ops per second.
    pub throughput: f64,
    /// Per-kind outcome counters (only kinds present in the stream).
    pub per_kind: Vec<ProtoKindReport>,
    /// Final service statistics (post-drain), including per-kind
    /// latency lanes and hot-cache counters.
    pub stats: ServiceStats,
}

impl ProtoLoadgenReport {
    /// True when every op completed with the direct path's exact output.
    pub fn is_clean(&self) -> bool {
        self.failed == 0 && self.mismatches == 0 && self.ok == self.ops
    }

    /// Hot-operand cache hit rate over the run (0.0 with no lookups).
    pub fn hot_hit_rate(&self) -> f64 {
        let looked = self.stats.hot_hits + self.stats.hot_misses;
        if looked == 0 {
            0.0
        } else {
            self.stats.hot_hits as f64 / looked as f64
        }
    }
}

/// Long-lived key material, regenerated per churn epoch.
enum Material {
    Pke(KeyPair),
    Kem(KemKeyPair),
    Sig(SigningKey),
}

/// splitmix64 — derives independent key-epoch seeds from the run seed.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Generates the deterministic protocol-op stream.
///
/// Key material (PKE/KEM key pairs, signing keys, the SHE evaluation
/// operand, the hot raw-`a` operand) lives in per-`(family, degree,
/// epoch)` pools, where the epoch advances every `key_churn` ops
/// (never, when 0). Everything else — messages, encryption randomness,
/// entropy, signatures under test — is fresh per op. Deterministic in
/// all arguments.
///
/// # Panics
///
/// Panics when `degrees` is empty, a degree has no paper parameter
/// set, or (with a `wide` family in the mix) no RNS basis is
/// discoverable at a requested degree.
pub fn generate_protocol_ops(
    seed: u64,
    ops: usize,
    degrees: &[usize],
    mix: &ProtocolMix,
    key_churn: usize,
) -> Vec<ProtocolJob> {
    assert!(!degrees.is_empty(), "need at least one degree");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ntts: HashMap<usize, (ParamSet, NttMultiplier)> = HashMap::new();
    for &n in degrees {
        let params = ParamSet::for_degree(n).expect("paper degree");
        let ntt = NttMultiplier::new(&params).expect("paper parameters");
        ntts.insert(n, (params, ntt));
    }
    let mut bases: HashMap<usize, RnsBasis> = HashMap::new();
    // family code → Material pools; separate maps keep borrows simple.
    let mut pools: HashMap<(u8, usize, u64), Material> = HashMap::new();
    let mut hot_a: HashMap<(usize, u64), ntt::poly::Polynomial> = HashMap::new();
    let mut she_plain: HashMap<(usize, u64), ntt::poly::Polynomial> = HashMap::new();

    (0..ops)
        .map(|i| {
            let epoch = i.checked_div(key_churn).unwrap_or(0) as u64;
            let kind = mix.draw(&mut rng);
            let n = degrees[rng.gen_range(0..degrees.len())];
            let (params, ntt) = &ntts[&n];
            let fresh: u64 = rng.gen();
            let fresh_bits =
                |rng: &mut StdRng| -> Vec<u8> { (0..n).map(|_| rng.gen_range(0..2u8)).collect() };
            let key_seed = |family: u8| -> u64 {
                mix64(seed ^ mix64(epoch ^ (u64::from(family) << 40) ^ ((n as u64) << 8)))
            };
            let pke = |pools: &mut HashMap<(u8, usize, u64), Material>| -> KeyPair {
                let m = pools.entry((0, n, epoch)).or_insert_with(|| {
                    Material::Pke(KeyPair::generate(params, ntt, key_seed(0)).expect("pke keygen"))
                });
                match m {
                    Material::Pke(kp) => kp.clone(),
                    _ => unreachable!("family 0 holds PKE pairs"),
                }
            };
            match kind {
                ProtocolKind::Mul => {
                    let a = hot_a
                        .entry((n, epoch))
                        .or_insert_with(|| {
                            let mut kr = sampling::seeded_rng(key_seed(3));
                            sampling::uniform(params, &mut kr)
                        })
                        .clone();
                    let b = sampling::uniform(params, &mut rng);
                    ProtocolJob::Mul { a, b }
                }
                ProtocolKind::WideMul => {
                    let basis = bases
                        .entry(n)
                        .or_insert_with(|| {
                            RnsBasis::discover(n, 2, 1 << 20).expect("discoverable basis")
                        })
                        .clone();
                    let big_q = basis.modulus();
                    let draw = |rng: &mut StdRng| -> Vec<u128> {
                        (0..n).map(|_| rng.gen::<u128>() % big_q).collect()
                    };
                    let a = draw(&mut rng);
                    let b = draw(&mut rng);
                    ProtocolJob::WideMul { a, b, basis }
                }
                ProtocolKind::KeyGen => ProtocolJob::KeyGen {
                    params: *params,
                    seed: fresh,
                },
                ProtocolKind::PkeEncrypt => ProtocolJob::PkeEncrypt {
                    pk: pke(&mut pools).public().clone(),
                    bits: fresh_bits(&mut rng),
                    seed: fresh,
                },
                ProtocolKind::PkeDecrypt => {
                    let kp = pke(&mut pools);
                    let ct = kp
                        .public()
                        .encrypt_bits(&fresh_bits(&mut rng), ntt, fresh)
                        .expect("host encrypt");
                    ProtocolJob::PkeDecrypt {
                        sk: kp.secret().clone(),
                        ct,
                    }
                }
                ProtocolKind::Encaps | ProtocolKind::Decaps => {
                    let m = pools.entry((1, n, epoch)).or_insert_with(|| {
                        Material::Kem(
                            KemKeyPair::generate(params, ntt, key_seed(1)).expect("kem keygen"),
                        )
                    });
                    let keys = match m {
                        Material::Kem(kp) => kp.clone(),
                        _ => unreachable!("family 1 holds KEM pairs"),
                    };
                    if kind == ProtocolKind::Encaps {
                        ProtocolJob::Encaps {
                            pk: keys.public().clone(),
                            entropy: fresh,
                        }
                    } else {
                        let enc =
                            kem::encapsulate(keys.public(), ntt, fresh).expect("host encapsulate");
                        ProtocolJob::Decaps {
                            keys: Box::new(keys),
                            ct: enc.ciphertext,
                        }
                    }
                }
                ProtocolKind::SheMul => {
                    let kp = pke(&mut pools);
                    let ct = rlwe::she::encrypt(&kp, &fresh_bits(&mut rng), ntt, fresh)
                        .expect("host she encrypt");
                    let plain = she_plain
                        .entry((n, epoch))
                        .or_insert_with(|| {
                            let mut kr = sampling::seeded_rng(key_seed(4));
                            sampling::uniform(params, &mut kr)
                        })
                        .clone();
                    ProtocolJob::SheMul { ct, plain }
                }
                ProtocolKind::Sign | ProtocolKind::Verify => {
                    let m = pools.entry((2, n, epoch)).or_insert_with(|| {
                        Material::Sig(
                            SigningKey::generate(params, ntt, key_seed(2)).expect("sig keygen"),
                        )
                    });
                    let key = match m {
                        Material::Sig(k) => k.clone(),
                        _ => unreachable!("family 2 holds signing keys"),
                    };
                    let message: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
                    if kind == ProtocolKind::Sign {
                        ProtocolJob::Sign {
                            key: Box::new(key),
                            message,
                            seed: fresh,
                        }
                    } else {
                        let (signature, _) = key.sign(&message, ntt, fresh).expect("host sign");
                        ProtocolJob::Verify {
                            key: key.verify_key(),
                            message,
                            signature,
                        }
                    }
                }
            }
        })
        .collect()
}

/// Runs the protocol load generator: generates the seeded op stream,
/// serves it closed-loop through [`Service::submit_protocol`], drains
/// the service, and (optionally) bit-compares every output against
/// [`ProtocolJob::run_direct`].
pub fn run_protocols(config: &ProtoLoadgenConfig) -> ProtoLoadgenReport {
    let jobs = generate_protocol_ops(
        config.seed,
        config.ops,
        &config.degrees,
        &config.mix,
        config.key_churn,
    );
    let kinds: Vec<ProtocolKind> = jobs.iter().map(ProtocolJob::kind).collect();
    let expected: Vec<Option<ProtocolOutput>> = if config.verify_direct {
        jobs.iter()
            .map(|j| Some(j.run_direct().expect("direct execution")))
            .collect()
    } else {
        vec![None; jobs.len()]
    };

    let service = Service::start(config.service.clone());
    let started = Instant::now();
    let outputs = crate::loadgen::closed_loop(&jobs, config.clients, |job: &ProtocolJob| {
        service
            .submit_protocol(job.clone())
            .ok()
            .and_then(|t| t.wait().ok())
            .map(|done| done.output)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let stats = service.shutdown();

    let mut per_kind: Vec<ProtoKindReport> = Vec::new();
    fn lane(per_kind: &mut Vec<ProtoKindReport>, k: ProtocolKind) -> &mut ProtoKindReport {
        if let Some(pos) = per_kind.iter().position(|r| r.kind == k) {
            return &mut per_kind[pos];
        }
        per_kind.push(ProtoKindReport {
            kind: k,
            ops: 0,
            ok: 0,
            failed: 0,
            mismatches: 0,
        });
        per_kind.last_mut().expect("just pushed")
    }
    for (i, kind) in kinds.iter().enumerate() {
        let r = lane(&mut per_kind, *kind);
        r.ops += 1;
        match &outputs[i] {
            None => r.failed += 1,
            Some(out) => {
                r.ok += 1;
                if let Some(want) = &expected[i] {
                    if out != want {
                        r.mismatches += 1;
                    }
                }
            }
        }
    }
    per_kind.sort_by_key(|r| r.kind as u8);
    let (ok, failed, mismatches) = per_kind.iter().fold((0, 0, 0), |acc, r| {
        (acc.0 + r.ok, acc.1 + r.failed, acc.2 + r.mismatches)
    });
    ProtoLoadgenReport {
        ops: jobs.len(),
        ok,
        failed,
        mismatches,
        wall_s,
        throughput: if wall_s > 0.0 {
            ok as f64 / wall_s
        } else {
            0.0
        },
        per_kind,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn mix_parses_families_and_rejects_garbage() {
        let mix = ProtocolMix::parse("kem:40,sign:30,she:20,mul:10").expect("canonical");
        assert_eq!(mix, ProtocolMix::standard());
        let kinds = mix.kinds();
        for k in [
            ProtocolKind::Encaps,
            ProtocolKind::Decaps,
            ProtocolKind::Sign,
            ProtocolKind::Verify,
            ProtocolKind::SheMul,
            ProtocolKind::Mul,
        ] {
            assert!(kinds.contains(&k), "{k} in canonical mix");
        }
        assert!(!kinds.contains(&ProtocolKind::KeyGen));
        // Exact kind names address single kinds.
        let narrow = ProtocolMix::parse("encaps:1").expect("single kind");
        assert_eq!(narrow.kinds(), vec![ProtocolKind::Encaps]);
        for bad in ["", "kem", "kem:0", "kem:x", "dilithium:3", "kem:1,kem:2"] {
            assert!(ProtocolMix::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn op_stream_is_deterministic_and_churn_rotates_keys() {
        let mix = ProtocolMix::parse("encaps:1").expect("mix");
        let a = generate_protocol_ops(9, 12, &[256], &mix, 0);
        let b = generate_protocol_ops(9, 12, &[256], &mix, 0);
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.kind(), y.kind());
            assert_eq!(
                x.run_direct().expect("direct"),
                y.run_direct().expect("direct"),
                "same config, same stream"
            );
        }
        let pk_of = |j: &ProtocolJob| match j {
            ProtocolJob::Encaps { pk, .. } => pk.clone(),
            _ => panic!("encaps-only mix"),
        };
        // churn 0: one public key for the whole run; fresh entropy only.
        let first = pk_of(&a[0]);
        assert!(a.iter().all(|j| pk_of(j) == first), "keys reused");
        let entropies: std::collections::HashSet<u64> = a
            .iter()
            .map(|j| match j {
                ProtocolJob::Encaps { entropy, .. } => *entropy,
                _ => unreachable!(),
            })
            .collect();
        assert!(entropies.len() > 1, "per-op randomness stays fresh");
        // churn 4: a new key every 4 ops.
        let churned = generate_protocol_ops(9, 12, &[256], &mix, 4);
        let distinct: Vec<_> = churned.iter().map(pk_of).fold(Vec::new(), |mut acc, pk| {
            if !acc.contains(&pk) {
                acc.push(pk);
            }
            acc
        });
        assert_eq!(distinct.len(), 3, "12 ops / churn 4 = 3 key epochs");
    }

    #[test]
    fn mixed_run_is_clean_and_reused_keys_hit_the_cache() {
        let reuse = run_protocols(&ProtoLoadgenConfig {
            seed: 21,
            ops: 32,
            degrees: vec![256],
            mix: ProtocolMix::standard(),
            key_churn: 0,
            clients: 3,
            service: ServiceConfig {
                workers: 2,
                linger: Duration::from_micros(200),
                hot_capacity: 32,
                ..ServiceConfig::default()
            },
            verify_direct: true,
        });
        assert!(reuse.is_clean(), "{reuse:?}");
        assert_eq!(reuse.ok, 32);
        assert!(
            reuse.stats.hot_hits > 0,
            "reused keys hit: {:?}",
            reuse.stats
        );
        let lanes: Vec<&str> = reuse
            .stats
            .protocol
            .iter()
            .filter(|l| l.submitted > 0)
            .map(|l| l.kind)
            .collect();
        for kind in ["encaps", "sign", "she_mul", "mul"] {
            assert!(lanes.contains(&kind), "kind {kind} served; lanes {lanes:?}");
        }
        for lane in &reuse.stats.protocol {
            assert_eq!(
                lane.completed + lane.failed,
                lane.submitted,
                "{}",
                lane.kind
            );
            if lane.completed > 0 {
                assert!(lane.p50_us > 0.0, "{} latency recorded", lane.kind);
            }
        }
        // Same stream shape under full key churn: still clean, but the
        // cache hit rate collapses relative to reuse.
        let churn = run_protocols(&ProtoLoadgenConfig {
            seed: 21,
            ops: 32,
            degrees: vec![256],
            mix: ProtocolMix::standard(),
            key_churn: 1,
            clients: 3,
            service: ServiceConfig {
                workers: 2,
                linger: Duration::from_micros(200),
                hot_capacity: 32,
                ..ServiceConfig::default()
            },
            verify_direct: true,
        });
        assert!(churn.is_clean(), "{churn:?}");
        assert!(
            reuse.hot_hit_rate() > churn.hot_hit_rate(),
            "reuse {:.3} must beat churn {:.3}",
            reuse.hot_hit_rate(),
            churn.hot_hit_rate()
        );
    }
}
