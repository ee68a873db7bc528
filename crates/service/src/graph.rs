//! The protocol job-graph layer: full RLWE protocol ops served through
//! the batch-forming fleet.
//!
//! ```text
//!  submit_protocol(job) ──► proto queue ──► graph executor threads
//!                                             │ host ops (sampling,
//!                                             │ additions, hashing)
//!                                             ▼
//!                              leaf NTT multiplies ──► batch former
//!                                                       (shared with
//!                                                        submit /
//!                                                        submit_wide)
//! ```
//!
//! A typed [`ProtocolJob`] (KeyGen / PKE-Enc/Dec / Encaps / Decaps /
//! SHE-Mul / Sign / Verify — plus the trivial one-node `Mul` and k-lane
//! `WideMul` graphs that re-express the raw lanes on the same
//! substrate) compiles into a small DAG of NTT-multiply nodes joined by
//! cheap host ops, all implemented in `crates/rlwe` against the
//! pluggable [`PolyMultiplier`] trait. The graph executor runs the host
//! ops inline and routes every multiply node through the ordinary
//! `(n, q)` batch former as a leaf job, so:
//!
//! * **Cross-tenant batching** — inner products of *different* protocol
//!   ops (different tenants, different kinds) pack into the same
//!   hardware batches whenever their rings match, and the independent
//!   product pairs inside one op ([`PolyMultiplier::multiply_pair`])
//!   are admitted under one lock so they ride one batch together.
//! * **Hot-operand reuse** — repeated public keys and evaluation keys
//!   hit the fleet-wide transform cache exactly like hot `a` operands
//!   of raw multiplies.
//! * **Per-node fault isolation** — each multiply node inherits the
//!   [`CheckPolicy`](cryptopim::check::CheckPolicy) retry/quarantine
//!   machinery individually: a detected fault retries *one node*, not
//!   the whole protocol op, and a terminal node failure surfaces as
//!   [`ServiceError::ProtocolNode`] naming the node (mirroring
//!   [`ServiceError::WideLane`]).
//!
//! **Correctness contract.** The graph layer changes *where* multiplies
//! execute, never *what* they compute: the executor drives the exact
//! `crates/rlwe` code paths through a service-backed multiplier whose
//! products are bit-identical to the direct engine path, so every
//! protocol output equals the direct `crates/rlwe` execution of the
//! same inputs for any fleet size or arrival order. `tests/protocol.rs`
//! pins this per kind across fleet sizes {1, 2, 4}.

use crate::error::ServiceError;
use crate::scheduler::{self, Service, Shared};
use crate::ticket::Ticket;
use modmath::crt::RnsBasis;
use modmath::params::ParamSet;
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use rlwe::kem::{self, Encapsulated, KemKeyPair, MESSAGE_BITS};
use rlwe::pke::{Ciphertext, KeyPair, PublicKey, SecretKey};
use rlwe::sampling;
use rlwe::serialize;
use rlwe::she::HomCiphertext;
use rlwe::signature::{Signature, SigningKey, VerifyKey};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

/// The protocol kinds servable through
/// [`Service::submit_protocol`]. The discriminant doubles as the wire
/// code of the `SubmitProtocol` frame and as the per-kind stats index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ProtocolKind {
    /// One raw negacyclic product — [`Service::submit`] re-expressed as
    /// a trivial one-node graph.
    Mul = 0,
    /// One wide (RNS-decomposed) product — [`Service::submit_wide`]
    /// re-expressed as a k-lane graph.
    WideMul = 1,
    /// RLWE PKE key generation (1 multiply).
    KeyGen = 2,
    /// PKE encryption (2 independent multiplies).
    PkeEncrypt = 3,
    /// PKE decryption (1 multiply).
    PkeDecrypt = 4,
    /// KEM encapsulation (2 independent multiplies).
    Encaps = 5,
    /// KEM decapsulation with the FO re-encryption check (3 multiplies).
    Decaps = 6,
    /// Somewhat-homomorphic plaintext product (2 independent
    /// multiplies).
    SheMul = 7,
    /// GLP signing with rejection sampling (3 multiplies per attempt).
    Sign = 8,
    /// GLP verification (2 independent multiplies).
    Verify = 9,
}

impl ProtocolKind {
    /// Number of kinds (stats lanes).
    pub const COUNT: usize = 10;

    /// Every kind, in discriminant order.
    pub const ALL: [ProtocolKind; ProtocolKind::COUNT] = [
        ProtocolKind::Mul,
        ProtocolKind::WideMul,
        ProtocolKind::KeyGen,
        ProtocolKind::PkeEncrypt,
        ProtocolKind::PkeDecrypt,
        ProtocolKind::Encaps,
        ProtocolKind::Decaps,
        ProtocolKind::SheMul,
        ProtocolKind::Sign,
        ProtocolKind::Verify,
    ];

    /// Stable snake_case name (stats keys, CLI mix specs).
    pub fn as_str(self) -> &'static str {
        match self {
            ProtocolKind::Mul => "mul",
            ProtocolKind::WideMul => "wide_mul",
            ProtocolKind::KeyGen => "keygen",
            ProtocolKind::PkeEncrypt => "pke_enc",
            ProtocolKind::PkeDecrypt => "pke_dec",
            ProtocolKind::Encaps => "encaps",
            ProtocolKind::Decaps => "decaps",
            ProtocolKind::SheMul => "she_mul",
            ProtocolKind::Sign => "sign",
            ProtocolKind::Verify => "verify",
        }
    }

    /// The kind at stats-lane `index`.
    pub fn from_index(index: usize) -> Option<ProtocolKind> {
        ProtocolKind::ALL.get(index).copied()
    }

    /// Decodes a wire code (the discriminant).
    pub fn from_u8(code: u8) -> Option<ProtocolKind> {
        ProtocolKind::from_index(code as usize)
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed protocol op, compiled by the graph executor into NTT-multiply
/// leaf nodes plus host ops.
#[derive(Debug, Clone)]
pub enum ProtocolJob {
    /// Raw product `a · b` (one-node graph).
    Mul {
        /// Left operand.
        a: Polynomial,
        /// Right operand.
        b: Polynomial,
    },
    /// Wide product over `Q = Π q_i` (k-lane graph).
    WideMul {
        /// Left operand (coefficients below the basis modulus).
        a: Vec<u128>,
        /// Right operand.
        b: Vec<u128>,
        /// The residue basis.
        basis: RnsBasis,
    },
    /// Generate a PKE key pair.
    KeyGen {
        /// Ring parameters.
        params: ParamSet,
        /// Sampling seed.
        seed: u64,
    },
    /// Encrypt `bits` under `pk`.
    PkeEncrypt {
        /// Recipient public key.
        pk: PublicKey,
        /// Message bits (≤ n).
        bits: Vec<u8>,
        /// Encryption-randomness seed.
        seed: u64,
    },
    /// Decrypt `ct` under `sk`.
    PkeDecrypt {
        /// Recipient secret key.
        sk: SecretKey,
        /// The ciphertext.
        ct: Ciphertext,
    },
    /// Encapsulate a fresh shared secret to `pk`.
    Encaps {
        /// Recipient public key.
        pk: PublicKey,
        /// Message-choice entropy.
        entropy: u64,
    },
    /// Decapsulate `ct` (FO re-encryption check, implicit rejection).
    Decaps {
        /// The recipient's KEM key pair.
        keys: Box<KemKeyPair>,
        /// The ciphertext.
        ct: Ciphertext,
    },
    /// Homomorphic plaintext product `ct · plain`.
    SheMul {
        /// The homomorphic ciphertext.
        ct: HomCiphertext,
        /// The public plaintext polynomial.
        plain: Polynomial,
    },
    /// Sign `message` (Fiat–Shamir with aborts).
    Sign {
        /// The signing key.
        key: Box<SigningKey>,
        /// The message.
        message: Vec<u8>,
        /// Masking-randomness seed.
        seed: u64,
    },
    /// Verify `signature` over `message`.
    Verify {
        /// The verification key.
        key: VerifyKey,
        /// The message.
        message: Vec<u8>,
        /// The signature.
        signature: Signature,
    },
}

/// The typed result of a protocol op.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolOutput {
    /// [`ProtocolJob::Mul`]: the product.
    Product(Polynomial),
    /// [`ProtocolJob::WideMul`]: the recombined wide product.
    WideProduct(Vec<u128>),
    /// [`ProtocolJob::KeyGen`]: the generated pair.
    KeyPair(Box<KeyPair>),
    /// [`ProtocolJob::PkeEncrypt`]: the ciphertext.
    Ciphertext(Ciphertext),
    /// [`ProtocolJob::PkeDecrypt`]: the recovered bits.
    Bits(Vec<u8>),
    /// [`ProtocolJob::Encaps`]: ciphertext plus sender secret.
    Encapsulated(Encapsulated),
    /// [`ProtocolJob::Decaps`]: the recovered shared secret.
    SharedSecret([u8; kem::SHARED_SECRET_BYTES]),
    /// [`ProtocolJob::SheMul`]: the product ciphertext.
    SheCiphertext(HomCiphertext),
    /// [`ProtocolJob::Sign`]: the signature and how many
    /// rejection-sampling attempts it took.
    Signature {
        /// The accepted signature.
        signature: Signature,
        /// Rejection-sampling attempts (1 = accepted first try).
        sign_attempts: u32,
    },
    /// [`ProtocolJob::Verify`]: whether the signature verified.
    Verdict(bool),
}

impl ProtocolOutput {
    /// A 64-bit FNV-1a digest over the output's canonical byte encoding
    /// — what the TCP front end returns in `ProtocolDone` frames so
    /// remote clients can bit-compare a served op against a local
    /// reference without shipping megabytes of polynomials.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match self {
            ProtocolOutput::Product(p) => {
                eat(&[1]);
                eat(&serialize::polynomial_to_bytes(p));
            }
            ProtocolOutput::WideProduct(v) => {
                eat(&[2]);
                for &c in v {
                    eat(&c.to_le_bytes());
                }
            }
            ProtocolOutput::KeyPair(kp) => {
                // Public half only: the digest may travel over the wire
                // and must not become a secret-key oracle.
                eat(&[3]);
                eat(&serialize::polynomial_to_bytes(kp.public().a()));
                eat(&serialize::polynomial_to_bytes(kp.public().b()));
            }
            ProtocolOutput::Ciphertext(ct) => {
                eat(&[4]);
                eat(&serialize::ciphertext_to_bytes(ct));
            }
            ProtocolOutput::Bits(bits) => {
                eat(&[5]);
                eat(bits);
            }
            ProtocolOutput::Encapsulated(enc) => {
                eat(&[6]);
                eat(&serialize::ciphertext_to_bytes(&enc.ciphertext));
                eat(&enc.shared_secret);
            }
            ProtocolOutput::SharedSecret(ss) => {
                eat(&[7]);
                eat(ss);
            }
            ProtocolOutput::SheCiphertext(hc) => {
                eat(&[8]);
                eat(&serialize::ciphertext_to_bytes(hc.inner()));
                eat(&hc.additions.to_le_bytes());
            }
            ProtocolOutput::Signature {
                signature,
                sign_attempts,
            } => {
                eat(&[9]);
                eat(&serialize::polynomial_to_bytes(signature.z1()));
                eat(&serialize::polynomial_to_bytes(signature.z2()));
                eat(signature.challenge());
                eat(&sign_attempts.to_le_bytes());
            }
            ProtocolOutput::Verdict(ok) => {
                eat(&[10, u8::from(*ok)]);
            }
        }
        h
    }
}

/// A fulfilled protocol op, returned by [`ProtocolTicket::wait`].
#[derive(Debug, Clone)]
pub struct ProtocolCompleted {
    /// The typed output, bit-identical to the direct `crates/rlwe`
    /// execution of the same job.
    pub output: ProtocolOutput,
    /// NTT-multiply leaf nodes the op compiled into (Sign counts every
    /// rejection-sampling attempt's nodes).
    pub nodes: u32,
    /// Worst per-node execution attempts (1 = every node clean on its
    /// first try; > 1 means some node recovered from a detected fault).
    pub attempts: u32,
    /// Time from submission to a graph executor picking the op up, µs.
    pub queue_us: f64,
    /// End-to-end op time (submit → output ready), µs.
    pub service_us: f64,
}

/// Handle to one submitted protocol op. Obtain the result with
/// [`Ticket::wait`].
pub type ProtocolTicket = Ticket<ProtocolCompleted>;

/// One queued protocol op.
pub(crate) struct ProtoTask {
    job: ProtocolJob,
    kind: ProtocolKind,
    ticket: ProtocolTicket,
    submitted: Instant,
}

impl ProtocolJob {
    /// The job's kind (stats lane, wire code).
    pub fn kind(&self) -> ProtocolKind {
        match self {
            ProtocolJob::Mul { .. } => ProtocolKind::Mul,
            ProtocolJob::WideMul { .. } => ProtocolKind::WideMul,
            ProtocolJob::KeyGen { .. } => ProtocolKind::KeyGen,
            ProtocolJob::PkeEncrypt { .. } => ProtocolKind::PkeEncrypt,
            ProtocolJob::PkeDecrypt { .. } => ProtocolKind::PkeDecrypt,
            ProtocolJob::Encaps { .. } => ProtocolKind::Encaps,
            ProtocolJob::Decaps { .. } => ProtocolKind::Decaps,
            ProtocolJob::SheMul { .. } => ProtocolKind::SheMul,
            ProtocolJob::Sign { .. } => ProtocolKind::Sign,
            ProtocolJob::Verify { .. } => ProtocolKind::Verify,
        }
    }

    /// The `(n, q)` ring the job's multiply nodes run under (the first
    /// lane's ring for wide jobs).
    pub fn ring(&self) -> (usize, u64) {
        match self {
            ProtocolJob::Mul { a, .. } => (a.degree_bound(), a.modulus()),
            ProtocolJob::WideMul { a, basis, .. } => {
                (a.len(), basis.moduli().first().copied().unwrap_or(0))
            }
            ProtocolJob::KeyGen { params, .. } => (params.n, params.q),
            ProtocolJob::PkeEncrypt { pk, .. } => (pk.params().n, pk.params().q),
            ProtocolJob::PkeDecrypt { sk, .. } => (sk.params().n, sk.params().q),
            ProtocolJob::Encaps { pk, .. } => (pk.params().n, pk.params().q),
            ProtocolJob::Decaps { keys, .. } => {
                (keys.public().params().n, keys.public().params().q)
            }
            ProtocolJob::SheMul { ct, .. } => (ct.inner().u.degree_bound(), ct.inner().u.modulus()),
            ProtocolJob::Sign { key, .. } => (key.params().n, key.params().q),
            ProtocolJob::Verify { key, .. } => (key.params().n, key.params().q),
        }
    }

    /// Synchronous admission validation: every ring the job's multiply
    /// nodes will run under must have an accelerator configuration, and
    /// host-op preconditions that would otherwise panic (KEM message
    /// capacity) or fail deep inside the executor are checked here.
    fn validate(&self) -> Result<(), ServiceError> {
        match self {
            ProtocolJob::Mul { a, b } => {
                scheduler::validate_leaf(a, b)?;
            }
            ProtocolJob::WideMul { a, b, basis } => {
                if a.len() != b.len() {
                    return Err(ServiceError::PairMismatch {
                        left: a.len(),
                        right: b.len(),
                    });
                }
                for &q in basis.moduli() {
                    if scheduler::params_for(a.len(), q).is_none() {
                        return Err(ServiceError::UnsupportedJob { n: a.len(), q });
                    }
                }
            }
            ProtocolJob::SheMul { ct: _, plain } => {
                let (n, q) = self.ring();
                if plain.degree_bound() != n {
                    return Err(ServiceError::PairMismatch {
                        left: n,
                        right: plain.degree_bound(),
                    });
                }
                if plain.modulus() != q || scheduler::params_for(n, q).is_none() {
                    return Err(ServiceError::UnsupportedJob { n, q });
                }
            }
            ProtocolJob::Encaps { .. } | ProtocolJob::Decaps { .. } => {
                let (n, q) = self.ring();
                if scheduler::params_for(n, q).is_none() {
                    return Err(ServiceError::UnsupportedJob { n, q });
                }
                if n < MESSAGE_BITS {
                    return Err(ServiceError::ProtocolHost {
                        detail: format!("ring degree {n} below the {MESSAGE_BITS}-bit KEM message"),
                    });
                }
            }
            _ => {
                let (n, q) = self.ring();
                if scheduler::params_for(n, q).is_none() {
                    return Err(ServiceError::UnsupportedJob { n, q });
                }
            }
        }
        Ok(())
    }

    /// Builds a deterministic, self-contained job of `kind` at degree
    /// `n` from `seed`: keys, messages, and ciphertexts are derived
    /// host-side with the software NTT (bit-identical to the engine),
    /// so the same `(kind, n, seed)` triple always denotes the same op.
    /// This is what the TCP `SubmitProtocol` frame and the protocol
    /// loadgen speak: a scenario reference small enough for the wire.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnsupportedJob`] when `n` has no paper parameter
    /// set; [`ServiceError::ProtocolHost`] when the degree cannot carry
    /// the kind (KEM kinds below 256) or scenario construction fails.
    pub fn scripted(kind: ProtocolKind, n: usize, seed: u64) -> Result<ProtocolJob, ServiceError> {
        let params =
            ParamSet::for_degree(n).map_err(|_| ServiceError::UnsupportedJob { n, q: 0 })?;
        let host = |e: rlwe::RlweError| ServiceError::ProtocolHost {
            detail: format!("scripted scenario construction failed: {e}"),
        };
        let ntt = NttMultiplier::new(&params).map_err(|e| host(e.into()))?;
        if matches!(kind, ProtocolKind::Encaps | ProtocolKind::Decaps) && n < MESSAGE_BITS {
            return Err(ServiceError::ProtocolHost {
                detail: format!("ring degree {n} below the {MESSAGE_BITS}-bit KEM message"),
            });
        }
        let bits = |salt: u64| -> Vec<u8> {
            (0..n)
                .map(|i| {
                    let x = (i as u64)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        .wrapping_add(seed ^ salt);
                    ((x >> 32) & 1) as u8
                })
                .collect()
        };
        let message = seed.to_be_bytes().to_vec();
        Ok(match kind {
            ProtocolKind::Mul => {
                let mut rng = sampling::seeded_rng(seed);
                let a = sampling::uniform(&params, &mut rng);
                let b = sampling::uniform(&params, &mut rng);
                ProtocolJob::Mul { a, b }
            }
            ProtocolKind::WideMul => {
                let basis =
                    RnsBasis::discover(n, 2, 1 << 20).map_err(|e| ServiceError::ProtocolHost {
                        detail: format!("no wide basis at n = {n}: {e}"),
                    })?;
                let big_q = basis.modulus();
                let mut x = seed ^ 0x5DEECE66D;
                let mut draw = || {
                    // splitmix64 per coefficient, reduced below Q.
                    let mut next = || {
                        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                        let mut z = x;
                        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                        z ^ (z >> 31)
                    };
                    ((u128::from(next()) << 64) | u128::from(next())) % big_q
                };
                let a: Vec<u128> = (0..n).map(|_| draw()).collect();
                let b: Vec<u128> = (0..n).map(|_| draw()).collect();
                ProtocolJob::WideMul { a, b, basis }
            }
            ProtocolKind::KeyGen => ProtocolJob::KeyGen { params, seed },
            ProtocolKind::PkeEncrypt => {
                let keys = KeyPair::generate(&params, &ntt, seed).map_err(host)?;
                ProtocolJob::PkeEncrypt {
                    pk: keys.public().clone(),
                    bits: bits(1),
                    seed: seed.wrapping_add(2),
                }
            }
            ProtocolKind::PkeDecrypt => {
                let keys = KeyPair::generate(&params, &ntt, seed).map_err(host)?;
                let ct = keys
                    .public()
                    .encrypt_bits(&bits(1), &ntt, seed.wrapping_add(2))
                    .map_err(host)?;
                ProtocolJob::PkeDecrypt {
                    sk: keys.secret().clone(),
                    ct,
                }
            }
            ProtocolKind::Encaps => {
                let keys = KemKeyPair::generate(&params, &ntt, seed).map_err(host)?;
                ProtocolJob::Encaps {
                    pk: keys.public().clone(),
                    entropy: seed.wrapping_add(3),
                }
            }
            ProtocolKind::Decaps => {
                let keys = KemKeyPair::generate(&params, &ntt, seed).map_err(host)?;
                let enc =
                    kem::encapsulate(keys.public(), &ntt, seed.wrapping_add(3)).map_err(host)?;
                ProtocolJob::Decaps {
                    keys: Box::new(keys),
                    ct: enc.ciphertext,
                }
            }
            ProtocolKind::SheMul => {
                let keys = KeyPair::generate(&params, &ntt, seed).map_err(host)?;
                let ct = rlwe::she::encrypt(&keys, &bits(1), &ntt, seed.wrapping_add(4))
                    .map_err(host)?;
                // Sparse public polynomial: 1 + x^5 + x^(n/2).
                let mut pc = vec![0u64; n];
                pc[0] = 1;
                pc[5 % n] = 1;
                pc[n / 2] = 1;
                let plain = Polynomial::from_coeffs(pc, params.q).map_err(|e| host(e.into()))?;
                ProtocolJob::SheMul { ct, plain }
            }
            ProtocolKind::Sign => {
                let key = SigningKey::generate(&params, &ntt, seed).map_err(host)?;
                ProtocolJob::Sign {
                    key: Box::new(key),
                    message,
                    seed: seed.wrapping_add(5),
                }
            }
            ProtocolKind::Verify => {
                let key = SigningKey::generate(&params, &ntt, seed).map_err(host)?;
                let (signature, _) = key
                    .sign(&message, &ntt, seed.wrapping_add(5))
                    .map_err(host)?;
                ProtocolJob::Verify {
                    key: key.verify_key(),
                    message,
                    signature,
                }
            }
        })
    }

    /// Executes the job directly on the host with the software NTT —
    /// the bit-identity oracle the proptests, the protocol loadgen, and
    /// the CI smoke gates compare served outputs against.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnsupportedJob`] when a ring has no parameter
    /// set; [`ServiceError::ProtocolHost`] when the rlwe op itself
    /// fails.
    pub fn run_direct(&self) -> Result<ProtocolOutput, ServiceError> {
        let (n, q) = self.ring();
        let host = |e: rlwe::RlweError| ServiceError::ProtocolHost {
            detail: format!("direct execution failed: {e}"),
        };
        let mult_for = |n: usize, q: u64| -> Result<NttMultiplier, ServiceError> {
            let params =
                scheduler::params_for(n, q).ok_or(ServiceError::UnsupportedJob { n, q })?;
            NttMultiplier::new(&params).map_err(|_| ServiceError::UnsupportedJob { n, q })
        };
        Ok(match self {
            ProtocolJob::Mul { a, b } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Product(ntt.multiply(a, b).map_err(|e| host(e.into()))?)
            }
            ProtocolJob::WideMul { a, b, basis } => {
                // Sequential residue loop: split, multiply, recombine.
                let mut lanes: Vec<Vec<u64>> = Vec::with_capacity(basis.channels());
                let mut buf = vec![0u64; n];
                for (lane, &lane_q) in basis.moduli().iter().enumerate() {
                    let ntt = mult_for(n, lane_q)?;
                    basis.split_lane_into(a, lane, &mut buf);
                    let pa = Polynomial::from_canonical_coeffs(buf.clone(), lane_q)
                        .expect("residues are canonical mod q");
                    basis.split_lane_into(b, lane, &mut buf);
                    let pb = Polynomial::from_canonical_coeffs(buf.clone(), lane_q)
                        .expect("residues are canonical mod q");
                    let prod = ntt.multiply(&pa, &pb).map_err(|e| host(e.into()))?;
                    lanes.push(prod.coeffs().to_vec());
                }
                let lane_refs: Vec<&[u64]> = lanes.iter().map(Vec::as_slice).collect();
                let mut out = vec![0u128; n];
                basis.combine_into(&lane_refs, &mut out);
                ProtocolOutput::WideProduct(out)
            }
            ProtocolJob::KeyGen { params, seed } => {
                let ntt = mult_for(params.n, params.q)?;
                ProtocolOutput::KeyPair(Box::new(
                    KeyPair::generate(params, &ntt, *seed).map_err(host)?,
                ))
            }
            ProtocolJob::PkeEncrypt { pk, bits, seed } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Ciphertext(pk.encrypt_bits(bits, &ntt, *seed).map_err(host)?)
            }
            ProtocolJob::PkeDecrypt { sk, ct } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Bits(sk.decrypt_bits(ct, &ntt).map_err(host)?)
            }
            ProtocolJob::Encaps { pk, entropy } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Encapsulated(kem::encapsulate(pk, &ntt, *entropy).map_err(host)?)
            }
            ProtocolJob::Decaps { keys, ct } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::SharedSecret(keys.decapsulate(ct, &ntt).map_err(host)?)
            }
            ProtocolJob::SheMul { ct, plain } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::SheCiphertext(ct.mul_plaintext(plain, &ntt).map_err(host)?)
            }
            ProtocolJob::Sign { key, message, seed } => {
                let ntt = mult_for(n, q)?;
                let (signature, sign_attempts) = key.sign(message, &ntt, *seed).map_err(host)?;
                ProtocolOutput::Signature {
                    signature,
                    sign_attempts,
                }
            }
            ProtocolJob::Verify {
                key,
                message,
                signature,
            } => {
                let ntt = mult_for(n, q)?;
                ProtocolOutput::Verdict(key.verify(message, signature, &ntt).map_err(host)?)
            }
        })
    }
}

impl Service {
    /// Submits a typed protocol op; the returned ticket resolves to the
    /// op's typed output once a graph executor has driven its multiply
    /// nodes through the batch-forming fleet and finished the host ops.
    ///
    /// # Errors
    ///
    /// Synchronously: [`ServiceError::UnsupportedJob`] /
    /// [`ServiceError::PairMismatch`] when some node's ring has no
    /// accelerator configuration, [`ServiceError::ProtocolHost`] for
    /// host-op preconditions (e.g. a KEM ring below 256), and
    /// [`ServiceError::ShuttingDown`] during drain. Asynchronously (via
    /// the ticket): [`ServiceError::ProtocolNode`] attributing a
    /// terminal node failure, or [`ServiceError::ProtocolHost`].
    pub fn submit_protocol(&self, job: ProtocolJob) -> Result<ProtocolTicket, ServiceError> {
        submit_protocol_shared(self.shared_ref(), job)
    }
}

pub(crate) fn submit_protocol_shared(
    shared: &Arc<Shared>,
    job: ProtocolJob,
) -> Result<ProtocolTicket, ServiceError> {
    job.validate()?;
    let kind = job.kind();
    let (ticket, writer) = Ticket::new();
    {
        let mut pq = shared.proto.lock().expect("proto queue poisoned");
        if pq.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        pq.queue.push_back(ProtoTask {
            job,
            kind,
            ticket: writer,
            submitted: Instant::now(),
        });
    }
    {
        let mut st = shared.state.lock().expect("service state poisoned");
        st.proto_lanes[kind as usize].submitted += 1;
    }
    shared.proto_work.notify_one();
    Ok(ticket)
}

/// One graph executor: claims queued protocol ops, runs their host ops
/// inline, and routes every multiply node through the shared batch
/// former. Exits once the queue is drained *and* shutdown was signaled
/// — every ticket issued before shutdown resolves.
pub(crate) fn proto_worker_loop(shared: &Arc<Shared>) {
    loop {
        let task = {
            let mut pq = shared.proto.lock().expect("proto queue poisoned");
            loop {
                if let Some(task) = pq.queue.pop_front() {
                    break task;
                }
                if pq.shutdown {
                    return;
                }
                pq = shared.proto_work.wait(pq).expect("proto queue poisoned");
            }
        };
        run_protocol(shared, task);
    }
}

fn run_protocol(shared: &Arc<Shared>, task: ProtoTask) {
    let picked_up = Instant::now();
    let queue_us = picked_up.duration_since(task.submitted).as_secs_f64() * 1e6;
    let result = execute_job(shared, task.job);
    let service_us = task.submitted.elapsed().as_secs_f64() * 1e6;
    {
        let mut st = shared.state.lock().expect("service state poisoned");
        let lane = &mut st.proto_lanes[task.kind as usize];
        match &result {
            Ok(_) => {
                lane.completed += 1;
                lane.hist.record_us(service_us as u64);
            }
            Err(_) => lane.failed += 1,
        }
    }
    task.ticket
        .fulfill(result.map(|(output, nodes, attempts)| ProtocolCompleted {
            output,
            nodes,
            attempts,
            queue_us,
            service_us,
        }));
}

/// Wraps a leaf failure with its node attribution.
fn node_err(node: usize, q: u64, error: ServiceError) -> ServiceError {
    ServiceError::ProtocolNode {
        node,
        q,
        error: Box::new(error),
    }
}

fn execute_job(
    shared: &Arc<Shared>,
    job: ProtocolJob,
) -> Result<(ProtocolOutput, u32, u32), ServiceError> {
    match job {
        ProtocolJob::Mul { a, b } => {
            let q = a.modulus();
            let done = scheduler::submit_shared(shared, a, b)
                .and_then(crate::JobTicket::wait)
                .map_err(|e| node_err(0, q, e))?;
            Ok((ProtocolOutput::Product(done.product), 1, done.attempts))
        }
        ProtocolJob::WideMul { a, b, basis } => {
            let widen = |e: ServiceError| match e {
                ServiceError::WideLane { lane, q, error } => ServiceError::ProtocolNode {
                    node: lane,
                    q,
                    error,
                },
                other => other,
            };
            let nodes = basis.channels() as u32;
            let done = scheduler::submit_wide_shared(shared, &a, &b, &basis)
                .and_then(crate::WideTicket::wait)
                .map_err(widen)?;
            let attempts = done.lanes.iter().map(|l| l.attempts).max().unwrap_or(1);
            Ok((ProtocolOutput::WideProduct(done.product), nodes, attempts))
        }
        ProtocolJob::KeyGen { params, seed } => {
            let svc = SvcMult::new(shared, params.q);
            let out = KeyPair::generate(&params, &svc, seed);
            svc.settle(out)
                .map(|(kp, n, a)| (ProtocolOutput::KeyPair(Box::new(kp)), n, a))
        }
        ProtocolJob::PkeEncrypt { pk, bits, seed } => {
            let svc = SvcMult::new(shared, pk.params().q);
            let out = pk.encrypt_bits(&bits, &svc, seed);
            svc.settle(out)
                .map(|(ct, n, a)| (ProtocolOutput::Ciphertext(ct), n, a))
        }
        ProtocolJob::PkeDecrypt { sk, ct } => {
            let svc = SvcMult::new(shared, sk.params().q);
            let out = sk.decrypt_bits(&ct, &svc);
            svc.settle(out)
                .map(|(bits, n, a)| (ProtocolOutput::Bits(bits), n, a))
        }
        ProtocolJob::Encaps { pk, entropy } => {
            let svc = SvcMult::new(shared, pk.params().q);
            let out = kem::encapsulate(&pk, &svc, entropy);
            svc.settle(out)
                .map(|(enc, n, a)| (ProtocolOutput::Encapsulated(enc), n, a))
        }
        ProtocolJob::Decaps { keys, ct } => {
            let svc = SvcMult::new(shared, keys.public().params().q);
            let out = keys.decapsulate(&ct, &svc);
            svc.settle(out)
                .map(|(ss, n, a)| (ProtocolOutput::SharedSecret(ss), n, a))
        }
        ProtocolJob::SheMul { ct, plain } => {
            let svc = SvcMult::new(shared, ct.inner().u.modulus());
            let out = ct.mul_plaintext(&plain, &svc);
            svc.settle(out)
                .map(|(hc, n, a)| (ProtocolOutput::SheCiphertext(hc), n, a))
        }
        ProtocolJob::Sign { key, message, seed } => {
            let svc = SvcMult::new(shared, key.params().q);
            let out = key.sign(&message, &svc, seed);
            svc.settle(out).map(|((signature, sign_attempts), n, a)| {
                (
                    ProtocolOutput::Signature {
                        signature,
                        sign_attempts,
                    },
                    n,
                    a,
                )
            })
        }
        ProtocolJob::Verify {
            key,
            message,
            signature,
        } => {
            let svc = SvcMult::new(shared, key.params().q);
            let out = key.verify(&message, &signature, &svc);
            svc.settle(out)
                .map(|(ok, n, a)| (ProtocolOutput::Verdict(ok), n, a))
        }
    }
}

/// The service-backed multiplier: every [`PolyMultiplier::multiply`] a
/// protocol op performs becomes one leaf node through the shared batch
/// former, and [`PolyMultiplier::multiply_pair`] admits both products
/// under one lock so they pack into the same batch. Failures are
/// stashed with their node index; the placeholder `modmath` error
/// returned to the rlwe code merely aborts the op and never escapes —
/// [`SvcMult::settle`] converts the stash into
/// [`ServiceError::ProtocolNode`].
struct SvcMult<'a> {
    shared: &'a Arc<Shared>,
    q: u64,
    /// Leaf nodes submitted so far (the node index space).
    nodes: Cell<u32>,
    /// Worst per-node execution attempts seen.
    attempts: Cell<u32>,
    /// First leaf failure: (node index, underlying error).
    failure: RefCell<Option<(usize, ServiceError)>>,
    /// The ring degree, discovered lazily from the first operand (the
    /// rlwe layer guarantees every multiply of one op shares the ring).
    degree: Cell<usize>,
}

impl<'a> SvcMult<'a> {
    fn new(shared: &'a Arc<Shared>, q: u64) -> SvcMult<'a> {
        SvcMult {
            shared,
            q,
            nodes: Cell::new(0),
            attempts: Cell::new(1),
            failure: RefCell::new(None),
            degree: Cell::new(0),
        }
    }

    fn stash(&self, node: usize, error: ServiceError) -> modmath::Error {
        let mut failure = self.failure.borrow_mut();
        if failure.is_none() {
            *failure = Some((node, error));
        }
        // Abort signal for the rlwe layer; settle() always reports the
        // stashed failure instead.
        modmath::Error::ProductRefused
    }

    fn absorb(&self, done: &crate::CompletedJob) {
        self.attempts.set(self.attempts.get().max(done.attempts));
    }

    /// Converts the finished rlwe result into the graph result: on
    /// success the output plus node/attempt accounting, on failure the
    /// stashed per-node attribution (or a host-op error when no leaf
    /// failed).
    fn settle<T>(self, out: Result<T, rlwe::RlweError>) -> Result<(T, u32, u32), ServiceError> {
        let nodes = self.nodes.get();
        let attempts = self.attempts.get();
        match out {
            Ok(v) => Ok((v, nodes, attempts)),
            Err(e) => match self.failure.into_inner() {
                Some((node, error)) => Err(node_err(node, self.q, error)),
                None => Err(ServiceError::ProtocolHost {
                    detail: e.to_string(),
                }),
            },
        }
    }
}

impl PolyMultiplier for SvcMult<'_> {
    fn degree(&self) -> usize {
        self.degree.get()
    }

    fn modulus(&self) -> u64 {
        self.q
    }

    fn multiply(&self, a: &Polynomial, b: &Polynomial) -> ntt::Result<Polynomial> {
        self.degree.set(a.degree_bound());
        let node = self.nodes.get() as usize;
        self.nodes.set(self.nodes.get() + 1);
        match scheduler::submit_shared(self.shared, a.clone(), b.clone())
            .and_then(crate::JobTicket::wait)
        {
            Ok(done) => {
                self.absorb(&done);
                Ok(done.product)
            }
            Err(e) => Err(self.stash(node, e)),
        }
    }

    fn multiply_pair(
        &self,
        a0: &Polynomial,
        b0: &Polynomial,
        a1: &Polynomial,
        b1: &Polynomial,
    ) -> ntt::Result<(Polynomial, Polynomial)> {
        self.degree.set(a0.degree_bound());
        let node = self.nodes.get() as usize;
        self.nodes.set(self.nodes.get() + 2);
        let (t0, t1) = match scheduler::submit_pair_shared(
            self.shared,
            a0.clone(),
            b0.clone(),
            a1.clone(),
            b1.clone(),
        ) {
            Ok(pair) => pair,
            Err(e) => return Err(self.stash(node, e)),
        };
        // Drain both tickets even when the first fails, so no result is
        // stranded in a slot.
        let r0 = t0.wait();
        let r1 = t1.wait();
        match (r0, r1) {
            (Ok(d0), Ok(d1)) => {
                self.absorb(&d0);
                self.absorb(&d1);
                Ok((d0.product, d1.product))
            }
            (Err(e), _) => Err(self.stash(node, e)),
            (_, Err(e)) => Err(self.stash(node + 1, e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backpressure, ServiceConfig};

    fn service(workers: usize) -> Service {
        Service::start(ServiceConfig {
            workers,
            backpressure: Backpressure::Block,
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn kind_codes_round_trip() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_u8(kind as u8), Some(kind));
            assert_eq!(ProtocolKind::from_index(kind as usize), Some(kind));
            assert!(!kind.as_str().is_empty());
        }
        assert_eq!(ProtocolKind::from_u8(ProtocolKind::COUNT as u8), None);
        // Names are distinct (they key the stats JSON).
        let mut names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProtocolKind::COUNT);
    }

    #[test]
    fn scripted_jobs_are_deterministic_and_serve_bit_identically() {
        let svc = service(2);
        for kind in [
            ProtocolKind::Mul,
            ProtocolKind::KeyGen,
            ProtocolKind::Encaps,
        ] {
            let job = ProtocolJob::scripted(kind, 256, 42).expect("scripted");
            let again = ProtocolJob::scripted(kind, 256, 42).expect("scripted");
            let direct = job.run_direct().expect("direct");
            assert_eq!(direct, again.run_direct().expect("direct"), "{kind}");
            assert_eq!(direct.digest(), again.run_direct().unwrap().digest());
            let served = svc
                .submit_protocol(job)
                .expect("admitted")
                .wait()
                .expect("served");
            assert_eq!(served.output, direct, "{kind}");
            assert!(served.nodes >= 1);
            assert_eq!(served.attempts, 1);
        }
        let stats = svc.shutdown();
        let lane = |k: ProtocolKind| &stats.protocol[k as usize];
        assert_eq!(lane(ProtocolKind::Mul).completed, 1);
        assert_eq!(lane(ProtocolKind::KeyGen).completed, 1);
        assert_eq!(lane(ProtocolKind::Encaps).completed, 1);
        assert_eq!(lane(ProtocolKind::Decaps).submitted, 0);
    }

    #[test]
    fn unsupported_rings_are_refused_synchronously() {
        let svc = service(1);
        // Composite modulus: no negacyclic NTT exists, so no
        // accelerator configuration.
        let p = Polynomial::zero(8, 91).unwrap();
        let err = svc
            .submit_protocol(ProtocolJob::Mul { a: p.clone(), b: p })
            .expect_err("unsupported");
        assert!(matches!(err, ServiceError::UnsupportedJob { n: 8, .. }));
        // KEM below the message capacity is a host-precondition error,
        // not a panic in the executor.
        let err = ProtocolJob::scripted(ProtocolKind::Encaps, 64, 1).expect_err("too small");
        assert!(matches!(err, ServiceError::ProtocolHost { .. }));
        drop(svc);
    }

    #[test]
    fn wide_mul_graph_matches_sequential_loop() {
        let job = ProtocolJob::scripted(ProtocolKind::WideMul, 256, 7).expect("scripted");
        let direct = job.run_direct().expect("direct");
        let svc = service(2);
        let served = svc
            .submit_protocol(job)
            .expect("admitted")
            .wait()
            .expect("served");
        assert_eq!(served.output, direct);
        assert_eq!(served.nodes, 2);
        let stats = svc.shutdown();
        assert_eq!(stats.protocol[ProtocolKind::WideMul as usize].completed, 1);
        assert_eq!(stats.wide_completed, 1, "wide graphs ride the wide lane");
    }

    #[test]
    fn shutdown_resolves_queued_protocol_ops() {
        let svc = service(1);
        let tickets: Vec<ProtocolTicket> = (0..4)
            .map(|i| {
                let job = ProtocolJob::scripted(ProtocolKind::KeyGen, 256, 100 + i).unwrap();
                svc.submit_protocol(job).expect("admitted")
            })
            .collect();
        let stats = svc.shutdown();
        for t in tickets {
            t.wait().expect("resolved at shutdown");
        }
        assert_eq!(stats.protocol[ProtocolKind::KeyGen as usize].completed, 4);
    }
}
