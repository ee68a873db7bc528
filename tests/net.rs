//! Integration tests for the TCP front end: products served over a
//! real loopback socket must be bit-identical to the software NTT,
//! tenant quotas must refuse with typed frames (never hang, never
//! corrupt), and hostile bytes on the wire must never take the server
//! down.

use modmath::params::ParamSet;
use net::client::{Client, NetError};
use net::loadgen::{self, TcpLoadConfig};
use net::server::{Server, ServerConfig, TenantConfig};
use net::wire::{self, ErrorCode, Frame, JobState};
use ntt::negacyclic::{NttMultiplier, PolyMultiplier};
use ntt::poly::Polynomial;
use service::loadgen::generate_jobs;
use service::{ServiceConfig, ServiceStats};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start_server(tenants: Vec<TenantConfig>, service: ServiceConfig) -> Server {
    Server::start(
        "127.0.0.1:0",
        ServerConfig {
            tenants,
            service,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback")
}

fn one_tenant(quota: usize) -> Vec<TenantConfig> {
    vec![TenantConfig::new("alpha", "alpha-token", quota)]
}

/// Jobs submitted over TCP come back bit-identical to the software
/// NTT, and `Status` tracks the job's lifecycle.
#[test]
fn served_over_tcp_matches_software_ntt() {
    let server = start_server(one_tenant(64), ServiceConfig::default());
    let addr = server.local_addr();
    let (mut client, tenant, quota) = Client::connect(addr, "alpha-token").expect("hello");
    assert_eq!(tenant, "alpha");
    assert!(quota >= 1);

    let jobs = generate_jobs(11, 12, &[64, 128, 256]);
    let mult_256 = NttMultiplier::for_degree_modulus(256, jobs[0].0.modulus()).ok();
    let _ = mult_256; // multipliers are built per-job below
    for (id, (a, b)) in jobs.into_iter().enumerate() {
        let id = id as u64 + 1;
        let expected = NttMultiplier::for_degree_modulus(a.degree_bound(), a.modulus())
            .expect("params")
            .multiply(&a, &b)
            .expect("software NTT");
        assert_eq!(client.status(id).expect("status"), JobState::Unknown);
        client
            .submit(id, a.modulus(), a.into_coeffs(), b.into_coeffs())
            .expect("submit");
        let state = client.status(id).expect("status");
        assert!(matches!(state, JobState::Pending | JobState::Done));
        let done = client.wait(id, 30_000).expect("wait");
        assert_eq!(done.q, expected.modulus());
        assert_eq!(done.product, expected.clone().into_coeffs());
        // Collected jobs are forgotten: waiting again is UnknownJob.
        let again = client.wait(id, 1_000).unwrap_err();
        assert_eq!(again.code(), Some(ErrorCode::UnknownJob));
    }
    server.shutdown();
}

/// Quota exhaustion is a typed `QuotaExceeded` frame; collecting a
/// result frees the slot and the connection keeps working.
#[test]
fn quota_exhaustion_is_typed_and_recoverable() {
    let server = start_server(one_tenant(2), ServiceConfig::default());
    let (mut client, _, quota) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    assert_eq!(quota, 2);

    let jobs = generate_jobs(3, 3, &[64]);
    for (i, (a, b)) in jobs.iter().take(2).enumerate() {
        client
            .submit(
                i as u64,
                a.modulus(),
                a.coeffs().to_vec(),
                b.coeffs().to_vec(),
            )
            .expect("within quota");
    }
    // Third submit exceeds the outstanding quota (results not yet
    // collected even if the jobs already ran).
    let (a, b) = &jobs[2];
    let refused = client
        .submit(2, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(refused.code(), Some(ErrorCode::QuotaExceeded));

    // Collect one; the freed slot admits the refused job.
    client.wait(0, 30_000).expect("collect");
    client
        .submit(2, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .expect("slot freed");
    client.wait(1, 30_000).expect("collect");
    client.wait(2, 30_000).expect("collect");
    server.shutdown();
}

/// A tenant that saturates its quota cannot starve another tenant:
/// quotas cap each tenant's share of the admission queue.
#[test]
fn greedy_tenant_cannot_starve_light_tenant() {
    let tenants = vec![
        TenantConfig::new("greedy", "greedy-token", 4),
        TenantConfig::new("light", "light-token", 4),
    ];
    let server = start_server(
        tenants,
        ServiceConfig {
            queue_capacity: 16,
            ..ServiceConfig::default()
        },
    );
    let addr = server.local_addr();
    let (mut greedy, _, _) = Client::connect(addr, "greedy-token").unwrap();
    let jobs = generate_jobs(5, 6, &[64]);
    // Greedy fills its whole quota and is then refused.
    for (i, (a, b)) in jobs.iter().take(4).enumerate() {
        greedy
            .submit(
                i as u64,
                a.modulus(),
                a.coeffs().to_vec(),
                b.coeffs().to_vec(),
            )
            .expect("greedy within quota");
    }
    let (a, b) = &jobs[4];
    let refused = greedy
        .submit(9, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(refused.code(), Some(ErrorCode::QuotaExceeded));
    // The light tenant still gets through.
    let (mut light, _, _) = Client::connect(addr, "light-token").unwrap();
    let (a, b) = &jobs[5];
    light
        .submit(1, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .expect("light tenant admitted despite greedy saturation");
    light.wait(1, 30_000).expect("light result");
    server.shutdown();
}

/// Wrong tokens and pre-auth verbs get typed refusals and a closed
/// connection, not service.
#[test]
fn bad_token_and_preauth_verbs_are_refused() {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let addr = server.local_addr();

    let err = Client::connect(addr, "wrong-token").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::BadToken));

    // A Submit before Hello is AuthRequired and the connection drops.
    let mut raw = TcpStream::connect(addr).unwrap();
    wire::write_frame(
        &mut raw,
        &Frame::Submit {
            job_id: 1,
            q: 7681,
            a: vec![1, 2],
            b: vec![3, 4],
        },
    )
    .unwrap();
    let reply = wire::read_frame(&mut raw).unwrap();
    match reply {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::AuthRequired),
        other => panic!("expected Error frame, got {}", other.name()),
    }
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "server should close after refusal");
    server.shutdown();
}

/// Garbage on the socket — bad magic, bad version, oversized length
/// prefixes, mid-frame disconnects, a zero modulus — never takes the
/// server down; a well-behaved client still gets served afterwards.
#[test]
fn hostile_bytes_do_not_kill_the_server() {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let addr = server.local_addr();

    // Bad magic.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"HTTP/1.1 GET /\r\n\r\n").unwrap();
    let _ = s.read(&mut [0u8; 64]);
    drop(s);

    // Right magic, wrong version.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"CPIM\x63\x01\x00\x00\x00\x00").unwrap();
    let _ = s.read(&mut [0u8; 64]);
    drop(s);

    // Oversized length prefix (1 GiB claimed payload).
    let mut s = TcpStream::connect(addr).unwrap();
    let mut evil = Vec::from(wire::MAGIC);
    evil.push(wire::VERSION);
    evil.push(1); // Hello tag
    evil.extend_from_slice(&(1u32 << 30).to_le_bytes());
    s.write_all(&evil).unwrap();
    let _ = s.read(&mut [0u8; 64]);
    drop(s);

    // Mid-frame disconnect: a valid header, then hang up.
    let mut s = TcpStream::connect(addr).unwrap();
    let good = wire::encode_frame(&Frame::Hello {
        token: "alpha-token".into(),
    });
    s.write_all(&good[..good.len() / 2]).unwrap();
    drop(s);

    // Authenticated but hostile submit: modulus zero must be a typed
    // refusal, not a panicked handler.
    let (mut hostile, _, _) = Client::connect(addr, "alpha-token").unwrap();
    let err = hostile.submit(1, 0, vec![1, 2], vec![3, 4]).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unsupported));
    // Non-power-of-two degree is refused the same way.
    let err = hostile
        .submit(1, 7681, vec![1, 2, 3], vec![4, 5, 6])
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unsupported));

    // After all of that, an honest client gets a bit-exact product.
    let (mut client, _, _) = Client::connect(addr, "alpha-token").unwrap();
    let (a, b) = generate_jobs(21, 1, &[128]).pop().unwrap();
    let expected = NttMultiplier::for_degree_modulus(128, a.modulus())
        .unwrap()
        .multiply(&a, &b)
        .unwrap();
    client
        .submit(7, a.modulus(), a.into_coeffs(), b.into_coeffs())
        .expect("submit after hostile traffic");
    let done = client
        .wait(7, 30_000)
        .expect("served after hostile traffic");
    assert_eq!(done.product, expected.into_coeffs());
    server.shutdown();
}

/// A `Wait` that times out returns a typed `WaitTimeout` frame and the
/// job stays claimable by a later `Wait`.
#[test]
fn wait_timeout_over_tcp_keeps_job_claimable() {
    let server = start_server(
        one_tenant(8),
        ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
    );
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();

    // Occupy the single worker with large segmented multiplies so the
    // probe job sits in the queue long enough to observe a timeout.
    let q = ParamSet::for_degree(32768).expect("segmented params").q;
    let blocker = |k: u64| {
        let coeffs: Vec<u64> = (0..32768u64).map(|i| (i * 37 + k) % q).collect();
        Polynomial::from_coeffs(coeffs, q).expect("blocker operand")
    };
    for id in 0..2u64 {
        client
            .submit(
                100 + id,
                q,
                blocker(id).into_coeffs(),
                blocker(id + 9).into_coeffs(),
            )
            .expect("blocker admitted");
    }
    let (a, b) = generate_jobs(31, 1, &[64]).pop().unwrap();
    let expected = NttMultiplier::for_degree_modulus(64, a.modulus())
        .unwrap()
        .multiply(&a, &b)
        .unwrap();
    client
        .submit(7, a.modulus(), a.into_coeffs(), b.into_coeffs())
        .expect("probe admitted");

    let err = client.wait(7, 1).unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::WaitTimeout));
    // Still claimable — and correct — once the workers get to it.
    let done = client.wait(7, 120_000).expect("probe completes");
    assert_eq!(done.product, expected.into_coeffs());
    server.shutdown();
}

/// The `Stats` verb returns JSON whose embedded `"service"` object
/// round-trips through `ServiceStats::from_json`.
#[test]
fn stats_verb_json_is_parseable() {
    let server = start_server(one_tenant(16), ServiceConfig::default());
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    for (i, (a, b)) in generate_jobs(41, 4, &[64]).into_iter().enumerate() {
        client
            .submit(i as u64, a.modulus(), a.into_coeffs(), b.into_coeffs())
            .unwrap();
        client.wait(i as u64, 30_000).unwrap();
    }
    let doc = client.stats_json().expect("stats");
    let service_obj = loadgen::extract_object(&doc, "service").expect("service object");
    let stats = ServiceStats::from_json(service_obj).expect("parseable service stats");
    assert!(stats.completed >= 4, "completed={}", stats.completed);
    // The net layer's own counters are present too.
    for key in [
        "connections_accepted",
        "frames_in",
        "tenant_outstanding",
        "tenant_completed",
    ] {
        assert!(doc.contains(key), "missing {key} in {doc}");
    }
    server.shutdown();
}

/// `Shutdown` is capability-gated: ordinary tenants get `NotPermitted`,
/// an operator tenant stops the server.
#[test]
fn shutdown_is_capability_gated() {
    let tenants = vec![
        TenantConfig::new("user", "user-token", 4),
        TenantConfig {
            name: "operator".into(),
            token: "op-token".into(),
            quota: 4,
            may_shutdown: true,
        },
    ];
    let server = start_server(tenants, ServiceConfig::default());
    let addr = server.local_addr();

    let (mut user, _, _) = Client::connect(addr, "user-token").unwrap();
    let err = user.shutdown_server().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NotPermitted));
    assert!(!server.is_stopping());

    let (mut op, _, _) = Client::connect(addr, "op-token").unwrap();
    op.shutdown_server().expect("operator may stop the server");
    // wait() observes the stop flag, drains, and returns final stats.
    let stats = server.wait();
    assert_eq!(stats.in_flight, 0);
}

/// The bounded acceptor refuses connections past the limit with a
/// typed frame instead of spawning without bound.
#[test]
fn acceptor_is_bounded() {
    let server = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            tenants: one_tenant(4),
            max_connections: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let (_held, _, _) = Client::connect(addr, "alpha-token").expect("first connection");
    // The refusal may race the live-count update; poll briefly.
    let mut refused = None;
    for _ in 0..50 {
        match Client::connect(addr, "alpha-token") {
            Err(e) if e.code() == Some(ErrorCode::TooManyConnections) => {
                refused = Some(e);
                break;
            }
            Ok(extra) => drop(extra),
            Err(_) => {}
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        refused.and_then(|e| e.code()),
        Some(ErrorCode::TooManyConnections)
    );
    server.shutdown();
}

/// Reusing an outstanding job id on one connection is a typed
/// `DuplicateJob` refusal.
#[test]
fn duplicate_job_id_is_refused() {
    let server = start_server(one_tenant(8), ServiceConfig::default());
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    let (a, b) = generate_jobs(51, 1, &[64]).pop().unwrap();
    client
        .submit(3, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap();
    let err = client
        .submit(3, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DuplicateJob));
    client.wait(3, 30_000).unwrap();
    server.shutdown();
}

/// Raw multiplies and protocol ops share one job-id space per
/// connection: a `Submit` reusing the id of an outstanding
/// `SubmitProtocol` is a `DuplicateJob` refusal, and once the op is
/// collected the id is unknown again.
#[test]
fn submit_cannot_reuse_an_outstanding_protocol_id() {
    let server = start_server(one_tenant(8), ServiceConfig::default());
    let (mut client, _, _) = Client::connect(server.local_addr(), "alpha-token").unwrap();
    client
        .submit_protocol(7, service::ProtocolKind::KeyGen, 256, 5)
        .expect("protocol submit");
    let (a, b) = generate_jobs(52, 1, &[64]).pop().unwrap();
    let err = client
        .submit(7, a.modulus(), a.coeffs().to_vec(), b.coeffs().to_vec())
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DuplicateJob));
    let done = client.wait_protocol(7, 30_000).expect("collect");
    assert_eq!(done.kind, service::ProtocolKind::KeyGen);
    assert_eq!(client.status(7).unwrap(), JobState::Unknown);
    server.shutdown();
}

/// The TCP load generator on loopback: every product bit-verified,
/// zero mismatches, and the post-run stats document parses.
#[test]
fn tcp_loadgen_verifies_everything() {
    let server = start_server(one_tenant(32), ServiceConfig::default());
    let report = loadgen::run_against(
        server.local_addr(),
        "alpha-token",
        &TcpLoadConfig {
            seed: 17,
            clients: 4,
            jobs_per_client: 8,
            degrees: vec![64, 128],
            window: 4,
            wait_timeout_ms: 30_000,
        },
    );
    assert!(
        report.is_clean(),
        "mismatches={} failed={} verified={}/{}",
        report.mismatches,
        report.failed,
        report.verified,
        report.jobs
    );
    assert_eq!(report.jobs, 32);
    assert!(report.p99_us >= report.p50_us);
    let service_obj =
        loadgen::extract_object(&report.stats_json, "service").expect("service object");
    assert!(ServiceStats::from_json(service_obj).is_some());
    server.shutdown();
}

/// The `NetError` display surface names the code and detail.
#[test]
fn refusals_render_usefully() {
    let e = NetError::Server {
        code: ErrorCode::QuotaExceeded,
        job_id: 9,
        detail: "outstanding quota 2 exhausted".into(),
    };
    let msg = e.to_string();
    assert!(msg.contains("quota"), "{msg}");
    assert!(msg.contains('9'), "{msg}");
}

/// Protocol ops over TCP (wire v2): `SubmitProtocol` serves a scripted
/// scenario through the graph layer, and the returned digest matches a
/// local direct execution of the same `(kind, n, seed)` — a remote
/// bit-identity check without shipping the output.
#[test]
fn protocol_ops_over_tcp_match_direct_digests() {
    use service::{ProtocolJob, ProtocolKind};
    let server = start_server(one_tenant(16), ServiceConfig::default());
    let addr = server.local_addr();
    let (mut client, _, _) = Client::connect(addr, "alpha-token").expect("hello");
    for (i, kind) in [
        ProtocolKind::KeyGen,
        ProtocolKind::Encaps,
        ProtocolKind::Decaps,
        ProtocolKind::Sign,
        ProtocolKind::SheMul,
    ]
    .into_iter()
    .enumerate()
    {
        let id = 100 + i as u64;
        let seed = 4000 + i as u64;
        client
            .submit_protocol(id, kind, 256, seed)
            .expect("protocol submit");
        let done = client.wait_protocol(id, 30_000).expect("protocol done");
        assert_eq!(done.kind, kind);
        let want = ProtocolJob::scripted(kind, 256, seed)
            .expect("scripted")
            .run_direct()
            .expect("direct")
            .digest();
        assert_eq!(done.digest, want, "digest mismatch for {kind}");
        assert!(done.nodes >= 1);
    }
    // Protocol jobs share the id space: a duplicate is refused.
    client
        .submit_protocol(200, service::ProtocolKind::KeyGen, 256, 1)
        .expect("submit");
    let err = client
        .submit_protocol(200, service::ProtocolKind::Sign, 256, 2)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::DuplicateJob));
    let _ = client.wait_protocol(200, 30_000).expect("collect");
    // A hostile degree is a typed refusal, not a server-side panic.
    let err = client
        .submit_protocol(201, service::ProtocolKind::Encaps, 64, 3)
        .unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Unsupported));
    server.shutdown();
}

/// A peer speaking wire v1 gets one typed `UnsupportedVersion` error —
/// encoded in the v1 envelope so the old client can decode it — instead
/// of a silent close.
#[test]
fn legacy_version_peer_gets_typed_refusal_in_its_own_envelope() {
    let server = start_server(one_tenant(4), ServiceConfig::default());
    let addr = server.local_addr();
    let mut raw = TcpStream::connect(addr).unwrap();
    // Speak v1: a Hello frame with the legacy version byte.
    let hello = wire::encode_frame_versioned(
        &Frame::Hello {
            token: "alpha-token".into(),
        },
        wire::LEGACY_VERSION,
    );
    raw.write_all(&hello).unwrap();
    // The reply envelope must carry the peer's version byte...
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert!(
        reply.len() > wire::HEADER_LEN,
        "typed reply, not a bare close"
    );
    assert_eq!(&reply[..4], &wire::MAGIC);
    assert_eq!(
        reply[4],
        wire::LEGACY_VERSION,
        "reply speaks the peer's version"
    );
    // ...and decode (after re-stamping to the current version, which is
    // exactly the strict-envelope check a v1 reader would have passed)
    // as an UnsupportedVersion error.
    reply[4] = wire::VERSION;
    match wire::read_frame(&mut reply.as_slice()).expect("decodable reply") {
        Frame::Error { code, .. } => assert_eq!(code, ErrorCode::UnsupportedVersion),
        other => panic!("expected Error frame, got {}", other.name()),
    }
    server.shutdown();
}
