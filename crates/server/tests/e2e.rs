//! End-to-end daemon tests: wire results must be bit-identical to
//! direct library analysis, backpressure must be an explicit `Busy`,
//! single-flight must collapse duplicate work, shutdown must drain
//! in-flight requests, and neither accepting nor draining may sit in a
//! sleep-poll.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use funseeker::{Config, FunSeeker};
use funseeker_client::proto::Source;
use funseeker_client::{Client, ClientError};
use funseeker_server::{Server, ServerConfig};

/// Latency-bound tests hold this exclusively and every other test holds
/// it shared, so no bound is measured while the CPU-heavy analysis tests
/// of this binary saturate the cores beside it.
static CPU: RwLock<()> = RwLock::new(());

fn cpu_shared() -> RwLockReadGuard<'static, ()> {
    CPU.read().unwrap_or_else(PoisonError::into_inner)
}

fn cpu_exclusive() -> RwLockWriteGuard<'static, ()> {
    CPU.write().unwrap_or_else(PoisonError::into_inner)
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("fs-e2e-{tag}-{}.sock", std::process::id()))
}

fn own_exe() -> Vec<u8> {
    std::fs::read("/proc/self/exe").unwrap()
}

/// A distinct-but-parseable variant of an image: trailing padding is
/// outside every ELF-described region, so the analysis is unchanged but
/// the content hash (and thus every cache key) differs.
fn padded(image: &[u8], tag: u64) -> Vec<u8> {
    let mut v = image.to_vec();
    v.extend_from_slice(&tag.to_le_bytes());
    v
}

#[test]
fn wire_results_are_bit_identical_to_direct_analysis() {
    let _cpu = cpu_shared();
    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let mut client = Client::connect(&server.addr().to_string()).unwrap();
    let image = own_exe();
    let prepared = funseeker::prepare(&image).unwrap();
    for (id, config) in
        [(1u8, Config::c1()), (2, Config::c2()), (3, Config::c3()), (4, Config::c4())]
    {
        let reply = client.analyze_with(&image, id, false).unwrap();
        let direct = FunSeeker::with_config(config).identify_prepared(&prepared);
        assert_eq!(reply.analysis, direct, "config {id}");
    }
    // The call-graph flag is part of the key: it computes separately and
    // carries the interprocedural summary.
    let reply = client.analyze_with(&image, 4, true).unwrap();
    let mut config = Config::c4();
    config.interproc = true;
    let direct = FunSeeker::with_config(config).identify_prepared(&prepared);
    assert_eq!(reply.analysis, direct);
    assert!(reply.analysis.interproc.is_some());
    server.join();
}

#[test]
fn connection_cap_refuses_with_busy_not_a_hang() {
    use funseeker_client::proto;
    let _cpu = cpu_shared();
    let mut config = ServerConfig::tcp("127.0.0.1:0");
    config.max_connections = 1;
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();
    let mut first = Client::connect(&addr).unwrap();
    first.ping().unwrap();
    // The second connection is accepted only to be told Busy (an
    // unsolicited frame, per the spec) and closed; read it raw.
    let hostport = addr.strip_prefix("tcp:").unwrap();
    let mut second = std::net::TcpStream::connect(hostport).unwrap();
    second.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let payload = proto::read_frame(&mut second, proto::DEFAULT_MAX_FRAME)
        .unwrap()
        .expect("an immediate Busy frame");
    match proto::decode_response(&payload).unwrap() {
        funseeker_client::Response::Busy { .. } => {}
        other => panic!("expected Busy from the connection cap, got {other:?}"),
    }
    assert!(
        proto::read_frame(&mut second, proto::DEFAULT_MAX_FRAME).unwrap().is_none(),
        "refused connection is closed after the Busy frame"
    );
    drop(first);
    server.join();
}

#[test]
fn saturated_analyze_slots_refuse_with_busy() {
    let _cpu = cpu_shared();
    let mut config = ServerConfig::tcp("127.0.0.1:0");
    config.analyze_slots = 1;
    config.queue_cap = 0;
    let server = Server::start(config).unwrap();
    let addr = server.addr().to_string();
    let image = own_exe();

    // Background load: continuously submit fresh distinct images so the
    // single analyze slot stays occupied.
    let stop = std::sync::atomic::AtomicBool::new(false);
    let saw_busy = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (addr, image, stop) = (&addr, &image, &stop);
        for worker in 0..2u64 {
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut tag = worker.wrapping_mul(1 << 32);
                while !stop.load(Ordering::Relaxed) {
                    tag += 1;
                    match client.analyze(&padded(image, tag)) {
                        Ok(_) | Err(ClientError::Busy { .. }) => {}
                        Err(other) => panic!("unexpected error under load: {other}"),
                    }
                }
            });
        }
        // Probe with distinct images until one is refused at the gate.
        let mut client = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut tag = u64::MAX;
        while saw_busy.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "never observed Busy under saturated slots");
            tag -= 1;
            if let Err(e) = client.analyze(&padded(image, tag)) {
                assert!(e.is_busy(), "only Busy is acceptable here: {e}");
                saw_busy.fetch_add(1, Ordering::Relaxed);
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert!(stats.get("busy_total").unwrap() >= 1);
    server.join();
}

#[test]
fn concurrent_identical_submissions_compute_once() {
    let _cpu = cpu_shared();
    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let addr = server.addr().to_string();
    let image = padded(&own_exe(), 0x51f7);
    let direct = FunSeeker::new().identify(&image).unwrap();

    const CLIENTS: usize = 16;
    let start = Barrier::new(CLIENTS);
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| {
                let mut client = Client::connect(&addr).unwrap();
                start.wait();
                let reply = client.analyze(&image).unwrap();
                assert_eq!(reply.analysis, direct);
                assert!(matches!(reply.source, Source::Computed | Source::Shared | Source::Memory));
            });
        }
    });
    let mut client = Client::connect(&addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("images_analyzed"),
        Some(1),
        "sixteen identical submissions must cost one analysis"
    );
    server.join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let _cpu = cpu_shared();
    let server = Server::start(ServerConfig::tcp("127.0.0.1:0")).unwrap();
    let addr = server.addr().to_string();
    let image = padded(&own_exe(), 0xd4a1);

    std::thread::scope(|s| {
        let addr = &addr;
        let handle = s.spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.analyze(&image)
        });
        // Wait until the request is past admission — running in a gate
        // slot or already replied — then initiate shutdown. Work that
        // was admitted must complete, so the submitter sees a result.
        let mut observer = Client::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let stats = observer.stats().unwrap();
            if stats.get("running").unwrap() >= 1 || stats.get("results_total").unwrap() >= 1 {
                break;
            }
            assert!(Instant::now() < deadline, "request never reached a gate slot");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.shutdown();
        let reply = handle.join().unwrap().expect("admitted work drains to a clean result");
        assert!(!reply.analysis.functions.is_empty());
    });
    server.join();

    // After the drain a fresh connect must fail: nothing is listening.
    assert!(Client::connect(&addr).is_err());
}

// The timing bounds below are loose on purpose: they hold on a shared
// 2-core VM with the other tests running beside them, and exist to
// catch a sleep-poll creeping back into accept or drain (20 ms per
// accept turned 50 rounds into about 1 s), not to time the daemon.

#[test]
fn sequential_connects_pay_no_accept_sleep() {
    let _cpu = cpu_exclusive();
    let server = Server::start(ServerConfig::unix(sock_path("floor"))).unwrap();
    let addr = server.addr().to_string();
    let start = Instant::now();
    for _ in 0..50 {
        let mut client = Client::connect(&addr).unwrap();
        client.ping().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(250), "50 connect+ping rounds took {elapsed:?}");
    server.join();
}

#[test]
fn join_without_connections_is_prompt() {
    let _cpu = cpu_exclusive();
    let server = Server::start(ServerConfig::unix(sock_path("join"))).unwrap();
    let start = Instant::now();
    server.join();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_millis(100), "idle join took {elapsed:?}");
}

#[test]
fn join_is_bounded_when_the_socket_file_is_gone() {
    let _cpu = cpu_shared();
    let path = sock_path("unlinked");
    let server = Server::start(ServerConfig::unix(&path)).unwrap();
    // Nothing can reach the listener now, so the shutdown wake fails
    // and the accept thread stays blocked.
    std::fs::remove_file(&path).unwrap();
    let start = Instant::now();
    server.join();
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(2), "join took {elapsed:?}");
}

/// A daemon whose frame deadline starts at 300 ms: 150 poll ticks of
/// 2 ms, plus one second per MiB a frame declares.
fn short_deadline_server(tag: &str) -> Server {
    let mut config = ServerConfig::unix(sock_path(tag));
    config.poll_interval = Duration::from_millis(2);
    Server::start(config).unwrap()
}

#[test]
fn slow_drip_frame_is_reaped_at_its_deadline() {
    let _cpu = cpu_shared();
    let server = short_deadline_server("drip");
    let addr = server.addr().to_string();
    let path = addr.strip_prefix("unix:").unwrap();

    // Declare a 64 KiB body, large enough to take ballast, then send
    // it one byte per 100 ms: every read succeeds, so only the frame
    // deadline (300 ms + 62.5 ms for the declared length) can stop it.
    let mut raw = UnixStream::connect(path).unwrap();
    raw.write_all(&(64u32 << 10).to_le_bytes()).unwrap();
    let start = Instant::now();
    let stop = AtomicBool::new(false);
    let closed_after = std::thread::scope(|s| {
        let mut writer = raw.try_clone().unwrap();
        let stop = &stop;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) && writer.write_all(&[0]).is_ok() {
                std::thread::sleep(Duration::from_millis(100));
            }
        });
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut byte = [0u8; 1];
        let seen = raw.read(&mut byte);
        let closed_after = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        // The daemon closes without a reply: end-of-stream, or a reset
        // because it left drip bytes unread.
        match seen {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("expected the daemon to close the connection, got {other:?}"),
        }
        closed_after
    });
    assert!(closed_after < Duration::from_secs(1), "reaped after {closed_after:?}");

    let stats = Client::connect(&addr).unwrap().stats().unwrap();
    assert_eq!(stats.get("frames_reaped_total"), Some(1));
    assert_eq!(stats.get("inflight_bytes"), Some(0), "the reaped frame's ballast is released");
    assert_eq!(stats.get("proto_errors_total"), Some(0));
    server.join();
}

/// A small CET-style x86-64 executable zero-padded to exactly 3 MiB,
/// the same size in every build profile (this test binary is under
/// 2 MiB in release and many times that in debug). The padding lies
/// outside every ELF-described region, so it only lengthens the frame.
fn three_mib_image() -> Vec<u8> {
    use funseeker_elf::{Class, ElfBuilder, Machine, ObjectType};
    let mut text = Vec::new();
    for _ in 0..4096 {
        // endbr64; call <next>; ret
        text.extend_from_slice(&[0xf3, 0x0f, 0x1e, 0xfa, 0xe8, 0, 0, 0, 0, 0xc3]);
    }
    let mut b = ElfBuilder::new(Class::Elf64, Machine::X86_64, ObjectType::Executable);
    b.entry(0x40_1000).text(".text", 0x40_1000, text);
    let mut image = b.build().unwrap();
    assert!(image.len() < 3 << 20);
    image.resize(3 << 20, 0);
    image
}

#[test]
fn large_frame_at_a_steady_rate_outlasts_the_base_deadline() {
    use funseeker_client::proto::{self, Response};
    let _cpu = cpu_shared();
    let server = short_deadline_server("steady");
    let addr = server.addr().to_string();
    let path = addr.strip_prefix("unix:").unwrap();

    // An honest multi-MiB upload paced over about 0.8 s: longer than
    // the 300 ms base, well inside the second per MiB its length adds.
    let image = three_mib_image();
    assert!(image.len() > 2 << 20, "the image is large enough to earn a longer deadline");
    let mut frame = Vec::new();
    proto::write_analyze(&mut frame, 4, 0, &image).unwrap();
    let mut raw = UnixStream::connect(path).unwrap();
    let start = Instant::now();
    for chunk in frame.chunks(frame.len().div_ceil(20)) {
        if let Err(e) = raw.write_all(chunk) {
            panic!("the daemon closed the upload after {:?}: {e}", start.elapsed());
        }
        std::thread::sleep(Duration::from_millis(40));
    }
    let sent_in = start.elapsed();
    assert!(sent_in > Duration::from_millis(300), "sent in {sent_in:?}, inside the base deadline");

    let reply = proto::read_frame(&mut raw, proto::DEFAULT_MAX_FRAME).unwrap().unwrap();
    let Response::Result(reply) = proto::decode_response(&reply).unwrap() else {
        panic!("expected a RESULT for a frame sent in {sent_in:?}");
    };
    let direct = FunSeeker::with_config(Config::c4()).identify(&image).unwrap();
    assert_eq!(reply.analysis, direct);
    let stats = Client::connect(&addr).unwrap().stats().unwrap();
    assert_eq!(stats.get("frames_reaped_total"), Some(0));
    server.join();
}
