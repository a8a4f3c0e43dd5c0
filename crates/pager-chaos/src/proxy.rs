//! The per-link chaos proxy.
//!
//! A [`ChaosProxy`] listens on an ephemeral local port and forwards
//! every accepted connection to one upstream address, applying the
//! link's current fault policy to each chunk in each direction. The
//! policy is mutated at runtime by [`ChaosProxy::apply`] (normally via
//! a [`crate::net::ChaosNet`] driving a [`crate::schedule::Schedule`]);
//! pump threads observe changes within one poll tick (~5 ms).
//!
//! Each pump direction of each connection owns a private RNG seeded
//! from `(proxy seed, link name, connection number, direction)`, so
//! every jitter amount, corruption roll, flip position, and
//! duplication roll is a deterministic function of the seed and that
//! connection's byte stream — a failing seed replays its decisions.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use jsonio::metrics::Counter;
use rand::prelude::{Rng, SeedableRng, StdRng};

use crate::schedule::Fault;

/// How often pump and accept loops re-check policy and stop flags.
const POLL_TICK: Duration = Duration::from_millis(5);

/// Dial timeout for the proxy's upstream leg. Upstream is a local
/// process; if it is gone the client should learn quickly.
const UPSTREAM_CONNECT_TIMEOUT: Duration = Duration::from_millis(1000);

/// Forwarding chunk size. Small enough that throttles and corruption
/// interleave with real traffic, large enough not to bottleneck.
const CHUNK: usize = 16 * 1024;

/// What the link does with traffic right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Mode {
    /// Forward chunks, subject to delay/jitter/throttle/corrupt/dup.
    #[default]
    Forward,
    /// Accept and swallow: nothing is delivered either way.
    Blackhole,
    /// Refuse new connections; established ones are severed.
    Partition,
}

/// The link's mutable fault state, behind the `link_policy` mutex
/// (lock class `chaos`; never held across I/O or sleeps).
#[derive(Debug, Default)]
struct Policy {
    mode: Mode,
    delay: Duration,
    jitter: Duration,
    throttle_bps: u64,
    corrupt: Option<(u32, u8)>,
    duplicate_pct: Option<u8>,
    /// Connections opened under a generation lower than this must
    /// close (bumped by `drop_conn` and `partition`).
    kill_generation: u64,
}

/// A point-in-time copy a pump works from (so the mutex is never held
/// while sleeping or writing).
#[derive(Debug, Clone, Copy)]
struct PolicySnapshot {
    mode: Mode,
    delay: Duration,
    jitter: Duration,
    throttle_bps: u64,
    corrupt: Option<(u32, u8)>,
    duplicate_pct: Option<u8>,
    kill_generation: u64,
}

jsonio::registry! {
    /// Monotone per-link counters.
    pub(crate) struct LinkStats {
        /// Connections accepted and wired through to upstream.
        conns_opened: Counter,
        /// Connections refused (partition) or failed upstream dials.
        conns_refused: Counter,
        /// Established connections severed by `drop_conn`/`partition`.
        conns_severed: Counter,
        /// Bytes delivered (after corruption/duplication).
        bytes_forwarded: Counter,
        /// Bytes swallowed while blackholed.
        bytes_discarded: Counter,
        /// Chunks that had bytes flipped.
        chunks_corrupted: Counter,
        /// Chunks forwarded twice.
        chunks_duplicated: Counter,
    }
}

/// State shared between the proxy handle, its accept loop, and pumps.
#[derive(Debug)]
struct Shared {
    link_policy: Mutex<Policy>,
    stats: LinkStats,
    stop: AtomicBool,
    seed: u64,
    link_hash: u64,
}

impl Shared {
    fn snapshot(&self) -> PolicySnapshot {
        let policy = self
            .link_policy
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        PolicySnapshot {
            mode: policy.mode,
            delay: policy.delay,
            jitter: policy.jitter,
            throttle_bps: policy.throttle_bps,
            corrupt: policy.corrupt,
            duplicate_pct: policy.duplicate_pct,
            kill_generation: policy.kill_generation,
        }
    }
}

/// One fault-injecting TCP proxy on one cluster link.
#[derive(Debug)]
pub(crate) struct ChaosProxy {
    link: String,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ChaosProxy {
    /// Spawns a proxy for `link` (e.g. `router->shard-0.r0`) listening
    /// on an ephemeral `127.0.0.1` port and forwarding to `upstream`.
    /// All seeded decisions on this link derive from `seed` and the
    /// link name.
    pub(crate) fn spawn(link: &str, upstream: &str, seed: u64) -> Result<ChaosProxy, String> {
        // Resolve the upstream once so a bad address fails loudly at
        // wiring time, not on the first forwarded connection.
        upstream
            .to_socket_addrs()
            .map_err(|e| format!("chaos link {link}: cannot resolve {upstream}: {e}"))?
            .next()
            .ok_or_else(|| format!("chaos link {link}: {upstream} resolves to nothing"))?;
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("chaos link {link}: cannot bind: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("chaos link {link}: cannot set nonblocking: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("chaos link {link}: no local addr: {e}"))?;
        let shared = Arc::new(Shared {
            link_policy: Mutex::new(Policy::default()),
            stats: LinkStats::default(),
            stop: AtomicBool::new(false),
            seed,
            link_hash: fnv1a(link.as_bytes()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_upstream = upstream.to_string();
        std::thread::spawn(move || accept_loop(&listener, &accept_shared, &accept_upstream));
        Ok(ChaosProxy {
            link: link.to_string(),
            addr,
            shared,
        })
    }

    /// The link name this proxy interposes on.
    #[must_use]
    pub(crate) fn link(&self) -> &str {
        &self.link
    }

    /// The address clients should dial instead of the upstream.
    #[must_use]
    pub(crate) fn addr(&self) -> String {
        self.addr.to_string()
    }

    /// Applies one fault to the link, effective for pumps within one
    /// poll tick.
    pub(crate) fn apply(&self, fault: &Fault) {
        let mut policy = self
            .shared
            .link_policy
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match *fault {
            Fault::Delay { ms } => policy.delay = Duration::from_millis(ms),
            Fault::Jitter { ms } => policy.jitter = Duration::from_millis(ms),
            Fault::DropConn => policy.kill_generation += 1,
            Fault::Blackhole => policy.mode = Mode::Blackhole,
            Fault::Partition => {
                policy.mode = Mode::Partition;
                policy.kill_generation += 1;
            }
            Fault::Throttle { bps } => policy.throttle_bps = bps,
            Fault::Corrupt {
                byte_flips,
                prob_pct,
            } => policy.corrupt = Some((byte_flips, prob_pct)),
            Fault::DuplicateFrame { prob_pct } => policy.duplicate_pct = Some(prob_pct),
            Fault::Heal => {
                // Everything resets except the kill generation:
                // already-severed connections stay severed.
                let generation = policy.kill_generation;
                *policy = Policy {
                    kill_generation: generation,
                    ..Policy::default()
                };
            }
        }
    }

    /// Restores transparent forwarding.
    pub(crate) fn heal(&self) {
        self.apply(&Fault::Heal);
    }

    /// The link's live counters (read one with [`Counter::get`]).
    #[cfg(test)]
    pub(crate) fn stats(&self) -> &LinkStats {
        &self.shared.stats
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
    }
}

/// FNV-1a 64 over bytes, for deriving per-link RNG streams.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, upstream: &str) {
    // Connection numbers seed each pump's RNG stream; only this
    // thread hands them out.
    let mut next_conn = 0u64;
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL_TICK),
            Err(_) => std::thread::sleep(POLL_TICK),
            Ok((client, _)) => {
                let snapshot = shared.snapshot();
                if snapshot.mode == Mode::Partition {
                    // Close immediately: the peer's first round trip
                    // fails with a reset/EOF, as a cut link should.
                    shared.stats.conns_refused.inc();
                    drop(client);
                    continue;
                }
                let Ok(server) = dial_upstream(upstream) else {
                    shared.stats.conns_refused.inc();
                    drop(client);
                    continue;
                };
                shared.stats.conns_opened.inc();
                let conn = next_conn;
                next_conn += 1;
                let generation = snapshot.kill_generation;
                spawn_pump(shared, &client, &server, conn, 0, generation);
                spawn_pump(shared, &server, &client, conn, 1, generation);
            }
        }
    }
}

fn dial_upstream(upstream: &str) -> Result<TcpStream, ()> {
    let addr = upstream
        .to_socket_addrs()
        .map_err(|_| ())?
        .next()
        .ok_or(())?;
    TcpStream::connect_timeout(&addr, UPSTREAM_CONNECT_TIMEOUT).map_err(|_| ())
}

/// Clones the stream pair and runs one pump direction on its own
/// thread. `direction` feeds the RNG stream id (0 = client→upstream).
fn spawn_pump(
    shared: &Arc<Shared>,
    src: &TcpStream,
    dst: &TcpStream,
    conn: u64,
    direction: u64,
    generation: u64,
) {
    let (Ok(src), Ok(dst)) = (src.try_clone(), dst.try_clone()) else {
        return;
    };
    let shared = Arc::clone(shared);
    let rng = StdRng::seed_from_u64(
        shared
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(shared.link_hash)
            .wrapping_add(conn.wrapping_mul(2) + direction),
    );
    std::thread::spawn(move || pump(&shared, &src, &dst, rng, generation));
}

/// Forwards chunks from `src` to `dst` under the link's live policy
/// until either side closes, the connection is severed, or the proxy
/// stops.
fn pump(
    shared: &Arc<Shared>,
    mut src: &TcpStream,
    dst: &TcpStream,
    mut rng: StdRng,
    generation: u64,
) {
    if src.set_read_timeout(Some(POLL_TICK)).is_err() {
        return;
    }
    let mut buf = vec![0u8; CHUNK];
    loop {
        if shared.stop.load(Ordering::Acquire) {
            sever(src, dst);
            return;
        }
        let policy = shared.snapshot();
        if policy.kill_generation > generation || policy.mode == Mode::Partition {
            shared.stats.conns_severed.inc();
            sever(src, dst);
            return;
        }
        let n = match src.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: propagate it downstream and let the
                // opposite pump drain any response bytes.
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue;
            }
            Err(_) => {
                sever(src, dst);
                return;
            }
        };
        match policy.mode {
            Mode::Partition => {
                sever(src, dst);
                return;
            }
            Mode::Blackhole => {
                let add = u64::try_from(n).unwrap_or(u64::MAX);
                shared.stats.bytes_discarded.add(add);
            }
            Mode::Forward => {
                if !forward_chunk(shared, dst, &mut buf[..n], &policy, &mut rng) {
                    sever(src, dst);
                    return;
                }
            }
        }
    }
}

/// Applies delay/jitter/throttle/corrupt/duplicate to one chunk and
/// writes it. Returns `false` when the write side is gone.
fn forward_chunk(
    shared: &Arc<Shared>,
    dst: &TcpStream,
    chunk: &mut [u8],
    policy: &PolicySnapshot,
    rng: &mut StdRng,
) -> bool {
    let mut wait = policy.delay;
    if !policy.jitter.is_zero() {
        let cap = u64::try_from(policy.jitter.as_millis()).unwrap_or(u64::MAX);
        wait += Duration::from_millis(rng.gen_range(0..=cap));
    }
    let bits = u64::try_from(chunk.len())
        .unwrap_or(u64::MAX)
        .saturating_mul(8);
    if let Some(micros) = bits
        .saturating_mul(1_000_000)
        .checked_div(policy.throttle_bps)
    {
        wait += Duration::from_micros(micros);
    }
    if !wait.is_zero() {
        std::thread::sleep(wait);
    }
    if let Some((flips, prob_pct)) = policy.corrupt {
        if flips > 0 && rng.gen_bool(f64::from(prob_pct) / 100.0) {
            corrupt_chunk(chunk, flips, rng);
            shared.stats.chunks_corrupted.inc();
        }
    }
    let copies = match policy.duplicate_pct {
        Some(pct) if rng.gen_bool(f64::from(pct) / 100.0) => {
            shared.stats.chunks_duplicated.inc();
            2
        }
        _ => 1,
    };
    let mut writer = dst;
    for _ in 0..copies {
        if writer.write_all(chunk).is_err() {
            return false;
        }
        let add = u64::try_from(chunk.len()).unwrap_or(u64::MAX);
        shared.stats.bytes_forwarded.add(add);
    }
    true
}

/// Flips `flips` bytes of `chunk` at seeded positions. Pure in the
/// RNG: the flip positions and masks are a deterministic function of
/// the decision stream, independent of wall clock.
fn corrupt_chunk(chunk: &mut [u8], flips: u32, rng: &mut StdRng) {
    for _ in 0..flips {
        let at = rng.gen_range(0..chunk.len());
        // XOR with a non-zero mask so the byte always changes.
        chunk[at] ^= rng.gen_range(1..=255u8);
    }
}

fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A trivial upstream echo server: answers each line with
    /// `echo:<line>`.
    fn echo_server() -> (String, Arc<AtomicBool>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if thread_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    let mut line = String::new();
                    while let Ok(n) = reader.read_line(&mut line) {
                        if n == 0 {
                            break;
                        }
                        let reply = format!("echo:{}", line.trim_end());
                        if writeln!(writer, "{reply}").is_err() {
                            break;
                        }
                        line.clear();
                    }
                });
            }
        });
        (addr, stop)
    }

    fn round_trip(addr: &str, line: &str, timeout: Duration) -> Result<String, String> {
        let addr: SocketAddr = addr.parse().map_err(|_| "bad addr".to_string())?;
        let stream =
            TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(timeout)).expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        writeln!(writer, "{line}").map_err(|e| format!("write: {e}"))?;
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(0) => Err("closed".to_string()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    #[test]
    fn transparent_link_forwards_both_ways() {
        let (upstream, _stop) = echo_server();
        let proxy = ChaosProxy::spawn("router->n0", &upstream, 1).expect("spawn");
        let reply = round_trip(&proxy.addr(), "hello", Duration::from_secs(2)).expect("reply");
        assert_eq!(reply, "echo:hello");
        // The proxy counts a chunk after writing it, so the client can
        // read the echo first: wait (bounded) for the count to land.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let stats = proxy.stats();
        while stats.bytes_forwarded.get() < 12 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(stats.conns_opened.get(), 1);
        assert!(stats.bytes_forwarded.get() >= 12);
        assert_eq!(stats.chunks_corrupted.get(), 0);
    }

    #[test]
    fn blackhole_swallows_and_heal_restores() {
        let (upstream, _stop) = echo_server();
        let proxy = ChaosProxy::spawn("router->n0", &upstream, 2).expect("spawn");
        proxy.apply(&Fault::Blackhole);
        // Connect succeeds (half-open), but the read times out.
        let err = round_trip(&proxy.addr(), "lost", Duration::from_millis(300))
            .expect_err("blackholed reply");
        assert!(err.starts_with("read:"), "{err}");
        assert!(proxy.stats().bytes_discarded.get() > 0);
        proxy.heal();
        std::thread::sleep(POLL_TICK * 3);
        let reply = round_trip(&proxy.addr(), "back", Duration::from_secs(2)).expect("healed");
        assert_eq!(reply, "echo:back");
    }

    #[test]
    fn partition_refuses_and_severs() {
        let (upstream, _stop) = echo_server();
        let proxy = ChaosProxy::spawn("router->n0", &upstream, 3).expect("spawn");
        // Establish a connection, then partition: the next round trip
        // on a fresh connection must fail fast.
        let ok = round_trip(&proxy.addr(), "pre", Duration::from_secs(2)).expect("pre");
        assert_eq!(ok, "echo:pre");
        proxy.apply(&Fault::Partition);
        std::thread::sleep(POLL_TICK * 3);
        let err = round_trip(&proxy.addr(), "cut", Duration::from_millis(500));
        assert!(err.is_err(), "partitioned link answered: {err:?}");
        proxy.heal();
        std::thread::sleep(POLL_TICK * 3);
        let reply = round_trip(&proxy.addr(), "rejoined", Duration::from_secs(2)).expect("healed");
        assert_eq!(reply, "echo:rejoined");
    }

    #[test]
    fn corruption_is_deterministic_per_seed() {
        // The decision stream (flip positions, masks) is a pure
        // function of the RNG — drive the helper with fixed chunk
        // boundaries. (Across real sockets, chunk boundaries are
        // OS-timing-dependent, which is the documented limit of the
        // determinism guarantee.)
        let corrupted = |seed: u64| -> Vec<u8> {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut chunk = *b"abcdefgh-abcdefgh";
            corrupt_chunk(&mut chunk, 3, &mut rng);
            chunk.to_vec()
        };
        assert_eq!(corrupted(7), corrupted(7), "same seed, same corruption");
        assert_ne!(corrupted(7), corrupted(8), "seed changes the flips");
        assert_ne!(
            corrupted(7),
            b"abcdefgh-abcdefgh".to_vec(),
            "corruption must change the bytes"
        );
        // End to end: a corrupting link never delivers the clean line.
        let (upstream, _stop) = echo_server();
        let proxy = ChaosProxy::spawn("router->n0", &upstream, 7).expect("spawn");
        proxy.apply(&Fault::Corrupt {
            byte_flips: 2,
            prob_pct: 100,
        });
        std::thread::sleep(POLL_TICK * 3);
        let reply = round_trip(&proxy.addr(), "abcdefgh", Duration::from_millis(500));
        assert_ne!(
            reply.as_deref(),
            Ok("echo:abcdefgh"),
            "corrupted link delivered the clean bytes"
        );
        assert!(proxy.stats().chunks_corrupted.get() >= 1);
    }

    #[test]
    fn duplicate_frame_desyncs_the_stream() {
        let (upstream, _stop) = echo_server();
        let proxy = ChaosProxy::spawn("router->n0", &upstream, 4).expect("spawn");
        proxy.apply(&Fault::DuplicateFrame { prob_pct: 100 });
        std::thread::sleep(POLL_TICK * 3);
        // Chunk-level duplication garbles a line protocol in
        // boundary-dependent ways (a duplicated partial chunk can
        // even corrupt the first reply) — which is the point. What is
        // guaranteed: chunks were duplicated, and the link serves
        // cleanly again after heal.
        let _ = round_trip(&proxy.addr(), "dup", Duration::from_millis(500));
        assert!(proxy.stats().chunks_duplicated.get() >= 1);
        proxy.heal();
        std::thread::sleep(POLL_TICK * 3);
        let reply = round_trip(&proxy.addr(), "clean", Duration::from_secs(2)).expect("healed");
        assert_eq!(reply, "echo:clean");
    }

    #[test]
    fn drop_conn_severs_established_connections() {
        let (upstream, _stop) = echo_server();
        let proxy = ChaosProxy::spawn("router->n0", &upstream, 5).expect("spawn");
        let addr: SocketAddr = proxy.addr().parse().expect("addr");
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut writer = stream.try_clone().expect("clone");
        writeln!(writer, "one").expect("write");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert_eq!(reply.trim_end(), "echo:one");
        proxy.apply(&Fault::DropConn);
        std::thread::sleep(POLL_TICK * 4);
        // The severed connection yields EOF or an error, never data.
        reply.clear();
        let outcome = reader.read_line(&mut reply);
        assert!(
            matches!(outcome, Ok(0) | Err(_)),
            "severed conn still delivered: {reply:?}"
        );
        // New connections are still accepted after drop_conn.
        let again = round_trip(&proxy.addr(), "two", Duration::from_secs(2)).expect("reconnect");
        assert_eq!(again, "echo:two");
    }

    #[test]
    fn delay_slows_the_round_trip() {
        let (upstream, _stop) = echo_server();
        let proxy = ChaosProxy::spawn("router->n0", &upstream, 6).expect("spawn");
        proxy.apply(&Fault::Delay { ms: 120 });
        std::thread::sleep(POLL_TICK * 3);
        let begin = std::time::Instant::now();
        let reply = round_trip(&proxy.addr(), "slow", Duration::from_secs(3)).expect("reply");
        assert_eq!(reply, "echo:slow");
        assert!(
            begin.elapsed() >= Duration::from_millis(120),
            "delay not applied: {:?}",
            begin.elapsed()
        );
    }
}
