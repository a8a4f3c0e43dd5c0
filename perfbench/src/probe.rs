//! The host-speed probe: a fixed piece of work that uses none of the
//! repository's code, timed while no server is up.
//!
//! On a shared two-core host the speed of the cores drifts by tens of
//! percent over minutes (other tenants' load; no stolen time shows),
//! and every closed-loop figure follows it. The probe is a loopback TCP
//! ping-pong between two threads with a table walk on each hop — the
//! same mix of wake-ups, socket calls and cache-bound work a request
//! costs the servers — so its time moves with the host and not with
//! the code under test. The end-to-end metrics are scaled by it to a
//! host on which one probe round trip takes `REFERENCE_NS`.

use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::median;

/// Probe round trip time, in ns, of the host the figures are scaled to.
pub const REFERENCE_NS: f64 = 50_000.0;
/// Timed passes per probe; the probe is their median.
const PASSES: usize = 3;
const ROUND_TRIPS: usize = 300;
/// The walked table: 256 KiB, past L1 and inside L2.
const TABLE_WORDS: usize = 1 << 15;
/// Table steps per hop.
const STEPS: usize = 4000;
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One hop's work: a seeded xorshift walk over `table`.
fn walk(table: &mut [u64], state: &mut u64) {
    for _ in 0..STEPS {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let i = (*state as usize) & (TABLE_WORDS - 1);
        table[i] = table[i].wrapping_add(*state);
    }
    black_box(&table[..]);
}

fn socket_options(stream: &TcpStream) -> Result<(), String> {
    stream
        .set_nodelay(true)
        .and_then(|()| stream.set_read_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("probe socket options: {e}"))
}

/// Echoes `count` 8-byte messages, walking the table before each reply.
fn echo(mut stream: TcpStream, count: usize) -> Result<(), String> {
    let mut table = vec![0u64; TABLE_WORDS];
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut message = [0u8; 8];
    for _ in 0..count {
        stream
            .read_exact(&mut message)
            .map_err(|e| format!("probe echo read: {e}"))?;
        walk(&mut table, &mut state);
        stream
            .write_all(&message)
            .map_err(|e| format!("probe echo write: {e}"))?;
    }
    Ok(())
}

/// Times `PASSES` passes of `ROUND_TRIPS` round trips; returns each
/// pass's ns per round trip. Dropping `stream` on an error ends the
/// echo thread.
fn drive(mut stream: TcpStream) -> Result<Vec<f64>, String> {
    let mut table = vec![0u64; TABLE_WORDS];
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut message = [0u8; 8];
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        let begun = Instant::now();
        for _ in 0..ROUND_TRIPS {
            walk(&mut table, &mut state);
            message = state.to_le_bytes();
            stream
                .write_all(&message)
                .map_err(|e| format!("probe write: {e}"))?;
            stream
                .read_exact(&mut message)
                .map_err(|e| format!("probe read: {e}"))?;
        }
        passes.push(begun.elapsed().as_nanos() as f64 / ROUND_TRIPS as f64);
    }
    black_box(message);
    Ok(passes)
}

/// Runs the probe once: the median pass, in ns per round trip.
pub fn probe_ns() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("probe listener: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("probe listener: {e}"))?;
    let client = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    let (server, _) = listener
        .accept()
        .map_err(|e| format!("probe accept: {e}"))?;
    socket_options(&client)?;
    socket_options(&server)?;
    let (passes, echoed) = std::thread::scope(|s| {
        let echoer = s.spawn(move || echo(server, PASSES * ROUND_TRIPS));
        let passes = drive(client);
        let echoed = echoer
            .join()
            .unwrap_or_else(|_| Err("probe echo thread panicked".into()));
        (passes, echoed)
    });
    let mut passes = passes?;
    echoed?;
    Ok(median(&mut passes))
}
