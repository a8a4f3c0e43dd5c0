//! One launcher for the real `pager-serve` binary, shared by the
//! integration tests that drive it over TCP.
//!
//! Each test file adds what only it needs (a pid, idle connections, a
//! hard kill, an observe helper) in its own `impl` block.

#![allow(dead_code)] // each test crate uses a different subset

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use jsonio::Value;

/// A `pager-serve` child process listening on a loopback port; killed
/// on drop.
pub struct Server {
    pub child: Option<Child>,
    pub port: u16,
    /// Stderr lines printed before the listening banner (the recovery
    /// report, when `--data-dir` is in play).
    pub preamble: Vec<String>,
}

impl Server {
    /// Spawns `pager-serve --addr 127.0.0.1:0 <args>`, reading stderr
    /// until the `listening on` banner names the bound port (a durable
    /// server prints its recovery report first). The rest of stderr is
    /// drained so the child never blocks on a full pipe; stdout stays
    /// piped for tests that read the `--metrics-json` dump.
    pub fn spawn(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pager-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn pager-serve");
        let stderr = child.stderr.take().expect("child stderr");
        let mut lines = BufReader::new(stderr).lines();
        let mut preamble = Vec::new();
        let port: u16 = loop {
            let line = lines
                .next()
                .expect("server exited before listening")
                .expect("read server stderr");
            if line.contains("listening on") {
                break line
                    .rsplit(':')
                    .next()
                    .and_then(|p| p.trim().parse().ok())
                    .unwrap_or_else(|| panic!("no port in banner {line:?}"));
            }
            preamble.push(line);
        };
        std::thread::spawn(move || for _ in lines {});
        Server {
            child: Some(child),
            port,
            preamble,
        }
    }

    /// A new line-protocol connection.
    pub fn connect(&self) -> Connection {
        let stream = TcpStream::connect(("127.0.0.1", self.port)).expect("connect");
        Connection::new(stream)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking JSON lines.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Connection {
    /// Wraps a connected stream.
    pub fn new(stream: TcpStream) -> Connection {
        Connection {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }

    /// Sends one request line and returns the answer line, trimmed.
    pub fn round_trip_line(&mut self, request: &str) -> String {
        writeln!(self.writer, "{request}").expect("send request");
        self.writer.flush().expect("flush request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(!line.is_empty(), "connection closed mid-request");
        line.trim_end().to_string()
    }

    /// Sends one request line and parses the answer.
    pub fn round_trip(&mut self, request: &str) -> Value {
        let line = self.round_trip_line(request);
        jsonio::parse(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }
}
