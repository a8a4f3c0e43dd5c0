//! Client side of the wire protocols: v1 JSON lines both ways, and the
//! v2 plan frames the traced run replays in process.

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

use jsonio::Value;
use pager_core::Delay;
use pager_wire::{binary, PlanSpec};

use crate::gen::PlanInput;

/// A generous per-request deadline: the benchmark measures latency,
/// it must not provoke deadline downgrades.
pub const DEADLINE_MS: u64 = 10_000;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Connects with the benchmark's I/O timeout and `TCP_NODELAY`.
pub fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

/// Appends a complete v2 PLAN frame for `input` with integer id `id`.
pub fn encode_plan(out: &mut Vec<u8>, id: i64, input: &PlanInput) -> Result<(), String> {
    let delay = Delay::new(input.delay).map_err(|e| e.to_string())?;
    let spec = PlanSpec::new(delay).with_deadline_ms(DEADLINE_MS);
    if binary::encode_plan_request(out, &Value::Int(id), &input.instance, &spec) {
        Ok(())
    } else {
        Err("plan request id cannot ride a binary frame".into())
    }
}

/// A v1 JSON-lines connection.
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl LineConn {
    pub fn connect(addr: &str) -> Result<LineConn, String> {
        let stream = connect(addr)?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(LineConn {
            reader,
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Sends one line and parses the one-line answer.
    pub fn call(&mut self, request: &str) -> Result<Value, String> {
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        jsonio::parse(self.line.trim_end()).map_err(|e| format!("bad response JSON: {e}"))
    }
}

/// `{"cmd": "metrics"}` (node) or `{"cmd": "stats"}` (router) over a
/// fresh v1 connection.
pub fn control(addr: &str, cmd: &str) -> Result<Value, String> {
    LineConn::connect(addr)?.call(&format!("{{\"cmd\": \"{cmd}\"}}"))
}

/// A numeric field of a JSON object, 0 when absent.
pub fn num(value: &Value, key: &str) -> f64 {
    value.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}
