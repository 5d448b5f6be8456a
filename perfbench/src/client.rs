//! A keep-alive HTTP/1.1 client for the load generator.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::{self, Json};

pub struct Conn {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: Vec<u8>,
}

/// Why an operation did not produce a 200 answer: the server's typed error
/// kind, or a client-side transport problem.
#[derive(Debug, Clone)]
pub struct Failure {
    pub kind: String,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { addr, writer, reader, buf: Vec::new() })
    }

    /// Sends one request and reads the full answer. A 200 answer comes
    /// back parsed; anything else is a [`Failure`] named by the error
    /// envelope's `kind` (or `http_<status>` / `io` when there is none), and
    /// the connection is reopened so the next request starts clean.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> Result<Json, Failure> {
        match self.exchange(method, path, headers, body) {
            Ok((200, reply)) => {
                json::parse(&reply).map_err(|e| Failure { kind: format!("bad_json: {e}") })
            }
            Ok((status, reply)) => {
                let kind = json::parse(&reply)
                    .ok()
                    .and_then(|j| j.get("error").and_then(|e| e.str("kind")).map(str::to_owned))
                    .unwrap_or_else(|| format!("http_{status}"));
                self.reopen();
                Err(Failure { kind })
            }
            Err(_) => {
                self.reopen();
                Err(Failure { kind: "io".into() })
            }
        }
    }

    fn reopen(&mut self) {
        if let Ok(fresh) = Conn::open(self.addr) {
            *self = fresh;
        }
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n",
            body.len()
        )?;
        for (k, v) in headers {
            write!(self.buf, "{k}: {v}\r\n")?;
        }
        self.buf.extend_from_slice(b"\r\n");
        self.buf.extend_from_slice(body);
        self.writer.write_all(&self.buf)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in head"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut reply = vec![0u8; len];
        self.reader.read_exact(&mut reply)?;
        Ok((status, reply))
    }
}

/// Little-endian f32 bytes of a pixel buffer (the octet-stream encoding).
pub fn f32_bytes(pixels: &[f32]) -> Vec<u8> {
    pixels.iter().flat_map(|p| p.to_le_bytes()).collect()
}
