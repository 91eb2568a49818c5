//! A blocking client for the `vadalink serve` protocol.
//!
//! One [`Client`] wraps one TCP connection. Requests are numbered and
//! the response's echoed `id` is checked, so a stray or reordered frame
//! surfaces as a [`ClientError::Protocol`] instead of a silent mix-up.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{Body, ErrorCode, Op, Request, Response};

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket trouble.
    Io(io::Error),
    /// The server's frame was not a well-formed response, or its `id`
    /// did not echo the request's.
    Protocol(String),
    /// The server answered with a structured error.
    Server(ErrorCode, String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(code, m) => write!(f, "server {}: {m}", code.as_str()),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: i64,
}

impl Client {
    /// Connects to a serving address (`host:port`).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// Sends one operation and reads its response body. Structured
    /// server errors become [`ClientError::Server`].
    pub fn request(&mut self, op: Op) -> Result<Body, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let req = Request { id: Some(id), op };
        let mut line = req.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let resp = self.read_response()?;
        if resp.id != Some(id) {
            return Err(ClientError::Protocol(format!(
                "response id {:?} does not echo request id {id}",
                resp.id
            )));
        }
        match resp.body {
            Body::Error { code, message } => Err(ClientError::Server(code, message)),
            body => Ok(body),
        }
    }

    /// Point lookup: returns the answering epoch and the rendered rows.
    pub fn query(&mut self, goal: &str) -> Result<(u64, Vec<String>), ClientError> {
        match self.request(Op::Query { goal: goal.into() })? {
            Body::Rows { epoch, rows } => Ok((epoch, rows)),
            other => Err(ClientError::Protocol(format!(
                "expected rows, got {other:?}"
            ))),
        }
    }

    /// Derivation-tree explanation of a fully bound fact.
    pub fn explain(
        &mut self,
        fact: &str,
        depth: usize,
    ) -> Result<(u64, Option<String>), ClientError> {
        let op = Op::Explain {
            fact: fact.into(),
            depth,
        };
        match self.request(op)? {
            Body::Tree { epoch, found, tree } => Ok((epoch, found.then_some(tree))),
            other => Err(ClientError::Protocol(format!(
                "expected tree, got {other:?}"
            ))),
        }
    }

    /// Applies a signed-fact delta; returns the new epoch and the net
    /// inserted/deleted fact renderings.
    pub fn update(&mut self, delta: &str) -> Result<(u64, Vec<String>, Vec<String>), ClientError> {
        match self.request(Op::Update {
            delta: delta.into(),
        })? {
            Body::Applied {
                epoch,
                inserted,
                deleted,
            } => Ok((epoch, inserted, deleted)),
            other => Err(ClientError::Protocol(format!(
                "expected applied, got {other:?}"
            ))),
        }
    }

    /// Liveness check; returns the current epoch.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        match self.request(Op::Ping)? {
            Body::Ok { epoch } => Ok(epoch),
            other => Err(ClientError::Protocol(format!("expected ok, got {other:?}"))),
        }
    }

    /// Server statistics.
    pub fn stats(&mut self) -> Result<Body, ClientError> {
        match self.request(Op::Stats)? {
            body @ Body::Stats { .. } => Ok(body),
            other => Err(ClientError::Protocol(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Asks the server to stop accepting connections.
    pub fn shutdown(&mut self) -> Result<u64, ClientError> {
        match self.request(Op::Shutdown)? {
            Body::Ok { epoch } => Ok(epoch),
            other => Err(ClientError::Protocol(format!("expected ok, got {other:?}"))),
        }
    }

    /// Sends a raw line (malformed-request tests) and returns the raw
    /// response line.
    pub fn raw(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut out = String::new();
        self.reader.read_line(&mut out)?;
        Ok(out.trim_end().to_owned())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        crate::server::poll_for_frame(&mut self.reader)?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed mid-request".into(),
            ));
        }
        Response::decode(line.trim_end()).map_err(ClientError::Protocol)
    }
}
