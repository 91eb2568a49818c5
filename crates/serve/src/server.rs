//! The TCP server: thread-per-connection, line-delimited JSON frames.
//!
//! A [`Server`] wraps an `Arc<GraphService>` behind a `TcpListener`.
//! Each accepted connection gets a handler thread; a handler reads one
//! frame (a `\n`-terminated line, capped at `max_frame` bytes), decodes
//! it, dispatches to the service and writes one response line. Every
//! malformed frame — oversized, bad UTF-8, bad JSON, unknown op — is
//! answered with a structured error and the connection keeps going;
//! only EOF or a `shutdown` op ends it.
//!
//! Shutdown is cooperative: `shutdown()` raises a flag and pokes the
//! listener with a loopback connect so the blocked `accept` observes
//! the flag and returns. In-flight connections finish their current
//! request; a `shutdown` request additionally closes its own connection
//! after the acknowledgement is flushed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::protocol::{
    Body, ErrorCode, Op, Request, Response, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use crate::service::GraphService;

/// A running server. Dropping it does **not** stop the accept loop —
/// call [`Server::join`] (or [`Server::shutdown`]) for a clean stop.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop with the default frame cap.
    pub fn spawn(service: Arc<GraphService>, addr: &str) -> io::Result<Server> {
        Server::spawn_with(service, addr, DEFAULT_MAX_FRAME)
    }

    /// As [`Server::spawn`] with an explicit frame cap (tests use a tiny
    /// cap to exercise the oversized-frame path cheaply).
    pub fn spawn_with(
        service: Arc<GraphService>,
        addr: &str,
        max_frame: usize,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let accept = thread::spawn(move || accept_loop(listener, service, flag, max_frame));
        Ok(Server {
            addr: local,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raises the shutdown flag and wakes the accept loop.
    pub fn shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            // Poke the blocked accept so it re-checks the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Stops the server and waits for the accept loop to exit.
    pub fn join(mut self) {
        self.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Blocks until the accept loop exits (a client's `shutdown` op or a
    /// call to [`Server::shutdown`] from another thread ends it).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    service: Arc<GraphService>,
    shutdown: Arc<AtomicBool>,
    max_frame: usize,
) {
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let svc = service.clone();
        let flag = shutdown.clone();
        let addr = listener.local_addr().ok();
        thread::spawn(move || {
            let _ = handle_conn(stream, &svc, &flag, max_frame);
            // If this connection requested shutdown, wake the acceptor.
            if flag.load(Ordering::SeqCst) {
                if let Some(a) = addr {
                    let _ = TcpStream::connect(a);
                }
            }
        });
    }
}

/// One read frame.
enum Frame {
    /// A complete line (without the trailing `\n` / `\r\n`).
    Line(Vec<u8>),
    /// The line exceeded `max_frame`; the excess was drained up to and
    /// including its newline, so the next read starts on a fresh frame.
    TooLong,
    /// Peer closed the connection.
    Eof,
}

/// Reads one `\n`-terminated frame, enforcing the cap without buffering
/// more than `max_frame` bytes of an oversized line.
fn read_frame(r: &mut impl BufRead, max_frame: usize) -> io::Result<Frame> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                Frame::Eof
            } else {
                Frame::Line(buf)
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                let over = buf.len() + i > max_frame;
                if !over {
                    buf.extend_from_slice(&chunk[..i]);
                }
                r.consume(i + 1);
                if over {
                    return Ok(Frame::TooLong);
                }
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(Frame::Line(buf));
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max_frame {
                    r.consume(n);
                    drain_to_newline(r)?;
                    return Ok(Frame::TooLong);
                }
                buf.extend_from_slice(chunk);
                r.consume(n);
            }
        }
    }
}

/// Discards input up to and including the next newline (or EOF).
fn drain_to_newline(r: &mut impl BufRead) -> io::Result<()> {
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                r.consume(i + 1);
                return Ok(());
            }
            None => {
                let n = chunk.len();
                r.consume(n);
            }
        }
    }
}

/// How long a connection end polls for the peer's next frame before it
/// parks in a blocking read. A request/response peer usually answers
/// within tens of microseconds, while parking lets an idle CPU halt, and
/// waking a halted CPU costs about ten microseconds per frame on a
/// two-core virtual machine — a latency that grows as the server gets
/// less busy (EXPERIMENTS.md, "Partial replay").
const POLL_WINDOW: Duration = Duration::from_micros(100);

/// Waits up to [`POLL_WINDOW`] for the next frame's bytes, yielding the
/// CPU between attempts, then returns so the caller's blocking read
/// either finds them buffered or parks.
pub(crate) fn poll_for_frame(reader: &mut BufReader<TcpStream>) -> io::Result<()> {
    if !reader.buffer().is_empty() {
        return Ok(());
    }
    reader.get_ref().set_nonblocking(true)?;
    let start = Instant::now();
    let polled = loop {
        match reader.fill_buf() {
            Ok(_) => break Ok(()),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
                ) =>
            {
                if start.elapsed() >= POLL_WINDOW {
                    break Ok(());
                }
                thread::yield_now();
            }
            Err(e) => break Err(e),
        }
    };
    reader.get_ref().set_nonblocking(false)?;
    polled
}

fn handle_conn(
    stream: TcpStream,
    service: &GraphService,
    shutdown: &AtomicBool,
    max_frame: usize,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        poll_for_frame(&mut reader)?;
        let line = match read_frame(&mut reader, max_frame)? {
            Frame::Eof => return Ok(()),
            Frame::TooLong => {
                let resp = Response::error(
                    None,
                    ErrorCode::OversizedFrame,
                    format!("frame exceeds {max_frame} bytes"),
                );
                write_response(&mut writer, &resp)?;
                continue;
            }
            Frame::Line(bytes) => match String::from_utf8(bytes) {
                Ok(s) => s,
                Err(_) => {
                    let resp =
                        Response::error(None, ErrorCode::BadUtf8, "request line is not UTF-8");
                    write_response(&mut writer, &resp)?;
                    continue;
                }
            },
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::decode(&line) {
            Ok(req) => req,
            Err((code, message)) => {
                write_response(&mut writer, &Response::error(None, code, message))?;
                continue;
            }
        };
        let is_shutdown = matches!(req.op, Op::Shutdown);
        let resp = dispatch(service, shutdown, req);
        write_response(&mut writer, &resp)?;
        if is_shutdown {
            return Ok(());
        }
    }
}

fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut line = resp.encode();
    line.push('\n');
    w.write_all(line.as_bytes())?;
    w.flush()
}

/// Decodes one request into one response against the service.
pub fn dispatch(service: &GraphService, shutdown: &AtomicBool, req: Request) -> Response {
    let id = req.id;
    match req.op {
        Op::Ping => Response {
            id,
            body: Body::Ok {
                epoch: service.registry().current_id(),
            },
        },
        Op::Query { goal } => match service.lookup(&goal) {
            Ok((epoch, rows)) => Response {
                id,
                body: Body::Rows { epoch, rows },
            },
            Err(e) => Response::error(id, e.code, e.message),
        },
        Op::Explain { fact, depth } => match service.explain(&fact, depth) {
            Ok((epoch, tree)) => Response {
                id,
                body: Body::Tree {
                    epoch,
                    found: tree.is_some(),
                    tree: tree.unwrap_or_default(),
                },
            },
            Err(e) => Response::error(id, e.code, e.message),
        },
        Op::Update { delta } => {
            if shutdown.load(Ordering::SeqCst) {
                return Response::error(id, ErrorCode::ShuttingDown, "server is shutting down");
            }
            match service.apply_delta(&delta) {
                Ok(applied) => Response {
                    id,
                    body: Body::Applied {
                        epoch: applied.epoch,
                        inserted: applied.inserted,
                        deleted: applied.deleted,
                    },
                },
                Err(e) => Response::error(id, e.code, e.message),
            }
        }
        Op::Stats => {
            let s = service.stats();
            Response {
                id,
                body: Body::Stats {
                    epoch: s.epochs.current,
                    version: PROTOCOL_VERSION.into(),
                    program: s.name,
                    total_facts: s.total_facts as u64,
                    committed: s.epochs.committed,
                    freed: s.epochs.freed,
                    pinned_now: s.epochs.pinned_now as u64,
                    swap_stall_max_ns: s.epochs.swap_stall_max_ns,
                    wal_seq: s.wal_seq.unwrap_or(0),
                    scan_lookups: s.scan_lookups,
                },
            }
        }
        Op::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            Response {
                id,
                body: Body::Ok {
                    epoch: service.registry().current_id(),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn read_frame_splits_lines_and_handles_crlf() {
        let mut r = BufReader::new(Cursor::new(b"abc\r\ndef\nrest".to_vec()));
        assert!(matches!(read_frame(&mut r, 64).unwrap(), Frame::Line(l) if l == b"abc"));
        assert!(matches!(read_frame(&mut r, 64).unwrap(), Frame::Line(l) if l == b"def"));
        assert!(matches!(read_frame(&mut r, 64).unwrap(), Frame::Line(l) if l == b"rest"));
        assert!(matches!(read_frame(&mut r, 64).unwrap(), Frame::Eof));
    }

    #[test]
    fn read_frame_caps_and_resynchronizes() {
        let long = vec![b'x'; 100];
        let mut input = long.clone();
        input.push(b'\n');
        input.extend_from_slice(b"ok\n");
        let mut r = BufReader::with_capacity(8, Cursor::new(input));
        assert!(matches!(read_frame(&mut r, 16).unwrap(), Frame::TooLong));
        // The oversized line was drained; the next frame is intact.
        assert!(matches!(read_frame(&mut r, 16).unwrap(), Frame::Line(l) if l == b"ok"));
        assert!(matches!(read_frame(&mut r, 16).unwrap(), Frame::Eof));
    }

    #[test]
    fn read_frame_handles_oversized_final_line_without_newline() {
        let mut r = BufReader::with_capacity(8, Cursor::new(vec![b'y'; 50]));
        assert!(matches!(read_frame(&mut r, 16).unwrap(), Frame::TooLong));
        assert!(matches!(read_frame(&mut r, 16).unwrap(), Frame::Eof));
    }
}
