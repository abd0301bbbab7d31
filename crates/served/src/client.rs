//! The client half of the wire protocol: the v1 one-shot helpers and
//! the v2 [`Session`].

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use taco_core::api::{ApiRequest, ApiResponse, Envelope, WireResponse};

/// Connects, sends one request line and returns the reader for the
/// response stream — the client half of the **v1** protocol, used by the
/// CLI and the integration tests to read streamed sweep progress
/// incrementally.
pub fn open_request(
    addr: impl ToSocketAddrs,
    request_line: &str,
) -> io::Result<BufReader<TcpStream>> {
    let mut stream = TcpStream::connect(addr)?;
    // One write, so the line and its newline leave as one segment and the
    // daemon frames the request in one poll pass.
    let mut line = String::with_capacity(request_line.len() + 1);
    line.push_str(request_line);
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()?;
    Ok(BufReader::new(stream))
}

/// [`open_request`], collecting the whole response: one string per line,
/// in arrival order (for sweeps: the progress lines, then the result).
pub fn request_lines(addr: impl ToSocketAddrs, request_line: &str) -> io::Result<Vec<String>> {
    open_request(addr, request_line)?.lines().collect()
}

/// A persistent **v2** wire session: one connection, many in-flight
/// requests, responses correlated by echoed id.
///
/// [`Session::send`] assigns ids; [`Session::recv`] reads the next
/// response line whoever it belongs to (how a pipelining client drives
/// many requests concurrently); [`Session::call`] is the sequential
/// convenience — send, then wait for that request's terminal response,
/// discarding its progress lines.
pub struct Session {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Session {
    /// Connects a new session.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Session> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        Ok(Session { reader: BufReader::new(stream), writer, next_id: 0 })
    }

    /// Sends one request under a fresh id and returns that id.
    pub fn send(&mut self, request: &ApiRequest) -> io::Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        let mut line = request.to_json_v2(id);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// Reads the next raw response line (blocking), newline stripped.
    /// EOF mid-session surfaces as [`io::ErrorKind::UnexpectedEof`].
    /// Latency-sensitive clients that only need the envelope head can
    /// use this to skip the full [`WireResponse`] parse.
    pub fn recv_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the session"));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Reads the next response line (blocking) and parses it.  Protocol
    /// violations — EOF mid-session, an unparseable line — surface as
    /// [`io::ErrorKind::InvalidData`] / [`io::ErrorKind::UnexpectedEof`].
    pub fn recv(&mut self) -> io::Result<WireResponse> {
        let line = self.recv_line()?;
        WireResponse::from_json(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Sends `request` and blocks until its terminal response (anything
    /// but a `sweep_point`), discarding that request's progress lines.
    /// Responses for *other* ids arriving meanwhile are discarded too, so
    /// interleave `call` with outstanding [`Session::send`]s only when
    /// those responses are expendable.
    pub fn call(&mut self, request: &ApiRequest) -> io::Result<ApiResponse> {
        let id = self.send(request)?;
        loop {
            let wire = self.recv()?;
            if wire.envelope != Envelope::V2(Some(id)) {
                continue;
            }
            match wire.response {
                ApiResponse::SweepPoint { .. } => continue,
                terminal => return Ok(terminal),
            }
        }
    }
}
