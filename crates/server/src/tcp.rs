//! Blocking wire-1.x client over `std::net`: one request, one response,
//! on a connection to an [`AsyncServer`](crate::reactor::AsyncServer)
//! speaking length-prefixed JSON. Used by the load generator, the
//! example, admin scrapes, and tests.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::wire::{recv_message, send_message, Request, Response, TracedRequest, TracedResponse};

/// Blocking client for the wire protocol.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; `UnexpectedEof` if the server closed the
    /// connection instead of answering.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        send_message(&mut self.stream, request)?;
        self.read_response()
    }

    /// Sends one request inside a wire-1.1 trace envelope and waits for
    /// the response, returning the trace id the server echoed (`None` if
    /// it answered bare, e.g. an older server). Pass an id from
    /// [`ppuf_telemetry::next_trace_id`] to correlate the server-side span
    /// tree with this call.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn request_traced(
        &mut self,
        request: Request,
        trace_id: u64,
    ) -> io::Result<(Response, Option<u64>)> {
        send_message(&mut self.stream, &TracedRequest::traced(trace_id, request))?;
        match recv_message::<_, TracedResponse>(&mut self.stream)? {
            Some(envelope) => Ok((envelope.body, envelope.trace_id)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )),
        }
    }

    /// Sends raw bytes as one frame and waits for a response — lets
    /// attack-style clients deliver payloads that are not valid requests.
    ///
    /// # Errors
    ///
    /// See [`request`](Self::request).
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<Response> {
        crate::wire::write_frame(&mut self.stream, payload)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<Response> {
        match recv_message(&mut self.stream)? {
            Some(response) => Ok(response),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before answering",
            )),
        }
    }
}
