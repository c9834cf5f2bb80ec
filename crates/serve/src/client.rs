//! A small blocking client for the serving protocol — the reference
//! peer for tests, benches, and the `relm_client` bin.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{decode_frame, encode_frame, Request, Response, MAX_FRAME_BYTES};

/// A blocking protocol client over one TCP connection. Requests may be
/// pipelined: send several, then receive their responses (correlate by
/// the echoed request id — completion order is the server's, not
/// submission order).
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl ServeClient {
    /// Connect to a serving endpoint.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(ServeClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Send one request (does not wait for the answer).
    ///
    /// # Errors
    ///
    /// Socket write failures.
    pub fn send(&mut self, request: &Request) -> std::io::Result<()> {
        let mut wire = Vec::new();
        encode_frame(&request.encode(), &mut wire);
        self.stream.write_all(&wire)
    }

    /// Block until one response frame arrives.
    ///
    /// # Errors
    ///
    /// Socket read failures, EOF before a complete frame, or a payload
    /// that fails to decode (surfaced as `InvalidData`).
    pub fn recv(&mut self) -> std::io::Result<Response> {
        let mut chunk = [0u8; 4096];
        loop {
            match decode_frame(&mut self.buf, MAX_FRAME_BYTES) {
                Ok(Some(frame)) => {
                    return Response::decode(&frame).map_err(|e| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                    });
                }
                Ok(None) => {}
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        e.to_string(),
                    ));
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed mid-frame",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Send one request and block for its response.
    ///
    /// # Errors
    ///
    /// See [`Self::send`] and [`Self::recv`].
    pub fn roundtrip(&mut self, request: &Request) -> std::io::Result<Response> {
        self.send(request)?;
        self.recv()
    }
}
