//! The load generator's client pump: buffered non-blocking reads and
//! writes over one TCP stream, surfacing complete protocol frames.
//!
//! `relm_loadgen` drives every scripted client from one thread, so no
//! socket may block it: [`Connection::pump_write`] flushes what the
//! socket takes of the queued request frames, [`Connection::pump_read`]
//! accretes the read buffer and pops complete response frames, and
//! `WouldBlock` just ends a pump until the generator's next pass. The
//! read side closes on EOF, a read error, or an oversized frame (the
//! stream cannot resynchronize after one); the write side dies on a
//! write error.

use std::io::{Read, Write};
use std::net::TcpStream;

use crate::protocol::{decode_frame, encode_frame};

/// Bytes read from the socket per `read` call (frames reassemble across
/// calls, so this bounds only syscall granularity, not message size).
const READ_CHUNK: usize = 4096;

/// One client connection: stream, buffers, and liveness.
#[derive(Debug)]
pub(crate) struct Connection {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already flushed to the socket.
    written: usize,
    /// Set on EOF, read error, or an oversized frame: no further
    /// frames will arrive.
    read_closed: bool,
    /// Set on a fatal write error: queued bytes can never flush.
    write_dead: bool,
}

impl Connection {
    /// Adopt a connected stream, switching it to non-blocking mode.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Requests are single small frames; Nagle only adds latency.
        let _ = stream.set_nodelay(true);
        Ok(Connection {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            read_closed: false,
            write_dead: false,
        })
    }

    /// Drain readable bytes and return every complete frame. Marks the
    /// read side closed on EOF, a fatal IO error, or an oversized frame
    /// (the stream cannot resynchronize after one); frames already
    /// buffered are still returned alongside.
    pub(crate) fn pump_read(&mut self, max_frame_bytes: usize) -> Vec<Vec<u8>> {
        if self.read_closed {
            return Vec::new();
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => self.read_buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.read_closed = true;
                    break;
                }
            }
        }
        let mut frames = Vec::new();
        loop {
            match decode_frame(&mut self.read_buf, max_frame_bytes) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(_) => {
                    self.read_closed = true;
                    break;
                }
            }
        }
        frames
    }

    /// Queue one frame for writing (flushed by [`Self::pump_write`]).
    pub(crate) fn queue_frame(&mut self, payload: &[u8]) {
        encode_frame(payload, &mut self.write_buf);
    }

    /// Whether queued bytes are waiting to flush.
    pub(crate) fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// Flush as much of the write queue as the socket accepts. Returns
    /// `true` if any bytes moved. Marks the write side dead on a fatal
    /// IO error.
    pub(crate) fn pump_write(&mut self) -> bool {
        let mut progressed = false;
        while !self.write_dead && self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    self.write_dead = true;
                    break;
                }
                Ok(n) => {
                    self.written += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.write_dead = true;
                    break;
                }
            }
        }
        if self.written == self.write_buf.len() && self.written > 0 {
            self.write_buf.clear();
            self.written = 0;
        }
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn socket_pair() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_stream = TcpStream::connect(addr).unwrap();
        let (server_stream, _) = listener.accept().unwrap();
        (Connection::new(server_stream).unwrap(), client_stream)
    }

    #[test]
    fn frames_flow_both_ways_over_a_socket_pair() {
        let (mut server, client_stream) = socket_pair();
        let mut client = Connection::new(client_stream).unwrap();

        client.queue_frame(b"ping");
        while client.wants_write() {
            client.pump_write();
        }
        let frames = loop {
            let frames = server.pump_read(1 << 20);
            if !frames.is_empty() {
                break frames;
            }
        };
        assert_eq!(frames, vec![b"ping".to_vec()]);

        server.queue_frame(b"pong");
        while server.wants_write() {
            server.pump_write();
        }
        let frames = loop {
            let frames = client.pump_read(1 << 20);
            if !frames.is_empty() {
                break frames;
            }
        };
        assert_eq!(frames, vec![b"pong".to_vec()]);
        assert!(!server.read_closed && !client.read_closed);
    }

    #[test]
    fn peer_drop_closes_the_connection() {
        let (mut server, client_stream) = socket_pair();
        drop(client_stream);
        // EOF may take a pass to surface; pump until it does.
        for _ in 0..100 {
            let _ = server.pump_read(1 << 20);
            if server.read_closed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(server.read_closed);
    }

    #[test]
    fn oversized_frame_closes_the_connection() {
        let (mut server, mut client_stream) = socket_pair();
        let mut wire = Vec::new();
        encode_frame(&[7u8; 256], &mut wire);
        client_stream.write_all(&wire).unwrap();
        for _ in 0..100 {
            let _ = server.pump_read(16);
            if server.read_closed {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(server.read_closed, "frame above the cap must close");
    }
}
