//! The non-blocking framed stream every connection on the readiness loop
//! (`event_loop.rs`) runs over, whichever its role. [`MuxStream`] is a
//! [`crate::frame::Frame`] codec over a non-blocking `TcpStream` with
//! explicit read/write buffers and byte/frame accounting:
//!
//! * [`MuxStream::queue`] encodes a frame (length prefix + CRC + body)
//!   into the write buffer; [`MuxStream::flush`] drains the buffer as far
//!   as the socket accepts and never blocks.
//! * [`MuxStream::fill`] reads whatever the socket has;
//!   [`MuxStream::next_frame`] extracts the next complete frame, if one
//!   is fully buffered. The length prefix is validated against the frame
//!   cap *before* the body is awaited, so a hostile prefix cannot reserve
//!   memory.
//! * EOF sets [`MuxStream::peer_closed`] instead of erroring — a peer
//!   shutting its write half is an ordinary protocol event for a
//!   multiplexer, not an exception.
//!
//! The loop reads always while the connection's machine is here, and
//! writes while [`MuxStream::pending_out`] is non-zero.

use crate::frame::{decode_frame, encode_frame, Decoded, Frame};
use crate::NetError;
use std::io::{self, Read, Write};
use std::net::TcpStream;

/// The read buffer's first size, and what it grows by when a read finds
/// it full of bytes no frame has taken yet.
const READ_CHUNK: usize = 16 * 1024;
/// Compact the write buffer once this many drained bytes accumulate.
const WRITE_COMPACT: usize = 64 * 1024;

/// A non-blocking framed stream: explicit read/write buffers over a
/// non-blocking `TcpStream`, with byte/frame accounting. Frames are extracted from the read
/// buffer only once complete, and queued frames drain front-first
/// whenever the socket is writable. See the [module docs](self) for the
/// readiness-loop contract.
#[derive(Debug)]
pub struct MuxStream {
    stream: TcpStream,
    max_frame: u32,
    /// Bytes read and not yet taken are `read_buf[read_head..read_end]`;
    /// what lies past `read_end` is spare room, initialized once when the
    /// buffer grew and read into in place.
    read_buf: Vec<u8>,
    read_head: usize,
    read_end: usize,
    write_buf: Vec<u8>,
    write_head: usize,
    bytes_in: u64,
    bytes_out: u64,
    frames_in: u64,
    frames_out: u64,
    peer_closed: bool,
}

impl MuxStream {
    /// Wrap an already-connected stream. The caller is responsible for
    /// having put the socket into non-blocking mode.
    pub fn new(stream: TcpStream, max_frame: u32) -> Self {
        MuxStream {
            stream,
            max_frame,
            read_buf: Vec::new(),
            read_head: 0,
            read_end: 0,
            write_buf: Vec::new(),
            write_head: 0,
            bytes_in: 0,
            bytes_out: 0,
            frames_in: 0,
            frames_out: 0,
            peer_closed: false,
        }
    }

    /// Bytes queued for write but not yet accepted by the socket.
    pub fn pending_out(&self) -> usize {
        self.write_buf.len() - self.write_head
    }

    /// `true` once the peer has closed its write half (EOF observed).
    pub fn peer_closed(&self) -> bool {
        self.peer_closed
    }

    /// Encode `frame` into the write buffer (framing + CRC included).
    pub fn queue(&mut self, frame: &Frame) -> Result<(), NetError> {
        encode_frame(&mut self.write_buf, frame, self.max_frame)?;
        self.frames_out += 1;
        Ok(())
    }

    /// Drain the write buffer as far as the socket accepts. `Ok(true)`
    /// when any bytes moved.
    pub fn flush(&mut self) -> io::Result<bool> {
        let mut progress = false;
        while self.pending_out() > 0 {
            match self.stream.write(&self.write_buf[self.write_head..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.write_head += n;
                    self.bytes_out += n as u64;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.pending_out() == 0 {
            self.write_buf.clear();
            self.write_head = 0;
        } else if self.write_head > WRITE_COMPACT {
            self.write_buf.drain(..self.write_head);
            self.write_head = 0;
        }
        Ok(progress)
    }

    /// Read whatever the socket has. `Ok(true)` when any bytes arrived;
    /// EOF sets [`MuxStream::peer_closed`] instead of erroring. An error
    /// behind bytes that arrived waits for the next call: a peer's last
    /// frame before a reset is read.
    pub fn fill(&mut self) -> io::Result<bool> {
        let mut any = false;
        loop {
            self.make_room();
            match self.stream.read(&mut self.read_buf[self.read_end..]) {
                Ok(0) => {
                    self.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_end += n;
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) if any => break,
                Err(e) => return Err(e),
            }
        }
        Ok(any)
    }

    /// Leave spare room past `read_end` for the next read: rewind when
    /// everything read has been taken; when the buffer is full, move what
    /// is left to its front, or, when no frame has been taken from it,
    /// grow it by a chunk. Only the new chunk is initialized (the
    /// allocation still doubles), so memory follows the bytes read.
    fn make_room(&mut self) {
        if self.read_head == self.read_end {
            self.read_head = 0;
            self.read_end = 0;
        }
        if self.read_end < self.read_buf.len() {
            return;
        }
        if self.read_head > 0 {
            self.read_buf.copy_within(self.read_head..self.read_end, 0);
            self.read_end -= self.read_head;
            self.read_head = 0;
        } else {
            self.read_buf.resize(self.read_end + READ_CHUNK, 0);
        }
    }

    /// Extract the next complete frame from the read buffer, if one is
    /// fully buffered. `Ok(None)` means "not yet" — call again after the
    /// next [`MuxStream::fill`].
    pub fn next_frame(&mut self) -> Result<Option<Frame>, NetError> {
        let unread = &self.read_buf[self.read_head..self.read_end];
        let Decoded::Whole(frame, total) = decode_frame(unread, self.max_frame)? else {
            return Ok(None);
        };
        self.read_head += total;
        self.bytes_in += total as u64;
        self.frames_in += 1;
        Ok(Some(frame))
    }

    /// The socket, if the connection is at rest — nothing queued to write,
    /// nothing read and not yet taken, the peer still open — where a next
    /// session can start.
    pub fn into_idle(self) -> Option<TcpStream> {
        let rest = self.pending_out() == 0 && self.read_head == self.read_end && !self.peer_closed;
        rest.then_some(self.stream)
    }

    /// Total wire bytes received so far (framing included).
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in
    }

    /// Total wire bytes sent so far (framing included).
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out
    }

    /// Frames received so far.
    pub fn frames_in(&self) -> u64 {
        self.frames_in
    }

    /// Frames sent so far.
    pub fn frames_out(&self) -> u64 {
        self.frames_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn mux(stream: TcpStream) -> MuxStream {
        crate::event_loop::nonblocking(&stream).unwrap();
        MuxStream::new(stream, 1 << 20)
    }

    #[test]
    fn frames_round_trip_through_partial_reads() {
        let (a, b) = pair();
        let mut tx = mux(a);
        let mut rx = mux(b);
        tx.queue(&Frame::Ping { nonce: 7 }).unwrap();
        tx.queue(&Frame::DeltaDone { epoch: 42 }).unwrap();
        while tx.pending_out() > 0 {
            tx.flush().unwrap();
        }
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < 2 {
            assert!(std::time::Instant::now() < deadline, "frames never arrived");
            let _ = rx.fill().unwrap();
            while let Some(frame) = rx.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert!(matches!(got[0], Frame::Ping { nonce: 7 }));
        assert!(matches!(got[1], Frame::DeltaDone { epoch: 42 }));
        assert_eq!(rx.frames_in(), 2);
        assert_eq!(tx.frames_out(), 2);
        assert_eq!(rx.bytes_in(), tx.bytes_out());
    }

    /// The wire bytes of `frames`, as a `MuxStream` queues them.
    fn wire(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for frame in frames {
            encode_frame(&mut out, frame, 1 << 20).unwrap();
        }
        out
    }

    /// Fill `rx` until a read brings bytes.
    fn fill_some(rx: &mut MuxStream) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !rx.fill().unwrap() {
            assert!(std::time::Instant::now() < deadline, "bytes never arrived");
        }
    }

    /// Drain `tx` to the socket, filling `rx` meanwhile (the socket
    /// buffers may not hold the whole of it), and take every frame.
    fn ship(tx: &mut MuxStream, rx: &mut MuxStream, frames: usize) -> Vec<Frame> {
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while got.len() < frames {
            assert!(std::time::Instant::now() < deadline, "frames never arrived");
            tx.flush().unwrap();
            let _ = rx.fill().unwrap();
            while got.len() < frames {
                let Some(frame) = rx.next_frame().unwrap() else {
                    break;
                };
                got.push(frame);
            }
        }
        got
    }

    /// Three frames, one byte per read: each is taken with its last byte,
    /// not before it, and none is taken twice.
    #[test]
    fn frames_delivered_a_byte_at_a_time_are_taken_whole() {
        let (mut a, b) = pair();
        a.set_nodelay(true).unwrap();
        let mut rx = mux(b);
        let frames = [
            Frame::Ping { nonce: 1 },
            Frame::DeltaBatch {
                epoch: 9,
                added: vec![3, 1 << 40],
                removed: vec![7],
            },
            Frame::DeltaDone { epoch: 9 },
        ];
        let bytes = wire(&frames);
        let ends: Vec<usize> = frames
            .iter()
            .scan(0, |end, frame| {
                *end += wire(std::slice::from_ref(frame)).len();
                Some(*end)
            })
            .collect();
        let mut got = Vec::new();
        for (at, byte) in bytes.iter().enumerate() {
            a.write_all(std::slice::from_ref(byte)).unwrap();
            fill_some(&mut rx);
            while let Some(frame) = rx.next_frame().unwrap() {
                assert!(ends.contains(&(at + 1)), "a frame taken at byte {at}");
                got.push(frame);
                assert!(got.len() <= frames.len(), "a frame taken twice");
            }
        }
        assert_eq!(got, frames);
        assert_eq!(rx.bytes_in(), bytes.len() as u64);
        assert!(rx.into_idle().is_some());
    }

    /// A frame several times the first buffer: the buffer grows to hold
    /// it, and the frame comes out intact.
    #[test]
    fn a_frame_larger_than_the_buffer_spans_many_reads() {
        let (a, b) = pair();
        let mut tx = mux(a);
        let mut rx = mux(b);
        // 12 500 elements at 8 bytes each: 100 KB of body.
        let added: Vec<u64> = (0..12_500u64).map(|i| i << 40 | i).collect();
        let frame = Frame::DeltaBatch {
            epoch: 3,
            added,
            removed: vec![u64::MAX],
        };
        tx.queue(&frame).unwrap();
        tx.queue(&Frame::DeltaDone { epoch: 3 }).unwrap();
        let got = ship(&mut tx, &mut rx, 2);
        assert_eq!(got, [frame, Frame::DeltaDone { epoch: 3 }]);
        assert!(rx.read_buf.len() > 100_000, "{}", rx.read_buf.len());
        assert_eq!(rx.bytes_in(), tx.bytes_out());
        assert!(rx.into_idle().is_some());
    }

    /// Ten thousand frames in one buffer are all taken, in order.
    #[test]
    fn every_frame_of_a_full_buffer_is_taken_in_order() {
        let (a, b) = pair();
        let mut tx = mux(a);
        let mut rx = mux(b);
        for nonce in 0..10_000 {
            tx.queue(&Frame::Ping { nonce }).unwrap();
        }
        let got = ship(&mut tx, &mut rx, 10_000);
        for (nonce, frame) in (0..).zip(&got) {
            assert_eq!(*frame, Frame::Ping { nonce });
        }
        assert_eq!(rx.frames_in(), 10_000);
        assert_eq!(rx.bytes_in(), tx.bytes_out());
        assert!(rx.next_frame().unwrap().is_none());
    }

    /// A connection that holds part of a frame is not at rest: the next
    /// session's bytes would follow a stranger's.
    #[test]
    fn into_idle_refuses_a_connection_holding_part_of_a_frame() {
        let (mut a, b) = pair();
        let mut rx = mux(b);
        let bytes = wire(&[Frame::Ping { nonce: 5 }]);
        let (first, rest) = bytes.split_at(bytes.len() - 1);
        a.write_all(first).unwrap();
        let mut held = 0;
        while held < first.len() {
            fill_some(&mut rx);
            assert!(rx.next_frame().unwrap().is_none());
            held = rx.read_end - rx.read_head;
        }
        assert!(rx.into_idle().is_none());

        let (mut a, b) = pair();
        let mut rx = mux(b);
        a.write_all(first).unwrap();
        a.write_all(rest).unwrap();
        while rx.frames_in() == 0 {
            fill_some(&mut rx);
            let _ = rx.next_frame().unwrap();
        }
        assert!(rx.into_idle().is_some());
    }

    #[test]
    fn peer_close_is_an_event_not_an_error() {
        let (a, b) = pair();
        let mut rx = mux(a);
        drop(b);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while !rx.peer_closed() {
            assert!(std::time::Instant::now() < deadline, "EOF never observed");
            let _ = rx.fill().unwrap();
        }
        assert!(rx.next_frame().unwrap().is_none());
    }
}
