//! Client transports and load shapes: a TCP connection, an in-memory pipe
//! with the same byte interface, and the open-loop and pipelined senders.

use pir::engine::wire::{self, read_reply};
use pir::engine::{Command, Reply};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::thread;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Read one reply; end of stream is an error here.
pub fn recv<R: Read>(r: &mut R) -> Res<Reply> {
    read_reply(r).map_err(err)?.ok_or_else(|| "connection closed before its reply".to_string())
}

pub fn encode(buf: &mut Vec<u8>, cmd: &Command) {
    wire::encode_command_into(buf, cmd).expect("generated commands are encodable");
}

/// One client connection, split into its write and buffered read halves.
pub struct Conn {
    pub w: TcpStream,
    pub r: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Res<Conn> {
        let w = TcpStream::connect(addr).map_err(err)?;
        w.set_nodelay(true).map_err(err)?;
        let r = BufReader::with_capacity(1 << 16, w.try_clone().map_err(err)?);
        Ok(Conn { w, r, buf: Vec::with_capacity(1 << 12) })
    }

    /// Send one command and wait for its reply: `(reply, send → reply ns)`.
    pub fn call(&mut self, cmd: &Command) -> Res<(Reply, u64)> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        encode(&mut buf, cmd);
        let t = Instant::now();
        let reply = self.exchange(&buf);
        self.buf = buf;
        Ok((reply?, t.elapsed().as_nanos() as u64))
    }

    /// Write one encoded frame and read its reply.
    pub fn exchange(&mut self, frame: &[u8]) -> Res<Reply> {
        self.w.write_all(frame).map_err(err)?;
        recv(&mut self.r)
    }

    pub fn close(self) {
        let _ = self.w.shutdown(Shutdown::Both);
    }
}

/// The writing end of an in-memory byte pipe.
pub struct PipeWriter(SyncSender<Vec<u8>>);

/// The reading end of an in-memory byte pipe; end of stream once every
/// writer is dropped.
pub struct PipeReader {
    rx: Receiver<Vec<u8>>,
    chunk: Vec<u8>,
    pos: usize,
}

/// A byte pipe holding at most `chunks` unread writes: a writer blocks
/// once the reader falls that far behind, as a full socket buffer would.
pub fn pipe(chunks: usize) -> (PipeWriter, PipeReader) {
    let (tx, rx) = mpsc::sync_channel(chunks);
    (PipeWriter(tx), PipeReader { rx, chunk: Vec::new(), pos: 0 })
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.send(buf.to_vec()).map_err(|_| std::io::ErrorKind::BrokenPipe)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.chunk.len() {
            match self.rx.recv() {
                Ok(chunk) => (self.chunk, self.pos) = (chunk, 0),
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.chunk.len() - self.pos);
        out[..n].copy_from_slice(&self.chunk[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// What an open-loop run observed, per frame in schedule order.
pub struct Paced {
    /// Reply time minus the frame's *scheduled* send time: a stall delays
    /// every frame that fell due during it, not just the one in flight.
    pub lat_ns: Vec<u64>,
    /// Actual write time minus scheduled send time.
    pub lag_ns: Vec<u64>,
    /// Frames still unanswered when the last frame was written.
    pub backlog_end: usize,
}

/// Send `n` frames on a fixed schedule (frame `i` due `i / rate` seconds
/// after the start) from a sender thread that writes every frame due at
/// each wake-up in one write, while this thread reads the replies.
/// `frame` appends frame `i` to the buffer; `on_reply` sees each reply.
pub fn open_loop<W: Write + Send, R: Read>(
    w: &mut W,
    r: &mut R,
    n: usize,
    rate: f64,
    mut frame: impl FnMut(usize, &mut Vec<u8>) + Send,
    mut on_reply: impl FnMut(usize, Reply),
) -> Res<Paced> {
    let due = |i: usize| (i as f64 * 1e9 / rate) as u64;
    let received = AtomicUsize::new(0);
    let t0 = Instant::now();
    thread::scope(|s| {
        let sender = s.spawn(|| -> Res<(Vec<u64>, usize)> {
            let mut lag = Vec::with_capacity(n);
            let mut buf = Vec::with_capacity(1 << 14);
            let mut next = 0;
            while next < n {
                let now = since(t0);
                let ready = ((now as f64 * rate / 1e9) as usize + 1).min(n);
                if ready <= next {
                    thread::sleep(Duration::from_nanos(due(next).saturating_sub(now)));
                    continue;
                }
                buf.clear();
                for i in next..ready {
                    frame(i, &mut buf);
                }
                w.write_all(&buf).map_err(err)?;
                let sent = since(t0);
                lag.extend((next..ready).map(|i| sent.saturating_sub(due(i))));
                next = ready;
            }
            Ok((lag, n - received.load(Ordering::SeqCst)))
        });
        let mut lat_ns = Vec::with_capacity(n);
        let mut read = || -> Res<()> {
            for i in 0..n {
                let reply = recv(r)?;
                lat_ns.push(since(t0).saturating_sub(due(i)));
                received.store(i + 1, Ordering::SeqCst);
                on_reply(i, reply);
            }
            Ok(())
        };
        let read_result = read();
        let (lag_ns, backlog_end) =
            sender.join().map_err(|_| "open-loop sender panicked".to_string())??;
        read_result?;
        Ok(Paced { lat_ns, lag_ns, backlog_end })
    })
}

/// Closed-loop saturation: keep up to `window` frames unanswered until
/// `until`, then drain. Returns `(frames, seconds from start to the last
/// reply)`.
pub fn pipelined<W: Write + Send, R: Read>(
    w: &mut W,
    r: &mut R,
    window: usize,
    until: Instant,
    mut frame: impl FnMut(&mut Vec<u8>) + Send,
    mut on_reply: impl FnMut(Reply),
) -> Res<(usize, f64)> {
    const CHUNK: usize = 64;
    let received = AtomicUsize::new(0);
    let total = AtomicUsize::new(usize::MAX);
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    thread::scope(|s| {
        let sender = s.spawn(|| -> Res<()> {
            let mut buf = Vec::with_capacity(1 << 14);
            let mut sent = 0usize;
            loop {
                let room = window - (sent - received.load(Ordering::SeqCst));
                if room == 0 {
                    thread::sleep(Duration::from_micros(50));
                    continue;
                }
                let k = room.min(CHUNK);
                let last = Instant::now() >= until;
                if last {
                    // Publish the final count before the final write, so
                    // the reader knows to stop after that write's replies.
                    total.store(sent + k, Ordering::SeqCst);
                    done.store(true, Ordering::SeqCst);
                }
                buf.clear();
                for _ in 0..k {
                    frame(&mut buf);
                }
                w.write_all(&buf).map_err(err)?;
                sent += k;
                if last {
                    return Ok(());
                }
            }
        });
        let mut count = 0usize;
        let mut read = || -> Res<()> {
            loop {
                let reply = recv(r)?;
                count += 1;
                received.store(count, Ordering::SeqCst);
                on_reply(reply);
                if done.load(Ordering::SeqCst) && count == total.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
        };
        let read_result = read();
        let elapsed = t0.elapsed().as_secs_f64();
        sender.join().map_err(|_| "pipelined sender panicked".to_string())??;
        read_result?;
        Ok((count, elapsed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::engine::wire::{read_command, write_reply};

    /// Coordinated-omission guard: a responder that stalls for 40 ms must
    /// show the stall on every frame that fell due during it, even though
    /// the stalled pipe also blocks the sender.
    #[test]
    fn open_loop_charges_latency_from_due_time() {
        let (mut to_server, mut server_in) = pipe(2);
        let (mut server_out, mut from_server) = pipe(1 << 16);
        let (rate, n, stall_at) = (5_000.0, 1_000, 300);
        let stall = Duration::from_millis(40);
        let responder = thread::spawn(move || {
            let mut i = 0;
            let mut window = None;
            while let Some(cmd) = read_command(&mut server_in).expect("valid frame") {
                if i == stall_at {
                    let start = Instant::now();
                    thread::sleep(stall);
                    window = Some((start, Instant::now()));
                }
                let Command::Observe { session_id, .. } = cmd else { panic!("observe only") };
                write_reply(&mut server_out, &Reply::Releases { session_id, thetas: vec![] })
                    .expect("pipe open");
                i += 1;
            }
            window.expect("stall happened")
        });
        let cmd = Command::Observe {
            session_id: 1,
            point: pir::erm::DataPoint::new(vec![0.1, 0.2], 0.3),
        };
        let t0 = Instant::now();
        let paced = open_loop(
            &mut to_server,
            &mut from_server,
            n,
            rate,
            |_, buf| encode(buf, &cmd),
            |_, _| {},
        )
        .expect("run completes");
        drop(to_server);
        let (stall_start, stall_end) = responder.join().expect("responder ok");
        let offset = |t: Instant| t.duration_since(t0).as_nanos() as f64;
        let (start_ns, end_ns) = (offset(stall_start), offset(stall_end));
        let mut charged = 0;
        for (i, &lat) in paced.lat_ns.iter().enumerate() {
            let due = i as f64 * 1e9 / rate;
            if due >= start_ns && due < end_ns {
                // Answered no earlier than the stall's end, charged from due.
                assert!(
                    lat as f64 >= end_ns - due - 1e6,
                    "frame {i} due during the stall shows only {lat} ns"
                );
                charged += 1;
            }
        }
        assert!(charged >= 150, "only {charged} frames fell due during the stall");
        assert_eq!(paced.lat_ns.len(), n);
    }

    #[test]
    fn pipe_carries_bytes_and_ends() {
        let (mut w, mut r) = pipe(4);
        w.write_all(b"abc").unwrap();
        w.write_all(b"de").unwrap();
        drop(w);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "abcde");
    }
}
