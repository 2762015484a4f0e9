//! `serve_connection` under deep pipelining: a client keeps far more
//! points in flight than the engine's `queue_depth`, over an in-memory
//! duplex (pre-rendered request bytes in, reply bytes out). The server
//! must flow-control — never emit a spurious transient-backpressure
//! reply — and answer strictly in command order, matching what a caller
//! holding the `SubmitHandle` directly would get for the same commands.
//! The loop's use of the stream is pinned too: a pipelined burst costs a
//! handful of `read` and `write` calls, and every reply is written
//! before the loop waits — on the client or on a slower reply. A client
//! that stops reading replies stalls the loop at the reply backlog, and
//! a failed reply write releases it.

use pir_dp::PrivacyParams;
use pir_engine::server::REPLY_BACKLOG;
use pir_engine::wire::{encode_command, encode_reply, read_reply, write_command, WireError};
use pir_engine::{
    serve_connection, Command, EngineError, EngineHandle, IngressConfig, MechanismSpec, Reply,
    ServeStats, SubmitHandle,
};
use pir_erm::DataPoint;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::sync::mpsc;
use std::time::Duration;

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

fn point(d: usize, t: usize, session: u64) -> DataPoint {
    let mut x = vec![0.0f64; d];
    x[t % d] = 0.6;
    x[(t + session as usize) % d] += 0.3;
    let y = (0.5 * x[0]).clamp(-1.0, 1.0);
    DataPoint::new(x, y)
}

/// The reply the direct (unpiped) submit path produces for `cmd`:
/// submitted one at a time with an immediate wait, so the only possible
/// rejections are the permanent ones — exactly what a flow-controlling
/// server must reduce deep pipelining to.
fn direct_reply(handle: &EngineHandle, cmd: Command) -> Reply {
    match handle.submit(cmd) {
        Ok(ticket) => ticket.wait(),
        Err(e) => Reply::Err(e),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Deep pipelining: `3 × queue_depth` points in flight on one
    /// connection, with a never-fits batch and an unknown-session probe
    /// mixed in. Every reply arrives in command order and equals the
    /// direct `SubmitHandle` result; transient backpressure is absorbed
    /// by flow control, never surfaced to the client.
    #[test]
    fn deep_pipelining_replies_in_order_and_match_direct_submits(
        shards in 1usize..4,
        seed in any::<u64>(),
        sessions in 1u64..4,
        queue_depth in 4usize..12,
    ) {
        let d = 3;
        let spec = MechanismSpec::reg1_l2(d);
        let per_session = (queue_depth * 3).div_ceil(sessions as usize);

        // The conversation: opens, a deep round-robin point stream, one
        // batch that can never fit, one unknown session, releases, close.
        let mut commands: Vec<Command> = Vec::new();
        for sid in 0..sessions {
            commands.push(Command::Open {
                session_id: sid,
                spec: spec.clone(),
                t_max: per_session + 1,
                params: params(),
            });
        }
        for t in 0..per_session {
            for sid in 0..sessions {
                commands.push(Command::Observe { session_id: sid, point: point(d, t, sid) });
            }
        }
        commands.push(Command::ObserveBatch {
            session_id: 0,
            points: (0..queue_depth + 1).map(|t| point(d, t, 0)).collect(),
        });
        commands.push(Command::Observe { session_id: 999, point: point(d, 0, 999) });
        for sid in 0..sessions {
            commands.push(Command::Release { session_id: sid });
        }
        commands.push(Command::Close);

        let mut request = Vec::new();
        for cmd in &commands {
            write_command(&mut request, cmd).unwrap();
        }

        let handle = EngineHandle::new(IngressConfig {
            num_shards: shards,
            seed,
            queue_depth,
        })
        .unwrap();
        let mut reader: &[u8] = &request;
        let mut response = Vec::new();
        let stats = serve_connection(&handle, &mut reader, &mut response).unwrap();
        prop_assert_eq!(stats.commands, commands.len());
        prop_assert_eq!(stats.replies, commands.len());
        handle.close();

        let mut replies = Vec::new();
        let mut r: &[u8] = &response;
        while let Some(reply) = read_reply(&mut r).unwrap() {
            replies.push(reply);
        }
        prop_assert_eq!(replies.len(), commands.len());
        for reply in &replies {
            prop_assert!(
                !matches!(reply, Reply::Err(EngineError::Backpressure { .. })),
                "flow control must absorb transient backpressure, got {:?}",
                reply
            );
        }

        // The reference: the same commands through a fresh engine (same
        // seed, same queue depth) submitted directly, one at a time.
        let direct = EngineHandle::new(IngressConfig {
            num_shards: shards,
            seed,
            queue_depth,
        })
        .unwrap();
        for (i, cmd) in commands.into_iter().enumerate() {
            let expected = direct_reply(&direct, cmd);
            prop_assert_eq!(&replies[i], &expected, "reply {} diverged", i);
        }
        direct.close();
    }
}

/// A connection that outlives its engine: every session command comes
/// back as an in-band `Err(Closed)` reply, in order, the client's own
/// `Close` is still acknowledged, and the serve loop itself ends
/// cleanly. Shutdown is an application-level answer, never a torn
/// connection.
#[test]
fn closed_engine_surfaces_in_band_closed_replies() {
    let handle =
        EngineHandle::new(IngressConfig { num_shards: 2, seed: 7, queue_depth: 8 }).unwrap();
    let submit = handle.submit_handle();
    handle.close();

    let commands = vec![
        Command::Open {
            session_id: 1,
            spec: MechanismSpec::reg1_l2(3),
            t_max: 8,
            params: params(),
        },
        Command::Observe { session_id: 1, point: point(3, 0, 1) },
        Command::Release { session_id: 1 },
        Command::Close,
    ];
    let mut request = Vec::new();
    for cmd in &commands {
        write_command(&mut request, cmd).unwrap();
    }

    let mut reader: &[u8] = &request;
    let mut response = Vec::new();
    let stats = serve_connection(&submit, &mut reader, &mut response)
        .expect("a closed engine is not a protocol violation");
    assert_eq!((stats.commands, stats.replies), (commands.len(), commands.len()));

    let mut r: &[u8] = &response;
    let mut replies = Vec::new();
    while let Some(reply) = read_reply(&mut r).unwrap() {
        replies.push(reply);
    }
    assert_eq!(replies.len(), commands.len());
    for (i, reply) in replies[..commands.len() - 1].iter().enumerate() {
        assert_eq!(reply, &Reply::Err(EngineError::Closed), "reply {i} must be in-band Closed");
    }
    // `Close` itself never reserves queue space, so even a closed engine
    // acknowledges it: the goodbye handshake still completes.
    assert_eq!(replies.last(), Some(&Reply::Closed));
}

/// `SetSpec::Custom` closures cannot cross the wire: the streaming
/// writer rejects them with `Unencodable` and leaves the byte stream
/// untouched — no partial frame precedes the error.
#[test]
fn custom_set_specs_are_rejected_before_any_bytes_hit_the_stream() {
    use pir_engine::wire::WireError;
    use pir_engine::SetSpec;
    use std::sync::Arc;

    let spec = MechanismSpec::Trivial {
        set: SetSpec::Custom(Arc::new(|| {
            Box::new(pir_geometry::L2Ball::unit(2)) as Box<dyn pir_geometry::ConvexSet>
        })),
    };
    let cmd = Command::Open { session_id: 1, spec, t_max: 8, params: params() };
    let mut out = Vec::new();
    assert!(matches!(write_command(&mut out, &cmd), Err(WireError::Unencodable(_))));
    assert!(out.is_empty(), "a rejected command must not leave a partial frame behind");
}

/// Renders `commands` as one request byte stream.
fn request_bytes(commands: &[Command]) -> Vec<u8> {
    let mut request = Vec::new();
    for cmd in commands {
        write_command(&mut request, cmd).unwrap();
    }
    request
}

/// Splits one `write` call's bytes into the reply frames it carries.
fn replies_in(bytes: &[u8]) -> Vec<Reply> {
    let mut r = bytes;
    let mut replies = Vec::new();
    while let Some(reply) = read_reply(&mut r).unwrap() {
        replies.push(reply);
    }
    replies
}

/// A request stream that counts the `read` calls made on it and reports
/// when the server has read it to its end.
struct CountingReader<'a> {
    bytes: &'a [u8],
    reads: usize,
    at_eof: mpsc::Sender<()>,
}

impl Read for CountingReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let n = self.bytes.read(buf)?;
        if n == 0 {
            let _ = self.at_eof.send(());
        }
        Ok(n)
    }
}

/// A reply sink that records every `write` call and reports the number
/// of reply frames in each on `notify`. Its first call blocks until
/// `gate` opens, as a write to a full socket send buffer would.
#[derive(Default)]
struct RecordingWriter {
    writes: Vec<Vec<u8>>,
    notify: Option<mpsc::Sender<usize>>,
    gate: Option<mpsc::Receiver<()>>,
}

impl Write for RecordingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(notify) = &self.notify {
            let _ = notify.send(replies_in(buf).len());
        }
        if let Some(gate) = self.gate.take() {
            // A dropped sender opens the gate too, so a failing test
            // cannot leave this thread blocked.
            let _ = gate.recv();
        }
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Waits up to 30 s for the server's next `write` call: a server that
/// blocks with a reply unwritten fails the read instead of hanging.
fn await_write(notify: &mpsc::Receiver<usize>) -> std::io::Result<usize> {
    notify
        .recv_timeout(std::time::Duration::from_secs(30))
        .map_err(|_| std::io::Error::other("server blocked with a reply unwritten"))
}

/// 256 pipelined OBSERVE frames whose replies are all resolved while the
/// first write is stuck: the server reads the burst in a handful of
/// `read` calls and writes the replies in at most one `write` call per 8,
/// and the bytes it writes are exactly the replies' frames, in order.
#[test]
fn pipelined_replies_are_coalesced_into_few_reads_and_writes() {
    let (d, sessions, seed, queue_depth) = (8, 4u64, 11, 1024);
    let mut commands: Vec<Command> = (0..sessions)
        .map(|sid| Command::Open {
            session_id: sid,
            spec: MechanismSpec::reg1_l2(d),
            t_max: 256,
            params: params(),
        })
        .collect();
    for t in 0..256 {
        let sid = t as u64 % sessions;
        commands.push(Command::Observe { session_id: sid, point: point(d, t, sid) });
    }
    let request = request_bytes(&commands);

    let handle = EngineHandle::new(IngressConfig { num_shards: 2, seed, queue_depth }).unwrap();
    let (eof_tx, eof_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel();
    let mut reader = CountingReader { bytes: &request, reads: 0, at_eof: eof_tx };
    let mut writer = RecordingWriter { gate: Some(gate_rx), ..RecordingWriter::default() };
    let stats = std::thread::scope(|s| {
        let server = s.spawn(|| serve_connection(&handle, &mut reader, &mut writer));
        // Every command is submitted once the server reads EOF; the
        // flush barrier returns once all of them have resolved.
        eof_rx.recv().unwrap();
        handle.flush();
        gate_tx.send(()).unwrap();
        server.join().unwrap().unwrap()
    });
    assert_eq!((stats.commands, stats.replies), (commands.len(), commands.len()));
    handle.close();

    let direct = EngineHandle::new(IngressConfig { num_shards: 2, seed, queue_depth }).unwrap();
    let mut expected = Vec::new();
    for cmd in commands.iter().cloned() {
        expected.extend(encode_reply(&direct_reply(&direct, cmd)).unwrap());
    }
    direct.close();
    assert_eq!(writer.writes.concat(), expected, "written bytes must be the replies, in order");
    assert!(
        writer.writes.len() * 8 <= commands.len(),
        "{} write calls for {} pipelined replies",
        writer.writes.len(),
        commands.len()
    );
    assert!(
        reader.reads < commands.len(),
        "{} read calls for {} pipelined frames",
        reader.reads,
        commands.len()
    );
}

/// A fast OBSERVE pipelined ahead of a slow OBSERVE_BATCH on the same
/// shard, both queued for the writer before it reaches the OBSERVE's
/// reply: the writer must not hold the finished reply while it waits on
/// the batch's compute, so the two replies leave in different `write`
/// calls, the OBSERVE's first.
#[test]
fn a_finished_reply_is_written_before_waiting_on_a_slow_one() {
    /// Reads out the OPEN frame; then, once the writer is inside its
    /// first `write` (the OPEN's reply), the OBSERVE and batch frames;
    /// then EOF, which opens the writer's gate.
    struct TwoParts<'a> {
        open: &'a [u8],
        rest: &'a [u8],
        first_write: Option<mpsc::Receiver<usize>>,
        gate: Option<mpsc::Sender<()>>,
    }
    impl Read for TwoParts<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.open.is_empty() {
                return self.open.read(buf);
            }
            if let Some(first_write) = self.first_write.take() {
                // On failure, dropping the gate's sender opens it.
                await_write(&first_write).inspect_err(|_| self.gate = None)?;
            }
            let n = self.rest.read(buf)?;
            if n == 0 {
                if let Some(gate) = self.gate.take() {
                    gate.send(()).unwrap();
                }
            }
            Ok(n)
        }
    }

    let (d, batch) = (8, 2048);
    let open = request_bytes(&[Command::Open {
        session_id: 1,
        spec: MechanismSpec::reg1_l2(d),
        t_max: batch + 1,
        params: params(),
    }]);
    let rest = request_bytes(&[
        Command::Observe { session_id: 1, point: point(d, 0, 1) },
        Command::ObserveBatch {
            session_id: 1,
            points: (1..=batch).map(|t| point(d, t, 1)).collect(),
        },
    ]);
    let (started_tx, started_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel();
    let mut reader =
        TwoParts { open: &open, rest: &rest, first_write: Some(started_rx), gate: Some(gate_tx) };
    let mut writer = RecordingWriter {
        notify: Some(started_tx),
        gate: Some(gate_rx),
        ..RecordingWriter::default()
    };
    let handle =
        EngineHandle::new(IngressConfig { num_shards: 1, seed: 3, queue_depth: 4096 }).unwrap();
    serve_connection(&handle, &mut reader, &mut writer).unwrap();
    handle.close();

    let write_of = |want: fn(&Reply) -> bool| {
        writer.writes.iter().position(|w| replies_in(w).iter().any(want)).unwrap()
    };
    assert_eq!(write_of(|r| matches!(r, Reply::Opened { .. })), 0);
    let observe = write_of(|r| matches!(r, Reply::Releases { thetas, .. } if thetas.len() == 1));
    let slow = write_of(|r| matches!(r, Reply::Releases { thetas, .. } if thetas.len() > 1));
    assert!(observe < slow, "observe reply in write {observe}, batch reply in write {slow}");
}

/// A depth-1 client: the next frame is sent only once the previous
/// reply has arrived. The server must write each reply before it blocks
/// reading the next frame, so each reply gets its own `write` call.
#[test]
fn at_depth_one_every_reply_is_written_before_the_next_read() {
    /// Sends the server one frame at a time, and the next frame only
    /// once the server has written the previous frame's reply.
    struct Lockstep {
        frames: std::vec::IntoIter<Vec<u8>>,
        frame: std::io::Cursor<Vec<u8>>,
        owed: usize,
        written: mpsc::Receiver<usize>,
    }
    impl Read for Lockstep {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.frame.position() as usize == self.frame.get_ref().len() {
                while self.owed > 0 {
                    self.owed -= await_write(&self.written)?;
                }
                let Some(next) = self.frames.next() else { return Ok(0) };
                self.frame = std::io::Cursor::new(next);
                self.owed = 1;
            }
            self.frame.read(buf)
        }
    }

    let d = 3;
    let commands = [
        Command::Open {
            session_id: 5,
            spec: MechanismSpec::reg1_l2(d),
            t_max: 16,
            params: params(),
        },
        Command::Observe { session_id: 5, point: point(d, 0, 5) },
        Command::ObserveBatch { session_id: 5, points: (1..4).map(|t| point(d, t, 5)).collect() },
        Command::Observe { session_id: 6, point: point(d, 0, 6) },
        Command::Release { session_id: 5 },
        Command::Close,
    ];
    let (tx, rx) = mpsc::channel();
    let mut reader = Lockstep {
        frames: commands.iter().map(|c| encode_command(c).unwrap()).collect::<Vec<_>>().into_iter(),
        frame: std::io::Cursor::default(),
        owed: 0,
        written: rx,
    };
    let mut writer = RecordingWriter { notify: Some(tx), ..RecordingWriter::default() };
    let handle =
        EngineHandle::new(IngressConfig { num_shards: 2, seed: 9, queue_depth: 64 }).unwrap();
    let stats = serve_connection(&handle, &mut reader, &mut writer).unwrap();
    handle.close();
    assert_eq!(stats.replies, commands.len());
    assert_eq!(writer.writes.len(), commands.len(), "one write call per depth-1 reply");
    assert!(writer.writes.iter().all(|w| replies_in(w).len() == 1));
}

/// Four OPENs, then `3 × REPLY_BACKLOG` OBSERVEs round-robin over them.
fn backlog_commands() -> Vec<Command> {
    let (d, sessions) = (3, 4u64);
    let observes = 3 * REPLY_BACKLOG;
    let mut commands: Vec<Command> = (0..sessions)
        .map(|sid| Command::Open {
            session_id: sid,
            spec: MechanismSpec::reg1_l2(d),
            t_max: observes,
            params: params(),
        })
        .collect();
    for t in 0..observes {
        let sid = t as u64 % sessions;
        commands.push(Command::Observe { session_id: sid, point: point(d, t, sid) });
    }
    commands
}

/// Hands the server one frame per `read` call and reports each frame it
/// hands out on `taken`.
struct OneFrameAtATime {
    frames: std::vec::IntoIter<Vec<u8>>,
    frame: std::io::Cursor<Vec<u8>>,
    taken: mpsc::Sender<()>,
}

impl OneFrameAtATime {
    fn new(commands: &[Command], taken: mpsc::Sender<()>) -> Self {
        let frames: Vec<Vec<u8>> = commands.iter().map(|c| encode_command(c).unwrap()).collect();
        OneFrameAtATime { frames: frames.into_iter(), frame: Default::default(), taken }
    }
}

impl Read for OneFrameAtATime {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.frame.position() as usize == self.frame.get_ref().len() {
            let Some(next) = self.frames.next() else { return Ok(0) };
            self.frame = std::io::Cursor::new(next);
            let _ = self.taken.send(());
        }
        self.frame.read(buf)
    }
}

/// How long a server may take before the test calls it hung.
const HANG: Duration = Duration::from_secs(60);

/// Runs `serve_connection` on a detached thread, so that a server that
/// never returns — a lost wake-up — fails the test after [`HANG`]
/// instead of hanging it.
fn serve_detached<R, W>(
    submit: SubmitHandle,
    mut reader: R,
    mut writer: W,
) -> mpsc::Receiver<(Result<ServeStats, WireError>, R, W)>
where
    R: Read + Send + 'static,
    W: Write + Send + 'static,
{
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        let result = serve_connection(&submit, &mut reader, &mut writer);
        let _ = done_tx.send((result, reader, writer));
    });
    done_rx
}

/// Counts the frames reported on `taken` until the server stops taking
/// them: at least `REPLY_BACKLOG`, then none for half a second.
fn frames_taken_until_stalled(taken: &mpsc::Receiver<()>) -> usize {
    for n in 0..REPLY_BACKLOG {
        taken.recv_timeout(HANG).unwrap_or_else(|_| panic!("server stalled after {n} frames"));
    }
    REPLY_BACKLOG
        + std::iter::from_fn(|| taken.recv_timeout(Duration::from_millis(500)).ok()).count()
}

/// A client that pipelines `3 × REPLY_BACKLOG` OBSERVE frames and reads
/// no reply: while its replies cannot be written the server takes at
/// most `REPLY_BACKLOG + 1` frames, and once they can, every reply
/// arrives in order and equals a direct submit.
#[test]
fn the_reply_backlog_bounds_a_client_that_stops_reading() {
    let commands = backlog_commands();
    let config = IngressConfig { num_shards: 2, seed: 17, queue_depth: 256 };
    let handle = EngineHandle::new(config).unwrap();
    let (taken_tx, taken_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel();
    let reader = OneFrameAtATime::new(&commands, taken_tx);
    let writer = RecordingWriter { gate: Some(gate_rx), ..RecordingWriter::default() };
    let server = serve_detached(handle.submit_handle(), reader, writer);

    let taken = frames_taken_until_stalled(&taken_rx);
    gate_tx.send(()).unwrap();
    let (result, _, writer) = server.recv_timeout(HANG).expect("serve_connection hung");
    assert!(taken <= REPLY_BACKLOG + 1, "took {taken} frames with no reply written");
    let stats = result.unwrap();
    assert_eq!((stats.commands, stats.replies), (commands.len(), commands.len()));
    handle.close();

    let direct = EngineHandle::new(config).unwrap();
    let mut expected = Vec::new();
    for cmd in commands {
        expected.extend(encode_reply(&direct_reply(&direct, cmd)).unwrap());
    }
    direct.close();
    assert_eq!(writer.writes.concat(), expected, "replies must match direct submits, in order");
}

/// A reply sink whose every `write` fails, as a socket whose peer has
/// gone does; its first call first waits for `gate`.
struct BrokenPipe {
    gate: Option<mpsc::Receiver<()>>,
}

impl Write for BrokenPipe {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        if let Some(gate) = self.gate.take() {
            let _ = gate.recv();
        }
        Err(std::io::ErrorKind::BrokenPipe.into())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The reader stalls on a full reply backlog, then the reply write
/// fails: the server must stop reading and return the write's error,
/// not wait for a drain that can no longer happen.
#[test]
fn a_failed_reply_write_releases_a_stalled_reader() {
    let commands = backlog_commands();
    let handle =
        EngineHandle::new(IngressConfig { num_shards: 2, seed: 5, queue_depth: 256 }).unwrap();
    let (taken_tx, taken_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel();
    let reader = OneFrameAtATime::new(&commands, taken_tx);
    let server = serve_detached(handle.submit_handle(), reader, BrokenPipe { gate: Some(gate_rx) });

    let taken = frames_taken_until_stalled(&taken_rx);
    gate_tx.send(()).unwrap();
    let (result, reader, _) = server.recv_timeout(HANG).expect("serve_connection hung");
    assert!(matches!(result, Err(WireError::Io(_))), "{result:?}");
    let unread = reader.frames.len();
    assert!(
        unread > 0,
        "read all {} frames after the write failed (stalled at {taken})",
        commands.len()
    );
    handle.close();
}
