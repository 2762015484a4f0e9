//! The `pir-engine` server loop: decoded frames in, reply frames out.
//!
//! [`serve_connection`] drives a [`SubmitHandle`] from any
//! [`Read`]/[`Write`] pair — a TCP stream (see
//! [`serve_tcp`](crate::serve_tcp) for the thread-per-connection
//! listener built on this loop), a Unix socket, an in-memory buffer in
//! tests. The loop is **pipelined and full-duplex**: the calling thread
//! decodes and submits commands without waiting for their compute, while
//! a scoped writer thread streams the replies back strictly in command
//! order as they resolve. A client may therefore keep many commands in
//! flight over one connection — or send one command and block on its
//! answer — and still match the `n`-th reply to the `n`-th command.
//!
//! Backpressure is **flow control, not failure**: when a shard queue is
//! transiently full ([`Backpressure`](crate::EngineError::Backpressure)),
//! the loop stops reading frames until space frees — the pushback
//! reaches a TCP client as a stalled socket, never as a spurious error
//! reply. The reply backlog is likewise bounded, so a client that writes
//! without reading is eventually stalled rather than buffered without
//! limit. *Permanent* rejections
//! ([`CommandTooLarge`](crate::EngineError::CommandTooLarge), which no
//! retry can clear) become in-order [`Reply::Err`] frames. The flip side
//! of in-order replies plus flow control: a client that pipelines
//! deeply must read replies concurrently with its writes (or cap its
//! in-flight points) — see the pipelining note in `docs/PROTOCOL.md`.
//!
//! Replies travel through **one in-order queue per connection**. The
//! reader pushes a slot per command, in command order; the shard worker
//! that computes a command fills its slot; the writer pops replies off
//! the head as they fill. The writer is woken only when the head slot it
//! waits on fills — a reply that finishes behind an unfinished one wakes
//! no one. When [`REPLY_BACKLOG`] replies are owed, the reader stops
//! reading frames and resumes only once at most half of that is owed, so
//! a client that outpaces its replies costs the reader one wait per half
//! backlog, not one per reply.
//!
//! Socket I/O is **coalesced**. Commands are read through a
//! [`FrameReader`] — a [`BUFFER_SIZE`] read buffer and one reused
//! payload buffer — so a burst of pipelined frames costs one `read` on
//! the stream, not two per frame. The writer thread encodes replies back
//! to back into one buffer and hands it over in one `write_all` when
//! the buffer reaches [`BUFFER_SIZE`], and **whenever the server would
//! otherwise wait**: before waiting for the next command to be
//! submitted, and before waiting on a reply whose compute is still
//! running. No reply is held back to fill a batch — at depth 1 every
//! reply is written before the server blocks again, and a finished reply
//! never waits behind a slow pipelined one. The connection keeps three
//! such buffers between frames (read, payload, reply): about 24 KiB.
//!
//! Engine-level failures (unknown session, too-large command, budget)
//! travel as [`Reply::Err`] frames and the connection keeps going; only
//! *protocol* violations (bad magic, truncated frame, unknown opcode)
//! abort the connection with a [`WireError`], since after one of those
//! the byte stream can no longer be trusted.

use crate::ingress::{Command, Next, Reply, ReplyQueue, SubmitHandle};
use crate::wire::{encode_reply_into, FrameReader, WireError, BUFFER_SIZE};
use std::io::{Read, Write};
use std::sync::Arc;

/// Cap on replies owed to one connection: pushed by the reader side and
/// not yet written out by the writer side. When a client writes commands
/// without reading replies, the backlog fills and the server stops
/// reading the socket until half of it has drained — bounding
/// per-connection memory at roughly this many replies plus the shard
/// queues' own caps.
///
/// Part of the client contract: a client that does not read replies
/// concurrently with its writes must cap what it keeps in flight at
/// `min(queue_depth points, REPLY_BACKLOG replies)` — the reply backlog
/// binds even when `queue_depth` is provisioned larger (see the
/// pipelining note in `docs/PROTOCOL.md`).
pub const REPLY_BACKLOG: usize = 1024;

/// Tallies for one served connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Command frames decoded.
    pub commands: usize,
    /// Reply frames written (one per command).
    pub replies: usize,
}

/// Reply frames encoded back to back into one buffer, handed to the
/// writer in a single `write_all` when the buffer reaches
/// [`BUFFER_SIZE`] or the server is about to wait.
struct ReplyBatch<'w, W> {
    writer: &'w mut W,
    /// Told of every reply handed to the writer, so the reader side can
    /// resume once the backlog has drained.
    replies: &'w ReplyQueue,
    bytes: Vec<u8>,
    /// Replies in `bytes`.
    frames: usize,
    /// Replies handed to the writer without error.
    written: usize,
}

impl<W: Write> ReplyBatch<'_, W> {
    fn push(&mut self, reply: &Reply) -> Result<(), WireError> {
        encode_reply_into(&mut self.bytes, reply)?;
        self.frames += 1;
        if self.bytes.len() >= BUFFER_SIZE {
            self.write_out()?;
        }
        Ok(())
    }

    /// One `write_all` of every buffered reply. A batch whose write
    /// failed is dropped, never re-sent: how much of it reached the peer
    /// is unknown.
    fn write_out(&mut self) -> Result<(), WireError> {
        if self.bytes.is_empty() {
            return Ok(());
        }
        let frames = std::mem::take(&mut self.frames);
        let result = self.writer.write_all(&self.bytes);
        self.bytes.clear();
        self.bytes.shrink_to(BUFFER_SIZE);
        result?;
        self.written += frames;
        self.replies.delivered(frames);
        Ok(())
    }

    /// [`write_out`](Self::write_out), then flush the writer: the server
    /// is about to wait, so no reply may stay behind in a buffer.
    fn flush(&mut self) -> Result<(), WireError> {
        self.write_out()?;
        self.writer.flush()?;
        Ok(())
    }
}

/// The writer side of one connection: pop the replies in command order
/// and batch them, writing the batch out whenever the next step would
/// block — before waiting for the reader side to push a slot, and before
/// waiting on a head slot whose compute is still running (so a finished
/// reply never waits behind a slow one). Returns once the reader side
/// has hung up and every reply is popped.
fn write_replies<W: Write>(out: &mut ReplyBatch<'_, W>) -> Result<(), WireError> {
    loop {
        let reply = match out.replies.pop(false) {
            Next::Reply(reply) => reply,
            Next::Done => return Ok(()),
            Next::Pending => {
                out.flush()?;
                match out.replies.pop(true) {
                    Next::Reply(reply) => reply,
                    Next::Pending | Next::Done => return Ok(()),
                }
            }
        };
        out.push(&reply)?;
    }
}

/// Runs its closure when dropped, on return and on unwind alike.
struct OnDrop<F: FnMut()>(F);

impl<F: FnMut()> Drop for OnDrop<F> {
    fn drop(&mut self) {
        (self.0)();
    }
}

/// Serve one connection until [`Command::Close`] or clean EOF.
///
/// On `Close`, every reply this connection is still owed is drained and
/// written in order, the final [`Reply::Closed`] frame goes out last, and
/// the loop returns — a barrier over **this connection's** in-flight
/// commands only. Other connections' queued compute is never waited on:
/// one tenant's goodbye cannot stall another tenant's stream. On EOF,
/// outstanding replies are likewise drained and written before returning
/// (so short-lived clients lose nothing). The engine itself stays up
/// either way — sessions outlive connections.
///
/// Call it with `&EngineHandle` (which derefs to its [`SubmitHandle`])
/// for single-connection embedding, or with a cloned handle from
/// [`EngineHandle::submit_handle`](crate::EngineHandle::submit_handle)
/// when each connection gets its own thread. The loop occupies the
/// calling thread and one scoped writer thread until the connection
/// ends. Pass the raw stream halves: the loop buffers both directions
/// itself (see the [module docs](self)), and flushes a writer that has
/// its own buffer whenever it would wait.
///
/// # Errors
/// A [`WireError`] for protocol violations on either direction (replies
/// already owed are still flushed first); the engine's own errors are
/// *replies*, not `Err` returns.
pub fn serve_connection<R: Read, W: Write + Send>(
    handle: &SubmitHandle,
    reader: &mut R,
    writer: &mut W,
) -> Result<ServeStats, WireError> {
    match serve_connection_counted(handle, reader, writer) {
        (_, Some(e)) => Err(e),
        (stats, None) => Ok(stats),
    }
}

/// [`serve_connection`], but the tallies survive an error: frames served
/// before a protocol violation (or a severed socket) still count. The
/// TCP front aggregates through this so `TcpStats` reconciles against
/// client-side counts even for connections that ended badly.
pub(crate) fn serve_connection_counted<R: Read, W: Write + Send>(
    handle: &SubmitHandle,
    reader: &mut R,
    writer: &mut W,
) -> (ServeStats, Option<WireError>) {
    let replies = Arc::new(ReplyQueue::default());
    std::thread::scope(|s| {
        let writer_thread = s.spawn(|| -> (usize, Option<WireError>) {
            // However the writer ends, a reader waiting for the backlog to
            // drain is released.
            let _abandon = OnDrop(|| replies.abandon());
            let mut out = ReplyBatch {
                writer,
                replies: &replies,
                bytes: Vec::with_capacity(BUFFER_SIZE),
                frames: 0,
                written: 0,
            };
            let result = write_replies(&mut out);
            // Replies batched before an encoding failure still go out
            // (after a failed write the batch is already dropped).
            let tail = out.flush();
            (out.written, result.and(tail).err())
        });
        // However the reader ends, the writer drains what is owed and
        // returns.
        let hang_up = OnDrop(|| replies.hang_up());

        let mut frames = FrameReader::new(reader);
        let mut commands = 0usize;
        let mut read_error = None;
        // Stop reading once the backlog is full. `false` means the writer
        // side failed; its error is joined below.
        while replies.wait_for_room(REPLY_BACKLOG, REPLY_BACKLOG / 2) {
            let cmd = match frames.read_command() {
                Ok(Some(cmd)) => cmd,
                Ok(None) => break, // clean EOF between frames
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            };
            commands += 1;
            let closing = matches!(cmd, Command::Close);
            // Submit without waiting on compute. Transient backpressure
            // is waited out (the writer thread keeps replies flowing in
            // the meantime); permanent rejections become in-order error
            // replies rather than a torn connection.
            handle.submit_blocking_into(cmd, &replies);
            if closing {
                break;
            }
        }

        // Hang up: the writer drains everything still in flight, in
        // order (after a Close the ready Closed slot is last, so the
        // CLOSED frame goes out only after every earlier reply — the
        // connection-scoped barrier the client observes).
        drop(hang_up);
        let (written, write_error) = writer_thread.join().unwrap_or_else(|_| {
            // A panicked writer tore the connection; report it as a
            // write-side failure instead of propagating the panic into
            // the accept loop.
            (0, Some(WireError::Malformed("reply writer thread panicked".to_string())))
        });
        // A protocol violation on the read side outranks write-side
        // trouble: after it the inbound stream is untrusted.
        (ServeStats { commands, replies: written }, read_error.or(write_error))
    })
}
