//! The thread-per-connection TCP front.
//!
//! [`serve_tcp`] turns a bound [`TcpListener`] into a serving fleet
//! front: an accept thread hands each incoming connection its own OS
//! thread, and every connection thread drives the shared engine through
//! its own cloned [`SubmitHandle`] — no lock between connections, no
//! cross-connection ordering, no shared mutable state beyond the
//! engine's own atomic queue reservations. Per-connection semantics are
//! exactly those of [`serve_connection`](crate::serve_connection):
//! pipelined, replies strictly in command order, engine errors in-band,
//! protocol errors aborting only the offending connection.
//!
//! Sessions are engine-scoped, not connection-scoped: a client may
//! disconnect and find its streams where it left them on reconnect, and
//! two connections may legally feed disjoint session sets concurrently.
//! (Two connections feeding the *same* session race for queue positions;
//! keep a session's traffic on one connection at a time.)
//!
//! A thread per connection is deliberate: connections here are few and
//! long-lived (ingestion firehoses, not request/response web traffic),
//! each one blocks on socket reads and on engine flow control, and the
//! deployment cap ([`TcpOptions::max_connections`]) bounds the thread
//! count. See `docs/OPERATIONS.md` for deployment guidance (ports,
//! connection limits, shutdown drill).
//!
//! Each connection thread hands `serve_connection` its raw socket on
//! both sides; the serve loop buffers both directions itself, so a burst
//! of pipelined frames costs one `read` and a burst of ready replies one
//! `write`, for about 24 KiB of buffers per connection.
//!
//! # Examples
//!
//! ```
//! use pir_engine::{serve_tcp, EngineHandle, IngressConfig};
//! use std::net::{TcpListener, TcpStream};
//!
//! let handle = EngineHandle::new(IngressConfig {
//!     num_shards: 1,
//!     seed: 7,
//!     queue_depth: 64,
//! })
//! .unwrap();
//! // Port 0: the OS picks a free port; ask the front where it landed.
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let front = serve_tcp(handle.submit_handle(), listener).unwrap();
//! let addr = front.local_addr();
//!
//! let client = TcpStream::connect(addr).unwrap();
//! // ... speak the wire protocol (see `pir_engine::wire`) ...
//! drop(client);
//!
//! front.shutdown();
//! handle.close();
//! ```

use crate::ingress::SubmitHandle;
use crate::server::serve_connection_counted;
use crate::sync::lock_or_recover;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Deployment knobs for [`serve_tcp_with`].
#[derive(Debug, Clone, Copy)]
pub struct TcpOptions {
    /// Hard cap on simultaneously served connections (= spawned
    /// connection threads). A connection accepted while the front is at
    /// the cap is closed immediately without reading a byte, and counted
    /// in [`TcpStats::refused`] — backpressure at the front door, before
    /// any queue space is spent on the newcomer.
    pub max_connections: usize,
    /// Reap connections that deliver no bytes for this long: the
    /// connection is ended exactly as if the peer had closed it (its
    /// in-flight replies drain, its sessions survive engine-side) and
    /// counted in [`TcpStats::idle_reaped`]. Each reaped connection
    /// frees a thread and a slot under [`max_connections`](Self::max_connections),
    /// so one dead-but-connected client fleet cannot brown-out the front
    /// door. `None` (the default) lets idle connections sit forever —
    /// the right call for trusted, long-lived ingestion firehoses.
    pub idle_timeout: Option<Duration>,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions { max_connections: 1024, idle_timeout: None }
    }
}

/// Cumulative tallies for one TCP front, aggregated over finished
/// connections (live connections report only once they end).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Connections served to completion — cleanly (`CLOSE`/EOF) or not.
    pub connections: u64,
    /// Connections refused at the [`TcpOptions::max_connections`] cap.
    pub refused: u64,
    /// Command frames decoded, summed over finished connections.
    pub commands: u64,
    /// Reply frames written, summed over finished connections.
    pub replies: u64,
    /// Connections that ended in a [`WireError`](crate::wire::WireError)
    /// — malformed frames, or sockets severed mid-conversation (which is
    /// how connections still live at [`TcpFront::shutdown`] are ended).
    pub protocol_errors: u64,
    /// Connections reaped by [`TcpOptions::idle_timeout`]. A reaped
    /// connection also counts in [`connections`](Self::connections); one
    /// reaped mid-frame (silence after a half-sent frame) additionally
    /// counts in [`protocol_errors`](Self::protocol_errors).
    pub idle_reaped: u64,
}

/// One live connection as the front tracks it: the thread serving it, a
/// duplicated stream handle through which `shutdown` can sever it, and
/// the thread's id so the connection can reap its own registry entry
/// (and the duplicated fd) the moment it finishes.
struct Conn {
    stream: TcpStream,
    thread: JoinHandle<()>,
    id: std::thread::ThreadId,
}

/// State shared between the accept thread, connection threads, and the
/// owner-facing [`TcpFront`].
struct Shared {
    conns: Mutex<Vec<Conn>>,
    stats: Mutex<TcpStats>,
}

/// A running TCP front, returned by [`serve_tcp`]. Dropping it shuts the
/// front down (best-effort, discarding stats); call
/// [`shutdown`](Self::shutdown) to stop deliberately and collect the
/// final [`TcpStats`]. The engine behind it is *not* stopped — that is
/// [`EngineHandle::close`](crate::EngineHandle::close)'s job, afterwards.
#[derive(Debug)]
pub struct TcpFront {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").field("stats", &lock_or_recover(&self.stats)).finish()
    }
}

/// Serve an engine over TCP with default [`TcpOptions`]; see
/// [`serve_tcp_with`].
///
/// # Errors
/// Propagates [`io::Error`] from inspecting the listener.
pub fn serve_tcp(submit: SubmitHandle, listener: TcpListener) -> io::Result<TcpFront> {
    serve_tcp_with(submit, listener, TcpOptions::default())
}

/// Spawn the accept loop on `listener`: a thread per connection, each
/// driving [`serve_connection`](crate::serve_connection) with its own
/// clone of `submit`. Returns immediately with the [`TcpFront`] handle;
/// accepting, serving, and shutdown all happen on background threads.
///
/// The caller binds the listener (and so picks the port, the interface,
/// and any socket options); bind to port 0 to let the OS choose and read
/// the result from [`TcpFront::local_addr`].
///
/// # Errors
/// Propagates [`io::Error`] from inspecting the listener.
pub fn serve_tcp_with(
    submit: SubmitHandle,
    listener: TcpListener,
    opts: TcpOptions,
) -> io::Result<TcpFront> {
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let shared =
        Arc::new(Shared { conns: Mutex::new(Vec::new()), stats: Mutex::new(TcpStats::default()) });
    let accept = {
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&listener, &submit, opts, &stop, &shared))
    };
    Ok(TcpFront { local_addr, stop, shared, accept: Some(accept) })
}

impl TcpFront {
    /// The address the front is accepting on (the bound port, resolved
    /// even when the listener was bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the cumulative stats so far (finished connections
    /// only; see [`TcpStats`]).
    pub fn stats(&self) -> TcpStats {
        *lock_or_recover(&self.shared.stats)
    }

    /// Stop the front: refuse new connections, sever the ones still
    /// live, join every thread, and return the final tallies.
    ///
    /// For a *drain* (zero-interruption) shutdown, stop clients first and
    /// wait until [`stats`](Self::stats) shows your connection count —
    /// anything still connected when `shutdown` runs is severed
    /// mid-conversation and lands in [`TcpStats::protocol_errors`].
    pub fn shutdown(mut self) -> TcpStats {
        self.stop_impl();
        let stats = *lock_or_recover(&self.shared.stats);
        stats
    }

    fn stop_impl(&mut self) {
        let Some(accept) = self.accept.take() else {
            return; // already stopped
        };
        self.stop.store(true, Ordering::SeqCst);
        // The accept thread is parked in `accept()`; a throwaway
        // connection wakes it so it can observe the stop flag. A wildcard
        // bind (0.0.0.0 / ::) may not be connectable directly — fall back
        // to loopback on the same port. If neither connect lands (host
        // firewall, exhausted ephemeral ports), do NOT join: the accept
        // thread is detached still parked, which leaks one thread but
        // never hangs the caller — it exits on the next connection.
        let woke = TcpStream::connect(self.local_addr).is_ok() || {
            let ip = self.local_addr.ip();
            ip.is_unspecified() && {
                let loopback: std::net::IpAddr = if ip.is_ipv4() {
                    std::net::Ipv4Addr::LOCALHOST.into()
                } else {
                    std::net::Ipv6Addr::LOCALHOST.into()
                };
                TcpStream::connect((loopback, self.local_addr.port())).is_ok()
            }
        };
        if woke {
            let _ = accept.join();
        }
        // Sever live connections so their threads unblock from socket
        // reads, then join them (each drains its in-flight replies as
        // far as its half-closed socket allows before exiting). Drain
        // first and join with the registry lock *released*: a finishing
        // connection blocks on that lock to self-reap, so joining while
        // holding it would deadlock.
        let drained: Vec<Conn> = lock_or_recover(&self.shared.conns).drain(..).collect();
        for c in &drained {
            let _ = c.stream.shutdown(Shutdown::Both);
        }
        for c in drained {
            let _ = c.thread.join();
        }
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

/// Reader adapter implementing [`TcpOptions::idle_timeout`]: a read
/// that trips the socket's read timeout is reported as EOF, so the
/// serve loop ends the connection exactly as if the peer had closed it
/// — between frames that is a clean goodbye, mid-frame (including a
/// partial frame already in the serve loop's read buffer) it is the
/// usual truncation error. The flag lets the connection thread count
/// the reap.
struct IdleReader<'a> {
    stream: &'a TcpStream,
    timed_out: bool,
}

impl Read for IdleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut stream = self.stream;
        match stream.read(buf) {
            // Unix reports a tripped read timeout as WouldBlock, Windows
            // as TimedOut; both mean "idle past the deadline" here.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                self.timed_out = true;
                Ok(0)
            }
            r => r,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    submit: &SubmitHandle,
    opts: TcpOptions,
    stop: &AtomicBool,
    shared: &Arc<Shared>,
) {
    for incoming in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break; // the wake-up connection (or anything racing it)
        }
        let stream = match incoming {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept failures (EMFILE under fd pressure,
                // most likely) must not busy-spin the accept thread —
                // least of all on a small-core box where it would starve
                // the shard workers.
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            }
        };
        let mut conns = lock_or_recover(&shared.conns);
        // Belt-and-braces reap: a connection normally removes itself on
        // exit (below), but one that finished before its registry entry
        // was pushed cannot; sweep those so the cap counts live
        // connections and every thread gets joined.
        let mut live = Vec::with_capacity(conns.len());
        for c in conns.drain(..) {
            if c.thread.is_finished() {
                let _ = c.thread.join();
            } else {
                live.push(c);
            }
        }
        *conns = live;
        if conns.len() >= opts.max_connections {
            lock_or_recover(&shared.stats).refused += 1;
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        // One duplicated handle stays in the registry (for shutdown to
        // sever); the thread owns the original. A failed dup (fd
        // pressure) turns the accepted connection away — visibly, so the
        // tallies still reconcile against client-side counts.
        let Ok(registry_stream) = stream.try_clone() else {
            lock_or_recover(&shared.stats).refused += 1;
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        };
        let submit = submit.clone();
        let shared_for_conn = Arc::clone(shared);
        let idle_timeout = opts.idle_timeout;
        let thread = std::thread::spawn(move || {
            if idle_timeout.is_some() {
                // Best-effort: a connection whose timeout cannot be set
                // is served unreaped rather than turned away.
                let _ = stream.set_read_timeout(idle_timeout);
            }
            let mut reader = IdleReader { stream: &stream, timed_out: false };
            let (served, error) = serve_connection_counted(&submit, &mut reader, &mut (&stream));
            {
                let mut stats = lock_or_recover(&shared_for_conn.stats);
                stats.connections += 1;
                // Frames served before a protocol error (or a severed
                // socket) still count — TcpStats must reconcile against
                // client-side tallies.
                stats.commands += served.commands as u64;
                stats.replies += served.replies as u64;
                if error.is_some() {
                    stats.protocol_errors += 1;
                }
                if reader.timed_out {
                    stats.idle_reaped += 1;
                }
            }
            // Self-reap: drop this connection's registry entry (and its
            // duplicated fd) now rather than holding both until the next
            // accept or shutdown. Dropping our own JoinHandle merely
            // detaches a thread that is already on its final statement.
            let me = std::thread::current().id();
            let mut conns = lock_or_recover(&shared_for_conn.conns);
            if let Some(pos) = conns.iter().position(|c| c.id == me) {
                conns.swap_remove(pos);
            }
        });
        let id = thread.thread().id();
        conns.push(Conn { stream: registry_stream, thread, id });
    }
}
