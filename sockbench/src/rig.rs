//! Bringing the engine up behind its TCP front, and taking it down.

use crate::gen::{engine_seed, record, ConnGen, Phase, Script, Workload};
use crate::memdisk::MemDisk;
use crate::net::{err, Conn, Res};
use crate::stats::{kind, Digests, Tally};
use pir::engine::Reply;
use pir::engine::{
    serve_tcp, CheckpointPolicy, EngineHandle, IngressConfig, IngressStats, SpillOptions, TcpFront,
    TcpStats, WalOptions,
};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Shards of every engine under test (the box has two cores).
pub const SHARDS: usize = 2;

/// Where a durable engine keeps its log and its spilled sessions: two
/// directories on an in-memory disk (see `memdisk.rs`), which outlives
/// the engines of one round so that restarts recover from it.
pub struct Dirs {
    pub wal: PathBuf,
    pub spill: PathBuf,
    disk: Arc<MemDisk>,
}

impl Dirs {
    pub fn under(root: &Path, tag: &str) -> Dirs {
        Dirs {
            wal: root.join(format!("{tag}-wal")),
            spill: root.join(format!("{tag}-spill")),
            disk: Arc::default(),
        }
    }

    /// Empty both directories.
    pub fn reset(&self) {
        self.disk.clear();
    }

    pub fn wal_options(&self) -> WalOptions {
        let mut o = WalOptions::new(&self.wal);
        o.auto_checkpoint = Some(CheckpointPolicy::by_command_count(20_000));
        o.storage = self.disk.handle();
        o
    }

    pub fn spill_options(&self) -> SpillOptions {
        let mut s = SpillOptions::new(&self.spill);
        s.resident_cap = 128;
        s.storage = self.disk.handle();
        s
    }
}

pub fn config(seed: u64) -> IngressConfig {
    IngressConfig { num_shards: SHARDS, seed: engine_seed(seed), queue_depth: 1024 }
}

/// The engine a workload runs on: volatile, or logged and spilling.
pub fn engine(w: Workload, seed: u64, dirs: Option<&Dirs>) -> Res<EngineHandle> {
    match (w.durable(), dirs) {
        (true, Some(d)) => {
            EngineHandle::with_wal_and_spill(config(seed), &d.wal_options(), &d.spill_options())
                .map(|(h, _)| h)
                .map_err(err)
        }
        (true, None) => Err("a durable workload needs directories".to_string()),
        (false, _) => EngineHandle::new(config(seed)).map_err(err),
    }
}

/// Serve `handle` over TCP on an ephemeral loopback port.
pub fn front(handle: &EngineHandle) -> Res<TcpFront> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    serve_tcp(handle.submit_handle(), listener).map_err(err)
}

/// A served engine with two client connections and their generators.
pub struct Rig {
    pub handle: EngineHandle,
    pub front: TcpFront,
    pub conns: Vec<Conn>,
    pub gens: Vec<ConnGen>,
}

impl Rig {
    /// Close the connections, stop the front, then drain and close the
    /// engine.
    pub fn down(self) -> (TcpStats, IngressStats) {
        self.conns.into_iter().for_each(Conn::close);
        let tcp = self.front.shutdown();
        (tcp, self.handle.close())
    }
}

/// Everything a round's replies feed: the script to replay, the digests
/// to compare, the tally to report, and each command's latency in µs by
/// command type.
pub struct Log {
    pub script: Script,
    pub digests: Digests,
    pub tally: Tally,
    pub lat: [Vec<f64>; 4],
}

impl Log {
    pub fn new(w: Workload) -> Log {
        Log {
            script: Script::new(),
            digests: Digests::new(w.pool()),
            tally: Tally::default(),
            lat: Default::default(),
        }
    }

    /// Account the reply to a command of type `kind`; returns the points
    /// it released.
    pub fn reply(&mut self, kind: usize, reply: &Reply) -> usize {
        self.tally.count(kind, reply);
        self.digests.absorb(reply);
        match reply {
            Reply::Releases { thetas, .. } => thetas.len(),
            _ => 0,
        }
    }

    /// Send `n` commands of `phase` one at a time on connection `c`.
    pub fn depth1(
        &mut self,
        conn: &mut Conn,
        gen: &mut ConnGen,
        c: usize,
        phase: Phase,
        n: usize,
    ) -> Res<()> {
        for _ in 0..n {
            let cmd = gen.command(phase);
            let (reply, ns) = conn.call(&cmd)?;
            self.lat[kind(&cmd)].push(ns as f64 / 1e3);
            self.reply(kind(&cmd), &reply);
        }
        record(&mut self.script, c, phase, n);
        Ok(())
    }

    /// An empty log for a connection thread that continues `self`'s
    /// digests.
    pub fn fork(&self) -> Log {
        Log {
            script: Script::new(),
            digests: self.digests.clone(),
            tally: Tally::default(),
            lat: Default::default(),
        }
    }

    /// Fold in a fork that a connection thread advanced (connections
    /// address disjoint sessions while they run at once). The caller
    /// records the fork's script.
    pub fn join(&mut self, fork: Log) {
        for (mine, theirs) in self.lat.iter_mut().zip(fork.lat) {
            mine.extend(theirs);
        }
        self.digests.merge(&fork.digests);
        self.tally.add(&fork.tally);
    }
}

/// One set-up: engine + `serve_tcp` + two connections + the initial fleet
/// opened at depth 1 on the first connection. Its OPEN latencies are not
/// kept: `open_*` measures OPEN on a serving engine.
pub struct SetUp {
    pub rig: Rig,
    pub seconds: f64,
    pub log: Log,
}

pub fn bring_up(w: Workload, seed: u64, dirs: Option<&Dirs>) -> Res<SetUp> {
    if let Some(d) = dirs {
        d.reset();
    }
    let t0 = Instant::now();
    let handle = engine(w, seed, dirs)?;
    let front = front(&handle)?;
    let mut conns = vec![Conn::connect(front.local_addr())?, Conn::connect(front.local_addr())?];
    let mut gens = vec![ConnGen::new(w, seed, 0), ConnGen::new(w, seed, 1)];
    let mut log = Log::new(w);
    let share = w.fleet() as usize / 2;
    for (c, gen) in gens.iter_mut().enumerate() {
        log.depth1(&mut conns[0], gen, c, Phase::Open, share)?;
    }
    let seconds = t0.elapsed().as_secs_f64();
    log.lat = Default::default();
    Ok(SetUp { rig: Rig { handle, front, conns, gens }, seconds, log })
}

/// Run `f` for connection 0 on a helper thread and for connection 1 on
/// this one; results in connection order.
pub fn both<T: Send>(
    conns: &mut [Conn],
    gens: &mut [ConnGen],
    f: impl Fn(usize, &mut Conn, &mut ConnGen) -> Res<T> + Sync,
) -> Res<Vec<T>> {
    let mut pairs = conns.iter_mut().zip(gens.iter_mut());
    let (c0, g0) = pairs.next().expect("two connections");
    let (c1, g1) = pairs.next().expect("two connections");
    std::thread::scope(|s| {
        let helper = s.spawn(|| f(0, c0, g0));
        let mine = f(1, c1, g1);
        let first = helper.join().expect("connection thread panicked");
        Ok(vec![first?, mine?])
    })
}
