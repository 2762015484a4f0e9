//! The traced run: per-layer metrics, each measured from outside its
//! layer by timing calls into that layer's public entry points.
//!
//! A workload's recorded command stream (same seed) is replayed at depth 1
//! through successive boundaries, each on a fresh engine:
//!
//! - `e2e`: a socket round trip through `serve_tcp`;
//! - `server`: `serve_connection` over an in-memory reader and writer;
//! - `ingress`: `SubmitHandle::submit` then `Ticket::wait`;
//! - `engine`: `ShardedEngine::apply` on a 1-shard engine.
//!
//! All spans of one command share its sequence number, so a layer's self
//! time is its span minus the next boundary's span for the same command.
//! Spans stay in memory and are written out when the run ends.

use crate::gate;
use crate::gen::{engine_seed, ConnGen, Phase, Workload};
use crate::net::{encode, err, pipe, recv, Conn, Res};
use crate::rig::{bring_up, config, engine, front, Dirs, SetUp};
use crate::run::{failure_counters, main_phase, Outcome, BATCH, REOPENS};
use crate::stats::{kind, metric, points, Digests, Metric, Summary, Tally};
use pir::dp::PrivacyParams;
use pir::engine::wire::{decode_command, decode_reply, encode_command, encode_reply};
use pir::engine::{
    serve_connection, Command, EngineConfig, EngineHandle, Reply, ShardedEngine, SpillStats,
    StreamSession, TcpStats, WalOptions, WalStats, WalWriter,
};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Per-layer metrics, in report order, with their units.
pub const LAYER_METRICS: [(&str, &str); 37] = [
    ("e2e.depth1_p50_us", "us"),
    ("tcp.self_us", "us"),
    ("server.self_us", "us"),
    ("ingress.self_us", "us"),
    ("engine.share_pct", "%"),
    ("engine.observe_us_per_point", "us"),
    ("engine.open_us", "us"),
    ("engine.release_us", "us"),
    ("wire.encode_command_ns", "ns"),
    ("wire.decode_command_ns", "ns"),
    ("wire.encode_reply_ns", "ns"),
    ("wire.decode_reply_ns", "ns"),
    ("wire.bytes_per_point", "bytes"),
    ("ingress.queue_depth_p50", "points"),
    ("ingress.queue_depth_max", "points"),
    ("wal.append_us_per_record", "us"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.sync_us", "us"),
    ("wal.checkpoint_ms", "ms"),
    ("wal.auto_checkpoints", "count"),
    ("wal.recover_cmds", "count"),
    ("spill.restores_per_batch", "ratio"),
    ("spill.spills", "count"),
    ("snapshot.encode_us", "us"),
    ("snapshot.restore_us", "us"),
    ("snapshot.bytes", "bytes"),
    ("gen.lag_p99_us", "us"),
    ("gen.backlog_end", "count"),
    ("trace.overhead_pct", "%"),
    ("tcp.protocol_errors", "count"),
    ("tcp.refused", "count"),
    ("wal.retries", "count"),
    ("wal.degraded_shards", "count"),
    ("wal.auto_checkpoint_failures", "count"),
    ("spill.spill_failures", "count"),
    ("spill.remove_failures", "count"),
    ("ingress.walspill_us", "us"),
];

/// The recorded stream: the fleet's OPENs, the workload's main commands
/// (`main` indexes them), then `REOPENS` RELEASE + OPEN cycles.
struct Stream {
    cmds: Vec<Command>,
    main: std::ops::Range<usize>,
}

fn recorded(w: Workload, seed: u64, seconds: f64) -> Stream {
    let mut gens = [ConnGen::new(w, seed, 0), ConnGen::new(w, seed, 1)];
    let share = w.fleet() as usize / 2;
    let mut cmds: Vec<Command> = (0..2)
        .flat_map(|c| (0..share).map(move |_| c))
        .map(|c| gens[c].command(Phase::Open))
        .collect();
    let start = cmds.len();
    let (per_s, phase) = match w {
        Workload::ObserveOpen => (1500.0, Phase::Observe),
        Workload::BatchWindow => (30.0, Phase::Batch(BATCH)),
        Workload::DurableChurn => (400.0, Phase::Churn),
    };
    let n = (per_s * seconds).ceil() as usize;
    cmds.extend((0..n).map(|i| gens[if w.durable() { i % 2 } else { 0 }].command(phase)));
    let main = start..cmds.len();
    cmds.extend((0..2 * REOPENS).map(|_| gens[0].command(Phase::Reopen)));
    Stream { cmds, main }
}

/// One boundary's replay: a `(start, end)` span per command, in ns since
/// the trace began, and the digests of its replies.
struct Pass {
    name: &'static str,
    spans: Vec<(u64, u64)>,
    digests: Digests,
    tally: Tally,
    seconds: f64,
}

impl Pass {
    fn new(name: &'static str, w: Workload, n: usize) -> Pass {
        Pass {
            name,
            spans: Vec::with_capacity(n),
            digests: Digests::new(w.pool()),
            tally: Tally::default(),
            seconds: 0.0,
        }
    }

    fn dur(&self, i: usize) -> f64 {
        let (s, e) = self.spans[i];
        (e - s) as f64 / 1e3
    }

    fn note(&mut self, cmd: &Command, reply: &Reply) {
        self.tally.count(kind(cmd), reply);
        self.digests.absorb(reply);
    }
}

fn ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Replay through `serve_tcp` over one connection; spans recorded only
/// when `traced`.
fn pass_e2e(
    w: Workload,
    seed: u64,
    dirs: Option<&Dirs>,
    s: &Stream,
    t0: Instant,
    traced: bool,
) -> Res<(Pass, TcpStats)> {
    let mut p = Pass::new(if traced { "e2e" } else { "e2e_untraced" }, w, s.cmds.len());
    reset(dirs);
    let handle = engine(w, seed, dirs)?;
    let front = front(&handle)?;
    let mut conn = Conn::connect(front.local_addr())?;
    let mut buf = Vec::new();
    let start = Instant::now();
    for cmd in &s.cmds {
        buf.clear();
        encode(&mut buf, cmd);
        let a = ns(t0);
        let reply = conn.exchange(&buf)?;
        if traced {
            p.spans.push((a, ns(t0)));
        }
        p.note(cmd, &reply);
    }
    p.seconds = start.elapsed().as_secs_f64();
    conn.close();
    let tcp = front.shutdown();
    handle.close();
    Ok((p, tcp))
}

/// Replay through `serve_connection` over in-memory pipes.
fn pass_server(w: Workload, seed: u64, dirs: Option<&Dirs>, s: &Stream, t0: Instant) -> Res<Pass> {
    let mut p = Pass::new("server", w, s.cmds.len());
    reset(dirs);
    let handle = engine(w, seed, dirs)?;
    let submit = handle.submit_handle();
    let (mut to_server, mut server_in) = pipe(4);
    let (mut server_out, mut from_server) = pipe(64);
    let result = std::thread::scope(|sc| {
        let server = sc.spawn(move || serve_connection(&submit, &mut server_in, &mut server_out));
        let mut replay = || -> Res<()> {
            let mut buf = Vec::new();
            for cmd in &s.cmds {
                buf.clear();
                encode(&mut buf, cmd);
                let a = ns(t0);
                to_server.write_all(&buf).map_err(err)?;
                let reply = recv(&mut from_server)?;
                p.spans.push((a, ns(t0)));
                p.note(cmd, &reply);
            }
            Ok(())
        };
        let r = replay();
        drop(to_server);
        let served = server.join().map_err(|_| "server thread panicked".to_string())?;
        r.and(served.map(|_| ()).map_err(err))
    });
    handle.close();
    result.map(|()| p)
}

/// Replay through `SubmitHandle::submit` → `Ticket::wait`.
fn pass_ingress(
    name: &'static str,
    w: Workload,
    seed: u64,
    dirs: Option<&Dirs>,
    s: &Stream,
    t0: Instant,
) -> Res<Pass> {
    let mut p = Pass::new(name, w, s.cmds.len());
    reset(dirs);
    let handle = if dirs.is_some() {
        engine(w, seed, dirs)?
    } else {
        EngineHandle::new(config(seed)).map_err(err)?
    };
    for cmd in &s.cmds {
        let owned = cmd.clone();
        let a = ns(t0);
        let reply = match handle.submit(owned) {
            Ok(ticket) => ticket.wait(),
            Err(e) => Reply::Err(e),
        };
        p.spans.push((a, ns(t0)));
        p.note(cmd, &reply);
    }
    handle.close();
    Ok(p)
}

/// Replay through `ShardedEngine::apply` on one shard; keeps the replies
/// to the main commands for the wire measurements.
fn pass_engine(w: Workload, seed: u64, s: &Stream, t0: Instant) -> Res<(Pass, Vec<Reply>)> {
    let mut p = Pass::new("engine", w, s.cmds.len());
    let config = EngineConfig { num_shards: 1, seed: engine_seed(seed), parallel: false };
    let mut eng = ShardedEngine::new(config).map_err(err)?;
    let mut kept = Vec::with_capacity(s.main.len());
    for (i, cmd) in s.cmds.iter().enumerate() {
        let a = ns(t0);
        let reply = eng.apply(cmd);
        p.spans.push((a, ns(t0)));
        p.note(cmd, &reply);
        if s.main.contains(&i) {
            kept.push(reply);
        }
    }
    Ok((p, kept))
}

fn reset(dirs: Option<&Dirs>) {
    if let Some(d) = dirs {
        d.reset();
    }
}

/// Median ns per call of `f` over `items`, over five repeats.
fn per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let mut reps = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        items.iter().for_each(&mut f);
        reps.push(t.elapsed().as_nanos() as f64 / items.len().max(1) as f64);
    }
    Summary::median(&reps)
}

/// Run the traced mode of workload `w`.
pub fn trace(w: Workload, seed: u64, seconds: f64, work: &Path, spans_out: &Path) -> Res<Outcome> {
    let mut faults = Vec::new();
    let mut notes = Vec::new();
    let mut tally = Tally::default();
    let mut m: Vec<Metric> = Vec::new();
    let stream = recorded(w, seed, seconds);
    let main = stream.main.clone();
    let dirs = w.durable().then(|| Dirs::under(work, "trace"));
    let t0 = Instant::now();

    // The replays, outermost boundary first.
    let (untraced, tcp_a) = pass_e2e(w, seed, dirs.as_ref(), &stream, t0, false)?;
    let (e2e, tcp_b) = pass_e2e(w, seed, dirs.as_ref(), &stream, t0, true)?;
    let server = pass_server(w, seed, dirs.as_ref(), &stream, t0)?;
    let ingress = pass_ingress("ingress", w, seed, dirs.as_ref(), &stream, t0)?;
    // The same replay on a bare engine (no WAL, no spill): on durable_churn
    // the difference is the WAL + spill time; elsewhere it reads ≈0.
    let bare = pass_ingress("ingress_bare", w, seed, None, &stream, t0)?;
    let (eng, replies) = pass_engine(w, seed, &stream, t0)?;
    let passes: Vec<&Pass> =
        [&untraced, &e2e, &server, &ingress].into_iter().chain([&bare, &eng]).collect();
    for p in &passes {
        tally.add(&p.tally);
        if p.digests != eng.digests {
            faults
                .push(format!("{} replay released differently from ShardedEngine::apply", p.name));
        }
    }
    write_spans(spans_out, &[&e2e, &server, &ingress, &eng])?;

    let diff = |a: &Pass, b: &Pass| -> Summary {
        Summary::of(&mut main.clone().map(|i| a.dur(i) - b.dur(i)).collect::<Vec<_>>())
    };
    let e2e_main = Summary::of(&mut main.clone().map(|i| e2e.dur(i)).collect::<Vec<_>>());
    let (tcp_self, server_self, ingress_self) =
        (diff(&e2e, &server), diff(&server, &ingress), diff(&ingress, &eng));
    let share =
        |f: &dyn Fn(usize) -> f64| Summary::of(&mut main.clone().map(f).collect::<Vec<_>>()).p50;
    let engine_share = share(&|i| eng.dur(i) / e2e.dur(i));
    let of_kind = |k: usize, f: &dyn Fn(usize) -> f64| {
        let mut v: Vec<f64> =
            (0..stream.cmds.len()).filter(|&i| kind(&stream.cmds[i]) == k).map(f).collect();
        Summary::of(&mut v)
    };
    let per_point = {
        let mut v: Vec<f64> = main
            .clone()
            .filter(|&i| points(&stream.cmds[i]) > 0)
            .map(|i| eng.dur(i) / points(&stream.cmds[i]) as f64)
            .collect();
        Summary::of(&mut v)
    };
    m.push(metric("e2e.depth1_p50_us", "us", e2e_main.p50, e2e_main.n));
    m.push(metric("tcp.self_us", "us", tcp_self.p50, tcp_self.n));
    m.push(metric("server.self_us", "us", server_self.p50, server_self.n));
    m.push(metric("ingress.self_us", "us", ingress_self.p50, ingress_self.n));
    m.push(metric("engine.share_pct", "%", 100.0 * engine_share, main.len()));
    m.push(metric("engine.observe_us_per_point", "us", per_point.p50, per_point.n));
    let opens = of_kind(0, &|i| eng.dur(i));
    let releases = of_kind(3, &|i| eng.dur(i));
    m.push(metric("engine.open_us", "us", opens.p50, opens.n));
    m.push(metric("engine.release_us", "us", releases.p50, releases.n));

    // Wire codec on the workload's own frames and replies.
    let cmds = &stream.cmds[main.clone()];
    let frames: Vec<Vec<u8>> =
        cmds.iter().map(|c| encode_command(c).map_err(err)).collect::<Res<_>>()?;
    let reply_frames: Vec<Vec<u8>> =
        replies.iter().map(|r| encode_reply(r).map_err(err)).collect::<Res<_>>()?;
    m.push(metric(
        "wire.encode_command_ns",
        "ns",
        per_call(cmds, |c| drop(black_box(encode_command(c)))),
        cmds.len(),
    ));
    m.push(metric(
        "wire.decode_command_ns",
        "ns",
        per_call(&frames, |f| drop(black_box(decode_command(f)))),
        frames.len(),
    ));
    m.push(metric(
        "wire.encode_reply_ns",
        "ns",
        per_call(&replies, |r| drop(black_box(encode_reply(r)))),
        replies.len(),
    ));
    m.push(metric(
        "wire.decode_reply_ns",
        "ns",
        per_call(&reply_frames, |f| drop(black_box(decode_reply(f)))),
        reply_frames.len(),
    ));
    let bytes: usize = frames.iter().chain(&reply_frames).map(Vec::len).sum();
    let pts: usize = cmds.iter().map(points).sum();
    m.push(metric("wire.bytes_per_point", "bytes", bytes as f64 / pts.max(1) as f64, pts));

    // The timed run, with queue depths sampled and counters read.
    let timed = timed_run(w, seed, seconds / 2.0, work, &mut faults, &mut notes)?;
    tally.add(&timed.tally);
    m.extend(timed.metrics);

    wal_bench(&stream.cmds, work, &mut m)?;
    snapshot_bench(w, seed, cmds, &mut m)?;

    let overhead = 100.0 * (e2e.seconds - untraced.seconds) / untraced.seconds;
    m.push(metric("trace.overhead_pct", "%", overhead, 2));
    let counters = failure_counters(&tcp_a, &WalStats::default(), &SpillStats::default());
    let counters_b = failure_counters(&tcp_b, &WalStats::default(), &SpillStats::default());
    for ((name, a), (_, b)) in counters.iter().zip(counters_b) {
        if a + b != 0 {
            faults.push(format!("{name} = {} in the replays", a + b));
        }
    }
    let walspill = diff(&ingress, &bare);
    m.push(metric("ingress.walspill_us", "us", walspill.p50, walspill.n));

    // Layer predictions, reported as held or failed.
    let engine_p50 = Summary::of(&mut main.clone().map(|i| eng.dur(i)).collect::<Vec<_>>()).p50;
    let verdict = |held: bool| if held { "HELD" } else { "FAILED" };
    match w {
        Workload::ObserveOpen => {
            let front = 1.0 - engine_share;
            notes.push(format!(
                "prediction: tcp+server+ingress own most of the depth-1 round trip: {:.0}% \
                 (tcp {:.1} + server {:.1} + ingress {:.1} us of {:.1} us) -> {}",
                100.0 * front,
                tcp_self.p50,
                server_self.p50,
                ingress_self.p50,
                e2e_main.p50,
                verdict(front > 0.5)
            ));
        }
        Workload::BatchWindow => notes.push(format!(
            "prediction: engine owns >= 90% of the depth-1 round trip: {:.1}% -> {}",
            100.0 * engine_share,
            verdict(engine_share >= 0.9)
        )),
        Workload::DurableChurn => {
            let hop = ingress_self.p50 - walspill.p50;
            notes.push(format!(
                "prediction: WAL + spill are the largest non-front share: wal+spill {:.1} us vs \
                 engine {:.1} us and queue hop {:.1} us -> {}",
                walspill.p50,
                engine_p50,
                hop,
                verdict(walspill.p50 > engine_p50 && walspill.p50 > hop)
            ));
        }
    }
    let order: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
    m.sort_by_key(|x| order.iter().position(|n| *n == x.name).unwrap_or(usize::MAX));
    Ok(Outcome { metrics: m, tally, faults, notes })
}

/// Write every span as `name seq start_ns end_ns parent`, tab-separated.
fn write_spans(path: &Path, passes: &[&Pass]) -> Res<()> {
    let mut out = String::from("name\tseq\tstart_ns\tend_ns\tparent\n");
    for (depth, p) in passes.iter().enumerate() {
        let parent = if depth == 0 { "-" } else { passes[depth - 1].name };
        for (seq, (s, e)) in p.spans.iter().enumerate() {
            out.push_str(&format!("{}\t{seq}\t{s}\t{e}\t{parent}\n", p.name));
        }
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Sessions the side engine of a volatile workload checkpoints.
const SIDE_FLEET: usize = 16;

struct Timed {
    metrics: Vec<Metric>,
    tally: Tally,
}

/// The workload's main phase on a fresh rig, with every shard's queue
/// depth sampled each millisecond; then the counters, the checkpoint and
/// (durable_churn) a restart.
fn timed_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    faults: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Res<Timed> {
    let dirs = w.durable().then(|| Dirs::under(work, "timed"));
    let SetUp { mut rig, mut log, .. } = bring_up(w, seed, dirs.as_ref())?;
    let submit = rig.handle.submit_handle();
    let stop = AtomicBool::new(false);
    let (main, depths) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut depths = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                depths.extend(submit.queue_depths().iter().map(|&d| d as f64));
                std::thread::sleep(Duration::from_millis(1));
            }
            depths
        });
        let main = main_phase(w, &mut rig, seconds, &mut log);
        stop.store(true, Ordering::SeqCst);
        (main, sampler.join().expect("sampler panicked"))
    });
    let main = main?;
    if let Err(e) = gate::check(w, seed, &log.script, &log.digests) {
        faults.push(format!("gate (timed run): {e}"));
    }
    let (wal, spill) = (rig.handle.wal_stats(), rig.handle.spill_stats());
    let batches = log.tally.sent[2];
    let mut tally = log.tally;
    let (tcp, closed) = rig.down();
    let mut m = Vec::new();
    let depth = Summary::of(&mut depths.clone());
    m.push(metric("ingress.queue_depth_p50", "points", depth.p50, depth.n));
    m.push(metric("ingress.queue_depth_max", "points", depth.max, depth.n));
    let lag = Summary::of(&mut main.lag_us.clone());
    m.push(metric("gen.lag_p99_us", "us", lag.p99, lag.n));
    m.push(metric("gen.backlog_end", "count", main.backlog_end as f64, 1));
    m.push(metric(
        "spill.restores_per_batch",
        "ratio",
        spill.restores as f64 / batches.max(1) as f64,
        batches as usize,
    ));
    m.push(metric("spill.spills", "count", spill.spills as f64, 1));
    m.push(metric("wal.auto_checkpoints", "count", wal.auto_checkpoints as f64, 1));
    for (name, v) in failure_counters(&tcp, &wal, &spill) {
        m.push(metric(name, "count", v as f64, 1));
        if v != 0 {
            faults.push(format!("{name} = {v} in the timed run"));
        }
    }

    // Restart cost and checkpoint cost on the durable engine; on volatile
    // workloads, checkpoint `SIDE_FLEET` of the workload's sessions on a
    // logged side engine (a whole d=64 fleet would write ~1.2 GB each time).
    let (handle, recover_cmds) = match &dirs {
        Some(d) => {
            let t = Instant::now();
            let (h, report) = EngineHandle::with_wal_and_spill(
                config(seed),
                &d.wal_options(),
                &d.spill_options(),
            )
            .map_err(err)?;
            notes.push(format!(
                "restart: {} logged commands replayed in {:.3} s",
                report.commands,
                t.elapsed().as_secs_f64()
            ));
            (h, report.commands)
        }
        None => {
            let d = Dirs::under(work, "side");
            let (h, _) = EngineHandle::with_wal(config(seed), &d.wal_options()).map_err(err)?;
            let mut g = ConnGen::new(w, seed, 0);
            for _ in 0..SIDE_FLEET {
                let cmd = g.command(Phase::Open);
                let reply = h.submit_blocking(cmd.clone()).map_or_else(Reply::Err, |t| t.wait());
                tally.count(kind(&cmd), &reply);
            }
            (h, 0)
        }
    };
    let mut ckpt = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        handle.checkpoint().map_err(err)?;
        ckpt.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let back = handle.close();
    if w.durable() && back != closed {
        faults.push(format!("restart recovered {back:?}, run closed with {closed:?}"));
    }
    m.push(metric("wal.checkpoint_ms", "ms", Summary::median(&ckpt), ckpt.len()));
    m.push(metric("wal.recover_cmds", "count", recover_cmds as f64, 1));
    Ok(Timed { metrics: m, tally })
}

/// `WalWriter::create` / `append` / `sync` on the recorded stream, on the
/// real filesystem (the default storage): the one place the benchmark
/// times the disk its durable engines do not use.
fn wal_bench(cmds: &[Command], work: &Path, m: &mut Vec<Metric>) -> Res<()> {
    let mut writer =
        WalWriter::create(&WalOptions::new(work.join("walbench-wal")), 0).map_err(err)?;
    let (mut append_ns, mut syncs) = (0u128, Vec::new());
    for (i, cmd) in cmds.iter().enumerate() {
        let t = Instant::now();
        writer.append(cmd).map_err(err)?;
        append_ns += t.elapsed().as_nanos();
        if (i + 1) % 256 == 0 {
            let t = Instant::now();
            writer.sync().map_err(err)?;
            syncs.push(t.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    let n = cmds.len().max(1);
    m.push(metric("wal.append_us_per_record", "us", append_ns as f64 / 1e3 / n as f64, n));
    m.push(metric("wal.bytes_per_record", "bytes", writer.appended_bytes() as f64 / n as f64, n));
    m.push(metric("wal.sync_us", "us", Summary::median(&syncs), syncs.len()));
    writer.finish().map_err(err)
}

/// `StreamSession::snapshot_into` / `restore` on a session shaped like the
/// workload's, fed the workload's own points.
fn snapshot_bench(w: Workload, seed: u64, cmds: &[Command], m: &mut Vec<Metric>) -> Res<()> {
    let params = PrivacyParams::approx(1.0, 1e-6).map_err(err)?;
    let mut session =
        StreamSession::spawn(0, &w.spec(), w.t_max(), &params, engine_seed(seed)).map_err(err)?;
    let pts = cmds.iter().flat_map(|c| match c {
        Command::Observe { point, .. } => std::slice::from_ref(point).iter(),
        Command::ObserveBatch { points, .. } => points.iter(),
        _ => [].iter(),
    });
    for p in pts.take(64) {
        session.observe(p).map_err(err)?;
    }
    let (mut buf, mut enc, mut dec) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..64 {
        buf.clear();
        let t = Instant::now();
        session.snapshot_into(&mut buf).map_err(err)?;
        enc.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        black_box(StreamSession::restore(&buf, engine_seed(seed)).map_err(err)?);
        dec.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    m.push(metric("snapshot.encode_us", "us", Summary::median(&enc), enc.len()));
    m.push(metric("snapshot.restore_us", "us", Summary::median(&dec), dec.len()));
    m.push(metric("snapshot.bytes", "bytes", buf.len() as f64, 1));
    Ok(())
}
