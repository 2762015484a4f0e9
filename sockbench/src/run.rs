//! The timed (untraced) run of one workload: every end-to-end metric,
//! the failure accounting and the correctness gate.

use crate::gate;
use crate::gen::{record, round_seed, ConnGen, Phase, Workload};
use crate::net::{encode, err, open_loop, pipelined, recv, Conn, Res};
use crate::rig::{both, bring_up, config, engine, front, Dirs, Log, Rig, SetUp};
use crate::stats::{kind, metric, Metric, Summary, Tally};
use pir::engine::{
    Command, EngineHandle, IngressStats, RecoveryReport, Reply, SpillStats, TcpStats, WalStats,
};
use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Independent rounds per run; each metric is the median over rounds.
/// Depth-1 latencies move with where the kernel places a round's threads
/// on the two cores, and that placement holds for most of a round, so
/// many short rounds beat a few long ones.
pub const ROUNDS: usize = 9;
/// observe_d8_open: open-loop rate and closed-loop window. At 20,000/s a
/// few seconds of host CPU steal pushed the server past its capacity, the
/// backlog grew, and `observe_p50_us` read 3-14x its calm value in those
/// runs; half that rate leaves the headroom to drain a stall.
pub const OPEN_RATE: f64 = 10_000.0;
pub const WINDOW: usize = 4096;
/// batch_d64_window: points per frame and frames in flight.
pub const BATCH: usize = 32;
pub const BATCH_WINDOW: usize = 8;
/// Depth-1 probe of the command type a workload's main phase lacks.
pub const PROBE: usize = 1024;
/// RELEASE + re-OPEN cycles per round.
pub const REOPENS: usize = 1024;
/// Restarts per round on the volatile workloads; `recover_s` is their
/// median.
pub const RESTARTS: usize = 16;
/// durable_churn: commands logged after the final checkpoint, replayed
/// by every restart.
pub const TAIL: usize = 2000;

/// What one run measured.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Failures besides error replies: non-zero failure counters, a gate
    /// mismatch, a recovery that disagrees with the run.
    pub faults: Vec<String>,
    pub notes: Vec<String>,
}

/// What a workload's main phase measured.
pub struct Main {
    pub points_per_s: f64,
    pub points: usize,
    /// Generator lateness in µs: behind schedule (open loop), or from a
    /// free slot to the next write (closed loops).
    pub lag_us: Vec<f64>,
    /// Frames unanswered when the schedule ended (open loop only).
    pub backlog_end: usize,
    /// Diagnostics for the round's notes.
    pub notes: Vec<String>,
}

pub fn failure_counters(
    tcp: &TcpStats,
    wal: &WalStats,
    spill: &SpillStats,
) -> [(&'static str, u64); 7] {
    [
        ("tcp.protocol_errors", tcp.protocol_errors),
        ("tcp.refused", tcp.refused),
        ("wal.retries", wal.retries),
        ("wal.degraded_shards", wal.degraded_shards),
        ("wal.auto_checkpoint_failures", wal.auto_checkpoint_failures),
        ("spill.spill_failures", spill.spill_failures),
        ("spill.remove_failures", spill.remove_failures),
    ]
}

fn check_counters(faults: &mut Vec<String>, tcp: &TcpStats, wal: &WalStats, spill: &SpillStats) {
    for (name, v) in failure_counters(tcp, wal, spill) {
        if v != 0 {
            faults.push(format!("{name} = {v}"));
        }
    }
}

/// Run workload `w`: `ROUNDS` rounds sharing `seconds` of timed load,
/// each in a fresh child process of this program, so every round starts
/// from the same cold allocator and thread state. Every end-to-end metric
/// is the median of its per-round values, so a stall that hits one round
/// does not move it.
pub fn run(w: Workload, seed: u64, seconds: f64) -> Res<Outcome> {
    let exe = std::env::current_exe().map_err(err)?;
    let mut per_round = Vec::new();
    let (mut tally, mut faults, mut notes) = (Tally::default(), Vec::new(), Vec::new());
    let n = ROUNDS;
    for r in 0..n {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &(seconds / n as f64).to_string(), "--round", &r.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(err)?;
        if !out.status.success() {
            return Err(format!("round {r} exited with {}", out.status));
        }
        let o = parse_round(&String::from_utf8_lossy(&out.stdout))?;
        tally.add(&o.tally);
        faults.extend(o.faults.into_iter().map(|f| format!("round {r}: {f}")));
        if r + 1 == n {
            notes = o.notes;
        }
        per_round.push(o.metrics);
    }
    let metrics = per_round[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let values: Vec<f64> = per_round.iter().map(|m| m[i].value).collect();
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            notes.push(format!("rounds {}: {}", first.name, shown.join(" ")));
            let n = per_round.iter().map(|m| m[i].n).sum();
            metric(&first.name, first.unit, Summary::median(&values), n)
        })
        .collect();
    Ok(Outcome { metrics, tally, faults, notes })
}

/// Run round `r` of workload `w` in this process and print it for the
/// parent, one tab-separated record per line.
pub fn child(w: Workload, seed: u64, r: usize, seconds: f64, work: &Path) -> Res<()> {
    let o = round(w, round_seed(seed, r), seconds, work)?;
    for m in &o.metrics {
        println!("metric\t{}\t{}\t{}\t{}", m.name, m.unit, m.value, m.n);
    }
    for k in 0..4 {
        println!("tally\t{k}\t{}\t{}\t{}", o.tally.sent[k], o.tally.ok[k], o.tally.failed[k]);
    }
    o.faults.iter().for_each(|f| println!("fault\t{f}"));
    o.notes.iter().for_each(|n| println!("note\t{n}"));
    Ok(())
}

fn parse_round(text: &str) -> Res<Outcome> {
    let mut o = Outcome {
        metrics: Vec::new(),
        tally: Tally::default(),
        faults: Vec::new(),
        notes: Vec::new(),
    };
    let bad = |line: &str| format!("unreadable round record: {line}");
    for line in text.lines() {
        let f: Vec<&str> = line.split('\t').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).ok_or_else(|| bad(line));
        match f[0] {
            "metric" if f.len() == 5 => {
                let unit = ["s", "points/s", "us"]
                    .into_iter()
                    .find(|u| *u == f[2])
                    .ok_or_else(|| bad(line))?;
                let value = f[3].parse::<f64>().map_err(|_| bad(line))?;
                o.metrics.push(metric(f[1], unit, value, num(4)? as usize));
            }
            "tally" if f.len() == 5 => {
                let k = num(1)? as usize;
                if k >= 4 {
                    return Err(bad(line));
                }
                (o.tally.sent[k], o.tally.ok[k], o.tally.failed[k]) = (num(2)?, num(3)?, num(4)?);
            }
            "fault" => o.faults.push(f[1..].join("\t")),
            "note" => o.notes.push(f[1..].join("\t")),
            _ => return Err(bad(line)),
        }
    }
    if o.metrics.len() != 11 {
        return Err(format!("a round reported {} metrics, not 11", o.metrics.len()));
    }
    Ok(o)
}

/// One round: set-up, the main phase, a depth-1 probe, steady-state
/// OPEN/RELEASE, a restart (after the log tail on durable_churn), and the
/// gate.
fn round(w: Workload, seed: u64, seconds: f64, work: &Path) -> Res<Outcome> {
    let dirs = w.durable().then(|| Dirs::under(work, w.name()));
    let mut faults = Vec::new();
    let mut notes = Vec::new();
    let SetUp { mut rig, mut log, seconds: setup_s } = bring_up(w, seed, dirs.as_ref())?;
    let main = main_phase(w, &mut rig, seconds, &mut log)?;
    let lag = Summary::of(&mut main.lag_us.clone());
    notes.push(format!(
        "generator lag p99 {:.1} us (n={}), backlog at schedule end {}",
        lag.p99, lag.n, main.backlog_end
    ));
    notes.extend(main.notes);

    // Depth-1 probe of the command type the main phase lacks (and, on
    // durable_churn, OBSERVE beside the mix's OBSERVE_BATCH).
    let probe = match w {
        Workload::ObserveOpen => Phase::Batch(8),
        Workload::BatchWindow | Workload::DurableChurn => Phase::HotObserve,
    };
    log.depth1(&mut rig.conns[0], &mut rig.gens[0], 0, probe, PROBE)?;
    // OPEN and RELEASE in steady state.
    log.depth1(&mut rig.conns[0], &mut rig.gens[0], 0, Phase::Reopen, 2 * REOPENS)?;
    let wal = rig.handle.wal_stats();
    let spill = rig.handle.spill_stats();
    let mut gens = std::mem::take(&mut rig.gens);
    let (tcp, closed) = rig.down();
    check_counters(&mut faults, &tcp, &wal, &spill);
    let recover_s = match &dirs {
        Some(dirs) => {
            notes.push(format!(
                "spill: {} spills, {} restores; wal: {} auto-checkpoints",
                spill.spills, spill.restores, wal.auto_checkpoints
            ));
            recover(seed, dirs, closed, &mut gens[0], &mut log, &mut faults, &mut notes)?
        }
        None => restart_volatile(w, seed, &mut faults)?,
    };

    let [open, observe, batch, release] = log.lat.map(|mut v| Summary::of(&mut v));
    let m = vec![
        metric("setup_s", "s", setup_s, 1),
        metric("points_per_s", "points/s", main.points_per_s, main.points),
        metric("observe_p50_us", "us", observe.p50, observe.n),
        metric("observe_p90_us", "us", observe.p90, observe.n),
        metric("batch_p50_us", "us", batch.p50, batch.n),
        metric("batch_p90_us", "us", batch.p90, batch.n),
        metric("open_p50_us", "us", open.p50, open.n),
        metric("open_p90_us", "us", open.p90, open.n),
        metric("release_p50_us", "us", release.p50, release.n),
        metric("release_p90_us", "us", release.p90, release.n),
        metric("recover_s", "s", recover_s, 1),
    ];
    // p99 and p99.9 do not repeat run to run on a shared 2-core box; they
    // are printed as diagnostics beside the p90 metrics.
    for (name, s) in [("observe", observe), ("batch", batch), ("open", open), ("release", release)]
    {
        notes.push(format!(
            "{name} p99 {:.1} us, p99.9 {:.1} us (diagnostic, n={})",
            s.p99, s.p999, s.n
        ));
    }
    match gate::check(w, seed, &log.script, &log.digests) {
        Ok(n) => notes.push(format!(
            "gate: {n} sessions bit-identical to a 1-shard ShardedEngine::apply replay{}",
            if gate::stride(w) > 1 { " (every 8th id)" } else { "" }
        )),
        Err(e) => faults.push(format!("gate: {e}")),
    }
    Ok(Outcome { metrics: m, tally: log.tally, faults, notes })
}

/// Nothing survives a volatile restart: the median time for a fresh
/// engine and front to serve their first reply (a CLOSE, which allocates
/// no session), over `RESTARTS` restarts.
fn restart_volatile(w: Workload, seed: u64, faults: &mut Vec<String>) -> Res<f64> {
    let mut secs = Vec::new();
    for _ in 0..RESTARTS {
        let t = Instant::now();
        let handle = engine(w, seed, None)?;
        let front = front(&handle)?;
        let mut conn = Conn::connect(front.local_addr())?;
        let (reply, _) = conn.call(&Command::Close)?;
        secs.push(t.elapsed().as_secs_f64());
        if reply != Reply::Closed {
            faults.push(format!("restart: CLOSE answered {reply:?}"));
        }
        let (tcp, _) = Rig { handle, front, conns: vec![conn], gens: Vec::new() }.down();
        check_counters(faults, &tcp, &WalStats::default(), &SpillStats::default());
    }
    Ok(Summary::median(&secs))
}

/// The main phase of `w`: `seconds` of timed load on the rig.
pub fn main_phase(w: Workload, rig: &mut Rig, seconds: f64, log: &mut Log) -> Res<Main> {
    match w {
        Workload::ObserveOpen => observe_open(rig, seconds, log),
        Workload::BatchWindow => batch_window(rig, seconds, log),
        Workload::DurableChurn => churn(rig, seconds, log),
    }
}

/// Phase A: open loop at `OPEN_RATE` for half the time (OBSERVE latency
/// from due time). Phase B: pipelined saturation (points per second).
fn observe_open(rig: &mut Rig, seconds: f64, log: &mut Log) -> Res<Main> {
    let half = seconds / 2.0;
    let n_a = (OPEN_RATE * half) as usize;
    let (conn, gen) = (&mut rig.conns[0], &mut rig.gens[0]);
    let paced = open_loop(
        &mut conn.w,
        &mut conn.r,
        n_a,
        OPEN_RATE,
        |_, buf| encode(buf, &gen.command(Phase::Observe)),
        |_, reply| {
            log.reply(1, &reply);
        },
    )?;
    log.lat[1].extend(paced.lat_ns.iter().map(|&ns| ns as f64 / 1e3));
    record(&mut log.script, 0, Phase::Observe, n_a);
    let until = Instant::now() + Duration::from_secs_f64(half);
    let (n_b, elapsed) = pipelined(
        &mut conn.w,
        &mut conn.r,
        WINDOW,
        until,
        |buf| encode(buf, &gen.command(Phase::Observe)),
        |reply| {
            log.reply(1, &reply);
        },
    )?;
    record(&mut log.script, 0, Phase::Observe, n_b);
    Ok(Main {
        points_per_s: n_b as f64 / elapsed,
        points: n_b,
        lag_us: paced.lag_ns.iter().map(|&ns| ns as f64 / 1e3).collect(),
        backlog_end: paced.backlog_end,
        notes: Vec::new(),
    })
}

/// Closed loop with `BATCH_WINDOW` OBSERVE_BATCH frames of `BATCH`
/// points in flight on one connection, from one thread.
fn batch_window(rig: &mut Rig, seconds: f64, log: &mut Log) -> Res<Main> {
    let (conn, gen) = (&mut rig.conns[0], &mut rig.gens[0]);
    let mut inflight = VecDeque::with_capacity(BATCH_WINDOW);
    let mut buf = Vec::new();
    let (mut sent, mut released, mut lag_us) = (0usize, 0usize, Vec::new());
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let mut freed = t0;
    loop {
        while inflight.len() < BATCH_WINDOW && Instant::now() < until {
            buf.clear();
            encode(&mut buf, &gen.command(Phase::Batch(BATCH)));
            let now = Instant::now();
            lag_us.push(now.duration_since(freed).as_nanos() as f64 / 1e3);
            inflight.push_back(now);
            conn.w.write_all(&buf).map_err(err)?;
            sent += 1;
        }
        let Some(start) = inflight.pop_front() else { break };
        let reply = recv(&mut conn.r)?;
        freed = Instant::now();
        log.lat[2].push(freed.duration_since(start).as_nanos() as f64 / 1e3);
        released += log.reply(2, &reply);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    record(&mut log.script, 0, Phase::Batch(BATCH), sent);
    Ok(Main {
        points_per_s: released as f64 / elapsed,
        points: released,
        lag_us,
        backlog_end: 0,
        notes: Vec::new(),
    })
}

/// Both connections at depth 1 through the churn mix until the deadline.
fn churn(rig: &mut Rig, seconds: f64, log: &mut Log) -> Res<Main> {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let start = &*log;
    let parts = both(&mut rig.conns, &mut rig.gens, |_, conn, gen| {
        let mut mine = start.fork();
        let (mut n, mut released, mut lag) = (0usize, 0usize, Vec::new());
        let mut freed = Instant::now();
        while freed < until {
            let cmd = gen.command(Phase::Churn);
            lag.push(freed.elapsed().as_nanos() as f64 / 1e3);
            let (reply, ns) = conn.call(&cmd)?;
            freed = Instant::now();
            mine.lat[kind(&cmd)].push(ns as f64 / 1e3);
            released += mine.reply(kind(&cmd), &reply);
            n += 1;
        }
        Ok((mine, n, released, lag))
    })?;
    let elapsed = t0.elapsed().as_secs_f64();
    let (mut total, mut lag_us) = (0, Vec::new());
    for (c, (mine, n, released, lag)) in parts.into_iter().enumerate() {
        lag_us.extend(lag);
        log.join(mine);
        record(&mut log.script, c, Phase::Churn, n);
        total += released;
    }
    // The mix's OPEN and RELEASE wait behind the other connection's command
    // on a shared shard about half the time, so their medians sit on the
    // knee between two modes (RELEASE's moved from 104 to 157 us between
    // rounds of one run). `open_*` and `release_*` come from the depth-1
    // steady-state probe instead, as on the other workloads.
    let notes = [(0, "OPEN"), (3, "RELEASE")]
        .map(|(k, name)| {
            let s = Summary::of(&mut std::mem::take(&mut log.lat[k]));
            format!("mix {name} p50 {:.1} us, p90 {:.1} us (diagnostic, n={})", s.p50, s.p90, s.n)
        })
        .to_vec();
    Ok(Main { points_per_s: total as f64 / elapsed, points: total, lag_us, backlog_end: 0, notes })
}

fn restart(seed: u64, dirs: &Dirs) -> Res<(EngineHandle, RecoveryReport)> {
    EngineHandle::with_wal_and_spill(config(seed), &dirs.wal_options(), &dirs.spill_options())
        .map_err(err)
}

/// Restart the durable engine from its directories. The first restart
/// must come back holding exactly the sessions and points the run closed
/// with. The second compacts the log and then logs `TAIL` churn commands
/// through ingress: a restarted engine's checkpoint gauges start at zero,
/// so no auto-checkpoint cuts that tail. The timed third restart then
/// replays that checkpoint plus exactly `TAIL` commands.
fn recover(
    seed: u64,
    dirs: &Dirs,
    closed: IngressStats,
    gen: &mut ConnGen,
    log: &mut Log,
    faults: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Res<f64> {
    let agree = |faults: &mut Vec<String>, what: &str, back: IngressStats, want: IngressStats| {
        if back != want {
            faults.push(format!(
                "{what}: {} sessions / {} points recovered, expected {} / {}",
                back.sessions, back.points, want.sessions, want.points
            ));
        }
    };
    let (handle, _) = restart(seed, dirs)?;
    agree(faults, "first restart", handle.close(), closed);

    let (handle, _) = restart(seed, dirs)?;
    handle.checkpoint().map_err(err)?;
    for _ in 0..TAIL {
        let cmd = gen.command(Phase::Churn);
        let reply = handle.submit_blocking(cmd.clone()).map_or_else(Reply::Err, |t| t.wait());
        log.reply(kind(&cmd), &reply);
    }
    record(&mut log.script, 0, Phase::Churn, TAIL);
    let (wal, spill) = (handle.wal_stats(), handle.spill_stats());
    check_counters(faults, &TcpStats::default(), &wal, &spill);
    let tailed = handle.close();

    let t = Instant::now();
    let (handle, report) = restart(seed, dirs)?;
    let secs = t.elapsed().as_secs_f64();
    notes.push(format!(
        "recovery: {} snapshot sessions + {} logged commands replayed ({} failed)",
        report.snapshot_sessions, report.commands, report.failed
    ));
    agree(faults, "timed restart", handle.close(), tailed);
    Ok(secs)
}
