//! Crash-consistency proofs on the simulated power-loss disk — the
//! harness behind the storage fault rig's headline claim: **crash the
//! disk at every storage-op boundary, recover, and the replayed engine
//! is bit-identical to a reference engine replaying the durable
//! prefix**.
//!
//! Where `tests/recovery.rs` kills the *process* (buffered bytes reach
//! the kernel and survive), this suite kills the *machine*: a
//! [`SimDisk`] tracks buffered vs durable state per page, and
//! `crash()` drops, tears, or reorders everything that was never
//! fsynced. Each test scripts a workload, freezes the device at op
//! index `k` (`fail_from` — every storage call from `k` on fails, the
//! power-cut boundary), crashes, recovers through
//! [`recover_with_storage`], and pins the result to a fault-free
//! reference:
//!
//! - under `DropUnsynced` + `FsyncPolicy::PerRecord` the durable prefix
//!   is *exactly* the acknowledged appends — recovery must replay that
//!   many commands, no more, no fewer, with bit-identical replies;
//! - under `TornTail` / `ScramblePages` the unsynced suffix survives
//!   partially (torn cut, garbage page, reordered page loss) — recovery
//!   must either land on a correct prefix at or past the last explicit
//!   sync, or fail with a typed [`WalError`]; never panic, never
//!   silently serve wrong bits;
//! - the full engine path (WAL + spill tier + mid-stream checkpoint)
//!   must never lose an *acknowledged* command, across every crash
//!   window of the manifest tmp→fsync→rename dance and segment purge.

use pir_engine::wal::{RECORD_OVERHEAD, SEGMENT_HEADER_LEN};
use private_incremental_regression::prelude::*;
use std::io;
use std::path::Path;
use std::time::Duration;

/// The log directory on the simulated disk. Purely virtual: `SimDisk`
/// never touches the host filesystem.
const WAL_DIR: &str = "/wal";

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

fn point(d: usize, t: usize, session: u64) -> DataPoint {
    let mut x = vec![0.0f64; d];
    x[t % d] = 0.7;
    x[(t + session as usize) % d] += 0.2;
    DataPoint::new(x, 0.25)
}

fn fresh_engine(num_shards: usize, seed: u64) -> ShardedEngine {
    ShardedEngine::new(EngineConfig { num_shards, seed, parallel: false }).unwrap()
}

/// A small mixed stream over two reg1 sessions: opens, observes, a
/// batch — every record shape the writer produces.
fn wal_stream(d: usize) -> Vec<Command> {
    let spec = MechanismSpec::reg1_l2(d);
    let mut cmds = Vec::new();
    for sid in [1u64, 2] {
        cmds.push(Command::Open {
            session_id: sid,
            spec: spec.clone(),
            t_max: 32,
            params: params(),
        });
    }
    for t in 0..3usize {
        for sid in [1u64, 2] {
            cmds.push(Command::Observe { session_id: sid, point: point(d, t, sid) });
        }
    }
    cmds.push(Command::ObserveBatch {
        session_id: 1,
        points: (3..5).map(|t| point(d, t, 1)).collect(),
    });
    cmds
}

/// `WalOptions` on a `SimDisk`, per-record durability (so "append
/// returned Ok" and "record survives power loss" coincide exactly).
fn sim_options(disk: &SimDisk, segment_bytes: u64) -> WalOptions {
    WalOptions {
        fsync: FsyncPolicy::PerRecord,
        segment_bytes,
        storage: disk.handle(),
        ..WalOptions::new(WAL_DIR)
    }
}

/// Append `cmds` to `shard`'s log until the disk says no; the count of
/// acknowledged appends. The writer is dropped without `finish()` —
/// the crash preempts any clean shutdown.
fn append_until_failure(options: &WalOptions, shard: u32, cmds: &[Command]) -> usize {
    let Ok(mut w) = WalWriter::create(options, shard) else {
        return 0;
    };
    let mut n_ok = 0;
    for cmd in cmds {
        if w.append(cmd).is_err() {
            break;
        }
        n_ok += 1;
    }
    n_ok
}

/// Recover the crashed disk into `engine`, collecting replayed replies.
fn recover_collect(
    disk: &SimDisk,
    engine: &mut ShardedEngine,
) -> Result<(RecoveryReport, Vec<Reply>), WalError> {
    let mut replayed = Vec::new();
    let report = recover_with_storage(&disk.handle(), Path::new(WAL_DIR), engine, |_, r| {
        replayed.push(r.clone())
    })?;
    Ok((report, replayed))
}

/// The per-session state image: `PIRS` snapshot bytes for each id (or
/// `None` where the session does not exist). Two engines with equal
/// images are bit-identical for every future command on those sessions.
fn session_image(engine: &ShardedEngine, sids: &[u64]) -> Vec<Option<Vec<u8>>> {
    sids.iter().map(|&sid| engine.with_session(sid, |s| s.snapshot().unwrap())).collect()
}

// ---------------------------------------------------------------------------
// The headline enumeration: power loss at every storage op
// ---------------------------------------------------------------------------

/// Crash at every op boundary, across a single-segment log and a
/// rotating chain: recovery replays exactly the acknowledged prefix,
/// bit-identically, and the recovered engine continues in lockstep with
/// a reference engine fed the same prefix.
#[test]
fn crash_at_every_op_recovers_exactly_the_durable_prefix() {
    let seed = 1217;
    let d = 2;
    let cmds = wal_stream(d);
    let mut reference_full = fresh_engine(1, seed);
    let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference_full.apply(c)).collect();

    // Size the rotating config to two records per segment, forcing the
    // chain through several files (crash points inside segment creation
    // and dir syncs, not just appends).
    let two_records: u64 = cmds
        .iter()
        .take(2)
        .map(|c| (RECORD_OVERHEAD + pir_engine::wire::encode_command(c).unwrap().len()) as u64)
        .sum();
    let configs =
        [("single-segment", 64 << 20), ("rotating", SEGMENT_HEADER_LEN as u64 + two_records)];

    for (name, segment_bytes) in configs {
        // Fault-free probe: how many storage ops does the workload take?
        let probe = SimDisk::new(11, CrashProfile::DropUnsynced);
        let n_all = append_until_failure(&sim_options(&probe, segment_bytes), 0, &cmds);
        assert_eq!(n_all, cmds.len(), "{name}: probe run must append everything");
        let total = probe.op_count();
        assert!(total > 0);

        for k in 0..=total {
            let disk = SimDisk::new(11, CrashProfile::DropUnsynced);
            disk.fail_from(k, io::ErrorKind::Other);
            let n_ok = append_until_failure(&sim_options(&disk, segment_bytes), 0, &cmds);
            disk.crash();

            // Recover into a *different* shard count: durability must
            // not depend on the sharding that produced the log.
            let mut engine = fresh_engine(2, seed);
            let (report, replayed) = recover_collect(&disk, &mut engine)
                .unwrap_or_else(|e| panic!("{name}, crash at op {k}: recovery failed: {e}"));
            assert_eq!(
                report.commands as usize, n_ok,
                "{name}, crash at op {k}: durable prefix must equal acknowledged appends"
            );
            assert_eq!(
                replayed,
                ref_replies[..n_ok],
                "{name}, crash at op {k}: replayed replies diverged"
            );

            // Bit-identical state, and bit-identical future: the
            // recovered engine tracks a reference prefix engine.
            let mut reference = fresh_engine(2, seed);
            for cmd in &cmds[..n_ok] {
                reference.apply(cmd);
            }
            assert_eq!(
                session_image(&engine, &[1, 2]),
                session_image(&reference, &[1, 2]),
                "{name}, crash at op {k}: session state diverged"
            );
            let next = Command::Observe { session_id: 1, point: point(d, 9, 1) };
            assert_eq!(
                engine.apply(&next),
                reference.apply(&next),
                "{name}, crash at op {k}: post-recovery releases diverged"
            );
        }
    }
}

/// Two shards interleaving appends on one disk: a crash at any op
/// leaves each shard's chain at its own acknowledged prefix, and
/// recovery replays both prefixes (lower epoch first) with nothing
/// crossed between chains.
#[test]
fn multi_shard_interleaved_crash_replays_per_shard_prefixes() {
    let seed = 5417;
    let d = 2;
    let spec = MechanismSpec::reg1_l2(d);
    let stream = |sid: u64| -> Vec<Command> {
        let mut cmds = vec![Command::Open {
            session_id: sid,
            spec: spec.clone(),
            t_max: 32,
            params: params(),
        }];
        for t in 0..4usize {
            cmds.push(Command::Observe { session_id: sid, point: point(d, t, sid) });
        }
        cmds
    };
    let (s0, s1) = (stream(10), stream(11));

    // Interleave strictly: s0[i] to shard 0, then s1[i] to shard 1.
    // After the first failure both writers are dead (the whole device
    // failed), so acknowledged appends form a per-shard prefix.
    let run = |disk: &SimDisk| -> (usize, usize) {
        let options = sim_options(disk, 64 << 20);
        let Ok(mut w0) = WalWriter::create(&options, 0) else {
            return (0, 0);
        };
        let Ok(mut w1) = WalWriter::create(&options, 1) else {
            return (0, 0);
        };
        let (mut n0, mut n1) = (0, 0);
        for i in 0..s0.len() {
            if w0.append(&s0[i]).is_err() {
                break;
            }
            n0 += 1;
            if w1.append(&s1[i]).is_err() {
                break;
            }
            n1 += 1;
        }
        (n0, n1)
    };

    let probe = SimDisk::new(23, CrashProfile::DropUnsynced);
    assert_eq!(run(&probe), (s0.len(), s1.len()));
    let total = probe.op_count();

    // Replay order is (epoch, shard): writer 1 was created after writer
    // 0 saw the disk, so its epoch is strictly larger — shard 0's whole
    // prefix replays before shard 1's.
    let mut reference = fresh_engine(1, seed);
    let ref0: Vec<Reply> = s0.iter().map(|c| reference.apply(c)).collect();
    let ref1: Vec<Reply> = s1.iter().map(|c| reference.apply(c)).collect();

    for k in 0..=total {
        let disk = SimDisk::new(23, CrashProfile::DropUnsynced);
        disk.fail_from(k, io::ErrorKind::Other);
        let (n0, n1) = run(&disk);
        disk.crash();

        let mut engine = fresh_engine(2, seed);
        let (report, replayed) = recover_collect(&disk, &mut engine)
            .unwrap_or_else(|e| panic!("crash at op {k}: recovery failed: {e}"));
        assert_eq!(report.commands as usize, n0 + n1, "crash at op {k}");
        let mut expected: Vec<Reply> = ref0[..n0].to_vec();
        expected.extend_from_slice(&ref1[..n1]);
        assert_eq!(replayed, expected, "crash at op {k}: cross-shard replay order broke");
    }
}

// ---------------------------------------------------------------------------
// The full engine path: WAL + spill tier + mid-stream checkpoint
// ---------------------------------------------------------------------------

/// Crash the device at every op under the production stack — pipelined
/// engine, spill tier at `resident_cap: 1`, an explicit checkpoint in
/// the middle of the stream (every crash window of the manifest
/// tmp→fsync→rename→purge sequence is hit). The contract: **no
/// acknowledged command is ever lost**, and the recovered state is the
/// reference replay of a durable prefix at least that long.
#[test]
fn engine_with_spill_and_checkpoint_never_loses_an_acknowledged_command() {
    let seed = 907;
    let d = 2;
    let spec = MechanismSpec::reg1_l2(d);
    let mut cmds = Vec::new();
    for sid in [1u64, 2, 3] {
        cmds.push(Command::Open {
            session_id: sid,
            spec: spec.clone(),
            t_max: 32,
            params: params(),
        });
    }
    for t in 0..2usize {
        for sid in [1u64, 2, 3] {
            cmds.push(Command::Observe { session_id: sid, point: point(d, t, sid) });
        }
    }
    let checkpoint_after = cmds.len();
    for sid in [1u64, 2, 3] {
        cmds.push(Command::Observe { session_id: sid, point: point(d, 2, sid) });
    }

    // One run against `disk`: sequential submits (each reply awaited, so
    // the storage-op order is deterministic), a checkpoint after
    // `checkpoint_after` commands, then the tail. Returns the replies;
    // a `None` engine (construction failed at a tiny `k`) returns none.
    let run = |disk: &SimDisk| -> Vec<Reply> {
        let config = IngressConfig { num_shards: 1, seed, queue_depth: 64 };
        let wal_opts = sim_options(disk, 64 << 20);
        let spill_opts =
            SpillOptions { resident_cap: 1, storage: disk.handle(), ..SpillOptions::new("/spill") };
        let Ok((handle, _)) = EngineHandle::with_wal_and_spill(config, &wal_opts, &spill_opts)
        else {
            return Vec::new();
        };
        let submit = handle.submit_handle();
        let mut replies = Vec::new();
        for (i, cmd) in cmds.iter().enumerate() {
            match submit.submit(cmd.clone()) {
                Ok(ticket) => replies.push(ticket.wait()),
                Err(e) => replies.push(Reply::Err(e)),
            }
            if i + 1 == checkpoint_after {
                // May fail at any interior op; failure must never
                // corrupt the log (that is what this test proves).
                let _ = handle.checkpoint();
            }
        }
        handle.close();
        replies
    };

    let probe = SimDisk::new(31, CrashProfile::DropUnsynced);
    let probe_replies = run(&probe);
    assert!(
        probe_replies.iter().all(|r| !matches!(r, Reply::Err(_))),
        "probe run must be error-free: {probe_replies:?}"
    );
    let total = probe.op_count();

    let mut reference_full = fresh_engine(1, seed);
    let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference_full.apply(c)).collect();

    for k in 0..=total {
        let disk = SimDisk::new(31, CrashProfile::DropUnsynced);
        disk.fail_from(k, io::ErrorKind::Other);
        let replies = run(&disk);
        disk.crash();

        // Acknowledged commands form a prefix: once the device fails,
        // every later log attempt fails too.
        let n_ok = replies.iter().take_while(|r| !matches!(r, Reply::Err(_))).count();
        for (i, r) in replies.iter().enumerate().skip(n_ok) {
            assert!(
                matches!(r, Reply::Err(_)),
                "crash at op {k}: reply {i} succeeded after a device failure: {r:?}"
            );
        }
        assert_eq!(replies[..n_ok], ref_replies[..n_ok], "crash at op {k}: live replies diverged");

        let mut engine = fresh_engine(1, seed);
        let (_report, _) = recover_collect(&disk, &mut engine)
            .unwrap_or_else(|e| panic!("crash at op {k}: recovery failed: {e}"));

        // The recovered state is a reference replay of some durable
        // prefix `m`: at least every acknowledged command (`m ≥ n_ok` —
        // no lost acks), at most one more (the command whose append
        // landed but whose execution hit the dead device).
        let image = session_image(&engine, &[1, 2, 3]);
        let mut reference = fresh_engine(1, seed);
        for cmd in &cmds[..n_ok] {
            reference.apply(cmd);
        }
        let mut matched = image == session_image(&reference, &[1, 2, 3]);
        if !matched && n_ok < cmds.len() {
            reference.apply(&cmds[n_ok]);
            matched = image == session_image(&reference, &[1, 2, 3]);
        }
        assert!(
            matched,
            "crash at op {k}: recovered state is not the reference replay of \
             {n_ok} or {} commands",
            n_ok + 1
        );
    }
}

// ---------------------------------------------------------------------------
// Torn and reordered unsynced writes (seeded profiles)
// ---------------------------------------------------------------------------

/// Build a 12-command log with an explicit `sync()` after the first
/// `floor` commands and an unsynced suffix, then crash under `profile`.
/// Returns the reference replies and the crashed disk.
fn unsynced_tail_log(seed: u64, profile: CrashProfile, floor: usize) -> (Vec<Command>, SimDisk) {
    let spec = MechanismSpec::Trivial { set: SetSpec::unit_l2(2) };
    let mut cmds = vec![Command::Open { session_id: 1, spec, t_max: 64, params: params() }];
    for t in 0..11usize {
        cmds.push(Command::Observe { session_id: 1, point: point(2, t, 1) });
    }
    let disk = SimDisk::new(seed, profile);
    // A huge interval: no automatic syncs, but segment creation still
    // syncs the directory entry — only record bytes are at risk.
    let options = WalOptions {
        fsync: FsyncPolicy::Interval { every: 100_000 },
        storage: disk.handle(),
        ..WalOptions::new(WAL_DIR)
    };
    let mut w = WalWriter::create(&options, 0).unwrap();
    for (i, cmd) in cmds.iter().enumerate() {
        w.append(cmd).unwrap();
        if i + 1 == floor {
            w.sync().unwrap();
        }
    }
    drop(w); // no finish(): the suffix stays unsynced
    disk.crash();
    (cmds, disk)
}

/// Shared oracle for the torn/scrambled sweeps: recovery either lands
/// on a correct prefix at or past the synced floor, or fails with a
/// typed error — never panics, never serves wrong bits.
fn assert_prefix_or_loud_failure(profile: CrashProfile, seeds: std::ops::Range<u64>) {
    let floor = 6;
    let mut recovered_fine = 0usize;
    let mut failed_loud = 0usize;
    for seed in seeds {
        let (cmds, disk) = unsynced_tail_log(seed, profile, floor);
        let mut reference = fresh_engine(1, 1);
        let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference.apply(c)).collect();

        let mut engine = fresh_engine(1, 1);
        match recover_collect(&disk, &mut engine) {
            Ok((report, replayed)) => {
                let n = report.commands as usize;
                assert!(
                    (floor..=cmds.len()).contains(&n),
                    "{profile:?} seed {seed}: recovered {n} commands, \
                     below the synced floor {floor}"
                );
                assert_eq!(
                    replayed,
                    ref_replies[..n],
                    "{profile:?} seed {seed}: surviving prefix replayed wrong bits"
                );
                recovered_fine += 1;
            }
            Err(e) => {
                // Garbage inside a surviving page is a loud, typed
                // refusal — the one honest answer when the tail cannot
                // be proven whole.
                assert!(!e.to_string().is_empty());
                failed_loud += 1;
            }
        }
    }
    // The sweep must actually exercise the success path; the seeds are
    // fixed, so this is deterministic, not flaky.
    assert!(
        recovered_fine > 0,
        "{profile:?}: no seed recovered cleanly ({failed_loud} loud failures)"
    );
}

/// Torn tails: a seeded cut through the unsynced suffix, with the torn
/// page possibly garbage-filled.
#[test]
fn torn_tail_crashes_recover_a_synced_prefix_or_fail_loudly() {
    assert_prefix_or_loud_failure(CrashProfile::TornTail, 0..24);
}

/// Reordered writes: a seeded subset of unsynced pages survives, the
/// rest read as zeros.
#[test]
fn scrambled_page_crashes_recover_a_synced_prefix_or_fail_loudly() {
    assert_prefix_or_loud_failure(CrashProfile::ScramblePages, 0..24);
}

/// `KeepAll` sanity: a process kill (kernel survives, device fine)
/// keeps every buffered byte — recovery replays the full history even
/// though nothing was ever fsynced.
#[test]
fn kill_crash_without_power_loss_keeps_all_buffered_records() {
    let spec = MechanismSpec::Trivial { set: SetSpec::unit_l2(2) };
    let mut cmds = vec![Command::Open { session_id: 1, spec, t_max: 64, params: params() }];
    for t in 0..7usize {
        cmds.push(Command::Observe { session_id: 1, point: point(2, t, 1) });
    }
    let disk = SimDisk::new(3, CrashProfile::KeepAll);
    let options =
        WalOptions { fsync: FsyncPolicy::Off, storage: disk.handle(), ..WalOptions::new(WAL_DIR) };
    let mut w = WalWriter::create(&options, 0).unwrap();
    for cmd in &cmds {
        w.append(cmd).unwrap();
    }
    drop(w);
    disk.crash();

    let mut engine = fresh_engine(1, 1);
    let (report, _) = recover_collect(&disk, &mut engine).unwrap();
    assert_eq!(report.commands as usize, cmds.len());
    assert_eq!(report.torn_tails, 0);
}

// ---------------------------------------------------------------------------
// WAL failure policies
// ---------------------------------------------------------------------------

/// `Retry` rides out a transient fault burst with zero loss: every
/// append is acknowledged, the retry counter shows the fight, and
/// recovery replays the complete stream.
#[test]
fn retry_policy_rides_through_transient_faults_with_zero_loss() {
    let cmds = wal_stream(2);
    // Probe where segment creation ends, so the fault burst lands
    // squarely inside the append stream.
    let probe = SimDisk::new(41, CrashProfile::DropUnsynced);
    drop(WalWriter::create(&sim_options(&probe, 64 << 20), 0).unwrap());
    let creation_ops = probe.op_count();

    let disk = SimDisk::new(41, CrashProfile::DropUnsynced);
    disk.fail_window(creation_ops + 3, 4, io::ErrorKind::Interrupted);
    let options = WalOptions {
        failure_policy: WalFailurePolicy::Retry { attempts: 8, backoff: Duration::from_millis(1) },
        ..sim_options(&disk, 64 << 20)
    };
    let mut w = WalWriter::create(&options, 0).unwrap();
    let mut retries = 0u64;
    for cmd in &cmds {
        w.append(cmd).unwrap_or_else(|e| panic!("retry policy must absorb the burst: {e}"));
        retries += w.take_retries();
    }
    assert!(retries > 0, "the fault window must actually have been hit");
    w.finish().unwrap();
    disk.crash();

    let mut engine = fresh_engine(1, 77);
    let (report, replayed) = recover_collect(&disk, &mut engine).unwrap();
    assert_eq!(report.commands as usize, cmds.len(), "zero loss under transient faults");
    let mut reference = fresh_engine(1, 77);
    let ref_replies: Vec<Reply> = cmds.iter().map(|c| reference.apply(c)).collect();
    assert_eq!(replayed, ref_replies);
}

/// `DegradeToUnlogged` on a dead device: the triggering command is
/// answered with an in-band WAL error, the shard keeps serving
/// unlogged (loud counters), checkpoints refuse to lie, and recovery
/// after the crash yields exactly the pre-degradation prefix.
#[test]
fn degrade_to_unlogged_keeps_serving_and_counts_the_damage() {
    let seed = 640;
    let d = 2;
    let disk = SimDisk::new(53, CrashProfile::DropUnsynced);
    let options = WalOptions {
        failure_policy: WalFailurePolicy::DegradeToUnlogged {
            attempts: 1,
            backoff: Duration::from_millis(1),
        },
        ..sim_options(&disk, 64 << 20)
    };
    let config = IngressConfig { num_shards: 1, seed, queue_depth: 64 };
    let (handle, _) = EngineHandle::with_wal(config, &options).unwrap();
    let submit = handle.submit_handle();

    let spec = MechanismSpec::reg1_l2(d);
    let mut logged = Vec::new();
    logged.push(Command::Open { session_id: 1, spec, t_max: 32, params: params() });
    for t in 0..3usize {
        logged.push(Command::Observe { session_id: 1, point: point(d, t, 1) });
    }
    for cmd in &logged {
        let reply = submit.submit(cmd.clone()).unwrap().wait();
        assert!(!matches!(reply, Reply::Err(_)), "healthy device: {reply:?}");
    }

    // The device dies now. The next command exhausts the retry envelope
    // and degrades the shard — answered in-band, not executed.
    disk.fail_from(disk.op_count(), io::ErrorKind::Other);
    let trigger = Command::Observe { session_id: 1, point: point(d, 3, 1) };
    let reply = submit.submit(trigger).unwrap().wait();
    match reply {
        Reply::Err(EngineError::Wal { reason }) => {
            assert!(reason.contains("degraded"), "degradation must be named: {reason}")
        }
        other => panic!("expected an in-band WAL warning, got {other:?}"),
    }

    // The shard serves on, unlogged and loudly counted.
    let unlogged = 3usize;
    for t in 4..4 + unlogged {
        let reply = submit
            .submit(Command::Observe { session_id: 1, point: point(d, t, 1) })
            .unwrap()
            .wait();
        assert!(
            matches!(reply, Reply::Releases { .. }),
            "degraded shard must keep serving: {reply:?}"
        );
    }
    // No retries here: on a dead device the rollback truncate fails
    // too, which poisons immediately rather than retrying on top of a
    // possibly-torn record (the transient-burst test covers retries).
    let stats = submit.wal_stats();
    assert_eq!(stats.degraded_shards, 1);
    assert_eq!(stats.unlogged_commands, unlogged as u64);

    // A checkpoint now would cover commands that were never logged —
    // it must refuse rather than write a lying manifest.
    assert!(matches!(handle.checkpoint(), Err(EngineError::Wal { .. })));

    handle.close();
    disk.crash();
    let mut engine = fresh_engine(1, seed);
    let (report, replayed) = recover_collect(&disk, &mut engine).unwrap();
    assert_eq!(
        report.commands as usize,
        logged.len(),
        "recovery yields exactly the pre-degradation prefix"
    );
    let mut reference = fresh_engine(1, seed);
    let ref_replies: Vec<Reply> = logged.iter().map(|c| reference.apply(c)).collect();
    assert_eq!(replayed, ref_replies);
}

/// `Poison` (the default) on a dead device: the failure and every
/// subsequent command are refused in-band; nothing is silently served
/// without durability, and the engine shuts down cleanly.
#[test]
fn poison_policy_fails_loudly_in_band_and_stays_poisoned() {
    let seed = 641;
    let d = 2;
    let disk = SimDisk::new(59, CrashProfile::DropUnsynced);
    let options = sim_options(&disk, 64 << 20);
    let config = IngressConfig { num_shards: 1, seed, queue_depth: 64 };
    let (handle, _) = EngineHandle::with_wal(config, &options).unwrap();
    let submit = handle.submit_handle();

    let spec = MechanismSpec::reg1_l2(d);
    let open = Command::Open { session_id: 1, spec, t_max: 32, params: params() };
    assert!(!matches!(submit.submit(open).unwrap().wait(), Reply::Err(_)));

    disk.fail_from(disk.op_count(), io::ErrorKind::Other);
    for t in 0..4usize {
        let reply = submit
            .submit(Command::Observe { session_id: 1, point: point(d, t, 1) })
            .unwrap()
            .wait();
        assert!(
            matches!(reply, Reply::Err(EngineError::Wal { .. })),
            "poisoned shard must refuse in-band, got {reply:?}"
        );
    }
    let stats = submit.wal_stats();
    assert_eq!(stats.degraded_shards, 0);
    assert_eq!(stats.unlogged_commands, 0);
    handle.close();
}

/// A logged ingest job whose append fails executes nowhere: every
/// index of the job carries the in-band WAL error, and no session's
/// stream position advances.
#[test]
fn failed_ingest_append_fails_every_index_and_advances_nothing() {
    let seed = 642;
    let d = 2;
    let disk = SimDisk::new(61, CrashProfile::DropUnsynced);
    let options = sim_options(&disk, 64 << 20);
    let config = IngressConfig { num_shards: 2, seed, queue_depth: 64 };
    let (handle, _) = EngineHandle::with_wal(config, &options).unwrap();
    let spec = MechanismSpec::reg1_l2(d);
    for sid in 1..=4u64 {
        let reply = handle.open(sid, &spec, 32, &params()).unwrap().wait();
        assert_eq!(reply, Reply::Opened { session_id: sid });
    }
    // Two points per session, interleaved across all four sessions.
    let batch = |t0: usize| -> Vec<(u64, DataPoint)> {
        (0..8usize)
            .map(|i| {
                let sid = 1 + i as u64 % 4;
                (sid, point(d, t0 + i / 4, sid))
            })
            .collect()
    };
    assert!(handle.ingest(batch(0)).iter().all(Result::is_ok), "healthy device");

    disk.fail_from(disk.op_count(), io::ErrorKind::Other);
    let results = handle.ingest(batch(2));
    assert_eq!(results.len(), 8);
    for (i, r) in results.iter().enumerate() {
        assert!(matches!(r, Err(EngineError::Wal { .. })), "index {i}: {r:?}");
    }
    assert_eq!(handle.close().points, 8, "a refused job advances no session");
}

// ---------------------------------------------------------------------------
// Auto-checkpoint scheduling
// ---------------------------------------------------------------------------

/// Wait (bounded) until `f()` is true; panic with `what` otherwise.
fn wait_until(what: &str, f: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !f() {
        assert!(std::time::Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The command-count policy fires on its own: the coordinator writes a
/// manifest mid-run, and the compacted log still recovers the full
/// state bit-identically.
#[test]
fn auto_checkpoint_fires_on_command_count_and_log_still_recovers() {
    let seed = 808;
    let d = 2;
    let disk = SimDisk::new(67, CrashProfile::DropUnsynced);
    let options = WalOptions {
        auto_checkpoint: Some(CheckpointPolicy::by_command_count(4)),
        ..sim_options(&disk, 64 << 20)
    };
    let config = IngressConfig { num_shards: 1, seed, queue_depth: 64 };
    let (handle, _) = EngineHandle::with_wal(config, &options).unwrap();
    let submit = handle.submit_handle();

    let spec = MechanismSpec::reg1_l2(d);
    let mut cmds = vec![Command::Open { session_id: 1, spec, t_max: 32, params: params() }];
    for t in 0..9usize {
        cmds.push(Command::Observe { session_id: 1, point: point(d, t, 1) });
    }
    for cmd in &cmds {
        let reply = submit.submit(cmd.clone()).unwrap().wait();
        assert!(!matches!(reply, Reply::Err(_)), "{reply:?}");
    }
    wait_until("an auto-checkpoint", || submit.wal_stats().auto_checkpoints >= 1);
    assert_eq!(submit.wal_stats().auto_checkpoint_failures, 0);
    handle.close();

    // Clean shutdown (no crash): the compacted log — manifest plus
    // whatever tail the coordinator left — replays to the full state.
    let mut engine = fresh_engine(1, seed);
    recover_collect(&disk, &mut engine).unwrap();
    let mut reference = fresh_engine(1, seed);
    for cmd in &cmds {
        reference.apply(cmd);
    }
    assert_eq!(session_image(&engine, &[1]), session_image(&reference, &[1]));
}

/// A failing auto-checkpoint (a session that cannot snapshot) backs
/// off, counts failures, and never purges a byte of the log.
#[test]
fn failed_auto_checkpoints_back_off_and_never_purge() {
    let seed = 809;
    let d = 2;
    let disk = SimDisk::new(71, CrashProfile::DropUnsynced);
    let options = WalOptions {
        auto_checkpoint: Some(CheckpointPolicy::by_command_count(3)),
        ..sim_options(&disk, 64 << 20)
    };
    let config = IngressConfig { num_shards: 1, seed, queue_depth: 64 };
    let (handle, _) = EngineHandle::with_wal(config, &options).unwrap();
    let submit = handle.submit_handle();

    // `PrivIncErm` sessions cannot snapshot — every checkpoint attempt
    // must fail, loudly, without touching the log.
    let spec = MechanismSpec::erm_squared(d, TauRule::Fixed(4));
    let mut cmds = vec![Command::Open { session_id: 1, spec, t_max: 32, params: params() }];
    for t in 0..5usize {
        cmds.push(Command::Observe { session_id: 1, point: point(d, t, 1) });
    }
    for cmd in &cmds {
        let reply = submit.submit(cmd.clone()).unwrap().wait();
        assert!(!matches!(reply, Reply::Err(_)), "{reply:?}");
    }
    wait_until("a counted checkpoint failure", || submit.wal_stats().auto_checkpoint_failures >= 1);
    assert_eq!(submit.wal_stats().auto_checkpoints, 0);
    handle.close();

    // Nothing was purged: the untouched log replays every command.
    let mut engine = fresh_engine(1, seed);
    let (report, _) = recover_collect(&disk, &mut engine).unwrap();
    assert_eq!(report.commands as usize, cmds.len(), "a failed checkpoint must never purge");
}
