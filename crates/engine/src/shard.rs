//! The shard state machine: one shard's session table and the one
//! executor of [`Command`] semantics.
//!
//! Every path that executes commands drives a [`Shard`]: the direct
//! [`ShardedEngine`](crate::ShardedEngine) (one `Shard` per shard), the
//! pipelined frontend's shard workers (each owns one), and log replay
//! ([`replay`], behind both [`wal::recover`](crate::wal::recover) and
//! [`EngineHandle::with_wal`](crate::EngineHandle::with_wal)). Recovery
//! is correct only if replay executes exactly what the live run
//! executed; with one executor that holds by construction.
//!
//! Bulk ingest is staged once ([`stage_ingest`]): each session's run of
//! a mixed batch becomes one [`Command::ObserveBatch`], the same value
//! the write-ahead log appends and [`Shard::apply`] executes.

use crate::engine::{shard_of, ShardedEngine};
use crate::error::EngineError;
use crate::ingress::{Command, Reply};
use crate::session::StreamSession;
use crate::spec::MechanismSpec;
use crate::wal::{LoadedLog, RecoveryReport, WalError};
use pir_dp::PrivacyParams;
use pir_erm::DataPoint;
use std::collections::{BTreeMap, HashMap, HashSet};

/// An ingest result tagged with the input index it answers.
pub(crate) type IndexedRelease = (usize, Result<Vec<f64>, EngineError>);

/// One shard: the sessions routed to it, keyed by session id, and the
/// engine seed their noise streams derive from.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) seed: u64,
    pub(crate) sessions: HashMap<u64, StreamSession>,
}

impl Shard {
    /// An empty shard of an engine seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        Shard { seed, sessions: HashMap::new() }
    }

    /// Stream points consumed by this shard's sessions.
    pub(crate) fn points(&self) -> usize {
        self.sessions.values().map(StreamSession::t).sum()
    }

    /// The live session `id`.
    ///
    /// # Errors
    /// [`EngineError::UnknownSession`] if this shard holds no such session.
    pub(crate) fn session_mut(&mut self, id: u64) -> Result<&mut StreamSession, EngineError> {
        self.sessions.get_mut(&id).ok_or(EngineError::UnknownSession { id })
    }

    /// Spawn session `id` (see [`StreamSession::spawn`]).
    ///
    /// # Errors
    /// [`EngineError::DuplicateSession`] if the id is taken, or the
    /// spec's build error.
    pub(crate) fn open(
        &mut self,
        id: u64,
        spec: &MechanismSpec,
        t_max: usize,
        params: &PrivacyParams,
    ) -> Result<(), EngineError> {
        if self.sessions.contains_key(&id) {
            return Err(EngineError::DuplicateSession { id });
        }
        let session = StreamSession::spawn(id, spec, t_max, params, self.seed)?;
        self.sessions.insert(id, session);
        Ok(())
    }

    /// Insert an already-built session.
    ///
    /// # Errors
    /// [`EngineError::DuplicateSession`] if the id is taken.
    pub(crate) fn adopt(&mut self, session: StreamSession) -> Result<(), EngineError> {
        let id = session.id();
        if self.sessions.contains_key(&id) {
            return Err(EngineError::DuplicateSession { id });
        }
        self.sessions.insert(id, session);
        Ok(())
    }

    /// Execute one command. Failures come back as [`Reply::Err`] rather
    /// than `Result::Err`: replay must reproduce a run's deterministic
    /// failures (a duplicate open, an over-horizon observe) without
    /// aborting.
    pub(crate) fn apply(&mut self, cmd: &Command) -> Reply {
        match cmd {
            Command::Open { session_id, spec, t_max, params } => self
                .open(*session_id, spec, *t_max, params)
                .map_or_else(Reply::Err, |()| Reply::Opened { session_id: *session_id }),
            Command::Observe { session_id, point } => {
                self.session_mut(*session_id).and_then(|s| s.observe(point)).map_or_else(
                    Reply::Err,
                    |theta| Reply::Releases { session_id: *session_id, thetas: vec![theta] },
                )
            }
            Command::ObserveBatch { session_id, points } => {
                self.session_mut(*session_id).and_then(|s| s.observe_batch(points)).map_or_else(
                    Reply::Err,
                    |thetas| Reply::Releases { session_id: *session_id, thetas },
                )
            }
            Command::Release { session_id } => match self.sessions.remove(session_id) {
                None => Reply::Err(EngineError::UnknownSession { id: *session_id }),
                Some(s) => {
                    let (epsilon_spent, delta_spent) = s.accountant().spent();
                    Reply::SessionReleased {
                        session_id: *session_id,
                        points: s.t() as u64,
                        epsilon_spent,
                        delta_spent,
                    }
                }
            },
            // Connection-scoped: it changes no session.
            Command::Close => Reply::Closed,
        }
    }

    /// Execute a staged ingest slice, appending index-tagged results to
    /// `out`. A run's releases answer its indices in order; a
    /// batch-level failure (unknown session, contract violation,
    /// overflow) answers every index of the run, as the atomic
    /// batch-rejection contract demands.
    pub(crate) fn ingest(&mut self, slice: &IngestSlice, out: &mut Vec<IndexedRelease>) {
        for (cmd, indices) in slice.cmds.iter().zip(&slice.indices) {
            match self.apply(cmd).into_releases() {
                Ok(thetas) => out.extend(indices.iter().copied().zip(thetas.into_iter().map(Ok))),
                Err(e) => out.extend(indices.iter().map(|&i| (i, Err(e.clone())))),
            }
        }
    }

    /// Append a `PIRS` snapshot of every session to `out`.
    ///
    /// # Errors
    /// The reason, naming the session, when one cannot be snapshotted.
    pub(crate) fn snapshot_all(&self, out: &mut Vec<Vec<u8>>) -> Result<(), String> {
        for session in self.sessions.values() {
            out.push(
                session.snapshot().map_err(|e| format!("session {:#018x}: {e}", session.id()))?,
            );
        }
        Ok(())
    }
}

/// One shard's slice of a mixed-tenant ingest batch: one
/// [`Command::ObserveBatch`] per session run, points in arrival order,
/// and the input indices each run answers.
#[derive(Debug, Default)]
pub(crate) struct IngestSlice {
    pub(crate) cmds: Vec<Command>,
    indices: Vec<Vec<usize>>,
}

impl IngestSlice {
    /// Queue cost in points.
    pub(crate) fn cost(&self) -> usize {
        self.cmds.iter().map(Command::cost).sum::<usize>().max(1)
    }

    /// The sessions the slice's runs target.
    pub(crate) fn session_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.cmds.iter().filter_map(Command::session_id)
    }

    /// Answer every index of the slice with `err`.
    pub(crate) fn fail(&self, err: &EngineError, out: &mut Vec<IndexedRelease>) {
        out.extend(self.indices.iter().flatten().map(|&i| (i, Err(err.clone()))));
    }

    /// Keep the runs whose session passes `check`; answer the indices of
    /// every other run with the error `check` returned.
    pub(crate) fn retain(
        self,
        mut check: impl FnMut(u64) -> Result<(), EngineError>,
        out: &mut Vec<IndexedRelease>,
    ) -> IngestSlice {
        let mut kept = IngestSlice::default();
        for (cmd, indices) in self.cmds.into_iter().zip(self.indices) {
            match cmd.session_id().map_or(Ok(()), &mut check) {
                Ok(()) => {
                    kept.cmds.push(cmd);
                    kept.indices.push(indices);
                }
                Err(e) => out.extend(indices.into_iter().map(|i| (i, Err(e.clone())))),
            }
        }
        kept
    }
}

/// Group a mixed batch of arrivals per shard, then per session,
/// preserving each session's arrival order. Within a shard, runs keep
/// the order of their sessions' first arrival. Shards with no arrival
/// get no slice.
pub(crate) fn stage_ingest(
    points: Vec<(u64, DataPoint)>,
    num_shards: usize,
) -> BTreeMap<usize, IngestSlice> {
    let mut run_of: HashMap<u64, usize> = HashMap::new();
    let mut runs: Vec<(u64, Vec<usize>, Vec<DataPoint>)> = Vec::new();
    for (i, (sid, z)) in points.into_iter().enumerate() {
        let at = *run_of.entry(sid).or_insert_with(|| {
            runs.push((sid, Vec::new(), Vec::new()));
            runs.len() - 1
        });
        // `at` was issued by the push above, so the run always exists.
        if let Some((_, indices, batch)) = runs.get_mut(at) {
            indices.push(i);
            batch.push(z);
        }
    }
    let mut slices: BTreeMap<usize, IngestSlice> = BTreeMap::new();
    for (session_id, indices, points) in runs {
        let slice = slices.entry(shard_of(session_id, num_shards)).or_default();
        slice.cmds.push(Command::ObserveBatch { session_id, points });
        slice.indices.push(indices);
    }
    slices
}

/// Put index-tagged results back in input order: `out[i]` answers input
/// `i`. An index no part answered (its shard worker died with the job)
/// reports [`EngineError::Closed`].
pub(crate) fn in_input_order(
    n: usize,
    parts: impl IntoIterator<Item = IndexedRelease>,
) -> Vec<Result<Vec<f64>, EngineError>> {
    let mut out: Vec<Result<Vec<f64>, EngineError>> =
        (0..n).map(|_| Err(EngineError::Closed)).collect();
    for (i, r) in parts {
        if let Some(slot) = out.get_mut(i) {
            *slot = r;
        }
    }
    out
}

/// Rebuild a loaded log into `engine`: restore the checkpoint's session
/// snapshots, then execute every tail command through [`Shard::apply`],
/// handing each command and its reply to `on_reply`. The one replay
/// routine: [`wal::recover`](crate::wal::recover) runs it on the
/// caller's engine, [`EngineHandle::with_wal`](crate::EngineHandle::with_wal)
/// on the engine whose shards become its workers'.
///
/// Every snapshot is restored and cross-checked before any is adopted,
/// so a bad manifest leaves `engine` untouched.
///
/// # Errors
/// [`WalError::Snapshot`] when a snapshot fails to restore or restores
/// a session that already exists.
pub(crate) fn replay(
    engine: &mut ShardedEngine,
    log: &LoadedLog,
    mut on_reply: impl FnMut(&Command, &Reply),
) -> Result<RecoveryReport, WalError> {
    let seed = engine.config().seed;
    let mut restored = Vec::with_capacity(log.snapshots.len());
    let mut ids = HashSet::new();
    for blob in &log.snapshots {
        let session = StreamSession::restore(blob, seed)
            .map_err(|e| WalError::Snapshot { reason: e.to_string() })?;
        if engine.contains(session.id()) || !ids.insert(session.id()) {
            return Err(WalError::Snapshot {
                reason: format!("manifest restores session {:#018x} twice", session.id()),
            });
        }
        restored.push(session);
    }
    for session in restored {
        engine.adopt_session(session).map_err(|e| WalError::Snapshot { reason: e.to_string() })?;
    }

    let mut failed = 0u64;
    for cmd in &log.commands {
        let reply = engine.apply(cmd);
        if matches!(reply, Reply::Err(_)) {
            failed += 1;
        }
        on_reply(cmd, &reply);
    }
    Ok(log.report(failed))
}
