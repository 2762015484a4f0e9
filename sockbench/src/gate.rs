//! The correctness gate: replay what a run sent through a 1-shard
//! `ShardedEngine::apply` from the same engine seed and compare every
//! session's release digest with what the client received.

use crate::gen::{engine_seed, replay, Script, Workload};
use crate::net::Res;
use crate::stats::Digests;
use pir::engine::{EngineConfig, ShardedEngine};

/// Sessions the gate covers: all of them, except every 8th id on the
/// d=64 workload, whose full replay would take longer than the run.
pub fn stride(w: Workload) -> u64 {
    match w {
        Workload::BatchWindow => 8,
        _ => 1,
    }
}

/// The reference digests of `script`, for the gated sessions. The replay
/// runs on the calling thread: a helper thread would take over a glibc
/// malloc arena that the next round's shard workers then inherit.
pub fn reference(w: Workload, seed: u64, script: &Script) -> Res<Digests> {
    let stride = stride(w);
    let config = EngineConfig { num_shards: 1, seed: engine_seed(seed), parallel: false };
    let mut engine = ShardedEngine::new(config).map_err(|e| e.to_string())?;
    let mut digests = Digests::new(w.pool());
    for cmd in replay(w, seed, script) {
        if cmd.session_id().unwrap_or(u64::MAX) % stride == 0 {
            digests.absorb(&engine.apply(&cmd));
        }
    }
    Ok(digests)
}

/// Compare the client's digests with the replay's; `Ok(sessions)` when
/// every gated session matches.
pub fn check(w: Workload, seed: u64, script: &Script, client: &Digests) -> Res<usize> {
    let expect = reference(w, seed, script)?;
    let mut compared = 0;
    let mut bad = Vec::new();
    for sid in (0..w.pool()).step_by(stride(w) as usize) {
        let i = sid as usize;
        if expect.replies[i] == 0 && client.replies[i] == 0 {
            continue;
        }
        compared += 1;
        if expect.hash[i] != client.hash[i] || expect.replies[i] != client.replies[i] {
            bad.push(format!(
                "session {sid}: {} replies vs {} replayed",
                client.replies[i], expect.replies[i]
            ));
        }
    }
    if bad.is_empty() {
        Ok(compared)
    } else {
        Err(format!("{} of {compared} sessions differ from the replay: {}", bad.len(), {
            bad.truncate(5);
            bad.join("; ")
        }))
    }
}
