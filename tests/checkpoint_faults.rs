//! Fault injection for the `PIRC` checkpoint-manifest format, mirroring
//! `tests/snapshot_faults.rs` for `PIRS`: truncation at every byte
//! prefix, every single-bit flip, and forged-but-re-checksummed counts.
//! A corrupt newest manifest must make recovery fail loudly with
//! [`WalError::CorruptManifest`] — never a panic, and never a recovery
//! that silently differs from the one the manifest was written for (its
//! covered segments are already purged, so there is nothing to fall
//! back to).

use pir_engine::wal;
use private_incremental_regression::prelude::*;
use std::path::{Path, PathBuf};

const SEED: u64 = 77;

/// A self-cleaning scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let p = std::env::temp_dir().join(format!("pir-ckpt-faults-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn params() -> PrivacyParams {
    PrivacyParams::approx(1.0, 1e-6).unwrap()
}

fn point(t: usize) -> DataPoint {
    let mut x = vec![0.0f64; 2];
    x[t % 2] = 0.6;
    DataPoint::new(x, 0.2)
}

fn fresh_engine() -> ShardedEngine {
    ShardedEngine::new(EngineConfig { num_shards: 2, seed: SEED, parallel: false }).unwrap()
}

/// Log a mid-stream `PRIVINCREG1` session and a `Trivial` session on
/// two shard chains, then take a real quiesced checkpoint — the honest
/// manifest every fault below corrupts (small, since every bit of it is
/// flipped). Returns the manifest's path.
fn real_checkpoint(dir: &Path) -> PathBuf {
    let specs = [MechanismSpec::reg1_l2(2), MechanismSpec::Trivial { set: SetSpec::unit_l2(2) }];
    for (shard, spec) in (0..2u32).zip(specs) {
        let session_id = u64::from(shard);
        let mut w = WalWriter::create(&WalOptions::new(dir), shard).unwrap();
        w.append(&Command::Open { session_id, spec, t_max: 4, params: params() }).unwrap();
        for t in 0..2 {
            w.append(&Command::Observe { session_id, point: point(t) }).unwrap();
        }
        drop(w);
    }
    let mut engine = fresh_engine();
    wal::recover(dir, &mut engine).unwrap();
    let report = wal::checkpoint(dir, &engine).unwrap();
    assert_eq!(report.sessions, 2);
    assert_eq!(report.segments_purged, 2, "the manifest is now the only copy of the stream");
    dir.join(wal::checkpoint_file_name(report.generation))
}

/// Recover `dir` into a fresh engine, asserting the result is a loud
/// `CorruptManifest` that left the engine untouched.
fn assert_corrupt(dir: &Path, what: &str) {
    let mut engine = fresh_engine();
    match wal::recover(dir, &mut engine) {
        Err(WalError::CorruptManifest { .. }) => {}
        other => panic!("{what}: expected CorruptManifest, got {other:?}"),
    }
    assert_eq!(engine.total_points(), 0, "{what}: a rejected manifest must restore nothing");
    assert!(!engine.contains(0) && !engine.contains(1), "{what}: no session may be restored");
}

/// Offset of the snapshot-count field: header (12), generation (4),
/// epoch flag + epoch (5), chain count (4), then 12 bytes per chain.
fn snapshot_count_at(bytes: &[u8]) -> usize {
    let chains = u32::from_le_bytes(bytes[21..25].try_into().unwrap()) as usize;
    25 + 12 * chains
}

/// Rewrite the trailing CRC so decoding reaches the body parser.
fn refix_crc(bytes: &mut [u8]) {
    let crc_at = bytes.len() - 4;
    let crc = wal::crc32(&bytes[..crc_at]);
    bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
}

#[test]
fn the_honest_manifest_recovers_both_sessions() {
    let tmp = TempDir::new("honest");
    real_checkpoint(tmp.path());
    let mut engine = fresh_engine();
    let report = wal::recover(tmp.path(), &mut engine).unwrap();
    assert_eq!(report.commands, 0, "everything is in the manifest");
    assert!(engine.contains(0) && engine.contains(1));
    assert_eq!(engine.total_points(), 4);
}

#[test]
fn every_truncation_prefix_is_corrupt_manifest() {
    let tmp = TempDir::new("truncation");
    let path = real_checkpoint(tmp.path());
    let honest = std::fs::read(&path).unwrap();
    for cut in 0..honest.len() {
        std::fs::write(&path, &honest[..cut]).unwrap();
        assert_corrupt(tmp.path(), &format!("prefix of {cut} bytes"));
    }
}

#[test]
fn every_single_bit_flip_is_corrupt_manifest() {
    let tmp = TempDir::new("bitflip");
    let path = real_checkpoint(tmp.path());
    let honest = std::fs::read(&path).unwrap();
    let mut flipped = honest.clone();
    for i in 0..honest.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            std::fs::write(&path, &flipped).unwrap();
            assert_corrupt(tmp.path(), &format!("bit {bit} of byte {i}"));
            flipped[i] ^= 1 << bit;
        }
    }
}

#[test]
fn trailing_bytes_are_corrupt_manifest() {
    let tmp = TempDir::new("trailing");
    let path = real_checkpoint(tmp.path());
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.push(0);
    std::fs::write(&path, &bytes).unwrap();
    assert_corrupt(tmp.path(), "one trailing byte");
}

#[test]
fn forged_rechecksummed_snapshot_counts_are_corrupt_manifest() {
    let tmp = TempDir::new("forged-count");
    let path = real_checkpoint(tmp.path());
    let honest = std::fs::read(&path).unwrap();
    let at = snapshot_count_at(&honest);
    assert_eq!(u32::from_le_bytes(honest[at..at + 4].try_into().unwrap()), 2);
    // One more claimed snapshot than the body holds, one fewer (leaving
    // an unparsed blob behind), none, and an absurd count.
    for forged in [3u32, 1, 0, u32::MAX] {
        let mut bytes = honest.clone();
        bytes[at..at + 4].copy_from_slice(&forged.to_le_bytes());
        refix_crc(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        assert_corrupt(tmp.path(), &format!("snapshot count forged to {forged}"));
    }
}
