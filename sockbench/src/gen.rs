//! Deterministic workload inputs. Every command the benchmark sends is a
//! pure function of the workload seed, the connection, and the command's
//! position in that connection's script, so a run's command stream can be
//! regenerated for the correctness gate and replayed for the traced run.

use pir::dp::PrivacyParams;
use pir::engine::{Command, MechanismSpec};
use pir::erm::DataPoint;
use std::collections::VecDeque;

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 generator: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 32) * n as u64) >> 32) as usize
    }
}

/// The workload seed of round `r` of a run.
pub fn round_seed(seed: u64, r: usize) -> u64 {
    mix(seed ^ (r as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The seed the engine under test draws its noise from.
pub fn engine_seed(seed: u64) -> u64 {
    mix(seed ^ 0x7069_725F_656E_6769)
}

/// The three serving workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-point OBSERVE at d=8: open loop, then closed-loop saturation.
    ObserveOpen,
    /// OBSERVE_BATCH of 32 points at d=64, 8 frames in flight.
    BatchWindow,
    /// WAL + spill, 10% OPEN / 10% RELEASE (oldest first) / 80%
    /// OBSERVE_BATCH of 8.
    DurableChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::ObserveOpen, Workload::BatchWindow, Workload::DurableChurn];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ObserveOpen => "observe_d8_open",
            Workload::BatchWindow => "batch_d64_window",
            Workload::DurableChurn => "durable_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn dim(self) -> usize {
        match self {
            Workload::BatchWindow => 64,
            _ => 8,
        }
    }

    pub fn t_max(self) -> usize {
        match self {
            Workload::DurableChurn => 4096,
            _ => 1 << 16,
        }
    }

    /// Size of the session-id space; each of the two connections owns one
    /// half of it.
    pub fn pool(self) -> u64 {
        match self {
            Workload::DurableChurn => 4096,
            _ => 1024,
        }
    }

    /// Sessions opened during set-up.
    pub fn fleet(self) -> u64 {
        match self {
            Workload::DurableChurn => 2048,
            _ => 1024,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::DurableChurn
    }

    pub fn spec(self) -> MechanismSpec {
        MechanismSpec::reg1_l2(self.dim())
    }

    pub fn open(self, session_id: u64) -> Command {
        Command::Open {
            session_id,
            spec: self.spec(),
            t_max: self.t_max(),
            params: PrivacyParams::approx(1.0, 1e-6).expect("constant budget is valid"),
        }
    }
}

/// One kind of command run in a connection's script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// OPEN the connection's share of the set-up fleet, in id order.
    Open,
    /// Single-point OBSERVE to a session drawn uniformly from the fleet.
    Observe,
    /// OBSERVE_BATCH of this many points to a uniformly drawn session.
    Batch(usize),
    /// RELEASE a live session of this connection and OPEN it again,
    /// cycling through its live sessions in age order (two commands per
    /// cycle): OPEN and RELEASE on a serving engine in steady state. The
    /// cycle spans the whole fleet share, except on durable_churn, where
    /// it spans the `HOT` oldest (resident) sessions so that neither
    /// command meets a spilled one.
    Reopen,
    /// The durable churn mix over the connection's half of the id pool.
    Churn,
    /// Single-point OBSERVE, round-robin over the connection's `HOT`
    /// oldest live sessions: in the churn mix the hottest, so resident in
    /// memory; elsewhere the first ids of its fleet share, whose state
    /// then stays in cache instead of being fetched cold from a fleet far
    /// larger than the last-level cache.
    HotObserve,
}

/// Points per OBSERVE_BATCH in the churn mix.
pub const CHURN_BATCH: usize = 8;

/// Sessions [`Phase::HotObserve`] cycles through.
pub const HOT: usize = 16;

/// The command generator of one connection.
pub struct ConnGen {
    w: Workload,
    rng: Rng,
    theta: Vec<f64>,
    /// First id of this connection's half of the pool.
    base: u64,
    /// Next fleet id to OPEN (offset from `base`), and commands sent so
    /// far in [`Phase::Reopen`].
    open_cursor: u64,
    reopen_cursor: u64,
    /// Commands sent so far in [`Phase::HotObserve`].
    hot_cursor: usize,
    /// Churn state: live sessions in age order, released ids awaiting
    /// reuse, and each id's stream position.
    live: Vec<u64>,
    free: VecDeque<u64>,
    t: Vec<usize>,
}

impl ConnGen {
    pub fn new(w: Workload, seed: u64, conn: usize) -> Self {
        let mut model = Rng::new(mix(seed ^ 0x7468_6574_6121));
        let mut theta: Vec<f64> = (0..w.dim()).map(|_| 2.0 * model.unit() - 1.0).collect();
        let norm = theta.iter().map(|v| v * v).sum::<f64>().sqrt();
        theta.iter_mut().for_each(|v| *v *= 0.8 / norm);
        let half = w.pool() / 2;
        let base = conn as u64 * half;
        let opened = w.fleet() / 2;
        ConnGen {
            w,
            rng: Rng::new(mix(seed ^ (conn as u64 + 1).wrapping_mul(GOLDEN))),
            theta,
            base,
            open_cursor: 0,
            reopen_cursor: 0,
            hot_cursor: 0,
            live: (base..base + opened).collect(),
            free: (base + opened..base + half).collect(),
            t: vec![0; half as usize],
        }
    }

    fn point(&mut self) -> DataPoint {
        let d = self.theta.len();
        let mut x: Vec<f64> = (0..d).map(|_| 2.0 * self.rng.unit() - 1.0).collect();
        let scale = (0.5 + 0.5 * self.rng.unit()) / x.iter().map(|v| v * v).sum::<f64>().sqrt();
        x.iter_mut().for_each(|v| *v *= scale);
        let fit: f64 = x.iter().zip(&self.theta).map(|(a, b)| a * b).sum();
        let y = (fit + 0.1 * (2.0 * self.rng.unit() - 1.0)).clamp(-1.0, 1.0);
        DataPoint::new(x, y)
    }

    fn points(&mut self, k: usize) -> Vec<DataPoint> {
        (0..k).map(|_| self.point()).collect()
    }

    /// Index into the live list with heavy skew toward the oldest
    /// sessions, so a few stay hot (resident) and the rest go cold.
    fn skewed(&mut self) -> usize {
        let u = self.rng.unit();
        ((self.live.len() as f64) * u * u * u) as usize
    }

    fn release_live(&mut self, idx: usize) -> Command {
        let session_id = self.live.remove(idx);
        self.free.push_back(session_id);
        Command::Release { session_id }
    }

    /// The next command of `phase`.
    pub fn command(&mut self, phase: Phase) -> Command {
        match phase {
            Phase::Open => {
                let id = self.base + self.open_cursor;
                self.open_cursor += 1;
                self.w.open(id)
            }
            Phase::Reopen => {
                let k = self.reopen_cursor;
                self.reopen_cursor += 1;
                let span = if self.w.durable() { HOT } else { self.live.len() };
                let id = self.live[(k / 2) as usize % span.min(self.live.len())];
                if k.is_multiple_of(2) {
                    Command::Release { session_id: id }
                } else {
                    self.t[(id - self.base) as usize] = 0;
                    self.w.open(id)
                }
            }
            Phase::Observe => {
                let session_id = self.rng.below(self.w.fleet() as usize) as u64;
                Command::Observe { session_id, point: self.point() }
            }
            Phase::Batch(k) => {
                let session_id = self.rng.below(self.w.fleet() as usize) as u64;
                Command::ObserveBatch { session_id, points: self.points(k) }
            }
            Phase::Churn => self.churn(),
            Phase::HotObserve => {
                let n = self.live.len();
                let start = self.hot_cursor % HOT.min(n);
                self.hot_cursor += 1;
                let t_max = self.w.t_max();
                let idx = (0..n)
                    .map(|j| (start + j) % n)
                    .find(|&i| self.t[(self.live[i] - self.base) as usize] < t_max)
                    .expect("the churn mix keeps sessions with room live");
                let session_id = self.live[idx];
                self.t[(session_id - self.base) as usize] += 1;
                Command::Observe { session_id, point: self.point() }
            }
        }
    }

    fn churn(&mut self) -> Command {
        let u = self.rng.unit();
        if (u < 0.1 || self.live.is_empty()) && !self.free.is_empty() {
            let id = self.free.pop_front().expect("checked non-empty");
            self.live.push(id);
            self.t[(id - self.base) as usize] = 0;
            return self.w.open(id);
        }
        if u < 0.2 && self.live.len() > 1 {
            // Streams retire oldest first; the oldest are the hottest, so a
            // RELEASE meets a resident session and its latency has one mode.
            return self.release_live(0);
        }
        let idx = self.skewed();
        let slot = (self.live[idx] - self.base) as usize;
        if self.t[slot] + CHURN_BATCH > self.w.t_max() {
            // A full session retires instead of failing an over-horizon batch.
            return self.release_live(idx);
        }
        self.t[slot] += CHURN_BATCH;
        Command::ObserveBatch { session_id: self.live[idx], points: self.points(CHURN_BATCH) }
    }
}

/// What a run sent: runs of `(connection, phase, count)` in send order.
/// Runs of different connections that overlapped in time touch disjoint
/// sessions, so replaying the runs one after another reproduces every
/// session's command sequence.
pub type Script = Vec<(usize, Phase, usize)>;

/// Append `n` commands of `phase` on `conn`, merging with the last run.
pub fn record(script: &mut Script, conn: usize, phase: Phase, n: usize) {
    match script.last_mut() {
        Some((c, p, count)) if *c == conn && *p == phase => *count += n,
        _ => script.push((conn, phase, n)),
    }
}

/// Regenerate the commands of `script`, in replay order.
pub fn replay(w: Workload, seed: u64, script: &Script) -> impl Iterator<Item = Command> + '_ {
    let mut gens = [ConnGen::new(w, seed, 0), ConnGen::new(w, seed, 1)];
    script
        .iter()
        .flat_map(|&(conn, phase, n)| std::iter::repeat_n((conn, phase), n))
        .map(move |(conn, phase)| gens[conn].command(phase))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir::engine::wire::encode_command;

    /// The first commands of every phase every workload runs, encoded.
    fn stream(w: Workload, seed: u64) -> Vec<u8> {
        let mut script = Script::new();
        for (conn, phase, n) in [
            (0, Phase::Open, 40),
            (1, Phase::Open, 40),
            (0, Phase::Observe, 50),
            (0, Phase::Batch(4), 20),
            (0, Phase::Churn, 300),
            (1, Phase::Churn, 300),
            (0, Phase::HotObserve, 50),
            (0, Phase::Reopen, 20),
        ] {
            record(&mut script, conn, phase, n);
        }
        replay(w, seed, &script).flat_map(|cmd| encode_command(&cmd).expect("encodable")).collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7), stream(w, 7), "{}", w.name());
            assert_ne!(stream(w, 7), stream(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn churn_stays_within_horizon_and_pool() {
        let w = Workload::DurableChurn;
        let mut gen = ConnGen::new(w, 3, 1);
        let mut t = vec![0usize; w.pool() as usize];
        let mut live: std::collections::HashSet<u64> = (2048..3072).collect();
        for _ in 0..200_000 {
            match gen.command(Phase::Churn) {
                Command::Open { session_id, .. } => {
                    assert!(live.insert(session_id), "reopened a live id");
                    t[session_id as usize] = 0;
                }
                Command::Release { session_id } => assert!(live.remove(&session_id)),
                Command::ObserveBatch { session_id, points } => {
                    assert!(live.contains(&session_id));
                    t[session_id as usize] += points.len();
                    assert!(t[session_id as usize] <= w.t_max());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(live.iter().all(|&id| (2048..4096).contains(&id)));
    }

    #[test]
    fn durable_reopen_cycles_the_hot_sessions() {
        let mut gen = ConnGen::new(Workload::DurableChurn, 5, 0);
        (0..5000).for_each(|_| drop(gen.command(Phase::Churn)));
        let hot = gen.live[..HOT].to_vec();
        for k in 0..4 * HOT {
            let id = match gen.command(Phase::Reopen) {
                Command::Release { session_id } if k % 2 == 0 => session_id,
                Command::Open { session_id, .. } if k % 2 == 1 => session_id,
                other => panic!("unexpected {other:?}"),
            };
            assert_eq!(id, hot[(k / 2) % HOT]);
        }
        assert_eq!(gen.live[..HOT], hot[..]);
    }

    #[test]
    fn points_satisfy_the_normalization_contract() {
        let mut gen = ConnGen::new(Workload::BatchWindow, 11, 0);
        let Command::ObserveBatch { points, .. } = gen.command(Phase::Batch(64)) else {
            panic!("batch expected")
        };
        for p in points {
            p.validate(64).expect("normalized point");
        }
    }
}
