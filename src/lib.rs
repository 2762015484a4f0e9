//! # private-incremental-regression
//!
//! A complete Rust implementation of
//! **“Private Incremental Regression”** (Kasiviswanathan, Nissim & Jin,
//! PODS 2017): differentially private empirical risk minimization over
//! data *streams*, where a fresh estimator must be released after every
//! arrival and the entire release sequence is `(ε, δ)`-DP.
//!
//! ## The three mechanisms
//!
//! | mechanism | paper | excess risk (shape) | when to use |
//! |---|---|---|---|
//! | [`PrivIncErm`](pir_core::PrivIncErm) | §3 | `(Td)^{1/3}/ε^{2/3}` (convex), `√d/(√ν ε)` (strongly convex) | any convex loss |
//! | [`PrivIncReg1`](pir_core::PrivIncReg1) | §4 | `√d·‖C‖²/ε` | regression, moderate `d` |
//! | [`PrivIncReg2`](pir_core::PrivIncReg2) | §5 | `T^{1/3}W^{2/3}/ε + √OPT terms` | regression, high `d`, low-width domain/constraints |
//!
//! ## Quick start
//!
//! ```
//! use private_incremental_regression::prelude::*;
//!
//! // A privacy budget, a constraint set, and a seeded noise source.
//! let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
//! let set = L2Ball::unit(5);
//! let mut rng = NoiseRng::seed_from_u64(7);
//!
//! // The √d mechanism for a stream of length ≤ 64.
//! let mut mech = PrivIncReg1::new(
//!     Box::new(set),
//!     64,
//!     &params,
//!     &mut rng,
//!     PrivIncReg1Config::default(),
//! )
//! .unwrap();
//!
//! // Stream covariate–response pairs (‖x‖ ≤ 1, |y| ≤ 1) and receive a
//! // private estimator after every arrival.
//! let z = DataPoint::new(vec![0.4, 0.0, 0.3, 0.0, 0.0], 0.25);
//! let theta_t = mech.observe(&z).unwrap();
//! assert_eq!(theta_t.len(), 5);
//! ```
//!
//! ## Crate map
//!
//! - [`linalg`] — dense vectors/matrices, Cholesky, spectral norms.
//! - [`dp`] — privacy parameters, Gaussian/Laplace mechanisms,
//!   composition, accountant, seeded noise.
//! - [`continual`] — Tree / Hybrid mechanisms for continual sums.
//! - [`geometry`] — constraint sets: projections, support functions,
//!   Gaussian widths, Minkowski gauges.
//! - [`sketch`] — Gaussian random projections, Gordon dimension rule.
//! - [`optim`] — projected gradient, `NOISYPROJGRAD`, FISTA, Frank–Wolfe.
//! - [`erm`] — losses, exact and private batch ERM solvers.
//! - [`core`] — the incremental mechanisms, baselines, and the
//!   Definition-1 evaluation harness.
//! - [`engine`] — the sharded multi-stream serving layer: spawn thousands
//!   of concurrent sessions from a [`MechanismSpec`](pir_engine::MechanismSpec),
//!   drive them through the pipelined
//!   [`EngineHandle`](pir_engine::EngineHandle) (bounded per-shard queues,
//!   atomic backpressure) from any number of threads holding cloned
//!   [`SubmitHandle`](pir_engine::SubmitHandle)s, or speak the
//!   length-prefixed [`wire`](pir_engine::wire) protocol to a
//!   [`serve_connection`](pir_engine::serve_connection) loop — over
//!   sockets, via the thread-per-connection
//!   [`serve_tcp`](pir_engine::serve_tcp) front.
//! - [`datagen`] — synthetic stream generators for every experiment.
//!
//! ## Serving many streams
//!
//! The pipelined frontend is the production entry point: commands are
//! enqueued without blocking on mechanism compute, and replies arrive
//! through tickets.
//!
//! ```
//! use private_incremental_regression::prelude::*;
//!
//! let params = PrivacyParams::approx(1.0, 1e-6).unwrap();
//! let handle = EngineHandle::new(IngressConfig {
//!     num_shards: 2,
//!     seed: 7,
//!     queue_depth: 256,
//! })
//! .unwrap();
//! for sid in 0..16u64 {
//!     handle.open(sid, &MechanismSpec::reg1_l2(3), 32, &params).unwrap();
//! }
//! let batch: Vec<(u64, DataPoint)> = (0..32u64)
//!     .map(|i| (i % 16, DataPoint::new(vec![0.4, 0.1, 0.0], 0.2)))
//!     .collect();
//! let releases = handle.ingest(batch);
//! assert!(releases.iter().all(|r| r.is_ok()));
//! handle.close();
//! ```
//!
//! The synchronous [`ShardedEngine`](pir_engine::ShardedEngine) behind it
//! remains available for embedded, single-caller use. Both drive the same
//! shard executor, so they are release-for-release identical.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use pir_continual as continual;
pub use pir_core as core;
pub use pir_datagen as datagen;
pub use pir_dp as dp;
pub use pir_engine as engine;
pub use pir_erm as erm;
pub use pir_geometry as geometry;
pub use pir_linalg as linalg;
pub use pir_optim as optim;
pub use pir_sketch as sketch;

/// Everything most applications need, in one import.
pub mod prelude {
    pub use pir_continual::{HybridMechanism, PrivateCounter, TreeMechanism};
    pub use pir_core::baselines::{naive_recompute, ExactIncremental, TrivialMechanism};
    pub use pir_core::evaluate::{evaluate_generic, evaluate_squared_loss, ExcessRiskReport};
    pub use pir_core::{
        IncrementalMechanism, PrivIncErm, PrivIncReg1, PrivIncReg1Config, PrivIncReg2,
        PrivIncReg2Config, RobustPrivIncReg2, TauRule,
    };
    pub use pir_datagen::{
        classification_stream, drift_stream, linear_stream, mixture_stream, sparse_theta,
        CovariateKind, LinearModel,
    };
    pub use pir_dp::{NoiseRng, PrivacyAccountant, PrivacyParams};
    pub use pir_engine::{
        checkpoint, checkpoint_with_storage, recover, recover_with_storage, serve_connection,
        serve_tcp, serve_tcp_with, CheckpointPolicy, CheckpointReport, Command, CrashProfile,
        EngineConfig, EngineError, EngineHandle, FsyncPolicy, IngressConfig, IngressStats,
        LossSpec, MechanismSpec, OsStorage, RecoveryReport, Reply, ServeStats, SetSpec,
        ShardedEngine, SimDisk, SnapshotError, SolverSpec, SpillOptions, SpillStats, Storage,
        StorageFile, StorageHandle, StreamSession, SubmitHandle, TcpFront, TcpOptions, TcpStats,
        Ticket, WalError, WalFailurePolicy, WalOptions, WalStats, WalWriter,
    };
    pub use pir_erm::{
        solve_exact, DataPoint, LogisticLoss, Loss, NoisyGdSolver, OutputPerturbationSolver,
        PrivateBatchSolver, PrivateFrankWolfeSolver, Regularized, SquaredLoss,
    };
    pub use pir_geometry::{
        ConvexSet, GroupL1Ball, KSparseDomain, L1Ball, L2Ball, LinfBall, LpBall, PolytopeHull,
        Simplex, WidthSet,
    };
    pub use pir_sketch::{gordon, GaussianSketch};
}
