//! `fermihedral-shard`: multi-process lane sharding for the portfolio
//! engine.
//!
//! The engine races its portfolio lanes as threads of one process; the
//! heavy Hamiltonian-dependent instances (hours-scale SAT runs in the
//! paper) want more hardware than one process can address. This crate
//! shards the lanes across OS **worker processes** joined by a small
//! length-prefixed binary protocol ([`sat::wire`]), over stdin/stdout
//! pipes of spawned workers or over TCP to registered fleet workers:
//!
//! ```text
//!            ┌────────────────────────── coordinator ───────────────────────┐
//!            │  cache probe/store · lane partition · seat table · merge     │
//!            └──┬───────────────────────┬───────────────────────┬───────────┘
//!   Welcome Job ┆ Clause ┆ Bound ┆ Cancel │ (length-prefixed frames)
//!            ▼                          ▼                       ▼
//!      worker 0 (lanes 0,2,4)     worker 1 (lanes 1,3,5)   worker k …
//!      race + RemoteExchange      race + RemoteExchange
//! ```
//!
//! Both transports seat their workers in one table and run one event
//! loop (the private `race` module): a spawned pipe worker is a seat
//! whose link was opened by spawning a process instead of accepting a
//! connection. Opening and severing links, the rejoin window, and the
//! reap of spawned processes are all that differ ([`coordinator`] for
//! pipes, [`fleet`] for TCP).
//!
//! * **Clause exchange**: each worker's [`sat::SharedContext`] gets a
//!   bridge lane ([`sat::RemoteExchange`]); exported clauses stream to
//!   the coordinator, which forwards them to every armed seat except
//!   their origin — no echo loops.
//! * **Bound sharing**: any shard's incumbent improvement tightens every
//!   other shard's next descent assumption within milliseconds.
//! * **Certification**: UNSAT floors are properties of the shared
//!   formula; the coordinator cancels the whole race the moment any
//!   shard's floor meets the global incumbent ([`engine`]'s semantics,
//!   across processes).
//! * **Crash containment**: a killed, silent or misbehaving worker is
//!   flagged `dead` in [`engine::ShardReport`] and the race degrades to
//!   the survivors. Every worker sends heartbeats, so a frozen one is
//!   noticed within the heartbeat deadline.
//!
//! Entry points: [`compile_sharded`] (mirrors [`engine::compile`]),
//! [`compile_sharded_with`] (server form: shared cache + external
//! cancellation), [`compile_fleet_with`] (the same over a
//! [`FleetServer`]), and [`run_worker`] / [`run_worker_fleet`] (the
//! worker's protocol loop, for the `fermihedral-shard worker` subcommand).

pub mod coordinator;
pub mod fleet;
pub mod proto;
mod race;
pub mod worker;

pub use coordinator::{
    compile_sharded, compile_sharded_with, default_worker_bin, ShardOptions, WORKER_BIN,
};
pub use engine::measure_weight;
pub use fleet::{compile_fleet_with, FleetOptions, FleetServer};
pub use proto::{BlackBoxCheckpoint, IncumbentUpdate, Job, ShardResult};
pub use worker::{run_worker, run_worker_fleet, FleetWorkerOptions};
