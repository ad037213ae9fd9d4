//! The GDO serving stack: one gateway, two deployment shapes.
//!
//! - The **gateway** ([`gateway::Gateway`]) owns admission, the
//!   priority queue, the durable job journal, the result cache
//!   ([`cache`], keyed on each job's exact input and config by [`key`]),
//!   load shedding ([`shed`]), the one job supervisor (requeue on worker
//!   loss, retry then `poisoned` on worker panics) and the operator HTTP
//!   endpoint ([`http`]). It runs no optimization itself.
//! - **Workers** ([`worker`]) register with their library digest and
//!   pull jobs. Each runs jobs through [`serve::job::run_job`], so
//!   results are byte-identical regardless of which worker ran them.
//!
//! `gdo-served` is a gateway with `--workers N` in-process workers,
//! linked to it by pipes ([`worker::spawn_local_workers`]), serving TCP
//! clients or a stdin batch. `gdo-gateway` is the same gateway with
//! remote `gdo-worker` processes on TCP ([`worker::run_worker`]), any
//! number on any host, plus the HTTP endpoint. Clients speak one NDJSON
//! protocol to either, so `gdo-submit` works against both. The flags
//! the two binaries share parse in [`cli`].

pub mod cache;
pub mod cli;
pub mod gateway;
pub mod http;
pub mod key;
mod link;
pub mod shed;
pub mod worker;

pub use cache::{CacheEntry, ResultCache};
pub use gateway::{Gateway, GatewayConfig};
pub use key::cache_key;
pub use link::{output_from, Output};
pub use serve::queue::Admission;
pub use shed::ShedConfig;
pub use worker::{run_worker, spawn_local_workers, WorkerOptions};
