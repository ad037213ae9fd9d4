//! `serve` — the job layer of the GDO serving stack, and its client.
//!
//! The stack itself — admission, the result cache, workers and the
//! `gdo-served` / `gdo-gateway` binaries — lives in the `gateway`
//! crate. This crate holds the parts it is built from:
//!
//! - [`job`] — single-job execution on a worker (load → map → optimize
//!   under a [`gdo::Budget`] → per-job report).
//! - [`queue`] — the bounded priority queue (admission control and
//!   backpressure).
//! - [`wal`] — the durable job journal behind restart recovery.
//!
//! Its one binary is `gdo-submit`, the NDJSON client of either
//! deployment shape. Requests, responses and the JSON reader live in
//! the shared `proto` crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod queue;
pub mod wal;

pub use job::{JobOutcome, JobResult, JobSource};
pub use queue::{Admission, JobQueue, Priority, PushError};
