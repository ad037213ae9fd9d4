//! `proto` — the wire protocols of the GDO serving stack.
//!
//! Every process that speaks NDJSON — the gateway in either deployment
//! shape (`gdo-served`, `gdo-gateway`), its workers (in-process or
//! `gdo-worker`), and the client (`gdo-submit`) — parses and serializes
//! through this one crate, so the protocols cannot drift between
//! binaries.
//!
//! - [`json`] — the workspace's JSON reader (field-path error context,
//!   full escape round-tripping), re-exported from [`telemetry::json`],
//!   where it sits next to the writer it mirrors.
//! - [`client`] — client↔gateway requests ([`Request`],
//!   [`SubmitRequest`]) and response events ([`Event`]).
//! - [`worker`] — gateway↔worker registration, job pull/assign,
//!   heartbeats, progress, results — over TCP or an in-process pipe
//!   pair.
//! - [`report`] — parsing [`telemetry::RunReport`] back from its JSON
//!   schema (the inverse of its writer).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod report;
pub mod worker;

pub use telemetry::json;

pub use client::{
    parse_request, parse_submit_value, parse_verify, submit_to_json, verify_name, Event, JobSource,
    Priority, Request, SubmitRequest,
};
pub use report::{parse_report, report_from_json};
pub use worker::{
    GatewayMsg, InputFormat, ShippedInput, WorkerMsg, WorkerResult, PROTOCOL_VERSION,
};
