//! # cpma-service — the std-only TCP front door
//!
//! A blocking TCP server that turns live network traffic into the
//! batch-parallel updates the CPMA stack is built for. Connections speak a
//! tiny length-prefixed, checksummed binary protocol ([`proto`]); decoded
//! op streams funnel through [`cpma_store::Combiner::submit_many`], so the
//! flat-combining layer — not an async runtime — does the batching, and
//! reads are served wait-free from the combiner's published `Arc`
//! snapshots. An optional durable mode logs every epoch to the WAL before
//! acknowledging it ([`Service::serve_durable`]).
//!
//! Everything is `std`-only blocking I/O: an accept loop plus a bounded
//! worker pool ([`ServiceConfig::workers`]) — the worker count is the
//! concurrency bound and the backpressure mechanism. See
//! `docs/ARCHITECTURE.md` ("The network front door") for the wire diagram
//! and thread model, and `docs/TUNING.md` for the settings and the
//! protocol constants.
//!
//! ```no_run
//! use cpma_service::{Client, Service, ServiceConfig};
//!
//! let (mut service, _combiner) =
//!     Service::serve(cpma_pma::Cpma::new(), ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(service.local_addr()).unwrap();
//! assert!(client.insert(42).unwrap());
//! assert!(client.contains(42).unwrap());
//! service.shutdown();
//! ```

pub mod client;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use proto::{
    ProtoError, RecvError, Reply, Request, MAX_FRAME_BYTES, MAX_PIPELINE_OPS, SCAN_LIMIT,
};
pub use server::{Service, ServiceConfig, ServiceError};
