//! The Panda serving layer: the IDE loop over HTTP.
//!
//! The original demo serves its Vue front-end from a Flask process; this
//! crate is that process's Rust equivalent — a **std-only** HTTP/1.1
//! server (no async runtime, no HTTP dependency) exposing every session
//! interaction as a JSON endpoint:
//!
//! | Route | Session method |
//! |---|---|
//! | `POST /sessions` | [`panda_session::PandaSession::load`] |
//! | `GET /sessions` | [`state::AppState::list`] (live/evicted/recovered) |
//! | `POST /sessions/{id}/lfs` | [`panda_session::PandaSession::upsert_lf_incremental`] |
//! | `DELETE /sessions/{id}/lfs/{name}` | [`panda_session::PandaSession::remove_lf_incremental`] |
//! | `POST /sessions/{id}/fit` | [`panda_session::PandaSession::fit`] (warm-started) |
//! | `POST /sessions/{id}/labels` | [`panda_session::PandaSession::label_pair`] |
//! | `POST /sessions/{id}/query` | [`panda_session::PandaSession::debug_pairs`] |
//! | `POST /match` | [`panda_session::PandaSession::score_pair`] |
//! | `GET /metrics` | [`panda_obs::snapshot`] |
//! | `POST /promote` | [`state::AppState::promote`] (follower → primary) |
//! | `POST /rebalance` | snapshot + WAL-tail handoff to another shard |
//! | `POST /handoff` | receiving side of `/rebalance` ([`state::AppState::adopt_handoff`]) |
//!
//! LF edits are **incremental**: adding an LF computes exactly one new
//! label-matrix column ([`panda_lf::LabelMatrix::add_column`]) instead of
//! re-applying every LF, and a refit warm-starts EM from the previous
//! posterior. The server therefore runs the same code as the offline
//! session — wire results are bit-identical to library results (proved by
//! `tests/wire_parity.rs`).
//!
//! The transport is event-driven: each worker (sized like
//! [`panda_exec::worker_count`]) owns an `SO_REUSEPORT` listener and an
//! epoll loop ([`net`]) over non-blocking connection state machines, with
//! HTTP/1.1 keep-alive and pipelining so clients amortize connect cost
//! across requests. Robustness: per-shard connection caps with 503
//! shedding, per-state deadlines (slowloris eviction → 408, idle
//! keep-alive reap, bounded writes), a request-body cap (413), structured
//! JSON errors, panic isolation per request, and graceful drain on
//! `POST /shutdown` or SIGTERM (idle persistent connections close
//! immediately; in-flight requests finish under their deadlines).
//!
//! Durability: with `--state-dir` every acknowledged mutating request is
//! appended (and fsynced) to a per-session WAL before the response goes
//! out, snapshots compact the log on a cadence, and startup replays
//! WAL-on-top-of-snapshot with [`panda_lf::LabelMatrix::digest`]
//! verification at every step ([`persist`]). `--max-sessions` bounds
//! resident memory by evicting least-recently-used sessions to snapshot
//! (they rehydrate transparently on the next touch) and `--session-ttl`
//! sweeps idle ones ([`state::AppState`]).
//!
//! Replication ([`repl`]): `--repl-addr` streams every acknowledged WAL
//! record to subscribed followers (`--follow`) which replay it through
//! the digest-verified recovery path and serve read-only routes
//! (mutations answer 421 naming the primary; `POST /promote` flips a
//! follower to primary). `--peers` arranges servers on an FNV-1a
//! consistent-hash ring: each session lives on one shard, foreign
//! requests answer 421 with the owner, and `POST /rebalance` moves a
//! session between shards by snapshot + WAL-tail handoff.
//!
//! ```no_run
//! let handle = panda_serve::Server::start(panda_serve::ServerConfig {
//!     addr: "127.0.0.1:7700".to_string(),
//!     ..Default::default()
//! })
//! .unwrap();
//! println!("listening on {}", handle.addr());
//! handle.join(); // returns after /shutdown or SIGTERM
//! ```

pub mod api;
pub mod client;
pub mod http;
pub mod net;
pub mod persist;
pub mod repl;
pub mod router;
pub mod server;
pub mod signal;
pub mod state;

pub use server::{Server, ServerConfig, ServerHandle};
pub use state::{AppState, SessionInfo, SessionSlot, StateOptions};
