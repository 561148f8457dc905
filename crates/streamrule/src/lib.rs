//! # rl-streamrule — windowed rule subscriptions over compiled blocking plans
//!
//! The paper's classification rules (§5.4) are evaluated in batch; this
//! crate turns them into a push-based streaming engine. A user-written rule
//! (the [`cbv_hb::parse_rule`] DSL) is *compiled* into a per-subscription
//! blocking plan that probes only the LSH tables its predicates require
//! ([`compiler::CompiledRule`]), carries a count- or time-based window with
//! eviction and a late-arrival policy ([`window`]), and is driven by a
//! [`engine::WindowedEngine`]: every observed record is embedded once,
//! matched against each live subscription's window, and the matches are
//! surfaced as per-subscription events.
//!
//! Layering:
//!
//! * [`window`] — [`WindowSpec`] / [`LateArrival`] (the wire-level window
//!   description) and the per-subscription [`window::WindowState`]
//!   bookkeeping.
//! * [`compiler`] — lowers a rule AST into an executable probing plan with
//!   top-k candidate capping.
//! * [`engine`] — fan-out: one record slab holding the union of the live
//!   windows, N subscription plans each holding exactly its window.
//!
//! `rl-server` builds protocol v6 (`SubscribeMatches` / `MatchEvent` /
//! `Unsubscribe`) on top of this crate; see `docs/STREAMING.md`.

pub mod compiler;
pub mod engine;
pub mod window;

pub use compiler::{CompiledRule, SubscriptionSpec};
pub use engine::{ObserveOutcome, SubMatch, WindowedEngine};
pub use window::{LateArrival, WindowSpec};
