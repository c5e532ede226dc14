//! The loop-lifted relational XQuery engine — the reproduction's stand-in
//! for MonetDB/XQuery + Pathfinder (paper §3).
//!
//! Sequences are `iter|pos|item` tables ([`table::SeqTable`]); nested
//! for-loops are removed by *loop-lifting* (§3.1), and an `execute at`
//! inside a for-loop taken N times turns into a **single Bulk RPC
//! request** per destination peer (§3.2, Figures 1–2): distinct peers are
//! extracted with δ, per-peer request tables are renumbered with ρ,
//! requests are dispatched in parallel, and responses are mapped back and
//! merge-unioned on `iter` to restore query order.
//!
//! Engineering choice (documented in DESIGN.md): of the sub-expressions
//! that contain no `execute at`, scalar ones run a column at a time (the
//! map operator, `map.rs`) and value joins as one probe per iteration; the
//! rest are evaluated per-iteration by the tree engine (`xqeval`) — the
//! bulk behaviour the paper measures lives in the XRPC path, which is fully
//! loop-lifted here.

pub mod cache;
pub mod engine;
mod map;
pub mod table;

pub use cache::{CacheStats, FunctionCache, PlanCache};
pub use engine::{eval_calls, execute_rel, RelEngine};
pub use table::{IterMap, SeqTable};
