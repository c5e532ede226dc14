//! A tree-walking XQuery evaluator — the "plain XQuery engine" of the
//! reproduction (the role Saxon plays in the paper, §4/§5).
//!
//! It evaluates the `xqast` AST directly over `xmldom` documents and
//! supports:
//! * the full supported expression grammar (FLWOR, paths, constructors,
//!   quantifiers, typeswitch, casts);
//! * user-defined functions and library modules;
//! * XQUF updating functions producing *pending update lists* that are only
//!   applied by an explicit `apply_updates` step (paper §2.3);
//! * `execute at` via a pluggable [`RpcDispatcher`] — the `xrpc-peer` crate
//!   plugs the SOAP XRPC client in here;
//! * the predicate join `doc//e[key = $v]` over value indexes owned by the
//!   documents ([`index`]), so that bulk predicate evaluation over a large
//!   document behaves like the hash join Saxon builds in the paper's
//!   `getPerson` experiment (§4, Table 3).

pub mod context;
pub mod effects;
pub mod eval;
pub mod functions;
pub mod index;
pub mod modules;
pub mod pul;

pub use context::{
    CancelToken, DocResolver, Environment, FunctionRef, InMemoryDocs, RpcDispatcher, StaticContext,
};
pub use effects::Effects;
pub use eval::{
    evaluate_compiled, evaluate_main, evaluate_main_with_vars, evaluate_parsed, CompiledMain,
    Evaluator,
};
pub use modules::{CompiledModule, ModuleRegistry};
pub use pul::{apply_updates, DocEdit, PendingUpdateList, UpdatePrimitive};
