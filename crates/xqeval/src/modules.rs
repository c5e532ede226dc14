//! The module registry: compiled XQuery library modules, addressable by
//! namespace URI — the unit of code the XRPC protocol references via
//! `module` + `location` (at-hint) attributes (paper §2.1).

use crate::context::StaticContext;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use xdm::{XdmError, XdmResult};
use xqast::{FunctionDecl, LibraryModule};

/// Declared functions by (local name, arity). A call looks its callee up
/// with the name it has in hand — a borrowed `&str`, no key to build.
#[derive(Clone, Default)]
pub struct FunctionTable(HashMap<String, Vec<Arc<FunctionDecl>>>);

impl FunctionTable {
    /// Index a prolog's function declarations (a later declaration of the
    /// same name and arity replaces an earlier one).
    pub fn of(decls: &[FunctionDecl]) -> Self {
        let mut table = FunctionTable::default();
        for f in decls {
            let same_name = table.0.entry(f.name.local.clone()).or_default();
            same_name.retain(|g| g.arity() != f.arity());
            same_name.push(Arc::new(f.clone()));
        }
        table
    }

    pub fn get(&self, local: &str, arity: usize) -> Option<&Arc<FunctionDecl>> {
        self.0.get(local)?.iter().find(|f| f.arity() == arity)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// A compiled library module: its functions keyed by (local name, arity),
/// plus the static context its bodies must be evaluated in — shared, so
/// that a call into the module takes a reference and copies nothing.
#[derive(Clone)]
pub struct CompiledModule {
    pub ns_uri: String,
    pub prefix: String,
    pub functions: FunctionTable,
    pub sctx: Arc<StaticContext>,
}

impl CompiledModule {
    pub fn from_library(lib: &LibraryModule) -> Self {
        let mut sctx = StaticContext::from_prolog(&lib.prolog);
        // The module's own prefix maps to its namespace.
        sctx.namespaces
            .insert(lib.prefix.clone(), lib.ns_uri.clone());
        CompiledModule {
            ns_uri: lib.ns_uri.clone(),
            prefix: lib.prefix.clone(),
            functions: FunctionTable::of(&lib.prolog.functions),
            sctx: Arc::new(sctx),
        }
    }

    pub fn function(&self, local: &str, arity: usize) -> Option<Arc<FunctionDecl>> {
        self.functions.get(local, arity).cloned()
    }
}

/// Fetches module source text by location hint (e.g. over HTTP).
pub type ModuleLoader = Box<dyn Fn(&str) -> XdmResult<String> + Send + Sync>;

/// Registry of modules by namespace URI. Mirrors the paper's model where an
/// XRPC peer pre-loads (and caches) XQuery modules referenced by requests;
/// a `loader` hook fetches unknown modules by their at-hint, which is how a
/// remote peer pulls `http://x.example.org/film.xq`.
pub struct ModuleRegistry {
    modules: RwLock<HashMap<String, Arc<CompiledModule>>>,
    /// Fetch module source text by location hint (e.g. over HTTP).
    loader: RwLock<Option<ModuleLoader>>,
    /// Bumped on every (re)registration. Plan caches fold this into
    /// their static-context fingerprint so a module reload makes every
    /// key derived from the old registry state unreachable.
    generation: std::sync::atomic::AtomicU64,
}

impl ModuleRegistry {
    pub fn new() -> Self {
        ModuleRegistry {
            modules: RwLock::new(HashMap::new()),
            loader: RwLock::new(None),
            generation: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Register a parsed library module.
    pub fn register(&self, lib: &LibraryModule) {
        let cm = Arc::new(CompiledModule::from_library(lib));
        self.modules.write().insert(cm.ns_uri.clone(), cm);
        self.generation
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    /// The registry's registration generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Parse + register module source text.
    pub fn register_source(&self, source: &str) -> XdmResult<String> {
        let lib = xqast::parse_library_module(source)?;
        let ns = lib.ns_uri.clone();
        self.register(&lib);
        Ok(ns)
    }

    /// Install a loader used to fetch unknown modules by location hint.
    pub fn set_loader(&self, f: impl Fn(&str) -> XdmResult<String> + Send + Sync + 'static) {
        *self.loader.write() = Some(Box::new(f));
    }

    pub fn get(&self, ns_uri: &str) -> Option<Arc<CompiledModule>> {
        self.modules.read().get(ns_uri).cloned()
    }

    /// Get a module, fetching it through the loader if necessary. The
    /// paper's XRPC error message example ("could not load module!") maps to
    /// the failure path here.
    pub fn get_or_load(&self, ns_uri: &str, hint: Option<&str>) -> XdmResult<Arc<CompiledModule>> {
        if let Some(m) = self.get(ns_uri) {
            return Ok(m);
        }
        if let Some(hint) = hint {
            let loader = self.loader.read();
            if let Some(loader) = loader.as_ref() {
                let source = loader(hint)?;
                let ns = self.register_source(&source)?;
                if ns != ns_uri {
                    return Err(XdmError::xrpc(format!(
                        "module at `{hint}` declares namespace `{ns}`, expected `{ns_uri}`"
                    )));
                }
                return self
                    .get(ns_uri)
                    .ok_or_else(|| XdmError::xrpc("module registration failed"));
            }
        }
        Err(XdmError::xrpc(format!(
            "could not load module! (`{ns_uri}`)"
        )))
    }

    pub fn namespaces(&self) -> Vec<String> {
        self.modules.read().keys().cloned().collect()
    }
}

impl Default for ModuleRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILM_MODULE: &str = r#"
        module namespace film = "films";
        declare function film:filmsByActor($actor as xs:string) as node()*
        { doc("filmDB.xml")//name[../actor = $actor] };
        declare function film:count() { fn:count(doc("filmDB.xml")//film) };
    "#;

    #[test]
    fn register_and_lookup() {
        let reg = ModuleRegistry::new();
        let ns = reg.register_source(FILM_MODULE).unwrap();
        assert_eq!(ns, "films");
        let m = reg.get("films").unwrap();
        assert!(m.function("filmsByActor", 1).is_some());
        assert!(m.function("filmsByActor", 2).is_none());
        assert!(m.function("count", 0).is_some());
    }

    #[test]
    fn missing_module_error_matches_paper() {
        let reg = ModuleRegistry::new();
        let err = match reg.get_or_load("nope", None) {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert!(err.message.contains("could not load module!"));
    }

    #[test]
    fn loader_fetches_by_hint() {
        let reg = ModuleRegistry::new();
        reg.set_loader(|hint| {
            assert_eq!(hint, "http://x.example.org/film.xq");
            Ok(FILM_MODULE.to_string())
        });
        let m = reg
            .get_or_load("films", Some("http://x.example.org/film.xq"))
            .unwrap();
        assert_eq!(m.ns_uri, "films");
        // second call is cached (loader not invoked: would panic on wrong hint)
        assert!(reg.get_or_load("films", Some("other")).is_ok());
    }

    #[test]
    fn loader_namespace_mismatch_rejected() {
        let reg = ModuleRegistry::new();
        reg.set_loader(|_| {
            Ok("module namespace x = \"other\"; declare function x:f() { 1 };".into())
        });
        assert!(reg.get_or_load("films", Some("hint")).is_err());
    }
}
