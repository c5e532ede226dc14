//! Data shipping: `fn:doc("xrpc://peer/path")` fetches a remote document
//! (paper §1: "XQuery only provides a data shipping model ... fn:doc()
//! fetches an XML document from a remote peer").
//!
//! Fetching rides on the XRPC protocol itself through a reserved module
//! ([`DOC_MODULE`]) every peer serves natively, so no separate wire format
//! is needed and the same metrics/latency model applies.

use crate::client::XrpcClient;
use std::sync::Arc;
use xdm::{Item, Sequence, XdmError, XdmResult};
use xmldom::Document;
use xqeval::context::{DocResolver, FunctionRef};
use xqeval::RpcDispatcher;

/// Reserved module namespace for document fetch.
pub const DOC_MODULE: &str = "urn:xrpc-doc";
pub const DOC_METHOD: &str = "get";

/// A resolver that answers `xrpc://host/path` URIs by fetching from the
/// remote peer, delegating everything else to the local resolver.
///
/// Fetched documents are cached for the lifetime of the resolver (one
/// query): re-evaluating `doc()` inside a for-loop must not re-ship the
/// document, and within one query the same URI must yield the *same* node
/// identities (XQuery requires `doc()` to be stable).
pub struct RemoteDocResolver {
    pub local: Arc<dyn DocResolver>,
    pub client: Arc<XrpcClient>,
    cache: parking_lot::Mutex<std::collections::HashMap<String, Arc<Document>>>,
}

impl RemoteDocResolver {
    pub fn new(local: Arc<dyn DocResolver>, client: Arc<XrpcClient>) -> Arc<Self> {
        Arc::new(RemoteDocResolver {
            local,
            client,
            cache: parking_lot::Mutex::new(std::collections::HashMap::new()),
        })
    }
}

impl DocResolver for RemoteDocResolver {
    fn resolve(&self, uri: &str) -> XdmResult<Arc<Document>> {
        if !uri.starts_with("xrpc://") {
            return self.local.resolve(uri);
        }
        if let Some(d) = self.cache.lock().get(uri) {
            return Ok(d.clone());
        }
        let (host, path) = xqeval::functions::split_xrpc_url(uri);
        let func = FunctionRef {
            module_ns: DOC_MODULE.to_string(),
            location_hint: None,
            local_name: DOC_METHOD.to_string(),
            arity: 1,
            updating: false,
        };
        let mut results =
            self.client
                .dispatch(&host, &func, vec![vec![Sequence::one(Item::string(path))]])?;
        let fetched = results
            .pop()
            .and_then(|seq| seq.into_iter().next())
            .ok_or_else(|| XdmError::xrpc("empty doc-fetch response"))?;
        match fetched {
            Item::Node(n) => {
                let doc = materialize_document(n, uri);
                self.cache.lock().insert(uri.to_string(), doc.clone());
                Ok(doc)
            }
            _ => Err(XdmError::xrpc("doc fetch returned a non-node")),
        }
    }

    fn put(&self, uri: &str, doc: Document) -> XdmResult<()> {
        self.local.put(uri, doc)
    }

    fn replace(&self, uri: &str, doc: Arc<Document>) -> XdmResult<()> {
        self.local.replace(uri, doc)
    }
}

/// Turn a fetched node into a standalone `Document` whose slot-0 root *is*
/// the document root (the `fn:doc` contract). A shipped document arrives as
/// just that — `xrpc:document` is decoded into an arena of its own — and is
/// stamped with its URI and shared as it is; any other node is a fragment of
/// the message arena and is copied out under a document node.
fn materialize_document(mut n: xmldom::NodeHandle, uri: &str) -> Arc<Document> {
    if n.id == n.doc.root() {
        // nobody else holds what was just decoded for us; a document that is
        // shared already keeps the URI it has
        if let Some(doc) = Arc::get_mut(&mut n.doc) {
            doc.uri = Some(uri.to_string());
        }
        return n.doc;
    }
    let mut fresh = Document::with_uri(uri);
    let root = fresh.root();
    let imported = fresh.import_subtree(&n.doc, n.id);
    fresh.append_child(root, imported);
    Arc::new(fresh)
}
