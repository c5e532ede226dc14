//! One pass from the bytes of a SOAP XRPC message to its values.
//!
//! [`parse_message`] drives an [`xmldom::Reader`] and matches the envelope,
//! its headers, `xrpc:request` / `xrpc:response` / `env:Fault`, calls and
//! sequences as events: none of them ever becomes a node. An
//! `xrpc:atomic-value` becomes an `AtomicValue` from its text. A node value
//! is what its wrapper holds, built by [`xmldom::Builder`] as a parentless
//! root in the message's one arena (`xrpc:document`: under the root of a
//! document of its own), so upward and sideways axes from it see nothing —
//! the call-by-value contract of `n2s()` without a copy, and without the
//! wrapper, the envelope or a second walk.
//!
//! What is not recognised is skipped, well-formedness checked (the reader
//! checks all it reads): children of the envelope other than the first
//! `env:Header` and `env:Body`, of the body other than the first request,
//! response or fault, of a request other than `xrpc:queryID` and
//! `xrpc:call`, of a call other than `xrpc:sequence`.

use crate::message::{
    FaultCode, HopProfile, OpNode, Phase, Phases, ProfileMode, ProfileRequest, QueryId,
    TraceContext, UpdCall, XrpcFault, XrpcMessage, XrpcRequest, XrpcResponse,
};
use std::borrow::Cow;
use std::sync::Arc;
use xdm::types::AtomicType;
use xdm::{AtomicValue, Item, Sequence, XdmError, XdmResult};
use xmldom::qname::{NS_SOAP_ENV, NS_XRPC};
use xmldom::{Builder, Document, Event, Name, NodeHandle, NodeId, ParseError, Reader, StartTag};

/// Parse a SOAP XRPC message (request, response or fault).
pub fn parse_message(xml: &str) -> XdmResult<XrpcMessage> {
    let mut d = Decoder {
        r: Reader::new(xml).map_err(bad_xml)?,
        builder: Builder::new(),
        kinds: [(0, Xrpc::Foreign); Reader::SLOTS],
        arena: None,
        document_size: None,
        malformed: false,
    };
    match d.envelope() {
        // bytes that are not XML are that before they are anything else:
        // what the message says wrong is reported once the rest is read
        Err(e) if !d.malformed => loop {
            match d.r.next() {
                Ok(Event::Eof) => return Err(e),
                Ok(_) => {}
                Err(x) => return Err(bad_xml(x)),
            }
        },
        other => other,
    }
}

fn bad_xml(e: ParseError) -> XdmError {
    XdmError::xrpc(format!("bad SOAP XML: {e}"))
}

/// The `xrpc:` elements a message is made of.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Xrpc {
    Request,
    Response,
    QueryId,
    Call,
    Sequence,
    ParticipatingPeers,
    Trace,
    Budget,
    Profile,
    Hop,
    AtomicValue,
    NodeId,
    /// The wrappers of node values, by kind.
    Element,
    Document,
    Text,
    Comment,
    Pi,
    Attribute,
    /// An `xrpc:` name that is none of these...
    Unknown,
    /// ...and a name in another namespace, or none.
    Foreign,
}

impl Xrpc {
    fn of(name: &Name) -> Xrpc {
        if name.ns() != Some(NS_XRPC) {
            return Xrpc::Foreign;
        }
        match name.local() {
            "request" => Xrpc::Request,
            "response" => Xrpc::Response,
            "queryID" => Xrpc::QueryId,
            "call" => Xrpc::Call,
            "sequence" => Xrpc::Sequence,
            "participatingPeers" => Xrpc::ParticipatingPeers,
            "trace" => Xrpc::Trace,
            "budget" => Xrpc::Budget,
            "profile" => Xrpc::Profile,
            "hop" => Xrpc::Hop,
            "atomic-value" => Xrpc::AtomicValue,
            "nodeid" => Xrpc::NodeId,
            "element" => Xrpc::Element,
            "document" => Xrpc::Document,
            "text" => Xrpc::Text,
            "comment" => Xrpc::Comment,
            "pi" => Xrpc::Pi,
            "attribute" => Xrpc::Attribute,
            _ => Xrpc::Unknown,
        }
    }
}

struct Decoder<'a> {
    r: Reader<'a>,
    builder: Builder<'a>,
    /// What [`Xrpc::of`] said of the name last seen in each of the reader's
    /// slots, under its stamp: a repeated tag is told by an integer compare.
    kinds: [(u32, Xrpc); Reader::SLOTS],
    /// Node values go into one arena, made for the first of them. Until the
    /// message is read it is still being written, so their handles point at
    /// `stub`; [`Decoder::share`] points them at the arena.
    arena: Option<(Document, Arc<Document>)>,
    /// Slots and text bytes of the last `xrpc:document` value.
    document_size: Option<(usize, usize)>,
    /// The reader has refused the input.
    malformed: bool,
}

/// What the envelope's header says, whichever kind of message follows.
#[derive(Default)]
struct Header {
    trace: Option<TraceContext>,
    budget_millis: Option<u64>,
    profile: Option<ProfileRequest>,
    profile_hops: Vec<HopProfile>,
}

/// What `$d`'s reader answered, or out of the function with its failure.
macro_rules! xml {
    ($d:expr, $answer:expr) => {
        match $answer {
            Ok(v) => v,
            Err(e) => {
                $d.malformed = true;
                return Err(bad_xml(e));
            }
        }
    };
}

macro_rules! next {
    ($d:expr) => {
        xml!($d, $d.r.next())
    };
}

/// Read through the end tag of the element just opened.
macro_rules! skip {
    ($d:expr) => {
        xml!($d, $d.r.skip_element())
    };
}

impl<'a> Decoder<'a> {
    /// Which `xrpc:` element the start tag just read opens.
    fn kind(&mut self) -> Xrpc {
        let name = self.r.start_tag().name();
        let (slot, stamp) = name.resolution();
        if self.kinds[slot].0 != stamp {
            self.kinds[slot] = (stamp, Xrpc::of(&name));
        }
        self.kinds[slot].1
    }

    /// Hand each child element of the element just opened to `child`, which
    /// reads through the child's end tag; text, comments and PIs between them
    /// are passed over. Returns after the element's own end tag.
    fn each_child(&mut self, mut child: impl FnMut(&mut Self) -> XdmResult<()>) -> XdmResult<()> {
        loop {
            match next!(self) {
                Event::Start(_) => child(self)?,
                Event::End => return Ok(()),
                _ => {}
            }
        }
    }

    fn envelope(&mut self) -> XdmResult<XrpcMessage> {
        loop {
            match next!(self) {
                Event::Start(tag) if tag.name().is(NS_SOAP_ENV, "Envelope") => break,
                Event::Start(_) | Event::Eof => return Err(XdmError::xrpc("missing env:Envelope")),
                _ => {}
            }
        }
        let mut header: Option<Header> = None;
        let mut body: Option<Option<XrpcMessage>> = None;
        self.each_child(|d| {
            let name = d.r.start_tag().name();
            if header.is_none() && name.is(NS_SOAP_ENV, "Header") {
                header = Some(d.header()?);
            } else if body.is_none() && name.is(NS_SOAP_ENV, "Body") {
                body = Some(d.body()?);
            } else {
                skip!(d);
            }
            Ok(())
        })?;
        while !matches!(next!(self), Event::Eof) {}
        let header = header.unwrap_or_default();
        let mut message = body
            .ok_or_else(|| XdmError::xrpc("missing env:Body"))?
            .ok_or_else(|| {
                XdmError::xrpc("env:Body carries neither xrpc:request, xrpc:response nor env:Fault")
            })?;
        match &mut message {
            XrpcMessage::Request(req) => {
                req.trace = header.trace;
                req.budget_millis = header.budget_millis;
                req.profile = header.profile;
                self.share(req.calls.iter_mut().flatten());
            }
            XrpcMessage::Response(resp) => {
                resp.profile_hops = header.profile_hops;
                self.share(resp.results.iter_mut());
            }
            XrpcMessage::Fault(_) => {}
        }
        Ok(message)
    }

    /// The observability headers. Lenient throughout: a header that does not
    /// parse is as good as absent — tracing, a garbled budget or a truncated
    /// profile must never turn a valid call into an error.
    fn header(&mut self) -> XdmResult<Header> {
        let mut h = Header::default();
        let (mut trace, mut budget, mut profile) = (false, false, false);
        self.each_child(|d| {
            let (kind, tag) = (d.kind(), d.r.start_tag());
            if !trace && kind == Xrpc::Trace {
                trace = true;
                h.trace = trace_context(&tag);
            } else if !budget && kind == Xrpc::Budget {
                budget = true;
                let millis = tag.attr_local("remainingMillis");
                h.budget_millis = millis.and_then(|v| v.parse().ok());
            } else if !profile && kind == Xrpc::Profile {
                profile = true;
                h.profile = profile_request(&tag);
                return d.profile_hops(&mut h.profile_hops);
            }
            skip!(d);
            Ok(())
        })?;
        Ok(h)
    }

    /// The `xrpc:hop` children of the response-side `xrpc:profile`. A hop is
    /// a small tree of attributes: it is built as a scratch document and
    /// read off that; one that fails to parse is skipped.
    fn profile_hops(&mut self, hops: &mut Vec<HopProfile>) -> XdmResult<()> {
        self.each_child(|d| {
            if d.kind() != Xrpc::Hop {
                skip!(d);
                return Ok(());
            }
            let mut scratch = Document::new();
            let hop = xml!(d, d.builder.element(&mut d.r, &mut scratch));
            hops.extend(parse_hop(&scratch, hop));
            Ok(())
        })
    }

    /// The message the body carries: its first request, response or fault.
    fn body(&mut self) -> XdmResult<Option<XrpcMessage>> {
        let mut message = None;
        self.each_child(|d| {
            let (kind, tag) = (d.kind(), d.r.start_tag());
            if message.is_some() {
                skip!(d);
            } else if kind == Xrpc::Request {
                let req = request_of(&tag)?;
                message = Some(XrpcMessage::Request(d.request(req)?));
            } else if kind == Xrpc::Response {
                let resp = response_of(&tag)?;
                message = Some(XrpcMessage::Response(d.response(resp)?));
            } else if tag.name().is(NS_SOAP_ENV, "Fault") {
                message = Some(XrpcMessage::Fault(d.fault()?));
            } else {
                skip!(d);
            }
            Ok(())
        })?;
        Ok(message)
    }

    fn request(&mut self, mut req: XrpcRequest) -> XdmResult<XrpcRequest> {
        self.each_child(|d| {
            let kind = d.kind();
            if req.query_id.is_none() && kind == Xrpc::QueryId {
                req.query_id = Some(query_id(&d.r.start_tag())?);
            } else if kind == Xrpc::Call {
                // arity comes from the network: no room on its word
                let params = d.call(Vec::with_capacity(req.arity.min(16)))?;
                if params.len() != req.arity {
                    return Err(XdmError::xrpc(format!(
                        "call has {} parameters, request arity is {}",
                        params.len(),
                        req.arity
                    )));
                }
                req.calls.push(params);
                return Ok(());
            }
            skip!(d);
            Ok(())
        })?;
        Ok(req)
    }

    /// The parameter sequences of one `xrpc:call`. An `xrpc:nodeid` in one
    /// of them refers into a parameter decoded before it, or its own.
    fn call(&mut self, mut params: Vec<Sequence>) -> XdmResult<Vec<Sequence>> {
        self.each_child(|d| {
            if d.kind() != Xrpc::Sequence {
                skip!(d);
                return Ok(());
            }
            let seq = d.sequence(&params)?;
            params.push(seq);
            Ok(())
        })?;
        Ok(params)
    }

    fn response(&mut self, mut resp: XrpcResponse) -> XdmResult<XrpcResponse> {
        self.each_child(|d| {
            match d.kind() {
                Xrpc::Sequence => resp.results.push(d.sequence(&[])?),
                Xrpc::ParticipatingPeers => {
                    let peers = &mut resp.participating_peers;
                    return d.each_child(|d| {
                        peers.extend(d.r.start_tag().attr_local("uri").map(str::to_string));
                        skip!(d);
                        Ok(())
                    });
                }
                _ => skip!(d),
            }
            Ok(())
        })?;
        Ok(resp)
    }

    fn fault(&mut self) -> XdmResult<XrpcFault> {
        let (mut code, mut reason) = (None, None);
        self.each_child(|d| {
            let name = d.r.start_tag().name();
            if code.is_none() && name.is(NS_SOAP_ENV, "Code") {
                code = Some(d.child_value("Value")?);
            } else if reason.is_none() && name.is(NS_SOAP_ENV, "Reason") {
                reason = Some(d.child_value("Text")?);
            } else {
                skip!(d);
            }
            Ok(())
        })?;
        let reason = reason.flatten().unwrap_or_else(|| "unknown fault".into());
        // pull a leading `[CODE] ` error-code prefix back out
        let coded = reason.strip_prefix('[').and_then(|r| r.split_once("] "));
        let (error_code, reason) = match coded {
            Some((c, r)) => (Some(c.to_string()), r.to_string()),
            None => (None, reason.into_owned()),
        };
        Ok(XrpcFault {
            code: match code.flatten() {
                Some(c) if c.contains("Receiver") => FaultCode::Receiver,
                _ => FaultCode::Sender,
            },
            reason,
            error_code,
        })
    }

    /// The string value of the open element's first `env:local` child.
    fn child_value(&mut self, local: &str) -> XdmResult<Option<Cow<'a, str>>> {
        let mut value = None;
        self.each_child(|d| {
            if value.is_none() && d.r.start_tag().name().is(NS_SOAP_ENV, local) {
                value = Some(xml!(d, d.r.string_value()));
            } else {
                skip!(d);
            }
            Ok(())
        })?;
        Ok(value)
    }

    /// One `xrpc:sequence`: this is `n2s()`. `params` are the parameters of
    /// the call decoded so far. White space between values is passed over.
    fn sequence(&mut self, params: &[Sequence]) -> XdmResult<Sequence> {
        let mut out = Sequence::empty();
        self.each_child(|d| {
            let item = match d.kind() {
                Xrpc::AtomicValue => Item::Atomic(d.atomic_value()?),
                Xrpc::NodeId => {
                    let item = d.resolve_nodeid(params, out.items())?;
                    skip!(d);
                    item
                }
                wrapper => Item::Node(d.node_value(wrapper)?),
            };
            out.push(item);
            Ok(())
        })?;
        Ok(out)
    }

    fn atomic_value(&mut self) -> XdmResult<AtomicValue> {
        let ty_lex = (self.r.start_tag().attr_local("type"))
            .ok_or_else(|| XdmError::xrpc("atomic-value without xsi:type"))?;
        let ty = AtomicType::from_xs_name(ty_lex)
            .ok_or_else(|| XdmError::xrpc(format!("unsupported xsi:type `{ty_lex}`")))?;
        let lexical = xml!(self, self.r.string_value());
        match ty {
            // the one string the value costs
            AtomicType::String => Ok(AtomicValue::String(lexical.into_owned())),
            AtomicType::UntypedAtomic => Ok(AtomicValue::UntypedAtomic(lexical.into_owned())),
            _ => AtomicValue::parse_as(&lexical, ty),
        }
    }

    /// What the wrapper just opened holds, as a node that has no parent, read
    /// through the wrapper's end tag.
    fn node_value(&mut self, wrapper: Xrpc) -> XdmResult<NodeHandle> {
        if wrapper == Xrpc::Document {
            // slot 0 of a document of its own *is* the document node, which
            // is what `fn:doc` hands out: a fetched document is never copied.
            // The first is sized like a parse of what is left of the message
            // (a fetched document is all of it), the next like the last.
            let left = self.r.remaining();
            let (nodes, text) = self.document_size.unwrap_or((left / 32, left));
            let mut doc = Document::with_capacity(nodes, text);
            let root = doc.root();
            xml!(self, self.builder.children(&mut self.r, &mut doc, root));
            self.document_size = Some((doc.len(), doc.text_heap_len()));
            return Ok(NodeHandle::root(Arc::new(doc)));
        }
        // sized like a parse of what is left of the message
        let left = self.r.remaining();
        let (arena, stub) = self.arena.get_or_insert_with(|| {
            let arena = Document::with_capacity(left / 32, left);
            (arena, Arc::new(Document::new()))
        });
        let id = match wrapper {
            Xrpc::Element => {
                // its first element; what else the wrapper holds is no value
                let mut element = None;
                loop {
                    match next!(self) {
                        Event::Start(_) if element.is_none() => {
                            element = Some(xml!(self, self.builder.element(&mut self.r, arena)));
                        }
                        Event::Start(_) => skip!(self),
                        Event::End => break,
                        _ => {}
                    }
                }
                element.ok_or_else(|| XdmError::xrpc("empty xrpc:element wrapper"))?
            }
            Xrpc::Text => arena.create_text(xml!(self, self.r.string_value())),
            Xrpc::Comment => arena.create_comment(xml!(self, self.r.string_value())),
            Xrpc::Pi => {
                // the wrapper carries the PI node itself
                let mut pi = None;
                loop {
                    match next!(self) {
                        Event::Pi { target, data } if pi.is_none() => {
                            pi = Some(arena.create_pi(target, data));
                        }
                        Event::Start(_) => skip!(self),
                        Event::End => break,
                        _ => {}
                    }
                }
                pi.ok_or_else(|| XdmError::xrpc("xrpc:pi wrapper without a PI"))?
            }
            Xrpc::Attribute => {
                let tag = self.r.start_tag();
                let attr = (tag.attributes().next())
                    .ok_or_else(|| XdmError::xrpc("xrpc:attribute wrapper without an attribute"))?;
                let id = arena.create_attribute_shared(self.builder.qname(&attr.name), attr.value);
                skip!(self);
                id
            }
            other => {
                let name = self.r.start_tag().name();
                return Err(XdmError::xrpc(match other {
                    Xrpc::Foreign => {
                        format!("unexpected element `{}` in xrpc:sequence", name.raw())
                    }
                    _ => format!("unknown value wrapper xrpc:{}", name.local()),
                }));
            }
        };
        Ok(NodeHandle::new(stub.clone(), id))
    }

    /// The node an `<xrpc:nodeid param=".." item=".." path=".."/>` (the
    /// call-by-fragment extension, footnote 4) refers to: a node inside a
    /// value decoded earlier in the same call — `current` are the items of
    /// the sequence the reference stands in — found by its child-index path.
    /// Three numbers from the network: whatever they say, a node or an error.
    fn resolve_nodeid(&self, params: &[Sequence], current: &[Item]) -> XdmResult<Item> {
        let tag = self.r.start_tag();
        let number = |name: &str| -> XdmResult<usize> {
            (tag.attr_local(name))
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| XdmError::xrpc(format!("nodeid missing @{name}")))
        };
        let (param, item) = (number("param")?, number("item")?);
        let path = tag.attr_local("path").unwrap_or("");
        // 1-based on the wire, and hostile: 0 is out of range, not an underflow
        let out_of_range = || XdmError::xrpc("nodeid @param out of range");
        let param = param.checked_sub(1).ok_or_else(out_of_range)?;
        let base_seq = if param == params.len() {
            current
        } else {
            params.get(param).ok_or_else(out_of_range)?.items()
        };
        let Some(Item::Node(base)) = item.checked_sub(1).and_then(|i| base_seq.get(i)) else {
            return Err(XdmError::xrpc("nodeid target is not a node"));
        };
        let doc = match &self.arena {
            Some((arena, stub)) if Arc::ptr_eq(stub, &base.doc) => arena,
            _ => &*base.doc,
        };
        let mut cur = base.id;
        for comp in path.split('/').filter(|_| !path.is_empty()) {
            let (attribute, k) = match comp.strip_prefix('@') {
                Some(k) => (true, k),
                None => (false, comp),
            };
            let k: usize = (k.parse()).map_err(|_| XdmError::xrpc("bad nodeid path component"))?;
            cur = if attribute {
                doc.attributes(cur).nth(k)
            } else {
                doc.children(cur).nth(k)
            }
            .ok_or_else(|| XdmError::xrpc("nodeid index out of range"))?;
        }
        Ok(Item::Node(NodeHandle::new(base.doc.clone(), cur)))
    }

    /// The message is read: the arena goes behind the `Arc` every node value
    /// in it shares, and their handles are pointed at it.
    fn share<'s>(&mut self, sequences: impl Iterator<Item = &'s mut Sequence>) {
        let Some((arena, stub)) = self.arena.take() else {
            return;
        };
        let arena = Arc::new(arena);
        for item in sequences.flat_map(|s| s.items_mut()) {
            if let Item::Node(h) = item {
                if Arc::ptr_eq(&h.doc, &stub) {
                    h.doc = arena.clone();
                }
            }
        }
    }
}

fn req_attr<'r>(tag: &StartTag<'r, '_>, name: &str) -> XdmResult<&'r str> {
    tag.attr_local(name)
        .ok_or_else(|| XdmError::xrpc(format!("missing `{name}` attribute")))
}

fn request_of(tag: &StartTag) -> XdmResult<XrpcRequest> {
    let module = req_attr(tag, "module")?;
    let method = req_attr(tag, "method")?;
    let arity = req_attr(tag, "arity")?
        .parse()
        .map_err(|_| XdmError::xrpc("bad arity attribute"))?;
    let mut req = XrpcRequest::new(module, method, arity);
    req.location = tag.attr_local("location").map(str::to_string);
    req.upd_call = UpdCall::of_attr(tag.attr_local("updCall"));
    req.seq = tag.attr_local("seq").and_then(|s| s.parse().ok());
    Ok(req)
}

fn response_of(tag: &StartTag) -> XdmResult<XrpcResponse> {
    let mut resp = XrpcResponse::new(req_attr(tag, "module")?, req_attr(tag, "method")?);
    resp.committed = tag.attr_local("updCall") == Some("committed");
    Ok(resp)
}

fn query_id(tag: &StartTag) -> XdmResult<QueryId> {
    Ok(QueryId {
        host: req_attr(tag, "host")?.to_string(),
        timestamp_millis: req_attr(tag, "timestamp")?
            .parse()
            .map_err(|_| XdmError::xrpc("bad queryID timestamp"))?,
        timeout_secs: req_attr(tag, "timeout")?
            .parse()
            .map_err(|_| XdmError::xrpc("bad queryID timeout"))?,
    })
}

fn trace_context(tag: &StartTag) -> Option<TraceContext> {
    Some(TraceContext {
        trace_id: u128::from_str_radix(tag.attr_local("traceId")?, 16).ok()?,
        span_id: u64::from_str_radix(tag.attr_local("spanId")?, 16).ok()?,
        parent_id: (tag.attr_local("parentId")).and_then(|p| u64::from_str_radix(p, 16).ok()),
    })
}

/// The request-side `<xrpc:profile mode="" via="" depth=""/>`.
fn profile_request(tag: &StartTag) -> Option<ProfileRequest> {
    let mode = ProfileMode::parse(tag.attr_local("mode")?);
    mode.is_on().then(|| ProfileRequest {
        mode,
        via: tag.attr_local("via").unwrap_or_default().to_string(),
        depth: (tag.attr_local("depth"))
            .and_then(|d| d.parse().ok())
            .unwrap_or(0),
    })
}

fn has_name(doc: &Document, el: NodeId, local: &str) -> bool {
    doc.name(el).is_some_and(|n| n.is(NS_XRPC, local))
}

fn parse_hop(doc: &Document, el: NodeId) -> Option<HopProfile> {
    let peer = doc.attr_local(el, "peer")?.to_string();
    let via = doc.attr_local(el, "via").unwrap_or_default().to_string();
    let depth = doc.attr_local(el, "depth")?.parse().ok()?;
    let trace_id = u128::from_str_radix(doc.attr_local(el, "traceId")?, 16).ok()?;
    let span_id = u64::from_str_radix(doc.attr_local(el, "spanId")?, 16).ok()?;
    let total_micros = doc.attr_local(el, "totalMicros")?.parse().ok()?;
    let mut phases = Phases::default();
    let mut ops = Vec::new();
    for child in doc.child_elements(el) {
        if has_name(doc, child, "phases") {
            phases.micros = Phase::ALL.map(|(_, name)| {
                (doc.attr_local(child, name))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0)
            });
            phases.cache = match doc.attr_local(child, "cache") {
                Some("hit") => "hit",
                Some("miss") => "miss",
                _ => "off",
            };
        } else if has_name(doc, child, "op") {
            ops.extend(parse_op(doc, child, 0));
        }
    }
    Some(HopProfile {
        peer,
        via,
        depth,
        trace_id,
        span_id,
        total_micros,
        phases,
        ops,
    })
}

/// Operators nest as deep as the query that ran, not as deep as a message
/// can say: below this the tree is dropped, not followed.
const MAX_OP_DEPTH: usize = 256;

fn parse_op(doc: &Document, el: NodeId, depth: usize) -> Option<OpNode> {
    let num = |name: &str| -> Option<u64> { doc.attr_local(el, name)?.parse().ok() };
    let mut node = OpNode {
        name: doc.attr_local(el, "name")?.to_string(),
        calls: num("calls")?,
        timed_calls: num("timedCalls")?,
        wall_micros: num("wallMicros")?,
        items: num("items")?,
        bytes: num("bytes")?,
        children: Vec::new(),
    };
    if depth < MAX_OP_DEPTH {
        for child in doc.child_elements(el) {
            if has_name(doc, child, "op") {
                node.children.extend(parse_op(doc, child, depth + 1));
            }
        }
    }
    Some(node)
}
