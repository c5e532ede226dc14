//! A hand-written, namespace-aware XML 1.0 pull reader.
//!
//! Supports the subset the XRPC stack needs: elements, attributes,
//! namespace declarations with proper scoping, text with the five
//! predefined entities plus numeric character references, CDATA sections,
//! comments, processing instructions, an XML declaration and a (skipped)
//! DOCTYPE. DTD-defined entities are not supported — the SOAP XRPC wire
//! format never needs them.
//!
//! [`Reader::next`] hands out one [`Event`] at a time and builds nothing.
//! Every well-formedness and namespace check lives here and nowhere else:
//! names, attribute quoting, `<` in values, entity and character
//! references, duplicate attributes, namespace scoping (undeclared prefixes,
//! malformed QNames), mismatched and unterminated tags, the prolog and
//! trailing content. Whoever consumes the events — the DOM builder behind
//! [`crate::parse`], the SOAP message decoder — sees only well-formed input.
//!
//! Names, comments and PIs are borrowed from the input. Text and attribute
//! values are too, unless they hold a reference: those are decoded into one
//! scratch buffer that the next event reuses. The open-element stack is
//! explicit, so element depth is not bounded by the thread stack.

use crate::qname::NS_XML;

/// Parse failure with byte offset and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "XML parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// What the reader's own steps fail with: a pointer, so that their results
/// travel in registers. Unboxed where it leaves the crate.
pub(crate) type Fail = Box<ParseError>;

impl From<Fail> for ParseError {
    fn from(e: Fail) -> Self {
        *e
    }
}

/// One step through a document. `'a` is the input, `'r` the borrow of the
/// reader: what carries `'r` is valid until the next call of
/// [`Reader::next`].
pub enum Event<'r, 'a> {
    /// A start tag; an empty-element tag is followed by its own `End`.
    Start(StartTag<'r, 'a>),
    End,
    /// Character data up to the next markup with its references decoded, or
    /// the content of one CDATA section. Never empty.
    Text(&'r str),
    Comment(&'a str),
    Pi {
        target: &'a str,
        data: &'a str,
    },
    Eof,
}

/// A name as written with the namespace it resolved to.
#[derive(Clone, Copy)]
pub struct Name<'r, 'a> {
    raw: &'r RawName<'a>,
    reader: &'r Reader<'a>,
}

impl<'r, 'a> Name<'r, 'a> {
    /// The name as written.
    pub fn raw(&self) -> &'a str {
        self.raw.raw
    }

    pub fn prefix(&self) -> Option<&'a str> {
        let raw: &'a str = self.raw.raw;
        (self.raw.colon > 0).then(|| &raw[..self.raw.colon as usize])
    }

    pub fn local(&self) -> &'a str {
        let raw: &'a str = self.raw.raw;
        match self.raw.colon {
            0 => raw,
            at => &raw[at as usize + 1..],
        }
    }

    /// The namespace URI the name is in, if any.
    pub fn ns(&self) -> Option<&'r str> {
        let ns = self.raw.ns;
        (ns.len() > 0).then(|| self.reader.get(ns))
    }

    pub fn is(&self, ns: &str, local: &str) -> bool {
        self.local() == local && self.ns() == Some(ns)
    }

    /// Which resolution this is, as `(slot, stamp)` with `slot <`
    /// [`Reader::SLOTS`]: two names of one reader with the same pair are
    /// the same raw name bound to the same namespace. What a consumer
    /// derives from a name it can keep in a table of that many entries,
    /// each good for as long as its stamp is the one reported.
    pub fn resolution(&self) -> (usize, u32) {
        (self.raw.slot as usize, self.raw.stamp)
    }
}

pub struct Attr<'r, 'a> {
    pub name: Name<'r, 'a>,
    pub value: &'r str,
}

/// The start tag [`Reader::next`] last reported.
#[derive(Clone, Copy)]
pub struct StartTag<'r, 'a> {
    reader: &'r Reader<'a>,
}

impl<'r, 'a> StartTag<'r, 'a> {
    pub fn name(&self) -> Name<'r, 'a> {
        self.reader
            .name(&self.reader.recent[self.reader.element].name)
    }

    /// The attributes in document order, namespace declarations excluded.
    pub fn attributes(&self) -> impl Iterator<Item = Attr<'r, 'a>> + 'r {
        let reader = self.reader;
        reader.attrs.iter().map(move |a| Attr {
            name: reader.name(&a.name),
            value: reader.get(a.value),
        })
    }

    /// Attribute value lookup by local name only (namespace ignored) —
    /// convenient for protocol parsing where attributes are unprefixed.
    pub fn attr_local(&self, local: &str) -> Option<&'r str> {
        self.attributes()
            .find(|a| a.name.local() == local)
            .map(|a| a.value)
    }

    /// The namespaces this tag declares, `(prefix, uri)` in document order;
    /// `""` is the default namespace.
    pub fn ns_decls(&self) -> impl Iterator<Item = (&'a str, &'r str)> + 'r {
        let reader = self.reader;
        let declared = reader.open.last().map_or(0, |o| o.ns_base);
        reader.ns.decls[declared..]
            .iter()
            .map(move |&(prefix, uri)| (prefix, reader.get(uri)))
    }
}

/// A string of the current event: a range of the input or of the scratch
/// buffer.
#[derive(Clone, Copy)]
pub(crate) struct Val {
    /// Start in the low half, length in the high half: one word, so that a
    /// value is written and copied in one piece.
    range: u64,
    /// One of [`INPUT`], [`SCRATCH`], [`XML_NS`].
    src: u32,
}

const INPUT: u32 = 0;
const SCRATCH: u32 = 1;
/// The namespace every document binds `xml:` to.
const XML_NS: u32 = 2;

/// No namespace: a namespace URI is never empty.
const NO_NS: Val = Val::new(0, 0, INPUT);

impl Val {
    const fn new(start: usize, len: usize, src: u32) -> Self {
        // both below 4 GiB: `Reader::new` checks the input
        Val {
            range: start as u64 | (len as u64) << 32,
            src,
        }
    }

    fn len(self) -> usize {
        (self.range >> 32) as usize
    }

    fn range(self) -> std::ops::Range<usize> {
        let start = self.range as u32 as usize;
        start..start + self.len()
    }
}

#[derive(Clone, Copy)]
struct RawName<'a> {
    raw: &'a str,
    /// [`NO_NS`] or the URI.
    ns: Val,
    /// Byte offset of the `:` in `raw`; 0 when there is no prefix.
    colon: u32,
    /// See [`Name::resolution`].
    slot: u32,
    stamp: u32,
}

/// A resolved name and what it was resolved under. A slot never used holds
/// the empty name, which no tag has.
#[derive(Clone, Copy)]
struct Resolved<'a> {
    name: RawName<'a>,
    is_element: bool,
    epoch: u32,
}

struct RawAttr<'a> {
    name: RawName<'a>,
    value: Val,
}

struct Open<'a> {
    raw_name: &'a str,
    /// Length of `NsScope::decls` before this element's declarations...
    ns_base: usize,
    /// ...and of the scratch prefix they may refer to.
    keep: usize,
}

/// In-scope namespace bindings, innermost last: prefix as written, URI as
/// any other attribute value.
struct NsScope<'a> {
    decls: Vec<(&'a str, Val)>,
    epoch: u32,
}

impl NsScope<'_> {
    fn lookup(&self, prefix: &str) -> Option<Val> {
        let (_, uri) = self.decls.iter().rev().find(|(p, _)| *p == prefix)?;
        // An empty URI undeclares the prefix.
        Some(*uri).filter(|u| u.len() > 0)
    }

    fn truncate(&mut self, len: usize) {
        if self.decls.len() != len {
            self.decls.truncate(len);
            self.epoch += 1;
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Nothing read yet: an XML declaration may come.
    Start,
    Prolog,
    /// Inside the root element.
    Content,
    Epilog,
}

/// What `advance` found: the public [`Event`] minus what it carries, which
/// stays in the reader (`text`, `misc`) — so a step's result is two words.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Raw {
    Start,
    End,
    Text,
    Comment,
    Pi,
    Eof,
}

pub struct Reader<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    phase: Phase,
    ns: NsScope<'a>,
    /// The start tag last reported: the slot of `recent` its name is in and
    /// its attributes (one buffer, reused).
    element: usize,
    attrs: Vec<RawAttr<'a>>,
    /// It was an empty-element tag: its `End` is the next event.
    empty: bool,
    /// Elements whose end tag is still to come.
    open: Vec<Open<'a>>,
    /// Decoded values of the current event after `keep` bytes of namespace
    /// URIs still in scope.
    scratch: String,
    keep: usize,
    /// Direct-mapped cache of resolved names: a name last resolved under
    /// the current namespace epoch costs one string compare — no scan for
    /// a prefix, no lookup, no check.
    recent: [Resolved<'a>; Reader::SLOTS],
    /// Resolutions made so far; the newest one's stamp.
    stamp: u32,
    /// What the last `Text` event carries...
    text: Val,
    /// ...and the last `Comment` (its content) or `Pi` (target, data).
    misc: (&'a str, &'a str),
}

impl<'a> RawName<'a> {
    fn unresolved(raw: &'a str) -> Self {
        RawName {
            raw,
            colon: 0,
            ns: NO_NS,
            slot: 0,
            stamp: 0,
        }
    }
}

const fn is_name_start(b: u8) -> bool {
    matches!(b, b'a'..=b'z' | b'A'..=b'Z' | b'_' | b':' | 0x80..)
}

const fn is_name_char(b: u8) -> bool {
    is_name_start(b) || matches!(b, b'0'..=b'9' | b'.' | b'-')
}

/// [`is_name_char`] by table: names are scanned a byte at a time.
static NAME_CHAR: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = is_name_char(b as u8);
        b += 1;
    }
    table
};

/// The prefix an `xmlns` / `xmlns:p` attribute declares (`""` = default).
fn declared_prefix(attr_name: &str) -> Option<&str> {
    if attr_name == "xmlns" {
        Some("")
    } else {
        attr_name.strip_prefix("xmlns:")
    }
}

/// True if two of `keys` are equal. Pairwise for the usual handful, sorted
/// beyond that: a start tag with 64 k attributes must not cost 2^31
/// comparisons.
fn has_duplicate<K: Ord>(keys: impl Iterator<Item = K> + Clone) -> bool {
    if keys.clone().nth(16).is_none() {
        let mut rest = keys;
        while let Some(k) = rest.next() {
            if rest.clone().any(|other| other == k) {
                return true;
            }
        }
        return false;
    }
    let mut sorted: Vec<K> = keys.collect();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

impl<'a> Reader<'a> {
    /// Size of the table [`Name::resolution`] indexes.
    pub const SLOTS: usize = 64;

    pub fn new(input: &'a str) -> Result<Self, ParseError> {
        if u32::try_from(input.len()).is_err() {
            return Err(ParseError {
                offset: 0,
                message: "document exceeds 4 GiB".into(),
            });
        }
        Ok(Reader {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            phase: Phase::Start,
            ns: NsScope {
                decls: Vec::new(),
                epoch: 0,
            },
            element: 0,
            attrs: Vec::new(),
            empty: false,
            open: Vec::new(),
            scratch: String::new(),
            keep: 0,
            recent: [Resolved {
                name: RawName::unresolved(""),
                is_element: false,
                epoch: 0,
            }; Reader::SLOTS],
            stamp: 0,
            text: NO_NS,
            misc: ("", ""),
        })
    }

    /// The next event. After `Eof` every further call is `Eof` again.
    #[allow(clippy::should_implement_trait)]
    #[inline]
    pub fn next(&mut self) -> Result<Event<'_, 'a>, ParseError> {
        Ok(match self.advance()? {
            Raw::Start => Event::Start(self.start_tag()),
            Raw::End => Event::End,
            Raw::Text => Event::Text(self.text()),
            Raw::Comment => Event::Comment(self.misc.1),
            Raw::Pi => Event::Pi {
                target: self.misc.0,
                data: self.misc.1,
            },
            Raw::Eof => Event::Eof,
        })
    }

    /// The start tag last reported, for a consumer that is handed the reader
    /// after someone else saw the `Start` event.
    pub fn start_tag(&self) -> StartTag<'_, 'a> {
        StartTag { reader: self }
    }

    /// Bytes of input not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The string value of the element whose start tag was last reported —
    /// its character data concatenated, markup inside it checked and ignored
    /// — read through its end tag. Borrowed from the input when that is one
    /// run of text without references.
    pub fn string_value(&mut self) -> Result<std::borrow::Cow<'a, str>, ParseError> {
        use std::borrow::Cow;
        let outside = self.open.len().saturating_sub(1);
        let mut out = Cow::Borrowed("");
        while self.open.len() > outside {
            if self.advance()? == Raw::Text {
                let v = self.text;
                match v.src {
                    INPUT if out.is_empty() => out = Cow::Borrowed(self.input_str(v)),
                    _ => out.to_mut().push_str(self.get(v)),
                }
            }
        }
        Ok(out)
    }

    /// Read through the end tag of the element whose start tag was last
    /// reported, checking what is inside and reporting none of it.
    pub fn skip_element(&mut self) -> Result<(), ParseError> {
        let outside = self.open.len().saturating_sub(1);
        while self.open.len() > outside {
            self.advance()?;
        }
        Ok(())
    }

    #[inline]
    fn input_str(&self, v: Val) -> &'a str {
        &self.input[v.range()]
    }

    /// What the last `Text` event carries.
    #[inline]
    pub(crate) fn text(&self) -> &str {
        self.get(self.text)
    }

    /// What the last `Comment` (its content) or `Pi` (target, data) carries.
    pub(crate) fn misc(&self) -> (&'a str, &'a str) {
        self.misc
    }

    #[inline]
    fn get(&self, v: Val) -> &str {
        match v.src {
            INPUT => self.input_str(v),
            SCRATCH => &self.scratch[v.range()],
            _ => NS_XML,
        }
    }

    fn name<'r>(&'r self, raw: &'r RawName<'a>) -> Name<'r, 'a> {
        Name { raw, reader: self }
    }

    #[cold]
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Fail> {
        Err(Box::new(ParseError {
            offset: self.pos,
            message: msg.into(),
        }))
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, s: &str) -> Result<(), Fail> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            self.err(format!("expected `{}`", s))
        }
    }

    #[inline]
    pub(crate) fn advance(&mut self) -> Result<Raw, Fail> {
        if self.scratch.len() != self.keep {
            self.scratch.truncate(self.keep);
        }
        if self.empty {
            self.empty = false;
            self.close();
            return Ok(Raw::End);
        }
        if self.phase == Phase::Content {
            return self.content();
        }
        self.before_or_after()
    }

    /// One step before or after the root element.
    fn before_or_after(&mut self) -> Result<Raw, Fail> {
        if self.phase == Phase::Start {
            self.skip_ws();
            if self.starts_with("<?xml") {
                self.skip_until("?>")?;
            }
            self.phase = Phase::Prolog;
        }
        // Misc before or after the root element.
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                return self.comment();
            } else if self.starts_with("<!DOCTYPE") && self.phase == Phase::Prolog {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                return self.pi();
            } else {
                break;
            }
        }
        if self.phase == Phase::Epilog {
            if self.pos >= self.bytes.len() {
                return Ok(Raw::Eof);
            }
            return self.err("unexpected content after root element");
        }
        if self.peek() != Some(b'<') {
            return self.err("expected root element");
        }
        self.phase = Phase::Content;
        self.start()
    }

    /// One step between the root's start tag and its end tag.
    #[inline]
    fn content(&mut self) -> Result<Raw, Fail> {
        loop {
            if self.peek().is_none() {
                let open = self.open.last().expect("an element is open");
                return self.err(format!("unterminated element <{}>", open.raw_name));
            } else if self.peek() != Some(b'<') {
                let rest = &self.input[self.pos..];
                let end = self.pos + rest.find('<').unwrap_or(rest.len());
                self.text = self.decode(end)?;
                return Ok(Raw::Text);
            } else if self.starts_with("</") {
                self.end()?;
                return Ok(Raw::End);
            } else if self.starts_with("<!--") {
                return self.comment();
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                match self.find("]]>") {
                    // an empty section is no text at all
                    Some(end) if end == self.pos => self.pos += 3,
                    Some(end) => {
                        self.text = self.verbatim(end, 3);
                        return Ok(Raw::Text);
                    }
                    None => return self.err("unterminated CDATA section"),
                }
            } else if self.starts_with("<?") {
                return self.pi();
            } else {
                return self.start();
            }
        }
    }

    /// Byte offset of the next `needle` at or after `pos`.
    fn find(&self, needle: &str) -> Option<usize> {
        self.input[self.pos..].find(needle).map(|i| self.pos + i)
    }

    fn skip_until(&mut self, end: &str) -> Result<(), Fail> {
        match self.find(end) {
            Some(i) => {
                self.pos = i + end.len();
                Ok(())
            }
            None => self.err(format!("unterminated construct, expected `{}`", end)),
        }
    }

    fn skip_doctype(&mut self) -> Result<(), Fail> {
        // Skip to matching '>' allowing one level of [] internal subset.
        self.expect("<!DOCTYPE")?;
        let mut depth = 0i32;
        while let Some(c) = self.peek() {
            match c {
                b'[' => depth += 1,
                b']' => depth -= 1,
                b'>' if depth <= 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        self.err("unterminated DOCTYPE")
    }

    /// `input[pos..end]` as it stands; continue after `skip` more bytes.
    #[inline]
    fn verbatim(&mut self, end: usize, skip: usize) -> Val {
        let v = Val::new(self.pos, end - self.pos, INPUT);
        self.pos = end + skip;
        v
    }

    fn comment(&mut self) -> Result<Raw, Fail> {
        self.expect("<!--")?;
        match self.find("-->") {
            Some(end) => {
                let v = self.verbatim(end, 3);
                self.misc = ("", self.input_str(v));
                Ok(Raw::Comment)
            }
            None => self.err("unterminated comment"),
        }
    }

    fn pi(&mut self) -> Result<Raw, Fail> {
        self.expect("<?")?;
        let target = self.parse_name()?;
        match self.find("?>") {
            Some(end) => {
                self.skip_ws(); // the data starts after the white space
                let v = self.verbatim(end, 2);
                self.misc = (target, self.input_str(v));
                Ok(Raw::Pi)
            }
            None => self.err("unterminated processing instruction"),
        }
    }

    /// Names are borrowed from the input — the hot path (tag and attribute
    /// names) must not allocate a `String` per occurrence.
    fn parse_name(&mut self) -> Result<&'a str, Fail> {
        let start = self.pos;
        let rest = &self.bytes[start..];
        if !rest.first().is_some_and(|&b| is_name_start(b)) {
            return self.err("expected name");
        }
        let len = rest.iter().take_while(|&&b| NAME_CHAR[b as usize]).count();
        self.pos += len;
        Ok(&self.input[start..self.pos])
    }

    fn end(&mut self) -> Result<(), Fail> {
        let raw_name = self.open.last().expect("an element is open").raw_name;
        self.pos += 2;
        // the usual case is one compare against the name we are waiting for
        let end = self.pos + raw_name.len();
        let matches = self.bytes[self.pos..].starts_with(raw_name.as_bytes())
            && !self.bytes.get(end).is_some_and(|&b| is_name_char(b));
        if !matches {
            let close = self.parse_name()?;
            return self.err(format!(
                "mismatched end tag: expected </{}>, found </{}>",
                raw_name, close
            ));
        }
        self.pos = end;
        self.skip_ws();
        self.expect(">")?;
        self.close();
        Ok(())
    }

    /// The innermost element ends: its namespace declarations go out of
    /// scope.
    fn close(&mut self) {
        let open = self.open.pop().expect("an element is open");
        self.ns.truncate(open.ns_base);
        self.keep = open.keep;
        if self.open.is_empty() {
            self.phase = Phase::Epilog;
        }
    }

    /// A start tag `<name attr="v" ...>` or `<name .../>`: the element is
    /// left on the open stack with its namespace declarations in scope.
    fn start(&mut self) -> Result<Raw, Fail> {
        self.pos += 1; // `<`
        let raw_name = self.parse_name()?;

        // Raw attributes first; namespace decls must be in scope before
        // resolving prefixes (including the element's own).
        self.attrs.clear();
        let ns_base = self.ns.decls.len();
        self.empty = loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    break false;
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    break true;
                }
                Some(_) => {
                    let raw = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    match declared_prefix(raw) {
                        Some(prefix) => self.ns.decls.push((prefix, value)),
                        None => self.attrs.push(RawAttr {
                            name: RawName::unresolved(raw),
                            value,
                        }),
                    }
                }
                None => return self.err("unterminated start tag"),
            }
        };
        let open = Open {
            raw_name,
            ns_base,
            keep: self.keep,
        };
        let declared = self.ns.decls.len() - ns_base;
        if declared > 0 {
            self.ns.epoch += 1;
            let decoded = |d: &(&str, Val)| d.1.src == SCRATCH;
            if self.ns.decls[ns_base..].iter().any(decoded) {
                self.keep = self.scratch.len();
            }
        }

        self.element = self.resolved(raw_name, true)?;
        let stamp = self.recent[self.element].name.stamp;
        for i in 0..self.attrs.len() {
            let slot = self.resolved(self.attrs[i].name.raw, false)?;
            self.attrs[i].name = self.recent[slot].name;
        }
        if self.recent[self.element].name.stamp != stamp {
            // one of its own attributes took the element's slot: take it back
            self.element = self.resolved(raw_name, true)?;
        }
        if declared + self.attrs.len() > 1 {
            let prefixes = self.ns.decls[ns_base..].iter().map(|d| d.0);
            let attributes = self.attrs.iter().map(|a| {
                let n = self.name(&a.name);
                (n.local(), n.ns())
            });
            if has_duplicate(prefixes) || has_duplicate(attributes) {
                return self.err(format!("duplicate attribute in <{}>", raw_name));
            }
        }
        self.open.push(open);
        Ok(Raw::Start)
    }

    /// `input[pos..end]` with entity and character references decoded: the
    /// input itself when there is none, else a copy in the scratch buffer.
    #[inline]
    fn decode(&mut self, end: usize) -> Result<Val, Fail> {
        if self.input.as_bytes()[self.pos..end].contains(&b'&') {
            return self.decode_references(end);
        }
        Ok(self.verbatim(end, 0))
    }

    /// Clean stretches are copied in one append each; the delimiters are
    /// ASCII so no UTF-8 sequence is ever split.
    fn decode_references(&mut self, end: usize) -> Result<Val, Fail> {
        let input = self.input;
        let start = self.scratch.len();
        while self.pos < end {
            let run = &input[self.pos..end];
            let clean = run.find('&').unwrap_or(run.len());
            self.scratch.push_str(&run[..clean]);
            self.pos += clean;
            if self.pos < end {
                let c = self.entity()?;
                self.scratch.push(c);
            }
        }
        Ok(Val::new(start, self.scratch.len() - start, SCRATCH))
    }

    fn attr_value(&mut self) -> Result<Val, Fail> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q as char,
            _ => return self.err("expected quoted attribute value"),
        };
        self.pos += 1;
        let Some(end) = self.input[self.pos..].find(quote).map(|i| self.pos + i) else {
            self.pos = self.bytes.len();
            return self.err("unterminated attribute value");
        };
        if let Some(lt) = self.input[self.pos..end].find('<') {
            self.pos += lt;
            return self.err("`<` not allowed in attribute value");
        }
        let value = self.decode(end)?;
        self.pos = end + 1;
        Ok(value)
    }

    fn entity(&mut self) -> Result<char, Fail> {
        self.expect("&")?;
        let end = match self.input[self.pos..].find(';') {
            Some(i) if i <= 10 => self.pos + i,
            _ => return self.err("unterminated entity reference"),
        };
        let name = &self.input[self.pos..end];
        let code_point = |digits: &str, radix: u32| {
            u32::from_str_radix(digits, radix)
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| {
                    Box::new(ParseError {
                        offset: self.pos,
                        message: format!("bad character reference `&{};`", name),
                    })
                })
        };
        let c = match name {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ if name.starts_with("#x") || name.starts_with("#X") => code_point(&name[2..], 16)?,
            _ if name.starts_with('#') => code_point(&name[1..], 10)?,
            _ => return self.err(format!("unknown entity `&{};`", name)),
        };
        self.pos = end + 1;
        Ok(c)
    }

    /// The slot of `recent` that holds `name` resolved against the in-scope
    /// namespace bindings: found there, or resolved and checked now.
    #[inline(always)]
    fn resolved(&mut self, raw: &'a str, is_element: bool) -> Result<usize, Fail> {
        let b = raw.as_bytes();
        let (first, last) = (b[0] as usize, b[b.len() - 1] as usize);
        let slot = (b.len() + 31 * first + 7 * last + is_element as usize) % Reader::SLOTS;
        let r = &self.recent[slot];
        if r.epoch != self.ns.epoch || r.is_element != is_element || r.name.raw != raw {
            self.resolve(raw, is_element, slot)?;
        }
        Ok(slot)
    }

    fn resolve(&mut self, raw: &'a str, is_element: bool, slot: usize) -> Result<(), Fail> {
        let (colon, ns) = match raw.split_once(':') {
            Some((p, l)) => {
                if p.is_empty() || l.is_empty() || l.contains(':') {
                    return self.err(format!("malformed QName `{}`", raw));
                }
                let ns = match p {
                    "xml" => Val::new(0, NS_XML.len(), XML_NS),
                    _ => match self.ns.lookup(p) {
                        Some(u) => u,
                        None => return self.err(format!("undeclared namespace prefix `{}`", p)),
                    },
                };
                (p.len() as u32, ns)
            }
            // Unprefixed elements pick up the default namespace;
            // unprefixed attributes never do (XML Namespaces §6.2).
            None if is_element => (0, self.ns.lookup("").unwrap_or(NO_NS)),
            None => (0, NO_NS),
        };
        self.stamp += 1;
        self.recent[slot] = Resolved {
            name: RawName {
                raw,
                colon,
                ns,
                slot: slot as u32,
                stamp: self.stamp,
            },
            is_element,
            epoch: self.ns.epoch,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The events of `input`, one line each.
    fn events(input: &str) -> Result<Vec<String>, ParseError> {
        let mut r = Reader::new(input)?;
        let mut out = Vec::new();
        loop {
            out.push(match r.next()? {
                Event::Start(tag) => {
                    let name = tag.name();
                    let mut line = format!("<{{{}}}{}", name.ns().unwrap_or(""), name.local());
                    for (p, u) in tag.ns_decls() {
                        line.push_str(&format!(" xmlns:{p}={u}"));
                    }
                    for a in tag.attributes() {
                        let ns = a.name.ns().unwrap_or("");
                        line.push_str(&format!(" {{{ns}}}{}={}", a.name.local(), a.value));
                    }
                    line
                }
                Event::End => ">".into(),
                Event::Text(t) => format!("text {t}"),
                Event::Comment(c) => format!("comment {c}"),
                Event::Pi { target, data } => format!("pi {target} {data}"),
                Event::Eof => return Ok(out),
            });
        }
    }

    #[test]
    fn events_in_document_order_with_resolved_names() {
        let got = events(
            r#"<?xml version="1.0"?><!--a--><p:r xmlns:p="urn:p" xmlns="urn:d" p:k="1" k="&lt;2"><e/>t&amp;<![CDATA[<c>]]><?pi d ?><x xmlns=""/></p:r><?end?>"#,
        )
        .unwrap();
        assert_eq!(
            got,
            [
                "comment a",
                "<{urn:p}r xmlns:p=urn:p xmlns:=urn:d {urn:p}k=1 {}k=<2",
                "<{urn:d}e",
                ">",
                "text t&",
                "text <c>",
                "pi pi d ",
                "<{}x xmlns:=",
                ">",
                ">",
                "pi end ",
            ]
        );
    }

    #[test]
    fn a_namespace_uri_with_a_reference_stays_in_scope() {
        // the URI is decoded into the scratch buffer, which later values of
        // deeper tags must not overwrite while the declaration stands
        let got = events(
            r#"<a xmlns:p="urn:&amp;x"><p:b k="&lt;&gt;"><c j="&quot;"/><p:d/></p:b><e xmlns:p="u&#65;"><p:f/></e><p:g/></a>"#,
        )
        .unwrap();
        let names: Vec<&String> = got.iter().filter(|l| l.starts_with("<{")).collect();
        assert_eq!(
            names,
            [
                "<{}a xmlns:p=urn:&x",
                "<{urn:&x}b {}k=<>",
                "<{}c {}j=\"",
                "<{urn:&x}d",
                "<{}e xmlns:p=uA",
                "<{uA}f",
                "<{urn:&x}g",
            ]
        );
    }

    #[test]
    fn an_attribute_in_its_elements_cache_slot_leaves_the_element_its_name() {
        // `ab` as an element and `bp` as an attribute fall into one slot
        let got = events(r#"<r><ab bp="1"/><ab bp="2"/></r>"#).unwrap();
        assert_eq!(got[1], "<{}ab {}bp=1");
        assert_eq!(got[3], "<{}ab {}bp=2");
    }

    #[test]
    fn string_value_and_skip_read_through_the_end_tag() {
        let mut r =
            Reader::new("<a><v>one</v><v>t<i>w</i>&#111;<![CDATA[!]]></v><s><t/>x</s><v/></a>")
                .unwrap();
        assert!(matches!(r.next().unwrap(), Event::Start(_)));
        assert!(matches!(r.next().unwrap(), Event::Start(_)));
        // one run of text is lent, not copied
        assert!(matches!(
            r.string_value().unwrap(),
            std::borrow::Cow::Borrowed("one")
        ));
        assert!(matches!(r.next().unwrap(), Event::Start(_)));
        assert_eq!(r.string_value().unwrap(), "two!");
        assert!(matches!(r.next().unwrap(), Event::Start(_)));
        r.skip_element().unwrap();
        assert!(matches!(r.next().unwrap(), Event::Start(_)));
        assert_eq!(r.string_value().unwrap(), "");
        assert!(matches!(r.next().unwrap(), Event::End));
        assert!(matches!(r.next().unwrap(), Event::Eof));
        assert!(matches!(r.next().unwrap(), Event::Eof));
    }

    #[test]
    fn what_is_skipped_is_checked() {
        for bad in [
            "<a><s><u:x/></s></a>",
            "<a><s><t k='1' k='2'/></s></a>",
            "<a><s>&nope;</s></a>",
        ] {
            let mut r = Reader::new(bad).unwrap();
            assert!(matches!(r.next().unwrap(), Event::Start(_)));
            assert!(matches!(r.next().unwrap(), Event::Start(_)));
            assert!(r.skip_element().is_err(), "{bad}");
        }
    }
}
