//! Workload generators: XMark-like documents (persons / auctions), the
//! running-example film database, and payload documents for the
//! throughput experiments.
//!
//! The paper evaluates on XMark data: `persons.xml` (1.1 MB, 250 persons)
//! at the MonetDB peer and `auctions.xml` (50 MB, 4875 closed auctions) at
//! the Saxon peer, with 6 matches between them (§5, Table 4). These
//! generators reproduce the *schema shape* the queries touch and make
//! sizes and match selectivity parameters, so the experiments can be run
//! at laptop scale with the same structure (see DESIGN.md substitutions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Parameters for the persons/auctions pair.
#[derive(Clone, Debug)]
pub struct XmarkParams {
    pub persons: usize,
    pub closed_auctions: usize,
    /// Exactly this many closed auctions reference an existing person id;
    /// the rest reference ids outside the persons document.
    pub matches: usize,
    /// Free-text padding per item, to scale document size.
    pub padding_words: usize,
    pub seed: u64,
}

impl Default for XmarkParams {
    fn default() -> Self {
        // the paper's counts (sizes scaled down via padding_words)
        XmarkParams {
            persons: 250,
            closed_auctions: 4875,
            matches: 6,
            padding_words: 20,
            seed: 42,
        }
    }
}

const WORDS: &[&str] = &[
    "auction", "gold", "silver", "vintage", "rare", "mint", "lot", "bid", "proxy", "estate",
    "antique", "carved", "painted", "signed", "original", "limited", "edition", "classic",
    "ornate", "restored",
];

fn words(rng: &mut StdRng, n: usize, out: &mut String) {
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
}

/// Generate `persons.xml`: `<site><people><person id="personN">...`.
pub fn persons_xml(p: &XmarkParams) -> String {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut out = String::with_capacity(p.persons * (120 + 8 * p.padding_words));
    out.push_str("<site><people>");
    for i in 0..p.persons {
        let _ = write!(
            out,
            r#"<person id="person{i}"><name>Person {i}</name><emailaddress>mailto:person{i}@example.org</emailaddress><profile income="{}"><interest category="category{}"/><education>"#,
            rng.gen_range(10_000..100_000),
            rng.gen_range(0..10),
        );
        words(&mut rng, p.padding_words / 2, &mut out);
        out.push_str("</education></profile></person>");
    }
    out.push_str("</people></site>");
    out
}

/// Generate `auctions.xml`: items plus closed auctions with
/// `<buyer person="..."/>` and `<annotation>`.
pub fn auctions_xml(p: &XmarkParams) -> String {
    let mut rng = StdRng::seed_from_u64(p.seed.wrapping_add(1));
    let mut out = String::with_capacity(p.closed_auctions * (200 + 8 * p.padding_words));
    out.push_str("<site><closed_auctions>");
    // choose which auctions match an existing person (spread evenly)
    let stride = if p.matches > 0 {
        (p.closed_auctions / p.matches.max(1)).max(1)
    } else {
        usize::MAX
    };
    let mut matched = 0usize;
    for i in 0..p.closed_auctions {
        let is_match = matched < p.matches && i % stride == 0;
        let buyer = if is_match {
            matched += 1;
            // reference an existing person id
            format!("person{}", (i / stride) % p.persons.max(1))
        } else {
            format!("absent{i}")
        };
        let _ = write!(
            out,
            r#"<closed_auction><seller person="seller{i}"/><buyer person="{buyer}"/><itemref item="item{i}"/><price>{}</price><date>07/{:02}/2006</date><annotation><description>"#,
            rng.gen_range(1..1000),
            rng.gen_range(1..28),
        );
        words(&mut rng, p.padding_words, &mut out);
        out.push_str("</description></annotation></closed_auction>");
    }
    out.push_str("</closed_auctions></site>");
    out
}

/// The running-example film database (paper §2).
pub fn film_db() -> &'static str {
    r#"<films>
<film><name>The Rock</name><actor>Sean Connery</actor></film>
<film><name>Goldfinger</name><actor>Sean Connery</actor></film>
<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>
<film><name>The Sound of Music</name><actor>Julie Andrews</actor></film>
<film><name>Mary Poppins</name><actor>Julie Andrews</actor></film>
</films>"#
}

/// The film module of the paper's examples.
pub fn film_module() -> &'static str {
    r#"module namespace film = "films";
declare function film:filmsByActor($actor as xs:string) as node()*
{ doc("filmDB.xml")//name[../actor = $actor] };"#
}

/// The echoVoid test module (§3.3).
pub fn test_module() -> &'static str {
    r#"module namespace tst = "test";
declare function tst:echoVoid() { () };
declare function tst:echo($x) { $x };
declare function tst:payload($n as xs:integer) as node()*
{ for $i in (1 to $n) return doc("payload.xml")/payload/chunk };"#
}

/// The getPerson module (§4).
pub fn functions_module() -> &'static str {
    r#"module namespace func = "functions";
declare function func:getPerson($doc as xs:string, $pid as xs:string) as node()?
{ zero-or-one(doc($doc)//person[@id = $pid]) };"#
}

/// An XML payload document of roughly `bytes` serialized size (for the
/// §3.3 throughput experiment: scaling request/response payloads).
pub fn payload_xml(bytes: usize) -> String {
    let chunk =
        "<chunk>0123456789abcdefghijklmnopqrstuvwxyz0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ</chunk>";
    let n = bytes / chunk.len() + 1;
    let mut out = String::with_capacity(bytes + 64);
    out.push_str("<payload>");
    for _ in 0..n {
        out.push_str(chunk);
    }
    out.push_str("</payload>");
    out
}

/// A small document that has one of everything a serializer treats
/// differently, for seeded differentials: every node kind, attribute values
/// and text that need escaping, CDATA sections, empty elements, and default
/// and prefixed namespaces declared at several depths, declared again with
/// another URI, and (the default) undeclared.
pub fn mixed_xml(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = String::from("<!--prolog--><?pi prolog?>");
    mixed_element(&mut rng, 4, &mut Vec::new(), &mut out);
    out.push_str("<!--epilog-->");
    out
}

/// One element; `bound` is the prefixes in scope.
fn mixed_element(rng: &mut StdRng, depth: u32, bound: &mut Vec<&'static str>, out: &mut String) {
    let in_scope = bound.len();
    let mut decls = String::new();
    for prefix in ["p", "q"] {
        // the first element binds both, so a name can always use either
        if in_scope == 0 || rng.gen_bool(0.15) {
            let uri = rng.gen_range(0..3);
            let _ = write!(decls, " xmlns:{prefix}=\"urn:{prefix}&amp;{uri}\"");
            bound.push(prefix);
        }
    }
    match rng.gen_range(0..8) {
        0 => decls.push_str(" xmlns=\"urn:default\""),
        1 => decls.push_str(" xmlns=\"urn:other\""),
        2 => decls.push_str(" xmlns=\"\""),
        _ => {}
    }
    let local = ["a", "b", "item", "x-y"][rng.gen_range(0..4usize)];
    let name = match rng.gen_range(0..4) {
        0 => format!("{}:{local}", bound[rng.gen_range(0..bound.len())]),
        _ => local.to_string(),
    };
    let _ = write!(out, "<{name}{decls}");
    for attr in ["k", "id", "p:k", "q:id"] {
        if rng.gen_bool(0.25) {
            let value =
                ["", "v", "&quot;&lt;&amp;&gt;'", "a&#9;b&#10;c", "é✓"][rng.gen_range(0..5usize)];
            let _ = write!(out, " {attr}=\"{value}\"");
        }
    }
    let kids = if depth == 0 { 0 } else { rng.gen_range(0..5) };
    if kids == 0 {
        out.push_str("/>");
    } else {
        out.push('>');
        // (no two runs of text side by side: a parser makes them one node)
        let mut after_text = false;
        for _ in 0..kids {
            let kid = rng.gen_range(if after_text { 3..7 } else { 0..7 });
            after_text = kid < 3;
            match kid {
                0 => out.push_str("t &lt;&amp;&gt; \"'"),
                1 => out.push_str("<![CDATA[<raw> & ]]>"),
                2 => out.push_str("plain é✓"),
                3 => out.push_str("<!-- c < & -->"),
                4 => out.push_str("<?target d < & ?>"),
                _ => mixed_element(rng, depth - 1, bound, out),
            }
        }
        let _ = write!(out, "</{name}>");
    }
    bound.truncate(in_scope);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persons_parse_and_count() {
        let p = XmarkParams {
            persons: 25,
            closed_auctions: 50,
            matches: 3,
            padding_words: 4,
            seed: 1,
        };
        let doc = xmldom::parse(&persons_xml(&p)).unwrap();
        let mut count = 0;
        for id in doc.all_ids() {
            if doc
                .node(id)
                .name
                .as_ref()
                .is_some_and(|n| n.local == "person")
            {
                count += 1;
            }
        }
        assert_eq!(count, 25);
    }

    #[test]
    fn auctions_parse_with_exact_match_count() {
        let p = XmarkParams {
            persons: 25,
            closed_auctions: 50,
            matches: 5,
            padding_words: 4,
            seed: 1,
        };
        let persons = persons_xml(&p);
        let auctions = auctions_xml(&p);
        let pd = xmldom::parse(&persons).unwrap();
        let ad = xmldom::parse(&auctions).unwrap();
        // collect person ids
        let mut ids = std::collections::HashSet::new();
        for id in pd.all_ids() {
            if pd
                .node(id)
                .name
                .as_ref()
                .is_some_and(|n| n.local == "person")
            {
                ids.insert(pd.attr_local(id, "id").unwrap().to_string());
            }
        }
        let mut matches = 0;
        for id in ad.all_ids() {
            if ad
                .node(id)
                .name
                .as_ref()
                .is_some_and(|n| n.local == "buyer")
                && ids.contains(ad.attr_local(id, "person").unwrap())
            {
                matches += 1;
            }
        }
        assert_eq!(matches, 5);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = XmarkParams::default();
        assert_eq!(persons_xml(&p), persons_xml(&p));
        assert_eq!(auctions_xml(&p), auctions_xml(&p));
    }

    #[test]
    fn padding_scales_size() {
        let small = XmarkParams {
            padding_words: 2,
            ..Default::default()
        };
        let big = XmarkParams {
            padding_words: 50,
            ..Default::default()
        };
        assert!(auctions_xml(&big).len() > 2 * auctions_xml(&small).len());
    }

    #[test]
    fn payload_size_approximate() {
        for target in [1024, 100_000] {
            let xml = payload_xml(target);
            assert!(xml.len() >= target);
            assert!(xml.len() < target + 200);
            xmldom::parse(&xml).unwrap();
        }
    }

    #[test]
    fn modules_parse() {
        xqast::parse_library_module(film_module()).unwrap();
        xqast::parse_library_module(test_module()).unwrap();
        xqast::parse_library_module(functions_module()).unwrap();
        xmldom::parse(film_db()).unwrap();
    }

    #[test]
    fn mixed_documents_parse_and_have_every_node_kind() {
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..50 {
            let xml = mixed_xml(seed);
            let doc = xmldom::parse(&xml).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{xml}"));
            kinds.extend(doc.all_ids().map(|id| doc.kind(id)));
            assert_eq!(xml, mixed_xml(seed));
        }
        assert_eq!(kinds.len(), 6);
    }
}
