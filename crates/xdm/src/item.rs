//! Items and sequences — the universal value representation both engines
//! and the XRPC marshaler operate on.

use crate::atomic::AtomicValue;
use crate::error::{XdmError, XdmResult};
use crate::types::{AtomicType, ItemKind, SeqType};
use xmldom::{NodeHandle, NodeKind};

/// One XDM item: an atomic value or a node.
#[derive(Clone, Debug)]
pub enum Item {
    Atomic(AtomicValue),
    Node(NodeHandle),
}

impl Item {
    pub fn integer(i: i64) -> Item {
        Item::Atomic(AtomicValue::Integer(i))
    }

    pub fn string(s: impl Into<String>) -> Item {
        Item::Atomic(AtomicValue::String(s.into()))
    }

    pub fn boolean(b: bool) -> Item {
        Item::Atomic(AtomicValue::Boolean(b))
    }

    pub fn double(d: f64) -> Item {
        Item::Atomic(AtomicValue::Double(d))
    }

    pub fn as_node(&self) -> Option<&NodeHandle> {
        match self {
            Item::Node(n) => Some(n),
            _ => None,
        }
    }

    pub fn as_atomic(&self) -> Option<&AtomicValue> {
        match self {
            Item::Atomic(a) => Some(a),
            _ => None,
        }
    }

    /// `fn:string()` of one item.
    pub fn string_value(&self) -> String {
        match self {
            Item::Atomic(a) => a.lexical(),
            Item::Node(n) => n.string_value(),
        }
    }

    /// Atomization (`fn:data`) of one item: nodes become untypedAtomic of
    /// their string value (we do not carry schema-validated types on nodes),
    /// except attributes annotated with an `xsi:type` we can decode.
    pub fn atomize(&self) -> AtomicValue {
        match self {
            Item::Atomic(a) => a.clone(),
            Item::Node(n) => {
                if let Some(ann) = n.type_annotation() {
                    if let Some(ty) = AtomicType::from_xs_name(ann) {
                        if let Ok(v) = AtomicValue::parse_as(&n.string_value(), ty) {
                            return v;
                        }
                    }
                }
                AtomicValue::UntypedAtomic(n.string_value())
            }
        }
    }

    /// Does this item match the given item kind?
    pub fn matches_kind(&self, kind: &ItemKind) -> bool {
        match (self, kind) {
            (_, ItemKind::AnyItem) => true,
            (Item::Atomic(a), ItemKind::Atomic(t)) => {
                let at = a.atomic_type();
                at == *t
                    // derived type: an integer is a decimal (promotion is
                    // function conversion's, not matching's)
                    || (*t == AtomicType::Decimal && at == AtomicType::Integer)
            }
            (Item::Node(_), ItemKind::AnyNode) => true,
            (Item::Node(n), ItemKind::Element(name)) => {
                n.kind() == NodeKind::Element
                    && name
                        .as_ref()
                        .map(|nm| n.name().is_some_and(|q| &q.local == nm))
                        .unwrap_or(true)
            }
            (Item::Node(n), ItemKind::Attribute(name)) => {
                n.kind() == NodeKind::Attribute
                    && name
                        .as_ref()
                        .map(|nm| n.name().is_some_and(|q| &q.local == nm))
                        .unwrap_or(true)
            }
            (Item::Node(n), ItemKind::DocumentNode) => n.kind() == NodeKind::Document,
            (Item::Node(n), ItemKind::Text) => n.kind() == NodeKind::Text,
            (Item::Node(n), ItemKind::Comment) => n.kind() == NodeKind::Comment,
            (Item::Node(n), ItemKind::Pi) => n.kind() == NodeKind::ProcessingInstruction,
            _ => false,
        }
    }
}

/// Effective boolean value (XQuery §2.4.3) of the sequence `items` are.
pub fn ebv(items: &[Item]) -> XdmResult<bool> {
    match items {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [Item::Atomic(a)] => a.ebv(),
        _ => Err(XdmError::invalid_arg(
            "effective boolean value of a multi-item atomic sequence",
        )),
    }
}

/// A sequence of items. The XDM identifies an item with the singleton
/// sequence containing it; this type keeps that flattening implicit — and
/// holds the singleton in place, so the most common sequence of all costs
/// no allocation (nor does the empty one: an empty `Vec` has none).
#[derive(Clone, Debug)]
pub struct Sequence(Repr);

#[derive(Clone, Debug)]
enum Repr {
    One(Item),
    Many(Vec<Item>),
}

impl Default for Sequence {
    fn default() -> Self {
        Sequence::empty()
    }
}

impl Sequence {
    pub fn empty() -> Self {
        Sequence(Repr::Many(Vec::new()))
    }

    pub fn one(item: Item) -> Self {
        Sequence(Repr::One(item))
    }

    pub fn from_items(items: Vec<Item>) -> Self {
        Sequence(Repr::Many(items))
    }

    pub fn len(&self) -> usize {
        self.items().len()
    }

    pub fn is_empty(&self) -> bool {
        self.items().is_empty()
    }

    pub fn items(&self) -> &[Item] {
        match &self.0 {
            Repr::One(item) => std::slice::from_ref(item),
            Repr::Many(items) => items,
        }
    }

    pub fn items_mut(&mut self) -> &mut [Item] {
        match &mut self.0 {
            Repr::One(item) => std::slice::from_mut(item),
            Repr::Many(items) => items,
        }
    }

    pub fn into_items(self) -> Vec<Item> {
        match self.0 {
            Repr::One(item) => vec![item],
            Repr::Many(items) => items,
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Item> {
        self.items().iter()
    }

    pub fn push(&mut self, item: Item) {
        match &mut self.0 {
            // a vector that owns a block (filled or reserved) keeps it
            Repr::Many(items) if items.capacity() > 0 => items.push(item),
            Repr::Many(_) => self.0 = Repr::One(item),
            Repr::One(_) => {
                let mut items = std::mem::take(self).into_items();
                items.push(item);
                self.0 = Repr::Many(items);
            }
        }
    }

    /// Append `other`; into an empty sequence it moves whole.
    pub fn extend(&mut self, other: Sequence) {
        if self.is_empty() {
            *self = other;
        } else if !other.is_empty() {
            let mut items = std::mem::take(self).into_items();
            match other.0 {
                Repr::One(item) => items.push(item),
                Repr::Many(more) => items.extend(more),
            }
            self.0 = Repr::Many(items);
        }
    }

    pub fn first(&self) -> Option<&Item> {
        self.items().first()
    }

    /// Exactly-one-item accessor with a type error otherwise.
    pub fn singleton(&self) -> XdmResult<&Item> {
        match self.items() {
            [item] => Ok(item),
            items => Err(XdmError::type_error(format!(
                "expected a singleton sequence, got {} items",
                items.len()
            ))),
        }
    }

    /// Zero-or-one accessor.
    pub fn zero_or_one(&self) -> XdmResult<Option<&Item>> {
        match self.items() {
            [] => Ok(None),
            [item] => Ok(Some(item)),
            items => Err(XdmError::type_error(format!(
                "expected at most one item, got {}",
                items.len()
            ))),
        }
    }

    /// Effective boolean value (XQuery §2.4.3).
    pub fn ebv(&self) -> XdmResult<bool> {
        ebv(self.items())
    }

    /// Atomize every item (`fn:data`).
    pub fn atomized(&self) -> Vec<AtomicValue> {
        self.iter().map(|i| i.atomize()).collect()
    }

    /// The string value of the whole sequence, space-joined (serialization
    /// of atomic sequences).
    pub fn joined_string(&self) -> String {
        self.iter()
            .map(|i| i.string_value())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Check against a sequence type; returns a type error on mismatch.
    pub fn check_type(&self, st: &SeqType) -> XdmResult<()> {
        if st.kind == ItemKind::EmptySequence {
            return if self.is_empty() {
                Ok(())
            } else {
                Err(XdmError::type_error("expected empty-sequence()"))
            };
        }
        if !st.occurrence.accepts(self.len()) {
            return Err(XdmError::type_error(format!(
                "cardinality {} does not match {}",
                self.len(),
                st
            )));
        }
        for it in self.iter() {
            if !it.matches_kind(&st.kind) {
                return Err(XdmError::type_error(format!("item does not match {}", st)));
            }
        }
        Ok(())
    }
}

impl From<Vec<Item>> for Sequence {
    fn from(items: Vec<Item>) -> Self {
        Sequence::from_items(items)
    }
}

impl IntoIterator for Sequence {
    type Item = Item;
    /// The singleton, then the many: one of the two halves is always empty.
    type IntoIter = std::iter::Chain<std::option::IntoIter<Item>, std::vec::IntoIter<Item>>;
    fn into_iter(self) -> Self::IntoIter {
        let (one, many) = match self.0 {
            Repr::One(item) => (Some(item), Vec::new()),
            Repr::Many(items) => (None, items),
        };
        one.into_iter().chain(many)
    }
}

impl FromIterator<Item> for Sequence {
    fn from_iter<T: IntoIterator<Item = Item>>(iter: T) -> Self {
        Sequence::from_items(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmldom::parse;

    #[test]
    fn ebv_of_sequences() {
        assert!(!Sequence::empty().ebv().unwrap());
        assert!(Sequence::one(Item::boolean(true)).ebv().unwrap());
        assert!(!Sequence::one(Item::string("")).ebv().unwrap());
        let d = Arc::new(parse("<a/>").unwrap());
        let n = Item::Node(NodeHandle::root(d));
        // node-first sequence is always true, even multi-item
        let mut s = Sequence::one(n);
        s.push(Item::integer(0));
        assert!(s.ebv().unwrap());
        // multi-item atomic errors
        let s2 = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(s2.ebv().is_err());
    }

    #[test]
    fn atomize_node_is_untyped() {
        let d = Arc::new(parse("<a>42</a>").unwrap());
        let a = d.first_child(d.root()).unwrap();
        let it = Item::Node(NodeHandle::new(d, a));
        match it.atomize() {
            AtomicValue::UntypedAtomic(s) => assert_eq!(s, "42"),
            other => panic!("expected untypedAtomic, got {other:?}"),
        }
    }

    #[test]
    fn atomize_respects_xsi_type_annotation() {
        let d = Arc::new(
            parse(
                r#"<v xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xs:integer">7</v>"#,
            )
            .unwrap(),
        );
        let v = d.first_child(d.root()).unwrap();
        let it = Item::Node(NodeHandle::new(d, v));
        match it.atomize() {
            AtomicValue::Integer(7) => {}
            other => panic!("expected integer 7, got {other:?}"),
        }
    }

    #[test]
    fn singleton_and_zero_or_one() {
        let s = Sequence::one(Item::integer(1));
        assert!(s.singleton().is_ok());
        assert!(Sequence::empty().singleton().is_err());
        assert!(Sequence::empty().zero_or_one().unwrap().is_none());
        let s2 = Sequence::from_items(vec![Item::integer(1), Item::integer(2)]);
        assert!(s2.zero_or_one().is_err());
    }

    #[test]
    fn type_checking() {
        use crate::types::*;
        let s = Sequence::from_items(vec![Item::string("a"), Item::string("b")]);
        s.check_type(&SeqType::star(ItemKind::Atomic(AtomicType::String)))
            .unwrap();
        assert!(s
            .check_type(&SeqType::one(ItemKind::Atomic(AtomicType::String)))
            .is_err());
        assert!(s
            .check_type(&SeqType::star(ItemKind::Atomic(AtomicType::Integer)))
            .is_err());
        // integer matches xs:decimal (derived)
        Sequence::one(Item::integer(3))
            .check_type(&SeqType::one(ItemKind::Atomic(AtomicType::Decimal)))
            .unwrap();
        Sequence::empty().check_type(&SeqType::empty()).unwrap();
    }

    #[test]
    fn node_kind_matching() {
        use crate::types::*;
        let d = Arc::new(parse(r#"<person id="1"><name>x</name></person>"#).unwrap());
        let p = d.first_child(d.root()).unwrap();
        let ph = Item::Node(NodeHandle::new(d.clone(), p));
        assert!(ph.matches_kind(&ItemKind::Element(None)));
        assert!(ph.matches_kind(&ItemKind::Element(Some("person".into()))));
        assert!(!ph.matches_kind(&ItemKind::Element(Some("film".into()))));
        let attr = d.attributes(p).next().unwrap();
        let ah = Item::Node(NodeHandle::new(d.clone(), attr));
        assert!(ah.matches_kind(&ItemKind::Attribute(Some("id".into()))));
        assert!(!ah.matches_kind(&ItemKind::Element(None)));
    }
}
