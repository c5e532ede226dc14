//! A small fluent builder for constructing documents programmatically
//! (used heavily by the protocol layer and the workload generators).

use crate::node::{Document, NodeId};
use crate::qname::QName;

/// Builder over a [`Document`] with a cursor stack.
pub struct DocBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl DocBuilder {
    pub fn new() -> Self {
        let doc = Document::new();
        let root = doc.root();
        DocBuilder {
            doc,
            stack: vec![root],
        }
    }

    fn top(&self) -> NodeId {
        *self.stack.last().expect("builder stack never empty")
    }

    /// Open an element (no namespace) and descend into it.
    pub fn open(mut self, name: &str) -> Self {
        let e = self.doc.create_element(QName::local(name));
        self.doc.append_child(self.top(), e);
        self.stack.push(e);
        self
    }

    /// Open a namespaced element and descend into it.
    pub fn open_ns(mut self, prefix: &str, uri: &str, local: &str) -> Self {
        let e = self.doc.create_element(QName::ns(prefix, uri, local));
        self.doc.append_child(self.top(), e);
        self.stack.push(e);
        self
    }

    /// Declare a namespace on the current element.
    pub fn ns_decl(mut self, prefix: &str, uri: &str) -> Self {
        let top = self.top();
        self.doc.add_ns_decl(top, prefix, uri);
        self
    }

    /// Add an attribute (no namespace) to the current element.
    pub fn attr(mut self, name: &str, value: &str) -> Self {
        let top = self.top();
        self.doc.set_attribute(top, QName::local(name), value);
        self
    }

    /// Add a namespaced attribute to the current element.
    pub fn attr_ns(mut self, prefix: &str, uri: &str, local: &str, value: &str) -> Self {
        let top = self.top();
        self.doc
            .set_attribute(top, QName::ns(prefix, uri, local), value);
        self
    }

    /// Append a text node under the current element.
    pub fn text(mut self, value: &str) -> Self {
        let t = self.doc.create_text(value);
        self.doc.append_child(self.top(), t);
        self
    }

    /// Append a comment under the current element.
    pub fn comment(mut self, value: &str) -> Self {
        let c = self.doc.create_comment(value);
        self.doc.append_child(self.top(), c);
        self
    }

    /// Import a subtree from another document under the current element.
    pub fn import(mut self, src: &Document, src_id: NodeId) -> Self {
        let copy = self.doc.import_subtree(src, src_id);
        self.doc.append_child(self.top(), copy);
        self
    }

    /// Close the current element.
    pub fn close(mut self) -> Self {
        assert!(self.stack.len() > 1, "unbalanced close()");
        self.stack.pop();
        self
    }

    /// Finish; panics if elements are left open.
    pub fn build(self) -> Document {
        assert_eq!(self.stack.len(), 1, "unclosed elements at build()");
        self.doc
    }

    /// Access the document under construction (for advanced tweaks).
    pub fn doc_mut(&mut self) -> &mut Document {
        &mut self.doc
    }

    /// The current element id (e.g. to stash for later).
    pub fn current(&self) -> NodeId {
        self.top()
    }
}

impl Default for DocBuilder {
    fn default() -> Self {
        DocBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::{serialize_document, SerializeOpts};

    #[test]
    fn fluent_building() {
        let doc = DocBuilder::new()
            .open("films")
            .open("film")
            .attr("year", "1996")
            .open("name")
            .text("The Rock")
            .close()
            .close()
            .close()
            .build();
        assert_eq!(
            serialize_document(&doc, &SerializeOpts::default()),
            r#"<films><film year="1996"><name>The Rock</name></film></films>"#
        );
    }

    #[test]
    fn namespaced_building() {
        let doc = DocBuilder::new()
            .open_ns("env", "http://www.w3.org/2003/05/soap-envelope", "Envelope")
            .ns_decl("env", "http://www.w3.org/2003/05/soap-envelope")
            .open_ns("env", "http://www.w3.org/2003/05/soap-envelope", "Body")
            .close()
            .close()
            .build();
        let s = serialize_document(&doc, &SerializeOpts::default());
        assert!(s.contains("<env:Envelope xmlns:env="));
        assert!(s.contains("<env:Body/>"));
    }

    #[test]
    #[should_panic(expected = "unclosed elements")]
    fn unbalanced_build_panics() {
        let _ = DocBuilder::new().open("a").build();
    }
}
