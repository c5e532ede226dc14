//! XML escaping helpers shared by the serializer and the protocol layer.
//!
//! Hot path: every character that needs escaping is ASCII, so we scan raw
//! bytes and copy clean spans with one `push_str` instead of matching per
//! `char`. Multi-byte UTF-8 sequences never contain bytes < 0x80, so the
//! byte scan cannot split a code point.

/// True for bytes that must be escaped inside character data.
#[inline]
fn text_special(b: u8) -> bool {
    matches!(b, b'<' | b'>' | b'&' | b'\r')
}

/// True for bytes that must be escaped inside a double-quoted attribute.
#[inline]
fn attr_special(b: u8) -> bool {
    matches!(b, b'<' | b'&' | b'"' | b'\t' | b'\n' | b'\r')
}

#[inline]
fn text_entity(b: u8) -> &'static str {
    match b {
        b'<' => "&lt;",
        b'>' => "&gt;",
        b'&' => "&amp;",
        _ => "&#13;", // \r
    }
}

#[inline]
fn attr_entity(b: u8) -> &'static str {
    match b {
        b'<' => "&lt;",
        b'&' => "&amp;",
        b'"' => "&quot;",
        b'\t' => "&#9;",
        b'\n' => "&#10;",
        _ => "&#13;", // \r
    }
}

/// Core span-copying loop shared by the text and attribute variants.
#[inline]
fn push_escaped(
    out: &mut String,
    s: &str,
    special: fn(u8) -> bool,
    entity: fn(u8) -> &'static str,
) {
    let bytes = s.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if special(b) {
            // Safety of slicing: `start..i` ends on an ASCII special byte,
            // which is always a char boundary.
            out.push_str(&s[start..i]);
            out.push_str(entity(b));
            start = i + 1;
        }
        i += 1;
    }
    out.push_str(&s[start..]);
}

/// Append escaped text without an intermediate allocation.
pub fn push_escaped_text(out: &mut String, s: &str) {
    push_escaped(out, s, text_special, text_entity);
}

/// Append an escaped attribute value without an intermediate allocation.
pub fn push_escaped_attr(out: &mut String, s: &str) {
    push_escaped(out, s, attr_special, attr_entity);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text(s: &str) -> String {
        let mut out = String::new();
        push_escaped_text(&mut out, s);
        out
    }

    fn attr(s: &str) -> String {
        let mut out = String::new();
        push_escaped_attr(&mut out, s);
        out
    }

    #[test]
    fn text_escaping() {
        assert_eq!(text("a<b>&c"), "a&lt;b&gt;&amp;c");
    }

    #[test]
    fn attr_escaping() {
        assert_eq!(attr("\"x\" <&>"), "&quot;x&quot; &lt;&amp;>");
        assert_eq!(attr("a\nb"), "a&#10;b");
    }

    #[test]
    fn clean_strings_append_verbatim() {
        let mut out = String::from("<p>");
        push_escaped_text(&mut out, "plain text");
        push_escaped_attr(&mut out, "plain");
        assert_eq!(out, "<p>plain textplain");
    }

    #[test]
    fn carriage_return_and_controls() {
        assert_eq!(text("a\rb"), "a&#13;b");
        assert_eq!(attr("a\t\r\nb"), "a&#9;&#13;&#10;b");
    }

    #[test]
    fn multibyte_utf8_around_specials() {
        assert_eq!(text("é<ü&日本語>"), "é&lt;ü&amp;日本語&gt;");
        assert_eq!(attr("\u{1F600}\"\u{1F600}"), "\u{1F600}&quot;\u{1F600}");
    }

    #[test]
    fn specials_at_boundaries() {
        assert_eq!(text("<a>"), "&lt;a&gt;");
        assert_eq!(text("&"), "&amp;");
        assert_eq!(text(""), "");
        assert_eq!(attr("\""), "&quot;");
    }
}
