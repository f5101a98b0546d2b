use crate::error::XmlError;
use crate::reader::{Event, Reader};
use std::fmt;

/// The deepest element nesting [`Element::parse`] accepts (the root is
/// depth 1). Parsing recurses once per level, and so do the tree's
/// walks, `Drop` included, so this bound keeps one hostile document from
/// overflowing the stack; deeper input is rejected with
/// [`XmlError::TooDeep`].
pub const MAX_DEPTH: usize = 256;

/// A name/value attribute pair (value stored unescaped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, prefix included.
    pub name: String,
    /// Unescaped attribute value.
    pub value: String,
}

/// A child node of an element.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (entities already resolved; CDATA merged in).
    Text(String),
}

impl Node {
    /// The node as an element, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }
}

/// An XML element: name, ordered attributes, ordered children.
///
/// The local name matching used by [`Element::find`]/[`Element::select`]
/// ignores namespace prefixes, so `find("Body")` matches `<soap:Body>` —
/// exactly the looseness the Starlink message parsers need when different
/// SOAP stacks choose different prefixes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Element {
    /// Tag name, prefix included.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<Attribute>,
    /// Children in document order.
    pub children: Vec<Node>,
}

/// Strips an optional `prefix:` from a tag or attribute name.
pub(crate) fn local_name(name: &str) -> &str {
    match name.rfind(':') {
        Some(i) => &name[i + 1..],
        None => name,
    }
}

impl Element {
    /// Creates an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Element {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: adds an attribute.
    #[must_use]
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Element {
        self.set_attr(name, value);
        self
    }

    /// Builder-style: adds a child element.
    #[must_use]
    pub fn with_child(mut self, child: Element) -> Element {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: adds a text child.
    #[must_use]
    pub fn with_text(mut self, text: impl Into<String>) -> Element {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Upserts an attribute by exact name.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(a) = self.attributes.iter_mut().find(|a| a.name == name) {
            a.value = value;
        } else {
            self.attributes.push(Attribute { name, value });
        }
    }

    /// Attribute lookup by name; falls back to local-name matching.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|a| a.name == name)
            .or_else(|| self.attributes.iter().find(|a| local_name(&a.name) == name))
            .map(|a| a.value.as_str())
    }

    /// The element's local name (prefix stripped).
    pub fn local_name(&self) -> &str {
        local_name(&self.name)
    }

    /// Concatenated text of all descendant text nodes.
    pub fn text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                Node::Text(t) => out.push_str(t),
                Node::Element(e) => e.collect_text(out),
            }
        }
    }

    /// Child *elements* in document order.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// First direct child element whose local name matches.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.local_name() == name)
    }

    /// First descendant element (depth-first, self excluded) whose local
    /// name matches.
    pub fn find(&self, name: &str) -> Option<&Element> {
        for e in self.child_elements() {
            if e.local_name() == name {
                return Some(e);
            }
            if let Some(found) = e.find(name) {
                return Some(found);
            }
        }
        None
    }

    /// All descendant elements (depth-first) whose local name matches.
    pub fn find_all<'e>(&'e self, name: &'e str) -> Vec<&'e Element> {
        let mut out = Vec::new();
        self.find_all_into(name, &mut out);
        out
    }

    fn find_all_into<'e>(&'e self, name: &str, out: &mut Vec<&'e Element>) {
        for e in self.child_elements() {
            if e.local_name() == name {
                out.push(e);
            }
            e.find_all_into(name, out);
        }
    }

    /// Resolves a `/`-separated path of local names from this element:
    /// `select("Body/add/x")` walks direct children level by level.
    /// A `*` step matches any child element.
    pub fn select(&self, path: &str) -> Option<&Element> {
        let mut current = self;
        for step in path.split('/').filter(|s| !s.is_empty()) {
            current = if step == "*" {
                current.child_elements().next()?
            } else {
                current.child(step)?
            };
        }
        Some(current)
    }

    /// Parses a document and returns its root element.
    ///
    /// # Errors
    ///
    /// Returns [`XmlError`] on malformed input, a missing root,
    /// trailing non-whitespace content, or nesting deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Element, XmlError> {
        let mut reader = Reader::new(input);
        // Skip prolog.
        let root = loop {
            match reader.next_event()? {
                Event::Declaration(_) | Event::ProcessingInstruction(_) | Event::Comment(_) => {}
                Event::Text(t) if t.trim().is_empty() => {}
                Event::StartElement {
                    name,
                    attributes,
                    self_closing,
                } => {
                    let mut el = Element {
                        name,
                        attributes,
                        children: Vec::new(),
                    };
                    if !self_closing {
                        read_children(&mut reader, &mut el, 1)?;
                    }
                    break el;
                }
                Event::Eof => return Err(XmlError::NoRootElement),
                _ => {
                    return Err(XmlError::Syntax {
                        message: "unexpected content before root element".into(),
                        offset: reader.offset(),
                    })
                }
            }
        };
        // Only whitespace/comments may follow.
        loop {
            match reader.next_event()? {
                Event::Eof => return Ok(root),
                Event::Text(t) if t.trim().is_empty() => {}
                Event::Comment(_) | Event::ProcessingInstruction(_) => {}
                _ => {
                    return Err(XmlError::TrailingContent {
                        offset: reader.offset(),
                    })
                }
            }
        }
    }
}

/// Reads `parent`'s content up to its closing tag; `depth` is the
/// parent's nesting depth.
fn read_children(
    reader: &mut Reader<'_>,
    parent: &mut Element,
    depth: usize,
) -> Result<(), XmlError> {
    loop {
        match reader.next_event()? {
            Event::StartElement {
                name,
                attributes,
                self_closing,
            } => {
                if depth >= MAX_DEPTH {
                    return Err(XmlError::TooDeep {
                        limit: MAX_DEPTH,
                        offset: reader.offset(),
                    });
                }
                let mut el = Element {
                    name,
                    attributes,
                    children: Vec::new(),
                };
                if !self_closing {
                    read_children(reader, &mut el, depth + 1)?;
                }
                parent.children.push(Node::Element(el));
            }
            Event::EndElement { name } => {
                if name != parent.name {
                    return Err(XmlError::MismatchedTag {
                        expected: parent.name.clone(),
                        found: name,
                        offset: reader.offset(),
                    });
                }
                return Ok(());
            }
            Event::Text(t) => {
                if !t.is_empty() {
                    parent.children.push(Node::Text(t));
                }
            }
            Event::CData(t) => parent.children.push(Node::Text(t)),
            Event::Comment(_) | Event::ProcessingInstruction(_) | Event::Declaration(_) => {}
            Event::Eof => {
                return Err(XmlError::UnexpectedEof {
                    context: "element content",
                })
            }
        }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_nested_document() {
        let e = Element::parse("<a><b attr=\"v\"><c>text</c></b></a>").unwrap();
        assert_eq!(e.name, "a");
        let b = e.child("b").unwrap();
        assert_eq!(b.attr("attr"), Some("v"));
        assert_eq!(b.child("c").unwrap().text(), "text");
    }

    #[test]
    fn mismatched_tags_rejected() {
        assert!(matches!(
            Element::parse("<a><b></a></b>"),
            Err(XmlError::MismatchedTag { .. })
        ));
    }

    #[test]
    fn trailing_content_rejected() {
        assert!(matches!(
            Element::parse("<a/>extra"),
            Err(XmlError::TrailingContent { .. })
        ));
        // Trailing whitespace and comments are fine.
        assert!(Element::parse("<a/> <!-- ok --> ").is_ok());
    }

    #[test]
    fn empty_input_has_no_root() {
        assert_eq!(Element::parse("  "), Err(XmlError::NoRootElement));
    }

    #[test]
    fn local_name_matching() {
        let e = Element::parse(
            "<soap:Envelope><soap:Body><m:add><x>1</x></m:add></soap:Body></soap:Envelope>",
        )
        .unwrap();
        assert_eq!(e.local_name(), "Envelope");
        let body = e.find("Body").unwrap();
        let add = body.child("add").unwrap();
        assert_eq!(add.child("x").unwrap().text(), "1");
        assert_eq!(e.select("Body/add/x").unwrap().text(), "1");
    }

    #[test]
    fn select_with_wildcard() {
        let e = Element::parse("<r><any><inner>5</inner></any></r>").unwrap();
        assert_eq!(e.select("*/inner").unwrap().text(), "5");
        assert!(e.select("missing/inner").is_none());
    }

    #[test]
    fn find_all_collects_in_document_order() {
        let e =
            Element::parse("<feed><entry>1</entry><x><entry>2</entry></x><entry>3</entry></feed>")
                .unwrap();
        let entries = e.find_all("entry");
        let texts: Vec<String> = entries.iter().map(|e| e.text()).collect();
        assert_eq!(texts, vec!["1", "2", "3"]);
    }

    #[test]
    fn cdata_becomes_text() {
        let e = Element::parse("<r><![CDATA[a < b]]></r>").unwrap();
        assert_eq!(e.text(), "a < b");
    }

    #[test]
    fn attr_local_name_fallback() {
        let e = Element::parse("<r ns:type=\"photo\"/>").unwrap();
        assert_eq!(e.attr("ns:type"), Some("photo"));
        assert_eq!(e.attr("type"), Some("photo"));
        assert_eq!(e.attr("missing"), None);
    }

    #[test]
    fn builders_compose() {
        let e = Element::new("params")
            .with_child(Element::new("param").with_text("1"))
            .with_attr("n", "1");
        assert_eq!(e.child("param").unwrap().text(), "1");
        assert_eq!(e.attr("n"), Some("1"));
    }

    fn nested(levels: usize) -> String {
        format!("{}{}", "<a>".repeat(levels), "</a>".repeat(levels))
    }

    #[test]
    fn nesting_up_to_the_limit_parses() {
        let mut e = &Element::parse(&nested(MAX_DEPTH)).unwrap();
        let mut depth = 1;
        while let Some(child) = e.child("a") {
            e = child;
            depth += 1;
        }
        assert_eq!(depth, MAX_DEPTH);
        assert!(matches!(
            Element::parse(&nested(MAX_DEPTH + 1)),
            Err(XmlError::TooDeep {
                limit: MAX_DEPTH,
                ..
            })
        ));
        // A self-closing element counts as a level too.
        let too_deep = format!(
            "{}<b/>{}",
            "<a>".repeat(MAX_DEPTH),
            "</a>".repeat(MAX_DEPTH)
        );
        assert!(matches!(
            Element::parse(&too_deep),
            Err(XmlError::TooDeep { .. })
        ));
    }

    #[test]
    fn hostile_nesting_is_an_error_on_a_small_stack() {
        // 100 000 levels would overflow a 2 MiB stack (and abort the
        // process) if parsing recursed without a bound.
        let levels = 100_000;
        let handle = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let doc = nested(levels);
                let unclosed = "<a>".repeat(levels);
                (Element::parse(&doc), Element::parse(&unclosed))
            })
            .unwrap();
        let (closed, unclosed) = handle.join().unwrap();
        assert!(matches!(closed, Err(XmlError::TooDeep { .. })));
        assert!(matches!(unclosed, Err(XmlError::TooDeep { .. })));
    }

    #[test]
    fn set_attr_upserts() {
        let mut e = Element::new("x");
        e.set_attr("a", "1");
        e.set_attr("a", "2");
        assert_eq!(e.attributes.len(), 1);
        assert_eq!(e.attr("a"), Some("2"));
    }
}
