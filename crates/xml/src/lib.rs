//! Minimal XML substrate for the Starlink reproduction.
//!
//! The Starlink case study bridges SOAP, XML-RPC and the Picasa GData feed —
//! all XML wire formats. Rather than pulling an external dependency, this
//! crate implements the small XML subset those protocols need, from scratch:
//!
//! * a streaming [`Reader`] producing [`Event`]s,
//! * a [`Element`] DOM with ordered attributes and children,
//! * a writer ([`Element::to_xml`] / [`Element::to_pretty_xml`]),
//! * entity escaping/unescaping ([`escape`], [`unescape`]),
//! * simple descendant selection ([`Element::find`], [`Element::find_all`],
//!   [`Element::select`]) with namespace-prefix-insensitive matching.
//!
//! Supported: elements, attributes (single or double quoted), text, CDATA,
//! comments, processing instructions, the XML declaration, the five
//! predefined entities and decimal/hex character references.
//! Not supported (not needed by any protocol here): DTDs, external
//! entities (a deliberate security exclusion), and full namespace URI
//! resolution.
//!
//! # Example
//!
//! ```
//! use starlink_xml::Element;
//!
//! let doc = Element::parse("<methodCall><methodName>add</methodName></methodCall>")?;
//! assert_eq!(doc.find("methodName").unwrap().text(), "add");
//! # Ok::<(), starlink_xml::XmlError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dom;
mod error;
mod escape;
mod reader;
mod writer;

pub use dom::{Attribute, Element, Node, MAX_DEPTH};
pub use error::XmlError;
pub use escape::{escape, escape_attr, unescape};
pub use reader::{Event, Reader};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, XmlError>;
