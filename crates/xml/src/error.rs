use std::fmt;

/// Errors produced while parsing or writing XML.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum XmlError {
    /// The input ended in the middle of a construct.
    UnexpectedEof {
        /// What the parser was reading when input ran out.
        context: &'static str,
    },
    /// A syntactic error at a byte offset.
    Syntax {
        /// Human-readable description.
        message: String,
        /// Byte offset in the input.
        offset: usize,
    },
    /// A closing tag did not match the open element.
    MismatchedTag {
        /// The element that was open.
        expected: String,
        /// The closing tag actually found.
        found: String,
        /// Byte offset of the closing tag.
        offset: usize,
    },
    /// An undefined entity reference such as `&nbsp;`.
    UnknownEntity {
        /// The entity name without `&`/`;`.
        name: String,
    },
    /// The document contained no root element.
    NoRootElement,
    /// Content found after the root element closed.
    TrailingContent {
        /// Byte offset of the trailing content.
        offset: usize,
    },
    /// Elements nested deeper than the parser accepts.
    TooDeep {
        /// The deepest nesting accepted ([`crate::MAX_DEPTH`]).
        limit: usize,
        /// Byte offset just past the start tag that went too deep.
        offset: usize,
    },
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while reading {context}")
            }
            XmlError::Syntax { message, offset } => {
                write!(f, "xml syntax error at offset {offset}: {message}")
            }
            XmlError::MismatchedTag {
                expected,
                found,
                offset,
            } => write!(
                f,
                "mismatched closing tag at offset {offset}: expected </{expected}>, found </{found}>"
            ),
            XmlError::UnknownEntity { name } => write!(f, "unknown entity `&{name};`"),
            XmlError::NoRootElement => write!(f, "document has no root element"),
            XmlError::TrailingContent { offset } => {
                write!(f, "content after root element at offset {offset}")
            }
            XmlError::TooDeep { limit, offset } => {
                write!(f, "elements nested deeper than {limit} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for XmlError {}
