//! Normalized URL paths.
//!
//! The paper's URL table is "a multi-level hash table, in which each level
//! corresponds to a level in the content tree" (§5.2). That design needs a
//! path representation with cheap access to individual segments, which is
//! what [`UrlPath`] provides.

use crate::error::ModelError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A normalized, absolute URL path such as `/images/logo.gif`.
///
/// Invariants maintained by construction:
///
/// - always begins with `/`,
/// - no empty segments (`//` is collapsed), no `.`/`..` segments,
/// - no query string or fragment (stripped on parse),
/// - stored segment offsets allow O(1) access to each level.
///
/// # Example
///
/// ```
/// use cpms_model::UrlPath;
///
/// let p: UrlPath = "/a/b/c.html?x=1".parse().unwrap();
/// assert_eq!(p.as_str(), "/a/b/c.html");
/// assert_eq!(p.depth(), 3);
/// assert_eq!(p.segment(1), Some("b"));
/// assert_eq!(p.extension(), Some("html"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[serde(try_from = "String", into = "String")]
pub struct UrlPath {
    normalized: String,
}

impl UrlPath {
    /// The root path `/`.
    pub fn root() -> Self {
        UrlPath {
            normalized: "/".to_string(),
        }
    }

    /// Parses and normalizes a path.
    ///
    /// Query strings (`?...`) and fragments (`#...`) are stripped; duplicate
    /// slashes are collapsed.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPath`] if the input is empty, does not
    /// start with `/`, contains `.` or `..` segments, or contains control
    /// characters or whitespace.
    pub fn parse(input: &str) -> Result<Self, ModelError> {
        if input.is_empty() {
            return Err(ModelError::InvalidPath {
                input: input.to_string(),
                reason: "empty path",
            });
        }
        // Strip query string and fragment: routing is on the path component.
        let path_part = input
            .split_once('?')
            .map(|(p, _)| p)
            .unwrap_or(input)
            .split_once('#')
            .map(|(p, _)| p)
            .unwrap_or_else(|| input.split_once('?').map(|(p, _)| p).unwrap_or(input));
        if !path_part.starts_with('/') {
            return Err(ModelError::InvalidPath {
                input: input.to_string(),
                reason: "path must start with '/'",
            });
        }
        if path_part.bytes().any(|b| b.is_ascii_control() || b == b' ') {
            return Err(ModelError::InvalidPath {
                input: input.to_string(),
                reason: "path contains whitespace or control characters",
            });
        }
        let mut normalized = String::with_capacity(path_part.len());
        for seg in path_part.split('/').filter(|s| !s.is_empty()) {
            if seg == "." || seg == ".." {
                return Err(ModelError::InvalidPath {
                    input: input.to_string(),
                    reason: "path contains '.' or '..' segments",
                });
            }
            normalized.push('/');
            normalized.push_str(seg);
        }
        if normalized.is_empty() {
            normalized.push('/');
        }
        Ok(UrlPath { normalized })
    }

    /// The normalized path text.
    pub fn as_str(&self) -> &str {
        &self.normalized
    }

    /// Whether this is the root path `/`.
    pub fn is_root(&self) -> bool {
        self.normalized == "/"
    }

    /// Number of segments (levels in the content tree). The root has depth 0.
    pub fn depth(&self) -> usize {
        if self.is_root() {
            0
        } else {
            self.normalized.matches('/').count()
        }
    }

    /// Iterates over the path's segments in order.
    pub fn segments(&self) -> impl Iterator<Item = &str> {
        self.normalized.split('/').filter(|s| !s.is_empty())
    }

    /// The `level`-th segment (0-based), if any.
    pub fn segment(&self, level: usize) -> Option<&str> {
        self.segments().nth(level)
    }

    /// The final segment (file name), if any.
    pub fn file_name(&self) -> Option<&str> {
        self.segments().last()
    }

    /// The file extension of the final segment, lowercased range not applied
    /// (returned as written), if any.
    pub fn extension(&self) -> Option<&str> {
        let name = self.file_name()?;
        let (stem, ext) = name.rsplit_once('.')?;
        if stem.is_empty() {
            None // dotfiles like `/.htaccess` have no extension
        } else {
            Some(ext)
        }
    }

    /// The parent directory path; `None` for the root.
    pub fn parent(&self) -> Option<UrlPath> {
        if self.is_root() {
            return None;
        }
        let idx = self.normalized.rfind('/').expect("non-root path has '/'");
        if idx == 0 {
            Some(UrlPath::root())
        } else {
            Some(UrlPath {
                normalized: self.normalized[..idx].to_string(),
            })
        }
    }

    /// Appends a single segment, returning the child path.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidPath`] if `segment` is empty, contains a
    /// slash, whitespace, control characters, or is `.`/`..`.
    pub fn join(&self, segment: &str) -> Result<UrlPath, ModelError> {
        if segment.is_empty()
            || segment.contains('/')
            || segment == "."
            || segment == ".."
            || segment.bytes().any(|b| b.is_ascii_control() || b == b' ')
        {
            return Err(ModelError::InvalidPath {
                input: segment.to_string(),
                reason: "invalid segment",
            });
        }
        let mut normalized = if self.is_root() {
            String::new()
        } else {
            self.normalized.clone()
        };
        normalized.push('/');
        normalized.push_str(segment);
        Ok(UrlPath { normalized })
    }

    /// Whether `self` equals `ancestor` or lies beneath it in the tree.
    ///
    /// ```
    /// use cpms_model::UrlPath;
    /// let dir: UrlPath = "/images".parse().unwrap();
    /// let file: UrlPath = "/images/logo.gif".parse().unwrap();
    /// assert!(file.starts_with(&dir));
    /// assert!(!dir.starts_with(&file));
    /// ```
    pub fn starts_with(&self, ancestor: &UrlPath) -> bool {
        if ancestor.is_root() {
            return true;
        }
        self.normalized == ancestor.normalized
            || (self.normalized.starts_with(&ancestor.normalized)
                && self.normalized.as_bytes().get(ancestor.normalized.len()) == Some(&b'/'))
    }
}

impl fmt::Display for UrlPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.normalized)
    }
}

impl FromStr for UrlPath {
    type Err = ModelError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        UrlPath::parse(s)
    }
}

impl TryFrom<String> for UrlPath {
    type Error = ModelError;
    fn try_from(value: String) -> Result<Self, Self::Error> {
        UrlPath::parse(&value)
    }
}

impl From<UrlPath> for String {
    fn from(p: UrlPath) -> String {
        p.normalized
    }
}

impl AsRef<str> for UrlPath {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_normalizes() {
        let p = UrlPath::parse("/a//b/").unwrap();
        assert_eq!(p.as_str(), "/a/b");
        assert_eq!(p.depth(), 2);
    }

    #[test]
    fn strips_query_and_fragment() {
        assert_eq!(UrlPath::parse("/x?y=1").unwrap().as_str(), "/x");
        assert_eq!(UrlPath::parse("/x#frag").unwrap().as_str(), "/x");
        assert_eq!(
            UrlPath::parse("/cgi/run?q=a#b").unwrap().as_str(),
            "/cgi/run"
        );
    }

    #[test]
    fn root_properties() {
        let r = UrlPath::root();
        assert!(r.is_root());
        assert_eq!(r.depth(), 0);
        assert_eq!(r.parent(), None);
        assert_eq!(r.file_name(), None);
        assert_eq!(UrlPath::parse("/").unwrap(), r);
        assert_eq!(UrlPath::parse("///").unwrap(), r);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(UrlPath::parse("").is_err());
        assert!(UrlPath::parse("relative/path").is_err());
        assert!(UrlPath::parse("/has space").is_err());
        assert!(UrlPath::parse("/has\ttab").is_err());
        assert!(UrlPath::parse("/a/../b").is_err());
        assert!(UrlPath::parse("/a/./b").is_err());
    }

    #[test]
    fn segments_and_levels() {
        let p = UrlPath::parse("/products/cgi-bin/list.cgi").unwrap();
        assert_eq!(
            p.segments().collect::<Vec<_>>(),
            ["products", "cgi-bin", "list.cgi"]
        );
        assert_eq!(p.segment(0), Some("products"));
        assert_eq!(p.segment(2), Some("list.cgi"));
        assert_eq!(p.segment(3), None);
        assert_eq!(p.file_name(), Some("list.cgi"));
        assert_eq!(p.extension(), Some("cgi"));
    }

    #[test]
    fn extension_edge_cases() {
        assert_eq!(UrlPath::parse("/no_ext").unwrap().extension(), None);
        assert_eq!(UrlPath::parse("/.htaccess").unwrap().extension(), None);
        assert_eq!(UrlPath::parse("/a.b.c").unwrap().extension(), Some("c"));
    }

    #[test]
    fn parent_chain() {
        let p = UrlPath::parse("/a/b/c").unwrap();
        let b = p.parent().unwrap();
        assert_eq!(b.as_str(), "/a/b");
        let a = b.parent().unwrap();
        assert_eq!(a.as_str(), "/a");
        assert_eq!(a.parent().unwrap(), UrlPath::root());
    }

    #[test]
    fn join_builds_children() {
        let p = UrlPath::root().join("img").unwrap().join("x.gif").unwrap();
        assert_eq!(p.as_str(), "/img/x.gif");
        assert!(UrlPath::root().join("a/b").is_err());
        assert!(UrlPath::root().join("").is_err());
        assert!(UrlPath::root().join("..").is_err());
    }

    #[test]
    fn starts_with_is_tree_prefix() {
        let dir = UrlPath::parse("/img").unwrap();
        let file = UrlPath::parse("/img/x.gif").unwrap();
        let sibling = UrlPath::parse("/imgs/x.gif").unwrap();
        assert!(file.starts_with(&dir));
        assert!(dir.starts_with(&dir));
        assert!(!sibling.starts_with(&dir)); // "/imgs" is not under "/img"
        assert!(file.starts_with(&UrlPath::root()));
    }

    #[test]
    fn serde_roundtrip() {
        let p = UrlPath::parse("/a/b").unwrap();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(json, "\"/a/b\"");
        let back: UrlPath = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        assert!(serde_json::from_str::<UrlPath>("\"nope\"").is_err());
    }
}
