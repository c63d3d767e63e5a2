//! Encoded sequences and zero-copy views.

use crate::alphabet::Alphabet;
use crate::error::SeqError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Identifier of a sequence within a database or query set.
///
/// A `SeqId` is the *original* (pre-sorting) index; the preprocessing stage
/// in `sw-swdb` permutes sequences by length but always carries `SeqId`s so
/// results can be reported in terms the user supplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SeqId(pub u32);

impl fmt::Display for SeqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An owned, encoded sequence with its human-visible header.
///
/// Residues are dense codes (see [`Alphabet`]), not ASCII. The header is
/// shared via `Arc<str>` because databases copy headers into result lists.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncodedSeq {
    /// FASTA header (without the leading `>`), e.g. `sp|P02232|...`.
    pub header: Arc<str>,
    /// Dense residue codes.
    pub residues: Vec<u8>,
}

impl EncodedSeq {
    /// Encode `text` under `alphabet` (lenient mode: unknown letters become
    /// the alphabet's unknown code).
    pub fn from_text(header: &str, text: &[u8], alphabet: &Alphabet) -> Result<Self, SeqError> {
        if text.is_empty() {
            return Err(SeqError::EmptySequence);
        }
        Ok(EncodedSeq {
            header: header.into(),
            residues: alphabet.encode_lenient(text)?,
        })
    }

    /// Residue count.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when the sequence holds no residues (never constructed this way).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }

    /// Borrow the residues as a [`SeqView`].
    #[inline]
    pub fn view(&self) -> SeqView<'_> {
        SeqView {
            residues: &self.residues,
        }
    }
}

/// A borrowed slice of encoded residues — what kernels actually consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqView<'a> {
    /// Dense residue codes.
    pub residues: &'a [u8],
}

impl<'a> SeqView<'a> {
    /// Wrap a pre-encoded residue slice.
    #[inline]
    pub fn new(residues: &'a [u8]) -> Self {
        SeqView { residues }
    }

    /// Residue count.
    #[inline]
    pub fn len(&self) -> usize {
        self.residues.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.residues.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EncodedSeq {
        /// Decode back to ASCII for display.
        fn to_text(&self, alphabet: &Alphabet) -> String {
            String::from_utf8(alphabet.decode(&self.residues)).expect("alphabet symbols are ASCII")
        }
    }

    #[test]
    fn from_text_encodes() {
        let a = Alphabet::protein();
        let s = EncodedSeq::from_text("q1", b"ARND", &a).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s.residues, vec![0, 1, 2, 3]);
        assert_eq!(s.to_text(&a), "ARND");
    }

    #[test]
    fn empty_rejected() {
        let a = Alphabet::protein();
        assert_eq!(
            EncodedSeq::from_text("q", b"", &a).unwrap_err(),
            SeqError::EmptySequence
        );
    }

    #[test]
    fn view_borrows() {
        let a = Alphabet::protein();
        let s = EncodedSeq::from_text("q", b"WWW", &a).unwrap();
        let v = s.view();
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.residues, &s.residues[..]);
    }

    #[test]
    fn seqid_display() {
        assert_eq!(SeqId(42).to_string(), "#42");
    }

    #[test]
    fn lenient_unknown_in_from_text() {
        let a = Alphabet::protein();
        let s = EncodedSeq::from_text("q", b"AUA", &a).unwrap();
        assert_eq!(s.to_text(&a), "AXA");
    }
}
