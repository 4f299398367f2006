//! Segment string pool: a deduplicating dictionary built at encode
//! time, and a fully-validated zero-copy view over the decoded bytes.
//!
//! Layout (all little-endian):
//!
//! ```text
//! u32 count            n strings
//! u32 offsets[n + 1]   byte offsets into the blob, monotone, first 0
//! u8  blob[...]        concatenated UTF-8
//! ```
//!
//! The view validates every offset and every string's UTF-8 once at
//! open, so the hot query path hands out `&str` slices with no
//! per-access checks.

use std::collections::HashMap;

use crate::codec::{put_u32, Cursor, U32Col};
use crate::error::{StoreError, StoreResult};

/// Pool id meaning "no string" (`Option::None`, builtin origin).
pub const NO_STRING: u32 = u32::MAX;

/// Deduplicating string-pool builder used while a segment accumulates.
#[derive(Debug, Default)]
pub struct PoolBuilder {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl PoolBuilder {
    /// Interns `s`, returning its pool id.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.strings.len() as u32;
        assert!(id < NO_STRING, "string pool exhausted");
        self.strings.push(s.to_owned());
        self.ids.insert(s.to_owned(), id);
        id
    }

    /// Interns `Some(s)`, or returns [`NO_STRING`].
    pub fn intern_opt(&mut self, s: Option<&str>) -> u32 {
        match s {
            Some(s) => self.intern(s),
            None => NO_STRING,
        }
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Serializes the pool in the segment layout.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.strings.len() as u32);
        let mut offset = 0u32;
        for s in &self.strings {
            put_u32(out, offset);
            offset += s.len() as u32;
        }
        put_u32(out, offset);
        for s in &self.strings {
            out.extend_from_slice(s.as_bytes());
        }
    }

    /// Drops all interned strings (segment sealed).
    pub fn clear(&mut self) {
        self.strings.clear();
        self.ids.clear();
    }
}

/// Validated zero-copy view of an encoded pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolView<'a> {
    offsets: U32Col<'a>,
    blob: &'a [u8],
}

impl<'a> PoolView<'a> {
    /// Parses and fully validates the pool bytes: monotone offsets
    /// bounded by the blob, UTF-8 everywhere. After this, `get` never
    /// fails.
    pub fn parse(bytes: &'a [u8]) -> StoreResult<PoolView<'a>> {
        let mut cursor = Cursor::new(bytes);
        let count = cursor.u32("pool count")? as usize;
        let offsets_bytes = cursor.take((count + 1) * 4, "pool offsets")?;
        let offsets = U32Col::new(offsets_bytes, count + 1, "pool offsets")?;
        let blob = cursor.take(cursor.remaining(), "pool blob")?;
        if offsets.get(0) != 0 {
            return Err(StoreError::malformed("pool: first offset not 0"));
        }
        let mut prev = 0u32;
        for i in 0..=count {
            let off = offsets.get(i);
            if off < prev {
                return Err(StoreError::malformed(format!(
                    "pool: offset {i} decreases ({off} < {prev})"
                )));
            }
            prev = off;
        }
        if prev as usize != blob.len() {
            return Err(StoreError::malformed(format!(
                "pool: final offset {prev} != blob length {}",
                blob.len()
            )));
        }
        for i in 0..count {
            let span = &blob[offsets.get(i) as usize..offsets.get(i + 1) as usize];
            if std::str::from_utf8(span).is_err() {
                return Err(StoreError::malformed(format!("pool: string {i} not UTF-8")));
            }
        }
        Ok(PoolView { offsets, blob })
    }

    /// Number of strings in the pool.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` when the pool holds no strings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The string at `id`; classified error on out-of-range ids (a
    /// column referencing a string the pool doesn't have).
    pub fn get(&self, id: u32, what: &str) -> StoreResult<&'a str> {
        if id as usize >= self.len() {
            return Err(StoreError::malformed(format!(
                "{what}: pool id {id} out of range (pool holds {})",
                self.len()
            )));
        }
        let span = &self.blob
            [self.offsets.get(id as usize) as usize..self.offsets.get(id as usize + 1) as usize];
        // SAFETY: `id` is in range, and `parse` rejected the pool unless
        // every span `offsets[i]..offsets[i + 1]` is valid UTF-8.
        Ok(unsafe { std::str::from_utf8_unchecked(span) })
    }

    /// `Some(str)` unless `id` is [`NO_STRING`].
    pub fn get_opt(&self, id: u32, what: &str) -> StoreResult<Option<&'a str>> {
        if id == NO_STRING {
            return Ok(None);
        }
        self.get(id, what).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_dedups() {
        let mut builder = PoolBuilder::default();
        let a = builder.intern("alpha");
        let b = builder.intern("beta");
        let a2 = builder.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(builder.intern_opt(None), NO_STRING);
        let mut bytes = Vec::new();
        builder.encode(&mut bytes);
        let view = PoolView::parse(&bytes).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(view.get(a, "t").unwrap(), "alpha");
        assert_eq!(view.get(b, "t").unwrap(), "beta");
        assert_eq!(view.get_opt(NO_STRING, "t").unwrap(), None);
        assert!(view.get(7, "t").is_err());
    }

    #[test]
    fn rejects_corrupt_offsets() {
        let mut builder = PoolBuilder::default();
        builder.intern("abc");
        let mut bytes = Vec::new();
        builder.encode(&mut bytes);
        // Flip the final offset past the blob.
        bytes[8] = 0xff;
        let err = PoolView::parse(&bytes).unwrap_err();
        assert_eq!(err.kind, crate::StoreErrorKind::Malformed);
    }

    #[test]
    fn rejects_non_utf8_blob() {
        let mut builder = PoolBuilder::default();
        builder.intern("ab");
        let mut bytes = Vec::new();
        builder.encode(&mut bytes);
        let blob_at = bytes.len() - 2;
        bytes[blob_at] = 0xff;
        let err = PoolView::parse(&bytes).unwrap_err();
        assert_eq!(err.kind, crate::StoreErrorKind::Malformed);
    }
}
