//! A small object store on top of a RAID-6 array — the kind of
//! application the paper's introduction motivates (cloud/object storage on
//! dependable arrays). Demonstrates that the array layer is a real block
//! device: the store's own metadata lives *inside* the array (first
//! elements of the address space), so a store can be re-opened from a
//! (possibly degraded) array alone.
//!
//! The store is written against [`ElementIo`]: it runs on a
//! [`ResilientArray`](crate::ResilientArray) — retries, checksums and
//! hot-spare rebuild underneath — or on a wrapper that counts or times
//! the array's element I/O.
//!
//! Design: a fixed metadata region at the front holds the index, one
//! independent **page** per element; objects are allocated first-fit on
//! element ranges after it, and every byte path goes through RAID-6
//! encode/recover. There is no compaction.
//!
//! A value goes to a free extent, which holds nothing anyone reads back,
//! so the store writes it with [`ElementIo::write_unshared`]: over a
//! journaled [`ResilientArray`](crate::ResilientArray), a stripe the
//! extent covers whole is written under one header-only resync record for
//! the whole value instead of an intent record holding its parity, and
//! the stripes it shares with other extents or index pages at its two
//! ends are journaled as by `write_elements`. Placement is first-fit and
//! nothing else: the value is not moved to a stripe boundary, so the
//! store holds exactly what a first-fit store holds, and a value smaller
//! than a stripe's data, or one that straddles a boundary without
//! covering a stripe, is journaled in full.
//!
//! # The index on the medium
//!
//! Every integer is little-endian. A page is one element:
//!
//! ```text
//! "DCI" · version 0x01 · count u32 · count × record · zero padding
//! record = name_len u32 · name (UTF-8, not empty) · start u64 · len u64
//! ```
//!
//! `start` is the extent's first element, `len` the object's byte length.
//! Both are fixed-width, so an overwrite changes a record's bytes and
//! never its size, and a record lies whole inside the page that holds it.
//! A key's record stays in its page for as long as the key lives; a new
//! key goes to the first page with room for its record.
//!
//! # What a mutation guarantees across a crash
//!
//! Every mutation rewrites **at most one page** — one element of the
//! array. Over an array whose one-element `write_elements` is old-or-new
//! across a crash and returns only once it is durable (a journaled
//! [`ResilientArray`](crate::ResilientArray); swept as `small-write` and
//! `meta-write` by [`crashsim`](crate::crashsim)), the index is therefore
//! the one before the mutation or the one after it, at every instant.
//! There is no log to replay, no order among pages and nothing to tear.
//! And the index on the medium never names bytes that were not written
//! first:
//!
//! * An overwrite of a key whose value is one element, with a value of the
//!   same byte length, changes no byte of the key's record, so it writes
//!   no page: it is one `write_elements` of that element where it is. The
//!   element is old-or-new across a crash for the same reason a page is,
//!   and the index names it throughout, so the key reads its previous
//!   value or the new one and nothing else (swept as
//!   `store-overwrite-small`). A write the array refuses writes nothing,
//!   and the store's memory is not touched. A value of two or more
//!   elements gets no such write — a crash between its element writes
//!   would leave it neither old nor new under an index that still names
//!   it — and is copy-on-write like any other overwrite.
//! * Every other [`put`](ObjectStore::put) and
//!   [`upsert`](ObjectStore::upsert) writes the value into a free extent
//!   — durable when [`write_unshared`](ElementIo::write_unshared)
//!   returns, as after `write_elements` — then rewrites the key's page. A
//!   crash before the page lands leaves the previous index: a new key is
//!   absent, an overwritten key still reads its previous value, whose
//!   extent was never touched. After it, the key reads the new value.
//!   There is no instant at which an acknowledged key is unnamed.
//! * [`delete`](ObjectStore::delete) rewrites the key's page without the
//!   record: the key reads its value or is absent, never anything else.
//! * A mutation the store or the array refuses ([`StoreError::NoSpace`]
//!   for the value or for the index, an array beyond its fault
//!   tolerance) leaves memory and medium agreeing on the state before it.
//!   An index with no room for a new key's record refuses the put before
//!   the value is written; an overwrite always has room (same record).
//!
//! **The space rule.** An overwrite is copy-on-write, so it needs a free
//! extent of the new value's size *while the old value is still
//! allocated*; a store without one returns [`StoreError::NoSpace`] and the
//! old value stays readable. The one exception is the same-length
//! overwrite of a one-element value, written in place: it needs no free
//! element. For a value of more than one element, and for any change of
//! length, there is no in-place fallback — it would put back the window
//! in which a crash loses an acknowledged value. The old extent is free
//! as soon as the overwrite returns.

use crate::device::{ArrayError, ElementIo};
use crate::resilient::JournalMutation;
use std::collections::BTreeMap;
use std::fmt;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying array failure (out of range, too many failed disks…).
    Array(ArrayError),
    /// No contiguous free range large enough.
    NoSpace {
        /// Elements requested.
        needed: usize,
    },
    /// Object name not present.
    NotFound(String),
    /// Object name already present.
    Exists(String),
    /// The name is empty, or its record does not fit an index page.
    BadName(String),
    /// The on-array index is malformed (corrupted or not a store).
    BadIndex(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Array(e) => write!(f, "array error: {e}"),
            StoreError::NoSpace { needed } => write!(f, "no space for {needed} elements"),
            StoreError::NotFound(n) => write!(f, "object '{n}' not found"),
            StoreError::Exists(n) => write!(f, "object '{n}' already exists"),
            StoreError::BadName(n) => write!(f, "invalid object name '{n}'"),
            StoreError::BadIndex(why) => write!(f, "corrupt index: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ArrayError> for StoreError {
    fn from(e: ArrayError) -> Self {
        StoreError::Array(e)
    }
}

/// What starts every index page: a tag and the format's version.
const PAGE_MAGIC: [u8; 4] = *b"DCI\x01";
/// The magic, then the record count.
const PAGE_HEADER: usize = PAGE_MAGIC.len() + 4;
/// A record's bytes beside its name: `name_len`, `start`, `len`.
const RECORD_FIXED: usize = 4 + 8 + 8;

/// What the index holds for one object.
struct Entry {
    /// The index page (element of the metadata region) holding the record.
    page: usize,
    /// First element of the extent.
    start: usize,
    /// Object length in bytes.
    len: usize,
}

/// An object store over any RAID-6 array implementing [`ElementIo`].
pub struct ObjectStore<D: ElementIo> {
    array: D,
    /// Elements reserved for the index at the front of the address space:
    /// one page each.
    meta_elements: usize,
    index: BTreeMap<String, Entry>,
    /// Planted ordering bug (crash-sweep self-test only).
    mutation: Option<JournalMutation>,
}

/// Split `n` bytes off the front of `rest`, if it has that many.
fn take<'a>(rest: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if n > rest.len() {
        return None;
    }
    let (head, tail) = rest.split_at(n);
    *rest = tail;
    Some(head)
}

fn take_array<const N: usize>(rest: &mut &[u8]) -> Option<[u8; N]> {
    take(rest, N)?.try_into().ok()
}

/// One record off the front of `rest`: `(name bytes, start, len)`.
fn take_record<'a>(rest: &mut &'a [u8]) -> Option<(&'a [u8], u64, u64)> {
    let name_len = u32::from_le_bytes(take_array(rest)?);
    let name = take(rest, usize::try_from(name_len).ok()?)?;
    let start = u64::from_le_bytes(take_array(rest)?);
    let len = u64::from_le_bytes(take_array(rest)?);
    Some((name, start, len))
}

/// The `(name, start, len)` records of one index page, or what is wrong
/// with it. The bytes come from the medium: every length is checked
/// against what is left of the page before it is used.
pub(crate) fn parse_page(mut rest: &[u8]) -> Result<Vec<(&str, u64, u64)>, String> {
    if take(&mut rest, PAGE_MAGIC.len()) != Some(&PAGE_MAGIC[..]) {
        return Err("no page magic".into());
    }
    let count = take_array(&mut rest).map(u32::from_le_bytes);
    let count = count.ok_or("shorter than a page header")?;
    let mut records = Vec::new();
    for i in 0..count {
        let Some((name, start, len)) = take_record(&mut rest) else {
            return Err(format!("record {i} of {count} runs past the page"));
        };
        let name = std::str::from_utf8(name)
            .map_err(|e| format!("record {i}: name not UTF-8 at byte {}", e.valid_up_to()))?;
        if name.is_empty() {
            return Err(format!("record {i}: empty name"));
        }
        records.push((name, start, len));
    }
    if rest.iter().any(|&byte| byte != 0) {
        return Err(format!("bytes after the last of {count} record(s)"));
    }
    Ok(records)
}

/// Whether the region starts with a `name,start,len` line: the text index
/// every `dcode` before the page format wrote.
fn starts_with_text_index(region: &[u8]) -> bool {
    let line = region.split(|&byte| byte == b'\n').next().unwrap_or(&[]);
    let mut fields = line.rsplit(|&byte| byte == b',');
    let number = |field: Option<&[u8]>| {
        field.is_some_and(|f| !f.is_empty() && f.iter().all(u8::is_ascii_digit))
    };
    number(fields.next()) && number(fields.next()) && fields.next().is_some()
}

impl<D: ElementIo> ObjectStore<D> {
    /// Format a fresh store on `array`, reserving `meta_elements` elements
    /// for the index: one write of that many empty pages.
    pub fn format(mut array: D, meta_elements: usize) -> Result<Self, StoreError> {
        assert!(meta_elements >= 1);
        assert!(meta_elements < array.capacity_elements());
        let block = array.element_size();
        let mut region = vec![0u8; meta_elements * block];
        for page in region.chunks_exact_mut(block) {
            page[..PAGE_MAGIC.len()].copy_from_slice(&PAGE_MAGIC);
        }
        array.write_elements(0, &region)?;
        Ok(ObjectStore {
            array,
            meta_elements,
            index: BTreeMap::new(),
            mutation: None,
        })
    }

    /// Re-open a store from an existing array (reads the on-array index,
    /// reconstructing through failures if needed). The index is input from
    /// the medium, so nothing in it is trusted: a page without the magic, a
    /// count or a name length that runs past the page, a name that is
    /// empty or not UTF-8, bytes after the last record, an extent that
    /// starts inside the index region or ends past the array, a name
    /// listed twice (in one page or two) and two extents that overlap are
    /// each [`StoreError::BadIndex`] — as is the text index of an earlier
    /// `dcode`, which is refused by name and never converted.
    pub fn open(mut array: D, meta_elements: usize) -> Result<Self, StoreError> {
        let raw = array.read_elements(0, meta_elements)?;
        if !raw.starts_with(&PAGE_MAGIC) && starts_with_text_index(&raw) {
            return Err(StoreError::BadIndex(
                "this store was written by an earlier dcode (a text index, not index pages): \
                 fetch its objects with the dcode that stored them and re-create it"
                    .into(),
            ));
        }
        let capacity = array.capacity_elements();
        let block = array.element_size();
        let mut store = ObjectStore {
            array,
            meta_elements,
            index: BTreeMap::new(),
            mutation: None,
        };
        for (page, bytes) in raw.chunks(block).enumerate() {
            let records = parse_page(bytes)
                .map_err(|why| StoreError::BadIndex(format!("page {page}: {why}")))?;
            for (name, start, len) in records {
                let extent = usize::try_from(start)
                    .ok()
                    .zip(usize::try_from(len).ok())
                    .filter(|&(start, len)| {
                        let end = start.checked_add(store.elements_for(len));
                        start >= meta_elements && end.is_some_and(|end| end <= capacity)
                    });
                let Some((start, len)) = extent else {
                    return Err(StoreError::BadIndex(format!(
                        "extent of '{name}' outside elements [{meta_elements}, {capacity})"
                    )));
                };
                let entry = Entry { page, start, len };
                if store.index.insert(name.to_string(), entry).is_some() {
                    return Err(StoreError::BadIndex(format!("name '{name}' listed twice")));
                }
            }
        }
        let mut extents: Vec<(usize, usize)> = store
            .index
            .values()
            .map(|e| (e.start, e.start + store.elements_for(e.len)))
            .collect();
        extents.sort_unstable();
        if let Some(pair) = extents.windows(2).find(|pair| pair[1].0 < pair[0].1) {
            return Err(StoreError::BadIndex(format!(
                "extents at elements {} and {} overlap",
                pair[0].0, pair[1].0
            )));
        }
        Ok(store)
    }

    /// The underlying array (for failure injection in tests/demos).
    pub fn array_mut(&mut self) -> &mut D {
        &mut self.array
    }

    /// The underlying array, read-only (stats snapshots from a server's
    /// metrics path, which must not perturb disk state).
    pub fn array(&self) -> &D {
        &self.array
    }

    /// Plant (or clear) a deliberate ordering bug. Harness self-test only:
    /// the crash sweep runs once with [`JournalMutation::IndexBeforeData`]
    /// and asserts that it *catches* an index entry over unwritten bytes,
    /// and once with [`JournalMutation::InPlaceAcrossElements`] and
    /// asserts that it catches a torn value of two elements.
    pub fn set_mutation(&mut self, mutation: Option<JournalMutation>) {
        self.mutation = mutation;
    }

    /// Whether an object with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    fn block_size(&self) -> usize {
        self.array.element_size()
    }

    fn elements_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.block_size()).max(1)
    }

    /// The page a new key's record goes to: the first with room for it.
    /// [`StoreError::BadName`] for a name no page could hold,
    /// [`StoreError::NoSpace`] (of one more index element) when every page
    /// is too full.
    fn page_for(&self, name: &str) -> Result<usize, StoreError> {
        let room = self.block_size().saturating_sub(PAGE_HEADER);
        let need = RECORD_FIXED + name.len();
        if name.is_empty() || need > room || u32::try_from(name.len()).is_err() {
            return Err(StoreError::BadName(name.to_string()));
        }
        let mut used = vec![0usize; self.meta_elements];
        for (name, entry) in &self.index {
            used[entry.page] += RECORD_FIXED + name.len();
        }
        used.iter()
            .position(|used| used + need <= room)
            .ok_or(StoreError::NoSpace { needed: 1 })
    }

    /// Rewrite index page `page` from the in-memory index: the one array
    /// write, of one element, that a mutation's index change costs.
    fn write_page(&mut self, page: usize) -> Result<(), StoreError> {
        let mut bytes = PAGE_MAGIC.to_vec();
        bytes.extend_from_slice(&[0; 4]);
        let mut count = 0u32;
        for (name, entry) in self.index.iter().filter(|(_, entry)| entry.page == page) {
            let name_len = u32::try_from(name.len()).expect("page_for admitted the name");
            bytes.extend_from_slice(&name_len.to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&(entry.start as u64).to_le_bytes());
            bytes.extend_from_slice(&(entry.len as u64).to_le_bytes());
            count += 1;
        }
        bytes[PAGE_MAGIC.len()..PAGE_HEADER].copy_from_slice(&count.to_le_bytes());
        assert!(
            bytes.len() <= self.block_size(),
            "page_for found room for every record of page {page}"
        );
        bytes.resize(self.block_size(), 0);
        self.array.write_elements(page, &bytes)?;
        Ok(())
    }

    /// First-fit allocation after the metadata region.
    fn allocate(&self, elements: usize) -> Result<usize, StoreError> {
        let mut used: Vec<(usize, usize)> = self
            .index
            .values()
            .map(|e| (e.start, self.elements_for(e.len)))
            .collect();
        used.sort_unstable();
        let mut cursor = self.meta_elements;
        for (start, len) in used {
            if start >= cursor + elements {
                break;
            }
            cursor = cursor.max(start + len);
        }
        if cursor + elements <= self.array.capacity_elements() {
            Ok(cursor)
        } else {
            Err(StoreError::NoSpace { needed: elements })
        }
    }

    /// Store an object under a name the store does not hold yet;
    /// [`StoreError::Exists`] otherwise (an archive's semantics — a
    /// key-value front end wants [`upsert`](ObjectStore::upsert)).
    pub fn put(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        if self.index.contains_key(name) {
            return Err(StoreError::Exists(name.to_string()));
        }
        self.upsert(name, bytes)
    }

    /// Store an object, replacing any existing object of the same name
    /// (the server's `put` semantics). A value of one element that
    /// replaces one of the same byte length is written in place, with no
    /// page write: the record does not change. Anything else is
    /// copy-on-write: the new extent is allocated while the index still
    /// holds the old one — so first-fit cannot hand the old one out — and
    /// written before the one page rewrite that names it. The durable index therefore names the old
    /// extent, intact, or the new one, fully written, at every instant;
    /// an overwrite that has no room for both, or a new key whose record
    /// no page has room for, returns [`StoreError::NoSpace`] before
    /// anything is written.
    pub fn upsert(&mut self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let elements = self.elements_for(bytes.len());
        let mut padded = bytes.to_vec();
        padded.resize(elements * self.block_size(), 0);
        // Planted bug for the harness self-test: a value of several
        // elements goes in place too, where a crash can tear it.
        let any_size = self.mutation == Some(JournalMutation::InPlaceAcrossElements);
        // An overwrite's record keeps its page and its size.
        let page = match self.index.get(name) {
            // Same length, one element: the record does not change, and a
            // one-element write is old-or-new across a crash.
            Some(entry) if entry.len == bytes.len() && (elements == 1 || any_size) => {
                self.array.write_elements(entry.start, &padded)?;
                return Ok(());
            }
            Some(entry) => entry.page,
            None => self.page_for(name)?,
        };
        let start = self.allocate(elements)?;
        // Planted bug for the harness self-test: the index names the new
        // extent before its bytes are on the medium.
        let index_first = self.mutation == Some(JournalMutation::IndexBeforeData);
        if !index_first {
            self.array.write_unshared(start, &padded)?;
        }
        let len = bytes.len();
        let entry = Entry { page, start, len };
        let previous = self.index.insert(name.to_string(), entry);
        // The medium keeps the old page when the write fails (an array
        // error), so memory must too.
        let persisted = self.write_page(page);
        if persisted.is_err() {
            match previous {
                Some(entry) => self.index.insert(name.to_string(), entry),
                None => self.index.remove(name),
            };
        } else if index_first {
            self.array.write_unshared(start, &padded)?;
        }
        persisted
    }

    /// Fetch an object's bytes (works while degraded). Takes `&mut self`:
    /// a resilient read may retry, repair, and transition disk states.
    pub fn get(&mut self, name: &str) -> Result<Vec<u8>, StoreError> {
        let &Entry { start, len, .. } = self
            .index
            .get(name)
            .ok_or_else(|| StoreError::NotFound(name.to_string()))?;
        let count = self.elements_for(len);
        let mut bytes = self.array.read_elements(start, count)?;
        bytes.truncate(len);
        Ok(bytes)
    }

    /// Delete an object (space becomes reusable).
    pub fn delete(&mut self, name: &str) -> Result<(), StoreError> {
        let Some(entry) = self.index.remove(name) else {
            return Err(StoreError::NotFound(name.to_string()));
        };
        let persisted = self.write_page(entry.page);
        if persisted.is_err() {
            self.index.insert(name.to_string(), entry);
        }
        persisted
    }

    /// List object names and byte sizes.
    pub fn list(&self) -> Vec<(String, usize)> {
        self.index
            .iter()
            .map(|(name, entry)| (name.clone(), entry.len))
            .collect()
    }

    /// Number of objects resident (`list().len()` without cloning a name).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no object.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::ResilientArray;
    use crate::rotation::RotationScheme;
    use dcode_core::dcode::dcode;
    use dcode_faults::MemBackend;

    type MemArray = ResilientArray<MemBackend>;
    type MemStore = ObjectStore<MemArray>;

    fn new_array() -> MemArray {
        ResilientArray::new(dcode(7).unwrap(), 64, 8, RotationScheme::PerStripe)
    }

    fn new_store() -> MemStore {
        ObjectStore::format(new_array(), 4).unwrap()
    }

    /// Take the array out from under a live store and open it cold.
    fn reopen(mut s: MemStore) -> Result<MemStore, StoreError> {
        let array = std::mem::replace(s.array_mut(), new_array());
        ObjectStore::open(array, 4)
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut s = new_store();
        let a: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..1234u32).map(|i| (i * 3) as u8).collect();
        s.put("a", &a).unwrap();
        s.put("b", &b).unwrap();
        assert_eq!(s.get("a").unwrap(), a);
        assert_eq!(s.get("b").unwrap(), b);
        assert_eq!(s.list().len(), 2);
        s.delete("a").unwrap();
        assert!(matches!(s.get("a"), Err(StoreError::NotFound(_))));
        // Freed space is reusable.
        s.put("c", &a).unwrap();
        assert_eq!(s.get("c").unwrap(), a);
        assert_eq!(s.get("b").unwrap(), b);
    }

    #[test]
    fn survives_double_failure_and_reopen() {
        let mut s = new_store();
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 7) as u8).collect();
        s.put("precious", &payload).unwrap();

        s.array_mut().fail_disk(2).unwrap();
        s.array_mut().fail_disk(5).unwrap();
        // Reads still work while degraded.
        assert_eq!(s.get("precious").unwrap(), payload);

        // A brand-new store instance can re-open from the degraded array
        // alone (the index lives in the array).
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.get("precious").unwrap(), payload);
    }

    #[test]
    fn allocation_exhaustion_reported() {
        let mut s = new_store();
        let cap = 64 * (8 * dcode(7).unwrap().data_len() - 4);
        let too_big = vec![0u8; cap + 64];
        assert!(matches!(
            s.put("big", &too_big),
            Err(StoreError::NoSpace { .. })
        ));
        // A fitting object still works afterwards.
        s.put("ok", &[1, 2, 3]).unwrap();
        assert_eq!(s.get("ok").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn put_into_a_full_index_leaves_memory_and_medium_agreeing() {
        let mut s = new_store();
        // One 47-byte record fits a 64-byte page, two do not: four puts
        // fill the four pages.
        let mut stored = 0;
        let refused = loop {
            let name = format!("object-with-a-long-name-{stored:03}");
            match s.put(&name, &[stored as u8; 10]) {
                Ok(()) => stored += 1,
                Err(StoreError::NoSpace { needed: 1 }) => break name,
                Err(e) => panic!("unexpected {e}"),
            }
        };
        assert_eq!(stored, 4);
        assert!(!s.contains(&refused), "refused put stayed in the index");
        assert!(matches!(s.get(&refused), Err(StoreError::NotFound(_))));
        // A full index still takes an overwrite: the record keeps its page
        // and its size.
        s.upsert("object-with-a-long-name-002", &[0xEE; 300])
            .unwrap();
        // A delete makes room — in the page it emptied, and the value
        // takes the element it freed.
        s.delete("object-with-a-long-name-001").unwrap();
        s.put(&refused, &[9; 10]).unwrap();
        assert_eq!(
            s.array_mut().read(1, 1).unwrap(),
            page(&[(&refused, 5, 10)])
        );
        // The live store and a cold re-open of the same array list the
        // same objects.
        let live = s.list();
        assert_eq!(live.len(), stored);
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.list(), live);
        assert_eq!(
            reopened.get("object-with-a-long-name-002").unwrap(),
            [0xEE; 300]
        );
    }

    #[test]
    fn failed_delete_keeps_the_entry() {
        let mut s = new_store();
        s.put("kept", &[7; 100]).unwrap();
        // Three lost columns are beyond RAID-6: the index rewrite cannot
        // reconstruct the stripe it lands in.
        for slot in 0..3 {
            s.array_mut().fail_disk(slot).unwrap();
        }
        assert!(matches!(s.delete("kept"), Err(StoreError::Array(_))));
        assert!(s.contains("kept"), "failed delete dropped the entry");
    }

    #[test]
    fn bad_names_rejected() {
        let mut s = new_store();
        assert!(matches!(s.put("", &[1]), Err(StoreError::BadName(_))));
        // A 64-byte page has room for one record of a 36-byte name.
        let longest = "n".repeat(64 - PAGE_HEADER - RECORD_FIXED);
        let too_long = format!("{longest}n");
        assert!(matches!(
            s.put(&too_long, &[1]),
            Err(StoreError::BadName(_))
        ));
        assert!(s.is_empty());
        // Nothing else is refused: the record carries the name's length.
        for name in [longest.as_str(), "a,b\nc", "4,5", "\0", "né"] {
            s.put(name, name.as_bytes()).unwrap();
        }
        let mut reopened = reopen(s).unwrap();
        for name in [longest.as_str(), "a,b\nc", "4,5", "\0", "né"] {
            assert_eq!(reopened.get(name).unwrap(), name.as_bytes());
        }
    }

    #[test]
    fn duplicate_put_rejected() {
        let mut s = new_store();
        s.put("x", &[1]).unwrap();
        assert!(matches!(s.put("x", &[2]), Err(StoreError::Exists(_))));
    }

    #[test]
    fn upsert_replaces_and_creates() {
        let mut s = new_store();
        s.upsert("k", &[1, 2, 3]).unwrap(); // create
        assert_eq!(s.get("k").unwrap(), vec![1, 2, 3]);
        let bigger: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        s.upsert("k", &bigger).unwrap(); // replace with a larger value
        assert_eq!(s.get("k").unwrap(), bigger);
        assert!(s.contains("k"));
        assert_eq!(s.list().len(), 1);
    }

    /// `count` objects `obj0..`, each `elements` elements of its own byte.
    fn fill(s: &mut MemStore, count: usize, elements: usize) {
        for i in 0..count {
            s.put(&format!("obj{i}"), &vec![i as u8; elements * 64])
                .unwrap();
        }
    }

    #[test]
    fn overwrite_without_room_for_both_versions_is_no_space_and_keeps_the_old_value() {
        // 280 elements less 4 of index: six 46-element objects fill it.
        let mut s = new_store();
        fill(&mut s, 6, 46);
        let newer = vec![0xEE; 46 * 64];
        assert!(matches!(
            s.upsert("obj0", &newer),
            Err(StoreError::NoSpace { needed: 46 })
        ));
        assert_eq!(s.get("obj0").unwrap(), vec![0u8; 46 * 64]);
        // A smaller value has no hole either: the rule is about free
        // space, not about the old extent's size.
        assert!(matches!(
            s.upsert("obj0", &[1]),
            Err(StoreError::NoSpace { needed: 1 })
        ));
        let live = s.list();
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.list(), live);
        assert_eq!(reopened.get("obj0").unwrap(), vec![0u8; 46 * 64]);
        // Deleting any object makes the room.
        reopened.delete("obj5").unwrap();
        reopened.upsert("obj0", &newer).unwrap();
        assert_eq!(reopened.get("obj0").unwrap(), newer);
    }

    #[test]
    fn overwrite_takes_the_one_free_extent_and_the_next_reuses_the_hole() {
        let mut s = new_store();
        fill(&mut s, 5, 46); // elements [4, 234); one 46-element extent free
        let first = vec![0xA1; 46 * 64];
        s.upsert("obj0", &first).unwrap();
        assert_eq!(s.get("obj0").unwrap(), first);
        // The new version went to the free extent, the old one stayed put
        // until the index flipped — and is the only hole now.
        assert_eq!(s.array_mut().read(234, 1).unwrap(), [0xA1; 64]);
        assert_eq!(s.array_mut().read(4, 1).unwrap(), [0u8; 64]);
        let second = vec![0xB2; 46 * 64];
        s.upsert("obj1", &second).unwrap();
        assert_eq!(s.array_mut().read(4, 1).unwrap(), [0xB2; 64]);
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.get("obj0").unwrap(), first);
        assert_eq!(reopened.get("obj1").unwrap(), second);
        assert_eq!(reopened.get("obj2").unwrap(), vec![2u8; 46 * 64]);
    }

    /// An array that refuses every write below element `refuse_below`.
    struct RefusesIndexWrites {
        inner: MemArray,
        refuse_below: usize,
    }

    impl ElementIo for RefusesIndexWrites {
        fn capacity_elements(&self) -> usize {
            self.inner.capacity_elements()
        }
        fn element_size(&self) -> usize {
            self.inner.element_size()
        }
        fn read_elements(&mut self, start: usize, count: usize) -> Result<Vec<u8>, ArrayError> {
            self.inner.read_elements(start, count)
        }
        fn write_elements(&mut self, start: usize, bytes: &[u8]) -> Result<(), ArrayError> {
            if start < self.refuse_below {
                return Err(ArrayError::TooManyFailures { failed: Vec::new() });
            }
            self.inner.write_elements(start, bytes)
        }
    }

    #[test]
    fn failed_page_write_puts_the_previous_entry_back() {
        let array = RefusesIndexWrites {
            inner: new_array(),
            refuse_below: 0,
        };
        let mut s = ObjectStore::format(array, 4).unwrap();
        s.put("kept", &[7; 100]).unwrap();
        s.put("gone", &[8; 10]).unwrap();
        // The value lands in a free extent, the page write is refused:
        // the entry naming the old extent comes back, a new key's entry
        // goes, a deleted key's entry stays.
        s.array_mut().refuse_below = 4;
        assert!(matches!(
            s.upsert("kept", &[9; 1000]),
            Err(StoreError::Array(_))
        ));
        assert!(matches!(s.put("new", &[1]), Err(StoreError::Array(_))));
        assert!(matches!(s.delete("gone"), Err(StoreError::Array(_))));
        assert_eq!(s.get("kept").unwrap(), [7; 100]);
        assert!(!s.contains("new") && s.contains("gone"));
        let live = s.list();
        let array = std::mem::replace(&mut s.array_mut().inner, new_array());
        let mut reopened = ObjectStore::open(array, 4).unwrap();
        assert_eq!(reopened.list(), live);
        assert_eq!(reopened.get("kept").unwrap(), [7; 100]);
        reopened.upsert("kept", &[9; 1000]).unwrap();
        assert_eq!(reopened.get("kept").unwrap(), [9; 1000]);
    }

    #[test]
    fn a_refused_in_place_overwrite_keeps_the_old_value() {
        let array = RefusesIndexWrites {
            inner: new_array(),
            refuse_below: 0,
        };
        let mut s = ObjectStore::format(array, 4).unwrap();
        s.put("kept", &[7; 50]).unwrap(); // element 4
        s.array_mut().refuse_below = 5;
        assert!(matches!(
            s.upsert("kept", &[9; 50]),
            Err(StoreError::Array(_))
        ));
        assert_eq!(s.get("kept").unwrap(), [7; 50]);
        let array = std::mem::replace(&mut s.array_mut().inner, new_array());
        let mut reopened = ObjectStore::open(array, 4).unwrap();
        assert_eq!(reopened.get("kept").unwrap(), [7; 50]);
    }

    #[test]
    fn a_same_length_one_element_overwrite_needs_no_free_element() {
        let mut s = new_store();
        s.put("small", &[1; 10]).unwrap(); // element 4
        fill(&mut s, 5, 46); // elements [5, 235)
        s.put("rest", &[2; 45 * 64]).unwrap(); // to the last element
        assert!(matches!(
            s.put("more", &[3]),
            Err(StoreError::NoSpace { needed: 1 })
        ));
        s.upsert("small", &[4; 10]).unwrap();
        assert_eq!(s.get("small").unwrap(), [4; 10]);
        // A length change is copy-on-write and still needs the room.
        assert!(matches!(
            s.upsert("small", &[5; 11]),
            Err(StoreError::NoSpace { needed: 1 })
        ));
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.get("small").unwrap(), [4; 10]);
        assert_eq!(reopened.get("rest").unwrap(), vec![2; 45 * 64]);
    }

    #[test]
    fn only_a_same_length_one_element_overwrite_keeps_its_start_and_page() {
        let mut s = new_store();
        s.put("k", &[1; 40]).unwrap();
        let start = |s: &MemStore| s.index["k"].start;
        let first = s.array_mut().read(0, 1).unwrap();
        assert_eq!(start(&s), 4);
        s.upsert("k", &[2; 40]).unwrap();
        assert_eq!(start(&s), 4);
        assert_eq!(s.array_mut().read(0, 1).unwrap(), first);
        let mut element = vec![2; 40];
        element.resize(64, 0);
        assert_eq!(s.array_mut().read(4, 1).unwrap(), element);
        s.upsert("k", &[3; 41]).unwrap();
        assert_eq!(start(&s), 5);
        assert_eq!(s.array_mut().read(0, 1).unwrap(), page(&[("k", 5, 41)]));
        // Two elements of the same length: copy-on-write, back to 4.
        s.upsert("k", &[4; 100]).unwrap();
        assert_eq!(start(&s), 6);
        s.upsert("k", &[5; 100]).unwrap();
        assert_eq!(start(&s), 4);
        assert_eq!(reopen(s).unwrap().get("k").unwrap(), [5; 100]);
    }

    #[test]
    fn an_in_place_overwrite_with_a_slot_failed_reads_back_after_reopen() {
        let mut s = new_store();
        s.put("a", &[1; 64]).unwrap();
        s.put("b", &[2; 30]).unwrap();
        s.array_mut().fail_disk(2).unwrap();
        s.upsert("a", &[3; 64]).unwrap();
        s.upsert("b", &[4; 30]).unwrap();
        assert_eq!(s.get("a").unwrap(), [3; 64]);
        let mut reopened = reopen(s).unwrap();
        assert_eq!(reopened.get("a").unwrap(), [3; 64]);
        assert_eq!(reopened.get("b").unwrap(), [4; 30]);
        assert_eq!(reopened.index["b"].start, 5);
    }

    /// A 64-byte index page holding `records`.
    fn page(records: &[(&str, u64, u64)]) -> Vec<u8> {
        let mut bytes = b"DCI\x01".to_vec();
        bytes.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (name, start, len) in records {
            bytes.extend_from_slice(&(name.len() as u32).to_le_bytes());
            bytes.extend_from_slice(name.as_bytes());
            bytes.extend_from_slice(&start.to_le_bytes());
            bytes.extend_from_slice(&len.to_le_bytes());
        }
        assert!(bytes.len() <= 64);
        bytes.resize(64, 0);
        bytes
    }

    #[test]
    fn index_on_the_medium_is_one_page_of_packed_records_per_element() {
        // The format pin (DESIGN.md §14): magic and version, a u32 count,
        // then `name_len u32 · name · start u64 · len u64` per record in
        // name order, zero-padded to the element; all little-endian.
        let mut s = new_store();
        s.put("b", &[2; 70]).unwrap();
        s.put("a", &[1; 10]).unwrap();
        s.upsert("b", &[3; 130]).unwrap();
        let mut first = Vec::new();
        first.extend_from_slice(b"DCI\x01\x02\0\0\0");
        first.extend_from_slice(b"\x01\0\0\0a\x06\0\0\0\0\0\0\0\x0a\0\0\0\0\0\0\0");
        first.extend_from_slice(b"\x01\0\0\0b\x07\0\0\0\0\0\0\0\x82\0\0\0\0\0\0\0");
        first.resize(64, 0);
        let mut empty = b"DCI\x01\0\0\0\0".to_vec();
        empty.resize(64, 0);
        assert_eq!(first, page(&[("a", 6, 10), ("b", 7, 130)]));
        let expect = [&first[..], &empty, &empty, &empty].concat();
        assert_eq!(s.array_mut().read(0, 4).unwrap(), expect);
        // A region written by hand in that format opens, with the extents
        // where it says — any page may hold a record, in any order — and a
        // mutation rewrites the one page of its key.
        let mut s = new_store();
        let pages = [
            page(&[("second", 9, 3), ("first", 4, 64)]),
            page(&[]),
            page(&[("third", 5, 1)]),
            page(&[]),
        ];
        s.array_mut().write(0, &pages.concat()).unwrap();
        s.array_mut().write(4, &[0x11; 64]).unwrap();
        s.array_mut().write(9, &[0x22; 64]).unwrap();
        let mut opened = reopen(s).unwrap();
        assert_eq!(opened.get("first").unwrap(), [0x11; 64]);
        assert_eq!(opened.get("second").unwrap(), [0x22; 3]);
        opened.upsert("third", &[0x33; 65]).unwrap();
        opened.put("fourth", &[0x44; 1]).unwrap();
        // Page 0 has no room for a fourth record and is left as found.
        let expect = [
            pages[0].clone(),
            page(&[("fourth", 5, 1)]),
            page(&[("third", 6, 65)]),
            page(&[]),
        ];
        assert_eq!(opened.array_mut().read(0, 4).unwrap(), expect.concat());
    }

    #[test]
    fn a_text_index_is_refused_as_an_earlier_formats_store() {
        // What every dcode before the page format left in the region:
        // `name,start,len` lines, NUL-padded.
        let mut s = new_store();
        let mut image = b"first,4,64\nsecond,9,3\n".to_vec();
        image.resize(4 * 64, 0);
        s.array_mut().write(0, &image).unwrap();
        let Err(StoreError::BadIndex(why)) = reopen(s) else {
            panic!("a text index opened");
        };
        assert!(
            why.contains("earlier dcode") && why.contains("re-create"),
            "{why}"
        );
        // A region of anything else without the magic is just not a store.
        let mut s = new_store();
        s.array_mut().write(0, &[0; 4 * 64]).unwrap();
        let Err(StoreError::BadIndex(why)) = reopen(s) else {
            panic!("a zeroed region opened");
        };
        assert!(why.contains("page 0") && why.contains("magic"), "{why}");
    }

    #[test]
    fn the_benchmarks_key_sets_fit_their_index_regions() {
        // Eight 4 KiB pages, the shards' and the benchmark arrays' region:
        // `array_degraded_rebuild` names 600 objects, a kv shard holds at
        // most every connection's 64 keys.
        let wide = || ResilientArray::new(dcode(7).unwrap(), 4096, 18, RotationScheme::PerStripe);
        let mut s = ObjectStore::format(wide(), 8).unwrap();
        for object in 0..600 {
            s.put(&format!("o{object}"), &[object as u8]).unwrap();
        }
        let mut s = ObjectStore::format(wide(), 8).unwrap();
        for (conn, key) in (0..2).flat_map(|conn| (0..64).map(move |key| (conn, key))) {
            s.put(&format!("c{conn}-k{key}"), &[key as u8]).unwrap();
        }
        let array = std::mem::replace(s.array_mut(), new_array());
        assert_eq!(ObjectStore::open(array, 8).unwrap().len(), 128);
    }

    #[test]
    fn len_counts_what_list_lists_at_every_step() {
        fn agree(s: &MemStore, expect: usize) {
            assert_eq!(s.len(), s.list().len());
            assert_eq!(s.len(), expect);
            assert_eq!(s.is_empty(), expect == 0);
        }
        let mut s = new_store();
        agree(&s, 0);
        s.put("a", &[1; 100]).unwrap();
        agree(&s, 1);
        s.upsert("b", &[2; 200]).unwrap();
        agree(&s, 2);
        s.upsert("a", &[3; 300]).unwrap(); // existing: replaced, not added
        agree(&s, 2);
        s.delete("b").unwrap();
        agree(&s, 1);
        agree(&reopen(s).unwrap(), 1);
    }

    #[test]
    fn open_rejects_an_index_the_writer_never_wrote() {
        // What a torn write, bit rot past the checksums or a hostile medium
        // can leave in the index region. 4 pages of 64 bytes; an object's
        // extent must lie inside elements [4, capacity).
        let capacity = new_array().capacity_elements() as u64;
        let raw = |bytes: &[u8]| {
            let mut page = bytes.to_vec();
            page.resize(64, 0);
            page
        };
        let one = page(&[("a", 4, 10)]);
        let mut trailing = one.clone();
        trailing[63] = 1;
        let mut counts_two = one.clone();
        counts_two[4] = 2;
        let malformed: Vec<(&str, [Vec<u8>; 2])> = vec![
            ("no magic", [one.clone(), raw(b"")]),
            ("another version", [raw(b"DCI\x02\0\0\0\0"), page(&[])]),
            ("count past the records", [counts_two, page(&[])]),
            (
                "count past the page",
                [raw(b"DCI\x01\xff\xff\xff\xff"), page(&[])],
            ),
            (
                "name_len past the page",
                [raw(b"DCI\x01\x01\0\0\0\x31\0\0\0a"), page(&[])],
            ),
            (
                "name_len past usize",
                [raw(b"DCI\x01\x01\0\0\0\xff\xff\xff\xffa"), page(&[])],
            ),
            (
                "name cut mid-character",
                [
                    raw(b"DCI\x01\x01\0\0\0\x02\0\0\0\xe2\x82\x04\0\0\0\0\0\0\0\x01"),
                    page(&[]),
                ],
            ),
            ("empty name", [page(&[("", 4, 10)]), page(&[])]),
            ("bytes after the last record", [trailing, page(&[])]),
            (
                "starts inside the index region",
                [page(&[("a", 3, 10)]), page(&[])],
            ),
            (
                "ends past capacity",
                [page(&[("a", capacity - 1, 65)]), page(&[])],
            ),
            ("end overflows", [page(&[("a", u64::MAX, 10)]), page(&[])]),
            ("length overflows", [page(&[("a", 4, u64::MAX)]), page(&[])]),
            (
                "duplicate name in one page",
                [page(&[("a", 4, 10), ("a", 6, 10)]), page(&[])],
            ),
            (
                "duplicate name across pages",
                [one.clone(), page(&[("a", 6, 10)])],
            ),
            (
                "overlapping extents",
                [page(&[("a", 4, 100)]), page(&[("b", 5, 10)])],
            ),
        ];
        for (what, [first, last]) in malformed {
            let mut s = new_store();
            let region = [first, page(&[]), page(&[]), last].concat();
            s.array_mut().write(0, &region).unwrap();
            match reopen(s) {
                Err(StoreError::BadIndex(_)) => {}
                Err(e) => panic!("{what}: expected BadIndex, got {e}"),
                Ok(opened) => panic!("{what}: opened with {:?}", opened.list()),
            }
        }
        // The same route with well-formed pages opens, and lists exactly
        // what was written.
        let mut s = new_store();
        let region = [one, page(&[]), page(&[]), page(&[("b", 6, 10)])].concat();
        s.array_mut().write(0, &region).unwrap();
        let listed = reopen(s).unwrap().list();
        assert_eq!(listed, [("a".to_string(), 10), ("b".to_string(), 10)]);
    }
}
