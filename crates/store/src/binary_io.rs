//! Binary columnar persistence for [`ReceiptStore`].
//!
//! CSV is the interchange format; this is the *working* format — the
//! store's five columns written verbatim, little-endian, behind a magic
//! and version header. Loading is a straight column read plus index
//! rebuild with no per-row text parsing; the `substrate` bench group
//! measures the load-time gap against CSV.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [0..8)    magic  b"ATTRSTO1"
//! [8..16)   u64    n  (receipts)
//! [16..24)  u64    m  (item occurrences)
//! [..]      u64×n  customer ids
//! [..]      i32×n  dates (days since epoch)
//! [..]      i64×n  totals (cents)
//! [..]      u32×(n+1) basket offsets (offsets[0] = 0, offsets[n] = m)
//! [..]      u32×m  item ids
//! ```
//!
//! The reader validates the header, the section lengths, offset
//! monotonicity, and the `(customer, date)` sort invariant before
//! constructing the store, so a corrupted file cannot produce a store
//! that violates the crate's invariants.

use crate::{ReceiptStore, ReceiptStoreBuilder, StoreError};
use attrition_types::{Cents, CustomerId, Date, ItemId};

/// File magic: "ATTRSTO" + format version 1.
pub const MAGIC: [u8; 8] = *b"ATTRSTO1";

fn corrupt(message: impl Into<String>) -> StoreError {
    StoreError::Csv {
        line: 0,
        message: format!("binary store: {}", message.into()),
    }
}

/// A structured failure while decoding a little-endian binary buffer:
/// the byte offset the reader stood at and what it expected there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByteError {
    /// Offset (from the start of the buffer) the failed read began at.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ByteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ByteError {}

/// Little-endian byte sink shared by every binary format in the
/// workspace (the receipt-store columns here, the monitor snapshot in
/// `attrition-core`, the checkpoint framing in `attrition-serve`).
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// An empty writer with `capacity` bytes pre-allocated.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes verbatim.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern (lossless; restoring
    /// via [`ByteReader::f64`] returns the identical bits).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// The accumulated buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian cursor over a byte buffer; every read is bounds-checked
/// and failures carry the offset ([`ByteError`]), so a truncated or
/// bit-flipped file surfaces as a structured error instead of a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> ByteReader<'a> {
        ByteReader { bytes, pos: 0 }
    }

    /// Current offset from the start of the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consume exactly `len` bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], ByteError> {
        let end = self.pos.checked_add(len).ok_or_else(|| ByteError {
            offset: self.pos,
            message: "length overflow".into(),
        })?;
        if end > self.bytes.len() {
            return Err(ByteError {
                offset: self.pos,
                message: format!(
                    "truncated: need {len} more bytes, have {}",
                    self.bytes.len() - self.pos
                ),
            });
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, ByteError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, ByteError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, ByteError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self) -> Result<i32, ByteError> {
        Ok(i32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64, ByteError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` written by [`ByteWriter::f64`] (bit-exact).
    pub fn f64(&mut self) -> Result<f64, ByteError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Require that the buffer is fully consumed.
    pub fn finish(&self) -> Result<(), ByteError> {
        if self.pos != self.bytes.len() {
            return Err(ByteError {
                offset: self.pos,
                message: format!("{} trailing bytes", self.bytes.len() - self.pos),
            });
        }
        Ok(())
    }
}

/// Serialize a store to the binary columnar format.
pub fn store_to_bytes(store: &ReceiptStore) -> Vec<u8> {
    let n = store.num_receipts();
    let m = store.num_item_occurrences();
    let mut out = Vec::with_capacity(24 + n * (8 + 4 + 8 + 4) + 4 + m * 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(m as u64).to_le_bytes());
    // Column passes keep writes sequential.
    for r in store.receipts() {
        out.extend_from_slice(&r.customer.raw().to_le_bytes());
    }
    for r in store.receipts() {
        out.extend_from_slice(&r.date.days_since_epoch().to_le_bytes());
    }
    for r in store.receipts() {
        out.extend_from_slice(&r.total.raw().to_le_bytes());
    }
    let mut offset = 0u32;
    out.extend_from_slice(&offset.to_le_bytes());
    for r in store.receipts() {
        offset += r.items.len() as u32;
        out.extend_from_slice(&offset.to_le_bytes());
    }
    for r in store.receipts() {
        for item in r.items {
            out.extend_from_slice(&item.raw().to_le_bytes());
        }
    }
    out
}

fn byte_err(e: ByteError) -> StoreError {
    corrupt(e.to_string())
}

/// Deserialize a store from the binary columnar format.
pub fn store_from_bytes(bytes: &[u8]) -> Result<ReceiptStore, StoreError> {
    let mut cur = ByteReader::new(bytes);
    if cur.take(8).map_err(byte_err)? != MAGIC {
        return Err(corrupt("bad magic (not an attrition store file?)"));
    }
    let n = cur.u64().map_err(byte_err)? as usize;
    let m = cur.u64().map_err(byte_err)? as usize;

    let customers = cur.take(n * 8).map_err(byte_err)?;
    let dates = cur.take(n * 4).map_err(byte_err)?;
    let totals = cur.take(n * 8).map_err(byte_err)?;
    let offsets = cur.take((n + 1) * 4).map_err(byte_err)?;
    let items = cur.take(m * 4).map_err(byte_err)?;
    cur.finish().map_err(byte_err)?;

    let read_u32 = |buf: &[u8], i: usize| -> u32 {
        u32::from_le_bytes(buf[i * 4..i * 4 + 4].try_into().expect("4 bytes"))
    };
    // Validate offsets before touching the item buffer.
    if read_u32(offsets, 0) != 0 {
        return Err(corrupt("offsets must start at 0"));
    }
    if read_u32(offsets, n) as usize != m {
        return Err(corrupt("final offset does not match item count"));
    }
    for i in 0..n {
        if read_u32(offsets, i) > read_u32(offsets, i + 1) {
            return Err(corrupt(format!("offsets not monotone at row {i}")));
        }
    }

    // Rebuild through the builder, which keeps every invariant in one
    // place. Verify the input was already sorted so silent corruption is
    // still reported (and the builder keeps the rows as they are).
    let mut prev: Option<(u64, i32)> = None;
    let mut builder = ReceiptStoreBuilder::with_capacity(n);
    for i in 0..n {
        let customer = u64::from_le_bytes(customers[i * 8..i * 8 + 8].try_into().expect("8"));
        let date = i32::from_le_bytes(dates[i * 4..i * 4 + 4].try_into().expect("4"));
        let total = i64::from_le_bytes(totals[i * 8..i * 8 + 8].try_into().expect("8"));
        if let Some((pc, pd)) = prev {
            if (customer, date) < (pc, pd) {
                return Err(corrupt(format!("rows not sorted at row {i}")));
            }
        }
        prev = Some((customer, date));
        let lo = read_u32(offsets, i) as usize;
        let hi = read_u32(offsets, i + 1) as usize;
        for c in items[lo * 4..hi * 4].chunks_exact(4) {
            builder.push_item(ItemId::new(u32::from_le_bytes(c.try_into().expect("4"))));
        }
        builder.finish_row(
            CustomerId::new(customer),
            Date::from_days(date),
            Cents(total),
        );
    }
    Ok(builder.build())
}

/// Write a store to a file.
pub fn write_store_file(store: &ReceiptStore, path: &std::path::Path) -> Result<(), StoreError> {
    std::fs::write(path, store_to_bytes(store))?;
    Ok(())
}

/// Read a store from a file.
pub fn read_store_file(path: &std::path::Path) -> Result<ReceiptStore, StoreError> {
    let bytes = std::fs::read(path)?;
    store_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attrition_types::{Basket, Receipt};

    fn d(y: i32, m: u32, day: u32) -> Date {
        Date::from_ymd(y, m, day).unwrap()
    }

    fn sample() -> ReceiptStore {
        let mut b = ReceiptStoreBuilder::new();
        b.push(Receipt::new(
            CustomerId::new(2),
            d(2012, 6, 1),
            Basket::from_raw(&[5, 6]),
            Cents(700),
        ));
        b.push(Receipt::new(
            CustomerId::new(1),
            d(2012, 5, 2),
            Basket::from_raw(&[1, 2, 3]),
            Cents(-50), // negative totals (refunds) must survive
        ));
        b.push(Receipt::new(
            CustomerId::new(1),
            d(2012, 7, 2),
            Basket::empty(),
            Cents(0),
        ));
        b.build()
    }

    #[test]
    fn roundtrip() {
        let store = sample();
        let bytes = store_to_bytes(&store);
        let back = store_from_bytes(&bytes).unwrap();
        assert_eq!(back.num_receipts(), store.num_receipts());
        for (a, b) in store.receipts().zip(back.receipts()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_store_roundtrip() {
        let store = ReceiptStoreBuilder::new().build();
        let back = store_from_bytes(&store_to_bytes(&store)).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = store_to_bytes(&sample());
        bytes[0] = b'X';
        assert!(store_from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = store_to_bytes(&sample());
        for cut in [4usize, 16, 24, bytes.len() - 1] {
            assert!(
                store_from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = store_to_bytes(&sample());
        bytes.push(0);
        assert!(store_from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupted_offsets_rejected() {
        let store = sample();
        let n = store.num_receipts();
        let mut bytes = store_to_bytes(&store);
        // First offset starts right after the three fixed-width columns.
        let offsets_start = 24 + n * 8 + n * 4 + n * 8;
        bytes[offsets_start] = 7; // offsets[0] != 0
        assert!(store_from_bytes(&bytes).is_err());
    }

    #[test]
    fn unsorted_rows_rejected() {
        let store = sample();
        let mut bytes = store_to_bytes(&store);
        // Swap the first and last customer ids (1 and 2) to break the sort.
        let (a, b) = (24, 24 + 16);
        for i in 0..8 {
            bytes.swap(a + i, b + i);
        }
        assert!(store_from_bytes(&bytes).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("attrition_store_binary_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.bin");
        let store = sample();
        write_store_file(&store, &path).unwrap();
        let back = read_store_file(&path).unwrap();
        assert_eq!(back.num_receipts(), store.num_receipts());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn layout_size_is_exactly_as_documented() {
        let store = sample();
        let n = store.num_receipts();
        let m = store.num_item_occurrences();
        let bytes = store_to_bytes(&store);
        // header + (u64 + i32 + i64 + u32)/row + leading offset + items.
        assert_eq!(bytes.len(), 24 + n * (8 + 4 + 8 + 4) + 4 + m * 4);
        assert_eq!(&bytes[..8], &MAGIC);
    }
}
