//! # attrition-store
//!
//! The data substrate of the reproduction: a columnar, read-optimized
//! store of retail receipts plus the paper's *windowed database*
//! transformation.
//!
//! The paper (Section 2) represents the purchases of customer `i` as a
//! chronologically ordered list `D_i = ⟨(b_1,t_1),…,(b_N,t_N)⟩` and derives
//! the windowed database `D_i^w`: consecutive non-overlapping windows of
//! span `w`, where `u_k` is the set of all products bought during window
//! `k`. [`ReceiptStore`] holds the raw receipts in columnar form (sorted by
//! customer, then date — so `D_i` is a contiguous slice) and [`windowing`]
//! derives `D_i^w` from it.
//!
//! Additional services: CSV import/export ([`csv_io`]), dataset statistics
//! matching the paper's Section 3 description ([`stats`]), and projection
//! of products onto taxonomy segments ([`segment_view`]), which is the
//! granularity the paper's experiments run at.

pub mod binary_io;
pub mod csv_io;
pub mod error;
pub mod receipt_store;
pub mod replay;
pub mod segment_view;
pub mod stats;
pub mod windowing;

pub use binary_io::{
    read_store_file, store_from_bytes, store_to_bytes, write_store_file, ByteError, ByteReader,
    ByteWriter,
};
pub use error::StoreError;
pub use receipt_store::{ReceiptRef, ReceiptStore, ReceiptStoreBuilder};
pub use replay::chronological;
pub use segment_view::project_to_segments;
pub use stats::DatasetStats;
pub use windowing::{CustomerWindows, WindowAlignment, WindowLength, WindowSpec, WindowedDatabase};
