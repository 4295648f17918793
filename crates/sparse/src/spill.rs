//! Mediated scratch-file I/O for the out-of-core panel SpGEMM path.
//!
//! This is the *only* module in the sparse crate allowed to touch the
//! filesystem (enforced by clippy's `disallowed-methods` /
//! `disallowed-types` in `crates/sparse/clippy.toml`).
//! Kernels never open files themselves: the panel runner decides — from the
//! deterministic spill plan — which tiles go to disk and calls into this
//! module to write and read them.
//!
//! ## On-disk tile format
//!
//! One file per spilled tile, named `t{tile}.bin` inside a per-multiply
//! scratch directory. Row lengths are kept *in memory* (they are tiny —
//! one `u32` per panel row), so the file holds only the payload, row-major:
//! for each row of the tile, `len` little-endian `u32` column indices
//! followed by `len` little-endian `f64` bit patterns. Exactly
//! `12 × nnz(tile)` bytes — this is also the byte count reported by the
//! `spgemm.spill_bytes` counter. Values round-trip through `f64::to_bits`
//! so the merge is bit-identical to the in-memory path.

#![expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the spill module is the single scratch-I/O mediation point; raw calls live only here"
)]

use std::fs;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::SparseError;
use crate::Result;

/// Monotone sequence number distinguishing concurrent spill directories
/// created by the same process (e.g. parallel tests).
static SPILL_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn io_err(what: &str, path: &Path, e: std::io::Error) -> SparseError {
    SparseError::Io(format!("{what} {}: {e}", path.display()))
}

/// RAII scratch directory for one out-of-core multiply.
///
/// Created under the plan's spill dir (or the OS temp dir) with a
/// process-unique name; removed — including any tile files inside — when
/// dropped. Because the panel entry points own the `SpillDir` on their
/// stack, cleanup runs on success, on error returns (cancellation, I/O
/// failure), and on unwind (a panicking serial kernel), and the parallel
/// runner's `catch_unwind` converts worker panics into error returns that
/// drop it too.
#[derive(Debug)]
pub(crate) struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh scratch directory under `base` (or the OS temp dir).
    pub(crate) fn create(base: Option<&Path>) -> Result<SpillDir> {
        let parent = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let name = format!(
            "symclust_spill_{}_{}",
            std::process::id(),
            SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = parent.join(name);
        fs::create_dir_all(&path).map_err(|e| io_err("create spill dir", &path, e))?;
        Ok(SpillDir { path })
    }

    /// Path of the scratch file for tile index `tile`.
    pub(crate) fn tile_path(&self, tile: usize) -> PathBuf {
        self.path.join(format!("t{tile}.bin"))
    }

    /// The scratch directory itself (used by cleanup tests).
    #[cfg(test)]
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: a failed cleanup must not turn a successful multiply
        // (or an in-flight panic) into an abort.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Write one tile's partial products to `path`; returns the byte count
/// (always `12 × nnz` for the `u32`+`f64` row-major layout).
pub(crate) fn write_tile(
    path: &Path,
    row_lens: &[u32],
    indices: &[u32],
    values: &[f64],
) -> Result<u64> {
    debug_assert_eq!(indices.len(), values.len());
    debug_assert_eq!(
        row_lens.iter().map(|&l| l as usize).sum::<usize>(),
        indices.len()
    );
    let file = fs::File::create(path).map_err(|e| io_err("create spill file", path, e))?;
    let mut w = BufWriter::new(file);
    let mut at = 0usize;
    for &len in row_lens {
        let len = len as usize;
        for &j in &indices[at..at + len] {
            w.write_all(&j.to_le_bytes())
                .map_err(|e| io_err("write spill file", path, e))?;
        }
        for &v in &values[at..at + len] {
            w.write_all(&v.to_bits().to_le_bytes())
                .map_err(|e| io_err("write spill file", path, e))?;
        }
        at += len;
    }
    w.flush().map_err(|e| io_err("flush spill file", path, e))?;
    Ok(indices.len() as u64 * 12)
}

/// Sequential reader over one spilled tile, consumed row by row in the same
/// order `write_tile` produced.
#[derive(Debug)]
pub(crate) struct TileReader {
    reader: BufReader<fs::File>,
    path: PathBuf,
}

impl TileReader {
    /// Open the tile file at `path` for sequential reading.
    pub(crate) fn open(path: &Path) -> Result<TileReader> {
        let file = fs::File::open(path).map_err(|e| io_err("open spill file", path, e))?;
        Ok(TileReader {
            reader: BufReader::new(file),
            path: path.to_path_buf(),
        })
    }

    /// Read the next row (of known length `len`), appending its column
    /// indices and values to the output buffers.
    pub(crate) fn read_row(
        &mut self,
        len: usize,
        indices: &mut Vec<u32>,
        values: &mut Vec<f64>,
    ) -> Result<()> {
        let mut buf4 = [0u8; 4];
        for _ in 0..len {
            self.reader
                .read_exact(&mut buf4)
                .map_err(|e| io_err("read spill file", &self.path, e))?;
            indices.push(u32::from_le_bytes(buf4));
        }
        let mut buf8 = [0u8; 8];
        for _ in 0..len {
            self.reader
                .read_exact(&mut buf8)
                .map_err(|e| io_err("read spill file", &self.path, e))?;
            values.push(f64::from_bits(u64::from_le_bytes(buf8)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_round_trips_bit_exactly() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.tile_path(3);
        let row_lens = [2u32, 0, 3];
        let indices = [5u32, 9, 1, 2, 7];
        let values = [1.5, -0.0, f64::MIN_POSITIVE, 3.25, -7.0];
        let bytes = write_tile(&path, &row_lens, &indices, &values).unwrap();
        assert_eq!(bytes, 12 * 5);

        let mut r = TileReader::open(&path).unwrap();
        let mut got_i = Vec::new();
        let mut got_v = Vec::new();
        for &len in &row_lens {
            r.read_row(len as usize, &mut got_i, &mut got_v).unwrap();
        }
        assert_eq!(got_i, indices);
        // Compare bit patterns: -0.0 must stay -0.0.
        let bits: Vec<u64> = got_v.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let kept;
        {
            let dir = SpillDir::create(None).unwrap();
            kept = dir.path().to_path_buf();
            write_tile(&dir.tile_path(0), &[1], &[0], &[1.0]).unwrap();
            assert!(kept.exists());
        }
        assert!(!kept.exists());
    }

    #[test]
    fn spill_dirs_are_unique_per_call() {
        let a = SpillDir::create(None).unwrap();
        let b = SpillDir::create(None).unwrap();
        assert_ne!(a.path(), b.path());
    }

    #[test]
    fn missing_file_maps_to_io_error() {
        let dir = SpillDir::create(None).unwrap();
        let err = TileReader::open(&dir.tile_path(99)).unwrap_err();
        assert!(matches!(err, SparseError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("t99.bin"));
    }
}
