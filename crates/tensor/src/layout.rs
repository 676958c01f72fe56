//! Memory layout of SparTen tensors (§3.1, second half).
//!
//! Data is held in two parts. The first is an array of `(SparseMap, ptr)`
//! two-tuples, one per chunk — the [`ChunkDirectory`]. The second holds the
//! variable-count non-zero values.

use crate::mask::SparseMap;

/// Directory of per-chunk `(SparseMap, value pointer)` tuples for one tensor
/// (all the filters, the input map, or the output map of a layer).
#[derive(Debug, Clone, Default)]
pub struct ChunkDirectory {
    entries: Vec<DirectoryEntry>,
}

/// One `(mask, pointer)` tuple in a [`ChunkDirectory`].
#[derive(Debug, Clone)]
pub struct DirectoryEntry {
    /// The chunk's bit mask.
    pub mask: SparseMap,
    /// Byte address of the chunk's packed values within the value region.
    pub value_ptr: usize,
}

impl ChunkDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk entry and returns its index.
    pub fn push(&mut self, mask: SparseMap, value_ptr: usize) -> usize {
        self.entries.push(DirectoryEntry { mask, value_ptr });
        self.entries.len() - 1
    }

    /// The directory entries in chunk order.
    pub fn entries(&self) -> &[DirectoryEntry] {
        &self.entries
    }

    /// Mutable access to the directory entries, used by fault injection
    /// to perturb masks and pointers in place.
    pub fn entries_mut(&mut self) -> &mut [DirectoryEntry] {
        &mut self.entries
    }

    /// Number of chunks catalogued.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Directory size in bits: one mask (`chunk_size` bits) plus one
    /// `ptr_bits` pointer per chunk.
    pub fn storage_bits(&self, chunk_size: usize, ptr_bits: usize) -> usize {
        self.entries.len() * (chunk_size + ptr_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_tracks_entries() {
        let mut d = ChunkDirectory::new();
        let i0 = d.push(SparseMap::ones(128), 0);
        let i1 = d.push(SparseMap::zeros(128), 512);
        assert_eq!((i0, i1), (0, 1));
        assert_eq!(d.len(), 2);
        assert_eq!(d.entries()[1].value_ptr, 512);
        // 2 chunks × (128-bit mask + 32-bit ptr).
        assert_eq!(d.storage_bits(128, 32), 2 * 160);
    }
}
