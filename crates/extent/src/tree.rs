//! The hypervisor-side (builder) extent tree.
//!
//! [`ExtentTree`] is the software representation the hypervisor maintains
//! per virtual function: an ordered set of non-overlapping
//! [`ExtentMapping`]s. Virtual blocks not covered by any extent are *holes*
//! — unallocated thanks to lazy allocation, reading as zeros per POSIX
//! (paper §IV-C).
//!
//! [`ExtentTree::serialize`] lowers the mapping into the device-visible
//! node format in host memory (bottom-up B-tree construction with the
//! layout's fanout) and returns the root pointer the hypervisor stores in
//! the VF's `ExtentTreeRoot` register. Like ext4, "the key benefit of
//! extent trees is that their depth is not fixed but rather depends on the
//! mapping itself": a file mapped by one extent serializes to a single leaf
//! node, while a fragmented file grows internal levels.

use nesc_pcie::{HostAddr, HostMemory};

use crate::layout::FANOUT;
use crate::publish::PublishedTree;
use crate::types::{ExtentMapping, Vlba};

/// Error inserting an extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertError {
    /// The new extent's logical range overlaps an existing mapping.
    Overlap {
        /// The mapping already present.
        existing: ExtentMapping,
        /// The mapping that was rejected.
        rejected: ExtentMapping,
    },
}

impl std::fmt::Display for InsertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InsertError::Overlap { existing, rejected } => {
                write!(f, "extent {rejected} overlaps existing {existing}")
            }
        }
    }
}

impl std::error::Error for InsertError {}

/// An ordered, non-overlapping set of extents mapping a virtual device (a
/// file) onto physical blocks.
///
/// # Example
///
/// ```
/// use nesc_extent::{ExtentTree, ExtentMapping, Vlba, Plba};
///
/// let mut tree = ExtentTree::new();
/// tree.insert(ExtentMapping::new(Vlba(0), Plba(1000), 8)).unwrap();
/// tree.insert(ExtentMapping::new(Vlba(8), Plba(1008), 8)).unwrap(); // merges
/// assert_eq!(tree.extent_count(), 1);
/// assert_eq!(tree.lookup(Vlba(12)).unwrap().translate(Vlba(12)), Some(Plba(1012)));
/// assert!(tree.lookup(Vlba(100)).is_none()); // a hole
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExtentTree {
    /// Sorted by `logical`, pairwise non-overlapping, adjacent-merged.
    extents: Vec<ExtentMapping>,
}

impl ExtentTree {
    /// Creates an empty tree (every block is a hole).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a tree from extents in any order.
    ///
    /// # Errors
    ///
    /// Returns the first [`InsertError::Overlap`] encountered.
    pub fn from_extents(
        extents: impl IntoIterator<Item = ExtentMapping>,
    ) -> Result<Self, InsertError> {
        let mut t = ExtentTree::new();
        for e in extents {
            t.insert(e)?;
        }
        Ok(t)
    }

    /// Number of extents after merging.
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Total mapped blocks (excludes holes).
    pub fn mapped_blocks(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// One past the last mapped virtual block, or `Vlba(0)` if empty.
    pub fn logical_end(&self) -> Vlba {
        self.extents
            .last()
            .map(|e| e.end_logical())
            .unwrap_or(Vlba(0))
    }

    /// Iterates extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = &ExtentMapping> {
        self.extents.iter()
    }

    /// The extents in logical order.
    pub(crate) fn as_slice(&self) -> &[ExtentMapping] {
        &self.extents
    }

    /// Inserts a mapping, merging with logically+physically adjacent
    /// neighbours (the same coalescing ext4 performs).
    ///
    /// # Errors
    ///
    /// [`InsertError::Overlap`] if the logical range is already mapped.
    pub fn insert(&mut self, ext: ExtentMapping) -> Result<(), InsertError> {
        let pos = self.extents.partition_point(|e| e.logical < ext.logical);
        if let Some(prev) = pos.checked_sub(1).and_then(|i| self.extents.get(i)) {
            if prev.overlaps_logical(&ext) {
                return Err(InsertError::Overlap {
                    existing: *prev,
                    rejected: ext,
                });
            }
        }
        if let Some(next) = self.extents.get(pos) {
            if next.overlaps_logical(&ext) {
                return Err(InsertError::Overlap {
                    existing: *next,
                    rejected: ext,
                });
            }
        }
        self.extents.insert(pos, ext);
        // Merge with the next extent, then with the previous one.
        if pos + 1 < self.extents.len() && self.extents[pos].abuts(&self.extents[pos + 1]) {
            self.extents[pos].len += self.extents[pos + 1].len;
            self.extents.remove(pos + 1);
        }
        if pos > 0 && self.extents[pos - 1].abuts(&self.extents[pos]) {
            self.extents[pos - 1].len += self.extents[pos].len;
            self.extents.remove(pos);
        }
        Ok(())
    }

    /// The extent covering `v`, if mapped.
    pub fn lookup(&self, v: Vlba) -> Option<ExtentMapping> {
        let pos = self.extents.partition_point(|e| e.logical <= v);
        pos.checked_sub(1)
            .map(|i| self.extents[i])
            .filter(|e| e.contains(v))
    }

    /// Start of the first extent at or after `v`: where a hole beginning
    /// at `v` ends, found with one search (`None` if no extent follows).
    pub fn next_mapped(&self, v: Vlba) -> Option<Vlba> {
        let pos = self.extents.partition_point(|e| e.logical < v);
        self.extents.get(pos).map(|e| e.logical)
    }

    /// Unmaps `[start, start+len)`, splitting extents as needed (hole
    /// punching / truncation). Blocks already unmapped are ignored.
    pub fn remove_range(&mut self, start: Vlba, len: u64) {
        if len == 0 {
            return;
        }
        let end = start.offset(len);
        let mut out = Vec::with_capacity(self.extents.len() + 1);
        for e in self.extents.drain(..) {
            if e.end_logical() <= start || e.logical >= end {
                out.push(e);
                continue;
            }
            // Left remainder.
            if e.logical < start {
                out.push(ExtentMapping::new(
                    e.logical,
                    e.physical,
                    start.distance_from(e.logical),
                ));
            }
            // Right remainder.
            if e.end_logical() > end {
                let cut = end.distance_from(e.logical);
                out.push(ExtentMapping::new(
                    end,
                    e.physical.offset(cut),
                    e.end_logical().distance_from(end),
                ));
            }
        }
        self.extents = out;
    }

    /// Serializes the tree into host memory in the device-visible layout,
    /// returning the root node's address for the VF's `ExtentTreeRoot`
    /// register: a publish into a fresh [`PublishedTree`], so the nodes
    /// are laid out leaves first, then each internal level bottom-up.
    ///
    /// An empty tree serializes to an empty leaf, so the device can still
    /// walk it (and correctly report every block as a hole).
    pub fn serialize(&self, mem: &mut HostMemory) -> HostAddr {
        PublishedTree::new().publish(self, mem)
    }

    /// The depth (node reads per cold walk) this tree serializes to.
    pub fn serialized_depth(&self) -> u32 {
        let mut nodes = self.extents.len().max(1).div_ceil(FANOUT);
        let mut depth = 1;
        while nodes > 1 {
            nodes = nodes.div_ceil(FANOUT);
            depth += 1;
        }
        depth
    }
}

impl FromIterator<ExtentMapping> for ExtentTree {
    /// Builds a tree, panicking on overlap; use [`ExtentTree::from_extents`]
    /// for fallible construction.
    fn from_iter<I: IntoIterator<Item = ExtentMapping>>(iter: I) -> Self {
        ExtentTree::from_extents(iter).expect("overlapping extents")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Plba;
    use proptest::prelude::*;

    #[test]
    fn insert_rejects_overlap() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(10), Plba(0), 10)).unwrap();
        let err = t
            .insert(ExtentMapping::new(Vlba(15), Plba(100), 1))
            .unwrap_err();
        assert!(matches!(err, InsertError::Overlap { .. }));
        assert!(err.to_string().contains("overlaps"));
        // Non-overlapping neighbours are fine.
        t.insert(ExtentMapping::new(Vlba(0), Plba(50), 10)).unwrap();
        t.insert(ExtentMapping::new(Vlba(20), Plba(60), 5)).unwrap();
    }

    #[test]
    fn merges_adjacent_extents() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(0), Plba(100), 4)).unwrap();
        t.insert(ExtentMapping::new(Vlba(8), Plba(108), 4)).unwrap();
        // Fill the gap with the physically-contiguous middle piece: all
        // three coalesce into one extent.
        t.insert(ExtentMapping::new(Vlba(4), Plba(104), 4)).unwrap();
        assert_eq!(t.extent_count(), 1);
        assert_eq!(t.mapped_blocks(), 12);
        assert_eq!(t.logical_end(), Vlba(12));
    }

    #[test]
    fn physically_discontiguous_do_not_merge() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(0), Plba(100), 4)).unwrap();
        t.insert(ExtentMapping::new(Vlba(4), Plba(500), 4)).unwrap();
        assert_eq!(t.extent_count(), 2);
    }

    #[test]
    fn lookup_hits_and_holes() {
        let t: ExtentTree = [
            ExtentMapping::new(Vlba(0), Plba(10), 2),
            ExtentMapping::new(Vlba(10), Plba(20), 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            t.lookup(Vlba(1)).unwrap().translate(Vlba(1)),
            Some(Plba(11))
        );
        assert!(t.lookup(Vlba(2)).is_none());
        assert!(t.lookup(Vlba(9)).is_none());
        assert_eq!(
            t.lookup(Vlba(11)).unwrap().translate(Vlba(11)),
            Some(Plba(21))
        );
        assert!(t.lookup(Vlba(12)).is_none());
    }

    #[test]
    fn remove_range_splits() {
        let mut t = ExtentTree::new();
        t.insert(ExtentMapping::new(Vlba(0), Plba(100), 10))
            .unwrap();
        t.remove_range(Vlba(3), 4);
        assert_eq!(t.extent_count(), 2);
        assert_eq!(
            t.lookup(Vlba(2)).unwrap().translate(Vlba(2)),
            Some(Plba(102))
        );
        assert!(t.lookup(Vlba(3)).is_none());
        assert!(t.lookup(Vlba(6)).is_none());
        assert_eq!(
            t.lookup(Vlba(7)).unwrap().translate(Vlba(7)),
            Some(Plba(107))
        );
        t.remove_range(Vlba(0), 100);
        assert_eq!(t.extent_count(), 0);
        t.remove_range(Vlba(0), 0); // no-op
    }

    #[test]
    fn depth_grows_with_fragmentation() {
        // FANOUT extents fit a single leaf; FANOUT+1 need a root.
        let single: ExtentTree = (0..FANOUT as u64)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 2), 1))
            .collect();
        assert_eq!(single.serialized_depth(), 1);
        let two: ExtentTree = (0..FANOUT as u64 + 1)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 2), 1))
            .collect();
        assert_eq!(two.serialized_depth(), 2);
        let three: ExtentTree = (0..(FANOUT * FANOUT) as u64 + 1)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 2), 1))
            .collect();
        assert_eq!(three.serialized_depth(), 3);
    }

    #[test]
    fn empty_tree_serializes() {
        let mut mem = HostMemory::new();
        let t = ExtentTree::new();
        let root = t.serialize(&mut mem);
        assert_ne!(root, 0);
        assert_eq!(t.serialized_depth(), 1);
    }

    proptest! {
        /// lookup() agrees with a brute-force reference map built from the
        /// same random (disjoint) extents.
        #[test]
        fn prop_lookup_matches_reference(
            // Random disjoint extents via start offsets spaced by stride.
            seeds in proptest::collection::vec((0u64..50, 1u64..20, 0u64..100_000), 1..60)
        ) {
            let mut t = ExtentTree::new();
            let mut reference = std::collections::HashMap::new();
            let mut cursor = 0u64;
            for &(gap, len, phys) in &seeds {
                let logical = cursor + gap;
                cursor = logical + len;
                if t.insert(ExtentMapping::new(Vlba(logical), Plba(phys), len)).is_ok() {
                    for i in 0..len {
                        reference.insert(logical + i, phys + i);
                    }
                }
            }
            for v in 0..cursor + 10 {
                let got = t.lookup(Vlba(v)).and_then(|e| e.translate(Vlba(v)));
                prop_assert_eq!(got, reference.get(&v).map(|&p| Plba(p)));
            }
        }

        /// remove_range never leaves blocks mapped inside the removed range
        /// and never disturbs blocks outside it.
        #[test]
        fn prop_remove_range_exact(
            len in 1u64..200,
            cut_start in 0u64..220,
            cut_len in 0u64..100,
        ) {
            let mut t = ExtentTree::new();
            t.insert(ExtentMapping::new(Vlba(0), Plba(1000), len)).unwrap();
            t.remove_range(Vlba(cut_start), cut_len);
            for v in 0..len + 20 {
                let inside_cut = v >= cut_start && v < cut_start + cut_len;
                let originally = v < len;
                let got = t.lookup(Vlba(v)).and_then(|e| e.translate(Vlba(v)));
                if originally && !inside_cut {
                    prop_assert_eq!(got, Some(Plba(1000 + v)));
                } else {
                    prop_assert_eq!(got, None);
                }
            }
        }
    }
}
