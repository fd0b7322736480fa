//! Publishing an extent tree into host memory, in place.
//!
//! In the paper's miss flow (Fig. 5b) the hypervisor allocates the missing
//! blocks, updates the VF's device-visible extent tree and signals
//! `RewalkTree`. [`PublishedTree`] is that device-visible tree: it owns the
//! 512-byte node slots it wrote into host memory and a copy of the extents
//! it last encoded. Republishing after a change re-encodes only the leaves
//! from the first extent that differs from that copy, into the same slots,
//! and rewrites the tree's few internal nodes. A slot is allocated only
//! when the tree outgrows the slots it already has, so a disk's tree memory
//! is bounded by its largest tree.
//!
//! The node bytes and the tree shape are exactly those of a fresh
//! serialization (FANOUT-packed leaves, the same depth); only the node
//! addresses are stable across publishes. Internal nodes are rewritten on
//! every publish, which also restores any child pointer a hypervisor prune
//! set to NULL.

use nesc_pcie::{HostAddr, HostMemory};

use crate::layout::{self, NodeEntry, FANOUT, NODE_SIZE};
use crate::tree::ExtentTree;
use crate::types::{ExtentMapping, Vlba};

/// Work counters of a [`PublishedTree`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Calls to [`PublishedTree::publish`].
    pub publishes: u64,
    /// Leaf nodes encoded and written.
    pub leaves_written: u64,
    /// Node slots allocated in host memory (the tree's resident nodes).
    pub slots_allocated: u64,
    /// Node count of the largest tree published.
    pub largest_tree_nodes: u64,
}

/// A disk's device-visible extent tree: reused node slots in host memory
/// plus the extents they currently encode.
///
/// # Example
///
/// ```
/// use nesc_extent::{walk, ExtentMapping, ExtentTree, Plba, PublishedTree, Vlba, WalkOutcome};
/// use nesc_pcie::HostMemory;
///
/// let mut mem = HostMemory::new();
/// let mut tree = ExtentTree::new();
/// let mut published = PublishedTree::new();
/// let root = published.publish(&tree, &mut mem);
/// assert_eq!(walk(&mem, root, Vlba(3)).outcome, WalkOutcome::Hole);
///
/// tree.insert(ExtentMapping::new(Vlba(0), Plba(500), 8)).unwrap();
/// assert_eq!(published.publish(&tree, &mut mem), root); // same slot
/// assert!(matches!(walk(&mem, root, Vlba(3)).outcome, WalkOutcome::Mapped(_)));
/// assert_eq!(published.stats().slots_allocated, 1);
/// ```
#[derive(Debug, Default)]
pub struct PublishedTree {
    /// Slot of leaf `i`; leaf `i` encodes `published[i * FANOUT..]`'s
    /// first [`FANOUT`] extents.
    leaf_slots: Vec<HostAddr>,
    /// Slots of the internal nodes, level by level from the bottom.
    inner_slots: Vec<HostAddr>,
    /// The extents as last written into the leaves.
    published: Vec<ExtentMapping>,
    /// `(node, first logical, end logical)` of the level being built and
    /// of the one above it; reused so a publish allocates only slots.
    level: Vec<(HostAddr, Vlba, Vlba)>,
    parents: Vec<(HostAddr, Vlba, Vlba)>,
    stats: PublishStats,
}

impl PublishedTree {
    /// A tree that owns no slots yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The work counters so far.
    pub fn stats(&self) -> PublishStats {
        self.stats
    }

    /// Publishes `tree` into host memory and returns the root node's
    /// address for the VF's `ExtentTreeRoot` register.
    ///
    /// Leaves before the first extent that differs from the last publish
    /// are left as they are; the rest, and every internal node, are
    /// encoded into this tree's slots. An empty tree publishes as an empty
    /// leaf, so the device can still walk it.
    // nesc-lint: hot
    pub fn publish(&mut self, tree: &ExtentTree, mem: &mut HostMemory) -> HostAddr {
        let extents = tree.as_slice();
        let unchanged = self
            .published
            .iter()
            .zip(extents)
            .take_while(|(a, b)| a == b)
            .count();
        let leaves = extents.len().div_ceil(FANOUT).max(1);
        // Leaf `unchanged / FANOUT` is the first whose extents can differ,
        // unless nothing changed at all since the last publish.
        let same = !self.leaf_slots.is_empty()
            && unchanged == extents.len()
            && unchanged == self.published.len();
        let first_dirty = if same { leaves } else { unchanged / FANOUT };
        self.level.clear();
        for i in 0..leaves {
            let chunk = extents
                .get(i * FANOUT..((i + 1) * FANOUT).min(extents.len()))
                .unwrap_or(&[]);
            let addr = Self::slot(&mut self.leaf_slots, i, mem, &mut self.stats);
            if i >= first_dirty {
                mem.write(addr, &layout::encode_leaf(chunk));
                self.stats.leaves_written += 1;
            }
            let first = chunk.first().map_or(Vlba(0), |e| e.logical);
            let end = chunk.last().map_or(Vlba(0), |e| e.end_logical());
            self.level.push((addr, first, end));
        }
        let mut nodes = leaves;
        let mut inner = 0;
        while self.level.len() > 1 {
            self.parents.clear();
            for chunk in self.level.chunks(FANOUT) {
                let mut entries = [NodeEntry::default(); FANOUT];
                for (entry, &(child, first, end)) in entries.iter_mut().zip(chunk) {
                    *entry = NodeEntry {
                        first_logical: first,
                        blocks: end.distance_from(first),
                        child,
                    };
                }
                let addr = Self::slot(&mut self.inner_slots, inner, mem, &mut self.stats);
                inner += 1;
                let used = entries.get(..chunk.len()).unwrap_or(&[]);
                mem.write(addr, &layout::encode_internal(used));
                let first = chunk.first().map_or(Vlba(0), |c| c.1);
                let end = chunk.last().map_or(Vlba(0), |c| c.2);
                self.parents.push((addr, first, end));
            }
            nodes += self.parents.len();
            std::mem::swap(&mut self.level, &mut self.parents);
        }
        self.published.truncate(unchanged);
        self.published
            .extend_from_slice(extents.get(unchanged..).unwrap_or(&[]));
        self.stats.publishes += 1;
        self.stats.largest_tree_nodes = self.stats.largest_tree_nodes.max(nodes as u64);
        // A tree always has at least one (leaf) node, so the level holds
        // exactly the root here.
        self.level.first().map_or(0, |root| root.0)
    }

    /// Slot `i` of `slots`, allocating it (and any before it) on first use.
    fn slot(
        slots: &mut Vec<HostAddr>,
        i: usize,
        mem: &mut HostMemory,
        stats: &mut PublishStats,
    ) -> HostAddr {
        loop {
            if let Some(&addr) = slots.get(i) {
                return addr;
            }
            slots.push(mem.alloc(NODE_SIZE as u64, 64));
            stats.slots_allocated += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{decode, Node};
    use crate::types::Plba;
    use crate::walk::{prune_covering, walk, walk_run, WalkOutcome};
    use proptest::prelude::*;

    /// One extent every other block, physically scattered so nothing
    /// merges: `n` extents over `2 n` blocks.
    fn fragmented(n: u64) -> ExtentTree {
        (0..n)
            .map(|i| ExtentMapping::new(Vlba(i * 2), Plba(i * 3 + 7), 1))
            .collect()
    }

    fn node(mem: &HostMemory, addr: HostAddr) -> [u8; NODE_SIZE] {
        let mut buf = [0u8; NODE_SIZE];
        mem.read(addr, &mut buf);
        buf
    }

    /// Walks two trees in step and fails unless every reachable node has
    /// the same bytes, child pointers aside (only where the nodes live may
    /// differ). Returns the number of nodes compared.
    fn same_nodes(a: &HostMemory, ra: HostAddr, b: &HostMemory, rb: HostAddr) -> usize {
        let (na, nb) = (node(a, ra), node(b, rb));
        match (decode(&na), decode(&nb)) {
            (Ok(Node::Leaf(_)), Ok(Node::Leaf(_))) => {
                assert_eq!(na, nb, "leaf bytes differ");
                1
            }
            (Ok(Node::Internal(ea)), Ok(Node::Internal(eb))) => {
                assert_eq!(ea.len(), eb.len(), "internal fanout differs");
                let mut masked = (na, nb);
                for i in 0..ea.len() {
                    let off = layout::child_ptr_offset(i);
                    masked.0[off..off + 8].fill(0);
                    masked.1[off..off + 8].fill(0);
                }
                assert_eq!(masked.0, masked.1, "internal bytes differ");
                1 + ea
                    .iter()
                    .zip(eb.iter())
                    .map(|(x, y)| same_nodes(a, x.child, b, y.child))
                    .sum::<usize>()
            }
            (x, y) => panic!("node kinds differ: {x:?} vs {y:?}"),
        }
    }

    /// The published tree reads exactly like a fresh serialization.
    fn assert_matches_serialize(tree: &ExtentTree, mem: &HostMemory, root: HostAddr, span: u64) {
        let mut fresh = HostMemory::new();
        let fresh_root = tree.serialize(&mut fresh);
        for v in 0..span {
            assert_eq!(
                walk_run(mem, root, Vlba(v), 64),
                walk_run(&fresh, fresh_root, Vlba(v), 64),
                "vLBA {v}"
            );
        }
        same_nodes(mem, root, &fresh, fresh_root);
    }

    #[test]
    fn fresh_publish_lays_nodes_out_like_serialize() {
        let tree = fragmented((FANOUT * FANOUT) as u64 + 3); // 21 leaves, depth 3
        let mut a = HostMemory::new();
        let mut b = HostMemory::new();
        let mut published = PublishedTree::new();
        let root = published.publish(&tree, &mut a);
        assert_eq!(root, tree.serialize(&mut b), "same allocation order");
        assert_eq!(same_nodes(&a, root, &b, root), 21 + 2 + 1);
        let stats = published.stats();
        assert_eq!(stats.publishes, 1);
        assert_eq!(stats.leaves_written, 21);
        assert_eq!(stats.slots_allocated, 24);
        assert_eq!(stats.largest_tree_nodes, 24);
    }

    #[test]
    fn republish_rewrites_from_the_first_changed_leaf() {
        let mut tree = fragmented(5 * FANOUT as u64);
        let mut mem = HostMemory::new();
        let mut published = PublishedTree::new();
        let root = published.publish(&tree, &mut mem);
        // Unchanged: internal nodes only.
        assert_eq!(published.publish(&tree, &mut mem), root);
        assert_eq!(published.stats().leaves_written, 5);
        let partial = fragmented(5 * FANOUT as u64 + 3);
        let mut partial_published = PublishedTree::new();
        partial_published.publish(&partial, &mut mem);
        partial_published.publish(&partial, &mut mem);
        assert_eq!(
            partial_published.stats().leaves_written,
            6,
            "nor a partial last leaf"
        );
        // Remapping an extent of leaf 3 rewrites leaves 3 and 4.
        let v = Vlba(2 * (3 * FANOUT as u64 + 1));
        tree.remove_range(v, 1);
        tree.insert(ExtentMapping::new(v, Plba(90_000), 1)).unwrap();
        assert_eq!(published.publish(&tree, &mut mem), root);
        assert_eq!(published.stats().leaves_written, 5 + 2);
        assert_eq!(published.stats().slots_allocated, 6, "no new slot");
        assert_matches_serialize(&tree, &mem, root, 12 * FANOUT as u64);
    }

    #[test]
    fn shrinking_and_regrowing_reuse_slots() {
        let mut tree = fragmented(3 * FANOUT as u64);
        let mut mem = HostMemory::new();
        let mut published = PublishedTree::new();
        published.publish(&tree, &mut mem);
        let slots = published.stats().slots_allocated;
        tree.remove_range(Vlba(0), u64::MAX / 2);
        let root = published.publish(&tree, &mut mem);
        assert_eq!(walk(&mem, root, Vlba(0)).outcome, WalkOutcome::Hole);
        assert_matches_serialize(&tree, &mem, root, 8 * FANOUT as u64);
        let tree = fragmented(3 * FANOUT as u64);
        let root = published.publish(&tree, &mut mem);
        assert_matches_serialize(&tree, &mem, root, 8 * FANOUT as u64);
        assert_eq!(published.stats().slots_allocated, slots);
        assert_eq!(published.stats().largest_tree_nodes, slots);
    }

    #[test]
    fn republish_restores_pruned_pointers() {
        let tree = fragmented(4 * FANOUT as u64);
        let mut mem = HostMemory::new();
        let mut published = PublishedTree::new();
        let root = published.publish(&tree, &mut mem);
        assert!(prune_covering(&mut mem, root, Vlba(0)));
        assert!(matches!(
            walk(&mem, root, Vlba(0)).outcome,
            WalkOutcome::Pruned { .. }
        ));
        assert_eq!(published.publish(&tree, &mut mem), root);
        assert_matches_serialize(&tree, &mem, root, 10 * FANOUT as u64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random inserts, hole punches and physical remaps, each followed
        /// by a publish into the same tree: every vLBA walks exactly as on
        /// a fresh serialization, and every reachable node has its bytes.
        #[test]
        fn prop_republish_matches_fresh_serialize(
            base in 0u64..500,
            ops in proptest::collection::vec((0u8..3, 0u64..1_200, 1u64..40, 0u64..1_000_000), 1..12),
        ) {
            let mut tree = fragmented(base);
            let mut mem = HostMemory::new();
            let mut published = PublishedTree::new();
            let span = 2 * base + 1_300;
            let root = published.publish(&tree, &mut mem);
            assert_matches_serialize(&tree, &mem, root, span);
            for &(kind, start, len, phys) in &ops {
                match kind {
                    0 => {
                        let _ = tree.insert(ExtentMapping::new(Vlba(start), Plba(phys), len));
                    }
                    1 => tree.remove_range(Vlba(start), len),
                    _ => {
                        tree.remove_range(Vlba(start), len);
                        tree.insert(ExtentMapping::new(Vlba(start), Plba(phys), len)).unwrap();
                    }
                }
                let root = published.publish(&tree, &mut mem);
                assert_matches_serialize(&tree, &mem, root, span);
                let s = published.stats();
                prop_assert!(s.slots_allocated <= s.largest_tree_nodes);
            }
        }
    }
}
