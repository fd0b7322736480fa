#![warn(missing_docs)]

//! Extent trees: the vLBA→pLBA mapping structure at the heart of NeSC.
//!
//! NeSC associates every virtual function with a *software-defined,
//! hardware-traversed* extent tree (paper §IV-B, Fig. 4). The hypervisor
//! builds the tree in host memory from the host filesystem's own per-file
//! extents; the device walks it with DMA reads to translate each client
//! block address, enforcing isolation purely by construction — a VF simply
//! has no way to name a physical block outside its tree.
//!
//! This crate implements both halves:
//!
//! * [`ExtentTree`] — the software (builder) representation the hypervisor
//!   maintains: insert/lookup/merge of [`ExtentMapping`]s, hole semantics,
//!   and serialization into the device-visible format.
//! * [`PublishedTree`] — a VF's device-visible tree kept in place: reused
//!   node slots in host memory, rewritten from the first changed leaf on
//!   each republish.
//! * [`walk()`] — the device's view: given only a root pointer and a
//!   [`HostMemory`][nesc_pcie::HostMemory], traverse serialized nodes
//!   exactly as the block-walk unit does, reporting how many levels (=DMA
//!   round trips) the walk took, whether it hit a mapping, a hole, or a
//!   pruned subtree.
//!
//! The serialized layout ([`layout`]) mirrors ext4's extent trees: fixed
//! 512-byte nodes whose header says whether entries are node pointers or
//! extent pointers; node-pointer entries carry `(first logical block,
//! blocks covered, child pointer)` and a NULL child pointer marks a pruned
//! subtree (paper: "the hypervisor can prune parts of the extent tree and
//! mark the pruned sections by storing NULL in their respective Next Node
//! Pointer").

pub mod guest;
pub mod layout;
pub mod publish;
pub mod tree;
pub mod types;
pub mod walk;

pub use guest::{
    validate_chain_len, validate_cid, validate_count, validate_nlb, validate_ring_tail,
    validate_sector, validate_slba, GuestFault, Untrusted,
};
pub use layout::{NodeKind, FANOUT, NODE_SIZE};
pub use publish::{PublishStats, PublishedTree};
pub use tree::{ExtentTree, InsertError};
pub use types::{BlockAddr, ExtentMapping, Plba, Vlba, BLOCK_SIZE};
pub use walk::{prune_covering, walk, walk_run, WalkOutcome, WalkResult, WalkRun};
