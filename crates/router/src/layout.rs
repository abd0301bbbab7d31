//! The router's data-memory map: where datagrams and routing tables live
//! and how they are packed into 32-bit words.
//!
//! "It scans the input ports of the line cards for pending datagrams, which
//! are transferred into the main memory of the processor … we choose to
//! transfer the entire datagram in the main memory."  This module defines
//! that transfer: datagrams are packed big-endian into words, the
//! sequential table is a flat array of `(mask₀,pfx₀,…)` entries ordered
//! longest-prefix-first with the word-0 pair leading for early-out scans,
//! and the balanced tree is a pointer-linked BST over address-space
//! segments.

use taco_ipv6::Datagram;
use taco_routing::{BalancedTreeTable, SequentialTable};

/// First word address of the routing table image.
pub const TABLE_BASE: u32 = 0x100;

/// First word address of the datagram buffer area, for table images that
/// end below it (see [`dgram_base`]).
pub(crate) const DGRAM_BASE: u32 = 0x2000;

/// Words reserved per buffered datagram (2 KiB — enough for any packet the
/// paper's line cards deliver on Ethernet).
pub const DGRAM_SLOT_WORDS: u32 = 512;

/// Words per sequential-table entry:
/// `[mask0, pfx0, mask1, pfx1, mask2, pfx2, mask3, pfx3, iface, handle, 0, 0]`.
///
/// Mask and prefix words are interleaved so the scan microcode can reject a
/// non-matching entry after reading only the first pair.
pub const SEQ_ENTRY_WORDS: u32 = 12;

/// Words per balanced-tree node:
/// `[key0, key1, key2, key3, left, right, iface, handle]`, where `left` and
/// `right` are absolute word addresses or [`NULL_PTR`].
pub(crate) const TREE_NODE_WORDS: u32 = 8;

/// Null child pointer in tree nodes.
pub(crate) const NULL_PTR: u32 = 0xffff_ffff;

/// Interface value meaning "no route" in table images and RTU results.
pub(crate) const MISS_IFACE: u32 = 0xffff_ffff;

/// Word offset of the destination address inside a buffered datagram
/// (bytes 24–39 of the IPv6 header).
pub const DST_ADDR_WORD: u32 = 6;

/// Packs a datagram into big-endian 32-bit words (zero-padded tail).
///
/// # Examples
///
/// ```
/// use taco_ipv6::{Datagram, NextHeader};
/// use taco_router::layout::{datagram_to_words, DST_ADDR_WORD};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let d = Datagram::builder("2001:db8::1".parse()?, "2001:db8::2".parse()?)
///     .payload(NextHeader::Udp, vec![1, 2, 3])
///     .build();
/// let words = datagram_to_words(&d);
/// assert_eq!(words[0] >> 28, 6); // version nibble
/// assert_eq!(words[DST_ADDR_WORD as usize], 0x2001_0db8);
/// # Ok(())
/// # }
/// ```
pub fn datagram_to_words(d: &Datagram) -> Vec<u32> {
    bytes_to_words(&d.to_bytes())
}

/// Packs raw wire bytes into big-endian 32-bit words (zero-padded tail) —
/// the same image [`datagram_to_words`] produces, without requiring the
/// bytes to parse.
pub fn bytes_to_words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks(4)
        .map(|c| {
            let mut w = [0u8; 4];
            w[..c.len()].copy_from_slice(c);
            u32::from_be_bytes(w)
        })
        .collect()
}

/// Unpacks `byte_len` bytes from big-endian words back into raw bytes.
pub fn words_to_bytes(words: &[u32], byte_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(byte_len);
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
        if out.len() >= byte_len {
            break;
        }
    }
    out.truncate(byte_len);
    out
}

/// First word address of the datagram buffer area above a table image that
/// ends at `image_end`: `DGRAM_BASE`, or the next slot boundary past the
/// image when the image reaches beyond it (more than 7936 words — 661
/// sequential entries), so a datagram is never written over table entries.
#[inline]
pub fn dgram_base(image_end: u32) -> u32 {
    DGRAM_BASE
        .max(image_end.saturating_add(DGRAM_SLOT_WORDS - 1) / DGRAM_SLOT_WORDS * DGRAM_SLOT_WORDS)
}

/// Serialises a sequential table into its memory image.
///
/// Entries appear in the table's scan order (longest prefix first); the
/// `handle` word of entry *k* is *k*, so tests can map a lookup result back
/// to the entry.
pub fn serialize_sequential(table: &SequentialTable) -> Vec<u32> {
    let mut out = Vec::with_capacity(table.entries().len() * SEQ_ENTRY_WORDS as usize);
    for (k, route) in table.entries().iter().enumerate() {
        let pfx = route.prefix().addr().to_words();
        let mask = route.prefix().mask_words();
        for i in 0..4 {
            out.push(mask[i]);
            out.push(pfx[i]);
        }
        out.push(u32::from(route.interface().0));
        out.push(k as u32);
        out.push(0);
        out.push(0);
    }
    out
}

/// Serialises a balanced-tree table into a pointer-linked balanced BST over
/// its segments, rooted at `TABLE_BASE`.
///
/// The microcode performs a predecessor search: descend left when the
/// destination is smaller than the node key, otherwise remember the node as
/// the best candidate and descend right; the candidate's `iface`/`handle`
/// answer the lookup ([`MISS_IFACE`] for segments not covered by any
/// route).
pub fn serialize_tree(table: &BalancedTreeTable) -> Vec<u32> {
    struct Seg {
        key: [u32; 4],
        iface: u32,
        handle: u32,
    }
    let mut segs: Vec<Seg> = table
        .segments()
        .enumerate()
        .map(|(k, (start, route))| Seg {
            key: start.to_words(),
            iface: route.map_or(MISS_IFACE, |r| u32::from(r.interface().0)),
            handle: k as u32,
        })
        .collect();
    if segs.is_empty() {
        // A freshly constructed empty table has no segments yet; the walk
        // still needs one terminating miss node covering the whole space.
        segs.push(Seg { key: [0; 4], iface: MISS_IFACE, handle: 0 });
    }

    // Build a balanced BST; node ids assigned in recursion order so the
    // root is node 0 (at TABLE_BASE).
    #[derive(Clone, Copy)]
    struct Node {
        seg: usize,
        left: u32,
        right: u32,
    }
    fn build(segs_lo: usize, segs_hi: usize, nodes: &mut Vec<Node>) -> u32 {
        if segs_lo >= segs_hi {
            return NULL_PTR;
        }
        let mid = segs_lo + (segs_hi - segs_lo) / 2;
        let id = nodes.len() as u32;
        nodes.push(Node { seg: mid, left: NULL_PTR, right: NULL_PTR });
        let left = build(segs_lo, mid, nodes);
        let right = build(mid + 1, segs_hi, nodes);
        nodes[id as usize].left = left;
        nodes[id as usize].right = right;
        id
    }
    let mut nodes = Vec::new();
    build(0, segs.len(), &mut nodes);

    let addr_of = |id: u32| -> u32 {
        if id == NULL_PTR {
            NULL_PTR
        } else {
            TABLE_BASE + id * TREE_NODE_WORDS
        }
    };
    let mut out = Vec::with_capacity(nodes.len() * TREE_NODE_WORDS as usize);
    for n in &nodes {
        let s = &segs[n.seg];
        out.extend_from_slice(&s.key);
        out.push(addr_of(n.left));
        out.push(addr_of(n.right));
        out.push(s.iface);
        out.push(s.handle);
    }
    out
}

/// Words per PATRICIA node:
/// `[left, right, iface, handle, branch_off, branch_mask, mask0, pfx0,
/// mask1, pfx1, mask2, pfx2, mask3, pfx3, 0, 0]`.
///
/// `branch_off` is the datagram-relative word offset holding the node's
/// branch bit (`DST_ADDR_WORD + len/32`) and `branch_mask` selects that
/// bit within the word (`0` for /128 nodes, which are always leaves).  The
/// interleaved mask/prefix pairs let the walk verify the *whole* node
/// prefix — path compression skips bits, so the descent path does not
/// imply them.
pub(crate) const PAT_NODE_WORDS: u32 = 16;

/// Serialises a PATRICIA table into its memory image, rooted at
/// [`TABLE_BASE`].
///
/// The microcode verifies each node's masked prefix against the
/// destination (mismatch ends the walk), remembers the last
/// route-carrying node (`iface != MISS_IFACE`), and descends by the bit
/// `branch_off`/`branch_mask` select; a null child ends the walk.
pub(crate) fn serialize_patricia(table: &taco_routing::PatriciaTable) -> Vec<u32> {
    let addr_of = |idx: Option<usize>| -> u32 {
        match idx {
            Some(i) => TABLE_BASE + i as u32 * PAT_NODE_WORDS,
            None => NULL_PTR,
        }
    };
    let mut out = Vec::new();
    for (k, (prefix, route, left, right)) in table.flat_nodes().enumerate() {
        out.push(addr_of(left));
        out.push(addr_of(right));
        out.push(route.map_or(MISS_IFACE, |r| u32::from(r.interface().0)));
        out.push(k as u32);
        let len = u32::from(prefix.len());
        if len >= 128 {
            out.push(DST_ADDR_WORD + 3);
            out.push(0); // never branches: /128 nodes are leaves
        } else {
            out.push(DST_ADDR_WORD + len / 32);
            out.push(1u32 << (31 - (len % 32)));
        }
        let mask = prefix.mask_words();
        let pfx = prefix.addr().to_words();
        for i in 0..4 {
            out.push(mask[i]);
            out.push(pfx[i]);
        }
        out.push(0);
        out.push(0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ipv6::NextHeader;
    use taco_routing::{PortId, Route};

    fn r(p: &str, port: u16) -> Route {
        Route::new(p.parse().unwrap(), "fe80::1".parse().unwrap(), PortId(port), 1)
    }

    #[test]
    fn datagram_words_round_trip() {
        let d = Datagram::builder("2001:db8::1".parse().unwrap(), "2001:db8::2".parse().unwrap())
            .hop_limit(33)
            .payload(NextHeader::Udp, vec![9u8; 11])
            .build();
        let words = datagram_to_words(&d);
        let bytes = words_to_bytes(&words, d.wire_len());
        assert_eq!(Datagram::parse(&bytes).unwrap(), d);
    }

    #[test]
    fn header_fields_at_documented_offsets() {
        let d = Datagram::builder("2001:db8::1".parse().unwrap(), "aaaa:bbbb::cc".parse().unwrap())
            .hop_limit(64)
            .payload(NextHeader::Udp, vec![0u8; 8])
            .build();
        let words = datagram_to_words(&d);
        // Word 1 is `payload len | next header | hop limit`.
        assert_eq!(words[1] & 0xff, 64);
        assert_eq!(words[DST_ADDR_WORD as usize], 0xaaaa_bbbb);
        assert_eq!(words[DST_ADDR_WORD as usize + 3], 0x0000_00cc);
    }

    #[test]
    fn sequential_image_shape() {
        let t = SequentialTable::from_routes([r("2001:db8::/32", 3), r("::/0", 1)]);
        let img = serialize_sequential(&t);
        assert_eq!(img.len(), 2 * SEQ_ENTRY_WORDS as usize);
        // First entry is the /32 (longest first): mask0, pfx0 interleaved.
        assert_eq!(img[0], 0xffff_ffff);
        assert_eq!(img[1], 0x2001_0db8);
        assert_eq!(img[8], 3); // iface
        assert_eq!(img[9], 0); // handle
                               // Second entry: the default route (all-zero masks).
        assert_eq!(img[SEQ_ENTRY_WORDS as usize], 0);
        assert_eq!(img[SEQ_ENTRY_WORDS as usize + 8], 1);
    }

    #[test]
    fn tree_image_root_and_pointers() {
        let t = BalancedTreeTable::from_routes([r("8000::/1", 7)]);
        // Segments: [::, route None] and [8000::, route 7].
        let img = serialize_tree(&t);
        assert_eq!(img.len(), 2 * TREE_NODE_WORDS as usize);
        // Root is the middle segment (index 1 of 2 → 8000::).
        assert_eq!(img[0], 0x8000_0000);
        assert_eq!(img[6], 7);
        // Its left child is the :: segment with no route.
        let left_addr = img[4];
        assert_eq!(left_addr, TABLE_BASE + TREE_NODE_WORDS);
        let left = &img[TREE_NODE_WORDS as usize..];
        assert_eq!(left[0], 0);
        assert_eq!(left[6], MISS_IFACE);
        assert_eq!(img[5], NULL_PTR); // root has no right child
    }

    #[test]
    fn patricia_image_compresses_paths_and_flags_branch_bits() {
        let t = taco_routing::PatriciaTable::from_routes([r("2001:db8::/32", 3), r("::/0", 1)]);
        let img = serialize_patricia(&t);
        // Root (::/0 with the default route) plus one /32 leaf.
        assert_eq!(img.len(), 2 * PAT_NODE_WORDS as usize);
        let root = &img[..PAT_NODE_WORDS as usize];
        assert_eq!(root[2], 1, "default route lives at the root");
        assert_eq!(root[4], DST_ADDR_WORD, "branch bit 0 lives in dst word 0");
        assert_eq!(root[5], 0x8000_0000);
        assert_eq!(&root[6..14], &[0, 0, 0, 0, 0, 0, 0, 0], "::/0 masks nothing");
        // The /32 leaf hangs off the root's 0-side (2001:... starts 001…).
        assert_eq!(root[0], TABLE_BASE + PAT_NODE_WORDS);
        assert_eq!(root[1], NULL_PTR);
        let leaf = &img[PAT_NODE_WORDS as usize..];
        assert_eq!(leaf[2], 3);
        assert_eq!(leaf[4], DST_ADDR_WORD + 1, "/32 branches on bit 32 = word 1");
        assert_eq!(leaf[5], 0x8000_0000);
        assert_eq!(&leaf[6..10], &[0xffff_ffff, 0x2001_0db8, 0, 0]);
    }

    #[test]
    fn patricia_host_route_never_branches() {
        let t = taco_routing::PatriciaTable::from_routes([r("2001:db8::7/128", 2)]);
        let img = serialize_patricia(&t);
        let leaf = &img[PAT_NODE_WORDS as usize..];
        assert_eq!(leaf[5], 0, "/128 branch mask is the never-matching zero");
        assert_eq!(leaf[4], DST_ADDR_WORD + 3);
        assert_eq!(&leaf[6..10], &[0xffff_ffff, 0x2001_0db8, 0xffff_ffff, 0]);
    }

    #[test]
    fn full_patricia_workload_table_fits_the_table_area() {
        // Path compression keeps the full 100-entry image (at most 2n - 1
        // 16-word nodes) inside the table area.
        let t = taco_routing::PatriciaTable::from_routes(
            (0..100u16).map(|i| r(&format!("2001:db8:{i:x}::/48"), i)),
        );
        let img_end = TABLE_BASE + serialize_patricia(&t).len() as u32;
        assert!(img_end < DGRAM_BASE, "patricia image ({img_end:#x}) runs into datagram area");
    }

    #[test]
    fn dgram_slots_do_not_overlap_table() {
        let t = SequentialTable::from_routes(
            (0..100u16).map(|i| r(&format!("2001:db8:{i:x}::/48"), i)),
        );
        let img_end = TABLE_BASE + serialize_sequential(&t).len() as u32;
        assert!(img_end < DGRAM_BASE, "table image ({img_end:#x}) runs into datagram area");
        assert_eq!(dgram_base(img_end), DGRAM_BASE);
    }

    #[test]
    fn dgram_area_moves_above_an_image_that_outgrows_the_table_area() {
        // 661 sequential entries are the last to end below DGRAM_BASE.
        assert_eq!(dgram_base(TABLE_BASE + 661 * SEQ_ENTRY_WORDS), DGRAM_BASE);
        let end = TABLE_BASE + 662 * SEQ_ENTRY_WORDS;
        assert_eq!(dgram_base(end), DGRAM_BASE + DGRAM_SLOT_WORDS);
        assert!(dgram_base(end) >= end && dgram_base(end).is_multiple_of(DGRAM_SLOT_WORDS));
        assert_eq!(dgram_base(DGRAM_BASE + DGRAM_SLOT_WORDS), DGRAM_BASE + DGRAM_SLOT_WORDS);
        assert_eq!(dgram_base(u32::MAX), u32::MAX / DGRAM_SLOT_WORDS * DGRAM_SLOT_WORDS);
    }
}
