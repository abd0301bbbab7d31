//! Microcode generators for the IPv6 forwarding fast path.
//!
//! One generator per routing-table organisation (the design variable of the
//! paper's Table 1):
//!
//! * [`sequential_program`] — scans the in-memory table entry by entry,
//!   longest prefix first, using Counter/MMU/Matcher chains; `unroll`
//!   parallel lanes use distinct *virtual* FU instances, so the same code
//!   speeds up on the `3bus/3CNT,3CMP,3M` configuration and still runs
//!   correctly (merely serialised) on `1BUS/1FU`;
//! * [`tree_program`] — descends the balanced BST with a predecessor
//!   search (remember the node and go right when its key ≤ destination);
//! * [`cam_program`] — hands the whole lookup to the Routing Table Unit
//!   (CAM + SRAM) and waits out its fixed search latency;
//! * [`patricia_program`] — walks the path-compressed radix tree, one node
//!   per branching bit, verifying each node's whole prefix.
//!
//! [`program_for`] is the one kind → generator dispatch.  All four share
//! the same per-datagram envelope: pop a pending pointer from the iPPU,
//! validate the version nibble, check and decrement the hop limit (writing
//! it back to memory), load the destination address, and — after the
//! lookup — hand the pointer to the oPPU with the resolved output interface.
//!
//! **Folding discipline.**  Virtual FU instances are folded onto physical
//! ones by the scheduler (`virtual mod physical`).  Generated code
//! therefore keeps every virtual instance's def-use chain *contiguous in
//! program order*: the scheduler's hazard edges then serialise chains that
//! share a physical unit and overlap chains that do not.  Never interleave
//! two chains of the same FU kind.
//!
//! Register map (general-purpose registers):
//!
//! | reg | use |
//! |---|---|
//! | r0  | datagram base pointer |
//! | r2  | header word 1 (payload len / next header / hop limit) |
//! | r4–r7 | destination address words 0–3 |
//! | r3  | full-match accumulator (sequential verify pass) |
//! | r8  | current node (tree, PATRICIA) |
//! | r9  | scan block counter (sequential) / branch-word offset (PATRICIA) |
//! | r10 | match candidate (entry/node address) |
//! | r11 | resolved output interface |
//! | r12–r14 | per-lane entry pointers (sequential) |

use taco_isa::{CodeBuilder, FuKind, MoveSeq};
use taco_routing::TableKind;

use crate::layout::{MISS_IFACE, NULL_PTR, SEQ_ENTRY_WORDS, TABLE_BASE};

/// Options shared by the generators.  Both shape the sequential scan; the
/// three fixed-shape generators take the record unread, so the four keep
/// the one signature [`program_for`] and `benchmarks/` spell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MicrocodeOptions {
    /// Parallel scan lanes for the sequential table (1..=3).  Three lanes
    /// use three virtual Matcher/Counter/Comparator instances — the paper's
    /// third configuration.
    pub unroll: u8,
    /// Which 32-bit address word (0..=3) the sequential screening pass
    /// compares.  Real tables cluster under a common word-0 prefix (e.g.
    /// everything under `2001::/16`), so the discriminating word is usually
    /// word 1; [`choose_screen_word`] picks it from the table.
    pub screen_word: u8,
}

impl Default for MicrocodeOptions {
    fn default() -> Self {
        MicrocodeOptions { unroll: 3, screen_word: 1 }
    }
}

/// Emits the shared prologue: pop a datagram (or halt when the iPPU queue
/// is empty), validate, decrement hop limit, load the destination into
/// r4–r7.
///
/// Control flow defined here: `top` (per-datagram entry), `drop`
/// (validation failures and lookup misses re-enter `top`), `end` (halt).
fn envelope_prologue(b: &mut CodeBuilder) {
    let ippu = b.fu(FuKind::Ippu, 0);
    let mmu = b.fu(FuKind::Mmu, 0);
    let m = b.alloc(FuKind::Matcher);
    let c = b.alloc(FuKind::Counter);

    b.label("top");
    b.jump_unless(ippu.guard("pending"), "end");
    b.mv(0u32, ippu.port("tpop"));
    b.mv(ippu.port("ptr"), b.reg(0));

    // Word 0: version nibble must be 6.
    b.mv(b.reg(0), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(0xf000_0000u32, m.port("mask"));
    b.mv(0x6000_0000u32, m.port("refv"));
    b.mv(mmu.port("r"), m.port("t"));
    b.jump_unless(m.guard("match"), "drop");

    // Word 1: hop limit in the low byte.  RFC 2460: discard (and let the
    // slow path send *time exceeded*) unless the hop limit survives the
    // decrement, i.e. unless it is at least 2 on arrival.
    b.mv(b.reg(0), c.port("tset"));
    b.mv(1u32, c.port("tadd"));
    b.mv(c.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(2));
    let mk = b.alloc(FuKind::Masker);
    let ph = b.alloc(FuKind::Comparator);
    b.mv(0xffff_ff00u32, mk.port("mask"));
    b.mv(0u32, mk.port("value"));
    b.mv(b.reg(2), mk.port("t")); // r = word1 & 0xff = hop limit
    b.mv(2u32, ph.port("refv"));
    b.mv(mk.port("r"), ph.port("t"));
    b.jump_if(ph.guard("lt"), "drop"); // hop limit exhausted

    // Decrement the hop limit and write the word back (the hop limit is
    // the low byte, and it is non-zero here, so a plain decrement of the
    // word is exact).
    let c2 = b.alloc(FuKind::Counter);
    b.mv(b.reg(2), c2.port("tset"));
    b.mv(0u32, c2.port("tdec"));
    // mmu.addr still holds r0+1 from the read above.
    b.mv(c2.port("r"), mmu.port("twrite"));

    // Destination address words into r4..r7 (header bytes 24..40 = words
    // 6..10).
    let ca = b.alloc(FuKind::Counter);
    b.mv(b.reg(0), ca.port("tset"));
    b.mv(6u32, ca.port("tadd"));
    for w in 0..4u8 {
        b.mv(ca.port("r"), mmu.port("addr"));
        b.mv(0u32, mmu.port("tread"));
        b.mv(mmu.port("r"), b.reg(4 + w));
        if w < 3 {
            b.mv(0u32, ca.port("tinc"));
        }
    }

    // Multicast destinations (ff00::/8) never take the unicast fast path:
    // control groups like ff02::9 belong to the slow path, everything else
    // is dropped rather than unicast-forwarded.
    b.mv(0xff00_0000u32, m.port("mask"));
    b.mv(0xff00_0000u32, m.port("refv"));
    b.mv(b.reg(4), m.port("t"));
    b.jump_if(m.guard("match"), "drop");
}

/// Emits the shared epilogue: `found` (r11 = interface, forward), `drop`
/// and `end` labels.
fn envelope_epilogue(b: &mut CodeBuilder) {
    let oppu = b.fu(FuKind::Oppu, 0);
    b.label("found");
    b.mv(b.reg(11), oppu.port("iface"));
    b.mv(b.reg(0), oppu.port("t"));
    b.jump("top");
    b.label("drop");
    b.jump("top");
    b.label("end");
}

/// Generates the forwarding program for a **sequential** routing table of
/// `entries` entries laid out at [`TABLE_BASE`] (see
/// [`serialize_sequential`](crate::layout::serialize_sequential)).
///
/// The scan is two-pass, the way hand-written table-scan microcode is
/// structured:
///
/// 1. **screen** — blocks of `opts.unroll` lanes compare only the *first*
///    address word of each entry under its mask (two memory reads per
///    entry).  Lane chains use distinct virtual Matcher/Counter instances,
///    so the `3bus/3CNT,3CMP,3M` configuration overlaps three entries per
///    block while `1BUS/1FU` degrades gracefully to a serial scan.  Within
///    a block, lanes are emitted in *reverse* entry order so the earliest
///    (longest-prefix) word-0 hit wins the candidate register.
/// 2. **verify** — from the first word-0 hit onward, entries are checked
///    against all four address words; the first full match resolves the
///    lookup (sound because a full match implies a word-0 match, so the
///    true match can never precede the first screening hit).
///
/// The table image must be padded to a multiple of `unroll` entries with
/// never-matching sentinels — [`pad_sequential_image`] does that.
///
/// # Panics
///
/// Panics if `opts.unroll` is not in `1..=3` (the register map supports at
/// most three lanes) or `opts.screen_word` is not in `0..=3`.
pub fn sequential_program(entries: usize, opts: &MicrocodeOptions) -> MoveSeq {
    assert!((1..=3).contains(&opts.unroll), "unroll must be 1..=3");
    assert!(opts.screen_word <= 3, "screen word must be 0..=3");
    let screen_off = 2 * u32::from(opts.screen_word); // word w lives at +2w
    let unroll = usize::from(opts.unroll);
    let blocks = entries.div_ceil(unroll).max(1) as u32;
    let stride = SEQ_ENTRY_WORDS;
    let table_limit = TABLE_BASE + blocks * opts.unroll as u32 * stride;

    let mut b = CodeBuilder::new();
    envelope_prologue(&mut b);

    let mmu = b.fu(FuKind::Mmu, 0);
    // Per-lane virtual units (fold onto physical instances as available).
    // Each lane gets its own virtual MMU: on a multi-ported memory
    // (`MachineConfig::with_fu_count(FuKind::Mmu, n)`) the lanes' reads
    // overlap; on the paper's single-ported memory they fold and serialise.
    let lanes: Vec<_> = (0..unroll)
        .map(|_| (b.alloc(FuKind::Matcher), b.alloc(FuKind::Counter), b.alloc(FuKind::Mmu)))
        .collect();
    let ctrl_cmp = b.alloc(FuKind::Comparator);
    let ctrl_cnt = b.alloc(FuKind::Counter);
    let lane_reg = |k: usize| 12 + k as u8; // r12..r14

    // Lane pointers and block counter.
    for k in 0..unroll {
        b.mv(TABLE_BASE + (k as u32) * stride, b.reg(lane_reg(k)));
    }
    b.mv(0u32, b.reg(9));

    // ---- pass 1: screen on address word 0 -----------------------------
    b.label("scan");
    b.mv(NULL_PTR, b.reg(10)); // candidate for this block

    // Reverse lane order: lane 0 (earliest entry = longest prefix) writes
    // the candidate register last and therefore wins ties.
    for k in (0..unroll).rev() {
        let (m, c, lane_mmu) = lanes[k];
        b.mv(b.reg(lane_reg(k)), c.port("tset"));
        if screen_off > 0 {
            b.mv(screen_off, c.port("tadd"));
        }
        b.mv(c.port("r"), lane_mmu.port("addr")); // mask word w
        b.mv(0u32, lane_mmu.port("tread"));
        b.mv(lane_mmu.port("r"), m.port("mask"));
        b.mv(0u32, c.port("tinc"));
        b.mv(c.port("r"), lane_mmu.port("addr")); // prefix word w
        b.mv(0u32, lane_mmu.port("tread"));
        b.mv(lane_mmu.port("r"), m.port("refv"));
        b.mv(b.reg(4 + opts.screen_word), m.port("t")); // destination word w
        b.mv_if(m.guard("match"), b.reg(lane_reg(k)), b.reg(10));
        // Advance the lane pointer: c currently holds base + 2w + 1.
        b.mv(stride * opts.unroll as u32 - screen_off - 1, c.port("tadd"));
        b.mv(c.port("r"), b.reg(lane_reg(k)));
    }

    // Any screening hit? → verify from there.
    b.mv(NULL_PTR, ctrl_cmp.port("refv"));
    b.mv(b.reg(10), ctrl_cmp.port("t"));
    b.jump_unless(ctrl_cmp.guard("eq"), "verify");

    // Next block or give up.
    b.mv(b.reg(9), ctrl_cnt.port("tset"));
    b.mv(0u32, ctrl_cnt.port("tinc"));
    b.mv(ctrl_cnt.port("r"), b.reg(9));
    b.mv(blocks, ctrl_cmp.port("refv"));
    b.mv(ctrl_cnt.port("r"), ctrl_cmp.port("t"));
    b.jump_unless(ctrl_cmp.guard("eq"), "scan");
    b.jump("drop"); // scanned everything: no route

    // ---- pass 2: verify all four words from the candidate onward ------
    let mf = b.alloc(FuKind::Matcher);
    let cw = b.alloc(FuKind::Counter);
    b.label("verify");
    // Past the end of the table? No entry matched in full.
    b.mv(table_limit, ctrl_cmp.port("refv"));
    b.mv(b.reg(10), ctrl_cmp.port("t"));
    b.jump_unless(ctrl_cmp.guard("lt"), "drop");
    b.mv(1u32, b.reg(3)); // match accumulator
    b.mv(b.reg(10), cw.port("tset"));
    for w in 0..4u8 {
        b.mv(cw.port("r"), mmu.port("addr")); // mask word
        b.mv(0u32, mmu.port("tread"));
        b.mv(mmu.port("r"), mf.port("mask"));
        b.mv(0u32, cw.port("tinc"));
        b.mv(cw.port("r"), mmu.port("addr")); // prefix word
        b.mv(0u32, mmu.port("tread"));
        b.mv(mmu.port("r"), mf.port("refv"));
        b.mv(0u32, cw.port("tinc"));
        b.mv(b.reg(4 + w), mf.port("t"));
        b.mv_unless(mf.guard("match"), 0u32, b.reg(3));
    }
    b.mv(1u32, ctrl_cmp.port("refv"));
    b.mv(b.reg(3), ctrl_cmp.port("t"));
    b.jump_if(ctrl_cmp.guard("eq"), "resolve");
    // Move to the next entry: cw holds base+8.
    b.mv(stride - 8, cw.port("tadd"));
    b.mv(cw.port("r"), b.reg(10));
    b.jump("verify");

    // Resolve: read the entry's interface word (base + 8).
    b.label("resolve");
    let cr = b.alloc(FuKind::Counter);
    b.mv(b.reg(10), cr.port("tset"));
    b.mv(8u32, cr.port("tadd"));
    b.mv(cr.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(11));
    b.mv(MISS_IFACE, ctrl_cmp.port("refv"));
    b.mv(b.reg(11), ctrl_cmp.port("t"));
    b.jump_if(ctrl_cmp.guard("eq"), "drop");
    b.jump("found");

    envelope_epilogue(&mut b);
    b.finish()
}

/// Picks the screening word for [`sequential_program`]: the address word
/// with the most distinct `(mask, prefix)` pairs across the table's
/// entries, i.e. the one most likely to reject a non-matching entry.
pub fn choose_screen_word(table: &taco_routing::SequentialTable) -> u8 {
    let mut best = (0u8, 0usize);
    for w in 0..4u8 {
        let mut values: Vec<(u32, u32)> = table
            .entries()
            .iter()
            .map(|r| {
                let mask = r.prefix().mask_words()[usize::from(w)];
                let pfx = r.prefix().addr().to_words()[usize::from(w)];
                (mask, pfx)
            })
            .collect();
        values.sort_unstable();
        values.dedup();
        if values.len() > best.1 {
            best = (w, values.len());
        }
    }
    best.0
}

/// Pads a sequential table image to a multiple of `unroll` entries with
/// never-matching sentinel entries (full mask, all-ones prefix,
/// [`MISS_IFACE`]); the all-ones destination is the all-nodes multicast
/// group, which a router never looks up.
pub fn pad_sequential_image(image: &mut Vec<u32>, unroll: u8) {
    let stride = SEQ_ENTRY_WORDS as usize;
    let entries = image.len() / stride;
    let target = entries.div_ceil(usize::from(unroll)).max(1) * usize::from(unroll);
    for _ in entries..target {
        for _ in 0..4 {
            image.push(0xffff_ffff); // mask
            image.push(0xffff_ffff); // prefix
        }
        image.push(MISS_IFACE);
        image.push(NULL_PTR);
        image.push(0);
        image.push(0);
    }
}

/// Generates the forwarding program for a **balanced-tree** routing table
/// serialised by [`serialize_tree`](crate::layout::serialize_tree).
///
/// The descent is a genuine loop (the paper's logarithmic search): at each
/// node the 128-bit key is compared word by word with early exit; keys
/// smaller than or equal to the destination make the node the candidate
/// and send the walk right, larger keys send it left; a null pointer ends
/// the walk and the candidate's interface word resolves the lookup.
pub fn tree_program(_opts: &MicrocodeOptions) -> MoveSeq {
    let mut b = CodeBuilder::new();
    envelope_prologue(&mut b);

    let mmu = b.fu(FuKind::Mmu, 0);
    let p_null = b.alloc(FuKind::Comparator);
    let p_key = b.alloc(FuKind::Comparator);
    let c_walk = b.alloc(FuKind::Counter);
    let c_ptr = b.alloc(FuKind::Counter);

    // r8 = current node, r10 = candidate node.
    b.mv(TABLE_BASE, b.reg(8));
    b.mv(NULL_PTR, b.reg(10));

    b.label("walk");
    b.mv(NULL_PTR, p_null.port("refv"));
    b.mv(b.reg(8), p_null.port("t"));
    b.jump_if(p_null.guard("eq"), "resolve");

    // Compare key words 0..3 against the destination, early-exiting on the
    // first inequality.
    b.mv(b.reg(8), c_walk.port("tset"));
    for w in 0..4u8 {
        b.mv(c_walk.port("r"), mmu.port("addr"));
        b.mv(0u32, mmu.port("tread"));
        b.mv(b.reg(4 + w), p_key.port("refv"));
        b.mv(mmu.port("r"), p_key.port("t"));
        b.jump_if(p_key.guard("lt"), "go_right"); // key < dst
        b.jump_if(p_key.guard("gt"), "go_left"); // key > dst
        if w < 3 {
            b.mv(0u32, c_walk.port("tinc"));
        }
    }
    // Fell through: key == dst exactly; it is a valid predecessor.

    b.label("go_right");
    b.mv(b.reg(8), b.reg(10)); // candidate = this node
    b.mv(b.reg(8), c_ptr.port("tset"));
    b.mv(5u32, c_ptr.port("tadd"));
    b.mv(c_ptr.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(8));
    b.jump("walk");

    b.label("go_left");
    b.mv(b.reg(8), c_ptr.port("tset"));
    b.mv(4u32, c_ptr.port("tadd"));
    b.mv(c_ptr.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(8));
    b.jump("walk");

    // Candidate's interface word (node + 6) answers the lookup.
    b.label("resolve");
    b.mv(NULL_PTR, p_null.port("refv"));
    b.mv(b.reg(10), p_null.port("t"));
    b.jump_if(p_null.guard("eq"), "drop"); // empty tree
    b.mv(b.reg(10), c_ptr.port("tset"));
    b.mv(6u32, c_ptr.port("tadd"));
    b.mv(c_ptr.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(11));
    b.mv(MISS_IFACE, p_null.port("refv"));
    b.mv(b.reg(11), p_null.port("t"));
    b.jump_if(p_null.guard("eq"), "drop");
    b.jump("found");

    envelope_epilogue(&mut b);
    b.finish()
}

/// Generates the forwarding program for a **PATRICIA** routing table
/// serialised by [`serialize_patricia`](crate::layout::serialize_patricia)
/// — path-compressed per Click's `BSDIP6Lookup` ("fast database updates,
/// O(W) lookups").
///
/// Each iteration handles one node: verify the node's *entire* masked
/// prefix against the destination (four interleaved mask/prefix pairs —
/// the compressed bits are not implied by the descent path, so a mismatch
/// ends the walk), remember the node as the candidate when it carries a
/// route, then fetch the node's branch-bit descriptor
/// (`branch_off`/`branch_mask`) to pick the left or right child.  A null
/// child or a verify failure resolves to the deepest candidate.  The walk
/// visits one node per *branching* bit instead of one per prefix bit,
/// which is what lets internet-size tables keep O(W) probes with at most
/// `2n − 1` nodes.
pub fn patricia_program(_opts: &MicrocodeOptions) -> MoveSeq {
    let mut b = CodeBuilder::new();
    envelope_prologue(&mut b);

    let mmu = b.fu(FuKind::Mmu, 0);
    let mf = b.alloc(FuKind::Matcher); // prefix-verify matcher
    let m_bit = b.alloc(FuKind::Matcher); // branch-bit matcher
    let p_null = b.alloc(FuKind::Comparator);
    let p_miss = b.alloc(FuKind::Comparator);
    let p_ok = b.alloc(FuKind::Comparator);
    // One counter walks the node's word fields, the datagram-relative
    // branch word *and* the child select: the chains must stay strictly
    // sequential because every virtual counter folds onto the single
    // physical instance of the 1-FU machines.
    let c_word = b.alloc(FuKind::Counter);

    // r8 = current node, r10 = candidate node, r3 = verify accumulator,
    // r9 = branch-descriptor scratch.
    b.mv(TABLE_BASE, b.reg(8));
    b.mv(NULL_PTR, b.reg(10));

    b.label("pat_walk");
    // ---- verify the whole node prefix (mask/prefix pairs at +6..+14) ---
    b.mv(1u32, b.reg(3));
    b.mv(b.reg(8), c_word.port("tset"));
    b.mv(6u32, c_word.port("tadd"));
    for w in 0..4u8 {
        b.mv(c_word.port("r"), mmu.port("addr")); // mask word
        b.mv(0u32, mmu.port("tread"));
        b.mv(mmu.port("r"), mf.port("mask"));
        b.mv(0u32, c_word.port("tinc"));
        b.mv(c_word.port("r"), mmu.port("addr")); // prefix word
        b.mv(0u32, mmu.port("tread"));
        b.mv(mmu.port("r"), mf.port("refv"));
        if w < 3 {
            b.mv(0u32, c_word.port("tinc"));
        }
        b.mv(b.reg(4 + w), mf.port("t"));
        b.mv_unless(mf.guard("match"), 0u32, b.reg(3));
    }
    b.mv(1u32, p_ok.port("refv"));
    b.mv(b.reg(3), p_ok.port("t"));
    // Skipped bits disagreed: no descendant can match either — resolve.
    b.jump_unless(p_ok.guard("eq"), "pat_resolve");

    // ---- candidate: does this node carry a route? (iface word at +2) ---
    b.mv(b.reg(8), c_word.port("tset"));
    b.mv(2u32, c_word.port("tadd"));
    b.mv(c_word.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(MISS_IFACE, p_miss.port("refv"));
    b.mv(mmu.port("r"), p_miss.port("t"));
    b.mv_unless(p_miss.guard("eq"), b.reg(8), b.reg(10));

    // ---- branch bit: dgram word at +4's offset, under +5's mask --------
    b.mv(2u32, c_word.port("tadd")); // +2 → +4: branch_off
    b.mv(c_word.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(9)); // r9 = branch_off, for after +5
    b.mv(0u32, c_word.port("tinc")); // +5: branch_mask
    b.mv(c_word.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), m_bit.port("mask"));
    // Bit set ⇔ (word & mask) != 0; test against zero so the /128
    // never-branch mask reads as "bit clear" → left child (NULL).
    b.mv(0u32, m_bit.port("refv"));
    b.mv(b.reg(9), c_word.port("tset")); // counter := branch_off
    b.mv(b.reg(0), c_word.port("tadd")); // + datagram base
    b.mv(c_word.port("r"), mmu.port("addr")); // destination word
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), m_bit.port("t"));

    // ---- child select: left at +0, right at +1 -------------------------
    b.mv(b.reg(8), c_word.port("tset"));
    b.mv_unless(m_bit.guard("match"), 1u32, c_word.port("tinc"));
    b.mv(c_word.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(8));
    b.mv(NULL_PTR, p_null.port("refv"));
    b.mv(b.reg(8), p_null.port("t"));
    b.jump_unless(p_null.guard("eq"), "pat_walk");

    // ---- resolve: the deepest verified candidate answers ---------------
    b.label("pat_resolve");
    b.mv(NULL_PTR, p_null.port("refv"));
    b.mv(b.reg(10), p_null.port("t"));
    b.jump_if(p_null.guard("eq"), "drop");
    b.mv(b.reg(10), c_word.port("tset"));
    b.mv(2u32, c_word.port("tadd"));
    b.mv(c_word.port("r"), mmu.port("addr"));
    b.mv(0u32, mmu.port("tread"));
    b.mv(mmu.port("r"), b.reg(11));
    b.jump("found");

    envelope_epilogue(&mut b);
    b.finish()
}

/// Generates the forwarding program for a **CAM-backed** Routing Table
/// Unit: the four destination words go to the RTU's key registers, the
/// trigger starts the external search, and the result read stalls the
/// processor for the CAM's fixed latency — "a major boost in router
/// performance in detriment of high implementation cost".
pub fn cam_program(_opts: &MicrocodeOptions) -> MoveSeq {
    let mut b = CodeBuilder::new();
    envelope_prologue(&mut b);

    let rtu = b.fu(FuKind::Rtu, 0);

    b.mv(b.reg(4), rtu.port("k0"));
    b.mv(b.reg(5), rtu.port("k1"));
    b.mv(b.reg(6), rtu.port("k2"));
    b.mv(b.reg(7), rtu.port("t"));
    b.jump_unless(rtu.guard("hit"), "drop"); // stalls until the CAM answers
    b.mv(rtu.port("iface"), b.reg(11));
    b.jump("found");

    envelope_epilogue(&mut b);
    b.finish()
}

/// Generates the forwarding program for a `kind` table — the one
/// kind → generator dispatch, so an organisation added or removed is one
/// arm here.  `entries` is the sequential scan's size parameter (what
/// [`pad_sequential_image`] leaves in the image); the fixed-shape engines
/// ignore it.
///
/// # Panics
///
/// See [`sequential_program`].
pub fn program_for(kind: TableKind, entries: usize, opts: &MicrocodeOptions) -> MoveSeq {
    match kind {
        TableKind::Sequential => sequential_program(entries, opts),
        TableKind::BalancedTree => tree_program(opts),
        TableKind::Cam => cam_program(opts),
        TableKind::Patricia => patricia_program(opts),
    }
}

/// Generates a standalone slow-path routine: the RFC 1071 Internet
/// checksum of `words` consecutive 32-bit words starting at word address
/// `start`, left in register r0.
///
/// This is the TACO `Checksum` functional unit doing the job it exists
/// for — the UDP/ICMPv6 sums of the router's control plane.  The fast
/// path never needs it (IPv6 removed the header checksum, as the paper's
/// FU inventory reflects), so the routine is exercised by the slow-path
/// tests and the `quickstart` example rather than by Table 1.
pub fn checksum_program(start: u32, words: u32) -> MoveSeq {
    let mut b = CodeBuilder::new();
    let mmu = b.fu(FuKind::Mmu, 0);
    let cs = b.fu(FuKind::Checksum, 0);
    let c = b.alloc(FuKind::Counter);
    let p = b.alloc(FuKind::Comparator);

    b.mv(0u32, cs.port("tclr"));
    if words > 0 {
        b.mv(start, b.reg(1));
        b.label("sum");
        b.mv(b.reg(1), mmu.port("addr"));
        b.mv(0u32, mmu.port("tread"));
        b.mv(mmu.port("r"), cs.port("tadd"));
        b.mv(b.reg(1), c.port("tset"));
        b.mv(0u32, c.port("tinc"));
        b.mv(c.port("r"), b.reg(1));
        b.mv(start + words, p.port("refv"));
        b.mv(b.reg(1), p.port("t"));
        b.jump_unless(p.guard("eq"), "sum");
    }
    b.mv(cs.port("r"), b.reg(0));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::{schedule, MachineConfig, Program};

    fn scheduled(seq: &MoveSeq, config: &MachineConfig) -> Program {
        let mut prog = schedule(seq, config);
        prog.resolve_labels().expect("all labels defined");
        prog
    }

    #[test]
    fn all_programs_schedule_on_all_paper_configs() {
        let opts = MicrocodeOptions::default();
        let seqs = TableKind::ALL_KINDS.map(|kind| program_for(kind, 100, &opts));
        for config in [
            MachineConfig::one_bus_one_fu(),
            MachineConfig::three_bus_one_fu(),
            MachineConfig::three_bus_three_fu(),
        ] {
            for s in &seqs {
                let p = scheduled(s, &config);
                assert!(!p.instructions.is_empty());
            }
        }
    }

    #[test]
    fn wider_machines_schedule_shorter_static_code() {
        let opts = MicrocodeOptions::default();
        let seq = sequential_program(30, &opts);
        let one = scheduled(&seq, &MachineConfig::one_bus_one_fu()).instructions.len();
        let three = scheduled(&seq, &MachineConfig::three_bus_one_fu()).instructions.len();
        assert!(three < one, "3-bus static length {three} !< 1-bus {one}");
    }

    #[test]
    fn unroll_bounds_enforced() {
        let bad = MicrocodeOptions { unroll: 4, ..MicrocodeOptions::default() };
        let result = std::panic::catch_unwind(|| sequential_program(10, &bad));
        assert!(result.is_err());
    }

    #[test]
    fn padding_rounds_up_to_unroll() {
        let stride = SEQ_ENTRY_WORDS as usize;
        let mut img = vec![0u32; 7 * stride];
        pad_sequential_image(&mut img, 3);
        assert_eq!(img.len(), 9 * stride);
        // Sentinels never match and resolve to a miss.
        assert_eq!(img[7 * stride], 0xffff_ffff);
        assert_eq!(img[7 * stride + 8], MISS_IFACE);
        // Already-aligned images are untouched.
        let mut aligned = vec![0u32; 6 * stride];
        pad_sequential_image(&mut aligned, 3);
        assert_eq!(aligned.len(), 6 * stride);
        // An empty table still needs one block's worth of sentinels.
        let mut empty = Vec::new();
        pad_sequential_image(&mut empty, 3);
        assert_eq!(empty.len(), 3 * stride);
    }

    #[test]
    fn batch_mode_program_has_end_label_past_code() {
        let seq = sequential_program(3, &MicrocodeOptions::default());
        let prog = scheduled(&seq, &MachineConfig::three_bus_one_fu());
        assert_eq!(prog.labels["end"], prog.instructions.len());
    }

    #[test]
    fn checksum_program_matches_software_checksum() {
        use taco_sim::Processor;
        for (label, data) in [
            ("empty", vec![]),
            ("one", vec![0xdead_beefu32]),
            ("rfc_example", vec![0x0001_f203, 0xf4f5_f6f7]),
            ("carry_heavy", vec![0xffff_ffff; 7]),
            ("mixed", vec![0x1234_5678, 0, 0xffff_0000, 0x0000_ffff, 42]),
        ] {
            let seq = checksum_program(0x40, data.len() as u32);
            let mut prog = schedule(&seq, &MachineConfig::three_bus_one_fu());
            prog.resolve_labels().unwrap();
            let mut cpu = Processor::new(MachineConfig::three_bus_one_fu(), prog).unwrap();
            cpu.memory_mut().load(0x40, &data).unwrap();
            cpu.run(10_000).unwrap();

            let mut reference = taco_ipv6::checksum::Checksum::new();
            for w in &data {
                reference.add_u32(*w);
            }
            assert_eq!(cpu.reg(0), u32::from(reference.finish()), "{label}");
        }
    }
}
