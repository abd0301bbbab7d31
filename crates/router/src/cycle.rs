//! The cycle-accurate router: microcode + simulator + table image.
//!
//! [`CycleRouter`] packages everything needed to *measure* a configuration:
//! it schedules the forwarding microcode for a [`MachineConfig`], loads the
//! routing-table image into simulated data memory, feeds datagrams through
//! the iPPU and reads forwarded datagrams back from the oPPU.  The
//! resulting cycle counts are the raw material of the paper's Table 1.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use taco_ipv6::Datagram;
use taco_isa::{opt, schedule, MachineConfig, MoveSeq};
use taco_routing::{
    BalancedTreeTable, CamTable, LpmTable, PatriciaTable, PortId, Route, SequentialTable, TableKind,
};
use taco_sim::{
    CompiledProgram, FaultInjector, Processor, RtuBackend, RtuConfig, RtuResult, SimError,
    SimStats, Tracer, DEFAULT_MEMORY_WORDS,
};

use crate::layout::{
    bytes_to_words, datagram_to_words, dgram_base, serialize_patricia, serialize_sequential,
    serialize_tree, words_to_bytes, DGRAM_SLOT_WORDS, SEQ_ENTRY_WORDS, TABLE_BASE,
};
use crate::microcode::{choose_screen_word, pad_sequential_image, program_for, MicrocodeOptions};

/// The Routing Table Unit backend that wraps the CAM model: keys are the
/// four destination-address words, answers carry the output interface.
/// The table is shared, so every router built from one [`TableImage`]
/// searches the same copy.
#[derive(Debug)]
pub struct CamBackend(pub Arc<CamTable>);

impl RtuBackend for CamBackend {
    fn lookup(&self, key: [u32; 4]) -> Option<RtuResult> {
        let addr = taco_ipv6::Ipv6Address::from_words(key);
        self.0
            .lookup(&addr)
            .into_route()
            .map(|r| RtuResult { iface: u32::from(r.interface().0), handle: 0 })
    }
}

/// A routing table prepared for one organisation's cycle router: the words
/// loaded at [`TABLE_BASE`] (or, for the CAM, the shared behavioural table
/// behind the RTU) plus the generator options tuned to it.  Immutable and
/// independent of the machine shape, so one image serves every design
/// point that sweeps over the same table ([`CycleRouter::from_image`]).
#[derive(Debug)]
pub struct TableImage {
    kind: TableKind,
    words: Vec<u32>,
    cam: Option<Arc<CamTable>>,
    /// Sequential scan only: the entry count after padding to the unroll
    /// factor — the size parameter of its microcode.  Zero otherwise.
    padded_entries: usize,
    /// `opts` with the sequential screening word chosen from the table.
    opts: MicrocodeOptions,
}

impl TableImage {
    /// Builds and serialises the `kind` table holding `routes`: one arm per
    /// organisation (each serialises a different concrete engine, so the
    /// dispatch cannot go through `Box<dyn LpmTable>`).
    ///
    /// # Errors
    ///
    /// [`SimError::TableFull`] when the routes outnumber the CAM's rows.  (An
    /// in-memory image that overruns data memory fails later, in
    /// [`CycleRouter::from_image`].)
    pub fn new(
        kind: TableKind,
        routes: &[Route],
        opts: &MicrocodeOptions,
    ) -> Result<Self, SimError> {
        let in_memory =
            |words| TableImage { kind, words, cam: None, padded_entries: 0, opts: *opts };
        Ok(match kind {
            // Scan-ordered entries padded to a multiple of `opts.unroll`,
            // screened on the word `choose_screen_word` picks.
            TableKind::Sequential => {
                let table = SequentialTable::from_routes(routes.iter().copied());
                let mut words = serialize_sequential(&table);
                pad_sequential_image(&mut words, opts.unroll);
                TableImage {
                    padded_entries: words.len() / SEQ_ENTRY_WORDS as usize,
                    opts: MicrocodeOptions { screen_word: choose_screen_word(&table), ..*opts },
                    ..in_memory(words)
                }
            }
            TableKind::BalancedTree => {
                in_memory(serialize_tree(&BalancedTreeTable::from_routes(routes.iter().copied())))
            }
            TableKind::Patricia => {
                in_memory(serialize_patricia(&PatriciaTable::from_routes(routes.iter().copied())))
            }
            // Nothing in data memory: the table sits behind the RTU, and a
            // full chip is an error here, not `reload`'s panic.
            TableKind::Cam => {
                let table = CamTable::try_from_routes(routes)
                    .map_err(|capacity| SimError::TableFull { capacity })?;
                TableImage { cam: Some(Arc::new(table)), ..in_memory(Vec::new()) }
            }
        })
    }
}

/// A ready-to-run cycle-accurate router instance.
#[derive(Debug)]
pub struct CycleRouter {
    kind: TableKind,
    processor: Processor,
    /// Where the table image ends; datagram slot 0 starts at or above it
    /// (see [`dgram_base`]).
    image_end: u32,
    /// `(address, words loaded, wire bytes)` per enqueued datagram.
    slots: Vec<(u32, u32, usize)>,
    malformed_rejected: u64,
}

/// Level one of the compiled-program cache: what the microcode generator
/// reads — the table kind, its one size parameter (the padded entry count
/// for the sequential scan, zero for the fixed-shape engines) and the
/// generator options.  Nothing about the machine.
type SeqKey = (TableKind, usize, MicrocodeOptions);

/// One level-one entry: the generated and optimised sequence, and under it
/// level two, the scheduled and decoded program of every machine compiled
/// from it.
struct Microcode {
    seq: Arc<MoveSeq>,
    programs: HashMap<MachineConfig, Arc<CompiledProgram>>,
}

/// The process-wide compiled-program cache, locked.  A generator that
/// panics (on options outside its range) does so inside `or_insert_with`,
/// before anything is inserted, so a cache poisoned by it is consistent and
/// is used as it is.
fn program_cache() -> MutexGuard<'static, HashMap<SeqKey, Microcode>> {
    static CACHE: OnceLock<Mutex<HashMap<SeqKey, Microcode>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns the compiled program for `image` on `config` — scheduled,
/// label-resolved, validated and pre-decoded — compiling (and memoizing)
/// it on first use.  Compiling microcode costs far more than a simulator
/// run over a handful of datagrams, and every evaluation builds its router
/// from one of the same few (kind, machine, options) triples, so the hit
/// rate is high and the cache stays small.  The entries are immutable and
/// shared by `Arc`.
///
/// A design point pays only for the stages its machine changes: the
/// sequence is generated and optimised once per level-one key, under the
/// lock, and every machine after the first only schedules and decodes it,
/// outside the lock.  A hit borrows `config`; only a miss clones it.
fn compiled_program(
    config: &MachineConfig,
    image: &TableImage,
) -> Result<Arc<CompiledProgram>, SimError> {
    let key = (image.kind, image.padded_entries, image.opts);
    let seq = {
        let mut cache = program_cache();
        let microcode = cache.entry(key).or_insert_with(|| {
            let mut seq = program_for(image.kind, image.padded_entries, &image.opts);
            opt::optimize(&mut seq);
            Microcode { seq: Arc::new(seq), programs: HashMap::new() }
        });
        if let Some(p) = microcode.programs.get(config) {
            return Ok(Arc::clone(p));
        }
        Arc::clone(&microcode.seq)
    };
    let mut program = schedule(&seq, config);
    program.resolve_labels().map_err(SimError::UnresolvedLabel)?;
    debug_assert_eq!(
        taco_isa::validate_schedule(&program, config),
        Ok(()),
        "generated {} microcode failed structural validation",
        image.kind
    );
    let compiled = CompiledProgram::compile(config.clone(), Arc::new(program))?;
    let mut cache = program_cache();
    let programs = &mut cache.get_mut(&key).expect("level one is never evicted").programs;
    Ok(Arc::clone(programs.entry(config.clone()).or_insert(compiled)))
}

impl CycleRouter {
    /// Builds a router over `image` on the machine `config` — the one
    /// construction path: the compiled program comes from the process-wide
    /// cache, the image words are loaded at [`TABLE_BASE`], a CAM image's
    /// table goes behind the RTU with `rtu_latency` cycles of search
    /// latency (`ceil(40 ns × f_clk)` for the paper's part — see
    /// [`CamSpec::search_cycles`]; ignored by the other organisations), and
    /// the datagram slots start above the image.
    ///
    /// # Errors
    ///
    /// Propagates simulator construction errors (they indicate microcode
    /// bugs, not user error) and fails with
    /// [`SimError::MemoryOutOfBounds`] if the image does not fit data
    /// memory.
    ///
    /// [`CamSpec::search_cycles`]: taco_routing::cam::CamSpec::search_cycles
    pub fn from_image(
        config: &MachineConfig,
        image: &TableImage,
        rtu_latency: u32,
    ) -> Result<Self, SimError> {
        let compiled = compiled_program(config, image)?;
        let mut processor = Processor::instantiate(compiled, DEFAULT_MEMORY_WORDS);
        processor.memory_mut().load(TABLE_BASE, &image.words)?;
        if let Some(table) = &image.cam {
            let backend = Box::new(CamBackend(Arc::clone(table)));
            processor.set_rtu(RtuConfig::new(backend).with_latency(rtu_latency));
        }
        Ok(CycleRouter {
            kind: image.kind,
            processor,
            image_end: TABLE_BASE
                .saturating_add(u32::try_from(image.words.len()).unwrap_or(u32::MAX)),
            slots: Vec::new(),
            malformed_rejected: 0,
        })
    }

    /// Builds a router for any table organisation from a plain route list:
    /// [`TableImage::new`] followed by [`CycleRouter::from_image`].
    ///
    /// `rtu_latency` is only consulted for [`TableKind::Cam`].
    ///
    /// # Errors
    ///
    /// See [`CycleRouter::from_image`].
    pub fn for_kind(
        kind: TableKind,
        config: &MachineConfig,
        routes: &[Route],
        rtu_latency: u32,
        opts: &MicrocodeOptions,
    ) -> Result<Self, SimError> {
        Self::from_image(config, &TableImage::new(kind, routes, opts)?, rtu_latency)
    }

    /// Re-arms the router for another run with a new RTU search latency:
    /// the processor is reset to power-on, the datagram slots are cleared
    /// and released, and the table image (or CAM table) stays loaded — the
    /// state [`CycleRouter::from_image`] would return for `rtu_latency`,
    /// without rebuilding anything.  This is what the CAM latency fixed
    /// point iterates on.
    pub fn rearm(&mut self, rtu_latency: u32) {
        self.processor.reset();
        if self.kind == TableKind::Cam {
            self.processor.set_rtu_latency(rtu_latency);
        }
        for (addr, words, _) in self.slots.drain(..) {
            let zeros = &[0u32; DGRAM_SLOT_WORDS as usize][..words as usize];
            self.processor.memory_mut().load(addr, zeros).expect("slot was loaded before");
        }
        self.malformed_rejected = 0;
    }

    /// The table organisation this instance implements.
    pub fn kind(&self) -> TableKind {
        self.kind
    }

    /// The underlying simulator, for fine-grained inspection.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// Encoded size in bits of the program this router runs (instruction
    /// store + literal pool), computed once per compiled program.
    pub fn program_bits(&self) -> u64 {
        self.processor.compiled().program_bits()
    }

    /// Address of datagram slot `index`, counted from the first slot above
    /// the table image.
    fn slot_addr(&self, index: usize) -> u32 {
        dgram_base(self.image_end).saturating_add(
            u32::try_from(index).unwrap_or(u32::MAX).saturating_mul(DGRAM_SLOT_WORDS),
        )
    }

    /// Sizes data memory to the end of the slot the `count`-th next
    /// datagram takes (or to the end of memory, if that is nearer), so
    /// enqueueing a batch of `count` grows it once instead of once per
    /// datagram.  Addresses, contents and cycles are unchanged: the words
    /// it adds read zero, as they already did.
    pub fn reserve(&mut self, count: usize) {
        let end = self.slot_addr(self.slots.len() + count);
        self.processor.memory_mut().reserve_to(end);
    }

    /// Enqueues a whole batch of `(port, datagram)` pairs back-to-back, so
    /// one `run` drains them through the pipeline in a single compiled
    /// schedule walk instead of paying per-datagram setup.
    ///
    /// # Errors
    ///
    /// See [`CycleRouter::enqueue`]; datagrams enqueued before the failing
    /// one stay queued.
    pub fn enqueue_batch<'a>(
        &mut self,
        batch: impl IntoIterator<Item = (PortId, &'a Datagram)>,
    ) -> Result<(), SimError> {
        let batch = batch.into_iter();
        self.reserve(batch.size_hint().0);
        for (port, datagram) in batch {
            self.enqueue(port, datagram)?;
        }
        Ok(())
    }

    /// Copies `datagram` into the next buffer slot and queues it at the
    /// iPPU as having arrived on `port`.
    ///
    /// # Errors
    ///
    /// Fails when the buffer area is exhausted (or the datagram exceeds a
    /// slot) — enqueue at most ~100 datagrams per run, fewer above a large
    /// table image.
    pub fn enqueue(&mut self, port: PortId, datagram: &Datagram) -> Result<(), SimError> {
        self.enqueue_words(port, &datagram_to_words(datagram), datagram.wire_len())
    }

    /// Queues raw wire bytes — possibly malformed — the way a line card
    /// would.  The paper's cards "provide fully assembled decapsulated IPv6
    /// datagrams", so frames no card could ever hand over (shorter than the
    /// 40-byte fixed header, or whose declared payload length disagrees
    /// with the frame length) are rejected here and counted by
    /// [`CycleRouter::malformed_rejected`], returning `Ok(false)`.
    /// Length-consistent frames enter the pipeline, where the microcode's
    /// version screen drops anything that is not IPv6; returns `Ok(true)`.
    ///
    /// # Errors
    ///
    /// Fails when the frame exceeds a buffer slot (see
    /// [`CycleRouter::enqueue`]).
    pub fn enqueue_raw(&mut self, port: PortId, bytes: &[u8]) -> Result<bool, SimError> {
        if bytes.len() < 40 {
            self.malformed_rejected += 1;
            return Ok(false);
        }
        let declared = usize::from(u16::from_be_bytes([bytes[4], bytes[5]]));
        if bytes.len() != 40 + declared {
            self.malformed_rejected += 1;
            return Ok(false);
        }
        self.enqueue_words(port, &bytes_to_words(bytes), bytes.len())?;
        Ok(true)
    }

    /// Copies a datagram already packed into big-endian words (as
    /// [`datagram_to_words`] packs it) into the next buffer slot and queues
    /// it at the iPPU as having arrived on `port`; `byte_len` is its wire
    /// length.  [`CycleRouter::enqueue`] and [`CycleRouter::enqueue_raw`]
    /// pack and call this; a caller that enqueues one datagram many times
    /// packs it once.
    ///
    /// # Errors
    ///
    /// See [`CycleRouter::enqueue`].
    pub fn enqueue_words(
        &mut self,
        port: PortId,
        words: &[u32],
        byte_len: usize,
    ) -> Result<(), SimError> {
        let addr = self.slot_addr(self.slots.len());
        assert!(addr >= self.image_end, "datagram slot {addr:#x} intersects the table image");
        if words.len() as u32 > DGRAM_SLOT_WORDS {
            return Err(SimError::MemoryOutOfBounds {
                addr: addr.saturating_add(words.len() as u32),
                size: self.processor.memory().size(),
            });
        }
        self.processor.memory_mut().load(addr, words)?;
        self.processor.push_input(addr, u32::from(port.0));
        self.slots.push((addr, words.len() as u32, byte_len));
        Ok(())
    }

    /// Frames [`CycleRouter::enqueue_raw`] refused at the card.
    pub fn malformed_rejected(&self) -> u64 {
        self.malformed_rejected
    }

    /// Runs until the program halts (batch mode drains the input queue and
    /// stops), returning the collected statistics.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults and the watchdog.
    pub fn run(&mut self, budget: u64) -> Result<SimStats, SimError> {
        self.processor.run(budget)
    }

    /// Like [`CycleRouter::run`], reporting cycle-level events to `tracer`
    /// (see [`taco_sim::trace`]) with `faults` injecting transient bus/FU
    /// stalls (see [`taco_sim::FaultInjector`]).
    ///
    /// # Errors
    ///
    /// See [`CycleRouter::run`].
    pub fn run_with<T: Tracer + ?Sized, F: FaultInjector + ?Sized>(
        &mut self,
        budget: u64,
        tracer: &mut T,
        faults: &mut F,
    ) -> Result<SimStats, SimError> {
        self.processor.run_with(budget, tracer, faults)
    }

    /// [`CycleRouter::run_with`] on the simulator's reference interpreter
    /// ([`Processor::run_reference`]) — how tests reach the oracle on real
    /// microcode; nothing else calls it.
    ///
    /// # Errors
    ///
    /// See [`CycleRouter::run`].
    pub fn run_reference<T: Tracer + ?Sized, F: FaultInjector + ?Sized>(
        &mut self,
        budget: u64,
        tracer: &mut T,
        faults: &mut F,
    ) -> Result<SimStats, SimError> {
        self.processor.run_reference(budget, tracer, faults)
    }

    /// Forwarded datagrams in emission order, parsed back out of data
    /// memory, as `(output port, datagram)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if the microcode emitted a pointer that was never enqueued or
    /// corrupted a datagram beyond parsing — both are simulator-level bugs
    /// that tests must surface loudly.
    pub fn forwarded(&self) -> Vec<(PortId, Datagram)> {
        self.processor
            .outputs()
            .iter()
            .map(|&(ptr, iface)| {
                let &(addr, _, byte_len) = self
                    .slots
                    .iter()
                    .find(|(a, ..)| *a == ptr)
                    .unwrap_or_else(|| panic!("oppu emitted unknown pointer {ptr:#x}"));
                let words = self
                    .processor
                    .memory()
                    .read_block(addr, byte_len.div_ceil(4) as u32)
                    .expect("slot fits memory");
                let bytes = words_to_bytes(&words, byte_len);
                let datagram = Datagram::parse(&bytes).expect("forwarded datagram reparses");
                (PortId(iface as u16), datagram)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ipv6::NextHeader;

    fn route(p: &str, port: u16) -> Route {
        Route::new(p.parse().unwrap(), "fe80::1".parse().unwrap(), PortId(port), 1)
    }

    fn dgram(dst: &str, hl: u8) -> Datagram {
        Datagram::builder("2001:db8:99::1".parse().unwrap(), dst.parse().unwrap())
            .hop_limit(hl)
            .payload(NextHeader::Udp, vec![0xab; 16])
            .build()
    }

    fn router(kind: TableKind, config: MachineConfig, routes: &[Route]) -> CycleRouter {
        CycleRouter::for_kind(kind, &config, routes, 1, &MicrocodeOptions::default()).unwrap()
    }

    fn nested_routes() -> [Route; 3] {
        [route("2001:db8::/32", 1), route("2001:db8:aa::/48", 2), route("::/0", 3)]
    }

    fn seq_router(config: MachineConfig) -> CycleRouter {
        router(TableKind::Sequential, config, &nested_routes())
    }

    fn siblings(n: u16) -> Vec<Route> {
        (0..n).map(|i| route(&format!("2001:db8:{i:x}::/48"), i)).collect()
    }

    #[test]
    fn a_cam_image_past_the_chip_is_table_full() {
        let opts = MicrocodeOptions::default();
        let capacity = CamTable::new().spec().capacity;
        let rows = siblings(capacity as u16 + 1);
        let image = TableImage::new(TableKind::Cam, &rows, &opts);
        assert_eq!(image.err(), Some(SimError::TableFull { capacity }));
        let image = TableImage::new(TableKind::Cam, &rows[..capacity], &opts).expect("fits");
        assert_eq!(image.cam.as_ref().map(|t| t.len()), Some(capacity));
    }

    /// Cycles a 1BUS/1FU router over `n` sibling /48s spends on one datagram.
    fn cost(kind: TableKind, n: u16, dst: &str) -> u64 {
        let mut r = router(kind, MachineConfig::one_bus_one_fu(), &siblings(n));
        r.enqueue(PortId(0), &dgram(dst, 64)).unwrap();
        r.run(10_000_000).unwrap().cycles
    }

    #[test]
    fn every_kind_forwards_longest_match() {
        for kind in TableKind::ALL_KINDS {
            let mut r = router(kind, MachineConfig::three_bus_one_fu(), &nested_routes());
            assert_eq!(r.kind(), kind);
            r.enqueue(PortId(0), &dgram("2001:db8:aa::5", 64)).unwrap();
            r.enqueue(PortId(0), &dgram("2001:db8:bb::5", 64)).unwrap();
            r.enqueue(PortId(0), &dgram("9999::1", 64)).unwrap();
            r.run(10_000_000).unwrap();
            let out = r.forwarded();
            let ports: Vec<u16> = out.iter().map(|(p, _)| p.0).collect();
            assert_eq!(ports, vec![2, 1, 3], "{kind}");
            // Hop limits decremented in memory.
            assert!(out.iter().all(|(_, d)| d.header().hop_limit == 63), "{kind}");
        }
    }

    #[test]
    fn sequential_drops_hop_limit_expired() {
        let mut r = seq_router(MachineConfig::three_bus_one_fu());
        r.enqueue(PortId(0), &dgram("2001:db8::5", 1)).unwrap();
        r.enqueue(PortId(0), &dgram("2001:db8::5", 0)).unwrap();
        r.enqueue(PortId(0), &dgram("2001:db8::5", 2)).unwrap();
        r.run(1_000_000).unwrap();
        let out = r.forwarded();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.header().hop_limit, 1);
    }

    #[test]
    fn raw_frames_screened_at_card_then_version_checked_by_microcode() {
        let mut r = seq_router(MachineConfig::three_bus_one_fu());
        // Truncated or length-inconsistent frames never leave a real line
        // card; the card-level screen refuses them.
        assert_eq!(r.enqueue_raw(PortId(0), &[0xff; 12]), Ok(false));
        let mut lying = dgram("2001:db8::5", 64).to_bytes();
        lying.truncate(lying.len() - 4); // length field now over-claims
        assert_eq!(r.enqueue_raw(PortId(0), &lying), Ok(false));
        assert_eq!(r.malformed_rejected(), 2);
        // A length-consistent frame with a bad version nibble reaches the
        // pipeline, where the microcode's version screen drops it.
        let mut bad_version = dgram("2001:db8::5", 64).to_bytes();
        bad_version[0] = (bad_version[0] & 0x0f) | (4 << 4);
        assert_eq!(r.enqueue_raw(PortId(0), &bad_version), Ok(true));
        // A well-formed frame through the raw path still forwards.
        let good = dgram("2001:db8:aa::5", 64).to_bytes();
        assert_eq!(r.enqueue_raw(PortId(0), &good), Ok(true));
        r.run(1_000_000).unwrap();
        let out = r.forwarded();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortId(2));
        assert_eq!(r.malformed_rejected(), 2);
    }

    #[test]
    fn sequential_miss_drops() {
        let mut r = router(
            TableKind::Sequential,
            MachineConfig::three_bus_one_fu(),
            &[route("2001:db8::/32", 1)],
        );
        r.enqueue(PortId(0), &dgram("9999::1", 64)).unwrap();
        r.run(1_000_000).unwrap();
        assert!(r.forwarded().is_empty());
    }

    #[test]
    fn patricia_handles_host_route_and_miss() {
        let mut r = router(
            TableKind::Patricia,
            MachineConfig::three_bus_one_fu(),
            &[route("2001:db8::7/128", 5)],
        );
        r.enqueue(PortId(0), &dgram("2001:db8::7", 64)).unwrap(); // exact /128 hit
        r.enqueue(PortId(0), &dgram("2001:db8::8", 64)).unwrap(); // miss
        r.run(10_000_000).unwrap();
        let ports: Vec<u16> = r.forwarded().iter().map(|(p, _)| p.0).collect();
        assert_eq!(ports, vec![5]);
    }

    #[test]
    fn patricia_cost_tracks_branching_depth_not_size() {
        // Same /48 depth, 4 vs 64 entries: the walk only pays for the extra
        // *branching* levels (log2 of the fan-out), nowhere near the 16x a
        // linear scan would charge for 16x the entries.
        let small = cost(TableKind::Patricia, 4, "2001:db8:1::9");
        let large = cost(TableKind::Patricia, 64, "2001:db8:1::9");
        let ratio = large as f64 / small as f64;
        assert!(ratio < 2.5, "patricia cost must track branch depth, not size: {small} vs {large}");
    }

    #[test]
    fn cam_forwards_and_stalls() {
        let mut r = CycleRouter::for_kind(
            TableKind::Cam,
            &MachineConfig::three_bus_one_fu(),
            &[route("2001:db8::/32", 1), route("::/0", 3)],
            8,
            &MicrocodeOptions::default(),
        )
        .unwrap();
        r.enqueue(PortId(0), &dgram("2001:db8::5", 64)).unwrap();
        let stats = r.run(1_000_000).unwrap();
        assert_eq!(r.forwarded()[0].0, PortId(1));
        assert!(stats.stall_cycles > 0, "cam latency should stall: {stats}");
    }

    #[test]
    fn per_datagram_cost_is_linear_in_table_size_for_sequential() {
        // Worst case: no entry matches.
        let c25 = cost(TableKind::Sequential, 25, "9999::1");
        let c100 = cost(TableKind::Sequential, 100, "9999::1");
        let ratio = c100 as f64 / c25 as f64;
        assert!((3.0..5.0).contains(&ratio), "expected ~4x, got {ratio} ({c25} vs {c100})");
    }

    #[test]
    fn tree_cost_is_logarithmic() {
        let c25 = cost(TableKind::BalancedTree, 25, "9999::1");
        let c100 = cost(TableKind::BalancedTree, 100, "9999::1");
        // log2(201)/log2(51) ≈ 1.35 — nowhere near the 4x of a linear scan.
        assert!((c100 as f64) < 1.8 * c25 as f64, "tree should be logarithmic: {c25} vs {c100}");
    }

    #[test]
    fn empty_tables_drop_everything_on_all_engines() {
        let d = dgram("2001:db8::1", 64);
        for kind in TableKind::ALL_KINDS {
            let mut r = router(kind, MachineConfig::three_bus_one_fu(), &[]);
            r.enqueue(PortId(0), &d).unwrap();
            r.run(1_000_000).unwrap_or_else(|e| panic!("{kind} hung: {e}"));
            assert!(r.forwarded().is_empty(), "{kind}");
        }
    }

    #[test]
    fn identical_configurations_share_one_scheduled_program() {
        let config = MachineConfig::three_bus_one_fu();
        let a = seq_router(config.clone());
        let b = seq_router(config);
        assert!(
            std::ptr::eq(a.processor().program(), b.processor().program()),
            "same (kind, machine, options, size) must hit the program cache"
        );
    }

    #[test]
    fn table1_generates_one_sequence_per_table_and_schedules_it_per_machine() {
        // No other test here builds a router with two lanes, so the
        // level-one keys holding `unroll: 2` are this test's.
        let opts = MicrocodeOptions { unroll: 2, ..MicrocodeOptions::default() };
        let machines = [
            MachineConfig::one_bus_one_fu(),
            MachineConfig::three_bus_one_fu(),
            MachineConfig::three_bus_three_fu(),
        ];
        for kind in TableKind::ALL_KINDS {
            for machine in &machines {
                CycleRouter::for_kind(kind, machine, &nested_routes(), 1, &opts).unwrap();
            }
        }
        let cache = program_cache();
        let ours: Vec<&Microcode> =
            cache.iter().filter(|((_, _, o), _)| o.unroll == 2).map(|(_, m)| m).collect();
        assert_eq!(ours.len(), TableKind::ALL_KINDS.len(), "one generated sequence per table");
        assert!(ours.iter().all(|m| m.programs.len() == machines.len()), "one program per machine");
    }

    #[test]
    fn a_generator_that_panics_leaves_the_cache_usable() {
        let four_lanes = MicrocodeOptions { unroll: 4, ..MicrocodeOptions::default() };
        let config = MachineConfig::three_bus_one_fu();
        let built = std::panic::catch_unwind(|| {
            CycleRouter::for_kind(TableKind::Sequential, &config, &nested_routes(), 1, &four_lanes)
        });
        assert!(built.is_err(), "the scan has at most three lanes");
        let mut r = seq_router(config);
        r.enqueue(PortId(0), &dgram("2001:db8:aa::5", 64)).unwrap();
        r.run(1_000_000).unwrap();
        assert_eq!(r.forwarded()[0].0, PortId(2));
    }

    #[test]
    fn different_table_sizes_get_different_sequential_programs() {
        let config = MachineConfig::three_bus_one_fu();
        let a = router(TableKind::Sequential, config.clone(), &[route("2001:db8::/32", 1)]);
        let b = router(TableKind::Sequential, config, &siblings(50));
        assert!(!std::ptr::eq(a.processor().program(), b.processor().program()));
    }

    #[test]
    fn enqueue_batch_matches_sequential_enqueues() {
        let d1 = dgram("2001:db8:aa::5", 64);
        let d2 = dgram("2001:db8:bb::5", 64);
        let mut batched = seq_router(MachineConfig::three_bus_one_fu());
        batched.enqueue_batch([(PortId(0), &d1), (PortId(1), &d2)]).unwrap();
        let mut single = seq_router(MachineConfig::three_bus_one_fu());
        single.enqueue(PortId(0), &d1).unwrap();
        single.enqueue(PortId(1), &d2).unwrap();
        assert_eq!(batched.run(1_000_000).unwrap(), single.run(1_000_000).unwrap());
        assert_eq!(batched.forwarded(), single.forwarded());
    }

    #[test]
    fn more_buses_forward_in_fewer_cycles() {
        let run = |config: MachineConfig| -> u64 {
            let mut r = seq_router(config);
            r.enqueue(PortId(0), &dgram("2001:db8:aa::5", 64)).unwrap();
            r.run(10_000_000).unwrap().cycles
        };
        let one = run(MachineConfig::one_bus_one_fu());
        let three = run(MachineConfig::three_bus_one_fu());
        let wide = run(MachineConfig::three_bus_three_fu());
        assert!(three < one, "3 buses ({three}) must beat 1 bus ({one})");
        assert!(wide <= three, "3 FUs ({wide}) must not lose to 1 FU ({three})");
    }
}
