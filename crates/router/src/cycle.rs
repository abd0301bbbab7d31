//! The cycle-accurate router: microcode + simulator + table image.
//!
//! [`CycleRouter`] packages everything needed to *measure* a configuration:
//! it schedules the forwarding microcode for a [`MachineConfig`], loads the
//! routing-table image into simulated data memory, feeds datagrams through
//! the iPPU and reads forwarded datagrams back from the oPPU.  The
//! resulting cycle counts are the raw material of the paper's Table 1.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use taco_ipv6::{Datagram, Ipv6Address};
use taco_isa::{opt, schedule, MachineConfig, MoveSeq, Program, Source};
use taco_routing::{
    BalancedTreeTable, CamTable, LpmTable, PatriciaTable, PortId, Route, SequentialTable, TableKind,
};
use taco_sim::{
    CompiledProgram, DataMemory, PeriodicStall, Processor, RtuBackend, RtuConfig, RtuResult,
    SimError, SimStats, Tracer, DEFAULT_MEMORY_WORDS,
};

use crate::layout::{
    datagram_to_words, dgram_base, serialize_patricia, serialize_sequential, serialize_tree,
    words_to_bytes, DGRAM_SLOT_WORDS, SEQ_ENTRY_WORDS, TABLE_BASE,
};
use crate::microcode::{
    choose_screen_word, pad_sequential_image, template_for, MicrocodeOptions, ScanBounds,
};

/// The Routing Table Unit backend that wraps the CAM model: keys are the
/// four destination-address words, answers carry the output interface.
/// The table is shared, so every router built from one [`TableImage`]
/// searches the same copy.
#[derive(Debug)]
pub(crate) struct CamBackend(pub Arc<CamTable>);

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
/// behind the RTU) plus the generator options tuned to it, and the programs
/// compiled for it so far.  Independent of the machine shape, so one image
/// serves every design point that sweeps over the same table
/// ([`CycleRouter::from_image`]).
#[derive(Debug)]
pub struct TableImage {
    kind: TableKind,
    words: Vec<u32>,
    cam: Option<Arc<CamTable>>,
    /// `opts` with the sequential screening word chosen from the table.
    opts: MicrocodeOptions,
    /// This image's program for each machine it was compiled for: the
    /// machine's template from the process-wide cache, with this table's
    /// [`ScanBounds`] patched in for a sequential scan.
    programs: Mutex<HashMap<MachineConfig, Arc<CompiledProgram>>>,
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
            |words| TableImage { kind, words, cam: None, opts: *opts, programs: Mutex::default() };
        Ok(match kind {
            // Scan-ordered entries padded to a multiple of `opts.unroll`,
            // screened on the word `choose_screen_word` picks.
            TableKind::Sequential => {
                let table = SequentialTable::from_routes(routes.iter().copied());
                let mut words = serialize_sequential(&table);
                pad_sequential_image(&mut words, opts.unroll);
                TableImage {
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

    /// The program [`CycleRouter::from_image`] runs for this image on
    /// `config` — scheduled, label-resolved and decoded — without building
    /// a router.  The first call per machine takes the machine's template
    /// from the process-wide compiled-program cache and, for a sequential
    /// scan, patches this table's two size immediates into it; the image
    /// keeps the result, so every later call is one lookup.  Filling it runs
    /// outside the image's lock, so threads sharing an image compile
    /// different machines at once.
    ///
    /// # Errors
    ///
    /// The construction errors of [`CycleRouter::from_image`] that come
    /// from the program: it does not fit or does not validate on `config`.
    pub fn compiled(&self, config: &MachineConfig) -> Result<Arc<CompiledProgram>, SimError> {
        let programs = || self.programs.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(p) = programs().get(config) {
            return Ok(Arc::clone(p));
        }
        let program = sized_program(config, self.kind, &self.opts, self.bounds(0))?;
        Ok(Arc::clone(programs().entry(config.clone()).or_insert(program)))
    }

    /// Whether [`CycleRouter::from_image`] over this image and then
    /// `datagrams` calls of [`CycleRouter::enqueue_words`] with `frame_words`
    /// words each would all succeed, from [`check_fit`]'s arithmetic alone.
    ///
    /// # Errors
    ///
    /// See [`check_fit`].
    pub fn check_fit(&self, datagrams: usize, frame_words: usize) -> Result<(), SimError> {
        check_fit(self.words.len(), datagrams, frame_words)
    }

    /// The scan block at which the screen pass stops for a datagram to
    /// `destination`: the first block with an entry whose screening pair
    /// matches it (the matcher's rule: the destination's screening word
    /// and the entry's prefix word are equal under the entry's mask word),
    /// or the last block where none does.  0 for a kind with no screen
    /// pass.  One pass over the image's screening words, sentinels
    /// included.
    pub fn scan_stop(&self, destination: Ipv6Address) -> usize {
        let Some(bounds) = self.bounds(0) else { return 0 };
        let word = usize::from(self.opts.screen_word);
        let dst = destination.to_words()[word];
        let hit = self.words.chunks_exact(SEQ_ENTRY_WORDS as usize).position(|entry| {
            let (mask, prefix) = (entry[2 * word], entry[2 * word + 1]);
            dst & mask == prefix & mask
        });
        let last = bounds.values()[0] as usize - 1;
        hit.map_or(last, |entry| entry / usize::from(self.opts.unroll))
    }

    /// Window `block` of this image: its words from that scan block on,
    /// which a router loads at [`TABLE_BASE`] like a table of their own
    /// ([`CycleRouter::unfolded`]).  Window 0 is the whole image, for every
    /// kind.  Panics if `block` is past 0 and not a block of the scan.
    fn window(&self, block: usize) -> &[u32] {
        let start = block * usize::from(self.opts.unroll) * SEQ_ENTRY_WORDS as usize;
        let scanned = self.kind == TableKind::Sequential && start < self.words.len();
        assert!(block == 0 || scanned, "the {} image has no scan block {block}", self.kind);
        &self.words[start..]
    }

    /// The [`ScanBounds`] of a scan over window `block`'s entries; `None`
    /// for a kind with no scan.
    fn bounds(&self, block: usize) -> Option<ScanBounds> {
        let entries = self.window(block).len() / SEQ_ENTRY_WORDS as usize;
        (self.kind == TableKind::Sequential).then(|| ScanBounds::of(entries, self.opts.unroll))
    }

    /// This image's program over window `block` on the machine
    /// [`schedule`] folds no unit on, where a block profile is recorded
    /// ([`CycleRouter::unfolded`]): at block 0 [`TableImage::compiled`] for
    /// that machine, which the image keeps, and past it the machine's
    /// template with the window's bounds patched in, which nothing keeps.
    /// Panics where [`CycleRouter::unfolded`] does.
    ///
    /// # Errors
    ///
    /// See [`TableImage::compiled`].
    pub fn unfolded_program(&self, block: usize) -> Result<Arc<CompiledProgram>, SimError> {
        let machine = level_one(&mut program_cache(), self.kind, &self.opts).unfolded.clone();
        if block == 0 {
            return self.compiled(&machine);
        }
        sized_program(&machine, self.kind, &self.opts, self.bounds(block))
    }
}

/// The [`UNFOLDED_BUSES`]-bus machine with one unit per virtual instance
/// `seq` names, for every kind a machine may replicate — the machine
/// [`schedule`] folds no unit on.
fn unfolded(seq: &MoveSeq) -> MachineConfig {
    let named = seq.moves.iter().flat_map(|mv| {
        let src = if let Source::Port(p) = &mv.src { Some(p.fu) } else { None };
        [Some(mv.dst.fu), src, mv.guard.map(|g| g.fu)]
    });
    named.flatten().fold(MachineConfig::new(UNFOLDED_BUSES), |machine, fu| {
        let count = fu.index.saturating_add(1);
        if count > machine.fu_count(fu.kind) && MachineConfig::can_replicate(fu.kind) {
            machine.with_fu_count(fu.kind, count)
        } else {
            machine
        }
    })
}

/// A ready-to-run cycle-accurate router instance.
#[derive(Debug)]
pub struct CycleRouter {
    processor: Processor,
    /// Where the table image ends; datagram slot 0 starts at or above it
    /// (see [`dgram_base`]).
    image_end: u32,
    /// `(address, wire bytes)` per enqueued datagram.
    slots: Vec<(u32, usize)>,
}

/// Buses of the machine a block profile is recorded on.  How often a block
/// runs does not depend on the bus count, only how long it is, so the
/// widest machine of the default sweep records in fewer cycles than one
/// bus would, which a one-shot evaluation of a sequential table pays in
/// full.
const UNFOLDED_BUSES: u8 = 4;

/// Level one of the compiled-program cache: what the microcode generator
/// reads — the table kind and the generator options.  Nothing about the
/// table's size, which a sequential image patches in ([`ScanBounds`]), and
/// nothing about the machine.
type TemplateKey = (TableKind, MicrocodeOptions);

/// One level-one entry: the generated and optimised size-free sequence, the
/// machine that folds none of its units, and under it level two, the
/// template of every machine compiled from it.
struct Microcode {
    seq: Arc<MoveSeq>,
    unfolded: MachineConfig,
    programs: HashMap<MachineConfig, Template>,
}

/// A program every table of one kind and options runs on one machine,
/// once its own size is patched in: scheduled, label-resolved, validated
/// and pre-decoded.
struct Template {
    program: Arc<CompiledProgram>,
    /// For the sequential scan, where in `program` its [`ScanBounds`] sit:
    /// the indices of the two moves that held the stand-ins.
    bounds_at: Option<[usize; 2]>,
}

/// The process-wide compiled-program cache, locked.  It holds templates
/// only, so it is bounded by kinds × options × machines whatever the table
/// sizes evaluated; each sized program lives with its [`TableImage`].  A
/// generator that panics (on options outside its range) does so inside
/// `or_insert_with`, before anything is inserted, so a cache poisoned by it
/// is consistent and is used as it is.
fn program_cache() -> MutexGuard<'static, HashMap<TemplateKey, Microcode>> {
    static CACHE: OnceLock<Mutex<HashMap<TemplateKey, Microcode>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new())).lock().unwrap_or_else(PoisonError::into_inner)
}

/// The level-one entry for a `kind` table under `opts`: its size-free
/// sequence generated and optimised on first use, and its unfolded machine
/// read from it then.
fn level_one<'a>(
    cache: &'a mut HashMap<TemplateKey, Microcode>,
    kind: TableKind,
    opts: &MicrocodeOptions,
) -> &'a mut Microcode {
    cache.entry((kind, *opts)).or_insert_with(|| {
        let mut seq = template_for(kind, opts);
        opt::optimize(&mut seq);
        Microcode { unfolded: unfolded(&seq), seq: Arc::new(seq), programs: HashMap::new() }
    })
}

/// The program of a `kind` table under `opts` on `config`, with `bounds`
/// patched in for a sequential scan, from the machine's template — compiled
/// (and memoized) on first use.  Compiling microcode costs far more than a
/// simulator run over a handful of datagrams, and every evaluation builds
/// its router from one of the same few (kind, machine, options) triples, so
/// the hit rate is high and the cache stays small.  The entries are
/// immutable and shared by `Arc`.
///
/// A design point pays only for the stages its machine changes: the
/// sequence is generated and optimised once per level-one key, under the
/// lock, and every machine after the first only schedules and decodes it,
/// outside the lock.  A fresh table size pays for neither: it patches two
/// moves of a copy of the template's decoded moves, sharing its scheduled
/// program ([`CompiledProgram::patch`]).  The table that compiles a template
/// writes its own bounds over the stand-ins before decoding it and shares
/// the result with the cache, so a cold machine costs one compile and no
/// copy; a template therefore carries some table's bounds, which every
/// other table overwrites.
fn sized_program(
    config: &MachineConfig,
    kind: TableKind,
    opts: &MicrocodeOptions,
    bounds: Option<ScanBounds>,
) -> Result<Arc<CompiledProgram>, SimError> {
    let (seq, template) = {
        let mut cache = program_cache();
        let microcode = level_one(&mut cache, kind, opts);
        let template = microcode.programs.get(config);
        (Arc::clone(&microcode.seq), template.map(|t| (Arc::clone(&t.program), t.bounds_at)))
    };
    if let Some((mut program, bounds_at)) = template {
        if let (Some(at), Some(bounds)) = (bounds_at, bounds) {
            let [blocks, table_limit] = bounds.values();
            CompiledProgram::patch(&mut program, &[(at[0], blocks), (at[1], table_limit)]);
        }
        return Ok(program);
    }
    let mut program = schedule(&seq, config);
    program.resolve_labels().map_err(SimError::UnresolvedLabel)?;
    debug_assert_eq!(
        taco_isa::validate_schedule(&program, config),
        Ok(()),
        "generated {kind} microcode failed structural validation"
    );
    let bounds_at = bounds.map(|bounds| write_bounds(&mut program, bounds));
    let compiled = CompiledProgram::compile(config.clone(), Arc::new(program))?;
    let mut cache = program_cache();
    let programs = &mut level_one(&mut cache, kind, opts).programs;
    let template = Template { program: Arc::clone(&compiled), bounds_at };
    programs.entry(config.clone()).or_insert(template);
    Ok(compiled)
}

/// Writes `bounds` over the [`ScanBounds::STAND_INS`] of `program`, a
/// sequential template as scheduled, and returns the indices, in program
/// order, of the two moves that held them.
///
/// # Panics
///
/// If a stand-in is not the immediate of exactly one move.
fn write_bounds(program: &mut Program, bounds: ScanBounds) -> [usize; 2] {
    let stand_ins = ScanBounds::STAND_INS.values();
    let mut at = [None; 2];
    let moves = program.instructions.iter_mut().flat_map(|i| i.slots.iter_mut().flatten());
    for (index, mv) in moves.enumerate() {
        let Source::Imm(value) = &mut mv.src else { continue };
        if let Some(k) = stand_ins.iter().position(|stand_in| stand_in == value) {
            assert!(at[k].replace(index).is_none(), "stand-in {value:#x} is another literal too");
            *value = bounds.values()[k];
        }
    }
    at.map(|at| at.expect("a sequential template holds each stand-in"))
}

/// Where a table image of `image_words` words ends in data memory.
#[inline]
fn image_end(image_words: usize) -> u32 {
    TABLE_BASE.saturating_add(u32::try_from(image_words).unwrap_or(u32::MAX))
}

/// Address of datagram slot `index` above a table image ending at
/// `image_end`.
#[inline]
fn slot_addr(image_end: u32, index: usize) -> u32 {
    dgram_base(image_end)
        .saturating_add(u32::try_from(index).unwrap_or(u32::MAX).saturating_mul(DGRAM_SLOT_WORDS))
}

/// Whether a datagram of `len` words fits the slot at `addr` in `memory`:
/// no longer than a slot, and inside memory.
#[inline]
fn slot_fits(memory: &DataMemory, addr: u32, len: usize) -> Result<(), SimError> {
    if len > DGRAM_SLOT_WORDS as usize {
        let addr = addr.saturating_add(len as u32);
        return Err(SimError::MemoryOutOfBounds { addr, size: memory.size() });
    }
    memory.fits(addr, len)
}

/// Whether a router over a table image of `image_words` words
/// ([`CycleRouter::from_image`]) takes `datagrams` frames of `frame_words`
/// words each ([`CycleRouter::enqueue_words`]), worked out without
/// building either: the image must fit data memory at [`TABLE_BASE`], and
/// each frame its slot above the image.  The two check the same bounds in
/// the same order, so an error here is the first of theirs, fields
/// included — which lets a caller refuse a table it has not built yet.
///
/// # Errors
///
/// [`SimError::MemoryOutOfBounds`] where the image or a frame does not fit.
#[inline]
pub fn check_fit(image_words: usize, datagrams: usize, frame_words: usize) -> Result<(), SimError> {
    let memory = DataMemory::new(DEFAULT_MEMORY_WORDS);
    memory.fits(TABLE_BASE, image_words)?;
    let end = image_end(image_words);
    (0..datagrams).try_for_each(|k| slot_fits(&memory, slot_addr(end, k), frame_words))
}

impl CycleRouter {
    /// Builds a router over `image` on the machine `config` — the one
    /// construction path: the compiled program is the image's
    /// ([`TableImage::compiled`]), the image words are loaded at
    /// [`TABLE_BASE`], a CAM image's table goes behind the RTU with
    /// `rtu_latency` cycles of search latency (`ceil(40 ns × f_clk)` for the
    /// paper's part — see [`CamSpec::search_cycles`]; ignored by the other
    /// organisations), and the datagram slots start above the image.
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
        Self::load(image.compiled(config)?, image, 0, rtu_latency)
    }

    /// A router over window `block` of `image` at RTU latency 1 running
    /// `program`, the image's [`TableImage::unfolded_program`] for that
    /// window, where a table's block profile is recorded.  The runs over
    /// one window share one program.
    ///
    /// # Errors
    ///
    /// See [`CycleRouter::from_image`].
    ///
    /// # Panics
    ///
    /// If `block` is past 0 and not a block of a sequential scan.
    pub fn unfolded(
        program: Arc<CompiledProgram>,
        image: &TableImage,
        block: usize,
    ) -> Result<Self, SimError> {
        Self::load(program, image, block, 1)
    }

    /// `compiled` powered on over window `block` of `image`, its words at
    /// [`TABLE_BASE`] and the datagram slots above them: the body of both
    /// constructors.
    fn load(
        compiled: Arc<CompiledProgram>,
        image: &TableImage,
        block: usize,
        rtu_latency: u32,
    ) -> Result<Self, SimError> {
        let words = image.window(block);
        let mut processor = Processor::instantiate(compiled);
        processor.memory_mut().load(TABLE_BASE, words)?;
        if let Some(table) = &image.cam {
            let backend = Box::new(CamBackend(Arc::clone(table)));
            processor.set_rtu(RtuConfig::new(backend).with_latency(rtu_latency));
        }
        Ok(CycleRouter { processor, image_end: image_end(words.len()), slots: Vec::new() })
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

    /// The underlying simulator, for fine-grained inspection.
    pub fn processor(&self) -> &Processor {
        &self.processor
    }

    /// Address of datagram slot `index`, counted from the first slot above
    /// the table image.
    fn slot_addr(&self, index: usize) -> u32 {
        slot_addr(self.image_end, index)
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

    /// Copies a datagram already packed into big-endian words (as
    /// [`datagram_to_words`] packs it) into the next buffer slot and queues
    /// it at the iPPU as having arrived on `port`; `byte_len` is its wire
    /// length.  [`CycleRouter::enqueue`] packs and calls this; a caller
    /// that enqueues one datagram many times packs it once.
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
        slot_fits(self.processor.memory(), addr, words.len())?;
        self.processor.memory_mut().load(addr, words)?;
        self.processor.push_input(addr, u32::from(port.0));
        self.slots.push((addr, byte_len));
        Ok(())
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
    /// (see [`taco_sim::trace`]) with `stalls` stealing transient bus/FU
    /// stall cycles (see [`PeriodicStall`]).
    ///
    /// # Errors
    ///
    /// See [`CycleRouter::run`].
    pub fn run_with<T: Tracer + ?Sized>(
        &mut self,
        budget: u64,
        tracer: &mut T,
        stalls: Option<PeriodicStall>,
    ) -> Result<SimStats, SimError> {
        self.processor.run_with(budget, tracer, stalls)
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
                let &(addr, byte_len) = self
                    .slots
                    .iter()
                    .find(|(a, _)| *a == ptr)
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
    use crate::layout::bytes_to_words;
    use crate::microcode::padded_entries;
    use crate::rng::SplitMix64;
    use crate::traffic::TrafficGen;
    use taco_ipv6::{Ipv6Prefix, NextHeader};
    use taco_isa::Move;

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
    fn the_microcode_drops_a_frame_with_a_bad_version() {
        let mut r = seq_router(MachineConfig::three_bus_one_fu());
        let enqueue = |r: &mut CycleRouter, bytes: &[u8]| {
            r.enqueue_words(PortId(0), &bytes_to_words(bytes), bytes.len()).unwrap();
        };
        // A frame whose version nibble is not 6 reaches the pipeline, where
        // the microcode's version screen drops it.
        let mut bad_version = dgram("2001:db8::5", 64).to_bytes();
        bad_version[0] = (bad_version[0] & 0x0f) | (4 << 4);
        enqueue(&mut r, &bad_version);
        // A well-formed frame behind it still forwards.
        enqueue(&mut r, &dgram("2001:db8:aa::5", 64).to_bytes());
        r.run(1_000_000).unwrap();
        let out = r.forwarded();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortId(2));
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
    fn routers_over_one_image_share_its_program() {
        let config = MachineConfig::three_bus_one_fu();
        let image =
            TableImage::new(TableKind::Sequential, &nested_routes(), &MicrocodeOptions::default())
                .expect("an in-memory image");
        let a = CycleRouter::from_image(&config, &image, 1).unwrap();
        let b = CycleRouter::from_image(&config, &image, 1).unwrap();
        assert!(
            std::ptr::eq(a.processor().program(), b.processor().program()),
            "one image compiles each machine once"
        );
        // Another image of the same table patches the same template alike.
        let c = seq_router(config);
        assert_eq!(a.processor().program(), c.processor().program());
    }

    #[test]
    fn table1_generates_one_template_per_table_and_schedules_it_per_machine() {
        // No other test here builds a router with two lanes, so the
        // level-one keys holding `unroll: 2` are this test's.  Every size
        // of a table kind shares its one template per machine.
        let opts = MicrocodeOptions { unroll: 2, ..MicrocodeOptions::default() };
        let machines = [
            MachineConfig::one_bus_one_fu(),
            MachineConfig::three_bus_one_fu(),
            MachineConfig::three_bus_three_fu(),
        ];
        for kind in TableKind::ALL_KINDS {
            // Sibling /48s screen on word 1 at every size from two entries.
            for n in [2, 5, 50] {
                for machine in &machines {
                    CycleRouter::for_kind(kind, machine, &siblings(n), 1, &opts).unwrap();
                }
            }
        }
        let cache = program_cache();
        let ours: Vec<&Microcode> =
            cache.iter().filter(|((_, o), _)| o.unroll == 2).map(|(_, m)| m).collect();
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
    fn different_table_sizes_patch_two_moves_of_one_template() {
        let config = MachineConfig::three_bus_one_fu();
        let images = [siblings(5), siblings(50), siblings(7)].map(|routes| {
            TableImage::new(TableKind::Sequential, &routes, &MicrocodeOptions::default())
                .expect("an in-memory image")
        });
        let opts = images[0].opts;
        assert!(images.iter().all(|image| image.opts == opts));
        let template = || {
            let mut cache = program_cache();
            let microcode = level_one(&mut cache, TableKind::Sequential, &opts);
            Arc::clone(&microcode.programs.get(&config).expect("compiled").program)
        };
        let moves = |p: &CompiledProgram| -> Vec<Move> {
            p.program().instructions.iter().flat_map(|i| i.moves().cloned()).collect()
        };
        let first = images[0].compiled(&config).unwrap();
        let shared = template();
        for image in &images[1..] {
            let sized = image.compiled(&config).unwrap();
            let patched: Vec<Source> = moves(&sized)
                .into_iter()
                .zip(moves(&first))
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.src)
                .collect();
            assert_eq!(patched.len(), 2, "the block count and the table's end: {patched:?}");
        }
        assert!(Arc::ptr_eq(&shared, &template()), "one template whatever the size");
    }

    /// An address whose words take few distinct values, so screening pairs
    /// collide.
    fn clustered_address(rng: &mut SplitMix64) -> Ipv6Address {
        let word0 = [0x2001_0db8, 0x2001_0db9][rng.below(2) as usize];
        Ipv6Address::from_words([
            word0,
            rng.below(4) as u32,
            rng.below(3) as u32,
            rng.below(2) as u32,
        ])
    }

    /// Up to 24 routes to clustered prefixes from /0 to /128, a quarter of
    /// each.
    fn seeded_routes(rng: &mut SplitMix64) -> Vec<Route> {
        (0..rng.range_inclusive(1, 24))
            .map(|i| {
                let len = match rng.below(4) {
                    0 => 0,
                    1 => 128,
                    _ => rng.below(129) as u8,
                };
                let prefix = Ipv6Prefix::new(clustered_address(rng), len).expect("a length");
                Route::new(prefix, "fe80::1".parse().unwrap(), PortId((i % 4) as u16), 1)
            })
            .collect()
    }

    #[test]
    fn the_scan_stops_at_the_first_block_whose_screening_pair_matches() {
        const SEED: u64 = 0x5CA7_5709;
        const CASES: usize = 200;
        let mut rng = SplitMix64::new(SEED);
        let mut gen = TrafficGen::new(SEED, 4);
        let (mut stops_past_zero, mut sentinel_hits, mut misses) = (0, 0, 0);
        for case in 0..CASES {
            let routes = seeded_routes(&mut rng);
            let table = SequentialTable::from_routes(routes.iter().copied());
            let entries = table.entries();
            // Not two lanes: the cache's two-lane keys belong to
            // `table1_generates_one_template_per_table_and_schedules_it_per_machine`.
            for unroll in [1, 3] {
                let opts = MicrocodeOptions { unroll, ..MicrocodeOptions::default() };
                let image = TableImage::new(TableKind::Sequential, &routes, &opts).expect("built");
                let screen = usize::from(image.opts.screen_word);
                let padded = padded_entries(entries.len(), unroll);
                let last = padded / usize::from(unroll) - 1;
                let inside = entries[rng.below(entries.len() as u64) as usize].prefix();
                let all_ones = Ipv6Address::from_words([!0; 4]);
                for dst in [gen.addr_in(&inside), clustered_address(&mut rng), all_ones] {
                    // The reference: the routes in scan order, then the
                    // sentinels (full mask, all-ones prefix) padding them.
                    let d = dst.to_words()[screen];
                    let hit = entries.iter().position(|r| {
                        let mask = r.prefix().mask_words()[screen];
                        d & mask == r.prefix().addr().to_words()[screen] & mask
                    });
                    let sentinel = (padded > entries.len() && d == !0).then_some(entries.len());
                    sentinel_hits += usize::from(hit.is_none() && sentinel.is_some());
                    misses += usize::from(hit.or(sentinel).is_none());
                    let expected = hit.or(sentinel).map_or(last, |e| e / usize::from(unroll));
                    let at = format!("case {case}, unroll {unroll}, {dst}");
                    assert_eq!(image.scan_stop(dst), expected, "{at}");
                    stops_past_zero += usize::from(expected > 0);
                }
            }
        }
        assert!(stops_past_zero > CASES, "{stops_past_zero} stops past block 0");
        assert!(sentinel_hits > 0 && misses > 0, "{sentinel_hits} sentinel hits, {misses} misses");
        // Kinds with no screen pass stop at block 0.
        let image = TableImage::new(TableKind::Patricia, &nested_routes(), &Default::default());
        assert_eq!(image.expect("built").scan_stop(Ipv6Address::from_words([!0; 4])), 0);
    }

    #[test]
    fn a_run_over_the_image_is_its_tail_plus_the_miss_blocks_before_it() {
        // Each count of a one-datagram run over the whole image equals the
        // run over window `h` plus `h` times what window `h − 1` adds to
        // it, wherever the screen pass stops: a hit with blocks after it, a
        // miss, a sentinel.
        const SEED: u64 = 0x7A11_5EED;
        const CASES: usize = 60;
        let mut rng = SplitMix64::new(SEED);
        let mut gen = TrafficGen::new(SEED, 4);
        let config = MachineConfig::three_bus_one_fu();
        let run = |mut router: CycleRouter, dst: Ipv6Address| {
            let datagram = Datagram::builder("2001:db8:99::1".parse().unwrap(), dst)
                .hop_limit(64)
                .payload(NextHeader::Udp, vec![0; 16])
                .build();
            router.enqueue(PortId(0), &datagram).unwrap();
            let stats = router.run(1_000_000).unwrap();
            let ports: Vec<PortId> = router.forwarded().into_iter().map(|(p, _)| p).collect();
            (stats, ports)
        };
        // The window's bounds patched into the template afresh, at block 0
        // too, so window 0 is held to the image's own program.
        let window = |image: &TableImage, block: usize| {
            let bounds = image.bounds(block);
            let program = sized_program(&config, image.kind, &image.opts, bounds).unwrap();
            CycleRouter::load(program, image, block, 1).unwrap()
        };
        let (mut before_last, mut stops_past_zero) = (0, 0);
        for case in 0..CASES {
            let routes = seeded_routes(&mut rng);
            let entries = SequentialTable::from_routes(routes.iter().copied()).entries().to_vec();
            for unroll in [1, 3] {
                let opts = MicrocodeOptions { unroll, ..MicrocodeOptions::default() };
                let image = TableImage::new(TableKind::Sequential, &routes, &opts).expect("built");
                let last = image.bounds(0).expect("a scan").values()[0] as usize - 1;
                let inside = entries[rng.below(entries.len() as u64) as usize].prefix();
                for dst in [gen.addr_in(&inside), clustered_address(&mut rng)] {
                    let at = format!("case {case}, unroll {unroll}, {dst}");
                    let stop = image.scan_stop(dst);
                    let (whole, ports) =
                        run(CycleRouter::from_image(&config, &image, 1).unwrap(), dst);
                    if stop == 0 {
                        assert_eq!(run(window(&image, 0), dst), (whole, ports), "{at}");
                        continue;
                    }
                    let (tail, tail_ports) = run(window(&image, stop), dst);
                    let (more, _) = run(window(&image, stop - 1), dst);
                    let n = stop as u64;
                    let at_n = |t: u64, m: u64| t + n * (m - t);
                    let triggers = more.fu_instance_triggers.iter();
                    let triggers = triggers
                        .map(|(fu, m)| (fu, at_n(tail.fu_instance_triggers.get(fu), m)))
                        .collect();
                    let counted = SimStats {
                        cycles: at_n(tail.cycles, more.cycles),
                        moves_executed: at_n(tail.moves_executed, more.moves_executed),
                        moves_squashed: at_n(tail.moves_squashed, more.moves_squashed),
                        fu_instance_triggers: triggers,
                        ..tail
                    };
                    assert_eq!(counted, whole, "{at}: stops at block {stop} of {}", last + 1);
                    assert_eq!(tail_ports, ports, "{at}");
                    before_last += usize::from(stop < last);
                    stops_past_zero += 1;
                }
            }
        }
        assert!(before_last > 20, "{before_last} stops before the last block");
        assert!(stops_past_zero > CASES, "{stops_past_zero} stops past block 0");
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
    fn check_fit_is_the_first_error_building_and_enqueueing_returns() {
        let frame = datagram_to_words(&dgram("2001:db8::5", 64));
        let byte_len = dgram("2001:db8::5", 64).wire_len();
        let mut outcomes = Vec::new();
        // Eight slots fit, then the eighth, the first slot and the image
        // itself stop fitting, 3-lane padding included.
        for n in [5097, 5098, 5397, 5398, 5439, 5440] {
            let image = TableImage::new(TableKind::Sequential, &siblings(n), &Default::default())
                .expect("in-memory images always build");
            let built = CycleRouter::from_image(&MachineConfig::three_bus_one_fu(), &image, 1)
                .and_then(|mut r| {
                    (0..8).try_for_each(|_| r.enqueue_words(PortId(0), &frame, byte_len))
                });
            assert_eq!(image.check_fit(8, frame.len()), built, "n={n}");
            outcomes.push(built);
        }
        // The first slot past memory starts at its end, whichever it is, so
        // every slot that does not fit fails at one address.
        outcomes.dedup();
        assert_eq!(outcomes.len(), 3, "{outcomes:?}");
        // A frame longer than its slot.
        let long = vec![0; DGRAM_SLOT_WORDS as usize + 1];
        let mut r = seq_router(MachineConfig::three_bus_one_fu());
        assert_eq!(check_fit(36, 1, long.len()), r.enqueue_words(PortId(0), &long, 4 * long.len()));
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
