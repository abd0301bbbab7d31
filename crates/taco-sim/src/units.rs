//! The port file: where every architecturally visible register and guard
//! bit lives, and what a move into a port does.
//!
//! A TTA's programmer-visible state *is* its port registers and a program
//! *is* copies between them, so the machine state is two flat arrays: a
//! file of 32-bit words (`r0..r15`, each MMU's `addr`/`r`, the RTU's keys
//! and results, the PPU registers and three words per datapath FU) and a
//! file of guard bits, written where they change instead of recomputed
//! where they are read.  [`PortMap`] assigns the slots from a
//! [`MachineConfig`]; [`Op`] says what writing a port does; and
//! [`Ports::store`] / [`Ports::apply`] are the one copy of every FU's
//! behaviour, called by the decoded loop and by the reference interpreter
//! alike.
//!
//! All units follow the TACO contract: operands are plain registers, a write
//! to a trigger register performs the whole operation in one cycle, and the
//! result register plus any guard bits are readable from the next cycle on
//! (the simulator's read-then-write cycle structure enforces the timing).

use std::collections::VecDeque;

use taco_isa::{FuKind, FuRef, MachineConfig, PortRef};

use crate::error::SimError;
use crate::memory::DataMemory;
use crate::rtu::{RtuConfig, RtuResult};
use crate::trace::{TraceEvent, Tracer};

/// What a move into a port does.  Everything from [`Op::Jump`] on is a
/// trigger and fires in the second half of the write phase.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Op {
    /// An unguarded [`Op::Store`] of a port's word, as
    /// [`sched::decode`](crate::sched) marks it; no port maps to it.
    Copy,
    /// An unguarded [`Op::Store`] of an immediate, likewise.
    Imm,
    /// A register or operand port: `file[dst] = v`.
    Store,
    /// `cntN.stop`: a store that also moves the counter's `done` guard.
    CounterStop,
    /// `nc0.pc`.
    Jump,
    MmuRead,
    MmuWrite,
    Rtu,
    IppuPop,
    OppuEmit,
    Match,
    Compare,
    CntSet,
    CntInc,
    CntDec,
    CntAdd,
    CntSub,
    CsumClr,
    CsumAdd,
    Shl,
    Shr,
    Mask,
    Liu,
}

impl Op {
    /// Mirrors [`taco_isa::PortRef::is_trigger`].
    #[inline(always)]
    pub(crate) fn is_trigger(self) -> bool {
        self >= Op::Jump
    }

    /// What the move does to its port: a copy or an immediate is a store.
    /// Two moves write one port iff their `(port_op, dst)` are equal.
    pub(crate) fn port_op(self) -> Op {
        self.max(Op::Store)
    }
}

// Word offsets inside a datapath FU's three slots (first operand or
// running state, second operand, result) and guard offsets inside an FU's
// guard slots, in `FuKind::guards()` order.
const A: usize = 0;
const B: usize = 1;
const R: usize = 2;
const EQ: usize = 0;
const LT: usize = 1;
const GT: usize = 2;
const DONE: usize = 0;
const ZERO: usize = 1;

/// File words one instance of `kind` occupies.
pub(crate) fn words(kind: FuKind) -> usize {
    match kind {
        FuKind::Regs => 16,
        FuKind::Rtu => 5,
        FuKind::Mmu | FuKind::Ippu => 2,
        FuKind::Oppu => 1,
        FuKind::Nc => 0,
        _ => 3,
    }
}

/// What writing each port of `kind` does and the word it names, in
/// [`FuKind::ports`] order: the port's own word for a register, operand or
/// result port, the FU's first word (offset 0) for a trigger.
fn port_ops(kind: FuKind) -> &'static [(Op, usize)] {
    use Op::*;
    /// `regs0.rI` is word `I` of the register file.
    const REGS: [(Op, usize); 16] = {
        let mut ops = [(Store, 0); 16];
        let mut i = 0;
        while i < ops.len() {
            ops[i].1 = i;
            i += 1;
        }
        ops
    };
    match kind {
        // mask, refv, t, r
        FuKind::Matcher => &[(Store, A), (Store, B), (Match, 0), (Store, R)],
        // refv, t, r
        FuKind::Comparator => &[(Store, A), (Compare, 0), (Store, R)],
        // stop, tset, tinc, tdec, tadd, tsub, r
        FuKind::Counter => &[
            (CounterStop, A),
            (CntSet, 0),
            (CntInc, 0),
            (CntDec, 0),
            (CntAdd, 0),
            (CntSub, 0),
            (Store, R),
        ],
        // tclr, tadd, r
        FuKind::Checksum => &[(CsumClr, 0), (CsumAdd, 0), (Store, R)],
        // amount, tshl, tshr, r
        FuKind::Shifter => &[(Store, A), (Shl, 0), (Shr, 0), (Store, R)],
        // mask, value, t, r
        FuKind::Masker => &[(Store, A), (Store, B), (Mask, 0), (Store, R)],
        // addr, tread, twrite, r
        FuKind::Mmu => &[(Store, 0), (MmuRead, 0), (MmuWrite, 0), (Store, 1)],
        // k0, k1, k2, t, iface, nh
        FuKind::Rtu => &[(Store, 0), (Store, 1), (Store, 2), (Rtu, 0), (Store, 3), (Store, 4)],
        // t, r
        FuKind::Liu => &[(Liu, 0), (Store, R)],
        // tpop, ptr, iface
        FuKind::Ippu => &[(IppuPop, 0), (Store, 0), (Store, 1)],
        // iface, t
        FuKind::Oppu => &[(Store, 0), (OppuEmit, 0)],
        FuKind::Regs => &REGS,
        // pc
        FuKind::Nc => &[(Jump, 0)],
    }
}

/// The slot assignment for one machine: FU instances laid out kind by kind
/// in [`FuKind::ALL`] order, guard slot 0 reserved as the constant `true`
/// unguarded moves test.  At most 255 instances of a kind keep every slot
/// far below `u16::MAX`, which the `u16` fields of a `DMove` rely on.
#[derive(Debug)]
pub(crate) struct PortMap {
    base: [usize; FuKind::ALL.len()],
    gbase: [usize; FuKind::ALL.len()],
    count: [u8; FuKind::ALL.len()],
    /// Length of the word file.
    pub file_len: usize,
    /// Length of the guard file.
    pub guards_len: usize,
}

impl PortMap {
    pub(crate) fn new(config: &MachineConfig) -> Self {
        let mut map = PortMap {
            base: Default::default(),
            gbase: Default::default(),
            count: Default::default(),
            file_len: 0,
            guards_len: 1,
        };
        for kind in FuKind::ALL {
            let n = config.fu_count(kind);
            map.base[kind as usize] = map.file_len;
            map.gbase[kind as usize] = map.guards_len;
            map.count[kind as usize] = n;
            map.file_len += usize::from(n) * words(kind);
            map.guards_len += usize::from(n) * kind.guards().len();
        }
        map
    }

    /// First word slot and first guard slot of an FU instance.
    pub(crate) fn fu(&self, fu: FuRef) -> Result<(usize, usize), SimError> {
        let (k, i) = (fu.kind as usize, usize::from(fu.index));
        if fu.index >= self.count[k] {
            return Err(SimError::InvalidFuIndex { fu, available: self.count[k] });
        }
        Ok((self.base[k] + i * words(fu.kind), self.gbase[k] + i * fu.kind.guards().len()))
    }

    /// What a move into `port` does, the slot it names — the word itself
    /// for a register, operand or result port, the FU's first word for a
    /// trigger — and the FU's first guard slot.
    pub(crate) fn port(&self, port: PortRef) -> Result<(Op, usize, usize), SimError> {
        let (base, gbase) = self.fu(port.fu)?;
        let &(op, offset) = port_ops(port.fu.kind)
            .get(usize::from(port.port))
            .ok_or(SimError::InvalidPort { port, why: "no such port on this FU" })?;
        Ok((op, base + offset, gbase))
    }

    /// The guard slot of signal `signal` (an index into `fu.kind.guards()`).
    pub(crate) fn guard(&self, fu: FuRef, signal: u8) -> Result<usize, SimError> {
        let gbase = self.fu(fu)?.1;
        if usize::from(signal) >= fu.kind.guards().len() {
            return Err(SimError::InvalidGuard { fu, signal });
        }
        Ok(gbase + usize::from(signal))
    }

    /// Power-on contents of both files: zero, except what is true of a
    /// zeroed machine — `cnt.r == stop`, `cnt.r == 0`, `csum.r == !0 & 0xffff`
    /// — followed by `scratch` words and guard bits for a decoded
    /// program's early reads.
    pub(crate) fn power_on(&self, scratch: (usize, usize)) -> (Vec<u32>, Vec<bool>) {
        let mut file = vec![0; self.file_len + scratch.0];
        let mut guards = vec![false; self.guards_len + scratch.1];
        guards[0] = true;
        let counters = self.gbase[FuKind::Counter as usize];
        guards[counters..counters + 2 * usize::from(self.count[FuKind::Counter as usize])]
            .fill(true);
        for i in 0..usize::from(self.count[FuKind::Checksum as usize]) {
            file[self.base[FuKind::Checksum as usize] + i * words(FuKind::Checksum) + R] = 0xffff;
        }
        (file, guards)
    }
}

/// The RTU state that is not a port: when the pending lookup completes,
/// and the installed backend.
#[derive(Debug, Default)]
pub(crate) struct RtuState {
    pub ready_at: u64,
    pub config: RtuConfig,
}

/// The machine state a move can touch, as disjoint borrows — a step loop
/// holding one keeps the slice pointers in registers across stores.
pub(crate) struct Ports<'a> {
    pub file: &'a mut [u32],
    pub guards: &'a mut [bool],
    pub mem: &'a mut DataMemory,
    pub rtu: &'a mut RtuState,
    pub ippu_queue: &'a mut VecDeque<(u32, u32)>,
    pub oppu_out: &'a mut Vec<(u32, u32)>,
    pub liu_table: &'a [u32],
    /// Fires per [`DMove::slot`](crate::sched::DMove), bumped by the step
    /// loop and folded into the statistics when a run ends.
    pub trigger_counts: &'a mut [u64],
}

impl Ports<'_> {
    /// A move into a non-trigger port (`op`, `dst`, `gbase` from
    /// [`PortMap::port`]).
    #[inline(always)]
    pub(crate) fn store(&mut self, op: Op, dst: usize, gbase: usize, v: u32) {
        self.file[dst] = v;
        if op == Op::CounterStop {
            self.guards[gbase + DONE] = self.file[dst + R] == v;
        }
    }

    /// Fires trigger `op` of the FU at `base`/`gbase` with datum `v`.
    ///
    /// # Errors
    ///
    /// [`SimError::MemoryOutOfBounds`] from an MMU access.
    #[inline(always)]
    pub(crate) fn apply<T: Tracer + ?Sized>(
        &mut self,
        op: Op,
        base: usize,
        gbase: usize,
        v: u32,
        cycle: u64,
        tracer: &mut T,
    ) -> Result<(), SimError> {
        let Ports { file, guards, mem, rtu, ippu_queue, oppu_out, liu_table, .. } = self;
        match op {
            Op::Copy | Op::Imm | Op::Store | Op::CounterStop | Op::Jump => {
                unreachable!("{op:?} is not an FU trigger")
            }
            Op::MmuRead => file[base + 1] = mem.read(file[base])?,
            Op::MmuWrite => mem.write(file[base], v)?,
            Op::Rtu => {
                let key = [file[base], file[base + 1], file[base + 2], v];
                let (iface, nh, hit) = match rtu.config.backend.lookup(key) {
                    Some(RtuResult { iface, handle }) => (iface, handle, true),
                    None => (u32::MAX, 0, false),
                };
                file[base + 3] = iface;
                file[base + 4] = nh;
                guards[gbase] = hit;
                rtu.ready_at = cycle + u64::from(rtu.config.latency);
            }
            Op::IppuPop => {
                if let Some((ptr, iface)) = ippu_queue.pop_front() {
                    file[base] = ptr;
                    file[base + 1] = iface;
                    tracer.event(&TraceEvent::DatagramBegin { cycle, ptr, iface });
                }
                guards[gbase] = !ippu_queue.is_empty();
            }
            Op::OppuEmit => {
                let iface = file[base];
                tracer.event(&TraceEvent::DatagramEnd { cycle, ptr: v, iface });
                oppu_out.push((v, iface));
            }
            // Bitstring match under a mask; `r` passes the datum through.
            Op::Match => {
                file[base + R] = v;
                guards[gbase] = (v & file[base + A]) == (file[base + B] & file[base + A]);
            }
            // Relations against `refv`, latched at the trigger.
            Op::Compare => {
                let refv = file[base + A];
                file[base + R] = v;
                guards[gbase + EQ] = v == refv;
                guards[gbase + LT] = v < refv;
                guards[gbase + GT] = v > refv;
            }
            Op::CntSet | Op::CntInc | Op::CntDec | Op::CntAdd | Op::CntSub => {
                let r = match op {
                    Op::CntSet => v,
                    Op::CntInc => file[base + R].wrapping_add(1),
                    Op::CntDec => file[base + R].wrapping_sub(1),
                    Op::CntAdd => file[base + R].wrapping_add(v),
                    _ => file[base + R].wrapping_sub(v),
                };
                file[base + R] = r;
                guards[gbase + DONE] = r == file[base + A];
                guards[gbase + ZERO] = r == 0;
            }
            // RFC 1071 accumulator fed 32-bit words.  The end-around carry
            // is folded here, so the running sum in `A` never exceeds
            // 0xffff and `r` is always the complemented checksum.
            Op::CsumClr | Op::CsumAdd => {
                let mut s = 0;
                if op == Op::CsumAdd {
                    s = file[base + A] + (v >> 16) + (v & 0xffff);
                    s = (s & 0xffff) + (s >> 16);
                    s = (s & 0xffff) + (s >> 16);
                }
                file[base + A] = s;
                file[base + R] = !s & 0xffff;
            }
            // Shift distances wrap at 32; `tshl`/`tshr` double as multiply
            // and divide by 2^n, as the paper notes.
            Op::Shl => file[base + R] = v << (file[base + A] & 31),
            Op::Shr => file[base + R] = v >> (file[base + A] & 31),
            // Bitfield insert.
            Op::Mask => file[base + R] = (v & !file[base + A]) | (file[base + B] & file[base + A]),
            // A ROM of router-local words; out of range reads zero.
            Op::Liu => file[base + R] = liu_table.get(v as usize).copied().unwrap_or(0),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NullTracer;
    use crate::Processor;
    use std::collections::BTreeSet;
    use taco_isa::Program;

    /// One power-on machine driven move by move, ports named as in assembly.
    struct Bench(Processor);

    impl Bench {
        fn new() -> Self {
            let mut cpu = Processor::new(MachineConfig::new(1), Program::new()).unwrap();
            cpu.set_local_info(vec![0xaaaa, 0xbbbb]);
            Bench(cpu)
        }

        fn mv(&mut self, v: u32, kind: FuKind, port: &str) {
            let (op, slot, gbase) =
                self.0.compiled().map.port(PortRef::new(kind, 0, port)).unwrap();
            if op.is_trigger() {
                self.0.ports().apply(op, slot, gbase, v, 0, &mut NullTracer).unwrap();
            } else {
                self.0.ports().store(op, slot, gbase, v);
            }
        }

        fn r(&self, kind: FuKind) -> u32 {
            self.0.fu_result(kind, 0, "r").unwrap()
        }

        fn guard(&self, kind: FuKind, signal: &str) -> bool {
            self.0.guard_value(kind, 0, signal)
        }
    }

    #[test]
    fn layout_is_injective_in_range_and_keeps_port_equality() {
        let config = MachineConfig::three_bus_three_fu().with_fu_count(FuKind::Mmu, 2);
        let map = PortMap::new(&config);
        let (mut words, mut ports, mut guards) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        for (kind, count) in config.fu_counts() {
            for fu in (0..count).map(|i| FuRef::new(kind, i)) {
                let (base, gbase) = map.fu(fu).unwrap();
                assert_eq!(port_ops(kind).len(), kind.ports().len(), "{kind}");
                for index in 0..kind.ports().len() as u8 {
                    let port = PortRef { fu, port: index };
                    let (op, slot, _) = map.port(port).unwrap();
                    assert_eq!(op.is_trigger(), port.is_trigger(), "{port}");
                    // Conflict detection compares (op, slot): distinct per port.
                    assert!(ports.insert((op, slot)), "{port} aliases another port");
                    if op.is_trigger() {
                        assert_eq!(slot, base, "{port}");
                    } else {
                        assert!(slot < map.file_len && words.insert(slot), "{port} -> {slot}");
                    }
                }
                for signal in 0..kind.guards().len() as u8 {
                    let slot = map.guard(fu, signal).unwrap();
                    assert_eq!(slot, gbase + usize::from(signal));
                    assert!((1..map.guards_len).contains(&slot) && guards.insert(slot), "{fu}");
                }
            }
            assert!(map.fu(FuRef::new(kind, count)).is_err(), "{kind}");
        }
        // Every word of the file is some port, bar the unused second
        // operand of the two-word datapath units.
        assert!(words.len() <= map.file_len && guards.len() + 1 == map.guards_len);
        assert!(map.port(PortRef { fu: FuRef::new(FuKind::Regs, 0), port: 16 }).is_err());
        assert!(map.guard(FuRef::new(FuKind::Counter, 0), 2).is_err());
    }

    #[test]
    fn a_trigger_writes_only_inside_its_unit() {
        // What the early-read rule of `sched::decode` assumes of a trigger.
        let config = MachineConfig::three_bus_three_fu().with_fu_count(FuKind::Mmu, 2);
        let mut cpu = Processor::new(config.clone(), Program::new()).unwrap();
        cpu.set_local_info(vec![7, 8, 9]);
        for (kind, count) in config.fu_counts() {
            for fu in (0..count).map(|i| FuRef::new(kind, i)) {
                for port in (0..kind.ports().len() as u8).map(|port| PortRef { fu, port }) {
                    let (op, base, gbase) = cpu.compiled().map.port(port).unwrap();
                    if !op.is_trigger() || op == Op::Jump {
                        continue;
                    }
                    cpu.push_input(0x40, 1);
                    let mut ports = cpu.ports();
                    for (i, w) in ports.file.iter_mut().enumerate() {
                        *w = (i as u32 * 37) % 512;
                    }
                    for (i, g) in ports.guards.iter_mut().enumerate() {
                        *g = i % 3 == 0;
                    }
                    let (file, guards) = (ports.file.to_vec(), ports.guards.to_vec());
                    ports.apply(op, base, gbase, 5, 0, &mut NullTracer).unwrap();
                    let own = base..base + words(kind);
                    let changed = file.iter().zip(ports.file.iter()).map(|(a, b)| a != b);
                    for (i, _) in changed.enumerate().filter(|(_, c)| *c) {
                        assert!(own.contains(&i), "{port} wrote word {i} outside {own:?}");
                    }
                    let own = gbase..gbase + kind.guards().len();
                    let changed = guards.iter().zip(ports.guards.iter()).map(|(a, b)| a != b);
                    for (i, _) in changed.enumerate().filter(|(_, c)| *c) {
                        assert!(own.contains(&i), "{port} wrote guard {i} outside {own:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn matcher_respects_mask() {
        let mut b = Bench::new();
        b.mv(0xffff_0000, FuKind::Matcher, "mask");
        b.mv(0x2001_0db8, FuKind::Matcher, "refv");
        b.mv(0x2001_ffff, FuKind::Matcher, "t");
        assert!(b.guard(FuKind::Matcher, "match")); // only upper half compared
        assert_eq!(b.r(FuKind::Matcher), 0x2001_ffff);
        b.mv(0x2002_0db8, FuKind::Matcher, "t");
        assert!(!b.guard(FuKind::Matcher, "match"));
    }

    #[test]
    fn comparator_latches_relations() {
        let mut b = Bench::new();
        let relations = |b: &Bench| ["eq", "lt", "gt"].map(|s| b.guard(FuKind::Comparator, s));
        b.mv(100, FuKind::Comparator, "refv");
        b.mv(100, FuKind::Comparator, "t");
        assert_eq!(relations(&b), [true, false, false]);
        b.mv(99, FuKind::Comparator, "t");
        assert_eq!(relations(&b), [false, true, false]);
        b.mv(101, FuKind::Comparator, "t");
        // Rewriting refv does not change latched guards.
        b.mv(0, FuKind::Comparator, "refv");
        assert_eq!((relations(&b), b.r(FuKind::Comparator)), ([false, false, true], 101));
    }

    #[test]
    fn counter_operations_and_guards() {
        let mut b = Bench::new();
        let guards =
            |b: &Bench| (b.guard(FuKind::Counter, "done"), b.guard(FuKind::Counter, "zero"));
        assert_eq!(guards(&b), (true, true)); // power-on: 0 == stop, 0 == 0
        b.mv(3, FuKind::Counter, "stop");
        assert_eq!(guards(&b), (false, true)); // `done` follows a stop write
        for _ in 0..3 {
            b.mv(0, FuKind::Counter, "tinc");
        }
        assert_eq!((guards(&b), b.r(FuKind::Counter)), ((true, false), 3));
        b.mv(10, FuKind::Counter, "tadd");
        assert_eq!(b.r(FuKind::Counter), 13);
        b.mv(13, FuKind::Counter, "tsub");
        assert_eq!(guards(&b), (false, true));
        b.mv(0, FuKind::Counter, "tdec");
        assert_eq!(b.r(FuKind::Counter), u32::MAX); // wrapping
        b.mv(u32::MAX, FuKind::Counter, "stop");
        b.mv(7, FuKind::Counter, "tset");
        assert_eq!((guards(&b), b.r(FuKind::Counter)), ((false, false), 7));
    }

    #[test]
    fn checksum_matches_reference_implementation() {
        let mut b = Bench::new();
        assert_eq!(b.r(FuKind::Checksum), 0xffff); // power-on reads as cleared
        b.mv(0x0001_f203, FuKind::Checksum, "tadd");
        b.mv(0xf4f5_f6f7, FuKind::Checksum, "tadd");
        // RFC 1071 worked example folds to 0xddf2 before complement.
        assert_eq!(b.r(FuKind::Checksum), u32::from(!0xddf2u16));
        b.mv(0, FuKind::Checksum, "tclr");
        assert_eq!(b.r(FuKind::Checksum), 0xffff);
    }

    #[test]
    fn shifter_masker_and_liu() {
        let mut b = Bench::new();
        b.mv(1, FuKind::Shifter, "amount");
        b.mv(21, FuKind::Shifter, "tshl");
        assert_eq!(b.r(FuKind::Shifter), 42);
        b.mv(2, FuKind::Shifter, "amount");
        b.mv(44, FuKind::Shifter, "tshr");
        assert_eq!(b.r(FuKind::Shifter), 11);
        b.mv(33, FuKind::Shifter, "amount"); // shift distances wrap at 32
        b.mv(1, FuKind::Shifter, "tshl");
        assert_eq!(b.r(FuKind::Shifter), 2);

        b.mv(0x0000_ff00, FuKind::Masker, "mask");
        b.mv(0x0000_4200, FuKind::Masker, "value");
        b.mv(0x1234_5678, FuKind::Masker, "t");
        assert_eq!(b.r(FuKind::Masker), 0x1234_4278);

        b.mv(1, FuKind::Liu, "t");
        assert_eq!(b.r(FuKind::Liu), 0xbbbb);
        b.mv(99, FuKind::Liu, "t"); // out of range reads zero
        assert_eq!(b.r(FuKind::Liu), 0);
    }
}
