//! The TACO functional-unit catalogue: kinds, ports and guard signals.
//!
//! A TACO processor (paper Fig. 2) is assembled from protocol-processing
//! functional units connected to an interconnection network of buses.  Each
//! FU exposes three kinds of register to the network:
//!
//! * **operand** registers — written by moves, latched when the FU triggers;
//! * **trigger** registers — writing one starts the FU's operation (TACO FUs
//!   complete in a single clock cycle);
//! * **result** registers — readable by moves one cycle after the trigger.
//!
//! In addition some FUs drive 1-bit **guard signals** wired directly to the
//! interconnection network controller (the paper's Matcher, Comparer and
//! Counter "result signals"); any move can be predicated on a guard.
//!
//! This module is pure metadata — the behavioural models live in
//! `taco-sim` — so that the assembler and scheduler can validate programs
//! without pulling in the simulator.
//!
//! Code names a port or guard signal by its index in its kind's table
//! ([`FuKind::ports`], [`FuKind::guards`]).  Names are looked up only where
//! text becomes code or code becomes text: the assembler, `Display`, and
//! the name-taking constructors of [`PortRef`](crate::PortRef) and
//! [`Guard`](crate::Guard).

use std::fmt;
use std::str::FromStr;

/// The functional-unit types of the TACO IPv6 router (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuKind {
    /// Bitstring comparison under a mask; drives the `match` guard.
    Matcher,
    /// Magnitude comparison against a reference; drives `eq`/`lt`/`gt`.
    Comparator,
    /// Arithmetic (inc/dec/add/sub) and counting toward a stop value;
    /// drives `done`/`zero`.
    Counter,
    /// RFC 1071 Internet-checksum accumulator.
    Checksum,
    /// Logical shifter (doubles as multiply/divide by powers of two).
    Shifter,
    /// Sets bits of a value according to a mask (bitfield insert).
    Masker,
    /// Memory management unit: the port into data memory.
    Mmu,
    /// Routing Table Unit: the dedicated lookup FU (CAM-backed in the
    /// paper's third case).
    Rtu,
    /// Local Information Unit: the router's own addresses and port count.
    Liu,
    /// Input preprocessing unit: scans line-card input buffers, queues
    /// pointers to pending datagrams; drives the `pending` guard.
    Ippu,
    /// Output postprocessing unit: moves finished datagrams to line-card
    /// output buffers.
    Oppu,
    /// General-purpose register file (16 × 32-bit).
    Regs,
    /// The interconnection network controller itself: its `pc` port is the
    /// jump target register.
    Nc,
}

/// Direction of a port as seen from the interconnection network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Operand register: written by moves, latched on trigger.
    Operand,
    /// Trigger register: writing starts the operation.
    Trigger,
    /// Result register: read by moves.
    Result,
    /// Readable and writable with no side effect (register file).
    Both,
}

/// Metadata for one FU port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortSpec {
    /// Port name as written in assembly (`mmu0.addr` → `"addr"`).
    pub name: &'static str,
    /// Direction/class of the port.
    pub dir: PortDir,
}

const fn port(name: &'static str, dir: PortDir) -> PortSpec {
    PortSpec { name, dir }
}

impl FuKind {
    /// Every FU kind, in display order.
    pub const ALL: [FuKind; 13] = [
        FuKind::Matcher,
        FuKind::Comparator,
        FuKind::Counter,
        FuKind::Checksum,
        FuKind::Shifter,
        FuKind::Masker,
        FuKind::Mmu,
        FuKind::Rtu,
        FuKind::Liu,
        FuKind::Ippu,
        FuKind::Oppu,
        FuKind::Regs,
        FuKind::Nc,
    ];

    /// The kinds the paper replicates when exploring configurations
    /// ("3 matchers, 3 counters and 3 comparers").
    pub const REPLICABLE: [FuKind; 3] = [FuKind::Matcher, FuKind::Comparator, FuKind::Counter];

    /// The ports this FU kind exposes to the interconnection network.
    pub fn ports(&self) -> &'static [PortSpec] {
        use PortDir::{Operand, Result, Trigger};
        const MATCHER: [PortSpec; 4] =
            [port("mask", Operand), port("refv", Operand), port("t", Trigger), port("r", Result)];
        const COMPARATOR: [PortSpec; 3] =
            [port("refv", Operand), port("t", Trigger), port("r", Result)];
        const COUNTER: [PortSpec; 7] = [
            port("stop", Operand),
            port("tset", Trigger),
            port("tinc", Trigger),
            port("tdec", Trigger),
            port("tadd", Trigger),
            port("tsub", Trigger),
            port("r", Result),
        ];
        const CHECKSUM: [PortSpec; 3] =
            [port("tclr", Trigger), port("tadd", Trigger), port("r", Result)];
        const SHIFTER: [PortSpec; 4] = [
            port("amount", Operand),
            port("tshl", Trigger),
            port("tshr", Trigger),
            port("r", Result),
        ];
        const MASKER: [PortSpec; 4] =
            [port("mask", Operand), port("value", Operand), port("t", Trigger), port("r", Result)];
        const MMU: [PortSpec; 4] = [
            port("addr", Operand),
            port("tread", Trigger),
            port("twrite", Trigger),
            port("r", Result),
        ];
        const RTU: [PortSpec; 6] = [
            port("k0", Operand),
            port("k1", Operand),
            port("k2", Operand),
            port("t", Trigger),
            port("iface", Result),
            port("nh", Result),
        ];
        const LIU: [PortSpec; 2] = [port("t", Trigger), port("r", Result)];
        const IPPU: [PortSpec; 3] =
            [port("tpop", Trigger), port("ptr", Result), port("iface", Result)];
        const OPPU: [PortSpec; 2] = [port("iface", Operand), port("t", Trigger)];
        const REGS: [PortSpec; 16] = [
            port("r0", PortDir::Both),
            port("r1", PortDir::Both),
            port("r2", PortDir::Both),
            port("r3", PortDir::Both),
            port("r4", PortDir::Both),
            port("r5", PortDir::Both),
            port("r6", PortDir::Both),
            port("r7", PortDir::Both),
            port("r8", PortDir::Both),
            port("r9", PortDir::Both),
            port("r10", PortDir::Both),
            port("r11", PortDir::Both),
            port("r12", PortDir::Both),
            port("r13", PortDir::Both),
            port("r14", PortDir::Both),
            port("r15", PortDir::Both),
        ];
        const NC: [PortSpec; 1] = [port("pc", Trigger)];
        match self {
            FuKind::Matcher => &MATCHER,
            FuKind::Comparator => &COMPARATOR,
            FuKind::Counter => &COUNTER,
            FuKind::Checksum => &CHECKSUM,
            FuKind::Shifter => &SHIFTER,
            FuKind::Masker => &MASKER,
            FuKind::Mmu => &MMU,
            FuKind::Rtu => &RTU,
            FuKind::Liu => &LIU,
            FuKind::Ippu => &IPPU,
            FuKind::Oppu => &OPPU,
            FuKind::Regs => &REGS,
            FuKind::Nc => &NC,
        }
    }

    /// Guard signals this FU drives into the network controller.
    pub fn guards(&self) -> &'static [&'static str] {
        match self {
            FuKind::Matcher => &["match"],
            FuKind::Comparator => &["eq", "lt", "gt"],
            FuKind::Counter => &["done", "zero"],
            FuKind::Rtu => &["hit"],
            FuKind::Ippu => &["pending"],
            _ => &[],
        }
    }

    /// The index in [`FuKind::ports`] of the port called `name` — the one
    /// name lookup, made where text becomes a [`PortRef`](crate::PortRef).
    pub fn find_port(&self, name: &str) -> Option<u8> {
        self.ports().iter().position(|p| p.name == name).map(|i| i as u8)
    }

    /// The index in [`FuKind::guards`] of the signal called `name`.
    pub fn find_guard(&self, name: &str) -> Option<u8> {
        self.guards().iter().position(|g| *g == name).map(|i| i as u8)
    }

    /// The prefix used in assembly (`mtch0.t`, `cnt2.r`, ...).
    pub fn asm_prefix(&self) -> &'static str {
        match self {
            FuKind::Matcher => "mtch",
            FuKind::Comparator => "cmp",
            FuKind::Counter => "cnt",
            FuKind::Checksum => "csum",
            FuKind::Shifter => "shft",
            FuKind::Masker => "mask",
            FuKind::Mmu => "mmu",
            FuKind::Rtu => "rtu",
            FuKind::Liu => "liu",
            FuKind::Ippu => "ippu",
            FuKind::Oppu => "oppu",
            FuKind::Regs => "regs",
            FuKind::Nc => "nc",
        }
    }

    /// Parses an assembly prefix back into a kind.
    pub fn from_asm_prefix(s: &str) -> Option<FuKind> {
        FuKind::ALL.into_iter().find(|k| k.asm_prefix() == s)
    }
}

impl fmt::Display for FuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            FuKind::Matcher => "Matcher",
            FuKind::Comparator => "Comparator",
            FuKind::Counter => "Counter",
            FuKind::Checksum => "Checksum",
            FuKind::Shifter => "Shifter",
            FuKind::Masker => "Masker",
            FuKind::Mmu => "MMU",
            FuKind::Rtu => "RoutingTableUnit",
            FuKind::Liu => "LocalInfoUnit",
            FuKind::Ippu => "iPPU",
            FuKind::Oppu => "oPPU",
            FuKind::Regs => "Registers",
            FuKind::Nc => "NetworkController",
        };
        f.write_str(name)
    }
}

impl FromStr for FuKind {
    type Err = UnknownFuError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FuKind::from_asm_prefix(s).ok_or_else(|| UnknownFuError(s.to_string()))
    }
}

/// Error returned when an FU prefix is not recognised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownFuError(pub String);

impl fmt::Display for UnknownFuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown functional unit prefix {:?}", self.0)
    }
}

impl std::error::Error for UnknownFuError {}

/// A reference to one FU instance: its kind plus an instance index.
///
/// During code generation indices are *virtual* (the programmer names as
/// many units as the algorithm has parallelism); the scheduler folds them
/// onto the physical instances of a [`MachineConfig`](crate::MachineConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuRef {
    /// The unit kind.
    pub kind: FuKind,
    /// Instance index (virtual before scheduling, physical after).
    pub index: u8,
}

impl FuRef {
    /// Creates a reference to instance `index` of `kind`.
    pub const fn new(kind: FuKind, index: u8) -> Self {
        FuRef { kind, index }
    }
}

impl fmt::Display for FuRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.kind.asm_prefix(), self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_round_trips_through_prefix() {
        for k in FuKind::ALL {
            assert_eq!(FuKind::from_asm_prefix(k.asm_prefix()), Some(k));
            assert_eq!(k.asm_prefix().parse::<FuKind>().unwrap(), k);
        }
        assert!("bogus".parse::<FuKind>().is_err());
    }

    #[test]
    fn triggerable_units_have_a_trigger_port() {
        for k in FuKind::ALL {
            if k == FuKind::Regs {
                continue; // the register file has no trigger
            }
            assert!(
                k.ports().iter().any(|p| p.dir == PortDir::Trigger),
                "{k} lacks a trigger port"
            );
        }
    }

    #[test]
    fn find_port_and_guards() {
        let dir = |name: &str| {
            Some(FuKind::Matcher.ports()[usize::from(FuKind::Matcher.find_port(name)?)].dir)
        };
        assert_eq!(dir("mask"), Some(PortDir::Operand));
        assert_eq!(dir("t"), Some(PortDir::Trigger));
        assert_eq!(dir("r"), Some(PortDir::Result));
        assert_eq!(FuKind::Matcher.find_port("nope"), None);
        assert_eq!(FuKind::Matcher.find_guard("match"), Some(0));
        assert_eq!(FuKind::Comparator.find_guard("gt"), Some(2));
        assert_eq!(FuKind::Counter.find_guard("done"), Some(0));
        assert_eq!(FuKind::Ippu.find_guard("pending"), Some(0));
        assert_eq!(FuKind::Checksum.find_guard("match"), None);
    }

    #[test]
    fn register_n_is_port_n_of_the_register_file() {
        let ports = FuKind::Regs.ports();
        assert_eq!(ports.len(), 16);
        assert!(ports.iter().all(|p| p.dir == PortDir::Both));
        for (i, p) in ports.iter().enumerate() {
            assert_eq!(p.name, format!("r{i}"));
        }
    }

    #[test]
    fn furef_display() {
        assert_eq!(FuRef::new(FuKind::Matcher, 0).to_string(), "mtch0");
        assert_eq!(FuRef::new(FuKind::Counter, 2).to_string(), "cnt2");
        assert_eq!(FuRef::new(FuKind::Nc, 0).to_string(), "nc0");
    }

    #[test]
    fn display_names_are_papers_names() {
        assert_eq!(FuKind::Rtu.to_string(), "RoutingTableUnit");
        assert_eq!(FuKind::Ippu.to_string(), "iPPU");
        assert_eq!(FuKind::Mmu.to_string(), "MMU");
    }
}
