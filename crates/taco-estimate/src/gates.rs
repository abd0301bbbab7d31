//! Gate-count budgets for the TACO modules.
//!
//! The paper's physical model (Nurmi et al., NORCHIP 2000) characterised
//! each TACO module from layout data; that data is not public, so these are
//! order-of-magnitude NAND2-equivalent budgets for simple 32-bit datapath
//! units, chosen to keep the *relative* costs sensible (a barrel shifter
//! outweighs a comparator; sockets are cheap but numerous).  Everything
//! downstream treats them as calibration constants.

use taco_isa::{FuKind, MachineConfig};

/// NAND2-equivalent gate count of one instance of `kind` (excluding its
/// sockets, which are charged per port by [`interconnect_gates`]).
pub(crate) fn fu_gates(kind: FuKind) -> u32 {
    match kind {
        FuKind::Matcher => 1_200,    // two 32-bit operand regs + masked XOR tree
        FuKind::Comparator => 1_000, // operand reg + magnitude comparator
        FuKind::Counter => 1_500,    // 32-bit adder + count/stop regs
        FuKind::Checksum => 1_800,   // 16-bit one's complement adder tree + folding
        FuKind::Shifter => 2_500,    // 32-bit barrel shifter
        FuKind::Masker => 1_200,     // mask/value regs + mux tree
        FuKind::Mmu => 3_000,        // address path + memory controller FSM
        FuKind::Rtu => 2_000,        // key registers + external-chip interface
        FuKind::Liu => 500,          // small ROM + latch
        FuKind::Ippu => 2_500,       // scan FSM + pointer queue head
        FuKind::Oppu => 2_500,       // drain FSM + pointer queue head
        FuKind::Regs => 3_100,       // 16 × 32 flops + read/write muxing
        FuKind::Nc => 0,             // charged by interconnect_gates()
    }
}

/// Gates of the interconnection network: the network controller core, the
/// per-bus drivers/arbitration, and one socket per FU port instance.
pub(crate) fn interconnect_gates(config: &MachineConfig) -> u32 {
    const NC_BASE: u32 = 2_500;
    const PER_BUS: u32 = 1_500;
    const PER_SOCKET: u32 = 80;
    NC_BASE + PER_BUS * u32::from(config.buses()) + PER_SOCKET * config.total_sockets()
}

/// Total logic gates of a configuration (FUs + interconnect, no SRAM).
pub(crate) fn total_gates(config: &MachineConfig) -> u32 {
    let fus: u32 = config.fu_counts().map(|(kind, count)| fu_gates(kind) * u32::from(count)).sum();
    fus + interconnect_gates(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_datapath_unit_has_a_budget() {
        for kind in FuKind::ALL {
            if kind == FuKind::Nc {
                assert_eq!(fu_gates(kind), 0);
            } else {
                assert!(fu_gates(kind) > 0, "{kind}");
            }
        }
    }

    #[test]
    fn more_fus_cost_more_gates() {
        let small = total_gates(&MachineConfig::one_bus_one_fu());
        let wide = total_gates(&MachineConfig::three_bus_three_fu());
        assert!(wide > small);
        // The delta is exactly 2 extra each of CNT/CMP/M plus their sockets
        // and two extra buses.
        let expected_delta = 2
            * (fu_gates(FuKind::Counter)
                + fu_gates(FuKind::Comparator)
                + fu_gates(FuKind::Matcher))
            + 2 * 1_500
            + 80 * 2
                * (FuKind::Counter.ports().len()
                    + FuKind::Comparator.ports().len()
                    + FuKind::Matcher.ports().len()) as u32;
        assert_eq!(wide - small, expected_delta);
    }

    #[test]
    fn more_buses_cost_more_interconnect() {
        let one = interconnect_gates(&MachineConfig::new(1));
        let three = interconnect_gates(&MachineConfig::new(3));
        assert_eq!(three - one, 2 * 1_500);
    }

    #[test]
    fn totals_are_tens_of_thousands() {
        // Sanity: a TACO processor is a small core, not a CPU.
        let g = total_gates(&MachineConfig::one_bus_one_fu());
        assert!((20_000..60_000).contains(&g), "got {g}");
    }
}
