//! Architecture instances under evaluation: a machine configuration paired
//! with a routing-table implementation.

use std::fmt;

use taco_isa::{FuKind, MachineConfig};
use taco_routing::TableKind;

/// Re-export of the routing-table organisation enum under the name the
/// evaluation API uses.
pub type RoutingTableKind = TableKind;

/// One row-by-column cell of the paper's design space: *how the routing
/// table is implemented* × *how much interconnect and datapath the
/// processor has*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArchConfig {
    /// The TTA resources of one core.
    pub machine: MachineConfig,
    /// The routing-table organisation.
    pub table: RoutingTableKind,
}

impl ArchConfig {
    /// Creates an architecture instance.
    pub fn new(machine: MachineConfig, table: RoutingTableKind) -> Self {
        ArchConfig { machine, table }
    }

    /// The paper's `1BUS/1FU` column for the given table organisation.
    pub fn one_bus_one_fu(table: RoutingTableKind) -> Self {
        Self::new(MachineConfig::one_bus_one_fu(), table)
    }

    /// The paper's `3BUS/1FU` column.
    pub fn three_bus_one_fu(table: RoutingTableKind) -> Self {
        Self::new(MachineConfig::three_bus_one_fu(), table)
    }

    /// The paper's `3bus/3CNT,3CMP,3M` column.
    pub fn three_bus_three_fu(table: RoutingTableKind) -> Self {
        Self::new(MachineConfig::three_bus_three_fu(), table)
    }

    /// All twelve cells of the extended Table 1, in the paper's row-major
    /// order: the paper's nine (sequential, balanced tree, CAM × the three
    /// configurations) plus a path-compressed PATRICIA row — the
    /// organisation that keeps both the probe count and the memory
    /// footprint bounded at internet-size tables.
    pub fn table1_cells() -> Vec<ArchConfig> {
        let mut cells = Vec::with_capacity(12);
        for kind in
            [TableKind::Sequential, TableKind::BalancedTree, TableKind::Cam, TableKind::Patricia]
        {
            cells.push(Self::one_bus_one_fu(kind));
            cells.push(Self::three_bus_one_fu(kind));
            cells.push(Self::three_bus_three_fu(kind));
        }
        cells
    }

    /// A generic configuration: `buses` buses and `replication` instances
    /// of each replicable datapath unit (Counter, Comparator, Matcher).
    ///
    /// # Panics
    ///
    /// Panics if `buses` or `replication` is zero.
    pub fn with_replication(table: RoutingTableKind, buses: u8, replication: u8) -> Self {
        let mut machine = MachineConfig::new(buses);
        if replication > 1 {
            for kind in FuKind::REPLICABLE {
                machine = machine.with_fu_count(kind, replication);
            }
        }
        Self::new(machine, table)
    }

    /// Returns a copy with an `n`-ported data memory (replicated MMU) — the
    /// ablation probing whether the paper's FU-scaling gains assumed memory
    /// bandwidth beyond one word per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is zero.
    pub fn with_memory_ports(mut self, ports: u8) -> Self {
        self.machine = self.machine.with_fu_count(FuKind::Mmu, ports);
        self
    }

    /// A Table 1 style row label, e.g. `cam 3BUS/1FU`.
    pub fn label(&self) -> String {
        format!("{} {}", self.table, self.machine.label())
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_twelve_cells_in_paper_order() {
        let cells = ArchConfig::table1_cells();
        assert_eq!(cells.len(), 12);
        assert_eq!(cells[0].table, TableKind::Sequential);
        assert_eq!(cells[0].machine.buses(), 1);
        assert_eq!(cells[8].table, TableKind::Cam);
        assert_eq!(cells[8].machine.fu_count(FuKind::Matcher), 3);
        // The PATRICIA column rides below the paper's nine cells, so the
        // original rows keep their indices.
        assert_eq!(cells[9].table, TableKind::Patricia);
        assert_eq!(cells[11].machine.fu_count(FuKind::Counter), 3);
    }

    #[test]
    fn replication_builder() {
        let a = ArchConfig::with_replication(TableKind::Sequential, 4, 2);
        assert_eq!(a.machine.buses(), 4);
        assert_eq!(a.machine.fu_count(FuKind::Counter), 2);
        assert_eq!(a.machine.fu_count(FuKind::Checksum), 1);
        let b = ArchConfig::with_replication(TableKind::Cam, 2, 1);
        assert_eq!(b.machine.fu_count(FuKind::Matcher), 1);
    }

    #[test]
    fn labels_follow_the_paper() {
        assert_eq!(
            ArchConfig::three_bus_three_fu(TableKind::BalancedTree).label(),
            "balanced-tree 3bus/3CNT,3CMP,3M"
        );
        assert_eq!(ArchConfig::one_bus_one_fu(TableKind::Cam).to_string(), "cam 1BUS/1FU");
    }
}
