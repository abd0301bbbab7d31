//! Name-based parsers: the single validation path shared by CLI and wire.

use taco_routing::TableKind;
use taco_workload::{FaultPlan, Workload};

use crate::arch::ArchConfig;
use crate::rate::LineRate;

/// Parses a routing-table organisation by its display name (`sequential`,
/// `balanced-tree`, `cam`, `patricia`; aliases `seq`, `tree`, `pat`).  The
/// error message lists [`TableKind::ALL_KINDS`] — shared verbatim by the
/// `trace` subcommand and the wire schema (both v1 and v2 dialects funnel
/// through here, so an unknown kind is a structured `bad_request` on every
/// path).
pub fn parse_table_kind(name: &str) -> Result<TableKind, String> {
    match name {
        "sequential" | "seq" => Ok(TableKind::Sequential),
        "balanced-tree" | "tree" => Ok(TableKind::BalancedTree),
        "cam" => Ok(TableKind::Cam),
        "patricia" | "pat" => Ok(TableKind::Patricia),
        other => Err(format!(
            "unknown table kind {other:?}; expected one of: {} (aliases: seq, tree, pat)",
            one_of(TableKind::ALL_KINDS)
        )),
    }
}

/// Every accepted machine-shape spelling: the canonical
/// `<buses>x<replication>` shape first, then its documented aliases (the
/// paper's Table 1 column labels).  [`parse_machine_spec`] matches against
/// this table **and** generates its error message from it, so the list of
/// spellings an error names cannot drift from what the parser accepts.
const MACHINE_SPELLINGS: &[(&[&str], u8, u8)] = &[
    (&["1x1", "1BUS/1FU"], 1, 1),
    (&["3x1", "3BUS/1FU"], 3, 1),
    (&["3x3", "3bus/3CNT,3CMP,3M"], 3, 3),
];

/// Parses a machine shape (`1x1`, `3x1`, `3x3`, or the Table 1 label
/// aliases `1BUS/1FU`, `3BUS/1FU`, `3bus/3CNT,3CMP,3M`) into a
/// [`ArchConfig`] over `kind` — the one shape parser the wire schema and
/// every `taco-cli` subcommand share.  The error message lists every
/// accepted spelling, generated
/// from the same table the parser matches against.
pub fn parse_machine_spec(kind: TableKind, shape: &str) -> Result<ArchConfig, String> {
    for &(names, buses, replication) in MACHINE_SPELLINGS {
        if names.contains(&shape) {
            return Ok(ArchConfig::with_replication(kind, buses, replication));
        }
    }
    let accepted: Vec<&str> =
        MACHINE_SPELLINGS.iter().flat_map(|&(names, _, _)| names.iter().copied()).collect();
    Err(format!("unknown machine config {shape:?}; expected one of: {}", accepted.join(", ")))
}

/// Looks a builtin workload up by name; the error lists the valid names
/// (the single source the `dse --scenario` flag and the wire share).
pub fn parse_workload_name(name: &str) -> Result<Workload, String> {
    Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::builtin().iter().map(|w| w.name()).collect();
        format!("unknown scenario {name:?}; expected one of: {}", names.join(", "))
    })
}

/// Looks a builtin fault plan up by name; the error lists the valid names
/// (shared by `dse --faults` and the wire).
pub fn parse_fault_plan_name(name: &str) -> Result<FaultPlan, String> {
    FaultPlan::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = FaultPlan::builtin().iter().map(|(n, _)| *n).collect();
        format!("unknown fault plan {name:?}; expected one of: {}", names.join(", "))
    })
}

/// Validates a line rate the way [`LineRate::new`] does, as a `Result`
/// instead of a panic — the construction path wire requests and CLI flags
/// share.
pub(crate) fn validated_rate(bits_per_second: f64, packet_bytes: u32) -> Result<LineRate, String> {
    if !(bits_per_second.is_normal() && bits_per_second > 0.0) {
        return Err(format!("rate must be a positive finite number, got {bits_per_second}"));
    }
    if packet_bytes == 0 {
        return Err("packet size must be positive".to_owned());
    }
    Ok(LineRate { bits_per_second, packet_bytes })
}

/// `a, b, c` — the names a member spelled by name may take.
pub(super) fn one_of<T: std::fmt::Display>(names: impl IntoIterator<Item = T>) -> String {
    names.into_iter().map(|name| name.to_string()).collect::<Vec<_>>().join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_validation_matches_line_rate_new() {
        assert!(validated_rate(10e9, 1040).is_ok());
        for bad in [0.0, -1.0, f64::INFINITY, f64::NAN, f64::MIN_POSITIVE / 2.0] {
            assert!(validated_rate(bad, 1040).is_err(), "{bad}");
        }
        assert!(validated_rate(10e9, 0).is_err());
    }

    #[test]
    fn name_parsers_list_alternatives() {
        assert_eq!(parse_table_kind("tree"), Ok(TableKind::BalancedTree));
        assert_eq!(parse_table_kind("patricia"), Ok(TableKind::Patricia));
        assert_eq!(parse_table_kind("pat"), Ok(TableKind::Patricia));
        assert!(parse_table_kind("btree").unwrap_err().contains("balanced-tree"));
        assert!(parse_table_kind("btree").unwrap_err().contains("patricia"));
        // Every display name must round-trip through the parser — the wire
        // serialises kinds by `Display`, so a kind the parser rejects
        // could be emitted but never read back.
        for kind in TableKind::ALL_KINDS {
            assert_eq!(parse_table_kind(&kind.to_string()), Ok(kind));
        }
        assert!(parse_workload_name("nope").unwrap_err().contains("steady-forward"));
        assert!(parse_fault_plan_name("nope").unwrap_err().contains("storm"));
        assert_eq!(parse_workload_name("table-churn"), Ok(Workload::table_churn()));
        assert_eq!(parse_fault_plan_name("storm"), Ok(FaultPlan::storm()));
        // Every documented machine spelling parses to the shape it names,
        // and the error message lists all of them (generated from the
        // spelling table, so it cannot drift from the parser).
        for (spelling, expected) in [
            ("1x1", ArchConfig::one_bus_one_fu(TableKind::Cam)),
            ("1BUS/1FU", ArchConfig::one_bus_one_fu(TableKind::Cam)),
            ("3x1", ArchConfig::three_bus_one_fu(TableKind::Cam)),
            ("3BUS/1FU", ArchConfig::three_bus_one_fu(TableKind::Cam)),
            ("3x3", ArchConfig::three_bus_three_fu(TableKind::Cam)),
            ("3bus/3CNT,3CMP,3M", ArchConfig::three_bus_three_fu(TableKind::Cam)),
        ] {
            assert_eq!(parse_machine_spec(TableKind::Cam, spelling), Ok(expected), "{spelling}");
        }
        let err = parse_machine_spec(TableKind::Cam, "9x9").unwrap_err();
        for &(names, _, _) in MACHINE_SPELLINGS {
            for name in names {
                assert!(err.contains(name), "{name} missing from {err}");
            }
        }
    }
}
