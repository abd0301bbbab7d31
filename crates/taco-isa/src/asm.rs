//! A two-way textual assembly format for TACO programs.
//!
//! One line per instruction word; bus slots separated by `|`; `...` marks an
//! idle bus.  Moves are written `src -> dst`, optionally prefixed by a guard
//! (`?fu.sig` executes when the signal is high, `!fu.sig` when low).
//! Sources are immediates (`42`, `0x2a`), label references (`@loop`), or FU
//! ports (`mmu0.r`).  A line ending in `:` defines a label; `;` starts a
//! comment.
//!
//! ```text
//! ; count to three
//!         0 -> cnt0.tset  | 3 -> cnt0.stop
//! loop:   1 -> cnt0.tinc
//!         !cnt0.done @loop -> nc0.pc
//! ```
//!
//! [`parse`] and [`print()`](print()) round-trip: `parse(&print(&p))` reproduces `p`.

use std::error::Error;
use std::fmt;

use crate::fu::{FuKind, FuRef};
use crate::program::{Guard, Instruction, Move, PortRef, Program, Source};

/// Error produced when assembly text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError { line, message: message.into() }
}

/// Parses assembly text into a program (labels are *not* resolved — call
/// [`Program::resolve_labels`] before simulation).
///
/// # Errors
///
/// Returns an [`AsmError`] with the line number for syntax errors, unknown
/// FU names or ports, direction violations (reading a trigger, writing a
/// result) and duplicate labels.
pub fn parse(text: &str) -> Result<Program, AsmError> {
    let mut prog = Program::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        // Leading label? (may share a line with an instruction)
        let rest = if let Some(colon) = line.find(':') {
            let (name, rest) = line.split_at(colon);
            let name = name.trim();
            if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
                if prog.labels.insert(name.to_string(), prog.instructions.len()).is_some() {
                    return Err(err(lineno, format!("label {name:?} defined twice")));
                }
                rest[1..].trim()
            } else {
                line
            }
        } else {
            line
        };
        if rest.is_empty() {
            continue;
        }
        let slots =
            rest.split('|').map(|s| parse_slot(s.trim(), lineno)).collect::<Result<Vec<_>, _>>()?;
        prog.instructions.push(Instruction { slots });
    }
    Ok(prog)
}

fn parse_slot(s: &str, line: usize) -> Result<Option<Move>, AsmError> {
    if s == "..." || s.is_empty() {
        return Ok(None);
    }
    let mut s = s;
    let mut guard = None;
    if let Some(negate) = match s.chars().next() {
        Some('?') => Some(false),
        Some('!') => Some(true),
        _ => None,
    } {
        let (gtok, rest) = s[1..]
            .split_once(char::is_whitespace)
            .ok_or_else(|| err(line, "guard must be followed by a move"))?;
        guard = Some(parse_guard(gtok, negate, line)?);
        s = rest.trim();
    }
    let (src, dst) =
        s.split_once("->").ok_or_else(|| err(line, format!("expected `src -> dst` in {s:?}")))?;
    let src = parse_source(src.trim(), line)?;
    let dst = parse_port(dst.trim(), line)?;
    if !dst.is_writable() {
        return Err(err(line, format!("{dst} is not writable")));
    }
    Ok(Some(Move { src, dst, guard }))
}

fn parse_guard(tok: &str, negate: bool, line: usize) -> Result<Guard, AsmError> {
    let (fu, signal) =
        tok.split_once('.').ok_or_else(|| err(line, format!("guard {tok:?} must be fu.signal")))?;
    let (kind, index) = parse_fu(fu, line)?;
    let signal = kind
        .find_guard(signal)
        .ok_or_else(|| err(line, format!("{kind} drives no guard signal {signal:?}")))?;
    Ok(Guard { fu: FuRef::new(kind, index), signal, negate })
}

fn parse_source(tok: &str, line: usize) -> Result<Source, AsmError> {
    if let Some(label) = tok.strip_prefix('@') {
        if label.is_empty() {
            return Err(err(line, "empty label reference"));
        }
        return Ok(Source::Label(label.to_string()));
    }
    if let Some(hex) = tok.strip_prefix("0x") {
        return u32::from_str_radix(hex, 16)
            .map(Source::Imm)
            .map_err(|_| err(line, format!("bad hex immediate {tok:?}")));
    }
    if tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return tok
            .parse::<u32>()
            .map(Source::Imm)
            .map_err(|_| err(line, format!("bad immediate {tok:?}")));
    }
    let p = parse_port(tok, line)?;
    if !p.is_readable() {
        return Err(err(line, format!("{p} is not readable")));
    }
    Ok(Source::Port(p))
}

fn parse_port(tok: &str, line: usize) -> Result<PortRef, AsmError> {
    let (fu, port) =
        tok.split_once('.').ok_or_else(|| err(line, format!("expected fu.port, got {tok:?}")))?;
    let (kind, index) = parse_fu(fu, line)?;
    let port =
        kind.find_port(port).ok_or_else(|| err(line, format!("{kind} has no port {port:?}")))?;
    Ok(PortRef { fu: FuRef::new(kind, index), port })
}

fn parse_fu(tok: &str, line: usize) -> Result<(FuKind, u8), AsmError> {
    let digits_at = tok
        .find(|c: char| c.is_ascii_digit())
        .ok_or_else(|| err(line, format!("fu reference {tok:?} lacks an instance index")))?;
    let (prefix, idx) = tok.split_at(digits_at);
    let kind = FuKind::from_asm_prefix(prefix)
        .ok_or_else(|| err(line, format!("unknown functional unit {prefix:?}")))?;
    let index: u8 = idx.parse().map_err(|_| err(line, format!("bad fu index {idx:?}")))?;
    Ok((kind, index))
}

/// Prints a program in the format [`parse`] accepts.
///
/// This is [`Program`]'s `Display` implementation, provided as a free
/// function for symmetry with [`parse`].
pub fn print(prog: &Program) -> String {
    prog.to_string()
}

/// Disassembles a *label-resolved* program back into symbolic form: every
/// jump immediate becomes an `@L<target>` reference with a matching label
/// definition, so the output is human-readable and re-assembles to the
/// same control flow.
///
/// Jumps to exactly `instructions.len()` (the clean-halt idiom) get an
/// `L<len>` label after the last instruction.
pub fn disassemble(prog: &Program) -> String {
    use std::collections::BTreeSet;

    // Collect jump targets.
    let mut targets: BTreeSet<usize> = BTreeSet::new();
    for ins in &prog.instructions {
        for mv in ins.moves() {
            if mv.is_control_transfer() {
                if let crate::program::Source::Imm(t) = mv.src {
                    targets.insert(t as usize);
                }
            }
        }
    }

    let mut symbolic = prog.clone();
    symbolic.labels.clear();
    for &t in &targets {
        symbolic.labels.insert(format!("L{t}"), t);
    }
    for ins in &mut symbolic.instructions {
        for mv in ins.slots.iter_mut().flatten() {
            if mv.is_control_transfer() {
                if let crate::program::Source::Imm(t) = mv.src {
                    if targets.contains(&(t as usize)) {
                        mv.src = crate::program::Source::Label(format!("L{t}"));
                    }
                }
            }
        }
    }
    symbolic.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fu::FuKind;

    #[test]
    fn parse_minimal_program() {
        let prog = parse(
            "; comment only\n\
             start:\n\
             \t5 -> cnt0.stop\n\
             \tcnt0.r -> regs0.r3 | 0x1f -> mask0.mask\n\
             \t!cnt0.done @start -> nc0.pc\n",
        )
        .unwrap();
        assert_eq!(prog.instructions.len(), 3);
        assert_eq!(prog.labels["start"], 0);
        assert_eq!(prog.instructions[1].move_count(), 2);
        let guarded = prog.instructions[2].slots[0].as_ref().unwrap();
        assert!(guarded.guard.as_ref().unwrap().negate);
        assert_eq!(guarded.src, Source::Label("start".into()));
    }

    #[test]
    fn round_trip_through_print() {
        let text =
            "loop:\n  0x5 -> cnt0.stop | ... | cnt1.r -> cmp0.t\n  ?cmp0.eq @loop -> nc0.pc\n";
        let prog = parse(text).unwrap();
        let printed = print(&prog);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(prog, reparsed);
    }

    #[test]
    fn empty_slots_syntax() {
        let prog = parse("... | 1 -> cnt0.tinc | ...").unwrap();
        let ins = &prog.instructions[0];
        assert_eq!(ins.slots.len(), 3);
        assert!(ins.slots[0].is_none());
        assert!(ins.slots[1].is_some());
        assert!(ins.slots[2].is_none());
    }

    #[test]
    fn error_reports_line_numbers() {
        let e = parse("1 -> cnt0.tinc\n2 -> nosuch0.t\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("nosuch"));
    }

    #[test]
    fn direction_violations_rejected() {
        // Reading a trigger port.
        assert!(parse("cnt0.tinc -> regs0.r0").unwrap_err().message.contains("not readable"));
        // Writing a result port.
        assert!(parse("1 -> cnt0.r").unwrap_err().message.contains("not writable"));
    }

    #[test]
    fn bad_guard_rejected() {
        let e = parse("?csum0.match 1 -> cnt0.tinc").unwrap_err();
        assert!(e.message.contains("guard"));
    }

    #[test]
    fn duplicate_label_rejected() {
        let e = parse("x:\n1 -> cnt0.tinc\nx:\n").unwrap_err();
        assert!(e.message.contains("twice"));
    }

    #[test]
    fn immediates_dec_and_hex() {
        let prog = parse("42 -> cnt0.stop\n0xff -> cnt0.stop\n").unwrap();
        assert_eq!(prog.instructions[0].slots[0].as_ref().unwrap().src, Source::Imm(42));
        assert_eq!(prog.instructions[1].slots[0].as_ref().unwrap().src, Source::Imm(255));
    }

    #[test]
    fn bad_immediate_rejected() {
        assert!(parse("0xzz -> cnt0.stop").is_err());
        assert!(parse("9999999999999 -> cnt0.stop").is_err());
    }

    #[test]
    fn label_and_move_share_a_line() {
        let prog = parse("go: 1 -> cnt0.tinc").unwrap();
        assert_eq!(prog.labels["go"], 0);
        assert_eq!(prog.instructions.len(), 1);
    }

    #[test]
    fn disassemble_synthesizes_labels_and_round_trips() {
        let mut prog = parse(
            "start:\n  0 -> cnt0.tset | 5 -> cnt0.stop\nloop:\n  1 -> cnt0.tinc\n  !cnt0.done @loop -> nc0.pc\n  @end -> nc0.pc\nend:\n",
        )
        .unwrap();
        prog.resolve_labels().unwrap();
        let text = disassemble(&prog);
        assert!(text.contains("L1:"), "{text}");
        assert!(text.contains("@L1 -> nc0.pc"), "{text}");
        assert!(text.contains("L4:"), "clean-halt target labelled: {text}");
        // Round trip: same control flow after re-assembly.
        let mut again = parse(&text).unwrap();
        again.resolve_labels().unwrap();
        assert_eq!(again.instructions, prog.instructions);
    }

    #[test]
    fn disassemble_of_straight_line_code_is_plain() {
        let mut prog = parse("1 -> regs0.r0\n2 -> regs0.r1\n").unwrap();
        prog.resolve_labels().unwrap();
        let text = disassemble(&prog);
        assert!(!text.contains('@'), "{text}");
        assert!(!text.contains("L0"), "{text}");
    }

    #[test]
    fn every_fu_kind_parses() {
        for k in FuKind::ALL {
            for p in k.ports() {
                let tok = format!("{}0.{}", k.asm_prefix(), p.name);
                let parsed = parse_port(&tok, 1).unwrap();
                assert_eq!(parsed.fu.kind, k);
                assert_eq!(parsed.name(), p.name);
            }
        }
    }
}
