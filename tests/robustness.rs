//! No parser that reads bytes from outside the process panics — every
//! malformed wire datagram, control packet, address or assembly text comes
//! back as a structured error.  A router's parsers face the open Internet;
//! "attacker-controlled bytes cause a panic" is a vulnerability class this
//! file keeps extinct.
//!
//! Every parser is fed two populations (seeded; see `common/mod.rs`):
//! uniformly random input, which mostly dies at the first length or
//! version check, and corrupted well-formed input — checksums repaired
//! where one guards the body — which reaches the code behind those checks.

mod common;

use common::{
    addr, bytes, cases, corrupted, datagram, index, machine, move_seq, pick, ripng_packet, text,
    unicode, SplitMix64,
};
use taco::ipv6::checksum::pseudo_header_checksum;
use taco::ipv6::ripng::RipngPacket;
use taco::ipv6::udp::UdpDatagram;
use taco::ipv6::{exthdr, Datagram, DatagramView, Ipv6Address, Ipv6Header, Ipv6Prefix, NextHeader};
use taco::isa::{asm, schedule};
use taco::router::layout::words_to_bytes;
use taco::router::reference::{ForwardDecision, ReferenceRouter};
use taco::router::DropReason;
use taco::routing::{PortId, Route, SequentialTable};

const SEED: u64 = 0x0B57_0001;
const CASES: u64 = 512;

/// Uniformly random bytes, or `valid` after one to three corruptions.
fn hostile(rng: &mut SplitMix64, max_len: usize, valid: Vec<u8>) -> Vec<u8> {
    if rng.chance(0.5) {
        bytes(rng, max_len)
    } else {
        corrupted(rng, valid)
    }
}

/// Half the time, rewrites the 16-bit checksum at `at` so the pseudo-header
/// sum verifies again: a corrupted body is parsed only behind a good sum.
fn repair_checksum(
    rng: &mut SplitMix64,
    buf: &mut [u8],
    at: usize,
    ends: &[Ipv6Address; 2],
    protocol: u8,
) {
    if rng.chance(0.5) && buf.len() >= at + 2 {
        buf[at..at + 2].fill(0);
        let sum = pseudo_header_checksum(&ends[0], &ends[1], protocol, buf);
        buf[at..at + 2].copy_from_slice(&sum.to_be_bytes());
    }
}

#[test]
fn datagram_parse_never_panics() {
    cases(SEED, CASES, |rng| {
        let valid = datagram(rng);
        let input = hostile(rng, 511, valid);
        if let Ok(parsed) = Datagram::parse(&input) {
            assert!(parsed.wire_len() <= input.len(), "what parsed is inside what was given");
        }
    });
}

/// An owned datagram is the bytes it was parsed from: whatever the chain's
/// padding, option types or routing type, `to_bytes` writes the input up
/// to its wire length and nothing else.
#[test]
fn a_parsed_datagram_serialises_to_the_bytes_it_was_parsed_from() {
    cases(SEED, CASES, |rng| {
        let valid = datagram(rng);
        let input = hostile(rng, 511, valid);
        if let Ok(parsed) = Datagram::parse(&input) {
            assert_eq!(parsed.to_bytes(), input[..parsed.wire_len()], "{input:?}");
            let view = DatagramView::parse(&input).expect("the owned parse is the view's");
            assert_eq!(parsed.extension_bytes(), view.extension_bytes());
        }
    });
}

#[test]
fn the_borrowing_view_and_the_owned_parse_return_the_same_result() {
    cases(SEED, CASES, |rng| {
        let valid = datagram(rng);
        let input = hostile(rng, 511, valid);
        let view = DatagramView::parse(&input);
        let owned = Datagram::parse(&input);
        assert_eq!(view.clone().map(|v| v.to_owned()), owned, "same datagram or same error");
        if let (Ok(view), Ok(owned)) = (view, owned) {
            assert_eq!(view.header(), owned.header());
            assert_eq!(view.upper_protocol(), owned.upper_protocol());
            assert_eq!(view.payload(), owned.payload());
            assert_eq!(view.wire_len(), owned.wire_len());
            let chain = view.extension_bytes();
            assert_eq!(chain.len() + view.payload().len() + Ipv6Header::LEN, view.wire_len());
            assert_eq!(
                exthdr::walk_chain(view.header().next_header, chain, |_, _| {}),
                Ok((view.upper_protocol(), chain.len())),
                "the chain is exactly what the walker accepts"
            );
        }
    });
}

#[test]
fn header_parse_never_panics() {
    cases(SEED, CASES, |rng| {
        let valid = datagram(rng)[..Ipv6Header::LEN].to_vec();
        let input = hostile(rng, 63, valid);
        let parsed = Ipv6Header::parse(&input);
        assert!(parsed.is_err() || input.len() >= Ipv6Header::LEN, "{} bytes parsed", input.len());
    });
}

/// A raw extension chain put together header by header the way a walker
/// meets them: every extension kind plus no-next-header and two upper-layer
/// protocols, in any order, each with a length byte that is honest, too
/// long for the buffer, or absurd — then sometimes cut short.
fn raw_chain(rng: &mut SplitMix64) -> (u8, Vec<u8>) {
    const KINDS: [u8; 7] = [0, 43, 44, 60, 59, 17, 58];
    let first = pick(rng, &KINDS);
    let mut out = Vec::new();
    for _ in 0..rng.below(6) {
        let units = rng.below(4) as u8;
        let declared = match rng.below(4) {
            0 => units.wrapping_add(pick(rng, &[1, 2, 127, 255])),
            _ => units,
        };
        out.extend([pick(rng, &KINDS), declared]);
        let body = out.len();
        out.resize(body + 6 + 8 * usize::from(units), 0);
        rng.fill_bytes(&mut out[body..]);
    }
    if rng.chance(0.3) {
        out.truncate(index(rng, out.len() + 1));
    }
    (first, out)
}

#[test]
fn extension_chain_parse_never_panics() {
    cases(SEED, CASES, |rng| {
        let (first, input) =
            if rng.chance(0.5) { (rng.next_u64() as u8, bytes(rng, 255)) } else { raw_chain(rng) };
        let mut headers = 0;
        let walked = exthdr::walk_chain(NextHeader::from(first), &input, |_, _| headers += 1);
        if let Ok((upper, consumed)) = walked {
            assert!(consumed <= input.len(), "walked {consumed} of {} bytes", input.len());
            assert!(!upper.is_extension(), "the walk stops only at a non-extension");
            assert!(headers * 8 <= consumed, "every extension header is at least 8 bytes");
        }
    });
}

#[test]
fn a_chain_parses_only_if_its_hop_by_hop_header_is_first() {
    cases(SEED, CASES, |rng| {
        let (first, input) = raw_chain(rng);
        let mut kinds = Vec::new();
        if exthdr::walk_chain(NextHeader::from(first), &input, |kind, _| kinds.push(kind)).is_ok() {
            let late = kinds.iter().skip(1).position(|&kind| kind == NextHeader::HopByHop);
            assert_eq!(late, None, "hop-by-hop after the first header: {kinds:?}");
        }
    });
}

#[test]
fn udp_parse_never_panics() {
    cases(SEED, CASES, |rng| {
        let ends = [addr(rng), addr(rng)];
        let ports = rng.next_u32();
        let valid = UdpDatagram::new(
            ports as u16,
            (ports >> 16) as u16,
            bytes(rng, 64),
            &ends[0],
            &ends[1],
        );
        let mut input = hostile(rng, 255, valid.to_bytes());
        repair_checksum(rng, &mut input, 6, &ends, 17);
        if let Ok(parsed) = UdpDatagram::parse(&input, &ends[0], &ends[1]) {
            assert!(parsed.data().len() + 8 <= input.len());
        }
    });
}

#[test]
fn ripng_parse_never_panics() {
    cases(SEED, CASES, |rng| {
        let valid = ripng_packet(rng).to_bytes();
        let input = hostile(rng, 511, valid);
        if let Ok(parsed) = RipngPacket::parse(&input) {
            assert_eq!(4 + 20 * parsed.entries.len(), input.len());
        }
    });
}

#[test]
fn asm_parse_never_panics() {
    cases(SEED, CASES, |rng| {
        let _ = asm::parse(&unicode(rng, 200));
    });
}

#[test]
fn asm_parse_never_panics_on_plausible_syntax() {
    // The grammar's own alphabet, or a real program after a few corruptions:
    // the hand-written `gcd.tasm`, or a scheduled sequence drawn from the
    // whole grammar as the printer writes it.
    let alphabet: Vec<char> =
        "abcdefghijklmnopqrstuvwxyz0123456789@?!.:;|> \t\n-".chars().collect();
    let gcd = include_str!("../examples/programs/gcd.tasm");
    cases(SEED, CASES, |rng| {
        let source = match rng.below(4) {
            0 | 1 => text(rng, &alphabet, 200),
            2 => String::from_utf8_lossy(&corrupted(rng, gcd.as_bytes().to_vec())).into_owned(),
            _ => {
                let printed = asm::print(&schedule(&move_seq(rng), &machine(rng)));
                String::from_utf8_lossy(&corrupted(rng, printed.into_bytes())).into_owned()
            }
        };
        if let Ok(program) = asm::parse(&source) {
            // What parses prints, and the print parses to the same program.
            assert_eq!(asm::parse(&asm::print(&program)).as_ref(), Ok(&program), "{source:?}");
        }
    });
}

#[test]
fn address_parse_never_panics() {
    let alphabet: Vec<char> = "0123456789abcdefABCDEFg:./% ".chars().collect();
    cases(SEED, CASES, |rng| {
        let input = if rng.chance(0.5) { unicode(rng, 64) } else { text(rng, &alphabet, 64) };
        let _ = input.parse::<Ipv6Address>();
        let _ = input.parse::<Ipv6Prefix>();
    });
}

#[test]
fn words_to_bytes_handles_any_length() {
    cases(SEED, CASES, |rng| {
        let words: Vec<u32> = (0..rng.below(64)).map(|_| rng.next_u32()).collect();
        let len = index(rng, 512);
        let out = words_to_bytes(&words, len);
        assert_eq!(out.len(), len.min(words.len() * 4));
    });
}

#[test]
fn malformed_traffic_never_kills_the_reference_router() {
    cases(SEED, CASES, |rng| {
        // Routes that cover half the address space, so corrupted datagrams
        // that still parse go down the forwarding and the ICMP-error paths.
        let routes = [Route::new("8000::/1".parse().unwrap(), Ipv6Address::LOOPBACK, PortId(1), 1)];
        let table = SequentialTable::from_routes(routes);
        let mut router = ReferenceRouter::new(table, vec!["fe80::1".parse().expect("valid")]);
        let valid = datagram(rng);
        let input = hostile(rng, 127, valid);
        let decision = router.process(PortId(0), input.clone());
        let malformed =
            matches!(decision, ForwardDecision::Drop { reason: DropReason::Malformed, .. });
        assert_eq!(malformed, Datagram::parse(&input).is_err(), "malformed = does not parse");
        // What is forwarded is what arrived: a different hop limit, no
        // link-layer padding, and still a datagram.
        if let ForwardDecision::Forward { frame, .. } = decision {
            assert_eq!(frame[..7], input[..7]);
            assert_eq!(frame[7], input[7] - 1);
            assert_eq!(frame[8..], input[8..frame.len()]);
            let (out, was) = (Datagram::parse(&frame), Datagram::parse(&input));
            assert_eq!(out.map(|d| d.wire_len()), was.map(|d| d.wire_len()));
        }
    });
}

/// Known deviation D6, closed: a hop-by-hop header padded to 16 bytes where
/// 8 would do is legal, and the reference router forwards it as it came.
/// While the router re-serialised what it had parsed, the padding was
/// canonicalised away under an unchanged payload length and the forwarded
/// frame no longer parsed (`LengthMismatch`).
#[test]
fn an_over_padded_options_header_is_forwarded_as_it_arrived() {
    let routes = [Route::new("8000::/1".parse().unwrap(), Ipv6Address::LOOPBACK, PortId(1), 1)];
    let table = SequentialTable::from_routes(routes);
    let mut router = ReferenceRouter::new(table, vec!["fe80::1".parse().expect("valid")]);

    let payload = [0xabu8; 12];
    let header = Ipv6Header {
        traffic_class: 0,
        flow_label: 0x1_2345,
        payload_len: 16 + payload.len() as u16,
        next_header: NextHeader::HopByHop,
        hop_limit: 9,
        src: "2001:db8::1".parse().unwrap(),
        dst: "8000::42".parse().unwrap(),
    };
    let mut arrived = header.to_bytes().to_vec();
    // next header UDP, length 1 (16 bytes), one PadN filling the other 14.
    arrived.extend([17, 1, 1, 12]);
    arrived.extend([0u8; 12]);
    arrived.extend(payload);
    let wire_len = arrived.len();
    arrived.extend([0x55u8; 6]); // link-layer padding
    let before = Datagram::parse(&arrived).expect("legal, if generous");
    assert_eq!(before.wire_len(), wire_len);
    assert_eq!(before.to_bytes(), arrived[..wire_len], "the owned copy keeps the padding too");

    let ForwardDecision::Forward { out_port, frame } = router.process(PortId(0), arrived.clone())
    else {
        panic!("routed and alive: must be forwarded");
    };
    assert_eq!(out_port, PortId(1));
    let mut expected = arrived[..wire_len].to_vec();
    expected[7] = 8;
    assert_eq!(frame, expected, "the input but for byte 7 and the trailing padding");
    let after = Datagram::parse(&frame).expect("what is forwarded re-parses");
    assert_eq!(after.header().hop_limit, 8);
    assert_eq!(
        (after.extension_bytes(), after.payload()),
        (before.extension_bytes(), before.payload())
    );
}
