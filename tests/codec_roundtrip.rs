//! Every wire codec round-trips — IPv6 datagrams (with extension headers),
//! UDP, RIPng, the Internet checksum, the memory word packing and the TACO
//! assembly format (seeded; see `common/mod.rs`).  The assembly suite draws
//! its programs from the whole grammar (`common::move_seq`).

mod common;

use common::{addr, bytes, cases, datagram, index, machine, move_seq, ripng_packet};
use taco::ipv6::ripng::RipngPacket;
use taco::ipv6::udp::UdpDatagram;
use taco::ipv6::{checksum, Datagram};
use taco::isa::{asm, schedule, FuKind, FuRef, Guard, MoveSeq, PortRef, Program};
use taco::router::layout::{datagram_to_words, words_to_bytes};

const SEED: u64 = 0xC0DE_0001;
const CASES: u64 = 256;

#[test]
fn datagram_bytes_round_trip() {
    cases(SEED, CASES, |rng| {
        let frame = datagram(rng);
        let d = Datagram::parse(&frame).expect("a well-formed frame parses");
        assert_eq!(d.to_bytes(), frame);
        assert_eq!(Datagram::parse(&d.to_bytes()).expect("reparse"), d);
    });
}

#[test]
fn datagram_word_packing_round_trips() {
    cases(SEED, CASES, |rng| {
        let frame = datagram(rng);
        let d = Datagram::parse(&frame).expect("a well-formed frame parses");
        assert_eq!(words_to_bytes(&datagram_to_words(&d), d.wire_len()), frame);
    });
}

#[test]
fn udp_round_trips_and_verifies() {
    cases(SEED, CASES, |rng| {
        let (src, dst) = (addr(rng), addr(rng));
        let (sport, dport) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let sent = UdpDatagram::new(sport, dport, bytes(rng, 255), &src, &dst);
        assert_eq!(UdpDatagram::parse(&sent.to_bytes(), &src, &dst).expect("verifies"), sent);
    });
}

/// `data` followed by its own checksum sums to zero, and no single flipped
/// bit of that buffer still does.
fn assert_checksum_catches_a_flipped_bit(mut data: Vec<u8>, flip_at: usize, bit: u32) {
    if data.len() % 2 == 1 {
        data.push(0); // protocols pad to a 16-bit boundary before summing
    }
    let mut buf = data.clone();
    buf.extend_from_slice(&checksum::checksum(&data).to_be_bytes());
    assert_eq!(checksum::checksum(&buf), 0);
    let at = flip_at % buf.len();
    buf[at] ^= 1 << bit;
    assert_ne!(checksum::checksum(&buf), 0, "flipped bit {bit} of byte {at} went undetected");
}

#[test]
fn checksum_detects_single_bit_corruption() {
    cases(SEED, CASES, |rng| {
        let mut data = bytes(rng, 61);
        data.extend([0, 0]); // at least one word
        assert_checksum_catches_a_flipped_bit(data, index(rng, 64), rng.below(8) as u32);
    });
}

/// `codec_roundtrip.proptest-regressions`, the one saved case: eleven bytes,
/// an odd length, whose last byte must be summed as the high half of a
/// padded word — summed unpadded, the appended checksum lands on an odd
/// offset and the buffer no longer verifies.
#[test]
fn checksum_regression_odd_length_data_is_padded_before_summing() {
    assert_checksum_catches_a_flipped_bit(vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1], 0, 0);
}

#[test]
fn ripng_round_trips() {
    cases(SEED, CASES, |rng| {
        let packet = ripng_packet(rng);
        assert_eq!(RipngPacket::parse(&packet.to_bytes()).expect("reparse"), packet);
    });
}

#[test]
fn asm_print_parse_round_trips() {
    // Names and indices meet here and only here: every port and signal of
    // every kind goes name -> index -> name.
    for kind in FuKind::ALL {
        let fu = FuRef::new(kind, 0);
        for (i, spec) in kind.ports().iter().enumerate() {
            let port = PortRef::new(kind, 0, spec.name);
            assert_eq!((port.port, port.name()), (i as u8, spec.name), "{kind}");
            assert_eq!(port.to_string(), format!("{fu}.{}", spec.name));
        }
        for (i, name) in kind.guards().iter().enumerate() {
            let guard = Guard::new(kind, 0, name, true);
            assert_eq!((guard.signal, guard.name()), (i as u8, *name), "{kind}");
            assert_eq!(guard.to_string(), format!("!{fu}.{name}"));
        }
    }
    cases(SEED, CASES, |rng| {
        let seq = move_seq(rng);
        let machine = machine(rng);
        // One move an instruction, then packed with idle slots.
        for program in [Program::from_moves(&seq, 1), schedule(&seq, &machine)] {
            let printed = asm::print(&program);
            assert_eq!(asm::parse(&printed).expect("printed text parses"), program, "{printed}");
            // The printer writes hex; the parser reads decimal too.
            let respelled: Vec<String> = printed
                .split(' ')
                .map(|token| match token.strip_prefix("0x") {
                    Some(hex) if rng.chance(0.5) => {
                        u32::from_str_radix(hex, 16).expect("printed hex").to_string()
                    }
                    _ => token.to_owned(),
                })
                .collect();
            let respelled = respelled.join(" ");
            assert_eq!(asm::parse(&respelled).expect("decimal parses"), program, "{respelled}");
        }
        // Scheduling the text's program schedules the sequence.
        let parsed = asm::parse(&asm::print(&Program::from_moves(&seq, 1))).expect("parses");
        let reread = MoveSeq {
            moves: parsed.instructions.iter().flat_map(|ins| ins.moves().cloned()).collect(),
            labels: parsed.labels,
        };
        assert_eq!(schedule(&reread, &machine), schedule(&seq, &machine));
    });
}
