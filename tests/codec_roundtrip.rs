//! Every wire codec round-trips — IPv6 datagrams (with extension headers),
//! UDP, RIPng, the Internet checksum, the memory word packing and the TACO
//! assembly format (seeded; see `common/mod.rs`).

mod common;

use common::{addr, bytes, cases, datagram, index, ripng_packet};
use taco::ipv6::ripng::RipngPacket;
use taco::ipv6::udp::UdpDatagram;
use taco::ipv6::{checksum, Datagram};
use taco::isa::asm;
use taco::router::layout::{datagram_to_words, words_to_bytes};

const SEED: u64 = 0xC0DE_0001;
const CASES: u64 = 256;

#[test]
fn datagram_bytes_round_trip() {
    cases(SEED, CASES, |rng| {
        let d = datagram(rng);
        assert_eq!(Datagram::parse(&d.to_bytes()).expect("reparse"), d);
    });
}

#[test]
fn datagram_word_packing_round_trips() {
    cases(SEED, CASES, |rng| {
        let d = datagram(rng);
        let bytes = words_to_bytes(&datagram_to_words(&d), d.wire_len());
        assert_eq!(Datagram::parse(&bytes).expect("reparse"), d);
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
    cases(SEED, CASES, |rng| {
        // A small but structurally varied program: labels, parallel slots,
        // idle slots, both immediate spellings, guards of both polarities.
        let mut text = String::from("start:\n");
        for line in 0..rng.range_inclusive(1, 12) {
            let v = rng.next_u32();
            text.push_str(&match rng.below(5) {
                0 => format!("{v} -> cnt0.tset | {v} -> cnt1.stop\n"),
                1 => format!("0x{v:x} -> mask0.mask | ... \n"),
                2 => "?cnt0.done cnt0.r -> regs0.r3\n".to_owned(),
                3 => format!("l{line}: mmu0.r -> regs0.r{} | ... | {v} -> mmu0.addr\n", v % 16),
                _ => "!cnt1.zero @start -> nc0.pc\n".to_owned(),
            });
        }
        let program = asm::parse(&text).expect("generated text parses");
        let printed = asm::print(&program);
        assert_eq!(asm::parse(&printed).expect("printed text parses"), program, "{printed}");
    });
}
