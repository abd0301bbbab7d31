//! Line-card models.
//!
//! "Each network card contains a set of independent input and output
//! registers that can be read and written by the processor.  The line cards
//! deal with implementing the protocol and its specific tasks, provide
//! fully assembled decapsulated IPv6 datagrams to the processor, take care
//! of fragmentation and encapsulation of outgoing datagrams, and also
//! resolve ARP/RARP requests."
//!
//! The paper treats line cards as commercial black boxes (Intel IFX18103,
//! Cisco GigE); [`LineCard`] models exactly the visible behaviour: an input
//! queue of complete datagrams and an output buffer, with an MTU check on
//! ingress.  Both hold wire frames — the bytes as they crossed the link —
//! and nothing else: the card never parses, so whatever is wrong with a
//! frame beyond its length is the forwarding core's to detect, and a frame
//! the core forwards is the buffer that arrived.

use std::collections::VecDeque;

use taco_ipv6::Datagram;
use taco_routing::PortId;

/// Every card's MTU in bytes: Ethernet's.
pub(crate) const MTU: usize = 1500;

/// One line card: a router port with input and output buffers.
#[derive(Debug, Clone)]
pub struct LineCard {
    port: PortId,
    capacity: usize,
    link_up: bool,
    input: VecDeque<Vec<u8>>,
    output: Vec<Vec<u8>>,
    dropped_overflow: u64,
    dropped_link_down: u64,
    polled: u64,
}

impl Default for LineCard {
    fn default() -> Self {
        LineCard {
            port: PortId::default(),
            capacity: usize::MAX,
            link_up: true,
            input: VecDeque::new(),
            output: Vec::new(),
            dropped_overflow: 0,
            dropped_link_down: 0,
            polled: 0,
        }
    }
}

impl LineCard {
    /// Creates a line card for `port` with the Ethernet MTU and an
    /// unbounded input buffer.
    pub(crate) fn new(port: PortId) -> Self {
        LineCard { port, ..LineCard::default() }
    }

    /// Bounds the input buffer to `capacity` datagrams; arrivals beyond it
    /// are tail-dropped (counted by [`LineCard::dropped_overflow`]).  Real
    /// cards have finite ingress FIFOs — this is what makes overload
    /// scenarios measure drops instead of growing an infinite queue.
    /// Already-queued datagrams are kept even if they exceed the new bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
    }

    /// The port this card serves.
    pub(crate) fn port(&self) -> PortId {
        self.port
    }

    /// `datagram` arrives from the wire: [`LineCard::receive_raw`] of its
    /// wire image.
    pub fn receive(&mut self, datagram: &Datagram) -> bool {
        self.receive_raw(datagram.to_bytes())
    }

    /// A frame arrives from the wire — possibly truncated or otherwise
    /// malformed.  The card only enforces physical-layer limits: oversize
    /// frames are dropped (the real card would never have reassembled
    /// them), as are arrivals to a full input buffer or a card whose link
    /// is down; anything deeper is the forwarding core's to detect and
    /// drop gracefully.  Returns `true` if the frame was queued.
    pub fn receive_raw(&mut self, bytes: Vec<u8>) -> bool {
        if !self.link_up {
            self.dropped_link_down += 1;
            return false;
        }
        if bytes.len() > MTU {
            return false;
        }
        if self.input.len() >= self.capacity {
            self.dropped_overflow += 1;
            return false;
        }
        self.input.push_back(bytes);
        true
    }

    /// The processor polls the input buffer (the iPPU's scan).
    pub(crate) fn poll_input(&mut self) -> Option<Vec<u8>> {
        let d = self.input.pop_front();
        if d.is_some() {
            self.polled += 1;
        }
        d
    }

    /// Sets the carrier state; a down link refuses every arrival (counted
    /// by [`LineCard::dropped_link_down`]) until it comes back up.
    pub fn set_link_up(&mut self, up: bool) {
        self.link_up = up;
    }

    /// Frames refused while the link was down.
    pub fn dropped_link_down(&self) -> u64 {
        self.dropped_link_down
    }

    /// Number of datagrams waiting in the input buffer.
    pub fn pending(&self) -> usize {
        self.input.len()
    }

    /// The processor writes a finished frame to the output buffer (the
    /// oPPU's drain).
    pub(crate) fn transmit(&mut self, frame: Vec<u8>) {
        self.output.push(frame);
    }

    /// Frames the card has put on the wire so far.
    pub fn transmitted(&self) -> &[Vec<u8>] {
        &self.output
    }

    /// Removes and returns everything transmitted so far.
    pub fn drain_transmitted(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.output)
    }

    /// Discards everything transmitted so far and keeps the buffer, for a
    /// caller that does not read the output (a scenario tick): the next
    /// tick's transmissions reuse the allocation instead of regrowing it.
    pub fn clear_transmitted(&mut self) {
        self.output.clear();
    }

    /// Datagrams tail-dropped because the input buffer was full.
    pub fn dropped_overflow(&self) -> u64 {
        self.dropped_overflow
    }

    /// Total datagrams the processor has polled from this card — a
    /// monotonic service counter scenario engines use to pair departures
    /// with recorded arrival times.
    pub fn polled(&self) -> u64 {
        self.polled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ipv6::NextHeader;

    fn dgram(payload: usize) -> Datagram {
        Datagram::builder("2001:db8::1".parse().unwrap(), "2001:db8::2".parse().unwrap())
            .payload(NextHeader::Udp, vec![0u8; payload])
            .build()
    }

    #[test]
    fn fifo_input_order() {
        let mut lc = LineCard::new(PortId(0));
        let a = dgram(1);
        let b = dgram(2);
        lc.receive(&a);
        lc.receive(&b);
        assert_eq!(lc.pending(), 2);
        assert_eq!(lc.poll_input(), Some(a.to_bytes()));
        assert_eq!(lc.poll_input(), Some(b.to_bytes()));
        assert_eq!(lc.poll_input(), None);
    }

    #[test]
    fn raw_frames_pass_the_card_untouched() {
        let mut lc = LineCard::new(PortId(0));
        let garbage = vec![0xde, 0xad, 0xbe, 0xef];
        assert!(lc.receive_raw(garbage.clone()));
        assert_eq!(lc.poll_input(), Some(garbage));
        // The MTU check still applies to raw bytes.
        assert!(!lc.receive_raw(vec![0u8; MTU + 1]));
        assert_eq!(lc.pending(), 0);
    }

    #[test]
    fn down_link_refuses_all_input() {
        let mut lc = LineCard::new(PortId(0));
        lc.set_link_up(false);
        assert!(!lc.receive(&dgram(1)));
        assert!(!lc.receive_raw(vec![1, 2, 3]));
        assert_eq!(lc.dropped_link_down(), 2);
        assert_eq!(lc.pending(), 0);
        lc.set_link_up(true);
        assert!(lc.receive(&dgram(1)));
        assert_eq!(lc.dropped_link_down(), 2);
    }

    #[test]
    fn oversize_dropped() {
        let mut lc = LineCard::new(PortId(1));
        assert!(!lc.receive(&dgram(MTU)));
        assert!(lc.receive(&dgram(10)));
        assert_eq!(lc.pending(), 1);
    }

    #[test]
    fn transmit_accumulates_and_drains() {
        let mut lc = LineCard::new(PortId(2));
        lc.transmit(dgram(1).to_bytes());
        lc.transmit(dgram(2).to_bytes());
        assert_eq!(lc.transmitted().len(), 2);
        let all = lc.drain_transmitted();
        assert_eq!(all.len(), 2);
        assert!(lc.transmitted().is_empty());
        lc.transmit(dgram(3).to_bytes());
        lc.clear_transmitted();
        assert!(lc.transmitted().is_empty());
    }

    #[test]
    fn accessors() {
        let lc = LineCard::new(PortId(3));
        assert_eq!(lc.port(), PortId(3));
    }

    #[test]
    fn bounded_buffer_tail_drops() {
        let mut lc = LineCard::new(PortId(4));
        lc.set_capacity(2);
        assert!(lc.receive(&dgram(1)));
        assert!(lc.receive(&dgram(2)));
        assert!(!lc.receive(&dgram(3)));
        assert_eq!(lc.dropped_overflow(), 2 - 1); // one drop so far
        assert!(!lc.receive(&dgram(4)));
        assert_eq!(lc.dropped_overflow(), 2);
        // Draining frees the slot again.
        assert!(lc.poll_input().is_some());
        assert_eq!(lc.polled(), 1);
        assert!(lc.receive(&dgram(5)));
    }
}
