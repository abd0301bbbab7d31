#![warn(missing_docs)]

//! The IPv6 router application on the TACO protocol processor.
//!
//! This crate assembles the substrates into the system the paper evaluates:
//!
//! * [`layout`] — the data-memory map (whole datagrams in main memory,
//!   routing-table images for the scan, tree and PATRICIA engines);
//! * [`microcode`] — generated TTA move programs for the forwarding fast
//!   path, one per routing-table organisation, written against *virtual*
//!   FU instances so the same code exploits whatever buses and FUs an
//!   architecture instance provides;
//! * [`cycle`] — [`CycleRouter`]: microcode + simulator + table image,
//!   the measured object behind every Table 1 cell;
//! * [`reference`](mod@reference) — the behavioural router used as a functional oracle
//!   and as the slow path (ICMPv6 errors, local delivery);
//! * [`router`] — the full Fig. 1 system: line cards, forwarding core and
//!   the RIPng control plane keeping the table fresh;
//! * [`traffic`] — reproducible synthetic workloads.
//!
//! # Examples
//!
//! Forward one datagram through the cycle-accurate CAM router:
//!
//! ```
//! use taco_isa::MachineConfig;
//! use taco_router::cycle::CycleRouter;
//! use taco_router::microcode::MicrocodeOptions;
//! use taco_routing::{PortId, Route, TableKind};
//! use taco_ipv6::{Datagram, NextHeader};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let routes = [Route::new("2001:db8::/32".parse()?, "fe80::1".parse()?, PortId(2), 1)];
//! let mut router = CycleRouter::for_kind(
//!     TableKind::Cam, &MachineConfig::three_bus_one_fu(), &routes, 2, &MicrocodeOptions::default())?;
//! let d = Datagram::builder("2001:db8:9::1".parse()?, "2001:db8::42".parse()?)
//!     .hop_limit(64)
//!     .payload(NextHeader::Udp, vec![0u8; 16])
//!     .build();
//! router.enqueue(PortId(0), &d)?;
//! let stats = router.run(100_000)?;
//! assert_eq!(router.forwarded()[0].0, PortId(2));
//! println!("forwarding took {} cycles", stats.cycles);
//! # Ok(())
//! # }
//! ```

pub mod cycle;
pub mod layout;
pub mod linecard;
pub mod microcode;
pub mod reference;
pub mod rng;
pub mod router;
pub mod traffic;

pub use cycle::{CamBackend, CycleRouter};
pub use linecard::LineCard;
pub use microcode::MicrocodeOptions;
pub use reference::{DropReason, ForwardDecision, ForwardingStats, ReferenceRouter};
pub use rng::SplitMix64;
pub use router::{Router, TickReport};
pub use traffic::{ripng_datagram, TrafficGen};
