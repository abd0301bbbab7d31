//! The routed objects: forwarding entries and interface identifiers.

use std::fmt;

use taco_ipv6::{Ipv6Address, Ipv6Prefix};

/// Identifier of a router port / line card.
///
/// The paper's generic router (Fig. 1) has four line cards; nothing in the
/// framework depends on that number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub u16);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// A forwarding-table entry: prefix → (next hop, output interface), plus the
/// RIPng bookkeeping fields (metric, route tag).
///
/// # Examples
///
/// ```
/// use taco_routing::{PortId, Route};
///
/// # fn main() -> Result<(), taco_ipv6::ParseError> {
/// let r = Route::new("2001:db8::/32".parse()?, "fe80::1".parse()?, PortId(3), 2);
/// assert_eq!(r.metric(), 2);
/// assert_eq!(r.to_string(), "2001:db8::/32 via fe80::1 dev port3 metric 2");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Route {
    prefix: Ipv6Prefix,
    next_hop: Ipv6Address,
    interface: PortId,
    metric: u8,
    route_tag: u16,
}

impl Route {
    /// Creates a route with route tag 0.
    pub fn new(prefix: Ipv6Prefix, next_hop: Ipv6Address, interface: PortId, metric: u8) -> Self {
        Route { prefix, next_hop, interface, metric, route_tag: 0 }
    }

    /// Creates a directly connected route (next hop unspecified, metric 1).
    pub(crate) fn connected(prefix: Ipv6Prefix, interface: PortId) -> Self {
        Route { prefix, next_hop: Ipv6Address::UNSPECIFIED, interface, metric: 1, route_tag: 0 }
    }

    /// Returns a copy with the given route tag.
    pub(crate) fn with_route_tag(mut self, tag: u16) -> Self {
        self.route_tag = tag;
        self
    }

    /// Returns a copy with the given metric.
    pub(crate) fn with_metric(mut self, metric: u8) -> Self {
        self.metric = metric;
        self
    }

    /// The destination prefix.
    pub fn prefix(&self) -> Ipv6Prefix {
        self.prefix
    }

    /// The next-hop address ([`Ipv6Address::UNSPECIFIED`] for directly
    /// connected networks).
    pub fn next_hop(&self) -> Ipv6Address {
        self.next_hop
    }

    /// The output interface.
    pub fn interface(&self) -> PortId {
        self.interface
    }

    /// The RIPng metric (hop count).
    pub fn metric(&self) -> u8 {
        self.metric
    }

    /// The RIPng route tag.
    pub fn route_tag(&self) -> u16 {
        self.route_tag
    }

    /// Returns `true` for directly connected routes.
    pub fn is_connected(&self) -> bool {
        self.next_hop.is_unspecified()
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_connected() {
            write!(f, "{} dev {} metric {}", self.prefix, self.interface, self.metric)
        } else {
            write!(
                f,
                "{} via {} dev {} metric {}",
                self.prefix, self.next_hop, self.interface, self.metric
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Route {
        Route::new("2001:db8::/32".parse().unwrap(), "fe80::1".parse().unwrap(), PortId(1), 4)
    }

    #[test]
    fn accessors() {
        let r = sample().with_route_tag(99);
        assert_eq!(r.prefix().len(), 32);
        assert_eq!(r.metric(), 4);
        assert_eq!(r.route_tag(), 99);
        assert_eq!(r.interface(), PortId(1));
        assert!(!r.is_connected());
    }

    #[test]
    fn connected_route() {
        let c = Route::connected("2001:db8:1::/48".parse().unwrap(), PortId(0));
        assert!(c.is_connected());
        assert_eq!(c.metric(), 1);
        assert_eq!(c.to_string(), "2001:db8:1::/48 dev port0 metric 1");
    }

    #[test]
    fn with_metric_replaces() {
        assert_eq!(sample().with_metric(9).metric(), 9);
    }
}
