//! Actor identities and source-address allocation.
//!
//! The paper identifies actors by AS (§3.3) because campaigns use many
//! source IPs. An [`ActorIdentity`] is one campaign: a name, an AS, a
//! country, and a set of source addresses. [`SrcAllocator`] hands out
//! deterministic, non-overlapping source space to the whole population.

use cw_netsim::asn::Asn;
use cw_netsim::ip::Cidr;
use std::net::Ipv4Addr;

/// One scanning campaign's network identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActorIdentity {
    /// Campaign name (diagnostics; analyses never see it).
    pub name: String,
    /// Origin autonomous system.
    pub asn: Asn,
    /// Operator country code.
    pub country: String,
    /// Source addresses the campaign scans from.
    pub ips: Vec<Ipv4Addr>,
}

impl ActorIdentity {
    /// Build an identity.
    pub fn new(name: &str, asn: Asn, country: &str, ips: Vec<Ipv4Addr>) -> Self {
        assert!(
            !ips.is_empty(),
            "actor '{name}' needs at least one source IP"
        );
        ActorIdentity {
            name: name.to_string(),
            asn,
            country: country.to_string(),
            ips,
        }
    }
}

/// Deterministic allocator of scanner source address space.
///
/// Hands out consecutive chunks of 100.64.0.0/10-style space (simulated;
/// disjoint from every vantage block by construction — vantage space lives
/// in 10/8, 20/8, 171.64/16, 198.108/16).
#[derive(Debug, Clone)]
pub struct SrcAllocator {
    next: u32,
    end: u32,
}

impl Default for SrcAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl SrcAllocator {
    /// Allocator over 100.0.0.0/8.
    pub fn new() -> Self {
        let base = Cidr::new(Ipv4Addr::new(100, 0, 0, 0), 8);
        SrcAllocator {
            next: u32::from(base.base()),
            end: u32::from(base.base()) + base.size() as u32,
        }
    }

    /// Allocate `n` consecutive source addresses.
    ///
    /// # Panics
    /// Panics when the /8 is exhausted (would indicate a runaway scenario).
    pub fn alloc(&mut self, n: usize) -> Vec<Ipv4Addr> {
        let n32 = n as u32;
        assert!(
            self.next + n32 <= self.end,
            "source address space exhausted"
        );
        let out = (0..n32).map(|i| Ipv4Addr::from(self.next + i)).collect();
        self.next += n32;
        out
    }

    /// Addresses handed out so far.
    pub fn allocated(&self) -> u32 {
        self.next - u32::from(Ipv4Addr::new(100, 0, 0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_sequential_and_disjoint() {
        let mut a = SrcAllocator::new();
        let x = a.alloc(3);
        let y = a.alloc(2);
        assert_eq!(
            x,
            vec![
                Ipv4Addr::new(100, 0, 0, 0),
                Ipv4Addr::new(100, 0, 0, 1),
                Ipv4Addr::new(100, 0, 0, 2),
            ]
        );
        assert_eq!(y[0], Ipv4Addr::new(100, 0, 0, 3));
        assert_eq!(a.allocated(), 5);
    }

    #[test]
    fn allocation_crosses_octet_boundaries() {
        let mut a = SrcAllocator::new();
        a.alloc(300);
        let v = a.alloc(1);
        assert_eq!(v[0], Ipv4Addr::new(100, 0, 1, 44));
    }

    #[test]
    #[should_panic]
    fn empty_identity_rejected() {
        ActorIdentity::new("x", Asn(1), "US", vec![]);
    }
}
