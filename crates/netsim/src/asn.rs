//! Autonomous systems: identities, categories, and a registry.
//!
//! The paper identifies scanning actors "by their autonomous system, as
//! opposed to IP address, to account for scanning campaigns that rely on
//! multiple source IP addresses" (§3.3). The registry is pre-seeded with
//! every AS the paper names, plus synthetic filler ASes generated per
//! scenario for the long tail.

use std::collections::BTreeMap;
use std::fmt;

/// An autonomous system number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Asn(pub u32);

impl fmt::Display for Asn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// Broad operator category of an AS; scanner archetypes are drawn from
/// category-appropriate source ASes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AsCategory {
    /// Public cloud provider.
    Cloud,
    /// University / research network.
    Education,
    /// Commercial ISP / telecom.
    Isp,
    /// Hosting / colocation.
    Hosting,
    /// Bulletproof-style hosting favored by malicious actors.
    Bulletproof,
    /// Security vendor / scanning company (Censys, Shodan, GreyNoise, ...).
    SecurityVendor,
    /// Mobile carrier.
    Mobile,
}

/// Static information about an autonomous system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// The AS number.
    pub asn: Asn,
    /// Human-readable operator name.
    pub name: String,
    /// ISO country code of the registered operator.
    pub country: String,
    /// Operator category.
    pub category: AsCategory,
}

/// Registry of known autonomous systems.
#[derive(Debug, Clone, Default)]
pub struct AsRegistry {
    map: BTreeMap<Asn, AsInfo>,
}

impl AsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-seeded with every AS the paper names.
    pub fn well_known() -> Self {
        let mut r = Self::new();
        let entries: &[(u32, &str, &str, AsCategory)] = &[
            // ASes named in the paper's findings.
            (4134, "Chinanet", "CN", AsCategory::Isp),
            (56046, "China Mobile", "CN", AsCategory::Mobile),
            (9808, "China Mobile Guangdong", "CN", AsCategory::Mobile),
            (174, "Cogent Communications", "US", AsCategory::Isp),
            (53667, "PonyNet (FranTech)", "US", AsCategory::Bulletproof),
            (6503, "Axtel", "MX", AsCategory::Isp),
            (5384, "Emirates Internet", "AE", AsCategory::Isp),
            (14522, "SATNET", "EC", AsCategory::Isp),
            (198605, "Avast Software", "CZ", AsCategory::SecurityVendor),
            (9009, "M247", "GB", AsCategory::Hosting),
            (60068, "CDN77", "GB", AsCategory::Hosting),
            // Frequent scanning origins used by the simulated population.
            (4837, "China Unicom", "CN", AsCategory::Isp),
            (14061, "DigitalOcean", "US", AsCategory::Hosting),
            (16276, "OVH", "FR", AsCategory::Hosting),
            (49505, "Selectel", "RU", AsCategory::Hosting),
            (45090, "Tencent Cloud", "CN", AsCategory::Cloud),
            (135377, "UCloud HK", "HK", AsCategory::Cloud),
            (212283, "ROUTERHOSTING", "RU", AsCategory::Bulletproof),
            (24961, "myLoc managed IT", "DE", AsCategory::Hosting),
            (
                262187,
                "Tsunami botnet hosting",
                "BR",
                AsCategory::Bulletproof,
            ),
            // Instruments.
            (398324, "Censys", "US", AsCategory::SecurityVendor),
            (10439, "Shodan (CariNet)", "US", AsCategory::SecurityVendor),
            (396982, "GreyNoise", "US", AsCategory::SecurityVendor),
            // Host networks for the vantage points.
            (16509, "Amazon AWS", "US", AsCategory::Cloud),
            (15169, "Google Cloud", "US", AsCategory::Cloud),
            (8075, "Microsoft Azure", "US", AsCategory::Cloud),
            (63949, "Linode", "US", AsCategory::Cloud),
            (6939, "Hurricane Electric", "US", AsCategory::Hosting),
            (32, "Stanford University", "US", AsCategory::Education),
            (237, "Merit Network", "US", AsCategory::Education),
        ];
        for &(asn, name, country, category) in entries {
            r.register(AsInfo {
                asn: Asn(asn),
                name: name.to_string(),
                country: country.to_string(),
                category,
            });
        }
        r
    }

    /// Add (or replace) an AS entry.
    pub fn register(&mut self, info: AsInfo) {
        self.map.insert(info.asn, info);
    }

    /// Look up an AS.
    pub fn get(&self, asn: Asn) -> Option<&AsInfo> {
        self.map.get(&asn)
    }

    /// Name for an AS, falling back to `ASxxxx` for unregistered numbers.
    pub fn name_of(&self, asn: Asn) -> String {
        self.get(asn)
            .map(|i| i.name.clone())
            .unwrap_or_else(|| asn.to_string())
    }

    /// Country for an AS, or `"??"`.
    pub fn country_of(&self, asn: Asn) -> String {
        self.get(asn)
            .map(|i| i.country.clone())
            .unwrap_or_else(|| "??".to_string())
    }

    /// Number of registered ASes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no AS is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate all entries in ASN order.
    pub fn iter(&self) -> impl Iterator<Item = &AsInfo> {
        self.map.values()
    }

    /// All ASes in a category, in ASN order.
    pub fn in_category(&self, cat: AsCategory) -> Vec<&AsInfo> {
        self.map.values().filter(|i| i.category == cat).collect()
    }

    /// Generate `count` synthetic filler ASes (the long tail of scanning
    /// origins) with deterministic numbering starting at `first_asn`.
    pub fn generate_filler(&mut self, first_asn: u32, count: usize, countries: &[&str]) {
        for i in 0..count {
            let asn = Asn(first_asn + i as u32);
            let country = countries[i % countries.len()].to_string();
            self.register(AsInfo {
                asn,
                name: format!("SyntheticNet-{}", asn.0),
                country,
                category: AsCategory::Isp,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_contains_paper_actors() {
        let r = AsRegistry::well_known();
        assert_eq!(r.name_of(Asn(4134)), "Chinanet");
        assert_eq!(r.country_of(Asn(4134)), "CN");
        assert_eq!(r.get(Asn(53667)).unwrap().category, AsCategory::Bulletproof);
        assert_eq!(r.name_of(Asn(398324)), "Censys");
        assert!(r.len() >= 20);
    }

    #[test]
    fn unknown_as_fallback() {
        let r = AsRegistry::well_known();
        assert_eq!(r.name_of(Asn(999_999)), "AS999999");
        assert_eq!(r.country_of(Asn(999_999)), "??");
    }

    #[test]
    fn filler_generation() {
        let mut r = AsRegistry::new();
        r.generate_filler(100_000, 50, &["US", "CN", "RU"]);
        assert_eq!(r.len(), 50);
        assert_eq!(r.country_of(Asn(100_000)), "US");
        assert_eq!(r.country_of(Asn(100_001)), "CN");
        assert_eq!(r.country_of(Asn(100_002)), "RU");
        assert_eq!(r.country_of(Asn(100_003)), "US");
    }

    #[test]
    fn category_filter() {
        let r = AsRegistry::well_known();
        let vendors = r.in_category(AsCategory::SecurityVendor);
        assert!(vendors.iter().any(|i| i.name == "Censys"));
        assert!(vendors.iter().any(|i| i.name.contains("Shodan")));
    }

    #[test]
    fn display_format() {
        assert_eq!(Asn(4134).to_string(), "AS4134");
    }
}
