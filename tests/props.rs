//! Cross-crate property-based tests: parsers never panic, statistics stay
//! in their ranges, and codec round-trips hold under arbitrary inputs.

use cloud_watching::detection::parse_rule;
use cloud_watching::detection::pcre::PcreLite;
use cloud_watching::netsim::ip::{Cidr, IpExt};
use cloud_watching::netsim::rng::SimRng;
use cloud_watching::protocols;
use cloud_watching::stats::topk::{frequency_map, Freqs};
use cloud_watching::stats::{
    bonferroni_correct, chi_squared_from_table, cramers_v, ks_two_sample, mann_whitney_u,
    top_k_union_table, Alternative, ContingencyTable, TopKSpec,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Fragments of credential strings outside the plain printable alphabet:
/// empty, line endings, spaces, tabs and multi-byte UTF-8 (`ÿ` is U+00FF,
/// not the byte 0xFF).
fn credential_pieces() -> Vec<&'static str> {
    vec![
        "",
        "root",
        "a",
        " ",
        "  ",
        "\r",
        "\n",
        "\r\n",
        "\t",
        "é",
        "пароль",
        "密码",
        "ÿ",
        "🙂",
    ]
}

proptest! {
    #[test]
    fn fingerprint_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = protocols::fingerprint(&payload);
    }

    #[test]
    fn http_parse_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = protocols::HttpRequest::parse(&payload);
        let _ = protocols::http::normalize(&payload);
    }

    #[test]
    fn http_build_parse_round_trip(
        method in prop::sample::select(vec!["GET", "POST", "HEAD", "PUT"]),
        path in "/[a-z0-9/_.-]{0,40}",
        value in "[ -~&&[^\r\n]]{0,40}",
    ) {
        let req = protocols::HttpRequest::new(method, &path).header("X-T", value.trim());
        let parsed = protocols::HttpRequest::parse(&req.to_bytes()).expect("round trip");
        prop_assert_eq!(parsed.method, method);
        prop_assert_eq!(parsed.uri, path);
    }

    #[test]
    fn rule_parser_never_panics(line in ".{0,200}") {
        let _ = parse_rule(&line);
    }

    #[test]
    fn pcre_never_panics(pattern in "/[ -~]{0,24}/", hay in proptest::collection::vec(any::<u8>(), 0..128)) {
        if let Ok(p) = PcreLite::compile(&pattern) {
            let _ = p.is_match(&hay);
        }
    }

    #[test]
    fn tls_sni_extraction_never_panics(payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = protocols::tls::extract_sni(&payload);
        let _ = protocols::tls::is_client_hello(&payload);
    }

    #[test]
    fn chi2_and_v_stay_in_range(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u64..500, 4),
            2..5,
        )
    ) {
        let cats = (0..4).map(|i| format!("c{i}")).collect();
        let table = ContingencyTable::new(cats, counts);
        if let Some(r) = chi_squared_from_table(&table) {
            prop_assert!(r.statistic >= -1e-9);
            prop_assert!((0.0..=1.0).contains(&r.p_value));
            let v = cramers_v(&r);
            prop_assert!((0.0..=1.0).contains(&v.phi));
        }
    }

    #[test]
    fn identical_rows_never_significant(row in proptest::collection::vec(1u64..300, 3)) {
        let cats = (0..3).map(|i| format!("c{i}")).collect();
        let table = ContingencyTable::new(cats, vec![row.clone(), row]);
        if let Some(r) = chi_squared_from_table(&table) {
            prop_assert!(r.statistic < 1e-6);
        }
    }

    #[test]
    fn mwu_and_ks_p_values_in_range(
        x in proptest::collection::vec(0.0f64..100.0, 1..40),
        y in proptest::collection::vec(0.0f64..100.0, 1..40),
    ) {
        let m = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        prop_assert!((0.0..=1.0).contains(&m.p_value));
        let k = ks_two_sample(&x, &y).unwrap();
        prop_assert!((0.0..=1.0).contains(&k.statistic));
        prop_assert!((0.0..=1.0).contains(&k.p_value));
    }

    #[test]
    fn mwu_direction_antisymmetry(
        x in proptest::collection::vec(0.0f64..100.0, 8..30),
        y in proptest::collection::vec(0.0f64..100.0, 8..30),
    ) {
        // x>y significant implies y>x not significant.
        let xy = mann_whitney_u(&x, &y, Alternative::Greater).unwrap();
        let yx = mann_whitney_u(&y, &x, Alternative::Greater).unwrap();
        if xy.p_value < 0.01 {
            prop_assert!(yx.p_value > 0.5);
        }
    }

    #[test]
    fn bonferroni_is_monotone_and_bounded(ps in proptest::collection::vec(0.0f64..1.0, 1..20)) {
        let adj = bonferroni_correct(&ps);
        for (p, a) in ps.iter().zip(&adj) {
            prop_assert!(*a >= *p - 1e-12);
            prop_assert!(*a <= 1.0);
        }
    }

    #[test]
    fn top_k_union_contains_each_groups_top(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u64..100, 6),
            1..4,
        )
    ) {
        let groups: Vec<Freqs> = counts
            .iter()
            .map(|row| frequency_map(row.iter().enumerate().map(|(i, &c)| (format!("k{i}"), c))))
            .collect();
        let table = top_k_union_table(&groups, TopKSpec::paper());
        for g in &groups {
            for top in cloud_watching::stats::topk::top_k_of(g, 3).into_iter().map(String::from) {
                prop_assert!(table.categories.contains(&top));
            }
        }
    }

    #[test]
    fn cidr_nth_offset_inverse(base in any::<u32>(), prefix in 8u8..=32, idx in any::<u64>()) {
        let cidr = Cidr::new(Ipv4Addr::from(base), prefix);
        let idx = idx % cidr.size();
        let ip = cidr.nth(idx);
        prop_assert_eq!(cidr.offset_of(ip), Some(idx));
        prop_assert!(cidr.contains(ip));
    }

    #[test]
    fn rng_range_respects_bounds(seed in any::<u64>(), lo in 0u64..1000, span in 1u64..1000) {
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..32 {
            let v = rng.range(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
    }

    #[test]
    fn ip_predicates_consistent(a in any::<u8>(), b in any::<u8>(), c in any::<u8>(), d in any::<u8>()) {
        let ip = Ipv4Addr::new(a, b, c, d);
        if ip.ends_in_255() {
            prop_assert!(ip.has_255_octet());
        }
        prop_assert_eq!(ip.slash16().octets()[2], 0);
        prop_assert_eq!(ip.slash24().octets()[3], 0);
    }

    #[test]
    fn cowrie_harvests_arbitrary_credentials(
        user in "[a-zA-Z0-9_.-]{1,16}",
        pass in "[ -~&&[^\r\n]]{1,24}",
        wide_user in prop::collection::vec(prop::sample::select(credential_pieces()), 0..5),
        wide_pass in prop::collection::vec(prop::sample::select(credential_pieces()), 0..5),
    ) {
        use cloud_watching::honeypot::cowrie::{client_script, harvest, Session};
        use cloud_watching::netsim::flow::LoginService;
        let pass = pass.trim();
        prop_assume!(!pass.is_empty() && !pass.contains('\u{ff}'));
        let (wide_user, wide_pass) = (wide_user.concat(), wide_pass.concat());
        for service in [LoginService::Ssh, LoginService::Telnet] {
            let c = harvest(service, &user, pass).expect("harvest");
            prop_assert_eq!(&c.username, &user);
            prop_assert_eq!(&c.password, pass);
            // Any credential, even an empty one, one with CR/LF or spaces,
            // or non-ASCII: the per-flow harvest matches the reference
            // dialogue, the session fed the whole client script.
            for (u, p) in [(user.as_str(), pass), (&wide_user, &wide_pass)] {
                let mut session = Session::new(service);
                for msg in client_script(service, u, p) {
                    session.feed(&msg);
                }
                prop_assert_eq!(harvest(service, u, p), session.harvested().cloned());
            }
        }
    }
}
