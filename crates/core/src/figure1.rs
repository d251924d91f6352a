//! Figure 1: address-structure preferences inside the telescope.
//!
//! "To suppress inconsistent outliers, we compute a rolling average of the
//! # of scanning IPs across every consecutive 512 IPs." The four panels:
//! (a) port 22 — spikes at /16 first addresses; (b) port 445 and (c) port
//! 80 — dips at addresses with a 255 octet; (d) port 17128 — a four-address
//! latch.

use cw_honeypot::telescope::Telescope;
use cw_netsim::ip::IpExt;
use std::net::Ipv4Addr;

/// The paper's rolling window.
pub const WINDOW: usize = 512;

/// Rolling average over consecutive windows of `window` values (trailing;
/// the first `window-1` positions average the prefix).
pub fn rolling_average(counts: &[u32], window: usize) -> Vec<f64> {
    assert!(window > 0);
    let mut out = Vec::with_capacity(counts.len());
    let mut sum = 0u64;
    for i in 0..counts.len() {
        sum += counts[i] as u64;
        if i >= window {
            sum -= counts[i - window] as u64;
        }
        let n = (i + 1).min(window);
        out.push(sum as f64 / n as f64);
    }
    out
}

/// One Figure 1 panel.
#[derive(Debug, Clone)]
pub struct Figure1Series {
    /// The port.
    pub port: u16,
    /// Per-IP unique-scanner counts (block offset order).
    pub counts: Vec<u32>,
    /// Rolling-512 average.
    pub rolling: Vec<f64>,
}

/// Extract the series for a tracked port.
pub fn series(telescope: &Telescope, port: u16) -> Option<Figure1Series> {
    let counts = telescope.unique_scanners_per_ip(port)?.to_vec();
    let rolling = rolling_average(&counts, WINDOW);
    Some(Figure1Series {
        port,
        counts,
        rolling,
    })
}

/// Structure statistics quantifying the §4.2 claims.
#[derive(Debug, Clone, Copy)]
pub struct StructureStats {
    /// Mean unique scanners on addresses matching the predicate.
    pub mean_matching: f64,
    /// Mean on the rest.
    pub mean_rest: f64,
    /// `mean_rest / mean_matching` — the "N× less likely" factor.
    pub avoidance_factor: f64,
}

/// Compare per-IP means between addresses matching `pred` and the rest.
pub fn structure_stats<F: Fn(Ipv4Addr) -> bool>(
    telescope: &Telescope,
    port: u16,
    pred: F,
) -> Option<StructureStats> {
    let counts = telescope.unique_scanners_per_ip(port)?;
    let block = telescope.block();
    let mut m_sum = 0u64;
    let mut m_n = 0u64;
    let mut r_sum = 0u64;
    let mut r_n = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        let ip = block.nth(i as u64);
        if pred(ip) {
            m_sum += c as u64;
            m_n += 1;
        } else {
            r_sum += c as u64;
            r_n += 1;
        }
    }
    if m_n == 0 || r_n == 0 {
        return None;
    }
    let mean_matching = m_sum as f64 / m_n as f64;
    let mean_rest = r_sum as f64 / r_n as f64;
    Some(StructureStats {
        mean_matching,
        mean_rest,
        avoidance_factor: if mean_matching > 0.0 {
            mean_rest / mean_matching
        } else {
            f64::INFINITY
        },
    })
}

/// The §4.2 "first address of a /16" preference factor for a port:
/// mean(unique scanners at x.y.0.0) / mean(elsewhere).
pub fn slash16_first_preference(telescope: &Telescope, port: u16) -> Option<f64> {
    let s = structure_stats(telescope, port, |ip| ip.is_first_of_slash16())?;
    if s.mean_rest == 0.0 {
        return None;
    }
    Some(s.mean_matching / s.mean_rest)
}

/// Render a series as a fixed-width ASCII sparkline (for terminal output
/// and EXPERIMENTS.md). Downsamples by averaging into `width` buckets.
pub fn ascii_sparkline(series: &[f64], width: usize) -> String {
    if series.is_empty() || width == 0 {
        return String::new();
    }
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let bucket = (series.len() as f64 / width as f64).max(1.0);
    let mut values = Vec::with_capacity(width);
    for w in 0..width {
        let lo = (w as f64 * bucket) as usize;
        let hi = (((w + 1) as f64 * bucket) as usize).min(series.len());
        if lo >= hi {
            break;
        }
        let mean: f64 = series[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
        values.push(mean);
    }
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(values.len());
    }
    values
        .iter()
        .map(|&v| LEVELS[((v / max * 7.0).round() as usize).min(7)])
        .collect()
}

/// Write a series as CSV (`offset,ip,count,rolling`), byte-identical to
/// formatting every row with `"{},{},{},{:.4}"`.
///
/// Offset, address octets and count are written by hand into one reused
/// buffer. `rolling` is printed from the window's integer sum as
/// `sum·10⁴/n` rounded to nearest. Unless that quotient is an exact
/// decimal tie, it lies at least `1/(2n)` of a last-digit unit from a
/// rounding boundary, far beyond the error of the f64 `sum/n`, so `{:.4}`
/// of the f64 rounds the same way. Ties fall back to `{:.4}`, as does any
/// row whose `rolling` is not the trailing [`WINDOW`] average of `counts`.
pub fn write_csv<W: std::io::Write>(
    telescope: &Telescope,
    s: &Figure1Series,
    mut w: W,
) -> std::io::Result<()> {
    const FLUSH: usize = 1 << 16;
    let block = telescope.block();
    let mut buf: Vec<u8> = Vec::with_capacity(FLUSH + 64);
    buf.extend_from_slice(b"offset,ip,count,rolling\n");
    let mut sum = 0u64;
    for (i, (&c, &r)) in s.counts.iter().zip(&s.rolling).enumerate() {
        sum += c as u64;
        if i >= WINDOW {
            sum -= s.counts[i - WINDOW] as u64;
        }
        push_uint(&mut buf, i as u64);
        for (k, octet) in block.nth(i as u64).octets().into_iter().enumerate() {
            buf.push(if k == 0 { b',' } else { b'.' });
            push_uint(&mut buf, octet.into());
        }
        buf.push(b',');
        push_uint(&mut buf, c.into());
        buf.push(b',');
        push_rolling(&mut buf, sum, (i + 1).min(WINDOW) as u64, r);
        buf.push(b'\n');
        if buf.len() >= FLUSH {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    w.flush()
}

/// Append `v` in decimal.
fn push_uint(buf: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Append `rolling` (the f64 `sum / n`) as `{:.4}` would print it.
fn push_rolling(buf: &mut Vec<u8>, sum: u64, n: u64, rolling: f64) {
    use std::io::Write;
    // Below 2^32 the f64 quotient's relative error (2^-53) stays under the
    // 1/(2n·10⁴) gap to any non-tie rounding boundary.
    let exact = sum < 1 << 32 && sum as f64 / n as f64 == rolling;
    let (q, rem) = (sum * 10_000 / n, sum * 10_000 % n);
    if !exact || 2 * rem == n {
        write!(buf, "{rolling:.4}").expect("writing to a Vec cannot fail");
        return;
    }
    let q = q + u64::from(2 * rem > n);
    push_uint(buf, q / 10_000);
    let frac = q % 10_000;
    buf.extend_from_slice(&[
        b'.',
        b'0' + (frac / 1000) as u8,
        b'0' + (frac / 100 % 10) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, ScenarioConfig};
    use cw_netsim::ip::Cidr;
    use cw_netsim::topology::AddressBlock;
    use cw_scanners::population::ScenarioYear;
    use std::collections::BTreeSet;
    use std::io::Write;

    /// The float-formatting writer `write_csv` replaced, kept as its byte
    /// reference.
    fn reference_csv(telescope: &Telescope, s: &Figure1Series) -> Vec<u8> {
        let mut w = Vec::new();
        writeln!(w, "offset,ip,count,rolling").unwrap();
        let block = telescope.block();
        for (i, (&c, &r)) in s.counts.iter().zip(&s.rolling).enumerate() {
            writeln!(w, "{},{},{},{:.4}", i, block.nth(i as u64), c, r).unwrap();
        }
        w
    }

    fn assert_csv_matches_reference(telescope: &Telescope, s: &Figure1Series) {
        let mut got = Vec::new();
        write_csv(telescope, s, &mut got).unwrap();
        let want = reference_csv(telescope, s);
        if got != want {
            let first = got.iter().zip(&want).position(|(a, b)| a != b);
            let at = first.unwrap_or(got.len().min(want.len()));
            let line = want[..at].iter().filter(|&&b| b == b'\n').count();
            panic!(
                "port {} CSV differs from the reference at line {line}",
                s.port
            );
        }
    }

    fn synthetic(counts: Vec<u32>) -> Figure1Series {
        let rolling = rolling_average(&counts, WINDOW);
        Figure1Series {
            port: 0,
            counts,
            rolling,
        }
    }

    #[test]
    fn csv_bytes_match_the_float_formatting_reference() {
        // Two /22s, so offsets cross a CIDR boundary.
        let block = AddressBlock::new(
            "synthetic",
            vec![
                Cidr::new(Ipv4Addr::new(10, 0, 0, 0), 22),
                Cidr::new(Ipv4Addr::new(192, 168, 252, 0), 22),
            ],
        );
        let tel = Telescope::new("synthetic", block, &[]);
        // Series k puts k scanners on the first address and none on the
        // next 511, so the window over the first n addresses sums to k for
        // every n = 1..=512. Over k = 0..512 the sum covers every residue
        // mod n, so sum·10⁴ mod n takes every value it can, exact ties
        // included.
        let mut seen: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); WINDOW + 1];
        let mut ties = 0;
        for k in 0..WINDOW as u64 {
            let mut counts = vec![0u32; WINDOW];
            counts[0] = k as u32;
            assert_csv_matches_reference(&tel, &synthetic(counts));
            for n in 1..=WINDOW as u64 {
                let rem = k * 10_000 % n;
                ties += usize::from(2 * rem == n);
                seen[n as usize].insert(rem);
            }
        }
        for n in 1..=WINDOW as u64 {
            let reachable: BTreeSet<u64> = (0..n).map(|s| s * 10_000 % n).collect();
            assert_eq!(seen[n as usize], reachable, "n = {n}");
        }
        assert!(ties > 0, "the sweep must include exact decimal ties");
        // A full-length series: the trailing window slides, and the first
        // eight counts span the u32 range, where the f64 quotient is too
        // coarse for the integer path.
        let mut x = 0x9E37_79B9u32;
        let counts: Vec<u32> = (0..tel.block().size())
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                if i < 8 {
                    x
                } else {
                    x % 97
                }
            })
            .collect();
        assert_csv_matches_reference(&tel, &synthetic(counts));

        // The fast scenario's four panels.
        let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(17));
        let tel = s.telescope.borrow();
        for port in [22, 445, 80, 17_128] {
            assert_csv_matches_reference(&tel, &series(&tel, port).unwrap());
        }
    }

    #[test]
    fn rolling_average_basics() {
        let r = rolling_average(&[4, 0, 0, 0], 2);
        assert_eq!(r, vec![4.0, 2.0, 0.0, 0.0]);
        let r = rolling_average(&[1, 1, 1], 5);
        assert_eq!(r, vec![1.0, 1.0, 1.0]);
        assert!(rolling_average(&[], 3).is_empty());
    }

    #[test]
    fn sparkline_shapes() {
        let flat = ascii_sparkline(&[0.0; 100], 10);
        assert_eq!(flat, "▁".repeat(10));
        let spike = ascii_sparkline(&[0.0, 0.0, 10.0, 0.0], 4);
        assert!(spike.contains('█'));
    }

    #[test]
    fn figure1_shapes_on_fast_scenario() {
        let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(17));
        let tel = s.telescope.borrow();

        // (a) port 22: /16-first addresses strongly preferred.
        let pref = slash16_first_preference(&tel, 22).unwrap();
        assert!(pref > 3.0, "slash16-first preference only {pref:.1}x");

        // (b) port 445: 255-octet addresses avoided.
        let stats = structure_stats(&tel, 445, |ip| ip.has_255_octet()).unwrap();
        assert!(
            stats.avoidance_factor > 2.0,
            "445 avoidance only {:.2}x",
            stats.avoidance_factor
        );

        // (d) port 17128: four latched addresses dominate.
        let fig = series(&tel, 17_128).unwrap();
        let mut sorted = fig.counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top4: u64 = sorted.iter().take(4).map(|&c| c as u64).sum();
        let total: u64 = fig.counts.iter().map(|&c| c as u64).sum();
        assert!(
            top4 as f64 > 0.9 * total as f64,
            "latch: top4 {top4} of {total}"
        );
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let s = Scenario::run(ScenarioConfig::fast(ScenarioYear::Y2021).with_seed(17));
        let tel = s.telescope.borrow();
        let fig = series(&tel, 80).unwrap();
        let mut out = Vec::new();
        write_csv(&tel, &fig, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("offset,ip,count,rolling"));
        assert_eq!(text.lines().count(), 1 + fig.counts.len());
    }
}
