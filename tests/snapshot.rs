//! Snapshot decoding against a real sealed snapshot (one scale-0.01
//! world, simulated once per test binary).
//!
//! - Lossless: decoding the payload and encoding the result again gives
//!   back the same bytes, which pins the bulk column reads and the v2
//!   wire format together.
//! - Corruption: a flipped bit or a truncation at any section boundary
//!   never loads, and a load through the cache quarantines the file and
//!   re-simulates the same world; flipped bits in a bare payload handed
//!   straight to the decoder give `Ok` or `Err`, never a panic.
//! - Streaming: `load_from` reads the file as a stream and decodes before
//!   the digest is checked, so damaged payloads sealed afresh (a valid
//!   trailer) must load exactly as the in-memory decode of the same
//!   bytes, or fail, and never panic.
//!
//! Random bits are drawn region by region (pick a section, then a bit
//! inside it), so the small count and header fields are hit as often as
//! the megabyte-sized columns.

use cloud_watching::core::bundle::SimBundle;
use cloud_watching::core::scenario::ScenarioConfig;
use cloud_watching::core::snapshot::{load_from, load_or_run_in, snapshot_path_in, store_in};
use cloud_watching::detection::ReputationDb;
use cloud_watching::honeypot::capture::EventTable;
use cloud_watching::honeypot::deployment::Deployment;
use cloud_watching::honeypot::telescope::Telescope;
use cloud_watching::netsim::fault::FaultPlan;
use cloud_watching::netsim::intern::Interner;
use cloud_watching::netsim::snap::{self, SnapReader, SnapWriter, MAGIC};
use cloud_watching::scanners::population::ScenarioYear;
use proptest::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Container bytes before the payload: magic, format version, length.
const HEADER: usize = MAGIC.len() + 4 + 8;

fn config() -> ScenarioConfig {
    ScenarioConfig::fast(ScenarioYear::Y2021)
        .with_seed(0x5A4F)
        .with_scale(0.01)
}

/// The sealed snapshot of [`config`], as `store_in` writes it.
fn sealed() -> &'static [u8] {
    static SEALED: OnceLock<Vec<u8>> = OnceLock::new();
    SEALED.get_or_init(|| {
        let dir = private_dir("sealed");
        let path = store_in(&dir, &SimBundle::run(config())).expect("snapshot write");
        let bytes = std::fs::read(path).expect("snapshot read back");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// The payload inside [`sealed`] (`decode_then_encode_is_byte_identical`
/// checks that `unseal` returns exactly this slice).
fn payload() -> &'static [u8] {
    let sealed = sealed();
    &sealed[HEADER..sealed.len() - 32]
}

fn encode(bundle: &SimBundle) -> Vec<u8> {
    let mut w = SnapWriter::new();
    bundle.snap_write(&mut w);
    w.into_bytes()
}

/// A private, empty directory (tests of one binary run in parallel).
fn private_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cw-snapfuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("private test dir");
    dir
}

/// Write `bytes` at [`config`]'s cache address inside `dir`.
fn plant(dir: &Path, bytes: &[u8]) -> PathBuf {
    let path = snapshot_path_in(dir, &config());
    std::fs::write(&path, bytes).expect("plant snapshot");
    path
}

fn loads(dir: &Path) -> bool {
    load_from(dir, &config()).is_some()
}

/// Payload offsets at which each section ends, walking the layout
/// `SimBundle::snap_write` emits: config, fault plan, run stats and index
/// counts, reputation, telescope, interner, the event table's row count
/// and six columns, then the verdict and fingerprint columns (each a
/// count and one byte per row). The last entry is the payload length.
fn section_ends() -> &'static [usize] {
    static ENDS: OnceLock<Vec<usize>> = OnceLock::new();
    ENDS.get_or_init(|| {
        let payload = payload();
        let mut r = SnapReader::new(payload);
        let at = |r: &SnapReader| payload.len() - r.remaining();
        let mut ends = Vec::new();
        r.get_u8().unwrap();
        for _ in 0..3 {
            r.get_u64().unwrap();
        }
        ends.push(at(&r));
        FaultPlan::snap_read(&mut r).unwrap();
        ends.push(at(&r));
        for _ in 0..7 {
            r.get_u64().unwrap();
        }
        ends.push(at(&r));
        ReputationDb::snap_read(&mut r).unwrap();
        ends.push(at(&r));
        Telescope::snap_read(&mut r).unwrap();
        ends.push(at(&r));
        let interner = Interner::snap_read(&mut r).unwrap();
        let table_start = at(&r);
        ends.push(table_start);
        let rows = EventTable::snap_read(&mut r, &interner).unwrap().len();
        assert!(rows > 0, "the test world has events");
        let mut end = table_start + 8;
        ends.push(end);
        for width in [8, 4, 4, 4, 2] {
            end += width * rows;
            ends.push(end);
        }
        ends.push(at(&r));
        for _ in 0..2 {
            ends.push(at(&r) + 8);
            ends.push(at(&r) + 8 + rows);
            assert_eq!(r.get_count().unwrap(), rows);
            assert_eq!(r.column(rows, |[tag]: [u8; 1]| tag).unwrap().len(), rows);
        }
        assert!(r.is_exhausted(), "the walk covers the whole payload");
        ends
    })
}

/// Byte ranges of the payload's sections.
fn payload_regions() -> Vec<Range<usize>> {
    let ends = section_ends();
    std::iter::once(0)
        .chain(ends.iter().copied())
        .zip(ends.iter().copied())
        .map(|(start, end)| start..end)
        .collect()
}

/// Byte ranges of the sealed container: its three header fields, the
/// payload sections, and the digest trailer.
fn container_regions() -> Vec<Range<usize>> {
    let mut regions = vec![
        0..MAGIC.len(),
        MAGIC.len()..MAGIC.len() + 4,
        MAGIC.len() + 4..HEADER,
    ];
    regions.extend(
        payload_regions()
            .into_iter()
            .map(|r| HEADER + r.start..HEADER + r.end),
    );
    regions.push(sealed().len() - 32..sealed().len());
    regions
}

/// Flip one bit chosen by `pick`: its remainder modulo the region count
/// picks the region, its quotient (modulo the region's bits) the bit.
fn flip(bytes: &mut [u8], regions: &[Range<usize>], pick: u64) {
    let n = regions.len() as u64;
    let r = &regions[(pick % n) as usize];
    let bit = (pick / n) % (r.len() as u64 * 8);
    bytes[r.start + (bit / 8) as usize] ^= 1 << (bit % 8);
}

#[test]
fn decode_then_encode_is_byte_identical() {
    let payload = payload();
    assert_eq!(snap::unseal(sealed()), Ok(payload));
    let mut r = SnapReader::new(payload);
    let bundle = SimBundle::snap_read(&mut r, Deployment::standard()).expect("decode");
    assert!(r.is_exhausted());
    assert!(bundle.matches(&config()));
    assert!(!bundle.dataset.is_empty());
    let again = encode(&bundle);
    assert!(again == payload, "re-encoded payload differs");
    assert!(
        snap::seal(&again) == sealed(),
        "re-sealed container differs"
    );
}

/// The bundle `SimBundle::snap_read` decodes from `payload` in memory,
/// re-encoded, if it decodes whole and is [`config`]'s world: what a load
/// of `payload` sealed must give.
fn decoded_in_memory(payload: &[u8]) -> Option<Vec<u8>> {
    let mut r = SnapReader::new(payload);
    let bundle = SimBundle::snap_read(&mut r, Deployment::standard()).ok()?;
    (r.is_exhausted() && bundle.matches(&config())).then(|| encode(&bundle))
}

/// The bundle `load_from` streams out of `sealed` planted in a private
/// directory, re-encoded.
fn loaded(tag: &str, sealed: &[u8]) -> Option<Vec<u8>> {
    let dir = private_dir(tag);
    plant(&dir, sealed);
    let bundle = load_from(&dir, &config());
    let _ = std::fs::remove_dir_all(&dir);
    bundle.as_ref().map(encode)
}

#[test]
fn a_streamed_load_re_encodes_to_the_payload() {
    let again = loaded("stream", sealed()).expect("the intact snapshot loads");
    assert!(again == payload(), "re-encoded payload differs");
}

#[test]
fn truncation_at_any_section_boundary_never_loads() {
    let dir = private_dir("truncate");
    let sealed = sealed();
    let payload = payload();
    for cut in container_regions()
        .into_iter()
        .flat_map(|r| [r.start, r.end - 1])
    {
        plant(&dir, &sealed[..cut]);
        assert!(!loads(&dir), "container cut at byte {cut} loaded");
    }
    plant(&dir, sealed);
    assert!(loads(&dir), "the intact snapshot loads");
    let _ = std::fs::remove_dir_all(&dir);
    // The same cuts inside the payload, as if sealed afresh after the
    // truncation: past the digest, only the decoder can refuse them.
    for &end in section_ends().iter().filter(|&&end| end < payload.len()) {
        let mut r = SnapReader::new(&payload[..end]);
        assert!(
            SimBundle::snap_read(&mut r, Deployment::standard()).is_err(),
            "payload cut at byte {end} decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_flipped_bit_never_loads(pick in any::<u64>()) {
        let mut damaged = sealed().to_vec();
        flip(&mut damaged, &container_regions(), pick);
        let dir = private_dir(&format!("flip-{pick}"));
        plant(&dir, &damaged);
        let loaded = loads(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(!loaded, "a snapshot with a flipped bit loaded");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn flipped_payload_bits_decode_or_fail_without_panic(
        picks in prop::collection::vec(any::<u64>(), 1..=4)
    ) {
        let regions = payload_regions();
        let mut damaged = payload().to_vec();
        for pick in picks {
            flip(&mut damaged, &regions, pick);
        }
        // Ok and Err are both fine; a panic fails the case.
        let _ = SimBundle::snap_read(&mut SnapReader::new(&damaged), Deployment::standard());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Damage the digest cannot catch: flipped payload bits sealed afresh,
    /// so the streamed decoders meet them before the trailer check passes.
    #[test]
    fn resealed_flipped_payload_bits_load_as_the_in_memory_decode(
        picks in prop::collection::vec(any::<u64>(), 1..=4)
    ) {
        let regions = payload_regions();
        let mut damaged = payload().to_vec();
        for &pick in &picks {
            flip(&mut damaged, &regions, pick);
        }
        // A panic fails the case; a load must be the in-memory decode.
        let streamed = loaded(&format!("reseal-{}", picks[0]), &snap::seal(&damaged));
        prop_assert!(
            streamed == decoded_in_memory(&damaged),
            "streamed and in-memory decodes differ"
        );
    }
}

proptest! {
    // Each case re-simulates the world, so keep the count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn a_flipped_bit_is_quarantined_and_resimulated(pick in any::<u64>()) {
        let mut damaged = sealed().to_vec();
        flip(&mut damaged, &container_regions(), pick);
        let dir = private_dir(&format!("heal-{pick}"));
        let path = plant(&dir, &damaged);
        let (bundle, provenance) = load_or_run_in(&dir, config(), true);
        let mut quarantined = path.into_os_string();
        quarantined.push(".corrupt");
        let quarantined = Path::new(&quarantined).exists();
        let healed = loads(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(!provenance.is_hit(), "a damaged snapshot was served");
        prop_assert!(quarantined, "the damaged snapshot was not quarantined");
        prop_assert!(encode(&bundle) == payload(), "the re-simulated world differs");
        prop_assert!(healed, "the re-simulation did not heal the cache");
    }
}
