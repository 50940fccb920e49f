//! Crypto datapath benchmark runner: measures AES-GCM seal/open and
//! SHA-256 throughput on every backend, then writes machine-readable
//! results to `BENCH_crypto.json` so the performance trajectory of the
//! crypto datapath is tracked from PR to PR.
//!
//! Rows, at 4 KiB / 64 KiB / 1 MiB:
//!
//! * AES-GCM `seal` and `open` on `hw` (AES-NI + PCLMULQDQ, the backend
//!   `AesGcm::new` picks where the host supports it), `table` (the
//!   portable T-table backend) and `scalar` (the seed's byte-at-a-time
//!   oracle);
//! * `sha256` on `hw` (SHA-NI) and `portable` (the FIPS-180-4 round
//!   loop).
//!
//! Each row is the median and quartiles of [`REPEATS`] timed batches.
//! The hardware rows are omitted on hosts without the features.
//!
//! Run with `cargo run --release -p ccai-bench --bin bench_crypto`.
//! Pass an output path as the first argument to override the default.
//!
//! Besides raw crypto throughput, the runner drives one fixed-seed
//! confidential workload through the functional datapath and embeds the
//! telemetry snapshot — the per-hop latency breakdown (adaptor staging,
//! adaptor crypt, SC filter, SC crypt, link, DMA), event counters, and
//! the deterministic trace digest — under the `telemetry` key.

use ccai_core::adaptor::seal_chunks_striped;
use ccai_core::system::{ConfidentialSystem, SystemMode};
use ccai_core::TelemetrySnapshot;
use ccai_crypto::scalar::ScalarAesGcm;
use ccai_crypto::{AesGcm, Backend, Key, Sha256};
use ccai_trust::keymgmt::StreamId;
use ccai_xpu::XpuSpec;
use std::fmt::Write as _;
use std::time::Instant;

const SIZES: [(&str, usize); 3] =
    [("4KiB", 4 * 1024), ("64KiB", 64 * 1024), ("1MiB", 1024 * 1024)];

/// Timed batches per row.
const REPEATS: usize = 7;

/// Median and quartiles of one row's per-batch figures.
#[derive(Debug, Clone, Copy)]
struct Spread {
    q1: f64,
    median: f64,
    q3: f64,
}

impl Spread {
    /// Nearest-rank quartiles of `values` (at least one).
    fn of(mut values: Vec<f64>) -> Spread {
        values.sort_by(f64::total_cmp);
        let at = |q: f64| values[((q * (values.len() - 1) as f64).round()) as usize];
        Spread { q1: at(0.25), median: at(0.5), q3: at(0.75) }
    }
}

/// One row: an operation over `bytes`, timed [`REPEATS`] times.
struct Sample {
    op: &'static str,
    path: &'static str,
    size_label: &'static str,
    bytes: usize,
    ns_per_iter: Spread,
    gib_per_s: Spread,
}

/// Times `f`: calibrates a batch size targeting ~20 ms of work, then
/// returns the ns/iteration of each of [`REPEATS`] batches.
fn measure<F: FnMut()>(mut f: F) -> Vec<f64> {
    // Warm up and calibrate.
    let t0 = Instant::now();
    let mut calib = 0u64;
    while t0.elapsed().as_millis() < 20 {
        f();
        calib += 1;
    }
    let per = t0.elapsed().as_nanos() as f64 / calib as f64;
    let batch = ((20_000_000.0 / per).ceil() as u64).max(1);
    (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect()
}

fn sample(op: &'static str, path: &'static str, size_label: &'static str, bytes: usize, ns: Vec<f64>) -> Sample {
    let gib = ns.iter().map(|n| bytes as f64 / n * 1e9 / (1u64 << 30) as f64).collect();
    Sample { op, path, size_label, bytes, ns_per_iter: Spread::of(ns), gib_per_s: Spread::of(gib) }
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

/// Seal and open rows of one `AesGcm` backend.
fn gcm_rows(samples: &mut Vec<Sample>, path: &'static str, gcm: &AesGcm) {
    for (label, len) in SIZES {
        let plaintext = patterned(len);
        let mut buf = plaintext.clone();
        let ns = measure(|| {
            buf.copy_from_slice(&plaintext);
            std::hint::black_box(gcm.seal_in_place_detached(&[7; 12], &mut buf, b"aad"));
        });
        samples.push(sample("seal", path, label, len, ns));

        let mut sealed = plaintext.clone();
        let tag = gcm.seal_in_place_detached(&[7; 12], &mut sealed, b"aad");
        let ns = measure(|| {
            buf.copy_from_slice(&sealed);
            gcm.open_in_place_detached(&[7; 12], &mut buf, &tag, b"aad")
                .expect("tag verifies");
            std::hint::black_box(buf[0]);
        });
        samples.push(sample("open", path, label, len, ns));
    }
}

/// One-shot SHA-256 rows of one backend.
fn sha_rows(samples: &mut Vec<Sample>, path: &'static str, make: fn() -> Sha256) {
    for (label, len) in SIZES {
        let data = patterned(len);
        let ns = measure(|| {
            let mut h = make();
            h.update(&data);
            std::hint::black_box(h.finalize());
        });
        samples.push(sample("sha256", path, label, len, ns));
    }
}

fn run() -> Vec<Sample> {
    let key = Key::Aes128([0x42; 16]);
    let mut samples = Vec::new();
    let hw = AesGcm::new(&key);
    if hw.backend() == Backend::Hardware {
        gcm_rows(&mut samples, "hw", &hw);
    }
    gcm_rows(&mut samples, "table", &AesGcm::new_portable(&key));

    let scalar = ScalarAesGcm::new(&key);
    for (label, len) in SIZES {
        let plaintext = patterned(len);
        let ns = measure(|| {
            std::hint::black_box(scalar.seal(&[7; 12], &plaintext, b"aad"));
        });
        samples.push(sample("seal", "scalar", label, len, ns));
        let sealed = scalar.seal(&[7; 12], &plaintext, b"aad");
        let ns = measure(|| {
            std::hint::black_box(scalar.open(&[7; 12], &sealed, b"aad").expect("tag verifies"));
        });
        samples.push(sample("open", "scalar", label, len, ns));
    }

    if Sha256::new().backend() == Backend::Hardware {
        sha_rows(&mut samples, "hw", Sha256::new);
    }
    sha_rows(&mut samples, "portable", Sha256::new_portable);
    samples
}

/// Median key-setup time of `AesGcm::new` and `AesGcm::new_portable`,
/// in µs (the hardware figure is absent on hosts without it).
fn key_setup_us() -> (Option<f64>, f64) {
    let key = Key::Aes256([0x24; 32]);
    let us = |ns: Vec<f64>| Spread::of(ns).median / 1e3;
    let hw = (AesGcm::new(&key).backend() == Backend::Hardware)
        .then(|| us(measure(|| drop(std::hint::black_box(AesGcm::new(&key))))));
    let table = us(measure(|| drop(std::hint::black_box(AesGcm::new_portable(&key)))));
    (hw, table)
}

/// Throughput of the Adaptor's striped multi-lane sealer at one lane
/// count (medians over [`REPEATS`] batches).
struct LaneSample {
    lanes: usize,
    ns_per_iter: f64,
    gib_per_s: f64,
}

/// Charts the crypto-lane scaling trend: the exact striped in-place
/// sealer the Adaptor's staging path ships, over a multi-megabyte
/// buffer, at 1/2/4/8 lanes. Lane 1 is the sequential baseline; the
/// ciphertext layout is identical at every count, so this isolates the
/// thread-parallel speedup.
fn run_lanes() -> Vec<LaneSample> {
    const LANE_BUF: usize = 4 * 1024 * 1024;
    let key = Key::Aes128([0x42; 16]);
    let plaintext = patterned(LANE_BUF);
    let mut buf = plaintext.clone();
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|lanes| {
            let ns = measure(|| {
                buf.copy_from_slice(&plaintext);
                std::hint::black_box(seal_chunks_striped(
                    &key,
                    StreamId(7),
                    &mut buf,
                    lanes,
                ));
            });
            let row = sample("seal_striped", "default", "4MiB", LANE_BUF, ns);
            LaneSample { lanes, ns_per_iter: row.ns_per_iter.median, gib_per_s: row.gib_per_s.median }
        })
        .collect()
}

/// Runs one fixed-seed confidential inference through the functional
/// datapath and returns its telemetry snapshot. Every input is
/// deterministic, so the snapshot's trace digest is reproducible
/// run-to-run.
fn confidential_workload_snapshot() -> TelemetrySnapshot {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let weights = patterned(96 * 1024);
    let input = patterned(8 * 1024);
    system
        .run_workload(&weights, &input)
        .expect("fixed-seed workload succeeds");
    system.telemetry_snapshot()
}

fn to_json(
    samples: &[Sample],
    key_setup: (Option<f64>, f64),
    lanes: &[LaneSample],
    telemetry: &TelemetrySnapshot,
) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"crypto_throughput\",\n  \"unit\": \"GiB/s\",\n  \"repeats\": {REPEATS},\n  \"results\": [\n"
    );
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"op\": \"{}\", \"path\": \"{}\", \"size\": \"{}\", \"bytes\": {}, \"ns_per_iter\": {:.1}, \"gib_per_s\": {:.4}, \"gib_per_s_q1\": {:.4}, \"gib_per_s_q3\": {:.4}}}{}",
            s.op, s.path, s.size_label, s.bytes, s.ns_per_iter.median, s.gib_per_s.median, s.gib_per_s.q1, s.gib_per_s.q3, sep
        )
        .expect("write to string");
    }
    out.push_str("  ],\n");
    let ratio = |a: (&str, &str), b: (&str, &str), size: &str| ratio(samples, a, b, size);
    for (name, value) in [
        ("speedup_hw_vs_table_seal_4KiB", ratio(("seal", "hw"), ("seal", "table"), "4KiB")),
        ("speedup_hw_vs_table_open_4KiB", ratio(("open", "hw"), ("open", "table"), "4KiB")),
        ("speedup_hw_vs_portable_sha256_1MiB", ratio(("sha256", "hw"), ("sha256", "portable"), "1MiB")),
        ("speedup_table_vs_scalar_seal_64KiB", ratio(("seal", "table"), ("seal", "scalar"), "64KiB")),
    ] {
        writeln!(out, "  \"{name}\": {value:.1},").expect("write");
    }
    let (hw_us, table_us) = key_setup;
    let hw_us = hw_us.map_or("null".to_string(), |us| format!("{us:.3}"));
    writeln!(out, "  \"key_setup_us\": {{\"hw\": {hw_us}, \"table\": {table_us:.3}}},").expect("write");
    out.push_str("  \"crypto_lanes\": [\n");
    for (i, l) in lanes.iter().enumerate() {
        let sep = if i + 1 == lanes.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"lanes\": {}, \"ns_per_iter\": {:.1}, \"gib_per_s\": {:.4}}}{}",
            l.lanes, l.ns_per_iter, l.gib_per_s, sep
        )
        .expect("write to string");
    }
    out.push_str("  ],\n");
    out.push_str("  \"telemetry\": ");
    let telemetry_json = telemetry.to_json();
    assert!(
        telemetry_json.contains(ccai_core::telemetry::SNAPSHOT_SCHEMA),
        "embedded telemetry snapshot must carry the pinned schema"
    );
    out.push_str(telemetry_json.trim_end());
    out.push('\n');
    out.push('}');
    out.push('\n');
    out
}

/// Median GiB/s of row `a` over row `b` at `size` (0 when either row is
/// absent, as the hardware rows are on hosts without the features).
fn ratio(samples: &[Sample], a: (&str, &str), b: (&str, &str), size: &str) -> f64 {
    let find = |(op, path): (&str, &str)| {
        samples
            .iter()
            .find(|s| s.op == op && s.path == path && s.size_label == size)
            .map_or(0.0, |s| s.gib_per_s.median)
    };
    let (num, den) = (find(a), find(b));
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_crypto.json".to_string());
    let samples = run();
    for s in &samples {
        println!(
            "{:>6} {:<8} {:>6}  {:>12.1} ns/iter  {:>8.3} GiB/s  (IQR {:.3}..{:.3})",
            s.op, s.path, s.size_label, s.ns_per_iter.median, s.gib_per_s.median, s.gib_per_s.q1, s.gib_per_s.q3
        );
    }
    println!(
        "hw vs table seal @4KiB: {:.1}x; table vs scalar seal @64KiB: {:.1}x",
        ratio(&samples, ("seal", "hw"), ("seal", "table"), "4KiB"),
        ratio(&samples, ("seal", "table"), ("seal", "scalar"), "64KiB")
    );
    let key_setup = key_setup_us();
    println!("key setup: hw {:?} us, table {:.3} us", key_setup.0, key_setup.1);
    let lanes = run_lanes();
    for l in &lanes {
        println!(
            "striped seal 4MiB  lanes {:>2}  {:>12.1} ns/iter  {:>8.3} GiB/s",
            l.lanes, l.ns_per_iter, l.gib_per_s
        );
    }
    let snapshot = confidential_workload_snapshot();
    println!("fixed-seed workload trace digest: {}", snapshot.digest_hex());
    for hop in &snapshot.hops {
        println!(
            "{:>14}  count {:>5}  total {}",
            hop.hop.as_str(),
            hop.count,
            hop.total
        );
    }
    let json = to_json(&samples, key_setup, &lanes, &snapshot);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
