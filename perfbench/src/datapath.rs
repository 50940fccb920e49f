//! The real-datapath workloads: `model_load` and `interactive`.
//!
//! Each drives the public APIs of `ccai-core`, `ccai-tvm` and `ccai-llm`
//! in a closed loop with one client, checks every op's output, and runs
//! the first [`SimWindow`] ops once more on a vanilla twin so the
//! virtual-time overhead of ccAI is measured on the identical op
//! sequence.

use crate::calib::{Calibration, Timing, NOMINAL_MIB_S};
use crate::trace::{self, Count, Layer, TimedDevice, TimedInterposer, TimedPort, TimedStager};
use crate::{median, median_time, peak_rss_mib, percentile, setup_estimate, Args, Outcome};
use ccai_core::handler::CHUNK_SIZE;
use ccai_core::sc::regs;
use ccai_core::system::layout;
use ccai_core::{ConfidentialSystem, Hop, SystemMode, TelemetrySnapshot};
use ccai_crypto::{AesGcm, Key};
use ccai_llm::{PromptGenerator, ShardedFleet};
use ccai_pcie::PortId;
use ccai_sim::SimRng;
use ccai_tvm::{DmaStager, GuestMemory, TlpPort, XpuDriver};
use ccai_xpu::{CommandProcessor, Xpu, XpuSpec};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Model image size of `model_load`.
const MODEL_BYTES: usize = 4 << 20;
/// Distinct seeded weight images `model_load` alternates between.
const MODEL_IMAGES: usize = 2;
/// Replicas and model size of `interactive`.
const FLEET_REPLICAS: usize = 4;
const FLEET_MODEL_BYTES: usize = 16 << 10;
/// Tenants `interactive` serves round-robin.
const TENANTS: u32 = 8;
const TENANT_BASE: u32 = 100;
/// Set-ups timed before the measured window; `setup_s` is estimated
/// from these and every session set-up after them (see
/// [`setup_estimate`]).
const SETUP_REPS: usize = 5;
/// The xPU's port in every system `ConfidentialSystem::build` makes.
const XPU_PORT: PortId = PortId(0);

/// Every per-layer metric, in print order, with its unit. A layer a
/// workload never reaches reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("core.adaptor.stage_ms", "ms/op"),
    ("core.adaptor.stage_bytes", "B/op"),
    ("core.adaptor.recover_ms", "ms/op"),
    ("core.adaptor.recover_bytes", "B/op"),
    ("core.adaptor.other_ms", "ms/op"),
    ("core.adaptor.transfer_retries", "count"),
    ("core.adaptor.rekeys", "count"),
    ("core.adaptor.control_retries", "count"),
    ("core.sc.self_ms", "ms/op"),
    ("core.sc.calls", "count/op"),
    ("core.sc.tlps", "count/op"),
    ("core.sc.mean_batch", "TLP/batch"),
    ("core.sc.a1", "count/op"),
    ("core.sc.a2", "count/op"),
    ("core.sc.a3", "count/op"),
    ("core.sc.a4", "count/op"),
    ("core.sc.chunks_encrypted", "count/op"),
    ("core.sc.chunks_decrypted", "count/op"),
    ("core.sc.control_dup_suppressed", "count"),
    ("core.sc.control_gaps", "count"),
    ("core.sc.alerts", "count"),
    ("xpu.self_ms", "ms/op"),
    ("xpu.handle_calls", "count/op"),
    ("xpu.poll_calls", "count/op"),
    ("xpu.dma_completions", "count/op"),
    ("pcie.fabric.self_ms", "ms/op"),
    ("pcie.fabric.pump_calls", "count/op"),
    ("pcie.fabric.tlps_per_pump", "TLP/pump"),
    ("pcie.fabric.pool_hit_ratio", "ratio"),
    ("tvm.driver.self_ms", "ms/op"),
    ("tvm.driver.retries", "count"),
    ("tvm.driver.control_retries", "count"),
    ("tvm.guest_memory.self_ms", "ms/op"),
    ("tvm.guest_memory.dma_bytes", "B/op"),
    ("crypto.seal_gib_s", "GiB/s"),
    ("crypto.open_gib_s", "GiB/s"),
    ("trust.bringup_ms", "ms"),
    ("core.snapshot.restore_ms", "ms"),
    ("llm.fleet.serve_self_ms", "ms/op"),
    ("llm.serve.host_us_per_req", "us/req"),
    ("llm.serve.rounds", "count"),
    ("llm.serve.mean_batch", "req/round"),
    ("llm.serve.knee_rps", "req/s-virtual"),
    ("llm.serve.queue_delay_p50_ms", "ms-virtual"),
    ("llm.serve.queue_delay_p99_ms", "ms-virtual"),
    ("llm.serve.shed_rate_limited", "count"),
    ("llm.serve.shed_queue_full", "count"),
    ("llm.serve.hub_clock_skew", "ratio"),
    ("sim.hop.adaptor_stage_us", "us-virtual/op"),
    ("sim.hop.adaptor_crypt_us", "us-virtual/op"),
    ("sim.hop.sc_filter_us", "us-virtual/op"),
    ("sim.hop.sc_crypt_us", "us-virtual/op"),
    ("sim.hop.link_us", "us-virtual/op"),
    ("sim.hop.dma_us", "us-virtual/op"),
    ("sim.events_recorded", "count/op"),
];

/// Hops in the order of the `sim.hop.*` metrics.
pub const HOPS: [(Hop, &str); 6] = [
    (Hop::AdaptorStage, "sim.hop.adaptor_stage_us"),
    (Hop::AdaptorCrypt, "sim.hop.adaptor_crypt_us"),
    (Hop::ScFilter, "sim.hop.sc_filter_us"),
    (Hop::ScCrypt, "sim.hop.sc_crypt_us"),
    (Hop::Link, "sim.hop.link_us"),
    (Hop::Dma, "sim.hop.dma_us"),
];

/// Layer values keyed by metric name; absent names print as 0.
pub type Layers = BTreeMap<&'static str, f64>;

/// Pushes every per-layer metric in order.
pub fn push_layers(out: &mut Outcome, layers: &Layers) {
    for name in layers.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "undeclared per-layer metric {name}"
        );
    }
    for (name, unit) in PER_LAYER {
        out.push(name, layers.get(name).copied().unwrap_or(0.0), unit);
    }
}

/// The end-to-end figures every workload reports.
pub struct EndToEnd<'a> {
    /// The run's reference bursts, which the gated host figures are
    /// calibrated against (see [`crate::calib`]).
    pub calib: &'a Calibration,
    /// Every set-up sample.
    pub setups: &'a [Timing],
    /// Payload bytes and ops of every measured op, with its host time.
    pub ops: &'a [HostOp],
    /// ccAI's virtual-time overhead over vanilla, percent.
    pub sim_overhead_pct: f64,
    /// Virtual p99 latency, ms.
    pub sim_p99_ms: f64,
}

/// One host-timed op: its wall time, the requests it served and the
/// payload bytes it moved.
#[derive(Debug, Clone, Copy)]
pub struct HostOp {
    pub t: Timing,
    pub requests: f64,
    pub bytes: f64,
}

/// Host figures of one set of timings, in seconds.
struct HostFigures {
    op_ms: Vec<f64>,
    setup_s: f64,
}

impl EndToEnd<'_> {
    fn figures(&self, secs: impl Fn(Timing) -> f64) -> HostFigures {
        let setups: Vec<f64> = self.setups.iter().map(|&t| secs(t)).collect();
        HostFigures {
            op_ms: self.ops.iter().map(|o| secs(o.t) * 1e3).collect(),
            setup_s: setup_estimate(&setups),
        }
    }

    /// Requests and payload GiB per busy host second.
    fn rates(&self, f: &HostFigures) -> (f64, f64) {
        let busy_s = f.op_ms.iter().sum::<f64>() / 1e3;
        let requests: f64 = self.ops.iter().map(|o| o.requests).sum();
        let bytes: f64 = self.ops.iter().map(|o| o.bytes).sum();
        (requests / busy_s, bytes / busy_s / (1u64 << 30) as f64)
    }

    fn print(&self, label: &str, f: &HostFigures) {
        let (req_per_s, gib_per_s) = self.rates(f);
        println!(
            "{label}: req_per_s = {req_per_s} req/s, gib_per_s = {gib_per_s} GiB/s, op_p50_ms = {} ms, \
             op_p90_ms = {} ms, op_p99_ms = {} ms over {} ops, setup_s = {} s over {} set-ups",
            percentile(&f.op_ms, 0.5),
            percentile(&f.op_ms, 0.9),
            percentile(&f.op_ms, 0.99),
            f.op_ms.len(),
            f.setup_s,
            self.setups.len()
        );
    }

    /// Pushes every gated end-to-end metric in order, and prints the
    /// host figures raw and calibrated. The gated host figures are the
    /// calibrated set-up time, request rate and p50. The p90, p99 and
    /// GiB/s are printed, not gated: the slow tail does not follow the
    /// reference kernel (model_load's calibrated p90 read 55 ms in slow
    /// machine periods and 68 ms in fast ones, where its p50 read 52 and
    /// 49 ms), and GiB/s is the request rate times a per-workload
    /// constant.
    pub fn push_into(&self, out: &mut Outcome) {
        self.print("raw", &self.figures(|t| t.secs));
        println!(
            "calibration: {} reference bursts, median {:.1} MiB/s (nominal {} MiB/s)",
            self.calib.bursts(),
            self.calib.median_mib_s(),
            NOMINAL_MIB_S
        );
        let cal = self.figures(|t| self.calib.calibrated(t));
        self.print("calibrated", &cal);
        out.push("setup_s", cal.setup_s, "s");
        out.push("req_per_s", self.rates(&cal).0, "req/s");
        out.push("op_p50_ms", percentile(&cal.op_ms, 0.5), "ms");
        out.push("sim_overhead_pct", self.sim_overhead_pct, "%");
        out.push("sim_p99_ms", self.sim_p99_ms, "ms-virtual");
        out.push("peak_rss_mib", peak_rss_mib(), "MiB");
    }
}

/// Host-side samples of a closed loop.
#[derive(Debug, Default)]
struct Samples {
    op_ms: Vec<f64>,
    ops: Vec<HostOp>,
    busy_s: f64,
    attempted: u64,
    failed: u64,
}

/// What one op reports.
struct OpResult {
    host: Timing,
    bytes: u64,
    ok: bool,
    /// Virtual time the op took on the system that served it.
    sim_picos: u64,
}

impl Samples {
    fn record(&mut self, r: &OpResult) {
        self.op_ms.push(r.host.secs * 1e3);
        self.ops.push(HostOp {
            t: r.host,
            requests: 1.0,
            bytes: r.bytes as f64,
        });
        self.busy_s += r.host.secs;
        self.attempted += 1;
        self.failed += u64::from(!r.ok);
    }

    fn absorb(&mut self, other: Samples) {
        self.op_ms.extend(other.op_ms);
        self.ops.extend(other.ops);
        self.busy_s += other.busy_s;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The fixed-length window of ops at the start of a run that the
/// virtual-time metrics come from, so they repeat exactly for a seed
/// however many ops the host manages in `--seconds`.
struct SimWindow {
    ops: usize,
    picos: Vec<u64>,
}

impl SimWindow {
    fn new(ops: usize) -> Self {
        SimWindow {
            ops,
            picos: Vec::with_capacity(ops),
        }
    }

    fn push(&mut self, r: &OpResult) {
        if self.picos.len() < self.ops {
            self.picos.push(r.sim_picos);
        }
    }

    fn full(&self) -> bool {
        self.picos.len() >= self.ops
    }

    fn total_secs(&self) -> f64 {
        self.picos.iter().map(|&p| p as f64).sum::<f64>() / 1e12
    }

    /// Nearest-rank p99 of the op latencies, in milliseconds.
    fn p99_ms(&self) -> f64 {
        let ms: Vec<f64> = self.picos.iter().map(|&p| p as f64 / 1e9).collect();
        percentile(&ms, 0.99)
    }
}

/// Sums hop totals (picoseconds) and events over a set of hubs.
fn hop_totals(snaps: &[TelemetrySnapshot]) -> ([f64; 6], f64) {
    let mut totals = [0.0; 6];
    let mut events = 0.0;
    for snap in snaps {
        for report in &snap.hops {
            if let Some(i) = HOPS.iter().position(|(h, _)| *h == report.hop) {
                totals[i] += report.total.as_picos() as f64;
            }
        }
        events += snap.events_recorded as f64;
    }
    (totals, events)
}

/// The schema tag a telemetry snapshot's JSON carries, checked against
/// the one the code emits.
pub fn checked_schema(snap: &TelemetrySnapshot) -> String {
    let json = snap.to_json();
    let schema = json
        .split("\"schema\": \"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or_default()
        .to_string();
    assert_eq!(
        schema,
        ccai_core::telemetry::SNAPSHOT_SCHEMA,
        "telemetry snapshots carry the schema the code emits"
    );
    schema
}

/// `sim.hop.*` per op between two sets of hub snapshots.
fn hop_layers(
    layers: &mut Layers,
    before: &[TelemetrySnapshot],
    after: &[TelemetrySnapshot],
    ops: usize,
) {
    let (b, eb) = hop_totals(before);
    let (a, ea) = hop_totals(after);
    for (i, (_, name)) in HOPS.iter().enumerate() {
        layers.insert(name, (a[i] - b[i]) / 1e6 / ops as f64);
    }
    layers.insert("sim.events_recorded", (ea - eb) / ops as f64);
}

/// Token ids as little-endian u32 bytes: what the xPU receives.
fn prompt_bytes(gen: &mut PromptGenerator) -> Vec<u8> {
    gen.next_prompt()
        .tokens
        .iter()
        .flat_map(|t| t.to_le_bytes())
        .collect()
}

fn build_system(mode: SystemMode) -> ConfidentialSystem {
    let mut sys = ConfidentialSystem::build(XpuSpec::a100(), mode);
    sys.complete_bringup()
        .expect("attested bring-up of a fresh system");
    sys
}

/// Swaps timing delegates in front of the xPU and its PCIe-SC: drain
/// the device's outbound queue (a replica resumed from a snapshot holds
/// the model load's completion interrupt), unplug the port, plug the
/// same device back wrapped (with the xPU window and the SC control
/// region), and re-interpose the wrapped SC.
fn instrument(sys: &mut ConfidentialSystem) {
    sys.with_port(|port, memory| while port.pump(memory) > 0 {});
    let fabric = sys.fabric_mut();
    let (device, interposer, lost) = fabric.hot_unplug(XPU_PORT).expect("xPU attached");
    assert_eq!(
        lost.total(),
        0,
        "instrumenting at a quiesce point loses no TLP: {lost:?}"
    );
    let window = device
        .as_any()
        .and_then(|any| any.downcast_ref::<Xpu>())
        .expect("the port holds the xPU")
        .address_window();
    let sc_region = layout::SC_REGION..layout::SC_REGION + regs::WINDOW_LEN;
    fabric.hot_plug(
        XPU_PORT,
        Box::new(TimedDevice(device)),
        vec![window, sc_region],
    );
    if let Some(sc) = interposer {
        fabric.interpose(XPU_PORT, Box::new(TimedInterposer(sc)));
    }
}

/// Drives `body` through the system's own port and stager (Adaptor
/// under ccAI, fabric + identity stager in vanilla), wrapped in timing
/// delegates when `traced`.
fn with_parts<R>(
    sys: &mut ConfidentialSystem,
    traced: bool,
    body: impl FnOnce(&XpuDriver, &mut dyn TlpPort, &mut GuestMemory, &mut dyn DmaStager) -> R,
) -> R {
    let (driver, fabric, memory, stager, adaptor) = sys.parts();
    let run = |port: &mut dyn TlpPort| {
        if traced {
            let mut port = TimedPort(port);
            let mut stager = TimedStager(stager);
            trace::span(Layer::Driver, || {
                body(driver, &mut port, memory, &mut stager)
            })
        } else {
            body(driver, port, memory, stager)
        }
    };
    match adaptor {
        Some(adaptor) => run(&mut adaptor.port(fabric)),
        None => run(fabric),
    }
}

/// Bytes and repetitions of the standalone AES-GCM probe.
const PROBE_BYTES: usize = 4 << 20;
const PROBE_REPS: usize = 9;

/// `bytes` moved in `secs`, in GiB/s.
pub fn gib_per_s(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / (1u64 << 30) as f64
}

/// Standalone layer probes every traced run reports: AES-GCM seal/open
/// at the datapath's chunk size (the ceiling `gib_per_s` can reach), the
/// attested bring-up chain, and a replica restore from a golden
/// snapshot (the two costs inside `setup_s`).
pub fn probes(layers: &mut Layers) {
    let gcm = AesGcm::new(&Key::Aes128([0x5A; 16]));
    let nonce = [7u8; 12];
    let aad = [1u8; 16];
    let mut buf = vec![0x3Cu8; PROBE_BYTES];
    let (mut seal, mut open) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let tags: Vec<_> = buf
            .chunks_mut(CHUNK_SIZE as usize)
            .map(|chunk| gcm.seal_in_place_detached(&nonce, chunk, &aad))
            .collect();
        seal.push(gib_per_s(PROBE_BYTES as u64, t0.elapsed().as_secs_f64()));
        let t0 = Instant::now();
        for (chunk, tag) in buf.chunks_mut(CHUNK_SIZE as usize).zip(&tags) {
            gcm.open_in_place_detached(&nonce, chunk, tag, &aad)
                .expect("genuine tag verifies");
        }
        open.push(gib_per_s(PROBE_BYTES as u64, t0.elapsed().as_secs_f64()));
        std::hint::black_box(&buf);
    }
    layers.insert("crypto.seal_gib_s", median(&seal));
    layers.insert("crypto.open_gib_s", median(&open));

    let bringup_ms: Vec<f64> = (0..3)
        .map(|_| {
            let mut sys = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
            let t0 = Instant::now();
            sys.complete_bringup()
                .expect("attested bring-up of a fresh system");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    layers.insert("trust.bringup_ms", median(&bringup_ms));
    let mut sys = build_system(SystemMode::CcAi);
    let template = ccai_core::snapshot::snapshot_mid_task(&mut sys, &vec![0xA5; FLEET_MODEL_BYTES])
        .expect("template model load");
    let (restore_s, _) = median_time(5, || ConfidentialSystem::resume(&template).expect("resume"));
    layers.insert("core.snapshot.restore_ms", restore_s * 1e3);
}

/// One real-datapath workload, as the shared runner drives it.
trait Datapath {
    /// Runs op `i` (inputs drawn from the workload's seeded streams),
    /// checking its output; `traced` runs it under the timing delegates.
    fn op(&mut self, i: u64, traced: bool) -> OpResult;
    /// Swaps the timing delegates in.
    fn instrument(&mut self);
    /// Visits every system behind the workload.
    fn each_system(&mut self, f: &mut dyn FnMut(&mut ConfidentialSystem));
    /// Replaces the systems with freshly set-up ones, keeping the input
    /// streams and the state the output checks expect.
    fn renew(&mut self);
}

/// Program counters summed over a workload's systems.
type Counters = BTreeMap<&'static str, f64>;

/// Cumulative program counters of the workload's current systems.
fn program_counters(work: &mut impl Datapath) -> Counters {
    let mut c = Counters::new();
    work.each_system(&mut |sys| {
        let mut add = |k: &'static str, v: u64| *c.entry(k).or_default() += v as f64;
        let tel = sys.telemetry();
        for (key, counter) in [
            ("a1", "sc.a1_disallow"),
            ("a2", "sc.a2_crypt"),
            ("a3", "sc.a3_writeprot"),
            ("a4", "sc.a4_pass"),
            ("filter_tlps", "sc.filter_tlps"),
            ("filter_batches", "sc.filter_batches"),
        ] {
            add(key, tel.counter(counter));
        }
        let sc = sys.sc_counters();
        add("chunks_encrypted", sc.chunks_encrypted);
        add("chunks_decrypted", sc.chunks_decrypted);
        add("control_dup_suppressed", sc.control_dup_suppressed);
        add("control_gaps", sc.control_gaps);
        add("alerts", sys.sc().map_or(0, |sc| sc.alerts().len() as u64));
        add("quarantined", sys.sc_quarantined_tenants().len() as u64);
        let adaptor = sys.adaptor_counters();
        add("transfer_retries", adaptor.transfer_retries);
        add("rekeys", adaptor.rekeys);
        add("adaptor_control_retries", adaptor.control_retries);
        add("driver_retries", sys.driver().dma_retries());
        add("driver_control_retries", sys.driver().control_retries());
        let pool = sys.fabric_mut().pool_stats();
        add("pool_hits", pool.hits);
        add("pool_misses", pool.misses);
    });
    c
}

/// Per-layer metrics of a traced phase of `n` ops whose program
/// counters moved by `delta`.
fn traced_layers(layers: &mut Layers, delta: &Counters, totals: &trace::Totals, n: f64) {
    let d = |k: &str| delta.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_op_ms = |layer| totals.self_ms(layer) / n;
    let per_op = |c| totals.count(c) as f64 / n;
    layers.insert("core.adaptor.stage_ms", per_op_ms(Layer::AdaptorStage));
    layers.insert("core.adaptor.stage_bytes", per_op(Count::StageBytes));
    layers.insert("core.adaptor.recover_ms", per_op_ms(Layer::AdaptorRecover));
    layers.insert("core.adaptor.recover_bytes", per_op(Count::RecoverBytes));
    layers.insert("core.adaptor.other_ms", per_op_ms(Layer::AdaptorOther));
    layers.insert("core.adaptor.transfer_retries", d("transfer_retries"));
    layers.insert("core.adaptor.rekeys", d("rekeys"));
    layers.insert("core.adaptor.control_retries", d("adaptor_control_retries"));
    layers.insert("core.sc.self_ms", per_op_ms(Layer::Sc));
    layers.insert("core.sc.calls", totals.calls(Layer::Sc) as f64 / n);
    layers.insert("core.sc.tlps", per_op(Count::ScTlps));
    layers.insert(
        "core.sc.mean_batch",
        ratio(d("filter_tlps"), d("filter_batches")),
    );
    for (name, key) in [
        ("core.sc.a1", "a1"),
        ("core.sc.a2", "a2"),
        ("core.sc.a3", "a3"),
        ("core.sc.a4", "a4"),
    ] {
        layers.insert(name, d(key) / n);
    }
    layers.insert("core.sc.chunks_encrypted", d("chunks_encrypted") / n);
    layers.insert("core.sc.chunks_decrypted", d("chunks_decrypted") / n);
    layers.insert(
        "core.sc.control_dup_suppressed",
        d("control_dup_suppressed"),
    );
    layers.insert("core.sc.control_gaps", d("control_gaps"));
    layers.insert("core.sc.alerts", d("alerts"));
    layers.insert("xpu.self_ms", per_op_ms(Layer::Xpu));
    layers.insert("xpu.handle_calls", per_op(Count::XpuHandle));
    layers.insert("xpu.poll_calls", per_op(Count::XpuPoll));
    layers.insert("xpu.dma_completions", per_op(Count::XpuCompletions));
    layers.insert("pcie.fabric.self_ms", per_op_ms(Layer::Port));
    layers.insert("pcie.fabric.pump_calls", per_op(Count::PumpCalls));
    layers.insert(
        "pcie.fabric.tlps_per_pump",
        ratio(
            totals.count(Count::PumpTlps) as f64,
            totals.count(Count::PumpCalls) as f64,
        ),
    );
    let hits = d("pool_hits");
    layers.insert(
        "pcie.fabric.pool_hit_ratio",
        ratio(hits, hits + d("pool_misses")),
    );
    layers.insert("tvm.driver.self_ms", per_op_ms(Layer::Driver));
    layers.insert("tvm.driver.retries", d("driver_retries"));
    layers.insert("tvm.driver.control_retries", d("driver_control_retries"));
    layers.insert("tvm.guest_memory.self_ms", per_op_ms(Layer::Memory));
    layers.insert("tvm.guest_memory.dma_bytes", per_op(Count::MemBytes));
    layers.insert("llm.fleet.serve_self_ms", per_op_ms(Layer::FleetServe));
}

/// Drives one datapath workload through its sessions: a session is one
/// set of freshly set-up systems serving `session_ops` ops, after which
/// the runner sets the systems up again (see the workload entry points
/// for why each workload needs sessions). Every set-up is timed.
struct Runner<W> {
    work: W,
    session_ops: u64,
    next_op: u64,
    calib: Calibration,
    setups: Vec<Timing>,
    clean: bool,
    traced: bool,
    /// Counter movement of the traced phase, closed sessions only.
    traced_delta: Counters,
    /// Counters at the start of the current traced session.
    traced_base: Counters,
}

impl<W: Datapath> Runner<W> {
    fn new(work: W, session_ops: u64) -> Self {
        Runner {
            work,
            session_ops,
            next_op: 0,
            calib: Calibration::new(),
            setups: Vec::new(),
            clean: true,
            traced: false,
            traced_delta: Counters::new(),
            traced_base: Counters::new(),
        }
    }

    /// Checks the ending session: no SC alert, no quarantined tenant.
    fn check_clean(&mut self) -> Counters {
        let c = program_counters(&mut self.work);
        if c["alerts"] > 0.0 || c["quarantined"] > 0.0 {
            println!(
                "CHECK FAILED: {} SC alerts, {} quarantined tenants",
                c["alerts"], c["quarantined"]
            );
            self.clean = false;
        }
        c
    }

    fn close_traced_session(&mut self, end: &Counters) {
        for (k, v) in end {
            let base = self.traced_base.get(k).copied().unwrap_or(0.0);
            *self.traced_delta.entry(k).or_default() += v - base;
        }
    }

    fn renew(&mut self) {
        let end = self.check_clean();
        if self.traced {
            self.close_traced_session(&end);
        }
        let t0 = Instant::now();
        self.work.renew();
        self.setups.push(Timing::since(t0));
        if self.traced {
            self.work.instrument();
            self.traced_base = program_counters(&mut self.work);
        }
    }

    /// Runs ops until the window (if any) is full and `until` has passed.
    fn run(&mut self, mut window: Option<&mut SimWindow>, until: Instant) -> Samples {
        let mut samples = Samples::default();
        loop {
            let window_full = window.as_ref().is_none_or(|w| w.full());
            if window_full && Instant::now() >= until {
                return samples;
            }
            let i = self.next_op;
            self.calib.tick();
            if i > 0 && i.is_multiple_of(self.session_ops) {
                self.renew();
                self.calib.tick();
            }
            if self.traced {
                trace::set_op(i);
            }
            let r = self.work.op(i, self.traced);
            if let Some(w) = window.as_mut() {
                w.push(&r);
            }
            samples.record(&r);
            self.next_op += 1;
        }
    }

    fn hubs(&mut self) -> Vec<TelemetrySnapshot> {
        let mut snaps = Vec::new();
        self.work
            .each_system(&mut |s| snaps.push(s.telemetry_snapshot()));
        snaps
    }
}

/// Runs a datapath workload: `SETUP_REPS` timed set-ups, the sim
/// window, the measured window and the run-level checks, then either
/// the vanilla twin (`--trace 0`) or the traced phase (`--trace 1`).
fn run_datapath<W: Datapath>(
    args: &Args,
    make: impl Fn(SystemMode) -> W,
    session_ops: u64,
    sim_ops: usize,
) -> Outcome {
    assert!(
        sim_ops as u64 <= session_ops,
        "the sim window fits in one session"
    );
    // The seeded inputs are made once, untimed; every set-up sample
    // times the same system set-up a session renewal does.
    let mut runner = Runner::new(make(SystemMode::CcAi), session_ops);
    for _ in 0..SETUP_REPS {
        runner.calib.burst();
        runner.renew();
    }
    let start = Instant::now();
    let measure_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let before = runner.hubs();
    let mut window = SimWindow::new(sim_ops);
    let mut samples = runner.run(Some(&mut window), start);
    let after = runner.hubs();
    let digests: Vec<String> = after.iter().map(|snap| snap.digest_hex()).collect();
    println!(
        "telemetry schema {}; trace digests after the sim window: {}",
        checked_schema(&after[0]),
        digests.join(" ")
    );
    samples.absorb(runner.run(None, start + Duration::from_secs_f64(measure_s)));
    runner.calib.burst();
    runner.check_clean();
    let untraced_p50 = percentile(&samples.op_ms, 0.5);
    println!(
        "measured {} ops in {:.3} s busy over {} set-ups; sim window {} ops, {:.6} s virtual",
        samples.attempted,
        samples.busy_s,
        runner.setups.len(),
        window.ops,
        window.total_secs()
    );
    let mut out = Outcome {
        attempted: samples.attempted,
        failed: samples.failed,
        ..Outcome::default()
    };

    if args.trace {
        let mut layers = Layers::new();
        hop_layers(&mut layers, &before, &after, sim_ops);
        runner.traced = true;
        runner.work.instrument();
        runner.traced_base = program_counters(&mut runner.work);
        let traced = runner.run(None, start + Duration::from_secs_f64(args.seconds));
        let end = runner.check_clean();
        runner.close_traced_session(&end);
        out.attempted += traced.attempted;
        out.failed += traced.failed;
        out.checks_passed = runner.clean;
        let totals = trace::totals();
        let n = traced.attempted as f64;
        traced_layers(&mut layers, &runner.traced_delta, &totals, n);
        let op_ms = traced.busy_s * 1e3 / n;
        let traced_p50 = percentile(&traced.op_ms, 0.5);
        println!(
            "traced {} ops: layer self times sum to {:.4} of {op_ms:.4} ms per op",
            traced.attempted,
            totals.total_self_ms() / n,
        );
        println!(
            "trace.residual_ms = {} ms/op",
            op_ms - totals.total_self_ms() / n
        );
        println!(
            "trace.overhead_ms = {} ms (traced op_p50 {traced_p50} - untraced op_p50 {untraced_p50})",
            traced_p50 - untraced_p50
        );
        probes(&mut layers);
        push_layers(&mut out, &layers);
        return out;
    }

    let mut twin = Runner::new(make(SystemMode::Vanilla), session_ops);
    let mut twin_window = SimWindow::new(sim_ops);
    let twin_samples = twin.run(Some(&mut twin_window), Instant::now());
    out.attempted += twin_samples.attempted;
    out.failed += twin_samples.failed;
    out.checks_passed = runner.clean;
    let overhead_pct = (window.total_secs() / twin_window.total_secs() - 1.0) * 100.0;
    println!(
        "vanilla twin: {:.6} s virtual over the same {sim_ops} ops",
        twin_window.total_secs()
    );
    EndToEnd {
        calib: &runner.calib,
        setups: &runner.setups,
        ops: &samples.ops,
        sim_overhead_pct: overhead_pct,
        sim_p99_ms: window.p99_ms(),
    }
    .push_into(&mut out);
    out
}

fn virtual_picos(sys: &ConfidentialSystem) -> u64 {
    sys.telemetry().now().as_picos()
}

/// `model_load`: each op loads a seeded 4 MiB weight image and runs one
/// inference on a ShareGPT-length prompt.
struct ModelLoad {
    mode: SystemMode,
    sys: ConfidentialSystem,
    images: Vec<Vec<u8>>,
    prompts: PromptGenerator,
}

impl ModelLoad {
    fn new(seed: u64, mode: SystemMode) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let images = (0..MODEL_IMAGES).map(|_| rng.bytes(MODEL_BYTES)).collect();
        ModelLoad {
            mode,
            sys: build_system(mode),
            images,
            prompts: PromptGenerator::sharegpt_like(seed),
        }
    }
}

impl Datapath for ModelLoad {
    fn op(&mut self, i: u64, traced: bool) -> OpResult {
        let weights = &self.images[i as usize % MODEL_IMAGES];
        let prompt = prompt_bytes(&mut self.prompts);
        let sim0 = virtual_picos(&self.sys);
        let t0 = Instant::now();
        let out = if traced {
            with_parts(&mut self.sys, true, |driver, port, memory, stager| {
                driver.init(port)?;
                driver.load_model(port, memory, stager, weights, layout::DEV_WEIGHTS)?;
                let out = driver.run_inference(
                    port,
                    memory,
                    stager,
                    &prompt,
                    layout::DEV_INPUT,
                    layout::DEV_OUTPUT,
                );
                stager.release_all();
                out
            })
            .map_err(ccai_core::WorkloadError::from)
        } else {
            self.sys
                .load_model(weights)
                .and_then(|()| self.sys.run_inference(&prompt))
        };
        let host = Timing::since(t0);
        let sim_picos = virtual_picos(&self.sys) - sim0;
        let expected = CommandProcessor::surrogate_inference(weights, &prompt);
        OpResult {
            host,
            bytes: (weights.len() + prompt.len() + expected.len()) as u64,
            ok: out.is_ok_and(|r| r[..] == expected[..]),
            sim_picos,
        }
    }

    fn instrument(&mut self) {
        instrument(&mut self.sys);
    }

    fn each_system(&mut self, f: &mut dyn FnMut(&mut ConfidentialSystem)) {
        f(&mut self.sys);
    }

    fn renew(&mut self) {
        self.sys = build_system(self.mode);
    }
}

/// `model_load` workload entry point. Sessions of 32 ops: every op adds
/// key schedules to the program's unbounded per-stream cipher caches,
/// so a session bounds how much memory a run holds (and the session
/// set-ups spread `setup_s` samples across the run).
pub fn model_load(args: &Args) -> Outcome {
    run_datapath(args, |mode| ModelLoad::new(args.seed, mode), 32, 8)
}

/// `interactive`: a 4-replica sharded fleet serving ShareGPT prompts
/// round-robin over 8 tenants.
struct Interactive {
    mode: SystemMode,
    fleet: ShardedFleet,
    model: Vec<u8>,
    prompts: PromptGenerator,
}

fn deploy(model: &[u8], mode: SystemMode) -> ShardedFleet {
    ShardedFleet::deploy(XpuSpec::a100(), mode, model, FLEET_REPLICAS).expect("fleet deploys")
}

impl Interactive {
    fn new(seed: u64, mode: SystemMode) -> Self {
        let model = SimRng::seed_from(seed).bytes(FLEET_MODEL_BYTES);
        Interactive {
            mode,
            fleet: deploy(&model, mode),
            model,
            prompts: PromptGenerator::sharegpt_like(seed),
        }
    }
}

impl Datapath for Interactive {
    fn op(&mut self, i: u64, traced: bool) -> OpResult {
        let tenant = TENANT_BASE + (i % u64::from(TENANTS)) as u32;
        let prompt = prompt_bytes(&mut self.prompts);
        let home = self.fleet.shard_of(tenant);
        let sim0 = virtual_picos(self.fleet.shard_system(home));
        let t0 = Instant::now();
        let out = if traced {
            trace::span(Layer::FleetServe, || self.fleet.serve(tenant, &prompt))
        } else {
            self.fleet.serve(tenant, &prompt)
        };
        let host = Timing::since(t0);
        let sim_picos = virtual_picos(self.fleet.shard_system(home)) - sim0;
        let expected = CommandProcessor::surrogate_inference(&self.model, &prompt);
        OpResult {
            host,
            bytes: (prompt.len() + expected.len()) as u64,
            ok: out.is_ok_and(|r| r[..] == expected[..]),
            sim_picos,
        }
    }

    fn instrument(&mut self) {
        for id in self.fleet.replica_ids() {
            instrument(self.fleet.shard_system_mut(id));
        }
    }

    fn each_system(&mut self, f: &mut dyn FnMut(&mut ConfidentialSystem)) {
        for id in self.fleet.replica_ids() {
            f(self.fleet.shard_system_mut(id));
        }
    }

    fn renew(&mut self) {
        self.fleet = deploy(&self.model, self.mode);
    }
}

/// `interactive` workload entry point. Sessions of 2000 requests: each
/// request leaves ~110 KiB of key schedules in the program's unbounded
/// per-stream cipher caches, so a session bounds a run's memory.
pub fn interactive(args: &Args) -> Outcome {
    run_datapath(args, |mode| Interactive::new(args.seed, mode), 2000, 2000)
}
