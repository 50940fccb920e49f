//! `fleet_sweep`: the analytic fleet server on a ladder of offered rates.
//!
//! `FleetServer` with `FleetConfig::standard(seed)` runs an open loop in
//! virtual time — arrivals follow their schedule, so the generator is
//! never late — at each rate of [`LADDER`]; one ladder point is one
//! host-timed op. The first sweep yields the virtual-time metrics (worst
//! tenant p99 and ccAI's share of service time at the nominal rate, the
//! knee) and a trace digest per point; the sweep then repeats until
//! `--seconds` is up, each repeat timed on the host and checked
//! bit-identical against the first.

use crate::calib::{Calibration, Timing};
use crate::datapath::{checked_schema, probes, push_layers, EndToEnd, HostOp, Layers, HOPS};
use crate::{Args, Outcome};
use ccai_core::Hop;
use ccai_llm::serve::ArrivalProcess;
use ccai_llm::{FleetConfig, FleetServer, FleetSnapshot};
use ccai_sim::SimDuration;
use std::time::{Duration, Instant};

/// Offered rates (requests per virtual second, all tenants together),
/// finest around the knee.
const LADDER: [u32; 10] = [60, 80, 90, 95, 100, 105, 110, 115, 120, 133];
/// The rate `sim_p99_ms` and the per-layer serving figures come from.
const NOMINAL_RPS: u32 = 100;
/// Requests generated at every ladder point.
const REQUESTS_PER_POINT: u64 = 100_000;
/// The worst tenant's p99 limit that defines the knee.
const P99_LIMIT_MS: f64 = 1_000.0;
/// A point past the knee sheds more than this share of some tenant's
/// requests, in percent: sheds count as misses.
const SHED_LIMIT_PCT: u64 = 1;
/// A point's backlog grows if it ends the arrival phase this many
/// requests above where it stood halfway through.
const GROWTH_SLACK: usize = 128;
/// Ladder set-ups per timed batch: one takes microseconds, so each
/// set-up sample is a batch's mean. One batch is timed before the first
/// sweep and one before every sweep after it.
const SETUPS_PER_BATCH: usize = 100;
/// Bytes per token id.
const TOKEN_BYTES: u64 = 4;

fn config(seed: u64, rps: u32) -> FleetConfig {
    let mut config = FleetConfig::standard(seed);
    let gap = SimDuration::from_secs_f64(config.tenants.len() as f64 / f64::from(rps));
    for tenant in &mut config.tenants {
        tenant.mean_interarrival = gap;
    }
    config
}

/// The first sweep's view of one ladder point.
struct Detail {
    /// Worst tenant's e2e p99 of its served requests, in ms.
    worst_p99_ms: f64,
    /// Some tenant shed more than [`SHED_LIMIT_PCT`] of its requests.
    shedding: bool,
    /// Every tenant served at least one request.
    all_served: bool,
    growing: bool,
    conserved: bool,
    /// Hub span + idle over fleet time (1.0 for a hub that tracks fleet
    /// time).
    hub_skew: f64,
    report: FleetSnapshot,
}

/// One ladder point's run.
struct PointRun {
    generated: u64,
    digest: u64,
    detail: Option<Detail>,
}

/// Runs one ladder point, pushing its host time (arrivals through
/// drain), its requests and their token `bytes` to `ops`: the host-side
/// op of this workload is one point.
fn run_point(seed: u64, rps: u32, bytes: u64, ops: &mut Vec<HostOp>, detail: bool) -> PointRun {
    let mut server = FleetServer::new(config(seed, rps));
    let t0 = Instant::now();
    server.generate(REQUESTS_PER_POINT / 2);
    let mid_backlog = server.backlog();
    server.generate(REQUESTS_PER_POINT);
    let end_backlog = server.backlog();
    server.drain();
    ops.push(HostOp {
        t: Timing::since(t0),
        requests: server.generated() as f64,
        bytes: bytes as f64,
    });
    let detail = detail.then(|| {
        let report = server.report();
        let conserved = report.tenants.iter().all(|t| {
            t.queued == 0
                && t.generated
                    == t.served + t.shed_rate_limited + t.shed_queue_full + t.shed_quarantined
        });
        let worst_p99_ms = report
            .tenants
            .iter()
            .filter_map(|t| t.e2e_us.as_ref().map(|e2e| e2e.p99() / 1e3))
            .fold(0.0, f64::max);
        let shedding = report
            .tenants
            .iter()
            .any(|t| t.generated.saturating_sub(t.served) * 100 > SHED_LIMIT_PCT * t.generated);
        let hub = report.telemetry.span_total.as_picos() as f64
            + report.telemetry.idle_total.as_picos() as f64;
        Detail {
            worst_p99_ms,
            shedding,
            all_served: report.tenants.iter().all(|t| t.e2e_us.is_some()),
            growing: end_backlog > mid_backlog + GROWTH_SLACK,
            conserved,
            hub_skew: hub / server.now().as_picos() as f64,
            report,
        }
    });
    PointRun {
        generated: server.generated(),
        digest: server.telemetry().digest(),
        detail,
    }
}

/// Token bytes of a point's requests.
fn token_bytes(seed: u64, rps: u32) -> u64 {
    let config = config(seed, rps);
    let loads: Vec<_> = config
        .tenants
        .iter()
        .map(|t| (t.tag, t.mean_interarrival))
        .collect();
    let mut arrivals = ArrivalProcess::new(config.seed, &loads);
    (0..REQUESTS_PER_POINT)
        .map(|_| {
            let req = arrivals.next_request();
            u64::from(req.input_tokens + req.output_tokens) * TOKEN_BYTES
        })
        .sum()
}

/// ccAI's virtual-time overhead as the fleet server records it: the
/// protection-only hops (Adaptor crypt, SC filter) over the other
/// service hops (staging, link, compute at the round's batch size) of
/// the served requests, in percent. Staging and link also carry some
/// ccAI cost (SC interaction, tag traffic) the hops do not separate, so
/// this is a lower bound.
fn protection_pct(report: &FleetSnapshot) -> f64 {
    let (mut protection, mut rest) = (0.0, 0.0);
    for h in &report.telemetry.hops {
        let picos = h.total.as_picos() as f64;
        match h.hop {
            Hop::AdaptorCrypt | Hop::ScFilter | Hop::ScCrypt => protection += picos,
            _ => rest += picos,
        }
    }
    protection / rest * 100.0
}

/// `fleet_sweep` workload entry point.
pub fn fleet_sweep(args: &Args) -> Outcome {
    let seed = args.seed;
    let bytes: Vec<u64> = LADDER.iter().map(|&rps| token_bytes(seed, rps)).collect();
    let time_setups = |setups: &mut Vec<Timing>| {
        let t0 = Instant::now();
        for _ in 0..SETUPS_PER_BATCH {
            let servers: Vec<_> = LADDER
                .iter()
                .map(|&rps| FleetServer::new(config(seed, rps)))
                .collect();
            std::hint::black_box(servers);
        }
        let batch = Timing::since(t0);
        setups.push(Timing {
            secs: batch.secs / SETUPS_PER_BATCH as f64,
            ..batch
        });
    };
    let mut calib = Calibration::new();
    let mut setups = Vec::new();
    calib.burst();
    time_setups(&mut setups);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut ops = Vec::new();
    let first: Vec<PointRun> = LADDER
        .iter()
        .zip(&bytes)
        .map(|(&rps, &b)| {
            calib.tick();
            run_point(seed, rps, b, &mut ops, true)
        })
        .collect();
    let mut out = Outcome {
        checks_passed: true,
        ..Outcome::default()
    };
    let mut sweeps = 1;
    for run in &first {
        out.attempted += run.generated;
    }
    while Instant::now() < deadline {
        calib.tick();
        time_setups(&mut setups);
        for ((&rps, &b), reference) in LADDER.iter().zip(&bytes).zip(&first) {
            calib.tick();
            let run = run_point(seed, rps, b, &mut ops, false);
            out.attempted += run.generated;
            if run.digest != reference.digest {
                println!(
                    "CHECK FAILED: {rps} rps digest {:016x} != {:016x}",
                    run.digest, reference.digest
                );
                out.failed += run.generated;
            }
        }
        sweeps += 1;
    }
    calib.burst();
    let busy_s: f64 = ops.iter().map(|o| o.t.secs).sum();

    println!(
        "rps  worst_p99_ms  shedding  growing  served  shed_rate_limited  shed_queue_full  hub_clock_skew  digest"
    );
    let mut knee = 0;
    let mut knee_open = true;
    let mut nominal = None;
    let (mut shed_rl, mut shed_qf) = (0, 0);
    for (&rps, run) in LADDER.iter().zip(&first) {
        let d = run.detail.as_ref().expect("the first sweep keeps details");
        let served: u64 = d.report.tenants.iter().map(|t| t.served).sum();
        let rl: u64 = d.report.tenants.iter().map(|t| t.shed_rate_limited).sum();
        let qf: u64 = d.report.tenants.iter().map(|t| t.shed_queue_full).sum();
        shed_rl += rl;
        shed_qf += qf;
        println!(
            "{rps:>3}  {:>12.3}  {:>8}  {:>7}  {served:>6}  {rl:>17}  {qf:>15}  {:>14.6e}  {:016x}",
            d.worst_p99_ms, d.shedding, d.growing, d.hub_skew, run.digest
        );
        if !d.conserved {
            println!("CHECK FAILED: {rps} rps breaks generated == served + shed");
            out.checks_passed = false;
            out.failed += run.generated;
        }
        knee_open &= d.worst_p99_ms <= P99_LIMIT_MS && !d.shedding && !d.growing;
        if knee_open {
            knee = rps;
        }
        if rps == NOMINAL_RPS {
            nominal = Some(d);
        }
    }
    let nominal = nominal.expect("the ladder holds the nominal rate");
    if !nominal.all_served {
        println!("CHECK FAILED: a tenant is served nothing at {NOMINAL_RPS} rps");
        out.checks_passed = false;
    }
    println!(
        "telemetry schema {}",
        checked_schema(&nominal.report.telemetry)
    );
    println!(
        "{sweeps} sweeps, {} simulated requests in {busy_s:.3} s host; knee {knee} rps",
        out.attempted
    );

    if args.trace {
        let mut layers = Layers::new();
        let report = &nominal.report;
        let served: u64 = report.tenants.iter().map(|t| t.served).sum();
        layers.insert(
            "llm.serve.host_us_per_req",
            busy_s * 1e6 / out.attempted as f64,
        );
        layers.insert("llm.serve.rounds", report.rounds as f64);
        layers.insert("llm.serve.mean_batch", served as f64 / report.rounds as f64);
        layers.insert("llm.serve.knee_rps", f64::from(knee));
        let worst = |f: fn(&ccai_sim::Summary) -> f64| {
            report
                .tenants
                .iter()
                .filter_map(|t| t.queue_delay_us.as_ref().map(f))
                .fold(0.0, f64::max)
                / 1e3
        };
        layers.insert(
            "llm.serve.queue_delay_p50_ms",
            worst(ccai_sim::Summary::p50),
        );
        layers.insert(
            "llm.serve.queue_delay_p99_ms",
            worst(ccai_sim::Summary::p99),
        );
        layers.insert("llm.serve.shed_rate_limited", shed_rl as f64);
        layers.insert("llm.serve.shed_queue_full", shed_qf as f64);
        layers.insert("llm.serve.hub_clock_skew", nominal.hub_skew);
        for (hop, name) in HOPS {
            let total = report
                .telemetry
                .hops
                .iter()
                .find(|h| h.hop == hop)
                .map_or(0.0, |h| h.total.as_picos() as f64);
            layers.insert(name, total / 1e6 / served as f64);
        }
        layers.insert(
            "sim.events_recorded",
            report.telemetry.events_recorded as f64 / served as f64,
        );
        probes(&mut layers);
        push_layers(&mut out, &layers);
        return out;
    }

    EndToEnd {
        calib: &calib,
        setups: &setups,
        ops: &ops,
        sim_overhead_pct: protection_pct(&nominal.report),
        sim_p99_ms: nominal.worst_p99_ms,
    }
    .push_into(&mut out);
    out
}
