//! Wall-clock spans around the datapath's public trait boundaries.
//!
//! The traced run swaps timing delegates in at each layer boundary the
//! program exposes: [`Interposer`] (the PCIe-SC), [`PcieDevice`] (the
//! xPU), [`TlpPort`] (the Adaptor port plus fabric routing),
//! [`DmaStager`] (the Adaptor's seal/recover path) and [`HostMemory`]
//! (guest memory as the fabric's DMA sees it). Every delegate forwards
//! every trait method — including `on_upstream_batch`, so the SC keeps
//! its batched fast path, and `as_any`/`as_any_mut`, so owners still
//! downcast to the concrete type — and wraps the call in a nested span.
//!
//! A layer's self time is its spans' durations minus the time their
//! child spans cover. Spans are kept in memory (up to [`SPAN_CAP`]) and
//! written out once, when the benchmark ends.

use ccai_pcie::{Bdf, ConfigSpace, HostMemory, InterposeOutcome, Interposer, PcieDevice, Tlp};
use ccai_tvm::stager::IntegrityError;
use ccai_tvm::{DmaStager, GuestMemory, StagedBuffer, TlpPort};
use std::any::Any;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept for the span log; later spans still count in the totals.
pub const SPAN_CAP: usize = 200_000;

/// A layer boundary the traced run times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark op itself, driving the unmodified driver: its self
    /// time is the driver's (TVM side) work.
    Driver,
    /// `ShardedFleet::serve` as a whole: its self time is fleet routing
    /// plus the Adaptor, fabric and driver work inside each replica,
    /// which no public boundary separates.
    FleetServe,
    /// `DmaStager::stage_to_device` on the Adaptor (seal + staging).
    AdaptorStage,
    /// `DmaStager::recover_from_device` on the Adaptor (open + copy-out).
    AdaptorRecover,
    /// The Adaptor's other stager calls (landing allocation, release,
    /// failed-transfer cleanup).
    AdaptorOther,
    /// `TlpPort::request`/`pump`: Adaptor MMIO tagging plus fabric routing.
    Port,
    /// The PCIe-SC interposer (filter, open, seal).
    Sc,
    /// The xPU endpoint (registers, DMA engine, surrogate kernel).
    Xpu,
    /// Guest memory as the fabric's DMA sees it.
    Memory,
}

const LAYER_COUNT: usize = 9;

impl Layer {
    /// Name used in the span log.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "tvm.driver",
            Layer::FleetServe => "llm.fleet.serve",
            Layer::AdaptorStage => "core.adaptor.stage",
            Layer::AdaptorRecover => "core.adaptor.recover",
            Layer::AdaptorOther => "core.adaptor.other",
            Layer::Port => "pcie.fabric",
            Layer::Sc => "core.sc",
            Layer::Xpu => "xpu",
            Layer::Memory => "tvm.guest_memory",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Event counts recorded at the same boundaries as the spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// TLPs handed to the SC (either direction).
    ScTlps,
    /// `PcieDevice::handle` calls on the xPU.
    XpuHandle,
    /// `PcieDevice::poll_outbound` calls on the xPU.
    XpuPoll,
    /// Read completions delivered to the xPU's DMA engine.
    XpuCompletions,
    /// `TlpPort::pump` calls.
    PumpCalls,
    /// TLPs those pumps moved.
    PumpTlps,
    /// Bytes guest memory served to or took from device DMA.
    MemBytes,
    /// Payload bytes the Adaptor staged to the device.
    StageBytes,
    /// Payload bytes the Adaptor recovered from the device.
    RecoverBytes,
}

const COUNTS: usize = 9;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    op: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

struct Frame {
    layer: Layer,
    start: Instant,
    child_ns: u64,
    span: Option<u32>,
}

/// Per-layer totals of a traced run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    self_ns: [u64; LAYER_COUNT],
    calls: [u64; LAYER_COUNT],
    counts: [u64; COUNTS],
}

impl Totals {
    /// Self time of `layer`, in milliseconds.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer.index()] as f64 / 1e6
    }

    /// Spans recorded for `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer.index()]
    }

    /// Value of one event count.
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }

    /// Self time summed over every layer, in milliseconds.
    pub fn total_self_ms(&self) -> f64 {
        self.self_ns.iter().sum::<u64>() as f64 / 1e6
    }
}

struct Tracer {
    epoch: Instant,
    op: u64,
    stack: Vec<Frame>,
    totals: Totals,
    spans: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        epoch: Instant::now(),
        op: 0,
        stack: Vec::new(),
        totals: Totals::default(),
        spans: Vec::new(),
    });
}

/// Runs `f` inside a span of `layer`, nested under the innermost open
/// span.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.stack.last().and_then(|frame| frame.span);
        let span = if t.spans.len() < SPAN_CAP {
            let op = t.op;
            t.spans.push(Span {
                layer,
                op,
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            Some((t.spans.len() - 1) as u32)
        } else {
            None
        };
        t.stack.push(Frame {
            layer,
            start: Instant::now(),
            child_ns: 0,
            span,
        });
    });
    let out = f();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let end = Instant::now();
        let frame = t.stack.pop().expect("span stack balanced");
        let total = end.duration_since(frame.start).as_nanos() as u64;
        let i = frame.layer.index();
        t.totals.self_ns[i] += total.saturating_sub(frame.child_ns);
        t.totals.calls[i] += 1;
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += total;
        }
        if let Some(idx) = frame.span {
            let start_ns = frame.start.duration_since(t.epoch).as_nanos() as u64;
            let end_ns = end.duration_since(t.epoch).as_nanos() as u64;
            let s = &mut t.spans[idx as usize];
            s.start_ns = start_ns;
            s.end_ns = end_ns;
        }
    });
    out
}

/// Adds `n` to an event count.
pub fn count(count: Count, n: u64) {
    TRACER.with(|t| t.borrow_mut().totals.counts[count as usize] += n);
}

/// Tags the spans that follow with op number `op`.
pub fn set_op(op: u64) {
    TRACER.with(|t| t.borrow_mut().op = op);
}

/// Totals recorded so far.
pub fn totals() -> Totals {
    TRACER.with(|t| t.borrow().totals)
}

/// The span log as CSV (`op,layer,parent,start_ns,end_ns`; `parent` is
/// the row index of the enclosing span, empty for a root).
pub fn span_log_csv() -> String {
    TRACER.with(|t| {
        let t = t.borrow();
        let mut out = String::from("op,layer,parent,start_ns,end_ns\n");
        for s in &t.spans {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.op,
                s.layer.name(),
                parent,
                s.start_ns,
                s.end_ns
            );
        }
        out
    })
}

/// Timing delegate for the PCIe-SC (or any interposer).
#[derive(Debug)]
pub struct TimedInterposer(pub Box<dyn Interposer>);

impl Interposer for TimedInterposer {
    fn on_downstream(&mut self, tlp: Tlp) -> InterposeOutcome {
        count(Count::ScTlps, 1);
        span(Layer::Sc, || self.0.on_downstream(tlp))
    }

    fn on_upstream(&mut self, tlp: Tlp) -> InterposeOutcome {
        count(Count::ScTlps, 1);
        span(Layer::Sc, || self.0.on_upstream(tlp))
    }

    fn on_upstream_batch(&mut self, tlps: Vec<Tlp>) -> InterposeOutcome {
        count(Count::ScTlps, tlps.len() as u64);
        span(Layer::Sc, || self.0.on_upstream_batch(tlps))
    }

    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
}

/// Timing delegate for the xPU endpoint.
#[derive(Debug)]
pub struct TimedDevice(pub Box<dyn PcieDevice>);

impl PcieDevice for TimedDevice {
    fn bdf(&self) -> Bdf {
        self.0.bdf()
    }

    fn config_space(&self) -> &ConfigSpace {
        self.0.config_space()
    }

    fn config_space_mut(&mut self) -> &mut ConfigSpace {
        self.0.config_space_mut()
    }

    fn handle(&mut self, tlp: Tlp) -> Vec<Tlp> {
        count(Count::XpuHandle, 1);
        span(Layer::Xpu, || self.0.handle(tlp))
    }

    fn poll_outbound(&mut self) -> Vec<Tlp> {
        count(Count::XpuPoll, 1);
        span(Layer::Xpu, || self.0.poll_outbound())
    }

    fn deliver_completion(&mut self, tlp: Tlp) {
        count(Count::XpuCompletions, 1);
        span(Layer::Xpu, || self.0.deliver_completion(tlp));
    }

    fn as_any(&self) -> Option<&dyn Any> {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        self.0.as_any_mut()
    }
}

/// Timing delegate for the driver's TLP port.
#[derive(Debug)]
pub struct TimedPort<'a>(pub &'a mut dyn TlpPort);

impl TlpPort for TimedPort<'_> {
    fn request(&mut self, tlp: Tlp) -> Vec<Tlp> {
        span(Layer::Port, || self.0.request(tlp))
    }

    fn pump(&mut self, memory: &mut dyn HostMemory) -> usize {
        let moved = span(Layer::Port, || self.0.pump(&mut TimedMemory(memory)));
        count(Count::PumpCalls, 1);
        count(Count::PumpTlps, moved as u64);
        moved
    }
}

/// Timing delegate for host memory as device DMA reaches it.
pub struct TimedMemory<'a>(pub &'a mut dyn HostMemory);

impl HostMemory for TimedMemory<'_> {
    fn dma_read(&mut self, requester: Bdf, addr: u64, len: usize) -> Option<Vec<u8>> {
        count(Count::MemBytes, len as u64);
        span(Layer::Memory, || self.0.dma_read(requester, addr, len))
    }

    fn dma_write(&mut self, requester: Bdf, addr: u64, data: &[u8]) -> bool {
        count(Count::MemBytes, data.len() as u64);
        span(Layer::Memory, || self.0.dma_write(requester, addr, data))
    }

    fn dma_read_into(&mut self, requester: Bdf, addr: u64, len: usize, out: &mut Vec<u8>) -> bool {
        count(Count::MemBytes, len as u64);
        span(Layer::Memory, || {
            self.0.dma_read_into(requester, addr, len, out)
        })
    }
}

/// Timing delegate for the Adaptor's staging path.
#[derive(Debug)]
pub struct TimedStager<'a>(pub &'a mut dyn DmaStager);

impl DmaStager for TimedStager<'_> {
    fn stage_to_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        data: &[u8],
    ) -> StagedBuffer {
        count(Count::StageBytes, data.len() as u64);
        span(Layer::AdaptorStage, || {
            self.0.stage_to_device(port, memory, data)
        })
    }

    fn alloc_from_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        len: u64,
    ) -> StagedBuffer {
        span(Layer::AdaptorOther, || {
            self.0.alloc_from_device(port, memory, len)
        })
    }

    fn recover_from_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        buffer: StagedBuffer,
    ) -> Result<Vec<u8>, IntegrityError> {
        count(Count::RecoverBytes, buffer.len);
        span(Layer::AdaptorRecover, || {
            self.0.recover_from_device(port, memory, buffer)
        })
    }

    fn transfer_failed(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        buffer: &StagedBuffer,
    ) {
        span(Layer::AdaptorOther, || {
            self.0.transfer_failed(port, memory, buffer)
        });
    }

    fn release_all(&mut self) {
        span(Layer::AdaptorOther, || self.0.release_all());
    }
}
