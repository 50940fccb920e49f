//! MIG-style device partitioning (§9 "PCIe-SC for multiple xPUs and
//! users").
//!
//! "The PCIe-SC distinguishes each xPU, or virtual functions on a xPU,
//! by unique PCIe identifiers (e.g., Bus/Device/Function ID)." This
//! module models a multi-instance accelerator: one physical endpoint
//! exposing N virtual functions, each with its own function number,
//! register window, DMA engine, command processor, and hard memory
//! quota — so a multi-tenant security controller can key policy and
//! crypto per VF.
//!
//! Drivers bind to a VF exactly as to a whole device: same register
//! layout, same programming model, a per-VF BAR window slice.

use crate::command::{Command, CommandProcessor};
use crate::dma::{DmaDirection, DmaEngine, DmaRequest};
use crate::memory::DeviceMemory;
use crate::registers::{Reg, RegisterFile, RESET_MAGIC};
use crate::spec::XpuSpec;
use ccai_pcie::{
    device::handle_config_access, Bdf, ConfigSpace, CplStatus, PcieDevice, Tlp, TlpType,
};
use std::fmt;

/// Per-VF register window stride within BAR0.
pub const VF_BAR0_STRIDE: u64 = 0x1_0000;

/// Per-VF aperture size within BAR1.
pub const VF_BAR1_STRIDE: u64 = 1 << 24; // 16 MiB per instance

struct VfState {
    bdf: Bdf,
    registers: RegisterFile,
    memory: DeviceMemory,
    dma: DmaEngine,
    commands: CommandProcessor,
    interrupt_pending: bool,
}

impl VfState {
    fn register_write(&mut self, reg: Reg, value: u64) {
        self.registers.write(reg, value);
        match reg {
            Reg::DmaCtrl => {
                let direction = match value {
                    1 => DmaDirection::HostToDevice,
                    2 => DmaDirection::DeviceToHost,
                    _ => return,
                };
                let request = DmaRequest {
                    direction,
                    host_addr: match direction {
                        DmaDirection::HostToDevice => self.registers.read(Reg::DmaSrc),
                        DmaDirection::DeviceToHost => self.registers.read(Reg::DmaDst),
                    },
                    device_addr: match direction {
                        DmaDirection::HostToDevice => self.registers.read(Reg::DmaDst),
                        DmaDirection::DeviceToHost => self.registers.read(Reg::DmaSrc),
                    },
                    len: self.registers.read(Reg::DmaLen),
                };
                if request.len == 0 {
                    return;
                }
                self.dma.start(request, &mut self.memory);
                self.sync_dma_status();
            }
            Reg::CmdDoorbell => {
                let command = match value {
                    1 => Command::LoadModel {
                        addr: self.registers.read(Reg::CmdArg0),
                        len: self.registers.read(Reg::CmdArg1),
                    },
                    2 => Command::RunInference {
                        input: self.registers.read(Reg::CmdArg0),
                        len: self.registers.read(Reg::CmdArg1),
                        output: self.registers.read(Reg::CmdArg2),
                    },
                    _ => return,
                };
                let status = self.commands.execute(command, &mut self.memory);
                self.registers.write(Reg::CmdStatus, status.to_code());
                self.interrupt_pending = true;
            }
            Reg::ResetCtrl
                if value == RESET_MAGIC => {
                    // A VF reset wipes ONLY this instance's slice — the
                    // isolation property MIG provides.
                    self.memory.wipe();
                    self.registers.wipe();
                    self.dma.wipe();
                    self.commands.wipe();
                }
            _ => {}
        }
    }

    fn sync_dma_status(&mut self) {
        self.registers
            .write(Reg::DmaStatus, self.dma.status().to_code());
        if matches!(
            self.dma.status(),
            crate::dma::DmaStatus::Done | crate::dma::DmaStatus::Error
        ) {
            self.interrupt_pending = true;
        }
    }
}

/// A multi-instance xPU: one endpoint, N virtual functions.
pub struct PartitionedXpu {
    spec: XpuSpec,
    pf_bdf: Bdf,
    config: ConfigSpace,
    bar0_base: u64,
    bar1_base: u64,
    vfs: Vec<VfState>,
}

impl fmt::Debug for PartitionedXpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionedXpu")
            .field("spec", &self.spec.name())
            .field("vfs", &self.vfs.len())
            .finish()
    }
}

impl PartitionedXpu {
    /// Creates a device at `pf_bdf` (function 0) with `vf_count` virtual
    /// functions (functions 1..=vf_count), each with an equal memory
    /// quota.
    ///
    /// # Panics
    ///
    /// Panics if `vf_count` is 0 or greater than 7 (the function-number
    /// width), or if `bar_base` is not 256 MiB-aligned.
    pub fn new(spec: XpuSpec, pf_bdf: Bdf, bar_base: u64, vf_count: u8) -> PartitionedXpu {
        assert!((1..=7).contains(&vf_count), "1-7 virtual functions");
        assert_eq!(pf_bdf.function(), 0, "PF must be function 0");
        assert_eq!(bar_base % crate::device::BAR1_SIZE, 0, "BAR base alignment");
        let mut config = ConfigSpace::new(0x10DE, 0x20B7);
        let bar1_base = bar_base + crate::device::BAR1_SIZE;
        config.set_bar(0, bar_base, crate::device::BAR0_SIZE);
        config.set_bar(2, bar1_base, crate::device::BAR1_SIZE);

        let quota = spec.memory_bytes() / vf_count as u64;
        let vfs = (1..=vf_count)
            .map(|i| {
                let bdf = Bdf::new(pf_bdf.bus(), pf_bdf.device(), i);
                VfState {
                    bdf,
                    registers: RegisterFile::with_layout(spec.vendor(), 0),
                    memory: DeviceMemory::new(quota),
                    dma: DmaEngine::new(bdf),
                    commands: CommandProcessor::new(),
                    interrupt_pending: false,
                }
            })
            .collect();

        PartitionedXpu { spec, pf_bdf, config, bar0_base: bar_base, bar1_base, vfs }
    }

    /// The device spec.
    pub fn spec(&self) -> &XpuSpec {
        &self.spec
    }

    /// Number of virtual functions.
    pub fn vf_count(&self) -> usize {
        self.vfs.len()
    }

    /// The BDF of VF `index` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn vf_bdf(&self, index: usize) -> Bdf {
        self.vfs[index].bdf
    }

    /// Base of VF `index`'s register window within BAR0.
    pub fn vf_bar0(&self, index: usize) -> u64 {
        self.bar0_base + index as u64 * VF_BAR0_STRIDE
    }

    /// Base of VF `index`'s aperture window within BAR1.
    pub fn vf_bar1(&self, index: usize) -> u64 {
        self.bar1_base + index as u64 * VF_BAR1_STRIDE
    }

    /// The VF's register layout (all VFs share the vendor layout).
    pub fn vf_registers(&self, index: usize) -> &RegisterFile {
        &self.vfs[index].registers
    }

    /// The full host-address window the device decodes.
    pub fn address_window(&self) -> std::ops::Range<u64> {
        self.bar0_base..self.bar1_base + crate::device::BAR1_SIZE
    }

    /// Direct access to a VF's memory slice, for assertions.
    pub fn vf_memory(&self, index: usize) -> &DeviceMemory {
        &self.vfs[index].memory
    }

    fn vf_for_bar0(&mut self, offset: u64) -> Option<(&mut VfState, u64)> {
        let index = (offset / VF_BAR0_STRIDE) as usize;
        let within = offset % VF_BAR0_STRIDE;
        self.vfs.get_mut(index).map(|vf| (vf, within))
    }

    fn vf_for_bar1(&mut self, offset: u64) -> Option<(&mut VfState, u64)> {
        let index = (offset / VF_BAR1_STRIDE) as usize;
        let within = offset % VF_BAR1_STRIDE;
        self.vfs.get_mut(index).map(|vf| (vf, within))
    }
}

impl PcieDevice for PartitionedXpu {
    fn bdf(&self) -> Bdf {
        self.pf_bdf
    }

    fn config_space(&self) -> &ConfigSpace {
        &self.config
    }

    fn config_space_mut(&mut self) -> &mut ConfigSpace {
        &mut self.config
    }

    fn handle(&mut self, tlp: Tlp) -> Vec<Tlp> {
        if let Some(cpl) = handle_config_access(self, &tlp) {
            return vec![cpl];
        }
        let header = *tlp.header();
        let Some(addr) = header.address() else {
            return Vec::new();
        };
        let pf_bdf = self.pf_bdf;

        if (self.bar0_base..self.bar0_base + crate::device::BAR0_SIZE).contains(&addr) {
            let offset = addr - self.bar0_base;
            let Some((vf, within)) = self.vf_for_bar0(offset) else {
                return Vec::new();
            };
            match header.tlp_type() {
                TlpType::MemWrite => {
                    if let Some(reg) = vf.registers.reg_at(within) {
                        let mut bytes = [0u8; 8];
                        let payload = tlp.payload();
                        let n = payload.len().min(8);
                        bytes[..n].copy_from_slice(&payload[..n]);
                        vf.register_write(reg, u64::from_le_bytes(bytes));
                    }
                    Vec::new()
                }
                TlpType::MemRead => {
                    let value = vf
                        .registers
                        .reg_at(within)
                        .map(|reg| vf.registers.read(reg))
                        .unwrap_or(0);
                    let len = (header.payload_len() as usize).min(8);
                    vec![Tlp::completion_with_data(
                        vf.bdf,
                        header.requester(),
                        header.tag(),
                        value.to_le_bytes()[..len].to_vec(),
                    )]
                }
                _ => vec![Tlp::completion(
                    pf_bdf,
                    header.requester(),
                    header.tag(),
                    CplStatus::UnsupportedRequest,
                )],
            }
        } else if (self.bar1_base..self.bar1_base + crate::device::BAR1_SIZE).contains(&addr) {
            let offset = addr - self.bar1_base;
            let Some((vf, within)) = self.vf_for_bar1(offset) else {
                return Vec::new();
            };
            match header.tlp_type() {
                TlpType::MemWrite => {
                    let _ = vf.memory.write(within, tlp.payload());
                    Vec::new()
                }
                TlpType::MemRead => match vf.memory.read(within, header.payload_len() as u64) {
                    Ok(data) => vec![Tlp::completion_with_data(
                        vf.bdf,
                        header.requester(),
                        header.tag(),
                        data,
                    )],
                    Err(_) => vec![Tlp::completion(
                        vf.bdf,
                        header.requester(),
                        header.tag(),
                        CplStatus::UnsupportedRequest,
                    )],
                },
                _ => Vec::new(),
            }
        } else if header.tlp_type().is_read() {
            vec![Tlp::completion(
                pf_bdf,
                header.requester(),
                header.tag(),
                CplStatus::UnsupportedRequest,
            )]
        } else {
            Vec::new()
        }
    }

    fn poll_outbound(&mut self) -> Vec<Tlp> {
        let mut out = Vec::new();
        for vf in &mut self.vfs {
            out.extend(vf.dma.poll_outbound());
            if vf.interrupt_pending {
                vf.interrupt_pending = false;
                out.push(Tlp::message(vf.bdf, 0x20));
            }
        }
        out
    }

    fn deliver_completion(&mut self, tlp: Tlp) {
        // Route by the original requester: each VF's DMA engine issued
        // reads under its own BDF.
        let requester = tlp.header().requester();
        if let Some(vf) = self.vfs.iter_mut().find(|vf| vf.bdf == requester) {
            vf.dma.deliver_completion(tlp, &mut vf.memory);
            vf.sync_dma_status();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_pcie::{Fabric, PortId, VecHostMemory};

    fn host() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn setup() -> (Fabric, VecHostMemory, PartitionedXpu) {
        let xpu = PartitionedXpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, 2);
        (Fabric::new(), VecHostMemory::new(1 << 20), xpu)
    }

    fn attach(fabric: &mut Fabric, xpu: PartitionedXpu) -> (u64, u64, RegisterFile) {
        let window = xpu.address_window();
        let regs = xpu.vf_registers(0).clone();
        let (b0, b1) = (xpu.bar0_base, xpu.bar1_base);
        for i in 0..xpu.vf_count() {
            fabric.map_bdf(xpu.vf_bdf(i), PortId(0));
        }
        fabric.attach(PortId(0), Box::new(xpu));
        fabric.map_range(window, PortId(0));
        let _ = (b0, b1);
        (0x8000_0000, 0x8000_0000 + crate::device::BAR1_SIZE, regs)
    }

    #[test]
    fn vf_bdfs_are_distinct_functions() {
        let (_, _, xpu) = setup();
        assert_eq!(xpu.vf_bdf(0), Bdf::new(0x17, 0, 1));
        assert_eq!(xpu.vf_bdf(1), Bdf::new(0x17, 0, 2));
        assert_eq!(xpu.vf_count(), 2);
    }

    #[test]
    fn vfs_have_isolated_memory_windows() {
        let (mut fabric, _mem, xpu) = setup();
        let vf0_win = xpu.vf_bar1(0);
        let vf1_win = xpu.vf_bar1(1);
        attach(&mut fabric, xpu);
        fabric.host_request(Tlp::memory_write(host(), vf0_win, vec![0xAA; 16]));
        fabric.host_request(Tlp::memory_write(host(), vf1_win, vec![0xBB; 16]));
        let r0 = fabric.host_request(Tlp::memory_read(host(), vf0_win, 16, 0));
        let r1 = fabric.host_request(Tlp::memory_read(host(), vf1_win, 16, 1));
        assert_eq!(r0[0].payload(), &[0xAA; 16]);
        assert_eq!(r1[0].payload(), &[0xBB; 16]);
        // Completions carry the owning VF's BDF — what a multi-tenant SC
        // keys on.
        assert_eq!(r0[0].header().completer(), Some(Bdf::new(0x17, 0, 1)));
        assert_eq!(r1[0].header().completer(), Some(Bdf::new(0x17, 0, 2)));
    }

    #[test]
    fn per_vf_dma_uses_the_vf_requester_id() {
        let (mut fabric, mut mem, xpu) = setup();
        let vf1_regs_base = xpu.vf_bar0(1);
        let regs = xpu.vf_registers(1).clone();
        let vf1 = xpu.vf_bdf(1);
        attach(&mut fabric, xpu);

        mem.as_mut_slice()[0x100..0x110].fill(0x5C);
        let write_reg = |fabric: &mut Fabric, reg: Reg, value: u64| {
            fabric.host_request(Tlp::memory_write(
                host(),
                vf1_regs_base + regs.offset(reg),
                value.to_le_bytes().to_vec(),
            ));
        };
        write_reg(&mut fabric, Reg::DmaSrc, 0x100);
        write_reg(&mut fabric, Reg::DmaDst, 0);
        write_reg(&mut fabric, Reg::DmaLen, 16);

        // Snoop the requester of the DMA read.
        let adversary = ccai_pcie::BusAdversary::new();
        fabric.add_tap(adversary.tap());
        write_reg(&mut fabric, Reg::DmaCtrl, 1);
        while fabric.pump(&mut mem) > 0 {}
        let reads = adversary.log().of_type(TlpType::MemRead).len();
        assert!(reads >= 1);
        assert!(adversary
            .log()
            .observed
            .iter()
            .any(|(t, _)| t.header().tlp_type() == TlpType::MemRead
                && t.header().requester() == vf1));
    }

    #[test]
    fn vf_reset_wipes_only_that_instance() {
        let (mut fabric, _mem, xpu) = setup();
        let vf0_win = xpu.vf_bar1(0);
        let vf1_win = xpu.vf_bar1(1);
        let vf0_regs = xpu.vf_bar0(0);
        let regs = xpu.vf_registers(0).clone();
        attach(&mut fabric, xpu);

        fabric.host_request(Tlp::memory_write(host(), vf0_win, vec![0xAA; 8]));
        fabric.host_request(Tlp::memory_write(host(), vf1_win, vec![0xBB; 8]));
        fabric.host_request(Tlp::memory_write(
            host(),
            vf0_regs + regs.offset(Reg::ResetCtrl),
            RESET_MAGIC.to_le_bytes().to_vec(),
        ));
        let r0 = fabric.host_request(Tlp::memory_read(host(), vf0_win, 8, 0));
        let r1 = fabric.host_request(Tlp::memory_read(host(), vf1_win, 8, 1));
        assert_eq!(r0[0].payload(), &[0u8; 8], "VF0 wiped");
        assert_eq!(r1[0].payload(), &[0xBB; 8], "VF1 untouched");
    }

    #[test]
    fn vf_inference_is_independent() {
        let (mut fabric, mut mem, xpu) = setup();
        let wins: Vec<u64> = (0..2).map(|i| xpu.vf_bar1(i)).collect();
        let reg_bases: Vec<u64> = (0..2).map(|i| xpu.vf_bar0(i)).collect();
        let regs = xpu.vf_registers(0).clone();
        attach(&mut fabric, xpu);

        for (i, (win, reg_base)) in wins.iter().zip(reg_bases.iter()).enumerate() {
            let weights = format!("weights-{i}").into_bytes();
            let input = format!("input-{i}").into_bytes();
            fabric.host_request(Tlp::memory_write(host(), win + 0x1000, weights.clone()));
            fabric.host_request(Tlp::memory_write(host(), win + 0x2000, input.clone()));
            let wr = |fabric: &mut Fabric, reg: Reg, value: u64| {
                fabric.host_request(Tlp::memory_write(
                    host(),
                    reg_base + regs.offset(reg),
                    value.to_le_bytes().to_vec(),
                ));
            };
            wr(&mut fabric, Reg::CmdArg0, 0x1000);
            wr(&mut fabric, Reg::CmdArg1, weights.len() as u64);
            wr(&mut fabric, Reg::CmdDoorbell, 1);
            wr(&mut fabric, Reg::CmdArg0, 0x2000);
            wr(&mut fabric, Reg::CmdArg1, input.len() as u64);
            wr(&mut fabric, Reg::CmdArg2, 0x3000);
            wr(&mut fabric, Reg::CmdDoorbell, 2);
            let result = fabric.host_request(Tlp::memory_read(host(), win + 0x3000, 32, 7));
            assert_eq!(
                result[0].payload(),
                CommandProcessor::surrogate_inference(&weights, &input),
                "VF {i}"
            );
        }
        while fabric.pump(&mut mem) > 0 {}
        assert!(fabric.drain_host_inbox().len() >= 2, "per-VF interrupts");
    }

    #[test]
    fn vf_inference_sees_weights_rewritten_through_its_window() {
        let (mut fabric, _mem, xpu) = setup();
        let (win, reg_base) = (xpu.vf_bar1(1), xpu.vf_bar0(1));
        let regs = xpu.vf_registers(1).clone();
        attach(&mut fabric, xpu);
        let wr = |fabric: &mut Fabric, reg: Reg, value: u64| {
            fabric.host_request(Tlp::memory_write(
                host(),
                reg_base + regs.offset(reg),
                value.to_le_bytes().to_vec(),
            ));
        };
        let mut weights = vec![0x3C; 4000];
        let input = b"vf prompt".to_vec();
        fabric.host_request(Tlp::memory_write(host(), win + 0x1000, weights.clone()));
        fabric.host_request(Tlp::memory_write(host(), win + 0x4000, input.clone()));
        wr(&mut fabric, Reg::CmdArg0, 0x1000);
        wr(&mut fabric, Reg::CmdArg1, weights.len() as u64);
        wr(&mut fabric, Reg::CmdDoorbell, 1);
        for round in 0..3 {
            if round == 2 {
                weights[3999] = 0xC3;
                fabric.host_request(Tlp::memory_write(host(), win + 0x1000 + 3999, vec![0xC3]));
            }
            wr(&mut fabric, Reg::CmdArg0, 0x4000);
            wr(&mut fabric, Reg::CmdArg1, input.len() as u64);
            wr(&mut fabric, Reg::CmdArg2, 0x6000);
            wr(&mut fabric, Reg::CmdDoorbell, 2);
            let result = fabric.host_request(Tlp::memory_read(host(), win + 0x6000, 32, 7));
            assert_eq!(
                result[0].payload(),
                CommandProcessor::surrogate_inference(&weights, &input),
                "round {round}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "1-7 virtual functions")]
    fn zero_vfs_rejected() {
        let _ = PartitionedXpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, 0);
    }
}
