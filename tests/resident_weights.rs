//! The xPU hashes its resident weights once per load, and any change to
//! them — a host write through the BAR1 device-memory aperture or a
//! direct device-memory write — is seen by the very next inference.

use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_pcie::{PortId, Tlp};
use ccai_xpu::device::BAR1_SIZE;
use ccai_xpu::{CommandProcessor, Xpu, XpuSpec};

fn xpu_mut(system: &mut ConfidentialSystem) -> &mut Xpu {
    system
        .fabric_mut()
        .device_mut(PortId(0))
        .and_then(|device| device.as_any_mut())
        .and_then(|any| any.downcast_mut::<Xpu>())
        .expect("xPU on port 0")
}

fn weight_hashes(system: &mut ConfidentialSystem) -> u64 {
    xpu_mut(system).memory().range_hashes()
}

#[test]
fn tampered_resident_weights_change_the_next_inference() {
    for mode in [SystemMode::Vanilla, SystemMode::CcAi] {
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), mode);
        // Straddles a 64 KiB device-memory chunk edge.
        let mut weights: Vec<u8> = (0..100_000u32).map(|i| (i * 17 % 241) as u8).collect();
        let prompt = b"resident weights are hashed once".to_vec();
        system.load_model(&weights).unwrap();
        for _ in 0..3 {
            let result = system.run_inference(&prompt).unwrap();
            let expected = CommandProcessor::surrogate_inference(&weights, &prompt);
            assert_eq!(result, expected, "{mode:?}");
        }
        assert_eq!(weight_hashes(&mut system), 1, "{mode:?}: one hash for three inferences");

        // 1) A host write through the BAR1 aperture (A4 pass-through).
        let offset = 70_000;
        weights[offset] ^= 0xFF;
        let bar1 = layout::XPU_BAR_BASE + BAR1_SIZE;
        let tvm = system.tvm_bdf();
        system.fabric_mut().host_request(Tlp::memory_write(
            tvm,
            bar1 + layout::DEV_WEIGHTS + offset as u64,
            vec![weights[offset]],
        ));
        for _ in 0..2 {
            let result = system.run_inference(&prompt).unwrap();
            let expected = CommandProcessor::surrogate_inference(&weights, &prompt);
            assert_eq!(result, expected, "{mode:?}");
        }
        assert_eq!(weight_hashes(&mut system), 2, "{mode:?}: re-hashed once after the write");

        // 2) A direct write into device memory.
        weights[3] ^= 0x01;
        xpu_mut(&mut system)
            .memory_mut()
            .write(layout::DEV_WEIGHTS + 3, &[weights[3]])
            .unwrap();
        let result = system.run_inference(&prompt).unwrap();
        assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &prompt), "{mode:?}");
        assert_eq!(weight_hashes(&mut system), 3, "{mode:?}");
    }
}
