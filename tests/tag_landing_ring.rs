//! The D2H tag landing buffer is a ring shared by the PCIe-SC (writer)
//! and the Adaptor (reader): one long-lived system keeps reading device
//! memory back well past the point where the ring wraps.

use ccai_core::handler::TAG_RING_RECORDS;
use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_xpu::XpuSpec;

/// 4 MiB per read-back: 1024 chunks of 4 KiB, one tag record each.
const READ_LEN: u64 = 4 << 20;

#[test]
fn one_system_reads_back_past_two_tag_ring_wraps() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let model: Vec<u8> = (0..READ_LEN).map(|i| (i * 131 % 251) as u8).collect();
    system.load_model(&model).unwrap();

    let chunks_per_read = READ_LEN / 4096;
    let reads = (2 * TAG_RING_RECORDS).div_ceil(chunks_per_read) + 1;
    let (driver, fabric, memory, stager, adaptor) = system.parts();
    let adaptor = adaptor.expect("ccAI mode has an Adaptor");
    let mut port = adaptor.port(fabric);
    for read in 0..reads {
        let data = driver
            .dma_from_device(&mut port, memory, stager, layout::DEV_WEIGHTS, READ_LEN)
            .unwrap_or_else(|e| panic!("read-back {read} failed: {e}"));
        assert!(data == model, "read-back {read} returned different bytes");
        stager.release_all();
    }
    drop(port);
    assert!(reads * chunks_per_read > 2 * TAG_RING_RECORDS);
    assert!(system.sc().unwrap().alerts().is_empty());
}
