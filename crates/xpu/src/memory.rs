//! On-device memory.
//!
//! A flat byte store with a simple region allocator (weights, activations,
//! KV cache, command buffers) and a [`DeviceMemory::wipe`] path used by
//! the xPU environment guard's cold-boot reset (§4.2): "cleaning its
//! memory, caches, registers, and TLB status".

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A named allocation inside device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Start offset in device memory.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }

    /// True if `addr` falls inside the region.
    pub fn contains(&self, addr: u64) -> bool {
        (self.base..self.end()).contains(&addr)
    }
}

/// Errors from device-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Not enough free space for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        free: u64,
    },
    /// An access fell outside the device memory.
    OutOfBounds {
        /// Offending address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// Allocation name already in use.
    NameTaken(String),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory { requested, free } => {
                write!(f, "out of device memory: requested {requested}, free {free}")
            }
            MemoryError::OutOfBounds { addr, len } => {
                write!(f, "device memory access out of bounds: {addr:#x}+{len}")
            }
            MemoryError::NameTaken(name) => write!(f, "region name already used: {name}"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Device memory with named-region bump allocation.
///
/// Backing storage is allocated lazily in sparse 64 KiB chunks so an
/// "80 GiB" A100 model does not actually reserve 80 GiB of host RAM.
///
/// [`DeviceMemory::digest_range`] hashes a range in place and remembers
/// the last result, so a model resident across many inferences is hashed
/// once per load. The memo is host-side bookkeeping only: it is never
/// serialized and the three mutators of the backing store — `write`,
/// `wipe` and `restore_snapshot` — invalidate it.
///
/// # Example
///
/// ```
/// use ccai_xpu::DeviceMemory;
///
/// let mut mem = DeviceMemory::new(1 << 20);
/// let weights = mem.alloc("weights", 4096)?;
/// mem.write(weights.base, &[7; 16])?;
/// assert_eq!(mem.read(weights.base, 16)?, vec![7; 16]);
/// # Ok::<(), ccai_xpu::memory::MemoryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: u64,
    next_free: u64,
    regions: BTreeMap<String, Region>,
    chunks: BTreeMap<u64, Vec<u8>>,
    /// Last [`DeviceMemory::digest_range`] result: `(addr, len, digest)`.
    memo: Option<(u64, u64, [u8; 32])>,
    /// Range digests actually computed (memo misses).
    range_hashes: u64,
}

const CHUNK: u64 = 64 * 1024;

/// What a never-materialised chunk reads as.
static ZERO_CHUNK: [u8; CHUNK as usize] = [0; CHUNK as usize];

impl DeviceMemory {
    /// Creates device memory of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "device memory capacity must be positive");
        DeviceMemory {
            capacity,
            next_free: 0,
            regions: BTreeMap::new(),
            chunks: BTreeMap::new(),
            memo: None,
            range_hashes: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated to regions.
    pub fn allocated(&self) -> u64 {
        self.next_free
    }

    /// Bytes still available.
    pub fn free(&self) -> u64 {
        self.capacity - self.next_free
    }

    /// Fraction of capacity allocated (0.0–1.0).
    pub fn utilization(&self) -> f64 {
        self.next_free as f64 / self.capacity as f64
    }

    /// Allocates a named region of `len` bytes (64-byte aligned).
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfMemory`] if insufficient space remains,
    /// [`MemoryError::NameTaken`] if the name is already allocated.
    pub fn alloc(&mut self, name: &str, len: u64) -> Result<Region, MemoryError> {
        if self.regions.contains_key(name) {
            return Err(MemoryError::NameTaken(name.to_string()));
        }
        let base = (self.next_free + 63) & !63;
        if base + len > self.capacity {
            return Err(MemoryError::OutOfMemory { requested: len, free: self.free() });
        }
        let region = Region { base, len };
        self.next_free = base + len;
        self.regions.insert(name.to_string(), region);
        Ok(region)
    }

    /// Looks up a named region.
    pub fn region(&self, name: &str) -> Option<Region> {
        self.regions.get(name).copied()
    }

    /// Frees *all* regions and zeroes the backing store — the cold-boot
    /// reset the xPU environment guard triggers when a task terminates.
    pub fn wipe(&mut self) {
        self.regions.clear();
        self.chunks.clear();
        self.next_free = 0;
        self.memo = None;
    }

    /// SHA-256 digest of the memory *content*: every non-zero 64 KiB
    /// chunk hashed in address order as `base_be || bytes`. All-zero
    /// chunks are skipped, so a wiped memory digests identically to one
    /// that was never written — the differential check the
    /// fault-injection suite uses to prove recovery is lossless.
    pub fn content_digest(&self) -> [u8; 32] {
        let mut hasher = ccai_crypto::Sha256::new();
        for (base, chunk) in &self.chunks {
            if chunk.iter().all(|&b| b == 0) {
                continue;
            }
            hasher.update(&base.to_be_bytes());
            hasher.update(chunk);
        }
        let mut out = [0u8; 32];
        out.copy_from_slice(hasher.finalize().as_bytes());
        out
    }

    fn check(&self, addr: u64, len: u64) -> Result<(), MemoryError> {
        if addr.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(MemoryError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// Writes bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemoryError> {
        self.check(addr, data.len() as u64)?;
        let end = addr + data.len() as u64;
        if self
            .memo
            .is_some_and(|(base, len, _)| addr < end && addr < base + len && base < end)
        {
            self.memo = None;
        }
        let mut offset = 0usize;
        while offset < data.len() {
            let pos = addr + offset as u64;
            let chunk_base = pos / CHUNK * CHUNK;
            let within = (pos - chunk_base) as usize;
            let take = ((CHUNK as usize) - within).min(data.len() - offset);
            let chunk = self
                .chunks
                .entry(chunk_base)
                .or_insert_with(|| vec![0; CHUNK as usize]);
            chunk[within..within + take].copy_from_slice(&data[offset..offset + take]);
            offset += take;
        }
        Ok(())
    }

    /// Reads `len` bytes at `addr` (unwritten memory reads as zero).
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemoryError> {
        self.check(addr, len)?;
        let mut out = vec![0u8; len as usize];
        let mut offset = 0usize;
        while offset < out.len() {
            let pos = addr + offset as u64;
            let chunk_base = pos / CHUNK * CHUNK;
            let within = (pos - chunk_base) as usize;
            let take = ((CHUNK as usize) - within).min(out.len() - offset);
            if let Some(chunk) = self.chunks.get(&chunk_base) {
                out[offset..offset + take].copy_from_slice(&chunk[within..within + take]);
            }
            offset += take;
        }
        Ok(out)
    }

    /// SHA-256 of `[addr, addr+len)`, computed in place over the chunk
    /// map (never-written chunks hash as zeros) and remembered until a
    /// mutation could change it. Equal to `sha256(&self.read(addr, len)?)`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub fn digest_range(&mut self, addr: u64, len: u64) -> Result<[u8; 32], MemoryError> {
        if let Some((base, memo_len, digest)) = self.memo {
            if (base, memo_len) == (addr, len) {
                return Ok(digest);
            }
        }
        let digest = self.hash_range(addr, len)?;
        self.memo = Some((addr, len, digest));
        self.range_hashes += 1;
        Ok(digest)
    }

    /// SHA-256 of `[addr, addr+len)` computed in place, without touching
    /// the [`DeviceMemory::digest_range`] memo.
    pub(crate) fn hash_range(&self, addr: u64, len: u64) -> Result<[u8; 32], MemoryError> {
        self.check(addr, len)?;
        let mut hasher = ccai_crypto::Sha256::new();
        let end = addr + len;
        let mut pos = addr;
        while pos < end {
            let chunk_base = pos / CHUNK * CHUNK;
            let within = (pos - chunk_base) as usize;
            let take = ((chunk_base + CHUNK).min(end) - pos) as usize;
            let chunk = self.chunks.get(&chunk_base).map_or(&ZERO_CHUNK[..], Vec::as_slice);
            hasher.update(&chunk[within..within + take]);
            pos += take as u64;
        }
        Ok(*hasher.finalize().as_bytes())
    }

    /// Range digests [`DeviceMemory::digest_range`] has computed rather
    /// than answered from its memo.
    pub fn range_hashes(&self) -> u64 {
        self.range_hashes
    }

    /// True if every byte of backing storage is zero — used by tests to
    /// prove the environment guard left no residue.
    pub fn is_zeroed(&self) -> bool {
        self.chunks.values().all(|c| c.iter().all(|&b| b == 0))
    }
}

impl DeviceMemory {
    /// Serializes the memory image: allocator cursor, named regions and
    /// every lazily-materialised chunk (in address order). The capacity is
    /// included so a snapshot can only be restored onto a like-sized part.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.u64(self.capacity);
        enc.u64(self.next_free);
        enc.u64(self.regions.len() as u64);
        for (name, region) in &self.regions {
            enc.str(name);
            enc.u64(region.base);
            enc.u64(region.len);
        }
        enc.u64(self.chunks.len() as u64);
        for (base, chunk) in &self.chunks {
            enc.u64(*base);
            enc.bytes(chunk);
        }
    }

    /// Restores a memory image captured by [`DeviceMemory::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::snapshot::SnapshotError`] on malformed input, a
    /// capacity mismatch, or chunks that do not fit the address space.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        use ccai_sim::snapshot::SnapshotError;
        let capacity = dec.u64()?;
        if capacity != self.capacity {
            return Err(SnapshotError::Invalid("device memory capacity mismatch"));
        }
        let next_free = dec.u64()?;
        if next_free > capacity {
            return Err(SnapshotError::Invalid("allocator cursor past capacity"));
        }
        let n_regions = dec.seq_len()?;
        let mut regions = BTreeMap::new();
        for _ in 0..n_regions {
            let name = dec.str()?.to_string();
            let base = dec.u64()?;
            let len = dec.u64()?;
            if base.checked_add(len).is_none_or(|end| end > capacity) {
                return Err(SnapshotError::Invalid("region out of bounds"));
            }
            regions.insert(name, Region { base, len });
        }
        let n_chunks = dec.seq_len()?;
        let mut chunks = BTreeMap::new();
        for _ in 0..n_chunks {
            let base = dec.u64()?;
            let data = dec.bytes()?;
            if data.len() as u64 != CHUNK || !base.is_multiple_of(CHUNK) || base >= capacity {
                return Err(SnapshotError::Invalid("malformed memory chunk"));
            }
            chunks.insert(base, data);
        }
        self.next_free = next_free;
        self.regions = regions;
        self.chunks = chunks;
        self.memo = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_round_trip() {
        let mut mem = DeviceMemory::new(1 << 20);
        let r = mem.alloc("weights", 1000).unwrap();
        mem.write(r.base, b"hello xpu").unwrap();
        assert_eq!(mem.read(r.base, 9).unwrap(), b"hello xpu");
    }

    #[test]
    fn allocations_do_not_overlap_and_are_aligned() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc("a", 100).unwrap();
        let b = mem.alloc("b", 100).unwrap();
        assert!(a.end() <= b.base);
        assert_eq!(b.base % 64, 0);
    }

    #[test]
    fn oom_reports_free_space() {
        let mut mem = DeviceMemory::new(1024);
        mem.alloc("a", 1000).unwrap();
        match mem.alloc("b", 100) {
            Err(MemoryError::OutOfMemory { requested: 100, free }) => {
                assert!(free < 100);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut mem = DeviceMemory::new(1024);
        mem.alloc("x", 10).unwrap();
        assert!(matches!(mem.alloc("x", 10), Err(MemoryError::NameTaken(_))));
    }

    #[test]
    fn out_of_bounds_rw_rejected() {
        let mut mem = DeviceMemory::new(100);
        assert!(matches!(mem.write(90, &[0; 20]), Err(MemoryError::OutOfBounds { .. })));
        assert!(matches!(mem.read(u64::MAX, 2), Err(MemoryError::OutOfBounds { .. })));
    }

    #[test]
    fn sparse_chunks_span_boundaries() {
        let mut mem = DeviceMemory::new(1 << 20);
        let addr = CHUNK - 5; // straddles two chunks
        mem.write(addr, &[9; 10]).unwrap();
        assert_eq!(mem.read(addr, 10).unwrap(), vec![9; 10]);
        assert_eq!(mem.read(addr - 1, 1).unwrap(), vec![0]);
    }

    #[test]
    fn huge_capacity_is_lazy() {
        // "80 GiB" without 80 GiB of RAM.
        let mut mem = DeviceMemory::new(80 << 30);
        mem.write(79 << 30, &[1]).unwrap();
        assert_eq!(mem.read(79 << 30, 1).unwrap(), vec![1]);
        assert!(mem.chunks.len() < 4);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut mem = DeviceMemory::new(1 << 20);
        let r = mem.alloc("secret", 64).unwrap();
        mem.write(r.base, &[0xAA; 64]).unwrap();
        assert!(!mem.is_zeroed());
        mem.wipe();
        assert!(mem.is_zeroed());
        assert_eq!(mem.allocated(), 0);
        assert!(mem.region("secret").is_none());
        assert_eq!(mem.read(r.base, 64).unwrap(), vec![0; 64]);
    }

    fn snapshot_of(mem: &DeviceMemory) -> Vec<u8> {
        let mut enc = ccai_sim::snapshot::Encoder::new();
        mem.encode_snapshot(&mut enc);
        enc.finish()
    }

    #[test]
    fn digest_range_memo_survives_disjoint_and_adjacent_writes() {
        let mut mem = DeviceMemory::new(4 * CHUNK);
        let (base, len) = (CHUNK - 100, 300);
        mem.write(base, &[5; 300]).unwrap();
        let digest = mem.digest_range(base, len).unwrap();
        assert_eq!(digest, *ccai_crypto::sha256(&[5; 300]).as_bytes());
        // Touching either neighbour byte, or writing nothing, keeps the memo.
        mem.write(base - 4, &[1; 4]).unwrap();
        mem.write(base + len, &[1; 4]).unwrap();
        mem.write(base + 10, &[]).unwrap();
        assert_eq!(mem.digest_range(base, len).unwrap(), digest);
        assert_eq!(mem.range_hashes(), 1);
        // One overlapping byte at either end drops it.
        mem.write(base - 1, &[9; 2]).unwrap();
        assert_ne!(mem.digest_range(base, len).unwrap(), digest);
        mem.write(base + len - 1, &[9]).unwrap();
        mem.digest_range(base, len).unwrap();
        assert_eq!(mem.range_hashes(), 3);
    }

    #[test]
    fn digest_range_rejects_out_of_bounds() {
        let mut mem = DeviceMemory::new(CHUNK);
        assert!(matches!(
            mem.digest_range(CHUNK - 1, 2),
            Err(MemoryError::OutOfBounds { .. })
        ));
        assert!(matches!(mem.digest_range(u64::MAX, 2), Err(MemoryError::OutOfBounds { .. })));
        assert_eq!(mem.range_hashes(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Differential oracle for the resident-range memo: after any
        /// interleaving of writes (overlapping, adjacent, straddling chunk
        /// edges, into never-materialised chunks), wipes, snapshot
        /// restores and clones, `digest_range` equals `sha256(read(..))`.
        #[test]
        fn digest_range_matches_read_then_hash(
            ops in proptest::collection::vec(
                (0u8..8, 0usize..6, 0u64..6000, 0usize..9000, proptest::prelude::any::<u8>()),
                1..40,
            ),
        ) {
            // The tracked range straddles the first chunk edge and ends in
            // a chunk that is only materialised if a write reaches it.
            let (base, len) = (CHUNK - 3000, CHUNK + 5000);
            let anchors = [0, base, CHUNK, base + len, 2 * CHUNK, 3 * CHUNK + 17];
            let mut mem = DeviceMemory::new(4 * CHUNK);
            let mut saved = snapshot_of(&mem);
            for (kind, anchor, jitter, size, fill) in ops {
                match kind {
                    0..=3 => {
                        // Write near an anchor: below it for even jitter,
                        // from it for odd, clipped to capacity.
                        let at = if jitter % 2 == 0 {
                            anchors[anchor].saturating_sub(jitter)
                        } else {
                            anchors[anchor] + jitter
                        }
                        .min(mem.capacity());
                        let size = size.min((mem.capacity() - at) as usize);
                        mem.write(at, &vec![fill; size]).unwrap();
                    }
                    4 => mem.wipe(),
                    5 => saved = snapshot_of(&mem),
                    6 => {
                        let mut dec = ccai_sim::snapshot::Decoder::new(&saved);
                        mem.restore_snapshot(&mut dec).unwrap();
                    }
                    _ => mem = mem.clone(),
                }
                let expected = *ccai_crypto::sha256(&mem.read(base, len).unwrap()).as_bytes();
                proptest::prop_assert_eq!(mem.digest_range(base, len).unwrap(), expected);
                let (a, l) = (anchors[anchor], jitter);
                if a + l <= mem.capacity() {
                    let plain = *ccai_crypto::sha256(&mem.read(a, l).unwrap()).as_bytes();
                    proptest::prop_assert_eq!(mem.hash_range(a, l).unwrap(), plain);
                }
            }
        }
    }

    #[test]
    fn utilization_tracks_allocation() {
        let mut mem = DeviceMemory::new(1000);
        assert_eq!(mem.utilization(), 0.0);
        mem.alloc("half", 500).unwrap();
        assert!((mem.utilization() - 0.5).abs() < 0.01);
    }
}
