//! Sparse byte-addressable data memory.
//!
//! Each simulated process owns one [`SparseMemory`], allocated lazily in 4 KiB
//! chunks. The memory stores functional values only — timing is the job of the
//! cache hierarchy in `memsys`. Reads of never-written locations return zero.

use simkit::addr::VirtAddr;
use simkit::fastmap::FastMap;

use crate::inst::MemWidth;

/// Size of each lazily-allocated chunk.
const CHUNK_BYTES: u64 = 4096;

/// A sparse, byte-addressable, zero-initialised memory.
///
/// # Example
///
/// ```
/// use uarch_isa::mem::SparseMemory;
/// use uarch_isa::inst::MemWidth;
/// use simkit::addr::VirtAddr;
///
/// let mut mem = SparseMemory::new();
/// mem.write(VirtAddr::new(0x1000), 0xdead_beef, MemWidth::Word);
/// assert_eq!(mem.read(VirtAddr::new(0x1000), MemWidth::Word), 0xdead_beef);
/// assert_eq!(mem.read(VirtAddr::new(0x2000), MemWidth::Double), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMemory {
    chunks: FastMap<u64, Box<[u8; CHUNK_BYTES as usize]>>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        SparseMemory::default()
    }

    /// Reads `width` bytes at `addr`, little-endian, zero-extended to 64 bits.
    ///
    /// An access that stays inside one chunk costs a single chunk lookup;
    /// only an access straddling two chunks falls back to byte steps.
    pub fn read(&self, addr: VirtAddr, width: MemWidth) -> u64 {
        if let Some((chunk, offset, len)) = Self::within_chunk(addr, width) {
            let Some(bytes) = self.chunks.get(&chunk) else {
                return 0;
            };
            let mut buf = [0u8; 8];
            buf[..len].copy_from_slice(&bytes[offset..offset + len]);
            return u64::from_le_bytes(buf);
        }
        let mut value = 0u64;
        for i in 0..width.bytes() {
            let byte = self.read_byte(addr.raw().wrapping_add(i));
            value |= (byte as u64) << (8 * i);
        }
        value
    }

    /// Writes the low `width` bytes of `value` at `addr`, little-endian.
    pub fn write(&mut self, addr: VirtAddr, value: u64, width: MemWidth) {
        if let Some((chunk, offset, len)) = Self::within_chunk(addr, width) {
            let bytes = self.chunk_mut(chunk);
            bytes[offset..offset + len].copy_from_slice(&value.to_le_bytes()[..len]);
            return;
        }
        for i in 0..width.bytes() {
            let byte = ((value >> (8 * i)) & 0xff) as u8;
            self.write_byte(addr.raw().wrapping_add(i), byte);
        }
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: VirtAddr, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_byte(addr.raw().wrapping_add(i as u64), *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: VirtAddr, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_byte(addr.raw().wrapping_add(i as u64)))
            .collect()
    }

    /// Number of chunks that have been touched (allocated).
    pub fn allocated_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// `(chunk, offset, length)` of an access that lies wholly inside one
    /// chunk, or `None` when it straddles a chunk boundary.
    fn within_chunk(addr: VirtAddr, width: MemWidth) -> Option<(u64, usize, usize)> {
        let addr = addr.raw();
        let offset = addr % CHUNK_BYTES;
        let len = width.bytes();
        (offset + len <= CHUNK_BYTES).then_some((addr / CHUNK_BYTES, offset as usize, len as usize))
    }

    fn chunk_mut(&mut self, chunk: u64) -> &mut [u8; CHUNK_BYTES as usize] {
        self.chunks
            .entry(chunk)
            .or_insert_with(|| Box::new([0u8; CHUNK_BYTES as usize]))
    }

    fn read_byte(&self, addr: u64) -> u8 {
        let chunk = addr / CHUNK_BYTES;
        let offset = (addr % CHUNK_BYTES) as usize;
        self.chunks.get(&chunk).map(|c| c[offset]).unwrap_or(0)
    }

    fn write_byte(&mut self, addr: u64, value: u8) {
        let chunk = addr / CHUNK_BYTES;
        let offset = (addr % CHUNK_BYTES) as usize;
        self.chunk_mut(chunk)[offset] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = SparseMemory::new();
        assert_eq!(mem.read(VirtAddr::new(0x1234_5678), MemWidth::Double), 0);
        assert_eq!(mem.allocated_chunks(), 0);
    }

    #[test]
    fn round_trip_all_widths() {
        let mut mem = SparseMemory::new();
        let addr = VirtAddr::new(0x4000);
        for (width, mask) in [
            (MemWidth::Byte, 0xffu64),
            (MemWidth::Half, 0xffff),
            (MemWidth::Word, 0xffff_ffff),
            (MemWidth::Double, u64::MAX),
        ] {
            mem.write(addr, 0x1122_3344_5566_7788, width);
            assert_eq!(mem.read(addr, width), 0x1122_3344_5566_7788 & mask);
        }
    }

    #[test]
    fn writes_cross_chunk_boundaries() {
        let mut mem = SparseMemory::new();
        let addr = VirtAddr::new(CHUNK_BYTES - 4);
        mem.write(addr, 0xaabb_ccdd_eeff_0011, MemWidth::Double);
        assert_eq!(mem.read(addr, MemWidth::Double), 0xaabb_ccdd_eeff_0011);
        assert_eq!(mem.allocated_chunks(), 2);
    }

    #[test]
    fn every_width_round_trips_at_every_offset_across_a_chunk_boundary() {
        // Start 8 bytes before the boundary and end past it, so each width is
        // exercised wholly inside the first chunk, straddling the boundary
        // and wholly inside the second chunk; the byte view must agree.
        let widths = [
            MemWidth::Byte,
            MemWidth::Half,
            MemWidth::Word,
            MemWidth::Double,
        ];
        for width in widths {
            let mask = match width.bytes() {
                8 => u64::MAX,
                n => (1u64 << (8 * n)) - 1,
            };
            for start in CHUNK_BYTES - 8..=CHUNK_BYTES {
                let mut mem = SparseMemory::new();
                let addr = VirtAddr::new(start);
                let value = 0x8877_6655_4433_2211u64 ^ start;
                mem.write(addr, value, width);
                assert_eq!(
                    mem.read(addr, width),
                    value & mask,
                    "{width:?} at {start:#x}"
                );
                let bytes = mem.read_bytes(addr, width.bytes() as usize);
                assert_eq!(bytes, (value & mask).to_le_bytes()[..bytes.len()].to_vec());
                // Neighbouring bytes stay zero; reads spanning them see it.
                assert_eq!(mem.read(VirtAddr::new(start - 1), MemWidth::Byte), 0);
                let after = VirtAddr::new(start + width.bytes());
                assert_eq!(mem.read(after, MemWidth::Byte), 0);
                let spanning = mem.read(VirtAddr::new(start - 4), MemWidth::Double);
                assert_eq!(spanning, (value & mask) << 32);
                let chunks = if start + width.bytes() > CHUNK_BYTES && start < CHUNK_BYTES {
                    2
                } else {
                    1
                };
                assert_eq!(mem.allocated_chunks(), chunks, "{width:?} at {start:#x}");
            }
        }
    }

    #[test]
    fn unwritten_chunk_reads_zero_without_allocating() {
        let mut mem = SparseMemory::new();
        mem.write(VirtAddr::new(CHUNK_BYTES - 2), 0xbeef, MemWidth::Half);
        assert_eq!(
            mem.read(VirtAddr::new(CHUNK_BYTES - 2), MemWidth::Double),
            0xbeef
        );
        assert_eq!(mem.read(VirtAddr::new(5 * CHUNK_BYTES), MemWidth::Word), 0);
        assert_eq!(mem.allocated_chunks(), 1);
    }

    #[test]
    fn byte_slices_round_trip() {
        let mut mem = SparseMemory::new();
        let data: Vec<u8> = (0..100).collect();
        mem.write_bytes(VirtAddr::new(0x9000), &data);
        assert_eq!(mem.read_bytes(VirtAddr::new(0x9000), 100), data);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = SparseMemory::new();
        mem.write(VirtAddr::new(0x100), 0x0102_0304, MemWidth::Word);
        assert_eq!(mem.read(VirtAddr::new(0x100), MemWidth::Byte), 0x04);
        assert_eq!(mem.read(VirtAddr::new(0x103), MemWidth::Byte), 0x01);
    }
}
