//! Physical memory and frame allocation.
//!
//! Physical memory is sparse: 4 KiB frames materialize on first touch.
//! The [`FrameAllocator`] hands out frames for process images, backup
//! pages (the delta-backup engine allocates backup frames on demand,
//! §3.3.1 of the paper) and kernel structures.

use std::collections::HashMap;

/// Size of a physical frame / virtual page in bytes.
pub const PAGE_SIZE: u32 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// One materialized frame: contents plus a host-side write epoch.
#[derive(Debug)]
struct Frame {
    data: Box<[u8; PAGE_SIZE as usize]>,
    /// Bumped on every mutable borrow of the frame. Host-visible
    /// cache-validation data (translation-trace pinning), never part of
    /// [`PhysMemState`].
    epoch: u64,
}

/// Byte-addressable sparse physical memory.
///
/// Reads from never-written frames return zeros, mirroring how the
/// simulator's RAM powers up.
#[derive(Debug, Default)]
pub struct PhysicalMemory {
    frames: HashMap<u32, Frame>,
    /// Bumped on wholesale replacement ([`PhysicalMemory::restore_state`])
    /// so epoch-keyed caches know their per-frame entries are stale.
    generation: u64,
}

impl PhysicalMemory {
    /// Creates empty physical memory.
    #[must_use]
    pub fn new() -> PhysicalMemory {
        PhysicalMemory::default()
    }

    fn frame_mut(&mut self, ppn: u32) -> &mut [u8; PAGE_SIZE as usize] {
        let f = self
            .frames
            .entry(ppn)
            .or_insert_with(|| Frame { data: Box::new([0; PAGE_SIZE as usize]), epoch: 0 });
        f.epoch += 1;
        &mut f.data
    }

    /// Restore generation: bumped whenever the whole memory image is
    /// replaced, invalidating any cache keyed on frame epochs.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Write epoch of frame `ppn`: bumped by every write that touches
    /// the frame, `0` for never-materialized frames. Host-side
    /// cache-validation data (the superblock engine pins code frames by
    /// epoch, the replica digest caches frame hashes by it), not
    /// simulated state. Epochs reset on
    /// [`PhysicalMemory::restore_state`], so always pair them with
    /// [`PhysicalMemory::generation`].
    #[must_use]
    pub fn frame_epoch(&self, ppn: u32) -> u64 {
        self.frames.get(&ppn).map_or(0, |f| f.epoch)
    }

    /// Sum of [`PhysicalMemory::frame_epoch`] over every frame the byte
    /// range `[paddr, paddr + len)` touches. Epochs are monotonic, so
    /// any write anywhere in the range changes the sum — a cheap
    /// range-dirty query for pinned code ranges.
    #[must_use]
    pub fn range_epoch(&self, paddr: u32, len: u32) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = paddr >> PAGE_SHIFT;
        let last = paddr.saturating_add(len - 1) >> PAGE_SHIFT;
        (first..=last).map(|ppn| self.frame_epoch(ppn)).sum()
    }

    /// Borrows one resident frame's contents, if materialized.
    #[must_use]
    pub fn frame(&self, ppn: u32) -> Option<&[u8; PAGE_SIZE as usize]> {
        self.frames.get(&ppn).map(|f| &*f.data)
    }

    /// All resident physical page numbers in ascending order.
    #[must_use]
    pub fn resident_ppns(&self) -> Vec<u32> {
        let mut ppns: Vec<u32> = self.frames.keys().copied().collect();
        ppns.sort_unstable();
        ppns
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, paddr: u32) -> u8 {
        match self.frames.get(&(paddr >> PAGE_SHIFT)) {
            Some(f) => f.data[(paddr & (PAGE_SIZE - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, paddr: u32, value: u8) {
        self.frame_mut(paddr >> PAGE_SHIFT)[(paddr & (PAGE_SIZE - 1)) as usize] = value;
    }

    /// Reads a little-endian `u32` (no alignment requirement; may span frames).
    #[must_use]
    pub fn read_u32(&self, paddr: u32) -> u32 {
        let off = (paddr & (PAGE_SIZE - 1)) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            // Single frame: one map lookup instead of four.
            match self.frames.get(&(paddr >> PAGE_SHIFT)) {
                Some(f) => {
                    u32::from_le_bytes(f.data[off..off + 4].try_into().expect("4-byte slice"))
                }
                None => 0,
            }
        } else {
            let mut b = [0u8; 4];
            self.read_bytes(paddr, &mut b);
            u32::from_le_bytes(b)
        }
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, paddr: u32, value: u32) {
        let off = (paddr & (PAGE_SIZE - 1)) as usize;
        if off <= PAGE_SIZE as usize - 4 {
            self.frame_mut(paddr >> PAGE_SHIFT)[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            self.write_bytes(paddr, &value.to_le_bytes());
        }
    }

    /// Reads a little-endian `u16`.
    #[must_use]
    pub fn read_u16(&self, paddr: u32) -> u16 {
        let mut b = [0u8; 2];
        self.read_bytes(paddr, &mut b);
        u16::from_le_bytes(b)
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, paddr: u32, value: u16) {
        self.write_bytes(paddr, &value.to_le_bytes());
    }

    /// Copies `data` into memory starting at `paddr`, one frame-sized
    /// chunk at a time.
    pub fn write_bytes(&mut self, paddr: u32, data: &[u8]) {
        let mut addr = paddr;
        let mut data = data;
        while !data.is_empty() {
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let room = (PAGE_SIZE as usize - off).min(data.len());
            self.frame_mut(addr >> PAGE_SHIFT)[off..off + room].copy_from_slice(&data[..room]);
            data = &data[room..];
            addr = addr.wrapping_add(room as u32);
        }
    }

    /// Copies `out.len()` bytes out of memory starting at `paddr`, one
    /// frame-sized chunk at a time (absent frames read as zeros).
    pub fn read_bytes(&self, paddr: u32, out: &mut [u8]) {
        let mut addr = paddr;
        let mut out = out;
        while !out.is_empty() {
            let off = (addr & (PAGE_SIZE - 1)) as usize;
            let room = (PAGE_SIZE as usize - off).min(out.len());
            match self.frames.get(&(addr >> PAGE_SHIFT)) {
                Some(f) => out[..room].copy_from_slice(&f.data[off..off + room]),
                None => out[..room].fill(0),
            }
            out = &mut out[room..];
            addr = addr.wrapping_add(room as u32);
        }
    }

    /// Copies `len` bytes from frame-to-frame (used by the page-copy
    /// checkpointing baselines, which the paper's Fig. 14 shows is the
    /// expensive part).
    pub fn copy(&mut self, dst: u32, src: u32, len: u32) {
        let (dst64, src64, len64) = (u64::from(dst), u64::from(src), u64::from(len));
        let in_bounds = dst64 + len64 <= 1 << 32 && src64 + len64 <= 1 << 32;
        let disjoint = dst64 + len64 <= src64 || src64 + len64 <= dst64;
        if in_bounds && disjoint && len > 0 {
            let mut buf = vec![0u8; len as usize];
            self.read_bytes(src, &mut buf);
            self.write_bytes(dst, &buf);
        } else {
            // Overlapping or wrapping ranges keep the sequential
            // byte-copy semantics (forward propagation on overlap).
            for i in 0..len {
                let b = self.read_u8(src.wrapping_add(i));
                self.write_u8(dst.wrapping_add(i), b);
            }
        }
    }

    /// Number of frames actually materialized.
    #[must_use]
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    /// Captures every resident frame, sorted by PPN (a deterministic
    /// image regardless of hash-map layout).
    #[must_use]
    pub fn save_state(&self) -> PhysMemState {
        let mut frames: Vec<(u32, Box<[u8; PAGE_SIZE as usize]>)> =
            self.frames.iter().map(|(&ppn, f)| (ppn, f.data.clone())).collect();
        frames.sort_unstable_by_key(|&(ppn, _)| ppn);
        PhysMemState { frames }
    }

    /// Replaces all contents with the frames captured by
    /// [`PhysicalMemory::save_state`]. Frame write epochs restart from
    /// zero; the generation bump keeps (generation, epoch) pairs unique.
    pub fn restore_state(&mut self, state: &PhysMemState) {
        self.frames.clear();
        for (ppn, data) in &state.frames {
            self.frames.insert(*ppn, Frame { data: data.clone(), epoch: 0 });
        }
        self.generation += 1;
    }
}

/// Snapshot of sparse physical memory: every resident frame, sorted by
/// physical page number.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhysMemState {
    /// `(ppn, contents)` pairs in ascending PPN order.
    pub frames: Vec<(u32, Box<[u8; PAGE_SIZE as usize]>)>,
}

/// A bump-plus-freelist physical frame allocator.
#[derive(Debug)]
pub struct FrameAllocator {
    base: u32,
    next: u32,
    limit: u32,
    free: Vec<u32>,
    allocated: u64,
}

impl FrameAllocator {
    /// Creates an allocator handing out frames `[base_ppn, limit_ppn)`.
    #[must_use]
    pub fn new(base_ppn: u32, limit_ppn: u32) -> FrameAllocator {
        assert!(base_ppn < limit_ppn, "empty frame range");
        FrameAllocator {
            base: base_ppn,
            next: base_ppn,
            limit: limit_ppn,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// Allocates one frame, returning its physical page number.
    ///
    /// Returns `None` when physical memory is exhausted.
    pub fn alloc(&mut self) -> Option<u32> {
        let ppn = if let Some(ppn) = self.free.pop() {
            ppn
        } else if self.next < self.limit {
            let p = self.next;
            self.next += 1;
            p
        } else {
            return None;
        };
        self.allocated += 1;
        Some(ppn)
    }

    /// Returns a frame to the allocator.
    pub fn release(&mut self, ppn: u32) {
        debug_assert!(ppn < self.limit, "releasing frame outside the pool");
        self.free.push(ppn);
    }

    /// Frames currently live (allocated minus released).
    #[must_use]
    pub fn live_frames(&self) -> u32 {
        (self.next - self.base) - self.free.len() as u32
    }

    /// Total allocations performed (monotonic).
    #[must_use]
    pub fn total_allocations(&self) -> u64 {
        self.allocated
    }

    /// Captures the allocator's full state (bump pointer, free list,
    /// counters).
    #[must_use]
    pub fn save_state(&self) -> FrameAllocatorState {
        FrameAllocatorState {
            base: self.base,
            next: self.next,
            limit: self.limit,
            free: self.free.clone(),
            allocated: self.allocated,
        }
    }

    /// Restores state captured by [`FrameAllocator::save_state`],
    /// including the pool bounds.
    pub fn restore_state(&mut self, state: &FrameAllocatorState) {
        self.base = state.base;
        self.next = state.next;
        self.limit = state.limit;
        self.free.clone_from(&state.free);
        self.allocated = state.allocated;
    }
}

/// Complete state of a [`FrameAllocator`], captured by
/// [`FrameAllocator::save_state`] for the durable-checkpoint subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameAllocatorState {
    /// First PPN of the pool.
    pub base: u32,
    /// Next never-allocated PPN.
    pub next: u32,
    /// One past the last PPN of the pool.
    pub limit: u32,
    /// Released frames awaiting reuse (stack order matters: the allocator
    /// pops from the end).
    pub free: Vec<u32>,
    /// Monotonic allocation counter.
    pub allocated: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_power_up() {
        let m = PhysicalMemory::new();
        assert_eq!(m.read_u8(0x1234), 0);
        assert_eq!(m.read_u32(0xFFFF_FFF0), 0);
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = PhysicalMemory::new();
        m.write_u32(0x1000, 0xDEAD_BEEF);
        assert_eq!(m.read_u32(0x1000), 0xDEAD_BEEF);
        assert_eq!(m.read_u8(0x1000), 0xEF);
        assert_eq!(m.read_u16(0x1002), 0xDEAD);
    }

    #[test]
    fn cross_frame_access() {
        let mut m = PhysicalMemory::new();
        m.write_u32(PAGE_SIZE - 2, 0x1122_3344);
        assert_eq!(m.read_u32(PAGE_SIZE - 2), 0x1122_3344);
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn bulk_copy() {
        let mut m = PhysicalMemory::new();
        m.write_bytes(0x100, b"hello world");
        m.copy(0x2000, 0x100, 11);
        let mut out = [0u8; 11];
        m.read_bytes(0x2000, &mut out);
        assert_eq!(&out, b"hello world");
    }

    #[test]
    fn frame_epochs_observe_every_write_path() {
        let mut m = PhysicalMemory::new();
        assert_eq!(m.frame_epoch(1), 0, "never-materialized frame");
        m.write_u8(0x1000, 1);
        let e1 = m.frame_epoch(1);
        assert!(e1 > 0);
        m.write_u32(0x1004, 2);
        assert!(m.frame_epoch(1) > e1, "write_u32 bumps");
        let before = m.range_epoch(0x0FF0, 0x20); // spans frames 0 and 1
        m.write_u16(0x0FFE, 3); // straddles the frame boundary
        assert!(m.range_epoch(0x0FF0, 0x20) > before, "straddling write bumps range");
        let r = m.range_epoch(0x1000, PAGE_SIZE);
        m.copy(0x1800, 0x0F00, 8);
        assert!(m.range_epoch(0x1000, PAGE_SIZE) > r, "copy dst bumps");
        assert_eq!(m.range_epoch(0x1000, 0), 0, "empty range");
        let _ = m.read_u32(0x1000);
        let snap = m.save_state();
        let g = m.generation();
        m.restore_state(&snap);
        assert_eq!(m.frame_epoch(1), 0, "restore resets epochs");
        assert_eq!(m.generation(), g + 1, "…but bumps the generation");
    }

    #[test]
    fn frame_and_resident_ppns_expose_sorted_residents() {
        let mut m = PhysicalMemory::new();
        m.write_u8(PAGE_SIZE * 9, 0xAA);
        m.write_u8(PAGE_SIZE * 3, 0xBB);
        assert_eq!(m.resident_ppns(), vec![3, 9]);
        assert_eq!(m.frame(3).unwrap()[0], 0xBB);
        assert!(m.frame(4).is_none());
    }

    #[test]
    fn allocator_reuses_released_frames() {
        let mut a = FrameAllocator::new(10, 13);
        let f1 = a.alloc().unwrap();
        let f2 = a.alloc().unwrap();
        assert_ne!(f1, f2);
        a.release(f1);
        let f3 = a.alloc().unwrap();
        assert_eq!(f3, f1);
        let _ = a.alloc().unwrap();
        assert!(a.alloc().is_none(), "pool exhausted");
        assert_eq!(a.total_allocations(), 4);
    }
}
