//! The shared-memory system: per-core L1 caches kept coherent by MESI
//! over a sharer directory.
//!
//! Cache coherency is one of the paper's five vulnerable features, and the
//! CNST1 case study ("a client thread packed data and its checksum into a
//! buffer … due to defective cache coherence, the daemon thread sometimes
//! got inconsistent data") motivates modelling coherence at the protocol
//! level: a fault hook may *drop* an invalidation message, leaving the
//! victim core with a stale shared line that it keeps reading.

use crate::hooks::FaultHook;

#[cfg(test)]
mod snoop_reference;

/// Bytes per cache line.
pub const LINE_BYTES: u64 = 64;
/// 64-bit words per cache line.
pub const LINE_WORDS: usize = 8;
/// Direct-mapped sets per L1 cache (16 KiB per core).
pub const L1_SETS: usize = 256;

/// MESI line states, stored in the low bits of a line's tag word (tags
/// are line-aligned, so those bits are free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
enum LineState {
    Modified = 1,
    Exclusive = 2,
    Shared = 3,
}

/// The state bits of a line's tag word.
const STATE_MASK: u64 = LINE_BYTES - 1;
/// The slot word of an empty slot.
const EMPTY: u32 = 0;
/// Words of one core's resident-set bitmap.
const SET_WORDS: usize = L1_SETS / 64;

fn set_of(tag: u64) -> usize {
    ((tag / LINE_BYTES) as usize) % L1_SETS
}

/// One resident L1 line.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// Line-aligned byte address, with the [`LineState`] in the low bits.
    tag: u64,
    data: [u64; LINE_WORDS],
}

/// Counters describing memory-system behaviour during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses (line fetches).
    pub misses: u64,
    /// Invalidations delivered to other cores.
    pub invalidations: u64,
    /// Invalidations *dropped* by the fault hook (coherence defect fired).
    pub dropped_invalidations: u64,
    /// Dirty lines written back to memory.
    pub writebacks: u64,
    /// Other cores' L1s probed by read misses, write upgrades and CASes:
    /// the holders the sharer directory names.
    pub snoops: u64,
}

/// The shared memory plus all per-core caches.
///
/// The L1s are direct-mapped. One flat slot array, `L1_SETS` slots per
/// core, core-major, names each resident line's entry in a pool that
/// grows with the lines actually cached: a unit run caches a few lines
/// per core, so a 64-byte line per slot would be mostly idle memory. A
/// sharer directory keeps, per memory line, one bit per core whose L1
/// holds the line (in any state, stale copies left by a dropped
/// invalidation included), so coherence transactions visit only the
/// holders, in ascending core order, where a snooping bus would probe
/// every L1. A per-core bitmap of occupied sets lets
/// [`MemSystem::flush_all`] and [`MemSystem::reset`] visit only resident
/// lines. Every array starts zeroed (all slots empty, no holders), so a
/// fresh machine touches only the pages its run uses.
#[derive(Debug)]
pub struct MemSystem {
    mem: Vec<u64>,
    cores: usize,
    /// Per slot: 1 + the index in `lines` of the resident line, or
    /// [`EMPTY`].
    slots: Vec<u32>,
    /// The resident lines; the entries listed in `free` hold none.
    lines: Vec<Line>,
    free: Vec<u32>,
    /// Per core, `SET_WORDS` words: bit `s` set iff set `s` holds a line.
    resident: Vec<u64>,
    /// Per memory line, `dir_words` words: bit `c` set iff core `c`'s L1
    /// holds the line.
    sharers: Vec<u64>,
    dir_words: usize,
    /// Behaviour counters.
    pub stats: MemStats,
}

impl MemSystem {
    /// Creates a memory of `bytes` (rounded up to a line) shared by
    /// `cores` caches.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `bytes == 0`.
    pub fn new(cores: usize, bytes: u64) -> Self {
        assert!(cores > 0 && bytes > 0, "degenerate memory system");
        let lines = bytes.div_ceil(LINE_BYTES) as usize;
        let dir_words = cores.div_ceil(64);
        MemSystem {
            mem: vec![0; lines * LINE_WORDS],
            cores,
            slots: vec![EMPTY; cores * L1_SETS],
            lines: Vec::new(),
            free: Vec::new(),
            resident: vec![0; cores * SET_WORDS],
            sharers: vec![0; lines * dir_words],
            dir_words,
            stats: MemStats::default(),
        }
    }

    /// Total addressable bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.mem.len() * 8) as u64
    }

    /// Number of cores (caches).
    pub fn cores(&self) -> usize {
        self.cores
    }

    fn word_index(&self, addr: u64) -> usize {
        assert!(
            addr.is_multiple_of(8),
            "unaligned 64-bit access at {addr:#x}"
        );
        let idx = (addr / 8) as usize;
        assert!(idx < self.mem.len(), "address {addr:#x} out of bounds");
        idx
    }

    fn line_tag(addr: u64) -> u64 {
        assert!(
            addr.is_multiple_of(8),
            "unaligned 64-bit access at {addr:#x}"
        );
        addr & !(LINE_BYTES - 1)
    }

    /// The slot `tag` maps to in `core`'s L1.
    #[inline]
    fn slot(core: usize, tag: u64) -> usize {
        core * L1_SETS + set_of(tag)
    }

    /// The line in `slot`, which must hold one.
    #[inline]
    fn line(&self, slot: usize) -> &Line {
        &self.lines[self.slots[slot] as usize - 1]
    }

    #[inline]
    fn line_mut(&mut self, slot: usize) -> &mut Line {
        &mut self.lines[self.slots[slot] as usize - 1]
    }

    /// The state of `tag` in `slot`, if the slot holds that line.
    #[inline]
    fn lookup(&self, slot: usize, tag: u64) -> Option<LineState> {
        if self.slots[slot] == EMPTY {
            return None;
        }
        let word = self.line(slot).tag;
        if word & !STATE_MASK != tag {
            return None;
        }
        match word & STATE_MASK {
            1 => Some(LineState::Modified),
            2 => Some(LineState::Exclusive),
            3 => Some(LineState::Shared),
            _ => None,
        }
    }

    #[inline]
    fn set_state(&mut self, slot: usize, state: LineState) {
        let line = self.line_mut(slot);
        line.tag = line.tag & !STATE_MASK | state as u64;
    }

    /// Index of `tag`'s first directory word.
    fn dir_index(&self, tag: u64) -> usize {
        self.word_index(tag) / LINE_WORDS * self.dir_words
    }

    /// Writes the line in `slot` back to memory.
    fn write_back(&mut self, slot: usize) {
        self.stats.writebacks += 1;
        let line = *self.line(slot);
        let base = ((line.tag & !STATE_MASK) / 8) as usize;
        self.mem[base..base + LINE_WORDS].copy_from_slice(&line.data);
    }

    /// Empties `core`'s `slot` (which holds a line) without a writeback,
    /// clearing its directory and resident bits and freeing its entry.
    fn drop_line(&mut self, core: usize, slot: usize) {
        let dir = self.dir_index(self.line(slot).tag & !STATE_MASK);
        self.sharers[dir + core / 64] &= !(1 << (core % 64));
        let set = slot % L1_SETS;
        self.resident[core * SET_WORDS + set / 64] &= !(1 << (set % 64));
        self.free.push(self.slots[slot] - 1);
        self.slots[slot] = EMPTY;
    }

    /// Resets to the just-constructed state: zeroed memory, empty caches,
    /// zeroed stats. Geometry (size, core count) is unchanged.
    pub fn reset(&mut self) {
        self.flush_all();
        self.mem.fill(0);
        self.stats = MemStats::default();
    }

    /// Reads a word through `core`'s cache.
    #[inline]
    pub fn read_u64<H: FaultHook + ?Sized>(&mut self, core: usize, addr: u64, hook: &mut H) -> u64 {
        let tag = Self::line_tag(addr);
        let word = (addr - tag) as usize / 8;
        let slot = Self::slot(core, tag);
        if self.lookup(slot, tag).is_some() {
            self.stats.hits += 1;
            return self.line(slot).data[word];
        }
        self.stats.misses += 1;
        let data = self.fetch_line(core, tag, hook);
        data[word]
    }

    /// Writes a word through `core`'s cache (write-allocate, write-back).
    #[inline]
    pub fn write_u64<H: FaultHook + ?Sized>(
        &mut self,
        core: usize,
        addr: u64,
        val: u64,
        hook: &mut H,
    ) {
        let tag = Self::line_tag(addr);
        let word = (addr - tag) as usize / 8;
        let slot = Self::slot(core, tag);
        // Fast path: already exclusive or modified.
        match self.lookup(slot, tag) {
            Some(LineState::Modified) => {
                self.stats.hits += 1;
                self.line_mut(slot).data[word] = val;
                return;
            }
            Some(LineState::Exclusive) => {
                self.stats.hits += 1;
                self.set_state(slot, LineState::Modified);
                self.line_mut(slot).data[word] = val;
                return;
            }
            Some(LineState::Shared) | None => { /* upgrade below */ }
        }
        // Need exclusive ownership: invalidate other copies.
        self.invalidate_others(core, tag, hook);
        if self.lookup(slot, tag).is_some() {
            // S → M upgrade: data is already resident (possibly stale if a
            // past invalidation to *this* core was dropped — the defect).
            self.stats.hits += 1;
            self.set_state(slot, LineState::Modified);
            self.line_mut(slot).data[word] = val;
            return;
        }
        self.stats.misses += 1;
        let mut data = [0u64; LINE_WORDS];
        let base = self.word_index(tag);
        data.copy_from_slice(&self.mem[base..base + LINE_WORDS]);
        data[word] = val;
        self.insert_line(core, tag, LineState::Modified, data);
    }

    /// Atomic compare-and-swap of the word at `addr`. Returns true (and
    /// stores `new`) iff the current value equals `expected`.
    ///
    /// Atomic RMWs take a dedicated bus transaction that re-reads memory
    /// after invalidating other copies, so they stay linearizable even
    /// when the *plain-load* invalidation path drops messages. This
    /// mirrors the paper's CNST1 case study, where locking still works but
    /// "the daemon thread sometimes got inconsistent data" through
    /// ordinary reads. (Without this, a dropped invalidation would leave
    /// a spin-lock waiter caching a stale `held` word forever — a hang,
    /// i.e. a *detected* failure, not a silent one.)
    pub fn cas_u64<H: FaultHook + ?Sized>(
        &mut self,
        core: usize,
        addr: u64,
        expected: u64,
        new: u64,
        hook: &mut H,
    ) -> bool {
        let tag = Self::line_tag(addr);
        let word = (addr - tag) as usize / 8;
        // Acquire exclusivity; writebacks of remote dirty copies land in
        // memory before the re-read below.
        self.invalidate_others(core, tag, hook);
        // Discard any local (possibly stale) copy and re-read memory;
        // a dirty local copy is written back first so no store is lost.
        let slot = Self::slot(core, tag);
        if let Some(state) = self.lookup(slot, tag) {
            if state == LineState::Modified {
                self.write_back(slot);
            }
            self.drop_line(core, slot);
        }
        self.stats.misses += 1;
        let base = self.word_index(tag);
        let mut data = [0u64; LINE_WORDS];
        data.copy_from_slice(&self.mem[base..base + LINE_WORDS]);
        let success = data[word] == expected;
        if success {
            data[word] = new;
        }
        self.insert_line(core, tag, LineState::Modified, data);
        success
    }

    /// Calls `visit(self, other)` for every core but `core` whose L1
    /// holds `tag`, in ascending core order. `visit` may drop the line
    /// from `other`'s L1 (and so clear its directory bit) but must not
    /// add holders.
    #[inline]
    fn for_each_other_holder(
        &mut self,
        core: usize,
        tag: u64,
        mut visit: impl FnMut(&mut Self, usize),
    ) {
        let dir = self.dir_index(tag);
        for w in 0..self.dir_words {
            let mut holders = self.sharers[dir + w];
            if w == core / 64 {
                holders &= !(1 << (core % 64));
            }
            while holders != 0 {
                let other = w * 64 + holders.trailing_zeros() as usize;
                holders &= holders - 1;
                self.stats.snoops += 1;
                visit(self, other);
            }
        }
    }

    /// Fetches a line into `core`'s cache (read miss path). Returns the
    /// line data.
    fn fetch_line<H: FaultHook + ?Sized>(
        &mut self,
        core: usize,
        tag: u64,
        _hook: &mut H,
    ) -> [u64; LINE_WORDS] {
        // Snoop: a Modified copy elsewhere is written back and demoted.
        let mut shared_elsewhere = false;
        self.for_each_other_holder(core, tag, |m, other| {
            shared_elsewhere = true;
            let slot = Self::slot(other, tag);
            if m.lookup(slot, tag) == Some(LineState::Modified) {
                m.write_back(slot);
            }
            m.set_state(slot, LineState::Shared);
        });
        let base = self.word_index(tag);
        let mut data = [0u64; LINE_WORDS];
        data.copy_from_slice(&self.mem[base..base + LINE_WORDS]);
        let state = if shared_elsewhere {
            LineState::Shared
        } else {
            LineState::Exclusive
        };
        self.insert_line(core, tag, state, data);
        data
    }

    /// Sends invalidations for `tag` to every other core holding it; the
    /// fault hook may drop individual deliveries, leaving stale Shared
    /// copies.
    fn invalidate_others<H: FaultHook + ?Sized>(&mut self, core: usize, tag: u64, hook: &mut H) {
        self.for_each_other_holder(core, tag, |m, other| {
            let slot = Self::slot(other, tag);
            // A Modified copy must be written back so the requester sees
            // its data (the bus transfer happens regardless of the defect).
            if m.lookup(slot, tag) == Some(LineState::Modified) {
                m.write_back(slot);
                m.set_state(slot, LineState::Shared);
            }
            if hook.drop_invalidation(other, tag) {
                // Defect: the invalidation is lost; the stale copy stays
                // Shared, keeps its directory bit and keeps serving reads.
                m.stats.dropped_invalidations += 1;
            } else {
                m.stats.invalidations += 1;
                m.drop_line(other, slot);
            }
        });
    }

    /// Inserts a line into `core`'s L1, writing back any evicted dirty
    /// line.
    fn insert_line(&mut self, core: usize, tag: u64, state: LineState, data: [u64; LINE_WORDS]) {
        let slot = Self::slot(core, tag);
        if self.slots[slot] != EMPTY {
            if self.line(slot).tag & STATE_MASK == LineState::Modified as u64 {
                self.write_back(slot);
            }
            self.drop_line(core, slot);
        }
        let dir = self.dir_index(tag);
        self.sharers[dir + core / 64] |= 1 << (core % 64);
        let set = slot % L1_SETS;
        self.resident[core * SET_WORDS + set / 64] |= 1 << (set % 64);
        let line = Line {
            tag: tag | state as u64,
            data,
        };
        let entry = match self.free.pop() {
            Some(entry) => {
                self.lines[entry as usize] = line;
                entry
            }
            None => {
                self.lines.push(line);
                (self.lines.len() - 1) as u32
            }
        };
        self.slots[slot] = entry + 1;
    }

    /// Writes back every dirty line and empties every cache (run at
    /// machine halt so that raw memory inspection sees the final state).
    /// Visits the resident lines core by core, each core's in set order.
    pub fn flush_all(&mut self) {
        for core in 0..self.cores {
            for w in 0..SET_WORDS {
                let mut sets = self.resident[core * SET_WORDS + w];
                while sets != 0 {
                    let slot = core * L1_SETS + w * 64 + sets.trailing_zeros() as usize;
                    sets &= sets - 1;
                    if self.line(slot).tag & STATE_MASK == LineState::Modified as u64 {
                        self.write_back(slot);
                    }
                    self.drop_line(core, slot);
                }
            }
        }
        self.lines.clear();
        self.free.clear();
    }

    /// Raw (non-coherent) word read, for initialization and final
    /// inspection by the test framework. Call [`MemSystem::flush_all`]
    /// first when inspecting after a run.
    pub fn raw_read_u64(&self, addr: u64) -> u64 {
        assert!(addr.is_multiple_of(8), "unaligned raw read");
        self.mem[(addr / 8) as usize]
    }

    /// Raw word write, for workload initialization before a run.
    pub fn raw_write_u64(&mut self, addr: u64, val: u64) {
        let idx = self.word_index(addr);
        self.mem[idx] = val;
    }

    /// Raw 128-bit read spanning two consecutive words (little endian),
    /// used for 80-bit extended values stored via `StoreX`.
    pub fn raw_read_u128(&self, addr: u64) -> u128 {
        let lo = self.raw_read_u64(addr) as u128;
        let hi = self.raw_read_u64(addr + 8) as u128;
        lo | (hi << 64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoFaults;

    /// A hook that drops every invalidation aimed at one victim core.
    struct DropFor {
        victim: usize,
    }

    impl FaultHook for DropFor {
        fn drop_invalidation(&mut self, observer_core: usize, _line: u64) -> bool {
            observer_core == self.victim
        }
    }

    #[test]
    fn read_after_write_same_core() {
        let mut m = MemSystem::new(2, 4096);
        let mut h = NoFaults;
        m.write_u64(0, 64, 42, &mut h);
        assert_eq!(m.read_u64(0, 64, &mut h), 42);
    }

    #[test]
    fn coherent_read_across_cores() {
        let mut m = MemSystem::new(2, 4096);
        let mut h = NoFaults;
        m.write_u64(0, 128, 7, &mut h);
        // Core 1 reads the dirty line: writeback + shared fetch.
        assert_eq!(m.read_u64(1, 128, &mut h), 7);
        assert!(m.stats.writebacks >= 1);
    }

    #[test]
    fn write_invalidates_other_copies() {
        let mut m = MemSystem::new(2, 4096);
        let mut h = NoFaults;
        m.write_u64(0, 0, 1, &mut h);
        assert_eq!(m.read_u64(1, 0, &mut h), 1);
        m.write_u64(0, 0, 2, &mut h);
        assert!(m.stats.invalidations >= 1);
        assert_eq!(m.read_u64(1, 0, &mut h), 2, "healthy protocol is coherent");
    }

    #[test]
    fn dropped_invalidation_leaves_stale_copy() {
        let mut m = MemSystem::new(2, 4096);
        let mut h = DropFor { victim: 1 };
        m.write_u64(0, 0, 1, &mut h);
        assert_eq!(m.read_u64(1, 0, &mut h), 1); // line now shared by core 1
        m.write_u64(0, 0, 2, &mut h); // invalidation to core 1 dropped
        assert_eq!(m.stats.dropped_invalidations, 1);
        assert_eq!(m.read_u64(1, 0, &mut h), 1, "core 1 reads stale data");
        assert_eq!(m.read_u64(0, 0, &mut h), 2, "writer sees its own write");
    }

    #[test]
    fn eviction_writes_back_dirty_line() {
        let mut m = MemSystem::new(1, LINE_BYTES * (L1_SETS as u64 + 1));
        let mut h = NoFaults;
        // Two addresses mapping to the same set.
        let a = 0u64;
        let b = LINE_BYTES * L1_SETS as u64;
        m.write_u64(0, a, 11, &mut h);
        m.write_u64(0, b, 22, &mut h); // evicts line a
        assert_eq!(m.raw_read_u64(a), 11, "dirty line written back on eviction");
        assert_eq!(m.read_u64(0, a, &mut h), 11);
    }

    #[test]
    fn cas_success_and_failure() {
        let mut m = MemSystem::new(2, 4096);
        let mut h = NoFaults;
        m.write_u64(0, 8, 5, &mut h);
        assert!(m.cas_u64(1, 8, 5, 9, &mut h));
        assert_eq!(m.read_u64(0, 8, &mut h), 9);
        assert!(!m.cas_u64(0, 8, 5, 100, &mut h));
        assert_eq!(m.read_u64(0, 8, &mut h), 9);
    }

    #[test]
    fn flush_exposes_final_state_to_raw_reads() {
        let mut m = MemSystem::new(2, 4096);
        let mut h = NoFaults;
        m.write_u64(0, 256, 1234, &mut h);
        assert_ne!(m.raw_read_u64(256), 1234, "still dirty in cache");
        m.flush_all();
        assert_eq!(m.raw_read_u64(256), 1234);
    }

    #[test]
    fn raw_u128_roundtrip() {
        let mut m = MemSystem::new(1, 4096);
        m.raw_write_u64(16, 0xdead_beef);
        m.raw_write_u64(24, 0xcafe);
        assert_eq!(m.raw_read_u128(16), 0xdead_beef | (0xcafeu128 << 64));
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let mut m = MemSystem::new(1, 4096);
        let mut h = NoFaults;
        let _ = m.read_u64(0, 3, &mut h);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let mut m = MemSystem::new(1, 4096);
        let mut h = NoFaults;
        m.write_u64(0, 1 << 30, 1, &mut h);
    }
}
