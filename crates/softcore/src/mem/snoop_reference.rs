//! The snooping-bus MESI protocol the sharer directory replaced, kept as
//! a reference model: every coherence transaction probes every other L1.
//! The tests below drive it and [`MemSystem`] with the same seeded
//! read/write/CAS streams and require the same values, hook calls,
//! counters, cache contents and final memory.

use super::*;
use crate::hooks::NoFaults;
use crate::machine::Machine;
use sdc_model::DetRng;

/// MESI line states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefState {
    Modified,
    Exclusive,
    Shared,
}

/// One resident cache line.
#[derive(Debug, Clone)]
struct CacheLine {
    tag: u64,
    state: RefState,
    data: [u64; LINE_WORDS],
}

/// A direct-mapped L1 cache.
#[derive(Debug, Clone)]
struct L1 {
    lines: Vec<Option<CacheLine>>,
}

impl L1 {
    fn new() -> Self {
        L1 {
            lines: vec![None; L1_SETS],
        }
    }

    fn lookup(&self, tag: u64) -> Option<&CacheLine> {
        self.lines[set_of(tag)].as_ref().filter(|l| l.tag == tag)
    }

    fn lookup_mut(&mut self, tag: u64) -> Option<&mut CacheLine> {
        self.lines[set_of(tag)].as_mut().filter(|l| l.tag == tag)
    }
}

/// Memory plus one L1 per core, kept coherent by probing every L1.
/// `stats.snoops` counts the probes that found the line, which is what
/// the directory visits.
struct SnoopMem {
    mem: Vec<u64>,
    caches: Vec<L1>,
    stats: MemStats,
}

impl SnoopMem {
    fn new(cores: usize, bytes: u64) -> Self {
        let words = bytes.div_ceil(LINE_BYTES) as usize * LINE_WORDS;
        SnoopMem {
            mem: vec![0; words],
            caches: (0..cores).map(|_| L1::new()).collect(),
            stats: MemStats::default(),
        }
    }

    fn base(tag: u64) -> usize {
        (tag / 8) as usize
    }

    fn read_u64<H: FaultHook>(&mut self, core: usize, addr: u64, hook: &mut H) -> u64 {
        let tag = addr & !(LINE_BYTES - 1);
        let word = (addr - tag) as usize / 8;
        if let Some(line) = self.caches[core].lookup(tag) {
            self.stats.hits += 1;
            return line.data[word];
        }
        self.stats.misses += 1;
        self.fetch_line(core, tag, hook)[word]
    }

    fn write_u64<H: FaultHook>(&mut self, core: usize, addr: u64, val: u64, hook: &mut H) {
        let tag = addr & !(LINE_BYTES - 1);
        let word = (addr - tag) as usize / 8;
        if let Some(line) = self.caches[core].lookup_mut(tag) {
            match line.state {
                RefState::Modified | RefState::Exclusive => {
                    self.stats.hits += 1;
                    line.state = RefState::Modified;
                    line.data[word] = val;
                    return;
                }
                RefState::Shared => {}
            }
        }
        self.invalidate_others(core, tag, hook);
        if let Some(line) = self.caches[core].lookup_mut(tag) {
            self.stats.hits += 1;
            line.state = RefState::Modified;
            line.data[word] = val;
            return;
        }
        self.stats.misses += 1;
        let mut data = [0u64; LINE_WORDS];
        data.copy_from_slice(&self.mem[Self::base(tag)..Self::base(tag) + LINE_WORDS]);
        data[word] = val;
        self.insert_line(
            core,
            CacheLine {
                tag,
                state: RefState::Modified,
                data,
            },
        );
    }

    fn cas_u64<H: FaultHook>(
        &mut self,
        core: usize,
        addr: u64,
        expected: u64,
        new: u64,
        hook: &mut H,
    ) -> bool {
        let tag = addr & !(LINE_BYTES - 1);
        let word = (addr - tag) as usize / 8;
        self.invalidate_others(core, tag, hook);
        if let Some(line) = self.caches[core].lookup(tag) {
            if line.state == RefState::Modified {
                let data = line.data;
                self.stats.writebacks += 1;
                self.mem[Self::base(tag)..Self::base(tag) + LINE_WORDS].copy_from_slice(&data);
            }
            self.caches[core].lines[set_of(tag)] = None;
        }
        self.stats.misses += 1;
        let mut data = [0u64; LINE_WORDS];
        data.copy_from_slice(&self.mem[Self::base(tag)..Self::base(tag) + LINE_WORDS]);
        let success = data[word] == expected;
        if success {
            data[word] = new;
        }
        self.insert_line(
            core,
            CacheLine {
                tag,
                state: RefState::Modified,
                data,
            },
        );
        success
    }

    fn fetch_line<H: FaultHook>(&mut self, core: usize, tag: u64, _hook: &mut H) -> [u64; 8] {
        let mut shared_elsewhere = false;
        for other in 0..self.caches.len() {
            if other == core {
                continue;
            }
            if let Some(line) = self.caches[other].lookup_mut(tag) {
                self.stats.snoops += 1;
                shared_elsewhere = true;
                if line.state == RefState::Modified {
                    let data = line.data;
                    self.stats.writebacks += 1;
                    self.mem[Self::base(tag)..Self::base(tag) + LINE_WORDS].copy_from_slice(&data);
                }
                line.state = RefState::Shared;
            }
        }
        let mut data = [0u64; LINE_WORDS];
        data.copy_from_slice(&self.mem[Self::base(tag)..Self::base(tag) + LINE_WORDS]);
        let state = if shared_elsewhere {
            RefState::Shared
        } else {
            RefState::Exclusive
        };
        self.insert_line(core, CacheLine { tag, state, data });
        data
    }

    fn invalidate_others<H: FaultHook>(&mut self, core: usize, tag: u64, hook: &mut H) {
        for other in 0..self.caches.len() {
            if other == core {
                continue;
            }
            let Some(line) = self.caches[other].lookup_mut(tag) else {
                continue;
            };
            self.stats.snoops += 1;
            if line.state == RefState::Modified {
                let data = line.data;
                line.state = RefState::Shared;
                self.stats.writebacks += 1;
                self.mem[Self::base(tag)..Self::base(tag) + LINE_WORDS].copy_from_slice(&data);
            }
            if hook.drop_invalidation(other, tag) {
                self.stats.dropped_invalidations += 1;
            } else {
                self.stats.invalidations += 1;
                self.caches[other].lines[set_of(tag)] = None;
            }
        }
    }

    fn insert_line(&mut self, core: usize, line: CacheLine) {
        let set = set_of(line.tag);
        if let Some(old) = self.caches[core].lines[set].take() {
            if old.state == RefState::Modified {
                self.stats.writebacks += 1;
                self.mem[Self::base(old.tag)..Self::base(old.tag) + LINE_WORDS]
                    .copy_from_slice(&old.data);
            }
        }
        self.caches[core].lines[set] = Some(line);
    }

    fn flush_all(&mut self) {
        for core in 0..self.caches.len() {
            for set in 0..L1_SETS {
                if let Some(line) = self.caches[core].lines[set].take() {
                    if line.state == RefState::Modified {
                        self.stats.writebacks += 1;
                        self.mem[Self::base(line.tag)..Self::base(line.tag) + LINE_WORDS]
                            .copy_from_slice(&line.data);
                    }
                }
            }
        }
    }
}

/// A hook that drops invalidations by a seeded pattern (one in
/// `one_in`) and logs every `drop_invalidation` call with its answer.
struct DropPattern {
    rng: DetRng,
    one_in: u64,
    log: Vec<(usize, u64, bool)>,
}

impl DropPattern {
    fn new(seed: u64, one_in: u64) -> Self {
        DropPattern {
            rng: DetRng::new(seed),
            one_in,
            log: Vec::new(),
        }
    }
}

impl FaultHook for DropPattern {
    fn drop_invalidation(&mut self, observer_core: usize, line: u64) -> bool {
        let dropped = self.rng.below(self.one_in) == 0;
        self.log.push((observer_core, line, dropped));
        dropped
    }
}

/// Lines the streams touch, as line indices: three lines in distinct
/// sets, and aliases of two of them in the same sets.
const LINES: [u64; 6] = [
    0,
    1,
    7,
    L1_SETS as u64,
    2 * L1_SETS as u64,
    1 + L1_SETS as u64,
];
const MEM_BYTES: u64 = (2 * L1_SETS as u64 + 8) * LINE_BYTES;

/// Asserts `dir` holds exactly what `snoop` holds, slot by slot (tag,
/// state, data), and that its directory and resident bits name exactly
/// the resident lines.
fn assert_same_caches(dir: &MemSystem, snoop: &SnoopMem, label: &str) {
    let mut resident = 0;
    for core in 0..dir.cores {
        for set in 0..L1_SETS {
            let slot = core * L1_SETS + set;
            let want = snoop.caches[core].lines[set].as_ref().map(|l| {
                let state = match l.state {
                    RefState::Modified => LineState::Modified,
                    RefState::Exclusive => LineState::Exclusive,
                    RefState::Shared => LineState::Shared,
                };
                (l.tag, state, l.data)
            });
            let got = (dir.slots[slot] != EMPTY).then(|| {
                let line = dir.line(slot);
                let tag = line.tag & !STATE_MASK;
                let state = dir.lookup(slot, tag).expect("valid state bits");
                (tag, state, line.data)
            });
            assert_eq!(got, want, "{label}: core {core} set {set}");
            let in_resident = dir.resident[core * SET_WORDS + set / 64] >> (set % 64) & 1 == 1;
            assert_eq!(in_resident, got.is_some(), "{label}: resident bit");
            if let Some((tag, ..)) = got {
                resident += 1;
                let holder = dir.sharers[dir.dir_index(tag) + core / 64] >> (core % 64) & 1;
                assert_eq!(
                    holder, 1,
                    "{label}: core {core} holds {tag:#x} without its bit"
                );
            }
        }
    }
    let bits: u32 = dir.sharers.iter().map(|w| w.count_ones()).sum();
    assert_eq!(
        bits, resident,
        "{label}: holder bits without a resident line"
    );
    assert_eq!(
        dir.lines.len() - dir.free.len(),
        resident as usize,
        "{label}: line entries in use"
    );
}

fn assert_empty(dir: &MemSystem, label: &str) {
    assert!(
        dir.sharers.iter().all(|&w| w == 0),
        "{label}: holder bit set"
    );
    assert!(
        dir.resident.iter().all(|&w| w == 0),
        "{label}: resident bit set"
    );
    assert!(
        dir.slots.iter().all(|&s| s == EMPTY) && dir.lines.is_empty(),
        "{label}: line resident"
    );
}

/// Drives `dir` and `snoop` with one seeded stream of `ops` reads,
/// writes and CASes by random cores on [`LINES`], each model under its
/// own copy of the hook, comparing every result and, every 97 ops, the
/// whole cache state.
fn drive<H: FaultHook>(
    cores: usize,
    seed: u64,
    ops: usize,
    hooks: (&mut H, &mut H),
) -> (MemSystem, SnoopMem) {
    let (dir_hook, snoop_hook) = hooks;
    let mut dir = MemSystem::new(cores, MEM_BYTES);
    let mut snoop = SnoopMem::new(cores, MEM_BYTES);
    let mut rng = DetRng::new(seed);
    for i in 0..ops {
        let core = rng.below(cores as u64) as usize;
        let line = LINES[rng.below(LINES.len() as u64) as usize];
        let addr = line * LINE_BYTES + 8 * rng.below(LINE_WORDS as u64);
        let val = rng.below(4);
        let label = format!("c{cores} seed {seed} op {i}");
        match rng.below(10) {
            0..=4 => assert_eq!(
                dir.read_u64(core, addr, dir_hook),
                snoop.read_u64(core, addr, snoop_hook),
                "{label}: read"
            ),
            5..=7 => {
                dir.write_u64(core, addr, val, dir_hook);
                snoop.write_u64(core, addr, val, snoop_hook);
            }
            _ => {
                let expected = rng.below(4);
                assert_eq!(
                    dir.cas_u64(core, addr, expected, val, dir_hook),
                    snoop.cas_u64(core, addr, expected, val, snoop_hook),
                    "{label}: cas"
                );
            }
        }
        assert_eq!(dir.stats, snoop.stats, "{label}: stats");
        if i % 97 == 0 {
            assert_same_caches(&dir, &snoop, &label);
        }
    }
    assert_same_caches(&dir, &snoop, "end of stream");
    dir.flush_all();
    snoop.flush_all();
    assert_eq!(
        dir.stats, snoop.stats,
        "c{cores} seed {seed}: stats after flush"
    );
    assert_eq!(
        dir.mem, snoop.mem,
        "c{cores} seed {seed}: memory after flush"
    );
    assert_empty(&dir, "after flush_all");
    (dir, snoop)
}

const CORE_COUNTS: [usize; 5] = [1, 2, 3, 64, 65];

#[test]
fn directory_matches_snooping_bus_without_faults() {
    for cores in CORE_COUNTS {
        for seed in [1u64, 2, 3] {
            let (dir, _) = drive(cores, seed, 3_000, (&mut NoFaults, &mut NoFaults));
            if cores > 1 {
                assert!(dir.stats.invalidations > 0 && dir.stats.snoops > 0);
            }
        }
    }
}

#[test]
fn directory_matches_snooping_bus_under_dropped_invalidations() {
    for cores in CORE_COUNTS {
        for seed in [4u64, 5, 6] {
            let mut dir_hook = DropPattern::new(seed ^ 0xd0, 3);
            let mut snoop_hook = DropPattern::new(seed ^ 0xd0, 3);
            let (dir, _) = drive(cores, seed, 3_000, (&mut dir_hook, &mut snoop_hook));
            assert_eq!(
                dir_hook.log, snoop_hook.log,
                "c{cores} seed {seed}: hook calls"
            );
            if cores > 2 {
                assert!(dir.stats.dropped_invalidations > 0);
                // Some invalidation reached a core above the requester, so
                // the call order is exercised.
                assert!(dir_hook.log.windows(2).any(|w| w[0].0 < w[1].0));
            }
        }
    }
}

/// `reset` and `Machine::restart` leave no line resident and no holder
/// bit set, and zero memory.
#[test]
fn reset_and_restart_leave_no_holder() {
    let touch = |mem: &mut MemSystem| {
        let mut rng = DetRng::new(9);
        for _ in 0..500 {
            let core = rng.below(mem.cores as u64) as usize;
            let addr = LINES[rng.below(LINES.len() as u64) as usize] * LINE_BYTES;
            if rng.below(2) == 0 {
                mem.write_u64(core, addr, 1 + rng.below(4), &mut NoFaults);
            } else {
                mem.read_u64(core, addr, &mut NoFaults);
            }
        }
        assert!(mem.sharers.iter().any(|&w| w != 0));
    };
    for cores in CORE_COUNTS {
        let mut mem = MemSystem::new(cores, MEM_BYTES);
        touch(&mut mem);
        mem.reset();
        assert_empty(&mem, "after reset");
        assert!(mem.mem.iter().all(|&w| w == 0));
        assert_eq!(mem.stats, MemStats::default());

        let mut machine = Machine::new(cores, MEM_BYTES);
        touch(&mut machine.mem);
        machine.restart();
        assert_empty(&machine.mem, "after restart");
        assert!(machine.mem.mem.iter().all(|&w| w == 0));
    }
}
