//! Unit-run profiling.
//!
//! The accelerated executor needs to know, for one unit of a workload,
//! how many results of each (instruction class × datatype) each core
//! retires and what those result bits look like. A [`Profiler`] is a
//! fault hook that never corrupts anything but records exactly that —
//! the in-simulator analogue of the paper's Pin instrumentation (§4.1).
//!
//! Storage is flat per-site arrays indexed by [`InstClass::site_index`]
//! rather than hash maps — the `corrupt` callback runs once per retired
//! instruction, so it is on the interpreter's hottest path. Once the unit
//! run ends, the executor condenses the counts into per-core rates and
//! keeps only the samples, moved into a sparse read-only table.

use sdc_model::{DataType, DetRng};
use softcore::{FaultHook, InstClass, RetireInfo, NUM_SITES};

/// Maximum retained bit samples per (class, datatype).
const SAMPLE_CAP: usize = 64;

/// The `(class, dt)` pair of a flat site index (inverse of
/// [`InstClass::site_index`]).
fn site_of(index: usize) -> (InstClass, DataType) {
    let dts = DataType::ALL.len();
    (InstClass::ALL[index / dts], DataType::ALL[index % dts])
}

/// Records retire-site statistics without perturbing execution.
///
/// A profiler records during one unit run. Afterwards the executor reads
/// its per-core counts once, to condense them into retire rates, and
/// moves its bit samples into the cached unit profile's sample table; the
/// profiler itself is not kept.
#[derive(Debug)]
pub struct Profiler {
    /// Per-core flat site counts, grown on first retire from a core.
    counts: Vec<[u64; NUM_SITES]>,
    /// Per-site reservoir of sampled result bits.
    samples: Vec<Vec<u128>>,
    /// Per-site total observations (reservoir denominator).
    seen: Vec<u64>,
    rng: DetRng,
}

impl Profiler {
    /// A fresh profiler; `rng` drives reservoir sampling.
    pub fn new(rng: DetRng) -> Self {
        Profiler {
            counts: Vec::new(),
            samples: vec![Vec::new(); NUM_SITES],
            seen: vec![0; NUM_SITES],
            rng,
        }
    }

    /// Retired results of (class, dt) on `core` during the unit run.
    pub fn count(&self, core: usize, class: InstClass, dt: DataType) -> u64 {
        self.counts
            .get(core)
            .map(|c| c[class.site_index(dt)])
            .unwrap_or(0)
    }

    /// All (core, class, dt) → count entries with a nonzero count.
    pub fn counts(&self) -> impl Iterator<Item = ((usize, InstClass, DataType), u64)> + '_ {
        self.counts.iter().enumerate().flat_map(|(core, sites)| {
            sites
                .iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(move |(site, &n)| {
                    let (class, dt) = site_of(site);
                    ((core, class, dt), n)
                })
        })
    }

    /// Sampled result bits for (class, dt) (up to 64, reservoir-sampled).
    pub fn samples(&self, class: InstClass, dt: DataType) -> &[u128] {
        &self.samples[class.site_index(dt)]
    }

    /// Distinct (class, dt) pairs observed, ascending (flat site order is
    /// `(InstClass, DataType)` `Ord` order).
    pub fn site_kinds(&self) -> Vec<(InstClass, DataType)> {
        self.seen
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(site, _)| site_of(site))
            .collect()
    }

    /// Consumes the profiler into its read-only sample table, dropping
    /// the counts and the reservoir bookkeeping.
    pub(crate) fn into_samples(self) -> SampleTable {
        SampleTable {
            sites: self
                .samples
                .into_iter()
                .enumerate()
                .filter(|(_, bucket)| !bucket.is_empty())
                .map(|(site, bucket)| (site as u16, bucket.into_boxed_slice()))
                .collect(),
        }
    }
}

/// The bit samples of a finished unit run, read-only and sparse: only
/// the sites that retired a result keep their reservoir, boxed to its
/// length. A site the unit never retired reads as an empty slice, as on
/// the live profiler.
#[derive(Debug, Default)]
pub(crate) struct SampleTable {
    /// (flat site index, reservoir), ascending by site.
    sites: Box<[(u16, Box<[u128]>)]>,
}

impl SampleTable {
    /// Sampled result bits for (class, dt); empty for a site the unit
    /// never retired.
    pub(crate) fn samples(&self, class: InstClass, dt: DataType) -> &[u128] {
        let site = class.site_index(dt) as u16;
        match self.sites.binary_search_by_key(&site, |&(s, _)| s) {
            Ok(i) => &self.sites[i].1,
            Err(_) => &[],
        }
    }

    /// The stored reservoirs, ascending by site.
    #[cfg(test)]
    pub(crate) fn reservoirs(&self) -> impl Iterator<Item = &[u128]> {
        self.sites.iter().map(|(_, bucket)| &bucket[..])
    }
}

impl FaultHook for Profiler {
    fn corrupt(&mut self, info: &RetireInfo) -> Option<u128> {
        let site = info.class.site_index(info.dt);
        if info.core >= self.counts.len() {
            self.counts.resize_with(info.core + 1, || [0; NUM_SITES]);
        }
        self.counts[info.core][site] += 1;
        self.seen[site] += 1;
        let seen = self.seen[site];
        let bucket = &mut self.samples[site];
        if bucket.len() < SAMPLE_CAP {
            bucket.push(info.bits);
        } else {
            // Reservoir sampling keeps the samples representative of the
            // whole unit, not just its first instructions.
            let j = self.rng.below(seen) as usize;
            if j < SAMPLE_CAP {
                bucket[j] = info.bits;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(core: usize, class: InstClass, dt: DataType, bits: u128) -> RetireInfo {
        RetireInfo {
            core,
            class,
            dt,
            bits,
        }
    }

    #[test]
    fn counts_and_samples() {
        let mut p = Profiler::new(DetRng::new(1));
        for i in 0..10 {
            assert_eq!(
                p.corrupt(&info(0, InstClass::VecFma, DataType::F32, i)),
                None
            );
        }
        p.corrupt(&info(1, InstClass::VecFma, DataType::F32, 99));
        assert_eq!(p.count(0, InstClass::VecFma, DataType::F32), 10);
        assert_eq!(p.count(1, InstClass::VecFma, DataType::F32), 1);
        assert_eq!(p.count(0, InstClass::Crc, DataType::Bin32), 0);
        assert_eq!(p.samples(InstClass::VecFma, DataType::F32).len(), 11);
    }

    #[test]
    fn reservoir_caps_and_stays_representative() {
        let mut p = Profiler::new(DetRng::new(2));
        for i in 0..10_000u128 {
            p.corrupt(&info(0, InstClass::IntArith, DataType::I32, i));
        }
        let s = p.samples(InstClass::IntArith, DataType::I32);
        assert_eq!(s.len(), SAMPLE_CAP);
        // Late values must be able to appear (not just the first 64).
        assert!(
            s.iter().any(|&b| b > 1000),
            "reservoir retains late samples"
        );
    }

    #[test]
    fn site_kinds_sorted_and_distinct() {
        let mut p = Profiler::new(DetRng::new(3));
        p.corrupt(&info(0, InstClass::Crc, DataType::Bin32, 1));
        p.corrupt(&info(0, InstClass::IntArith, DataType::I32, 1));
        p.corrupt(&info(1, InstClass::Crc, DataType::Bin32, 2));
        let kinds = p.site_kinds();
        assert_eq!(kinds.len(), 2);
        let mut sorted = kinds.clone();
        sorted.sort();
        assert_eq!(kinds, sorted, "flat site order is already sorted");
    }

    #[test]
    fn counts_iterator_matches_point_queries() {
        let mut p = Profiler::new(DetRng::new(4));
        p.corrupt(&info(2, InstClass::Hash, DataType::Bin64, 1));
        p.corrupt(&info(2, InstClass::Hash, DataType::Bin64, 2));
        p.corrupt(&info(0, InstClass::FloatMul, DataType::F64, 3));
        let all: Vec<_> = p.counts().collect();
        assert_eq!(all.len(), 2);
        assert!(all.contains(&((2, InstClass::Hash, DataType::Bin64), 2)));
        assert!(all.contains(&((0, InstClass::FloatMul, DataType::F64), 1)));
    }
}
