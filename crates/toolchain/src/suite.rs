//! The 633-testcase suite.
//!
//! §2.3: "The toolchain includes 633 testcases and a framework. … Most
//! testcases focus on individual processor features, such as floating
//! point calculation, branch prediction, cache, interconnect between
//! cores, etc. The complexity of these testcases vary significantly."
//!
//! The suite is generated deterministically: per feature, a parameter
//! grid (datatype × operation family × unroll/size × complexity tier) is
//! cycled until the feature's budget is filled. The budgets sum to
//! exactly 633, with the feature mix weighted toward the float/vector
//! workloads cloud testcases emphasize.

use crate::static_profile::StaticProfile;
use crate::testcase::{Testcase, WorkloadKind, WorkloadSpec};
use sdc_model::{DataType, Feature, TestcaseId};
use std::sync::{Arc, OnceLock};

/// Feature budgets (sum = 633).
pub const BUDGETS: [(Feature, usize); 5] = [
    (Feature::Alu, 140),
    (Feature::Fpu, 160),
    (Feature::VecUnit, 150),
    (Feature::Cache, 110),
    (Feature::TrxMem, 73),
];

/// The full toolchain suite.
///
/// A suite also memoizes its testcases' static profiles
/// ([`Suite::static_profiles`]): they depend on the testcases alone, so
/// every campaign, study and core count that reads them through one
/// suite shares one walk. A clone made after the walk shares it too.
///
/// # Examples
///
/// ```
/// use toolchain::Suite;
///
/// let suite = Suite::standard();
/// assert_eq!(suite.len(), 633);
/// let consistency = suite.by_feature(sdc_model::Feature::Cache);
/// assert!(consistency.iter().all(|&id| suite.get(id).threads > 1));
/// ```
#[derive(Clone)]
pub struct Suite {
    testcases: Vec<Testcase>,
    static_profiles: OnceLock<Arc<[StaticProfile]>>,
}

/// The walk is derived from the testcases, so it is left out.
impl std::fmt::Debug for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Suite")
            .field("testcases", &self.testcases)
            .finish()
    }
}

impl Suite {
    /// Generates the standard 633-testcase suite.
    pub fn standard() -> Suite {
        let mut testcases = Vec::with_capacity(633);
        let mut next_id = 0u32;
        for (feature, budget) in BUDGETS {
            for i in 0..budget {
                let (name, kind, threads, spec) = spec_for(feature, i);
                testcases.push(Testcase {
                    id: TestcaseId(next_id),
                    // The id suffix disambiguates grid repeats (the same
                    // parameters at a different complexity tier or input
                    // seed are distinct testcases, as in the real suite).
                    name: format!("{name}#{next_id}"),
                    feature,
                    kind,
                    threads,
                    spec,
                });
                next_id += 1;
            }
        }
        Suite {
            testcases,
            static_profiles: OnceLock::new(),
        }
    }

    /// All testcases in id order.
    pub fn testcases(&self) -> &[Testcase] {
        &self.testcases
    }

    /// Number of testcases (633 for the standard suite).
    pub fn len(&self) -> usize {
        self.testcases.len()
    }

    /// True if the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.testcases.is_empty()
    }

    /// Testcase lookup by id.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn get(&self, id: TestcaseId) -> &Testcase {
        &self.testcases[id.0 as usize]
    }

    /// The static profile of every testcase, in id order, walked by
    /// `walk_all` on first use and shared by every later call. Concurrent
    /// first callers block until one walk finishes; the other closures
    /// never run. `walk_all` chooses only how the walk is scheduled (a
    /// caller may shard it across threads): entry `i` must be
    /// `StaticProfile::of` testcase `i` on its own thread count.
    ///
    /// # Panics
    ///
    /// Panics if `walk_all` returns a profile count other than
    /// [`Suite::len`].
    pub fn static_profiles(
        &self,
        walk_all: impl FnOnce(&[Testcase]) -> Arc<[StaticProfile]>,
    ) -> &Arc<[StaticProfile]> {
        self.static_profiles.get_or_init(|| {
            let walks = walk_all(&self.testcases);
            assert_eq!(
                walks.len(),
                self.testcases.len(),
                "one static profile per testcase"
            );
            walks
        })
    }

    /// Ids of testcases targeting `feature`.
    pub fn by_feature(&self, feature: Feature) -> Vec<TestcaseId> {
        self.testcases
            .iter()
            .filter(|t| t.feature == feature)
            .map(|t| t.id)
            .collect()
    }
}

impl Default for Suite {
    fn default() -> Self {
        Suite::standard()
    }
}

const UNROLLS: [u8; 3] = [1, 2, 4];
const KINDS: [WorkloadKind; 3] = [
    WorkloadKind::InstLoop,
    WorkloadKind::Library,
    WorkloadKind::AppLogic,
];

fn spec_for(feature: Feature, i: usize) -> (String, WorkloadKind, u8, WorkloadSpec) {
    match feature {
        Feature::Alu => alu_spec(i),
        Feature::Fpu => fpu_spec(i),
        Feature::VecUnit => vec_spec(i),
        Feature::Cache => cache_spec(i),
        Feature::TrxMem => tx_spec(i),
    }
}

fn alu_spec(i: usize) -> (String, WorkloadKind, u8, WorkloadSpec) {
    // 0–99: int loops over dt × family × unroll; 100–115: checksum/hash;
    // 116–127: big-int; 128+: string scans.
    if i < 100 {
        let dts = [
            DataType::I16,
            DataType::I32,
            DataType::U32,
            DataType::Byte,
            DataType::Bit,
        ];
        let dt = dts[i % 5];
        let family = ((i / 5) % 4) as u8;
        let unroll = UNROLLS[(i / 20) % 3];
        let kind = KINDS[(i / 60) % 3];
        (
            format!("alu/{}/fam{}/u{}", dt.label(), family, unroll),
            kind,
            1,
            WorkloadSpec::IntLoop { dt, family, unroll },
        )
    } else if i < 116 {
        let j = i - 100;
        let words = [2u8, 4, 8, 16][j % 4];
        if j < 8 {
            (
                format!("alu/crc32/w{words}"),
                WorkloadKind::Library,
                1,
                WorkloadSpec::Crc { words },
            )
        } else {
            (
                format!("alu/hash64/w{words}"),
                WorkloadKind::Library,
                1,
                WorkloadSpec::Hash { words },
            )
        }
    } else if i < 128 {
        let limbs = [2u8, 4, 8, 16][(i - 116) % 4];
        (
            format!("alu/bigint/l{limbs}"),
            WorkloadKind::AppLogic,
            1,
            WorkloadSpec::BigInt { limbs },
        )
    } else {
        let words = [2u8, 3, 4, 6, 8, 12][(i - 128) % 6];
        (
            format!("alu/string/w{words}"),
            WorkloadKind::AppLogic,
            1,
            WorkloadSpec::StringScan { words },
        )
    }
}

fn fpu_spec(i: usize) -> (String, WorkloadKind, u8, WorkloadSpec) {
    // 0–119: scalar float loops; 120–139: arctangent; 140–159: x87.
    if i < 120 {
        let f32_prec = i.is_multiple_of(2);
        let family = ((i / 2) % 4) as u8;
        let unroll = UNROLLS[(i / 8) % 3];
        let kind = KINDS[(i / 24) % 3];
        let p = if f32_prec { "f32" } else { "f64" };
        (
            format!("fpu/{p}/fam{family}/u{unroll}"),
            kind,
            1,
            WorkloadSpec::FloatLoop {
                f32_prec,
                family,
                unroll,
            },
        )
    } else if i < 140 {
        let f32_prec = (i - 120).is_multiple_of(2);
        let p = if f32_prec { "f32" } else { "f64" };
        // Math-function testcases span tiers: tight instruction loops and
        // library-call shapes.
        let kind = KINDS[((i - 120) / 4) % 2];
        (
            format!("fpu/atan/{p}/v{}", (i - 120) / 2),
            kind,
            1,
            WorkloadSpec::AtanLoop { f32_prec },
        )
    } else {
        let atan = (i - 140).is_multiple_of(2);
        let what = if atan { "atan" } else { "arith" };
        let kind = KINDS[((i - 140) / 4) % 2];
        (
            format!("fpu/x87/{what}/v{}", (i - 140) / 2),
            kind,
            1,
            WorkloadSpec::X87Loop { atan },
        )
    }
}

fn vec_spec(i: usize) -> (String, WorkloadKind, u8, WorkloadSpec) {
    // 0–83: matrix kernels; 84–131: AXPY; 132+: parity (EC-style).
    if i < 84 {
        let lane = (i % 3) as u8;
        let rows = [1u8, 2, 4, 8][(i / 3) % 4];
        let kind = KINDS[(i / 28) % 3];
        (
            format!("vec/matk/l{lane}/r{rows}"),
            kind,
            1,
            WorkloadSpec::MatKernel { lane, rows },
        )
    } else if i < 132 {
        let j = i - 84;
        let lane = (j % 3) as u8;
        let blocks = [1u8, 2, 4, 8][(j / 3) % 4];
        (
            format!("vec/axpy/l{lane}/b{blocks}"),
            WorkloadKind::Library,
            1,
            WorkloadSpec::Axpy { lane, blocks },
        )
    } else {
        let blocks = [2u8, 3, 4, 6, 8, 12][(i - 132) % 6];
        (
            format!("vec/parity/b{blocks}"),
            WorkloadKind::Library,
            1,
            WorkloadSpec::VecParity { blocks },
        )
    }
}

fn cache_spec(i: usize) -> (String, WorkloadKind, u8, WorkloadSpec) {
    // 0–59: lock counters; 60–109: producer/consumer.
    if i < 60 {
        let rounds = [1u8, 2, 4, 8][i % 4];
        let threads = [2u8, 4][(i / 4) % 2];
        let dilution = [0u8, 1, 4, 16, 64][(i / 8) % 5];
        (
            format!("cache/lock/t{threads}/r{rounds}/d{dilution}"),
            WorkloadKind::AppLogic,
            threads,
            WorkloadSpec::LockCounter { rounds, dilution },
        )
    } else {
        let words = [2u8, 4, 8, 16][(i - 60) % 4];
        let dilution = [0u8, 1, 4, 16, 64][((i - 60) / 4) % 5];
        (
            format!("cache/prodcons/w{words}/d{dilution}"),
            WorkloadKind::AppLogic,
            2,
            WorkloadSpec::ProducerConsumer { words, dilution },
        )
    }
}

fn tx_spec(i: usize) -> (String, WorkloadKind, u8, WorkloadSpec) {
    let rounds = [1u8, 2, 4, 8][i % 4];
    let threads = [2u8, 4][(i / 4) % 2];
    let dilution = [0u8, 1, 4, 16, 64][(i / 8) % 5];
    (
        format!("trx/counter/t{threads}/r{rounds}/d{dilution}"),
        WorkloadKind::AppLogic,
        threads,
        WorkloadSpec::TxCounter { rounds, dilution },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_exactly_633_testcases() {
        let s = Suite::standard();
        assert_eq!(s.len(), 633);
    }

    #[test]
    fn budgets_sum_to_633() {
        let total: usize = BUDGETS.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 633);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let s = Suite::standard();
        for (i, tc) in s.testcases().iter().enumerate() {
            assert_eq!(tc.id.0 as usize, i);
            assert_eq!(s.get(tc.id).name, tc.name);
        }
    }

    #[test]
    fn feature_budgets_respected() {
        let s = Suite::standard();
        for (feature, budget) in BUDGETS {
            assert_eq!(s.by_feature(feature).len(), budget, "{feature}");
        }
    }

    #[test]
    fn consistency_testcases_are_multithreaded() {
        let s = Suite::standard();
        for tc in s.testcases() {
            if tc.feature.needs_multithread() {
                assert!(tc.threads >= 2, "{} must be multi-threaded", tc.name);
            } else {
                assert_eq!(tc.threads, 1, "{} must be single-threaded", tc.name);
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let s = Suite::standard();
        let mut names: Vec<&str> = s.testcases().iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate testcase names");
    }

    #[test]
    fn complexity_tiers_all_present() {
        let s = Suite::standard();
        for kind in KINDS {
            assert!(
                s.testcases().iter().any(|t| t.kind == kind),
                "missing complexity tier {kind:?}"
            );
        }
    }

    #[test]
    fn debug_output_leaves_the_walk_out() {
        let s = Suite::standard();
        let before = format!("{s:?}");
        s.static_profiles(|tcs| {
            tcs.iter()
                .map(|tc| StaticProfile::of(tc, tc.threads as usize))
                .collect()
        });
        assert_eq!(format!("{s:?}"), before);
    }

    #[test]
    fn suite_is_deterministic() {
        let a = Suite::standard();
        let b = Suite::standard();
        for (x, y) in a.testcases().iter().zip(b.testcases()) {
            assert_eq!(x, y);
        }
    }
}
