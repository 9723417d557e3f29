//! Memoized Algorithm 2.
//!
//! The adversarial instances of Theorems 6–8 release *millions* of
//! tasks that share a handful of distinct speedup models, and every
//! release used to re-run Algorithm 2. An [`AllocCache`] interns
//! `(model parameters) → Allocation` for one fixed `(algo, P, μ)`
//! triple — the triple is fixed per scheduler run, so it lives in the
//! cache (as its `Allocator`, which holds the platform's constants),
//! not in the key — and makes repeat allocations a hash lookup.
//!
//! Keys are exact: closed-form models key on the *bit patterns* of
//! their parameters (two models collide only if they are
//! parameter-identical, in which case [`allocate`](crate::allocate) returns the same
//! decision); tables key on their full entry bit-pattern; closures key
//! on the `Arc` pointer identity, with a clone of the `Arc` pinned in
//! the cache so an address can never be recycled for a different
//! closure while the cache lives.
//!
//! [`AllocCache::decide`] is the release-path policy the schedulers
//! call: it reuses the previous decision for a bitwise-equal model,
//! stops interning once the hit rate shows the models never repeat
//! ([`BYPASS_MIN_PROBES`]), and keeps at most [`MEMO_LIMIT`] models.
//! None of the three can change a decision, because Algorithm 2 is a
//! pure function of `(model, P, μ, algo)`.

use std::collections::HashMap;
use std::sync::Arc;

use moldable_model::SpeedupModel;

use crate::allocator::Allocator;
use crate::registry::AlgoName;
use crate::Allocation;

/// Exact identity of a speedup model for interning purposes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ModelKey {
    Roofline { w: u64, pbar: u32 },
    Communication { w: u64, c: u64 },
    Amdahl { w: u64, d: u64 },
    General { w: u64, pbar: u32, d: u64, c: u64 },
    Table(Vec<u64>),
    Formula { ptr: usize, nonincreasing: bool },
}

impl ModelKey {
    fn of(model: &SpeedupModel) -> Self {
        match model {
            SpeedupModel::Roofline { w, pbar } => Self::Roofline {
                w: w.to_bits(),
                pbar: *pbar,
            },
            SpeedupModel::Communication { w, c } => Self::Communication {
                w: w.to_bits(),
                c: c.to_bits(),
            },
            SpeedupModel::Amdahl { w, d } => Self::Amdahl {
                w: w.to_bits(),
                d: d.to_bits(),
            },
            SpeedupModel::General { w, pbar, d, c } => Self::General {
                w: w.to_bits(),
                pbar: *pbar,
                d: d.to_bits(),
                c: c.to_bits(),
            },
            SpeedupModel::Table(ts) => Self::Table(ts.iter().map(|t| t.to_bits()).collect()),
            SpeedupModel::Formula { f, nonincreasing } => Self::Formula {
                ptr: Arc::as_ptr(f).cast::<()>() as usize,
                nonincreasing: *nonincreasing,
            },
        }
    }
}

/// Probes an [`AllocCache`] must answer before [`AllocCache::decide`]
/// may conclude the cache is useless and bypass it. Large enough that
/// every adversarial witness in the test corpus (thousands of tasks
/// over a handful of models) warms the cache normally, small enough
/// that a million-task sampled workload stops paying interning after
/// the first few thousand releases.
pub const BYPASS_MIN_PROBES: u64 = 4096;

/// Models an [`AllocCache`] interns through [`AllocCache::decide`]
/// before its map is dropped and refilled from empty, so a long-lived
/// cache whose models rarely repeat never holds one entry per task it
/// was ever asked about. The serve workers bound the sum of their
/// memos by the same number.
pub const MEMO_LIMIT: usize = 1 << 16;

/// Memoized front-end to the local allocation ([`allocate`](crate::allocate) or
/// [`allocate_improved`](crate::allocate_improved), per [`AlgoName`]) for a fixed platform size
/// and μ.
#[derive(Debug)]
pub struct AllocCache {
    /// Algorithm 2 for the cache's `(algo, P, μ)`, run on every miss.
    allocator: Allocator,
    map: HashMap<ModelKey, Allocation>,
    /// Clones of every closure seen, pinning their addresses for the
    /// cache's lifetime (see module docs).
    pinned: Vec<SpeedupModel>,
    /// Lifetime lookup count (for hit-rate introspection).
    probes: u64,
    /// Lookups answered from the map.
    hits: u64,
    /// The model [`AllocCache::decide`] saw last and its decision.
    last: Option<(SpeedupModel, Allocation)>,
}

impl AllocCache {
    /// Cache for allocations on a `P = p_total` platform with
    /// parameter `μ`.
    ///
    /// # Panics
    ///
    /// Same contract as [`allocate`](crate::allocate): `μ ∈ (0, (3−√5)/2]`,
    /// `p_total ≥ 1`.
    #[must_use]
    pub fn new(p_total: u32, mu: f64) -> Self {
        Self::for_algo(AlgoName::Icpp22, p_total, mu)
    }

    /// Cache for `algo`'s allocations on a `P = p_total` platform with
    /// parameter `μ`. For [`AlgoName::Improved23`] the per-class area
    /// budget `λ` is looked up from each model's own class at
    /// allocation time ([`AlgoName::lambda`]), so one cache serves
    /// mixed-class workloads.
    ///
    /// # Panics
    ///
    /// Same contract as [`allocate`](crate::allocate): `μ ∈ (0, (3−√5)/2]`,
    /// `p_total ≥ 1`.
    #[must_use]
    pub fn for_algo(algo: AlgoName, p_total: u32, mu: f64) -> Self {
        Self {
            allocator: Allocator::new(algo, p_total, mu),
            map: HashMap::new(),
            pinned: Vec::new(),
            probes: 0,
            hits: 0,
            last: None,
        }
    }

    /// Platform size this cache was built for.
    #[must_use]
    pub fn p_total(&self) -> u32 {
        self.allocator.p_total()
    }

    /// The μ this cache was built for.
    #[must_use]
    pub fn mu(&self) -> f64 {
        self.allocator.mu()
    }

    /// The algorithm this cache memoizes.
    #[must_use]
    pub fn algo(&self) -> AlgoName {
        self.allocator.algo()
    }

    /// Whether this cache's decisions are valid for the given
    /// `(P, μ)` pair under the ICPP'22 algorithm (exact match; μ
    /// compared by bit pattern).
    #[must_use]
    pub fn matches(&self, p_total: u32, mu: f64) -> bool {
        self.matches_algo(AlgoName::Icpp22, p_total, mu)
    }

    /// Whether this cache's decisions are valid for the given
    /// `(algo, P, μ)` triple (exact match; μ compared by bit pattern).
    #[must_use]
    pub fn matches_algo(&self, algo: AlgoName, p_total: u32, mu: f64) -> bool {
        self.algo() == algo && self.p_total() == p_total && self.mu().to_bits() == mu.to_bits()
    }

    /// The local allocation through the cache: identical to
    /// `allocate(model, p_total, mu)` (or `allocate_improved` with the
    /// model class's λ, per the cache's algorithm), but repeat models
    /// cost one hash lookup.
    pub fn allocate(&mut self, model: &SpeedupModel) -> Allocation {
        self.probes += 1;
        let key = ModelKey::of(model);
        if let Some(&hit) = self.map.get(&key) {
            self.hits += 1;
            return hit;
        }
        if matches!(model, SpeedupModel::Formula { .. }) {
            self.pinned.push(model.clone());
        }
        let allocation = self.allocator.allocate(model);
        self.map.insert(key, allocation);
        allocation
    }

    /// The local allocation under the release-path memo policy, for
    /// schedulers that allocate each released task once. Always equal
    /// to [`AllocCache::allocate`]'s answer, with three shortcuts:
    ///
    /// * **Run grouping.** A model [`SpeedupModel::bitwise_eq`] to the
    ///   previous one reuses that decision without touching the map:
    ///   tasks released together often share a model (chain bundles,
    ///   adversarial phases, graphs built from a few weight classes).
    /// * **Bypass.** Once at least [`BYPASS_MIN_PROBES`] probes have
    ///   hit less than 1 time in 16, the models are (almost) all
    ///   distinct and a hash-and-insert per call is pure overhead, so
    ///   Algorithm 2 runs directly and the counters stop moving.
    /// * **Bound.** A map that grows past [`MEMO_LIMIT`] models is
    ///   dropped and refills from empty.
    pub fn decide(&mut self, model: &SpeedupModel) -> Allocation {
        if let Some((prev, allocation)) = &self.last {
            if prev.bitwise_eq(model) {
                return *allocation;
            }
        }
        let allocation = if self.probes >= BYPASS_MIN_PROBES && self.hits * 16 < self.probes {
            self.allocator.allocate(model)
        } else {
            let allocation = self.allocate(model);
            if self.map.len() > MEMO_LIMIT {
                self.map.clear();
                self.pinned.clear();
            }
            allocation
        };
        self.last = Some((model.clone(), allocation));
        allocation
    }

    /// Number of distinct models interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Lifetime number of [`AllocCache::allocate`] calls.
    #[must_use]
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// Lifetime number of probes answered from the map. A hit rate of
    /// `hits / probes` near zero means every task carries a distinct
    /// model and the cache is pure overhead — [`AllocCache::decide`]
    /// uses exactly this signal to switch to direct Algorithm 2 calls.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate;
    use moldable_model::{ModelClass, MU_MAX};

    #[test]
    fn cache_hits_return_identical_allocations() {
        let mut cache = AllocCache::new(100, MU_MAX);
        let m = SpeedupModel::amdahl(64.0, 2.0).unwrap();
        let first = cache.allocate(&m);
        assert_eq!(cache.len(), 1);
        // A separately constructed but parameter-identical model hits.
        let m2 = SpeedupModel::amdahl(64.0, 2.0).unwrap();
        assert_eq!(cache.allocate(&m2), first);
        assert_eq!(cache.len(), 1);
        assert_eq!(first, allocate(&m, 100, MU_MAX));
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let mut cache = AllocCache::new(64, 0.3);
        let _ = cache.allocate(&SpeedupModel::amdahl(64.0, 2.0).unwrap());
        let _ = cache.allocate(&SpeedupModel::amdahl(64.0, 3.0).unwrap());
        let _ = cache.allocate(&SpeedupModel::roofline(64.0, 8).unwrap());
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn matches_direct_allocate_across_classes() {
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(42);
        let dist = moldable_model::sample::ParamDistribution::default();
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ] {
            let mu = class.optimal_mu();
            let mut cache = AllocCache::new(48, mu);
            for _ in 0..50 {
                let m = dist.sample(class, 48, &mut rng);
                // Twice: once cold, once from the cache.
                assert_eq!(cache.allocate(&m), allocate(&m, 48, mu), "{class}");
                assert_eq!(cache.allocate(&m), allocate(&m, 48, mu), "{class}");
            }
        }
    }

    #[test]
    fn shared_table_arcs_hit_by_content() {
        let m = SpeedupModel::table(vec![8.0, 4.0, 3.0]).unwrap();
        let mut cache = AllocCache::new(8, 0.3);
        let a = cache.allocate(&m);
        let b = cache.allocate(&m.clone());
        // Content-identical but separately built table also hits.
        let c = cache.allocate(&SpeedupModel::table(vec![8.0, 4.0, 3.0]).unwrap());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn improved_cache_matches_direct_dual_allocate() {
        let mut rng = moldable_model::rng::StdRng::seed_from_u64(9);
        let dist = moldable_model::sample::ParamDistribution::default();
        for class in [
            ModelClass::Roofline,
            ModelClass::Communication,
            ModelClass::Amdahl,
            ModelClass::General,
            ModelClass::Arbitrary,
        ] {
            let mu = AlgoName::Improved23.optimal_mu(class);
            let mut cache = AllocCache::for_algo(AlgoName::Improved23, 48, mu);
            for _ in 0..30 {
                let m = dist.sample(class, 48, &mut rng);
                let want = AlgoName::Improved23.allocate(&m, 48, mu);
                assert_eq!(cache.allocate(&m), want, "{class}");
                assert_eq!(cache.allocate(&m), want, "{class} (warm)");
            }
        }
    }

    #[test]
    fn matches_is_algo_aware() {
        let c = AllocCache::for_algo(AlgoName::Improved23, 16, 0.3);
        assert!(c.matches_algo(AlgoName::Improved23, 16, 0.3));
        assert!(!c.matches_algo(AlgoName::Icpp22, 16, 0.3));
        assert!(!c.matches(16, 0.3), "matches() means icpp22");
        assert_eq!(c.algo(), AlgoName::Improved23);
        let c = AllocCache::new(16, 0.3);
        assert!(c.matches(16, 0.3));
        assert_eq!(c.algo(), AlgoName::Icpp22);
    }

    #[test]
    fn decide_bounds_the_memo_without_changing_decisions() {
        // A new model on every other call and one of two repeated
        // models in between: the hit rate stays near 1/2, far above the
        // bypass threshold, so only `MEMO_LIMIT` bounds the map.
        const P: u32 = 64;
        const MU: f64 = 0.3;
        let repeats = [
            SpeedupModel::amdahl(64.0, 2.0).unwrap(),
            SpeedupModel::roofline(64.0, 8).unwrap(),
        ];
        let mut cache = AllocCache::new(P, MU);
        let (mut peak, mut calls) = (0, 0);
        for i in 0..MEMO_LIMIT + 4_000 {
            let fresh = SpeedupModel::amdahl(1.0 + i as f64 * 1e-3, 0.5).unwrap();
            for m in [&fresh, &repeats[i % 2]] {
                assert_eq!(
                    cache.decide(m),
                    AlgoName::Icpp22.allocate(m, P, MU),
                    "call {calls}"
                );
                calls += 1;
                assert!(cache.len() <= MEMO_LIMIT, "{} models held", cache.len());
                peak = peak.max(cache.len());
            }
        }
        assert_eq!(peak, MEMO_LIMIT, "the bound was reached");
        assert_eq!(cache.probes(), calls, "the bypass never triggered");
    }

    #[test]
    fn formulas_key_on_closure_identity() {
        let f = SpeedupModel::formula(|p| 10.0 / f64::from(p), true);
        let mut cache = AllocCache::new(16, 0.3);
        let a = cache.allocate(&f);
        assert_eq!(cache.allocate(&f.clone()), a, "same Arc must hit");
        assert_eq!(cache.len(), 1);
        // A different closure object is a different key even if the
        // function is extensionally equal.
        let g = SpeedupModel::formula(|p| 10.0 / f64::from(p), true);
        assert_eq!(cache.allocate(&g), a);
        assert_eq!(cache.len(), 2);
    }
}
