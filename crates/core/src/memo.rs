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

    /// The cache's [`Allocator`], for callers that skip the map.
    pub(crate) fn allocator(&self) -> &Allocator {
        &self.allocator
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
    /// model and the cache is pure overhead — the online scheduler's
    /// release path uses exactly this signal to switch to direct
    /// Algorithm 2 calls.
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
