//! Coalition-value memoization.
//!
//! Permutation sampling at the paper's scale (n ≤ 22 workloads) draws
//! thousands of permutations over at most `2ⁿ` distinct coalitions, so
//! the same characteristic value is recomputed constantly: a 12-player
//! game at 4,096 permutations performs ~49k evaluations of at most 4,096
//! distinct coalitions. [`CoalitionCache`] is an open-addressing,
//! mask-keyed memo table for those values, and [`CachedGame`] wires it
//! into the [`IncrementalGame`] replay path so repeated permutation
//! prefixes stop re-evaluating the game.
//!
//! # Storage
//!
//! The cache's behaviour is defined on a *logical* table of `2^bits`
//! slots: a SplitMix home slot, a 16-slot linear probe, and home-slot
//! displacement once the probe is exhausted. That geometry decides every
//! hit, miss and eviction. Only occupied logical slots are stored, in a
//! small open-addressed side table keyed by logical slot index that
//! doubles at load ½, so memory is proportional to the entries rather than
//! to the logical capacity. A sampler batch of 64 permutations over a
//! 64-player game touches ~3,000 slots of a 2²⁰-slot logical table: the
//! side table holds them in ~200 KiB instead of a 16 MiB dense array that
//! every batch would page in afresh. When every logical slot is full the
//! side table maps slots one to one and costs 1.5× a dense table.
//!
//! # Determinism
//!
//! A cache hit returns the value computed by the *first* permutation that
//! reached the coalition, whose inner evaluation order may differ from
//! the current permutation's. For games whose characteristic values are
//! exact in floating point (integer-valued demands, table games) the two
//! are bit-identical, so cached and uncached estimates agree to the last
//! bit; in general they agree up to floating-point associativity of the
//! game's own accumulation. Within one run the cache is deterministic:
//! the same permutation schedule produces the same hit pattern and the
//! same estimate, independent of thread count when each worker owns its
//! cache. The side table's size never changes which logical slot holds a
//! key, so it never changes a hit, a miss or an estimate.

use std::cell::{Cell, RefCell};

use crate::coalition::Coalition;
use crate::game::{Game, GameStats, IncrementalGame};

/// Slots probed before the cache gives up and displaces an entry. Bounded
/// probing keeps worst-case lookup cost constant; displacement (rather
/// than rejection) keeps recent coalitions warm when the table saturates.
const PROBE_LIMIT: usize = 16;

/// Side-table slots of a cache built without an entry estimate.
const MIN_SIDE_SLOTS: usize = 16;

/// One occupied logical slot of a [`CoalitionCache`].
#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    /// Logical slot index plus one; 0 marks a vacant side-table slot.
    tag: u32,
    key: u64,
    value: f64,
}

/// An open-addressing memo table mapping coalition bitmasks (`u64`) to
/// characteristic values.
///
/// The empty mask doubles as the vacant-slot sentinel: `v(∅) = 0` by the
/// [`Game`] contract, so the empty coalition never needs an entry.
#[derive(Debug, Clone)]
pub struct CoalitionCache {
    /// Occupied logical slots, open-addressed by logical index; the
    /// length is a power of two no larger than the logical capacity.
    entries: Vec<Entry>,
    /// Logical capacity minus one; logical capacity is a power of two.
    index_mask: usize,
    len: usize,
}

impl CoalitionCache {
    /// A cache with `1 << bits` logical slots.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 30 (a billion-slot table is a
    /// config error, not a cache).
    pub fn with_bits(bits: u8) -> Self {
        Self::with_bits_and_entries(bits, 0)
    }

    /// A cache with `1 << bits` logical slots whose storage is sized for
    /// about `entries` live entries up front.
    fn with_bits_and_entries(bits: u8, entries: usize) -> Self {
        assert!((1..=30).contains(&bits), "cache bits must be in 1..=30");
        let cap = 1usize << bits;
        let side = entries
            .saturating_mul(2)
            .max(MIN_SIDE_SLOTS)
            .checked_next_power_of_two()
            .unwrap_or(cap)
            .min(cap);
        Self {
            entries: vec![Entry::default(); side],
            index_mask: cap - 1,
            len: 0,
        }
    }

    /// A logical capacity suited to an `n`-player game: enough slots for
    /// every coalition when `2ⁿ` is small, capped at `2²⁰` logical slots
    /// beyond. Memory follows the live entries, not this capacity.
    pub fn for_players(n: usize) -> Self {
        Self::for_players_expecting(n, 0)
    }

    /// [`for_players`](Self::for_players) with storage presized for about
    /// `entries` live entries (a sampler batch knows its bound).
    pub(crate) fn for_players_expecting(n: usize, entries: usize) -> Self {
        // One spare bit over 2^n keeps the load factor below ½ when the
        // whole coalition lattice is visited.
        Self::with_bits_and_entries((n as u8 + 1).clamp(8, 20), entries)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Logical slot count (the probe geometry), not the memory held.
    pub fn capacity(&self) -> usize {
        self.index_mask + 1
    }

    /// Drops every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.fill(Entry::default());
        self.len = 0;
    }

    /// SplitMix64-style finalizer; masks are tiny integers, so raw
    /// modular indexing would cluster the low bits badly.
    fn slot(&self, mask: u64) -> usize {
        let mut h = mask;
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (h ^ (h >> 31)) as usize & self.index_mask
    }

    /// Where logical `slot` lives in the side table: `Ok` at its entry,
    /// `Err` at the vacant position it would take. Logical slots are
    /// already hash outputs, so their low bits index the side table
    /// directly; load ≤ ½ (or a one-to-one map) bounds the walk.
    fn locate(&self, slot: usize) -> Result<usize, usize> {
        let side_mask = self.entries.len() - 1;
        let tag = slot as u32 + 1;
        let mut pos = slot & side_mask;
        loop {
            match self.entries[pos].tag {
                t if t == tag => return Ok(pos),
                0 => return Err(pos),
                _ => pos = (pos + 1) & side_mask,
            }
        }
    }

    /// Walks `mask`'s logical probe sequence: `Ok` at the side-table
    /// position of its entry, `Err` at where an insert would put it.
    fn find(&self, mask: u64) -> Result<usize, Vacancy> {
        let home = self.slot(mask);
        let mut slot = home;
        let mut home_pos = 0;
        for probe in 0..PROBE_LIMIT {
            match self.locate(slot) {
                Ok(pos) if self.entries[pos].key == mask => return Ok(pos),
                Ok(pos) if probe == 0 => home_pos = pos,
                Ok(_) => {}
                Err(pos) => return Err(Vacancy::Free { slot, pos }),
            }
            slot = (slot + 1) & self.index_mask;
        }
        // Saturated neighbourhood: the home slot is displaced.
        Err(Vacancy::Displace { pos: home_pos })
    }

    /// Stores `mask` where [`find`](Self::find) said it belongs. Valid
    /// only while the cache is unchanged since that `find`.
    fn fill(&mut self, vacancy: Vacancy, mask: u64, value: f64) {
        match vacancy {
            Vacancy::Displace { pos } => {
                self.entries[pos].key = mask;
                self.entries[pos].value = value;
            }
            Vacancy::Free { slot, mut pos } => {
                // At the logical capacity every slot has its own position,
                // so a full side table still finds each one in one step.
                if 2 * (self.len + 1) > self.entries.len() && self.entries.len() <= self.index_mask
                {
                    self.grow();
                    pos = self.locate(slot).unwrap_err();
                }
                self.entries[pos] = Entry {
                    tag: slot as u32 + 1,
                    key: mask,
                    value,
                };
                self.len += 1;
            }
        }
    }

    /// Doubles the side table, re-placing every entry.
    fn grow(&mut self) {
        let grown = vec![Entry::default(); 2 * self.entries.len()];
        let old = std::mem::replace(&mut self.entries, grown);
        for e in old.into_iter().filter(|e| e.tag != 0) {
            let at = self.locate(e.tag as usize - 1).unwrap_err();
            self.entries[at] = e;
        }
    }

    /// Looks up the value cached for `mask`, if any.
    ///
    /// # Panics
    ///
    /// Panics (debug only) on the empty mask — `v(∅) = 0` is the game
    /// contract, not a cache entry.
    pub fn get(&self, mask: u64) -> Option<f64> {
        debug_assert!(mask != 0, "the empty coalition is never cached");
        self.find(mask).ok().map(|pos| self.entries[pos].value)
    }

    /// Caches `value` for `mask`. When every probed slot is taken by a
    /// different key, the home slot is displaced.
    ///
    /// # Panics
    ///
    /// Panics (debug only) on the empty mask.
    pub fn insert(&mut self, mask: u64, value: f64) {
        debug_assert!(mask != 0, "the empty coalition is never cached");
        match self.find(mask) {
            Ok(pos) => self.entries[pos].value = value,
            Err(vacancy) => self.fill(vacancy, mask, value),
        }
    }
}

/// Where [`CoalitionCache::find`] would put a missing key.
#[derive(Debug, Clone, Copy)]
enum Vacancy {
    /// The first vacant logical `slot` of the probe, which lives at side
    /// table position `pos`.
    Free { slot: usize, pos: usize },
    /// Every probed slot holds another key: overwrite the home slot's
    /// entry at `pos`.
    Displace { pos: usize },
}

/// Replay state of a [`CachedGame`]: the inner state lags behind the
/// logical coalition and is only caught up on cache misses.
#[derive(Debug, Clone)]
pub struct CachedState<S> {
    inner: S,
    /// Bitmask of the logical (fully added) coalition.
    mask: u64,
    /// Players added logically but not yet applied to `inner` because
    /// their values came from the cache.
    pending: Vec<usize>,
}

/// An [`IncrementalGame`] adapter that memoizes coalition values in a
/// [`CoalitionCache`].
///
/// On a cache hit the inner game is not touched at all: the pending
/// players are only replayed into the inner state when a miss forces a
/// real evaluation, so a fully warmed cache reduces a permutation replay
/// to `n` hash probes. Hit, miss, and true-evaluation counts are exposed
/// through [`IncrementalGame::stats`], which
/// [`replay_marginals`](crate::game::replay_marginals) folds into
/// [`EvalCounters`](crate::game::EvalCounters).
///
/// Not `Sync`: each worker thread owns its wrapper (and cache), which is
/// how [`parallel_sampled_shapley`](crate::parallel::parallel_sampled_shapley)
/// keeps results thread-count invariant.
#[derive(Debug)]
pub struct CachedGame<'g, G> {
    inner: &'g G,
    cache: RefCell<CoalitionCache>,
    evals: Cell<u64>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<'g, G: Game> CachedGame<'g, G> {
    /// Wraps `game` with a cache sized by [`CoalitionCache::for_players`].
    ///
    /// # Panics
    ///
    /// Panics if the game has more than 64 players — coalition bitmasks
    /// are one machine word.
    pub fn new(game: &'g G) -> Self {
        Self::with_cache(game, CoalitionCache::for_players(game.player_count()))
    }

    /// Wraps `game` around an explicit (possibly pre-warmed) cache.
    ///
    /// # Panics
    ///
    /// Panics if the game has more than 64 players.
    pub fn with_cache(game: &'g G, cache: CoalitionCache) -> Self {
        assert!(
            game.player_count() <= 64,
            "coalition caching supports at most 64 players"
        );
        Self {
            inner: game,
            cache: RefCell::new(cache),
            evals: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// The wrapped game.
    pub fn inner(&self) -> &G {
        self.inner
    }

    /// Hits, misses, and inner evaluations so far.
    pub fn cache_stats(&self) -> GameStats {
        GameStats {
            evals: self.evals.get(),
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Fraction of lookups answered from the cache (0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }

    /// Counts one lookup of `mask`: its cached value on a hit, on a miss
    /// where [`CoalitionCache::fill`] should store it once evaluated (the
    /// inner game never touches this cache, so the walk stays valid).
    fn lookup(&self, mask: u64) -> Result<f64, Vacancy> {
        let cache = self.cache.borrow();
        match cache.find(mask) {
            Ok(pos) => {
                self.hits.set(self.hits.get() + 1);
                Ok(cache.entries[pos].value)
            }
            Err(vacancy) => {
                self.misses.set(self.misses.get() + 1);
                Err(vacancy)
            }
        }
    }

    /// Consumes the wrapper, returning its cache for reuse.
    pub fn into_cache(self) -> CoalitionCache {
        self.cache.into_inner()
    }
}

impl<G: Game> Game for CachedGame<'_, G> {
    fn player_count(&self) -> usize {
        self.inner.player_count()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let mut mask = 0u64;
        for p in coalition.iter() {
            mask |= 1 << p;
        }
        if mask == 0 {
            return 0.0;
        }
        let vacancy = match self.lookup(mask) {
            Ok(v) => return v,
            Err(vacancy) => vacancy,
        };
        self.evals.set(self.evals.get() + 1);
        let v = self.inner.value(coalition);
        self.cache.borrow_mut().fill(vacancy, mask, v);
        v
    }
}

impl<G: IncrementalGame> IncrementalGame for CachedGame<'_, G> {
    type State = CachedState<G::State>;

    fn initial_state(&self) -> Self::State {
        CachedState {
            inner: self.inner.initial_state(),
            mask: 0,
            pending: Vec::with_capacity(self.inner.player_count()),
        }
    }

    fn reset_state(&self, state: &mut Self::State) {
        self.inner.reset_state(&mut state.inner);
        state.mask = 0;
        state.pending.clear();
    }

    fn add_player(&self, state: &mut Self::State, player: usize) -> f64 {
        state.mask |= 1 << player;
        state.pending.push(player);
        let vacancy = match self.lookup(state.mask) {
            Ok(v) => return v,
            Err(vacancy) => vacancy,
        };
        // Catch the inner state up: pending players are applied in the
        // permutation's own order, so miss values are exactly what the
        // uncached replay would have produced.
        let mut value = 0.0;
        for &p in &state.pending {
            value = self.inner.add_player(&mut state.inner, p);
            self.evals.set(self.evals.get() + 1);
        }
        state.pending.clear();
        self.cache.borrow_mut().fill(vacancy, state.mask, value);
        value
    }

    fn stats(&self) -> Option<GameStats> {
        Some(self.cache_stats())
    }
}

/// The dense table [`CoalitionCache`] replaced, kept as the reference
/// for its logical behaviour: every logical slot stored, keys and values
/// side by side.
#[cfg(test)]
mod dense {
    use super::PROBE_LIMIT;

    #[derive(Debug, Clone)]
    pub(super) struct DenseCoalitionCache {
        keys: Vec<u64>,
        values: Vec<f64>,
        /// Capacity minus one; capacity is a power of two.
        index_mask: usize,
        len: usize,
    }

    impl DenseCoalitionCache {
        pub(super) fn with_bits(bits: u8) -> Self {
            assert!((1..=30).contains(&bits), "cache bits must be in 1..=30");
            let cap = 1usize << bits;
            Self {
                keys: vec![0; cap],
                values: vec![0.0; cap],
                index_mask: cap - 1,
                len: 0,
            }
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }

        pub(super) fn capacity(&self) -> usize {
            self.keys.len()
        }

        pub(super) fn clear(&mut self) {
            self.keys.fill(0);
            self.len = 0;
        }

        fn slot(&self, mask: u64) -> usize {
            let mut h = mask;
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (h ^ (h >> 31)) as usize & self.index_mask
        }

        pub(super) fn get(&self, mask: u64) -> Option<f64> {
            debug_assert!(mask != 0, "the empty coalition is never cached");
            let mut slot = self.slot(mask);
            for _ in 0..PROBE_LIMIT {
                let key = self.keys[slot];
                if key == mask {
                    return Some(self.values[slot]);
                }
                if key == 0 {
                    return None;
                }
                slot = (slot + 1) & self.index_mask;
            }
            None
        }

        pub(super) fn insert(&mut self, mask: u64, value: f64) {
            debug_assert!(mask != 0, "the empty coalition is never cached");
            let home = self.slot(mask);
            let mut slot = home;
            for _ in 0..PROBE_LIMIT {
                let key = self.keys[slot];
                if key == mask {
                    self.values[slot] = value;
                    return;
                }
                if key == 0 {
                    self.keys[slot] = mask;
                    self.values[slot] = value;
                    self.len += 1;
                    return;
                }
                slot = (slot + 1) & self.index_mask;
            }
            // Saturated neighbourhood: displace the home slot.
            self.keys[home] = mask;
            self.values[home] = value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::dense::DenseCoalitionCache;
    use super::*;
    use crate::game::{replay_marginals, EvalCounters, PeakDemandGame};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The sparse store must be indistinguishable from the dense
        // table: same answer to every `get`, same `len`, under random
        // insert/get/clear traffic. A key universe a few times the
        // logical capacity keeps probes exhausting and home slots being
        // displaced; tiny presizes force side-table growth mid-run.
        #[test]
        fn sparse_cache_matches_the_dense_table(
            bits in 1u8..=10,
            presize in 0usize..64,
            universe_factor in 1u64..=4,
            ops in prop::collection::vec((0u32..100, 1u64..=u64::MAX, 0u32..1_000), 1..1_500),
        ) {
            let mut sparse = CoalitionCache::with_bits_and_entries(bits, presize);
            let mut dense = DenseCoalitionCache::with_bits(bits);
            prop_assert_eq!(sparse.capacity(), dense.capacity());
            let universe = (1u64 << bits) * universe_factor;
            for (i, &(op, raw, value)) in ops.iter().enumerate() {
                let key = 1 + raw % universe;
                match op {
                    0 => {
                        sparse.clear();
                        dense.clear();
                    }
                    1..=49 => {
                        let v = f64::from(value) + i as f64 / 4.0;
                        sparse.insert(key, v);
                        dense.insert(key, v);
                    }
                    _ => prop_assert_eq!(
                        sparse.get(key).map(f64::to_bits),
                        dense.get(key).map(f64::to_bits),
                        "get({}) after {} ops", key, i
                    ),
                }
                prop_assert_eq!(sparse.len(), dense.len());
            }
            for key in 1..=universe {
                prop_assert_eq!(
                    sparse.get(key).map(f64::to_bits),
                    dense.get(key).map(f64::to_bits)
                );
            }
        }
    }

    fn demo_game() -> PeakDemandGame {
        PeakDemandGame::new(vec![
            vec![4.0, 1.0, 0.0],
            vec![1.0, 4.0, 2.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, 3.0, 1.0],
        ])
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let mut c = CoalitionCache::with_bits(4);
        assert!(c.is_empty());
        assert_eq!(c.get(0b101), None);
        c.insert(0b101, 7.5);
        c.insert(0b11, 2.0);
        assert_eq!(c.get(0b101), Some(7.5));
        assert_eq!(c.get(0b11), Some(2.0));
        assert_eq!(c.len(), 2);
        c.insert(0b101, 8.0); // overwrite, not a new entry
        assert_eq!(c.get(0b101), Some(8.0));
        assert_eq!(c.len(), 2);
        c.clear();
        assert_eq!(c.get(0b101), None);
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 16);
    }

    #[test]
    fn saturation_displaces_instead_of_growing() {
        // 2 slots, many keys: lookups must stay bounded and the most
        // recently displaced key must be retrievable.
        let mut c = CoalitionCache::with_bits(1);
        for mask in 1..=64u64 {
            c.insert(mask, mask as f64);
            assert_eq!(c.get(mask), Some(mask as f64), "freshly inserted key");
        }
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn for_players_scales_with_n_and_saturates() {
        assert_eq!(CoalitionCache::for_players(4).capacity(), 1 << 8);
        assert_eq!(CoalitionCache::for_players(12).capacity(), 1 << 13);
        assert_eq!(CoalitionCache::for_players(40).capacity(), 1 << 20);
    }

    #[test]
    fn cached_replay_matches_uncached_values() {
        let g = demo_game();
        let cached = CachedGame::new(&g);
        let mut plain_m = vec![0.0; 4];
        let mut cached_m = vec![0.0; 4];
        let mut plain_c = EvalCounters::default();
        let mut cached_c = EvalCounters::default();
        let orders: [&[usize]; 4] = [&[0, 1, 2, 3], &[3, 2, 1, 0], &[1, 0, 3, 2], &[0, 1, 2, 3]];
        for order in orders {
            replay_marginals(&g, order, &mut plain_m, &mut plain_c);
            replay_marginals(&cached, order, &mut cached_m, &mut cached_c);
            for (a, b) in plain_m.iter().zip(&cached_m) {
                // Integer-valued demands: sums are exact, so cached
                // values are bit-identical to uncached.
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // The repeated first order is answered entirely from the cache.
        assert_eq!(plain_c.coalition_evals, 16);
        assert!(cached_c.coalition_evals < plain_c.coalition_evals);
        assert_eq!(cached_c.cache_hits + cached_c.cache_misses, 16);
        assert!(cached_c.cache_hits >= 4);
        assert_eq!(
            cached_c.coalition_evals,
            cached.cache_stats().evals,
            "counters mirror the game's own accounting"
        );
    }

    #[test]
    fn hits_skip_the_inner_game_entirely() {
        let g = demo_game();
        let cached = CachedGame::new(&g);
        let mut m = vec![0.0; 4];
        let mut counters = EvalCounters::default();
        replay_marginals(&cached, &[0, 1, 2, 3], &mut m, &mut counters);
        let evals_after_first = cached.cache_stats().evals;
        replay_marginals(&cached, &[0, 1, 2, 3], &mut m, &mut counters);
        assert_eq!(
            cached.cache_stats().evals,
            evals_after_first,
            "second identical replay must not evaluate the game"
        );
        assert_eq!(cached.cache_stats().hits, 4);
        assert!((cached.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pending_players_are_applied_on_the_next_miss() {
        let g = demo_game();
        let cached = CachedGame::new(&g);
        let mut m = vec![0.0; 4];
        let mut counters = EvalCounters::default();
        // Warm the prefix {0} only.
        replay_marginals(&cached, &[0, 1, 2, 3], &mut m, &mut counters);
        // New permutation starting with the warmed prefix: first step
        // hits, the next step must evaluate {0,2} correctly even though
        // the inner state never saw player 0 in this replay.
        let mut m2 = vec![0.0; 4];
        replay_marginals(&cached, &[0, 2, 1, 3], &mut m2, &mut counters);
        use crate::game::Game;
        let expected = g.value(&Coalition::from_players(4, [0, 2]))
            - g.value(&Coalition::from_players(4, [0]));
        assert_eq!(m2[2].to_bits(), expected.to_bits());
    }

    #[test]
    fn value_path_is_cached_too() {
        let g = demo_game();
        let cached = CachedGame::new(&g);
        use crate::game::Game;
        let c = Coalition::from_players(4, [1, 3]);
        let v1 = cached.value(&c);
        let v2 = cached.value(&c);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert_eq!(cached.cache_stats().evals, 1);
        assert_eq!(cached.cache_stats().hits, 1);
        assert_eq!(cached.value(&Coalition::empty(4)), 0.0);
    }

    #[test]
    fn cache_can_be_reused_across_wrappers() {
        let g = demo_game();
        let first = CachedGame::new(&g);
        let mut m = vec![0.0; 4];
        let mut counters = EvalCounters::default();
        replay_marginals(&first, &[0, 1, 2, 3], &mut m, &mut counters);
        let warm = first.into_cache();
        assert_eq!(warm.len(), 4);
        let second = CachedGame::with_cache(&g, warm);
        replay_marginals(&second, &[0, 1, 2, 3], &mut m, &mut counters);
        assert_eq!(second.cache_stats().hits, 4);
        assert_eq!(second.cache_stats().evals, 0);
    }

    #[test]
    #[should_panic(expected = "at most 64 players")]
    fn too_many_players_panics() {
        let g = PeakDemandGame::new(vec![vec![1.0]; 65]);
        let _ = CachedGame::new(&g);
    }

    #[test]
    #[should_panic(expected = "cache bits")]
    fn zero_bits_panics() {
        let _ = CoalitionCache::with_bits(0);
    }
}
