//! A reference LRU set-associative cache with way masks, written apart
//! from `ccp_cachesim`, that `sim-fig9` compares access by access with
//! `SetAssociativeCache::access`.
//!
//! Semantics (Intel CAT on an LRU cache): a lookup hits in any way; a miss
//! fills the lowest-numbered empty way the mask allows, else the least
//! recently used way the mask allows, and reports the line it displaced.

use ccp_cachesim::{AccessOutcome, SetAssociativeCache, WayMask};

/// The model's answer for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefOutcome {
    /// The line was cached.
    Hit,
    /// The line was filled, displacing the given line if the way held one.
    Miss(Option<u64>),
}

/// The reference cache: per set, the line in each way and the ways in
/// recency order.
pub struct RefCache {
    sets: u64,
    ways: u32,
    lines: Vec<Vec<Option<u64>>>,
    /// Valid ways of each set, least recently used first.
    recency: Vec<Vec<u32>>,
}

impl RefCache {
    /// An empty cache of `sets` sets and `ways` ways.
    pub fn new(sets: u64, ways: u32) -> Self {
        RefCache {
            sets,
            ways,
            lines: (0..sets).map(|_| vec![None; ways as usize]).collect(),
            recency: (0..sets)
                .map(|_| Vec::with_capacity(ways as usize))
                .collect(),
        }
    }

    /// Accesses `line`, filling only ways set in `mask`.
    ///
    /// # Panics
    /// Panics when `mask` allows no way of this cache.
    pub fn access(&mut self, line: u64, mask: u32) -> RefOutcome {
        let set = (line % self.sets) as usize;
        let allowed = |w: u32| mask >> w & 1 == 1;
        if let Some(w) = self.lines[set].iter().position(|&l| l == Some(line)) {
            self.touch(set, w as u32);
            return RefOutcome::Hit;
        }
        let victim = (0..self.ways)
            .find(|&w| allowed(w) && self.lines[set][w as usize].is_none())
            .or_else(|| self.recency[set].iter().copied().find(|&w| allowed(w)))
            .expect("the mask allows at least one way");
        let evicted = self.lines[set][victim as usize].replace(line);
        self.touch(set, victim);
        RefOutcome::Miss(evicted)
    }

    fn touch(&mut self, set: usize, way: u32) {
        let order = &mut self.recency[set];
        order.retain(|&w| w != way);
        order.push(way);
    }
}

/// SplitMix64, for seeded traces.
pub struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Replays a seeded trace of `len` accesses through the simulator's cache
/// and the model, with each access's mask drawn from `masks`. Half the
/// accesses go to a hot set of a fifth of the cache's lines (hits), half
/// to a footprint twice the cache (misses and evictions). Returns the
/// number of accesses compared, or the first disagreement.
pub fn compare(
    size_bytes: u64,
    ways: u32,
    masks: &[u32],
    len: u64,
    seed: u64,
) -> Result<u64, String> {
    let mut real = SetAssociativeCache::new(size_bytes, ways);
    let mut model = RefCache::new(real.sets(), ways);
    let wmasks: Vec<WayMask> = masks
        .iter()
        .map(|&m| WayMask::new(m).map_err(|e| format!("mask {m:#x}: {e:?}")))
        .collect::<Result<_, _>>()?;
    let capacity = real.sets() * u64::from(ways);
    let mut rng = Rng::new(seed);
    for i in 0..len {
        let line = if rng.next_u64() & 1 == 0 {
            rng.below(capacity / 5)
        } else {
            rng.below(capacity * 2)
        };
        let k = rng.below(masks.len() as u64) as usize;
        let got = match real.access(line, wmasks[k]) {
            AccessOutcome::Hit => RefOutcome::Hit,
            AccessOutcome::Miss { evicted } => RefOutcome::Miss(evicted),
        };
        let want = model.access(line, masks[k]);
        if got != want {
            return Err(format!(
                "access {i}: line {line} under mask {:#x}: simulator {got:?}, reference {want:?}",
                masks[k]
            ));
        }
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use RefOutcome::{Hit, Miss};

    #[test]
    fn hand_worked_lru_with_masks() {
        // 2 sets x 4 ways; even lines map to set 0.
        let mut c = RefCache::new(2, 4);
        for line in [0, 2, 4, 6] {
            assert_eq!(c.access(line, 0xf), Miss(None), "empty ways fill first");
        }
        // Ways 0..3 now hold 0, 2, 4, 6; recency 0, 2, 4, 6.
        assert_eq!(c.access(0, 0xf), Hit);
        // Recency 2, 4, 6, 0: the full mask evicts line 2 (way 1).
        assert_eq!(c.access(8, 0xf), Miss(Some(2)));
        // Ways 0 and 1 hold 0 and 8; line 0 is the older of the two.
        assert_eq!(c.access(10, 0x3), Miss(Some(0)));
        // A hit is honoured in a way the mask does not allow.
        assert_eq!(c.access(6, 0x1), Hit);
        // Odd lines never disturb set 0.
        assert_eq!(c.access(1, 0xf), Miss(None));
        assert_eq!(c.access(4, 0xf), Hit);
    }

    #[test]
    fn empty_ways_are_taken_lowest_first_within_the_mask() {
        let mut c = RefCache::new(1, 4);
        assert_eq!(c.access(100, 0xc), Miss(None));
        assert_eq!(c.lines[0], vec![None, None, Some(100), None]);
        assert_eq!(c.access(101, 0xc), Miss(None));
        assert_eq!(c.lines[0], vec![None, None, Some(100), Some(101)]);
        // Mask full: line 100 (way 2) is the LRU of the allowed ways.
        assert_eq!(c.access(102, 0xc), Miss(Some(100)));
        assert_eq!(c.access(103, 0x1), Miss(None));
    }

    #[test]
    fn agrees_with_the_simulator_on_a_small_odd_geometry() {
        // 3 sets x 4 ways of 64 B lines: a set count that is no power of two.
        assert_eq!(
            compare(3 * 4 * 64, 4, &[0xf, 0x3, 0xc], 20_000, 7),
            Ok(20_000)
        );
    }
}
