//! The set-associative address table.
//!
//! Both Nexus++ and each Nexus# task graph store per-address tracking state in
//! a "set-associative cache-like structure" (§III, §IV-C): the low bits of the
//! (cache-line-aligned) address select a set, and a small number of ways per
//! set hold the active address entries. When a set is full, the design falls
//! back to dummy/overflow entries, which cost extra cycles to reach; the table
//! reports these events so the timing models can charge for them and the
//! statistics can show how often they happen.

use nexus_sim::FxHashMap;
use serde::{Deserialize, Serialize};

/// Geometry of a set-associative table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetAssocConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Ways (entries) per set.
    pub ways: usize,
    /// Low address bits ignored when indexing (cache-line offset bits).
    pub line_offset_bits: u32,
}

impl Default for SetAssocConfig {
    fn default() -> Self {
        // 512 sets x 4 ways = 2048 simultaneously tracked addresses per task
        // graph, comfortably above the working sets of the paper's benchmarks.
        SetAssocConfig {
            sets: 512,
            ways: 4,
            line_offset_bits: 6,
        }
    }
}

impl SetAssocConfig {
    /// Total entry capacity before overflow.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for an address.
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_offset_bits) as usize) & (self.sets - 1)
    }

    /// Validates the geometry.
    pub fn validate(&self) -> Result<(), String> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(format!(
                "sets must be a non-zero power of two, got {}",
                self.sets
            ));
        }
        if self.ways == 0 {
            return Err("ways must be non-zero".to_string());
        }
        Ok(())
    }
}

/// Where an entry lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// In its home set.
    Way,
    /// In the overflow (dummy-entry) area because the home set was full.
    Overflow,
}

/// Occupancy and event statistics of a table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableStats {
    /// Entries currently resident in ways.
    pub resident: usize,
    /// Entries currently in the overflow area.
    pub overflowed: usize,
    /// Total insertions.
    pub insertions: u64,
    /// Insertions that had to use the overflow area.
    pub overflow_insertions: u64,
    /// Lookups that found their entry in the overflow area.
    pub overflow_hits: u64,
    /// Peak number of simultaneously live entries (ways + overflow).
    pub peak_live: usize,
}

/// A set-associative table keyed by 48-bit addresses with an overflow area.
///
/// The `sets × ways` entries sit in one contiguous array, set after set, as
/// the ways of a hardware set sit side by side: set `s` owns slots
/// `s * ways .. (s + 1) * ways`, of which the first `fill[s]` are live. The
/// address tags are kept apart from the values so a lookup compares one
/// short run of tags.
#[derive(Debug, Clone)]
pub struct SetAssocTable<V> {
    config: SetAssocConfig,
    /// Address tag of every slot (stale beyond the set's fill count).
    tags: Vec<u64>,
    /// Value of every slot, `Some` exactly in the live ones.
    values: Vec<Option<V>>,
    /// Live ways per set.
    fill: Vec<usize>,
    overflow: FxHashMap<u64, V>,
    stats: TableStats,
}

impl<V> SetAssocTable<V> {
    /// Creates an empty table with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry is invalid.
    pub fn new(config: SetAssocConfig) -> Self {
        config.validate().expect("invalid set-associative geometry");
        let slots = config.capacity();
        SetAssocTable {
            config,
            tags: vec![0; slots],
            values: (0..slots).map(|_| None).collect(),
            fill: vec![0; config.sets],
            overflow: FxHashMap::default(),
            stats: TableStats::default(),
        }
    }

    /// Table geometry.
    pub fn config(&self) -> &SetAssocConfig {
        &self.config
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Number of live entries (ways + overflow).
    pub fn len(&self) -> usize {
        self.stats.resident + self.stats.overflowed
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// First slot of `set`.
    fn base(&self, set: usize) -> usize {
        set * self.config.ways
    }

    /// The slot holding `addr` in its home `set`, if it is resident there.
    fn find(&self, set: usize, addr: u64) -> Option<usize> {
        let base = self.base(set);
        self.tags[base..base + self.fill[set]]
            .iter()
            .position(|&t| t == addr)
            .map(|way| base + way)
    }

    /// Looks up an entry, reporting where it was found.
    pub fn get(&self, addr: u64) -> Option<(&V, Placement)> {
        if let Some(slot) = self.find(self.config.set_of(addr), addr) {
            return self.values[slot].as_ref().map(|v| (v, Placement::Way));
        }
        self.overflow.get(&addr).map(|v| (v, Placement::Overflow))
    }

    /// Mutable lookup, reporting where the entry was found and counting
    /// overflow hits.
    pub fn get_mut(&mut self, addr: u64) -> Option<(&mut V, Placement)> {
        if let Some(slot) = self.find(self.config.set_of(addr), addr) {
            return self.values[slot].as_mut().map(|v| (v, Placement::Way));
        }
        if let Some(v) = self.overflow.get_mut(&addr) {
            self.stats.overflow_hits += 1;
            return Some((v, Placement::Overflow));
        }
        None
    }

    /// Returns the entry for `addr`, inserting a fresh one created by `init` if
    /// absent. Reports the placement and whether a new entry was allocated.
    pub fn get_or_insert_with(
        &mut self,
        addr: u64,
        init: impl FnOnce() -> V,
    ) -> (&mut V, Placement, bool) {
        let set = self.config.set_of(addr);
        if let Some(slot) = self.find(set, addr) {
            let v = self.values[slot].as_mut().expect("live way");
            return (v, Placement::Way, false);
        }
        if self.overflow.contains_key(&addr) {
            self.stats.overflow_hits += 1;
            let v = self.overflow.get_mut(&addr).expect("just found");
            return (v, Placement::Overflow, false);
        }
        // Allocate.
        self.stats.insertions += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.len() + 1);
        let fill = self.fill[set];
        if fill < self.config.ways {
            self.stats.resident += 1;
            self.fill[set] = fill + 1;
            let slot = self.base(set) + fill;
            self.tags[slot] = addr;
            let v = self.values[slot].insert(init());
            (v, Placement::Way, true)
        } else {
            self.stats.overflow_insertions += 1;
            self.stats.overflowed += 1;
            (
                self.overflow.entry(addr).or_insert_with(init),
                Placement::Overflow,
                true,
            )
        }
    }

    /// Removes the entry for `addr`, returning its value. The set's last live
    /// way moves into the freed slot (`Vec::swap_remove` order).
    pub fn remove(&mut self, addr: u64) -> Option<V> {
        let set = self.config.set_of(addr);
        if let Some(slot) = self.find(set, addr) {
            self.stats.resident -= 1;
            self.fill[set] -= 1;
            let last = self.base(set) + self.fill[set];
            let v = self.values[slot].take();
            self.tags[slot] = self.tags[last];
            self.values.swap(slot, last);
            return v;
        }
        if let Some(v) = self.overflow.remove(&addr) {
            self.stats.overflowed -= 1;
            return Some(v);
        }
        None
    }

    /// Iterates over all live entries (way entries set by set, then overflow).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.tags
            .iter()
            .zip(&self.values)
            .filter_map(|(&addr, v)| v.as_ref().map(|v| (addr, v)))
            .chain(self.overflow.iter().map(|(a, v)| (*a, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocTable<u32> {
        SetAssocTable::new(SetAssocConfig {
            sets: 2,
            ways: 2,
            line_offset_bits: 6,
        })
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let mut t = tiny();
        let (v, p, fresh) = t.get_or_insert_with(0x1000, || 7);
        assert_eq!((*v, p, fresh), (7, Placement::Way, true));
        let (v, p, fresh) = t.get_or_insert_with(0x1000, || 99);
        assert_eq!((*v, p, fresh), (7, Placement::Way, false));
        *v = 8;
        assert_eq!(t.get(0x1000).unwrap().0, &8);
        assert_eq!(t.remove(0x1000), Some(8));
        assert!(t.get(0x1000).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn set_conflicts_fall_back_to_overflow() {
        let mut t = tiny();
        // Addresses 0x0, 0x80, 0x100, 0x180 with 64-byte lines and 2 sets:
        // line indices 0,2,4,6 -> all even -> set 0. Two fit, the rest overflow.
        let addrs = [0x0u64, 0x80, 0x100, 0x180];
        let mut placements = Vec::new();
        for (i, &a) in addrs.iter().enumerate() {
            let (_, p, fresh) = t.get_or_insert_with(a, || i as u32);
            assert!(fresh);
            placements.push(p);
        }
        assert_eq!(placements[0], Placement::Way);
        assert_eq!(placements[1], Placement::Way);
        assert_eq!(placements[2], Placement::Overflow);
        assert_eq!(placements[3], Placement::Overflow);
        let s = t.stats();
        assert_eq!(s.insertions, 4);
        assert_eq!(s.overflow_insertions, 2);
        assert_eq!(s.resident, 2);
        assert_eq!(s.overflowed, 2);
        assert_eq!(s.peak_live, 4);
        // Lookups in the overflow area are counted.
        assert_eq!(t.get_mut(0x100).unwrap().1, Placement::Overflow);
        assert!(t.stats().overflow_hits >= 1);
        // Removing a way entry frees the slot for a later insertion.
        t.remove(0x0);
        let (_, p, _) = t.get_or_insert_with(0x200, || 9);
        assert_eq!(p, Placement::Way);
    }

    #[test]
    fn iter_visits_everything() {
        let mut t = tiny();
        for i in 0..6u64 {
            t.get_or_insert_with(i * 64, || i as u32);
        }
        let mut seen: Vec<u64> = t.iter().map(|(a, _)| a).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..6).map(|i| i * 64).collect::<Vec<_>>());
        assert_eq!(t.len(), 6);
    }

    /// The table as it was stored before the flat layout: one `Vec` per set
    /// with `swap_remove` removal, and the same overflow map and statistics.
    struct Reference {
        config: SetAssocConfig,
        sets: Vec<Vec<(u64, u32)>>,
        overflow: FxHashMap<u64, u32>,
        stats: TableStats,
    }

    impl Reference {
        fn new(config: SetAssocConfig) -> Self {
            Reference {
                config,
                sets: vec![Vec::new(); config.sets],
                overflow: FxHashMap::default(),
                stats: TableStats::default(),
            }
        }

        fn len(&self) -> usize {
            self.stats.resident + self.stats.overflowed
        }

        fn get(&self, addr: u64) -> Option<(u32, Placement)> {
            let set = &self.sets[self.config.set_of(addr)];
            match set.iter().find(|e| e.0 == addr) {
                Some(e) => Some((e.1, Placement::Way)),
                None => self.overflow.get(&addr).map(|&v| (v, Placement::Overflow)),
            }
        }

        fn get_mut(&mut self, addr: u64) -> Option<(&mut u32, Placement)> {
            let set = &mut self.sets[self.config.set_of(addr)];
            if let Some(e) = set.iter_mut().find(|e| e.0 == addr) {
                return Some((&mut e.1, Placement::Way));
            }
            let v = self.overflow.get_mut(&addr)?;
            self.stats.overflow_hits += 1;
            Some((v, Placement::Overflow))
        }

        fn get_or_insert(&mut self, addr: u64, init: u32) -> (u32, Placement, bool) {
            if let Some((v, p)) = self.get_mut(addr) {
                return (*v, p, false);
            }
            self.stats.insertions += 1;
            self.stats.peak_live = self.stats.peak_live.max(self.len() + 1);
            let ways = self.config.ways;
            let set = &mut self.sets[self.config.set_of(addr)];
            if set.len() < ways {
                self.stats.resident += 1;
                set.push((addr, init));
                (init, Placement::Way, true)
            } else {
                self.stats.overflow_insertions += 1;
                self.stats.overflowed += 1;
                self.overflow.insert(addr, init);
                (init, Placement::Overflow, true)
            }
        }

        fn remove(&mut self, addr: u64) -> Option<u32> {
            let set = &mut self.sets[self.config.set_of(addr)];
            if let Some(pos) = set.iter().position(|e| e.0 == addr) {
                self.stats.resident -= 1;
                return Some(set.swap_remove(pos).1);
            }
            let v = self.overflow.remove(&addr)?;
            self.stats.overflowed -= 1;
            Some(v)
        }

        fn entries(&self) -> Vec<(u64, u32)> {
            self.sets
                .iter()
                .flatten()
                .copied()
                .chain(self.overflow.iter().map(|(&a, &v)| (a, v)))
                .collect()
        }
    }

    #[test]
    fn flat_table_matches_the_vec_of_vec_reference() {
        let config = SetAssocConfig {
            sets: 2,
            ways: 3,
            line_offset_bits: 6,
        };
        let mut rng = nexus_sim::SimRng::new(0x5e7a);
        let mut table = SetAssocTable::new(config);
        let mut reference = Reference::new(config);
        let mut overflowed = 0;
        for step in 0..20_000u32 {
            // 16 lines, two addresses per line: up to 32 live entries on 6
            // ways, so sets fill and spill into the overflow area often.
            let addr = rng.next_below(16) * 64 + rng.next_below(2) * 8;
            match rng.next_below(3) {
                0 => {
                    let (v, p, fresh) = table.get_or_insert_with(addr, || step);
                    assert_eq!((*v, p, fresh), reference.get_or_insert(addr, step));
                    overflowed += usize::from(p == Placement::Overflow);
                }
                1 => {
                    let got = table.get_mut(addr).map(|(v, p)| {
                        *v += 1;
                        (*v, p)
                    });
                    let want = reference.get_mut(addr).map(|(v, p)| {
                        *v += 1;
                        (*v, p)
                    });
                    assert_eq!(got, want, "get_mut({addr:#x}) at step {step}");
                }
                _ => assert_eq!(table.remove(addr), reference.remove(addr)),
            }
            assert_eq!(table.stats(), reference.stats, "step {step}");
            assert_eq!(
                table.iter().map(|(a, &v)| (a, v)).collect::<Vec<_>>(),
                reference.entries(),
                "iteration order at step {step}"
            );
            let probe = rng.next_below(16) * 64;
            assert_eq!(table.get(probe).map(|(&v, p)| (v, p)), reference.get(probe));
        }
        assert!(overflowed > 100, "overflow exercised {overflowed} times");
    }

    #[test]
    fn default_config_is_sane() {
        let c = SetAssocConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.capacity(), 2048);
        // Two addresses on the same line map to the same set.
        assert_eq!(c.set_of(0x1000), c.set_of(0x1020));
        assert_ne!(c.set_of(0x1000), c.set_of(0x1040));
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(SetAssocConfig {
            sets: 3,
            ways: 2,
            line_offset_bits: 6
        }
        .validate()
        .is_err());
        assert!(SetAssocConfig {
            sets: 4,
            ways: 0,
            line_offset_bits: 6
        }
        .validate()
        .is_err());
    }
}
