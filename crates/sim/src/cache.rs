//! Set-associative cache tag arrays with LRU replacement.
//!
//! Tags store the full line number (address / 64), so lookup is an equality
//! scan over one set — simple, branch-predictable, and fast enough for the
//! multi-million-cycle runs the experiments need. Entries carry a dirty bit
//! and a sharer bitmap; the bitmap is used by the shared-L2 directory (which
//! cores' L1s hold this line — up to 16 cores) and ignored by L1s.

/// One tag entry.
/// Cores a directory entry can track: `sharers` holds one bit per core
/// number. Machines with more cores cannot have a shared or island level
/// (`ConfigError::TooManyDirectoryCores`).
pub const DIRECTORY_CORES: usize = u16::BITS as usize;

#[derive(Debug, Clone, Copy, Default)]
pub struct Entry {
    /// Line number (addr >> 6) + 1; 0 = invalid.
    key: u64,
    /// LRU timestamp (bigger = more recent).
    lru: u64,
    pub dirty: bool,
    /// For a shared L2 acting as directory: bit i set ⇒ core i's L1 may
    /// hold the line ([`DIRECTORY_CORES`] bits). For L1s: unused.
    pub sharers: u16,
    /// Directory: core that holds the line modified (valid when
    /// `dirty_in_l1`). 0xFF = none.
    pub owner: u8,
    /// Directory: some L1 holds the line modified.
    pub dirty_in_l1: bool,
}

impl Entry {
    #[inline]
    fn valid(&self) -> bool {
        self.key != 0
    }

    pub fn line(&self) -> u64 {
        self.key - 1
    }
}

/// Set-associative, LRU, write-back cache tag array.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    entries: Vec<Entry>,
    clock: u64,
    pub accesses: u64,
    pub misses: u64,
}

/// Result of inserting a line: what (if anything) was evicted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evicted {
    pub line: u64,
    pub dirty: bool,
    pub sharers: u16,
    pub dirty_in_l1: bool,
    pub owner: u8,
}

impl Cache {
    /// `size` bytes, `assoc` ways, 64 B lines. Set counts need not be a
    /// power of two (the paper sweeps odd sizes like 26 MB), so indexing is
    /// an exact modulo.
    pub fn new(size: u64, assoc: usize) -> Self {
        let lines = (size / 64).max(1) as usize;
        let assoc = assoc.clamp(1, lines);
        let sets = (lines / assoc).max(1);
        Cache {
            sets,
            assoc,
            entries: vec![Entry::default(); sets * assoc],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line % self.sets as u64) as usize;
        let start = set * self.assoc;
        start..start + self.assoc
    }

    /// Look up a line; on hit, refresh LRU and return a handle index.
    #[inline]
    pub fn probe(&mut self, line: u64) -> Option<usize> {
        self.accesses += 1;
        self.clock += 1;
        let key = line + 1;
        let r = self.set_range(line);
        for i in r {
            if self.entries[i].key == key {
                self.entries[i].lru = self.clock;
                return Some(i);
            }
        }
        self.misses += 1;
        None
    }

    /// Look up without perturbing LRU or counters (directory peeks).
    #[inline]
    pub fn peek(&self, line: u64) -> Option<usize> {
        let key = line + 1;
        let r = self.set_range(line);
        (r.start..r.end).find(|&i| self.entries[i].key == key)
    }

    /// Insert a line (caller has established it is absent); returns the
    /// victim if a valid line was evicted.
    pub fn insert(&mut self, line: u64) -> (usize, Option<Evicted>) {
        self.clock += 1;
        let r = self.set_range(line);
        let mut victim = r.start;
        let mut best = u64::MAX;
        for i in r {
            if !self.entries[i].valid() {
                victim = i;
                break;
            }
            if self.entries[i].lru < best {
                best = self.entries[i].lru;
                victim = i;
            }
        }
        let old = self.entries[victim];
        let evicted = old.valid().then(|| Evicted {
            line: old.line(),
            dirty: old.dirty,
            sharers: old.sharers,
            dirty_in_l1: old.dirty_in_l1,
            owner: old.owner,
        });
        self.entries[victim] = Entry {
            key: line + 1,
            lru: self.clock,
            dirty: false,
            sharers: 0,
            owner: 0xFF,
            dirty_in_l1: false,
        };
        (victim, evicted)
    }

    /// Remove a line if present; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.peek(line)?;
        let dirty = self.entries[i].dirty;
        self.entries[i] = Entry::default();
        Some(dirty)
    }

    #[inline]
    pub fn entry_mut(&mut self, idx: usize) -> &mut Entry {
        &mut self.entries[idx]
    }

    #[inline]
    pub fn entry(&self, idx: usize) -> &Entry {
        &self.entries[idx]
    }

    pub fn sets(&self) -> usize {
        self.sets
    }

    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways = 8 lines of 64 B = 512 B.
        Cache::new(512, 2)
    }

    #[test]
    fn hit_after_insert() {
        let mut c = small();
        assert!(c.probe(10).is_none());
        c.insert(10);
        assert!(c.probe(10).is_some());
        assert_eq!(c.accesses, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(0);
        c.insert(4);
        c.probe(0); // 0 now MRU; 4 is LRU
        let (_, ev) = c.insert(8);
        assert_eq!(ev.unwrap().line, 4);
        assert!(c.peek(0).is_some());
        assert!(c.peek(8).is_some());
        assert!(c.peek(4).is_none());
    }

    #[test]
    fn invalidate_reports_dirty() {
        let mut c = small();
        let (i, _) = c.insert(3);
        c.entry_mut(i).dirty = true;
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(c.probe(3).is_none());
    }

    #[test]
    fn eviction_carries_metadata() {
        let mut c = Cache::new(128, 1); // 2 sets x 1 way
        let (i, _) = c.insert(0);
        {
            let e = c.entry_mut(i);
            e.dirty = true;
            e.sharers = 0b101;
            e.dirty_in_l1 = true;
            e.owner = 2;
        }
        let (_, ev) = c.insert(2); // same set (2 sets: line 2 -> set 0)
        let ev = ev.unwrap();
        assert_eq!(ev.line, 0);
        assert!(ev.dirty);
        assert_eq!(ev.sharers, 0b101);
        assert!(ev.dirty_in_l1);
        assert_eq!(ev.owner, 2);
    }

    #[test]
    fn peek_does_not_touch_lru() {
        let mut c = small();
        c.insert(0);
        c.insert(4);
        // Peek at 0 (would make it MRU if it were probe).
        c.peek(0);
        // 0 is still LRU (insert order), so inserting 8 evicts 0.
        let (_, ev) = c.insert(8);
        assert_eq!(ev.unwrap().line, 0);
    }

    #[test]
    fn occupancy_counts() {
        let mut c = small();
        assert_eq!(c.occupancy(), 0);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn geometry_exact_for_odd_sizes() {
        let c = Cache::new(1 << 20, 16);
        assert_eq!(c.sets() * c.assoc(), 16384);
        // 26 MB / 64 B / 16-way = 26624 sets — not a power of two, must not
        // be silently rounded.
        let c26 = Cache::new(26 << 20, 16);
        assert_eq!(c26.sets() * c26.assoc(), (26 << 20) / 64);
    }
}
