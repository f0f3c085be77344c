//! Union–find (disjoint sets) with path compression and union by rank.

/// A disjoint-set forest over `0..n`.
///
/// # Example
///
/// ```
/// use eend_graph::DisjointSets;
///
/// let mut dsu = DisjointSets::new(4);
/// assert!(dsu.union(0, 1));
/// assert!(!dsu.union(1, 0), "already joined");
/// assert!(dsu.same(0, 1));
/// assert!(!dsu.same(0, 2));
/// assert_eq!(dsu.set_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct DisjointSets {
    parent: Vec<usize>,
    rank: Vec<u8>,
    sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> DisjointSets {
        DisjointSets { parent: (0..n).collect(), rank: vec![0; n], sets: n }
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.sets -= 1;
        true
    }

    /// `true` if `a` and `b` share a set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets remaining.
    pub fn set_count(&self) -> usize {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons() {
        let mut d = DisjointSets::new(3);
        assert_eq!(d.set_count(), 3);
        for i in 0..3 {
            assert_eq!(d.find(i), i);
        }
    }

    #[test]
    fn chained_unions() {
        let mut d = DisjointSets::new(10);
        for i in 0..9 {
            assert!(d.union(i, i + 1));
        }
        assert_eq!(d.set_count(), 1);
        assert!(d.same(0, 9));
    }

    #[test]
    fn union_is_idempotent() {
        let mut d = DisjointSets::new(4);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert!(d.union(0, 2));
        assert!(!d.union(1, 3));
        assert_eq!(d.set_count(), 1);
    }

    #[test]
    fn transitivity() {
        let mut d = DisjointSets::new(6);
        d.union(0, 1);
        d.union(1, 2);
        d.union(4, 5);
        assert!(d.same(0, 2));
        assert!(!d.same(2, 4));
        assert!(d.same(5, 4));
    }
}
