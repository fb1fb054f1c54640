//! Canonical undirected edges and edge sets.

use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// An undirected edge in canonical form (`u < v`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Edge {
    u: u32,
    v: u32,
}

impl Edge {
    /// Creates a canonical edge from two distinct endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not representable).
    pub fn new(a: u32, b: u32) -> Self {
        assert!(a != b, "self-loop {a}-{b} is not a valid edge");
        Edge {
            u: a.min(b),
            v: a.max(b),
        }
    }

    /// The smaller endpoint.
    pub fn u(self) -> u32 {
        self.u
    }

    /// The larger endpoint.
    pub fn v(self) -> u32 {
        self.v
    }

    /// Both endpoints as a tuple `(min, max)`.
    pub fn endpoints(self) -> (u32, u32) {
        (self.u, self.v)
    }

    /// The endpoint other than `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint.
    pub fn other(self, x: u32) -> u32 {
        if self.u == x {
            self.v
        } else if self.v == x {
            self.u
        } else {
            panic!("{x} is not an endpoint of {self:?}")
        }
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.u, self.v)
    }
}

impl From<(u32, u32)> for Edge {
    fn from((a, b): (u32, u32)) -> Self {
        Edge::new(a, b)
    }
}

/// A set of undirected edges with O(1) membership queries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeSet {
    inner: HashSet<Edge>,
}

impl EdgeSet {
    /// Creates an empty edge set.
    pub fn new() -> Self {
        EdgeSet::default()
    }

    /// Inserts an edge; returns `true` if it was not present.
    pub fn insert(&mut self, edge: Edge) -> bool {
        self.inner.insert(edge)
    }

    /// Whether the edge is in the set.
    pub fn contains(&self, edge: Edge) -> bool {
        self.inner.contains(&edge)
    }

    /// Whether the undirected pair `(a, b)` is in the set.
    pub fn contains_pair(&self, a: u32, b: u32) -> bool {
        a != b && self.inner.contains(&Edge::new(a, b))
    }

    /// Number of edges in the set.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterates over the edges in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.inner.iter().copied()
    }

    /// Whether `self` and `other` share no edge.
    pub fn is_disjoint(&self, other: &EdgeSet) -> bool {
        self.inner.is_disjoint(&other.inner)
    }

    /// Returns the edges as a sorted vector (deterministic order).
    pub fn to_sorted_vec(&self) -> Vec<Edge> {
        let mut v: Vec<Edge> = self.inner.iter().copied().collect();
        v.sort_unstable();
        v
    }
}

impl FromIterator<Edge> for EdgeSet {
    fn from_iter<I: IntoIterator<Item = Edge>>(iter: I) -> Self {
        EdgeSet {
            inner: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a EdgeSet {
    type Item = Edge;
    type IntoIter = std::iter::Copied<std::collections::hash_set::Iter<'a, Edge>>;

    fn into_iter(self) -> Self::IntoIter {
        self.inner.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_is_canonical() {
        let e = Edge::new(7, 3);
        assert_eq!(e.endpoints(), (3, 7));
        assert_eq!(e, Edge::new(3, 7));
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
        assert_eq!(Edge::from((7, 3)), e);
        assert_eq!(format!("{e:?}"), "{3, 7}");
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        Edge::new(4, 4);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_requires_endpoint() {
        Edge::new(1, 2).other(3);
    }

    #[test]
    fn edge_set_operations() {
        let mut a = EdgeSet::new();
        assert!(a.is_empty());
        assert!(a.insert(Edge::new(1, 2)));
        assert!(!a.insert(Edge::new(2, 1)));
        a.insert(Edge::new(2, 3));
        assert_eq!(a.len(), 2);
        assert!(a.contains_pair(2, 1));
        assert!(!a.contains_pair(1, 1));
        assert!(!a.contains_pair(1, 3));

        let b: EdgeSet = [Edge::new(2, 3), Edge::new(4, 5)].into_iter().collect();
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&[Edge::new(4, 5)].into_iter().collect()));
        assert!(b.contains(Edge::new(4, 5)));

        let sorted = b.to_sorted_vec();
        assert_eq!(sorted, vec![Edge::new(2, 3), Edge::new(4, 5)]);
    }
}
