//! Node renumbering: a permutation of the mesh nodes and the mesh pushed
//! through it.
//!
//! The structured generators number nodes in lattice order: every element
//! puts its nodes at the same offsets from its first node, which is what
//! the step's diagonal storage and the pressure hierarchy read off the
//! lattice the generator attaches ([`Mesh::lattice`]).  The numbering of an
//! imported mesh has none of that; [`NodePermutation::scrambled`] emulates
//! it.
//!
//! This module provides:
//!
//! * [`NodePermutation`] — an old→new node map with its inverse, plus the
//!   helpers to push fields, right-hand sides and solutions through it (and
//!   back), and [`NodePermutation::scrambled`], the arbitrary numbering of
//!   an imported mesh;
//! * [`Mesh::renumber_nodes`] — applies a permutation to the whole mesh
//!   (coordinates, connectivity, boundary tags).
//!
//! Both are test tools: a renumbered mesh carries no lattice, so a time
//! step refuses it.  The tests use them to check that the kernels do not
//! depend on the node order — renumbering commutes with the assembly
//! bitwise: element order, the element-local node order and therefore
//! every floating-point operation of the sweep are unchanged, only the
//! *destinations* of the scatter move, so assembling the renumbered mesh
//! and inverse-permuting the result reproduces the original system bit for
//! bit.

use crate::mesh::Mesh;

/// A permutation of the mesh nodes: `forward[old] = new` with its inverse
/// `inverse[new] = old`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodePermutation {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl NodePermutation {
    /// Builds a permutation from its forward map (`forward[old] = new`).
    ///
    /// # Panics
    /// Panics if `forward` is not a permutation of `0..forward.len()`.
    pub fn from_forward(forward: Vec<usize>) -> Self {
        let n = forward.len();
        let mut inverse = vec![usize::MAX; n];
        for (old, &new) in forward.iter().enumerate() {
            assert!(new < n, "forward map sends {old} to {new}, outside 0..{n}");
            assert!(inverse[new] == usize::MAX, "forward map is not injective at {new}");
            inverse[new] = old;
        }
        NodePermutation { forward, inverse }
    }

    /// The identity permutation on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let forward: Vec<usize> = (0..n).collect();
        NodePermutation { inverse: forward.clone(), forward }
    }

    /// Number of nodes permuted.
    #[inline]
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// Whether the permutation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Whether this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.forward.iter().enumerate().all(|(old, &new)| old == new)
    }

    /// New id of old node `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.forward[old]
    }

    /// Old id of new node `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.inverse[new]
    }

    /// The forward map (`forward[old] = new`).
    #[inline]
    pub fn forward(&self) -> &[usize] {
        &self.forward
    }

    /// The inverse map (`inverse[new] = old`).
    #[inline]
    pub fn inverse(&self) -> &[usize] {
        &self.inverse
    }

    /// The inverse permutation as a [`NodePermutation`] of its own.
    pub fn inverted(&self) -> NodePermutation {
        NodePermutation { forward: self.inverse.clone(), inverse: self.forward.clone() }
    }

    /// A deterministic pseudo-random permutation of `n` nodes (Fisher–Yates
    /// on a seeded generator).
    ///
    /// The structured generators of this workspace number nodes
    /// lexicographically, which is already bandwidth-optimal for a box — a
    /// luxury real unstructured meshes (the paper's Alya production cases)
    /// do not have.  Scrambling the node order emulates the arbitrary
    /// numbering of an imported mesh.
    pub fn scrambled(n: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut forward: Vec<usize> = (0..n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i + 1);
            forward.swap(i, j);
        }
        NodePermutation::from_forward(forward)
    }

    /// Permutes a per-node scalar array: `out[forward[node]] = values[node]`.
    ///
    /// # Panics
    /// Panics if the length does not match the permutation.
    pub fn permute_scalar(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.len(), "scalar array length must match the node count");
        let mut out = vec![0.0; values.len()];
        for (old, &v) in values.iter().enumerate() {
            out[self.forward[old]] = v;
        }
        out
    }

    /// Permutes a per-node blocked array (`values[block*node + c]`, e.g. the
    /// `NDIME`-interleaved right-hand side or a [`crate::field::VectorField`]
    /// storage): node blocks move wholesale.
    ///
    /// # Panics
    /// Panics if the length is not `block * len()`.
    pub fn permute_blocked(&self, values: &[f64], block: usize) -> Vec<f64> {
        assert_eq!(
            values.len(),
            block * self.len(),
            "blocked array length must be block * node count"
        );
        let mut out = vec![0.0; values.len()];
        for old in 0..self.len() {
            let new = self.forward[old];
            out[block * new..block * (new + 1)]
                .copy_from_slice(&values[block * old..block * (old + 1)]);
        }
        out
    }
}

impl Mesh {
    /// Returns the mesh with its nodes renumbered by `perm`: coordinates and
    /// boundary tags move to their new slots, connectivity entries are
    /// remapped.  Element order and element-local node order are unchanged,
    /// so the assembly sweep over the renumbered mesh performs exactly the
    /// same floating-point operations — only the scatter destinations move.
    /// The result carries no lattice, even under the identity permutation.
    ///
    /// # Panics
    /// Panics if the permutation size does not match the node count.
    pub fn renumber_nodes(&self, perm: &NodePermutation) -> Mesh {
        assert_eq!(perm.len(), self.num_nodes(), "permutation must cover every node");
        let coords = perm.permute_blocked(self.coords(), 3);
        let mut boundary = vec![self.boundary_tag(0); self.num_nodes()];
        for old in 0..self.num_nodes() {
            boundary[perm.new_of(old)] = self.boundary_tag(old);
        }
        let lnods: Vec<u32> =
            self.connectivity().iter().map(|&node| perm.new_of(node as usize) as u32).collect();
        Mesh::from_raw(self.kind(), coords, lnods, boundary, self.characteristic_length())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::BoxMeshBuilder;

    /// Node-graph bandwidth: the largest `|a - b|` over node pairs sharing
    /// an element, which is the bandwidth of the CSR matrix assembled on
    /// the node graph.
    fn bandwidth(mesh: &Mesh) -> usize {
        let pairs = mesh.elements().flat_map(|e| {
            let nodes = mesh.element_nodes(e);
            nodes.iter().flat_map(move |&a| nodes.iter().map(move |&b| a.abs_diff(b) as usize))
        });
        pairs.max().unwrap_or(0)
    }

    #[test]
    fn identity_permutation_roundtrips() {
        let p = NodePermutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(p.permute_scalar(&values), values);
    }

    #[test]
    fn from_forward_builds_consistent_inverse() {
        let p = NodePermutation::from_forward(vec![2, 0, 3, 1]);
        for old in 0..4 {
            assert_eq!(p.old_of(p.new_of(old)), old);
        }
        assert!(!p.is_identity());
        let q = p.inverted();
        for old in 0..4 {
            assert_eq!(q.new_of(p.new_of(old)), old);
        }
    }

    #[test]
    #[should_panic(expected = "not injective")]
    fn duplicate_forward_entries_rejected() {
        let _ = NodePermutation::from_forward(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_forward_entries_rejected() {
        let _ = NodePermutation::from_forward(vec![0, 3]);
    }

    #[test]
    fn permute_scalar_and_blocked_agree() {
        let p = NodePermutation::from_forward(vec![1, 2, 0]);
        let scalar = [10.0, 20.0, 30.0];
        assert_eq!(p.permute_scalar(&scalar), vec![30.0, 10.0, 20.0]);
        let blocked = [10.0, 11.0, 20.0, 21.0, 30.0, 31.0];
        assert_eq!(p.permute_blocked(&blocked, 2), vec![30.0, 31.0, 10.0, 11.0, 20.0, 21.0]);
        // Inverse permutation undoes it.
        let inv = p.inverted();
        assert_eq!(inv.permute_blocked(&p.permute_blocked(&blocked, 2), 2), blocked);
    }

    #[test]
    fn renumbered_mesh_preserves_geometry_and_tags() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).lid_driven_cavity().with_jitter(0.1, 5).build();
        let p = NodePermutation::scrambled(mesh.num_nodes(), 5);
        let renumbered = mesh.renumber_nodes(&p);
        assert!(renumbered.validate().is_empty());
        assert!((renumbered.total_volume() - mesh.total_volume()).abs() < 1e-12);
        for old in 0..mesh.num_nodes() {
            let new = p.new_of(old);
            assert_eq!(renumbered.boundary_tag(new), mesh.boundary_tag(old));
            assert!(renumbered.node_coords(new).distance(mesh.node_coords(old)) == 0.0);
        }
        // Per-element volumes are bitwise identical: same element order, same
        // local node order, same coordinates.
        for e in mesh.elements() {
            assert_eq!(mesh.element_volume(e).to_bits(), renumbered.element_volume(e).to_bits());
        }
    }

    #[test]
    fn renumbered_node_graph_is_the_permuted_pattern() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let p = NodePermutation::scrambled(mesh.num_nodes(), 8);
        let renumbered = mesh.renumber_nodes(&p);
        let (row_ptr_o, col_idx_o) = mesh.node_graph_csr();
        let (row_ptr_r, col_idx_r) = renumbered.node_graph_csr();
        for new in 0..renumbered.num_nodes() {
            let old = p.old_of(new);
            let mut expect: Vec<usize> = col_idx_o[row_ptr_o[old]..row_ptr_o[old + 1]]
                .iter()
                .map(|&c| p.new_of(c))
                .collect();
            expect.sort_unstable();
            assert_eq!(&col_idx_r[row_ptr_r[new]..row_ptr_r[new + 1]], expect.as_slice());
        }
    }

    #[test]
    fn scrambled_permutation_is_deterministic_and_destroys_locality() {
        let mesh = BoxMeshBuilder::new(8, 8, 8).build();
        let p = NodePermutation::scrambled(mesh.num_nodes(), 3);
        assert_eq!(p, NodePermutation::scrambled(mesh.num_nodes(), 3));
        assert_ne!(p, NodePermutation::scrambled(mesh.num_nodes(), 4));
        assert!(!p.is_identity());
        let scrambled = mesh.renumber_nodes(&p);
        assert!(bandwidth(&scrambled) > 3 * bandwidth(&mesh));
    }
}
