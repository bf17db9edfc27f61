//! Everything the assembly sweeps derive from the connectivity alone, built
//! once per mesh: the node-to-node graph in CSR form (the sparsity pattern
//! of every assembled matrix) and the element→CSR **slot map** (where each
//! of an element's `pnode²` matrix entries lands in the CSR value array).
//! The slot map is built on first use: only a CSR scatter reads it (the
//! mini-app's sweeps and a jittered box's per-entry `C`), and the time step
//! of an unjittered generator box never does.
//!
//! The sparsity pattern never changes between sweeps, so neither do the
//! destinations of the scatter: phase 8 of the assembly and the projection
//! operators' set-up look their positions up here instead of searching the
//! CSR rows once per entry per sweep — the OP2 discipline of building
//! indirection maps once and only executing them in the loop.  The chunk
//! schedules that decide which elements may scatter concurrently are the
//! sweeps' own ([`crate::coloring`]).
//!
//! Where the node numbering is translation-invariant — every element's
//! nodes sit at the same offsets from its first node, as on every box a
//! generator numbers — the `col − row` offset of an element entry
//! `(a, b)` is the same in every element, and the matrix can live on
//! diagonals instead: [`ElementDiagonals`] is that table, found and checked
//! against every element here, once.
//!
//! A [`MeshTopology`] is immutable and meant to be shared (`Arc`) by every
//! operator built on the same mesh.

use crate::mesh::Mesh;
use std::sync::OnceLock;

/// Node→element incidence by counting sort: the entries
/// `at[ptr[n]..ptr[n + 1]]` are the positions of node `n` in
/// [`Mesh::connectivity`] (`pnode * elem + local_node`), ascending.
fn node_incidence(mesh: &Mesh) -> (Vec<usize>, Vec<usize>) {
    let lnods = mesh.connectivity();
    let mut ptr = vec![0usize; mesh.num_nodes() + 1];
    for &node in lnods {
        ptr[node as usize + 1] += 1;
    }
    for n in 0..mesh.num_nodes() {
        ptr[n + 1] += ptr[n];
    }
    let mut next = ptr.clone();
    let mut at = vec![0usize; lnods.len()];
    for (position, &node) in lnods.iter().enumerate() {
        at[next[node as usize]] = position;
        next[node as usize] += 1;
    }
    (ptr, at)
}

/// The node-to-node graph of `mesh` in CSR form from its incidence: row `n`
/// is the sorted, deduplicated union of the nodes of the elements touching
/// `n` (at most `8 × 8` candidates on a conforming hexahedral mesh).  A
/// node no element touches gets an empty row.
fn node_graph(mesh: &Mesh, ptr: &[usize], at: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let pnode = mesh.nodes_per_element();
    let mut row_ptr = Vec::with_capacity(mesh.num_nodes() + 1);
    let mut col_idx = Vec::with_capacity(4 * at.len());
    let mut candidates: Vec<u32> = Vec::with_capacity(8 * pnode);
    row_ptr.push(0usize);
    for node in 0..mesh.num_nodes() {
        candidates.clear();
        for &position in &at[ptr[node]..ptr[node + 1]] {
            candidates.extend_from_slice(mesh.element_nodes(position / pnode));
        }
        candidates.sort_unstable();
        candidates.dedup();
        col_idx.extend(candidates.iter().map(|&c| c as usize));
        row_ptr.push(col_idx.len());
    }
    (row_ptr, col_idx)
}

impl Mesh {
    /// Builds the sparsity pattern of the node-to-node graph in CSR form
    /// (`row_ptr`, `col_idx`), including the diagonal.  This is the pattern of
    /// the global matrix assembled in phase 8, and is consumed by
    /// `lv-solver`'s CSR constructor.  Callers that also scatter into the
    /// pattern should build a [`MeshTopology`] instead.
    pub fn node_graph_csr(&self) -> (Vec<usize>, Vec<usize>) {
        let (ptr, at) = node_incidence(self);
        node_graph(self, &ptr, &at)
    }
}

/// The connectivity-derived structures of one mesh (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshTopology {
    nodes_per_element: usize,
    num_elements: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// `slots[(pnode * elem + a) * pnode + b]` is the position of entry
    /// `(node_a, node_b)` of element `elem` in the CSR value array; built
    /// by the first [`csr_slots`](MeshTopology::csr_slots).
    slots: OnceLock<Vec<u32>>,
    diagonals: Option<ElementDiagonals>,
}

/// The diagonal of every element entry, where the node numbering puts each
/// element's nodes at the same offsets from its first node: entry `(a, b)`
/// of any element lies on `col − row = offsets()[index()[pnode·a + b]]`.
/// A box lattice in generator order has one: 64 entries on 27 diagonals
/// (fewer on a box one element thick), so an element's matrix scatters into
/// block-major diagonal storage without a per-element slot map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDiagonals {
    offsets: Vec<isize>,
    index: Vec<u8>,
}

impl ElementDiagonals {
    /// The table of `mesh`, or `None` when some element's nodes sit at other
    /// offsets from its first node than element 0's (a renumbered mesh) or
    /// the mesh has no element.  One comparison per element node.
    fn of(mesh: &Mesh) -> Option<ElementDiagonals> {
        if mesh.num_elements() == 0 {
            return None;
        }
        let pnode = mesh.nodes_per_element();
        let first = mesh.element_nodes(0);
        let shift: Vec<isize> = first.iter().map(|&b| b as isize - first[0] as isize).collect();
        let uniform = mesh.elements().all(|elem| {
            let nodes = mesh.element_nodes(elem);
            nodes.iter().zip(&shift).all(|(&b, &s)| b as isize - nodes[0] as isize == s)
        });
        if !uniform {
            return None;
        }
        let offset = |ab: usize| shift[ab % pnode] - shift[ab / pnode];
        let mut offsets: Vec<isize> = (0..pnode * pnode).map(offset).collect();
        offsets.sort_unstable();
        offsets.dedup();
        let index = (0..pnode * pnode)
            .map(|ab| offsets.binary_search(&offset(ab)).expect("an offset of the table") as u8)
            .collect();
        Some(ElementDiagonals { offsets, index })
    }

    /// The distinct `col − row` offsets of the element entries, strictly
    /// ascending: the diagonals of the node graph.
    pub fn offsets(&self) -> &[isize] {
        &self.offsets
    }

    /// `index()[pnode·a + b]`: the position in [`offsets`](Self::offsets) of
    /// the diagonal element entry `(a, b)` lies on, in every element.
    pub fn index(&self) -> &[u8] {
        &self.index
    }
}

impl MeshTopology {
    /// Builds the node graph and the diagonal table of `mesh`; the slot map
    /// waits for its first use.
    ///
    /// # Panics
    /// Panics if the graph has more than `u32::MAX` non-zeros (the slot map
    /// stores 32-bit positions).
    pub fn new(mesh: &Mesh) -> Self {
        let (ptr, at) = node_incidence(mesh);
        let (row_ptr, col_idx) = node_graph(mesh, &ptr, &at);
        assert!(
            u32::try_from(col_idx.len()).is_ok(),
            "the node graph has {} non-zeros, more than the u32::MAX the element→CSR slot map \
             can address",
            col_idx.len()
        );
        MeshTopology {
            nodes_per_element: mesh.nodes_per_element(),
            num_elements: mesh.num_elements(),
            row_ptr,
            col_idx,
            slots: OnceLock::new(),
            diagonals: ElementDiagonals::of(mesh),
        }
    }

    /// The slot map, built from `mesh` on the first call (one build even
    /// when several threads ask at once).
    ///
    /// # Panics
    /// Panics on the first call if `mesh` does not [`fit`](Self::fits).
    fn slots(&self, mesh: &Mesh) -> &[u32] {
        self.slots.get_or_init(|| {
            assert!(self.fits(mesh), "the topology was built for another mesh");
            let pnode = self.nodes_per_element;
            let (ptr, at) = node_incidence(mesh);
            // Row by row: note where each column of the row sits in the
            // value array, then hand those positions to every (element,
            // local row) the row's node appears as.  `position_of` needs no
            // clearing — an element's nodes are all columns of the current
            // row.
            let mut slots = vec![0u32; mesh.connectivity().len() * pnode];
            let mut position_of = vec![0u32; mesh.num_nodes()];
            for node in 0..mesh.num_nodes() {
                for k in self.row_ptr[node]..self.row_ptr[node + 1] {
                    position_of[self.col_idx[k]] = k as u32;
                }
                for &position in &at[ptr[node]..ptr[node + 1]] {
                    let nodes = mesh.element_nodes(position / pnode);
                    let row = &mut slots[position * pnode..(position + 1) * pnode];
                    for (slot, &b) in row.iter_mut().zip(nodes) {
                        *slot = position_of[b as usize];
                    }
                }
            }
            slots
        })
    }

    /// Whether the slot map has been built (by a
    /// [`csr_slots`](Self::csr_slots) call on this topology or the one it
    /// was cloned from).
    pub fn has_slot_map(&self) -> bool {
        self.slots.get().is_some()
    }

    /// Row pointers of the node graph (`num_nodes + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices of the node graph, strictly increasing within a row.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Number of elements of the mesh the topology was built for.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// Whether the topology has the element and node counts of `mesh` — the
    /// cheap check operators make on a topology handed to them (a topology
    /// of another mesh of the same size still cannot make the colored
    /// scatter write outside the rows a worker owns; it panics instead).
    pub fn fits(&self, mesh: &Mesh) -> bool {
        self.nodes_per_element == mesh.nodes_per_element()
            && self.num_elements() == mesh.num_elements()
            && self.row_ptr.len() == mesh.num_nodes() + 1
    }

    /// The CSR value positions of the `pnode × pnode` entries of element
    /// `elem`, row-major: entry `pnode * a + b` is where `(node_a, node_b)`
    /// lands.  The first call builds the slot map of every element from
    /// `mesh`, the mesh the topology was built for; later calls only read
    /// it.
    ///
    /// # Panics
    /// Panics on the first call if `mesh` does not [`fit`](Self::fits).
    #[inline]
    pub fn csr_slots(&self, mesh: &Mesh, elem: usize) -> &[u32] {
        let per_element = self.nodes_per_element * self.nodes_per_element;
        &self.slots(mesh)[per_element * elem..per_element * (elem + 1)]
    }

    /// The diagonal of every element entry, when the node numbering is the
    /// same from every element's first node (see [`ElementDiagonals`]).
    pub fn element_diagonals(&self) -> Option<&ElementDiagonals> {
        self.diagonals.as_ref()
    }

    /// Whether `row_ptr`/`col_idx` is this topology's sparsity pattern —
    /// the precondition for scattering into a matrix through
    /// [`csr_slots`](Self::csr_slots).
    pub fn has_pattern(&self, row_ptr: &[usize], col_idx: &[usize]) -> bool {
        self.row_ptr == row_ptr && self.col_idx == col_idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mesh::{BoundaryTag, ElementKind};
    use crate::renumber::NodePermutation;
    use crate::structured::{BoxMeshBuilder, ChannelMeshBuilder};
    use std::collections::BTreeSet;

    /// The original `BTreeSet`-per-node construction of the node graph, kept
    /// as the oracle of the sort-based pass.
    fn node_graph_btreeset(mesh: &Mesh) -> (Vec<usize>, Vec<usize>) {
        let nnode = mesh.num_nodes();
        let mut neighbours: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nnode];
        for e in 0..mesh.num_elements() {
            let nodes = mesh.element_nodes(e);
            for &a in nodes {
                for &b in nodes {
                    neighbours[a as usize].insert(b as usize);
                }
            }
        }
        let mut row_ptr = Vec::with_capacity(nnode + 1);
        let mut col_idx = Vec::new();
        row_ptr.push(0usize);
        for set in &neighbours {
            col_idx.extend(set.iter().copied());
            row_ptr.push(col_idx.len());
        }
        (row_ptr, col_idx)
    }

    fn jittered_cavity() -> Mesh {
        BoxMeshBuilder::new(6, 5, 4).lid_driven_cavity().with_jitter(0.12, 9).build()
    }

    /// Two tetrahedra sharing a face: the slot map follows `pnode`, not 8.
    fn two_tets() -> Mesh {
        let coords =
            vec![0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
        Mesh::from_raw(
            ElementKind::Tet4,
            coords,
            vec![0, 1, 2, 3, 1, 2, 3, 4],
            vec![BoundaryTag::Interior; 5],
            1.0,
        )
    }

    /// The jittered cavity with one extra node no element references.
    fn with_isolated_node(mesh: &Mesh) -> Mesh {
        let mut coords = mesh.coords().to_vec();
        coords.extend_from_slice(&[2.0, 2.0, 2.0]);
        let mut boundary = mesh.boundary_tags().to_vec();
        boundary.push(BoundaryTag::Interior);
        Mesh::from_raw(
            mesh.kind(),
            coords,
            mesh.connectivity().to_vec(),
            boundary,
            mesh.characteristic_length(),
        )
    }

    #[test]
    fn sort_based_graph_equals_the_btreeset_oracle() {
        let jittered = jittered_cavity();
        let scrambled =
            jittered.renumber_nodes(&NodePermutation::scrambled(jittered.num_nodes(), 0xC0FFEE));
        let isolated = with_isolated_node(&jittered);
        let meshes = [
            ("box", BoxMeshBuilder::new(3, 4, 5).build()),
            ("channel", ChannelMeshBuilder::new(3, 2).with_jitter(0.1, 4).build()),
            ("two tets", two_tets()),
            ("jittered", jittered),
            ("scrambled", scrambled),
            ("isolated node", isolated),
        ];
        for (name, mesh) in &meshes {
            let oracle = node_graph_btreeset(mesh);
            assert_eq!(mesh.node_graph_csr(), oracle, "{name}: node_graph_csr");
            let topology = MeshTopology::new(mesh);
            assert_eq!(topology.row_ptr(), oracle.0, "{name}: row_ptr");
            assert_eq!(topology.col_idx(), oracle.1, "{name}: col_idx");
            assert!(topology.has_pattern(&oracle.0, &oracle.1));
        }
        // The unreferenced node has an empty row (no diagonal either).
        let (name, isolated) = &meshes[5];
        assert_eq!(*name, "isolated node");
        let (row_ptr, _) = isolated.node_graph_csr();
        let last = isolated.num_nodes() - 1;
        assert_eq!(row_ptr[last], row_ptr[last + 1]);
    }

    /// Every slot is where a binary search of the row finds the column,
    /// inside the row of its node.
    fn assert_slot_map_is_sound(name: &str, mesh: &Mesh) {
        let topology = MeshTopology::new(mesh);
        assert!(!topology.has_slot_map(), "{name}: built before its first use");
        let (row_ptr, col_idx) = (topology.row_ptr(), topology.col_idx());
        let pnode = mesh.nodes_per_element();
        assert_eq!(topology.num_elements(), mesh.num_elements());
        for elem in 0..mesh.num_elements() {
            let nodes = mesh.element_nodes(elem);
            let slots = topology.csr_slots(mesh, elem);
            assert_eq!(slots.len(), pnode * pnode);
            for (a, &node_a) in nodes.iter().enumerate() {
                let row = row_ptr[node_a as usize]..row_ptr[node_a as usize + 1];
                for (b, &node_b) in nodes.iter().enumerate() {
                    let slot = slots[pnode * a + b] as usize;
                    let k = col_idx[row.clone()].binary_search(&(node_b as usize)).unwrap_or_else(
                        |_| panic!("{name}: ({node_a}, {node_b}) not in the graph"),
                    );
                    assert_eq!(slot, row.start + k, "{name}: element {elem} entry ({a}, {b})");
                    assert!(row.contains(&slot), "{name}: slot {slot} outside row {node_a}");
                }
            }
        }
        assert!(topology.has_slot_map(), "{name}");
    }

    /// On every generator box the element table exists and holds exactly
    /// the distinct `col − row` offsets of the node graph, and every entry
    /// of every element lies on the diagonal the table names; a renumbered
    /// mesh has none.
    #[test]
    fn generator_boxes_have_one_diagonal_table_and_renumbered_meshes_none() {
        let jittered = jittered_cavity();
        let boxes = [
            ("jittered", jittered.clone(), 27),
            ("channel", ChannelMeshBuilder::new(6, 3).build(), 27),
            ("4x3x1 box", BoxMeshBuilder::new(4, 3, 1).build(), 27),
            ("1x1x1 box", BoxMeshBuilder::new(1, 1, 1).build(), 15),
        ];
        for (name, mesh, diagonals) in &boxes {
            let topology = MeshTopology::new(mesh);
            let table = topology.element_diagonals().unwrap_or_else(|| panic!("{name}"));
            let (row_ptr, col_idx) = (topology.row_ptr(), topology.col_idx());
            let mut graph: Vec<isize> = (0..mesh.num_nodes())
                .flat_map(|a| {
                    col_idx[row_ptr[a]..row_ptr[a + 1]]
                        .iter()
                        .map(move |&b| b as isize - a as isize)
                })
                .collect();
            graph.sort_unstable();
            graph.dedup();
            assert_eq!(table.offsets(), &graph[..], "{name}");
            assert_eq!(table.offsets().len(), *diagonals, "{name}");
            let pnode = mesh.nodes_per_element();
            for elem in 0..mesh.num_elements() {
                let nodes = mesh.element_nodes(elem);
                for ab in 0..pnode * pnode {
                    let d = nodes[ab % pnode] as isize - nodes[ab / pnode] as isize;
                    assert_eq!(table.offsets()[table.index()[ab] as usize], d, "{name}: {elem}");
                }
            }
        }
        let scrambled =
            jittered.renumber_nodes(&NodePermutation::scrambled(jittered.num_nodes(), 42));
        let rescrambled =
            jittered.renumber_nodes(&NodePermutation::scrambled(jittered.num_nodes(), 7));
        for mesh in [scrambled, rescrambled] {
            assert!(MeshTopology::new(&mesh).element_diagonals().is_none());
        }
    }

    #[test]
    fn slot_map_is_sound_under_adversarial_numberings() {
        let jittered = jittered_cavity();
        let scrambled =
            jittered.renumber_nodes(&NodePermutation::scrambled(jittered.num_nodes(), 42));
        let rescrambled =
            jittered.renumber_nodes(&NodePermutation::scrambled(jittered.num_nodes(), 7));
        assert_slot_map_is_sound("jittered", &jittered);
        assert_slot_map_is_sound("scrambled", &scrambled);
        assert_slot_map_is_sound("rescrambled", &rescrambled);
        assert_slot_map_is_sound("isolated node", &with_isolated_node(&jittered));
        assert_slot_map_is_sound("two tets", &two_tets());
    }
}
