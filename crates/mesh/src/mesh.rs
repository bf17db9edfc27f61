//! The [`Mesh`] container: node coordinates, element connectivity and
//! boundary tags.
//!
//! The mini-app of the paper processes elements in blocks of `VECTOR_SIZE`
//! elements; within a block the nodal data of every element is gathered from
//! the global (mesh-level) structures into element-local structures (phases 1
//! and 2), processed (phases 3–7) and scattered back (phase 8).  The mesh is
//! therefore stored in the same "global array + connectivity" form that Alya
//! uses: flat coordinate arrays indexed by node id, plus an `lnods`-style
//! connectivity table indexed by element id.

use crate::geometry::Point3;
use crate::{HEX8_NODES, TET4_NODES};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Kind of finite element stored in a mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElementKind {
    /// 8-node trilinear hexahedron (Q1).
    Hex8,
    /// 4-node linear tetrahedron (P1).
    Tet4,
}

impl ElementKind {
    /// Number of nodes per element (`pnode` in Alya nomenclature).
    #[inline]
    pub const fn nodes(self) -> usize {
        match self {
            ElementKind::Hex8 => HEX8_NODES,
            ElementKind::Tet4 => TET4_NODES,
        }
    }

    /// Number of Gauss integration points used by the default rule
    /// (`pgaus` in Alya nomenclature).
    #[inline]
    pub const fn gauss_points(self) -> usize {
        match self {
            ElementKind::Hex8 => crate::HEX8_GAUSS,
            ElementKind::Tet4 => crate::TET4_GAUSS,
        }
    }

    /// Human readable name.
    pub const fn name(self) -> &'static str {
        match self {
            ElementKind::Hex8 => "HEX08",
            ElementKind::Tet4 => "TET04",
        }
    }
}

/// Tag identifying where a node sits on the domain boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundaryTag {
    /// Interior node (no boundary condition).
    Interior,
    /// Inflow boundary (prescribed velocity).
    Inflow,
    /// Outflow boundary (natural condition).
    Outflow,
    /// No-slip wall.
    Wall,
    /// Moving lid (used by the lid-driven cavity example).
    Lid,
}

/// An unstructured finite-element mesh with a single element kind.
///
/// All storage is flat (`Vec<f64>` / `Vec<u32>`) so the assembly kernel can
/// index it exactly like Alya indexes its Fortran arrays, and so the
/// simulated memory-access streams of phases 1, 2 and 8 are realistic
/// (indexed gathers through the connectivity).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mesh {
    kind: ElementKind,
    /// Node coordinates, `coords[3*node + dim]`.
    coords: Vec<f64>,
    /// Element connectivity, `lnods[pnode*elem + local_node]` (node ids).
    lnods: Vec<u32>,
    /// Per-node boundary tag.
    boundary: Vec<BoundaryTag>,
    /// Characteristic element length (uniform for generated meshes).
    h_char: f64,
}

impl Mesh {
    /// Creates a mesh from raw arrays.
    ///
    /// # Panics
    /// Panics if the coordinate array length is not a multiple of 3, if the
    /// connectivity length is not a multiple of the element node count, if
    /// any connectivity entry refers to a non-existent node, or if the
    /// boundary tag array length does not match the node count.
    pub fn from_raw(
        kind: ElementKind,
        coords: Vec<f64>,
        lnods: Vec<u32>,
        boundary: Vec<BoundaryTag>,
        h_char: f64,
    ) -> Self {
        assert!(
            coords.len() % 3 == 0,
            "coordinate array length {} is not a multiple of 3",
            coords.len()
        );
        let nnode = coords.len() / 3;
        assert!(
            lnods.len() % kind.nodes() == 0,
            "connectivity length {} is not a multiple of pnode={}",
            lnods.len(),
            kind.nodes()
        );
        assert_eq!(boundary.len(), nnode, "boundary tag count must match node count");
        assert!(
            lnods.iter().all(|&n| (n as usize) < nnode),
            "connectivity references a node outside the mesh"
        );
        assert!(h_char > 0.0, "characteristic length must be positive");
        Mesh { kind, coords, lnods, boundary, h_char }
    }

    /// Element kind of the mesh.
    #[inline]
    pub fn kind(&self) -> ElementKind {
        self.kind
    }

    /// Number of nodes (`npoin`).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.coords.len() / 3
    }

    /// Number of elements (`nelem`).
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.lnods.len() / self.kind.nodes()
    }

    /// Nodes per element (`pnode`).
    #[inline]
    pub fn nodes_per_element(&self) -> usize {
        self.kind.nodes()
    }

    /// Characteristic element length used by the stabilization terms.
    #[inline]
    pub fn characteristic_length(&self) -> f64 {
        self.h_char
    }

    /// Coordinates of node `node`.
    #[inline]
    pub fn node_coords(&self, node: usize) -> Point3 {
        let base = 3 * node;
        Point3::new(self.coords[base], self.coords[base + 1], self.coords[base + 2])
    }

    /// Flat coordinate array (`coords[3*node + dim]`).
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Connectivity of element `elem` (slice of `pnode` node ids).
    #[inline]
    pub fn element_nodes(&self, elem: usize) -> &[u32] {
        let pnode = self.kind.nodes();
        &self.lnods[pnode * elem..pnode * (elem + 1)]
    }

    /// Whole connectivity array (`lnods[pnode*elem + a]`).
    #[inline]
    pub fn connectivity(&self) -> &[u32] {
        &self.lnods
    }

    /// Boundary tag of a node.
    #[inline]
    pub fn boundary_tag(&self, node: usize) -> BoundaryTag {
        self.boundary[node]
    }

    /// All boundary tags.
    #[inline]
    pub fn boundary_tags(&self) -> &[BoundaryTag] {
        &self.boundary
    }

    /// Iterator over element ids.
    pub fn elements(&self) -> impl Iterator<Item = usize> + '_ {
        0..self.num_elements()
    }

    /// Axis-aligned bounding box of the mesh as `(min, max)`.
    pub fn bounding_box(&self) -> (Point3, Point3) {
        let mut lo = Point3::splat(f64::INFINITY);
        let mut hi = Point3::splat(f64::NEG_INFINITY);
        for n in 0..self.num_nodes() {
            let p = self.node_coords(n);
            lo = lo.min(p);
            hi = hi.max(p);
        }
        (lo, hi)
    }

    /// Volume of element `elem`, computed by quadrature of the Jacobian
    /// determinant.  Used by tests to validate generated meshes.
    pub fn element_volume(&self, elem: usize) -> f64 {
        use crate::quadrature::GaussRule;
        use crate::shape::ShapeTable;
        let rule = GaussRule::for_kind(self.kind);
        let table = ShapeTable::new(self.kind, &rule);
        let nodes = self.element_nodes(elem);
        let mut vol = 0.0;
        for (g, qp) in rule.points().iter().enumerate() {
            let derivs = table.derivatives(g);
            // Jacobian J[i][j] = sum_a dN_a/dxi_j * x_a[i]
            let mut jac = crate::geometry::Mat3::ZERO;
            for (a, &node) in nodes.iter().enumerate() {
                let x = self.node_coords(node as usize);
                for i in 0..3 {
                    for j in 0..3 {
                        jac.m[i][j] += derivs.d[a][j] * x[i];
                    }
                }
            }
            vol += jac.det().abs() * qp.weight;
        }
        vol
    }

    /// Total mesh volume (sum of element volumes).
    pub fn total_volume(&self) -> f64 {
        self.elements().map(|e| self.element_volume(e)).sum()
    }

    /// Number of nodes carrying each boundary tag, in the order
    /// (interior, inflow, outflow, wall, lid).
    pub fn boundary_histogram(&self) -> [usize; 5] {
        let mut h = [0usize; 5];
        for tag in &self.boundary {
            let idx = match tag {
                BoundaryTag::Interior => 0,
                BoundaryTag::Inflow => 1,
                BoundaryTag::Outflow => 2,
                BoundaryTag::Wall => 3,
                BoundaryTag::Lid => 4,
            };
            h[idx] += 1;
        }
        h
    }

    /// Checks basic structural invariants of the mesh, returning a list of
    /// human-readable problems (empty when the mesh is valid).  Used by the
    /// integration tests and the quickstart example.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.num_nodes() == 0 {
            problems.push("mesh has no nodes".to_string());
        }
        if self.num_elements() == 0 {
            problems.push("mesh has no elements".to_string());
        }
        for e in 0..self.num_elements() {
            let nodes = self.element_nodes(e);
            let unique: BTreeSet<_> = nodes.iter().collect();
            if unique.len() != nodes.len() {
                problems.push(format!("element {e} has repeated nodes"));
            }
            let vol = self.element_volume(e);
            if !(vol.is_finite() && vol > 0.0) {
                problems.push(format!("element {e} has non-positive volume {vol}"));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::structured::BoxMeshBuilder;

    #[test]
    fn element_kind_counts() {
        assert_eq!(ElementKind::Hex8.nodes(), 8);
        assert_eq!(ElementKind::Tet4.nodes(), 4);
        assert_eq!(ElementKind::Hex8.gauss_points(), 8);
        assert_eq!(ElementKind::Tet4.gauss_points(), 4);
        assert_eq!(ElementKind::Hex8.name(), "HEX08");
    }

    #[test]
    fn unit_cube_mesh_volume_is_one() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        assert!((mesh.total_volume() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mesh_counts_match_structured_generator() {
        let mesh = BoxMeshBuilder::new(3, 4, 5).build();
        assert_eq!(mesh.num_elements(), 3 * 4 * 5);
        assert_eq!(mesh.num_nodes(), 4 * 5 * 6);
        assert_eq!(mesh.nodes_per_element(), 8);
    }

    #[test]
    fn node_graph_is_symmetric_with_diagonal() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build();
        let (row_ptr, col_idx) = mesh.node_graph_csr();
        assert_eq!(row_ptr.len(), mesh.num_nodes() + 1);
        // diagonal present
        for row in 0..mesh.num_nodes() {
            let cols = &col_idx[row_ptr[row]..row_ptr[row + 1]];
            assert!(cols.contains(&row), "row {row} misses its diagonal");
            // symmetry: for each (row, c) the transpose entry exists
            for &c in cols {
                let tcols = &col_idx[row_ptr[c]..row_ptr[c + 1]];
                assert!(tcols.contains(&row), "entry ({row},{c}) not symmetric");
            }
        }
    }

    #[test]
    fn validate_accepts_generated_mesh() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        assert!(mesh.validate().is_empty());
    }

    #[test]
    fn bounding_box_of_unit_cube() {
        let mesh = BoxMeshBuilder::new(2, 3, 4).build();
        let (lo, hi) = mesh.bounding_box();
        assert!(lo.distance(Point3::ZERO) < 1e-12);
        assert!(hi.distance(Point3::new(1.0, 1.0, 1.0)) < 1e-12);
    }

    #[test]
    #[should_panic]
    fn from_raw_rejects_bad_connectivity() {
        // Node id 99 does not exist in a 1-node mesh.
        let _ = Mesh::from_raw(
            ElementKind::Tet4,
            vec![0.0, 0.0, 0.0],
            vec![0, 0, 0, 99],
            vec![BoundaryTag::Interior],
            1.0,
        );
    }

    #[test]
    fn boundary_histogram_counts_all_nodes() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).lid_driven_cavity().build();
        let hist = mesh.boundary_histogram();
        assert_eq!(hist.iter().sum::<usize>(), mesh.num_nodes());
        // A cavity has wall and lid nodes.
        assert!(hist[3] > 0, "expected wall nodes");
        assert!(hist[4] > 0, "expected lid nodes");
    }
}
