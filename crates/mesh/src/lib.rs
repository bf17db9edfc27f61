//! # lv-mesh
//!
//! Mesh, quadrature and shape-function substrate for the Alya long-vector
//! reproduction.
//!
//! The paper's mini-app operates on an unstructured finite-element mesh: the
//! Nastin (Navier–Stokes) assembly gathers nodal data element by element,
//! integrates with Gauss quadrature, and scatters elemental contributions back
//! into global vectors and matrices.  This crate provides everything the
//! kernel crate needs to do that with real numbers:
//!
//! * [`geometry`] — small fixed-size vector/matrix math (3D points, 3×3
//!   Jacobians) used throughout the element routines.
//! * [`mesh`] — the [`Mesh`] container: node coordinates, element
//!   connectivity, element types and boundary tags.
//! * [`structured`] — generators for structured hexahedral and tetrahedral
//!   meshes of boxes and channels (the workloads used by the examples and
//!   benches).
//! * [`quadrature`] — Gauss–Legendre quadrature rules for hexahedra and
//!   tetrahedra.
//! * [`shape`] — Q1/P1 shape functions and their reference-space derivatives
//!   evaluated at the quadrature points.
//! * [`field`] — nodal fields (velocity, pressure, scalar) with analytic
//!   initializers used by the examples.
//! * [`chunks`] — packing of elements into `VECTOR_SIZE` blocks, exactly the
//!   application-level parameter the paper sweeps (16 … 512).
//! * [`coloring`] — node-disjoint coloring of those blocks, the scheduling
//!   substrate of the multi-threaded assembly sweep.
//! * [`renumber`] — node permutations and a scramble that stands in for an
//!   imported mesh's numbering: the tests' tools for node-order
//!   independence.
//! * [`topology`] — the node-graph CSR pattern and the element→CSR slot map
//!   (built on its first use) of a mesh, built once and shared by every
//!   operator assembled on it.
//!
//! The crate is intentionally free of any simulator or compiler-model
//! concerns: it only describes the discrete problem.

#![warn(missing_docs)]

pub mod chunks;
pub mod coloring;
pub mod field;
pub mod geometry;
pub mod hierarchy;
pub mod mesh;
pub mod quadrature;
pub mod renumber;
pub mod shape;
pub mod structured;
pub mod topology;

pub use chunks::{ChunkSlots, ElementChunk, ElementChunks};
pub use coloring::{ColoredChunks, ElementColoring};
pub use field::{Field, VectorField};
pub use geometry::{Mat3, Point3, Vec3};
pub use hierarchy::{trilinear_stencil, BoxLattice, TrilinearStencil};
pub use mesh::{BoundaryTag, ElementKind, Mesh};
pub use quadrature::{GaussRule, QuadraturePoint};
pub use renumber::NodePermutation;
pub use shape::{ShapeDerivatives, ShapeFunctions, ShapeTable};
pub use structured::{BoxMeshBuilder, ChannelMeshBuilder};
pub use topology::{ElementDiagonals, MeshTopology};

/// Number of spatial dimensions used throughout the reproduction.
///
/// Alya's Nastin kernel in the paper runs 3-D incompressible flow; every
/// element routine in this workspace therefore assumes `NDIME == 3`.
pub const NDIME: usize = 3;

/// Nodes of a trilinear (Q1) hexahedral element.
pub const HEX8_NODES: usize = 8;

/// Nodes of a linear (P1) tetrahedral element.
pub const TET4_NODES: usize = 4;

/// Gauss points of the standard 2×2×2 rule on a hexahedron.
pub const HEX8_GAUSS: usize = 8;

/// Gauss points of the standard 4-point rule on a tetrahedron.
pub const TET4_GAUSS: usize = 4;
