//! Structured mesh generators.
//!
//! The paper evaluates the mini-app on meshes extracted from Alya production
//! cases; those meshes are not public, so the workloads in this reproduction
//! are generated structured boxes and channels whose size is chosen so the
//! element count is large compared with every `VECTOR_SIZE` tested
//! (16 … 512).  The generators also produce the boundary tags needed by the
//! lid-driven-cavity and channel-flow examples.

use crate::geometry::Point3;
use crate::hierarchy::BoxLattice;
use crate::mesh::{BoundaryTag, ElementKind, Mesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Flow problem the generated boundary tags describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BoundaryStyle {
    /// All exterior nodes are plain walls.
    AllWalls,
    /// Lid-driven cavity: top face (`z == max`) is a moving lid, the rest of
    /// the exterior is a no-slip wall.
    LidDrivenCavity,
    /// Channel flow: `x == min` is inflow, `x == max` is outflow, the other
    /// exterior faces are walls.
    Channel,
}

/// Builder for a structured hexahedral mesh of an axis-aligned box.
///
/// ```
/// use lv_mesh::BoxMeshBuilder;
/// let mesh = BoxMeshBuilder::new(8, 8, 8).build();
/// assert_eq!(mesh.num_elements(), 512);
/// ```
#[derive(Debug, Clone)]
pub struct BoxMeshBuilder {
    nx: usize,
    ny: usize,
    nz: usize,
    origin: Point3,
    lengths: [f64; 3],
    style: BoundaryStyle,
    jitter: f64,
    seed: u64,
}

impl BoxMeshBuilder {
    /// Creates a builder for an `nx × ny × nz` element box spanning the unit
    /// cube.
    ///
    /// # Panics
    /// Panics if any direction has zero elements.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "element counts must be positive");
        BoxMeshBuilder {
            nx,
            ny,
            nz,
            origin: Point3::ZERO,
            lengths: [1.0, 1.0, 1.0],
            style: BoundaryStyle::AllWalls,
            jitter: 0.0,
            seed: 0x5eed_cafe,
        }
    }

    /// Creates a builder sized so the mesh holds *at least* `min_elements`
    /// elements, as a roughly cubic box.  Convenient for the benches, which
    /// only care that the element count comfortably exceeds the largest
    /// `VECTOR_SIZE`.
    pub fn with_at_least(min_elements: usize) -> Self {
        let n = (min_elements as f64).cbrt().ceil().max(1.0) as usize;
        BoxMeshBuilder::new(n, n, n)
    }

    /// Sets the physical extent of the box.
    pub fn with_extent(mut self, origin: Point3, lengths: [f64; 3]) -> Self {
        assert!(lengths.iter().all(|&l| l > 0.0), "box lengths must be positive");
        self.origin = origin;
        self.lengths = lengths;
        self
    }

    /// Perturbs interior nodes by a fraction `jitter` of the local element
    /// size (0.0 ≤ jitter < 0.5), producing a mildly unstructured mesh so the
    /// Jacobians are not all identical.  A positive `jitter` marks the
    /// attached lattice [`jittered`](BoxLattice::jittered).
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        assert!((0.0..0.5).contains(&jitter), "jitter must be in [0, 0.5)");
        self.jitter = jitter;
        self.seed = seed;
        self
    }

    /// Tags the boundary for a lid-driven cavity problem.
    pub fn lid_driven_cavity(mut self) -> Self {
        self.style = BoundaryStyle::LidDrivenCavity;
        self
    }

    /// Tags the boundary for a channel-flow problem (inflow at x-min, outflow
    /// at x-max).
    pub fn channel_flow(mut self) -> Self {
        self.style = BoundaryStyle::Channel;
        self
    }

    /// Number of elements the built mesh will contain.
    pub fn num_elements(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Builds the mesh, with the lattice it generated attached
    /// ([`Mesh::lattice`]).
    pub fn build(&self) -> Mesh {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let (px, py, pz) = (nx + 1, ny + 1, nz + 1);
        let nnode = px * py * pz;
        let dx = self.lengths[0] / nx as f64;
        let dy = self.lengths[1] / ny as f64;
        let dz = self.lengths[2] / nz as f64;

        let position = |i: usize, j: usize, k: usize| {
            [
                self.origin.x + i as f64 * dx,
                self.origin.y + j as f64 * dy,
                self.origin.z + k as f64 * dz,
            ]
        };

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut coords = Vec::with_capacity(3 * nnode);
        let mut boundary = Vec::with_capacity(nnode);
        for k in 0..pz {
            for j in 0..py {
                for i in 0..px {
                    let on_boundary = i == 0 || j == 0 || k == 0 || i == nx || j == ny || k == nz;
                    let [mut x, mut y, mut z] = position(i, j, k);
                    if self.jitter > 0.0 && !on_boundary {
                        x += dx * self.jitter * rng.gen_range(-1.0..1.0);
                        y += dy * self.jitter * rng.gen_range(-1.0..1.0);
                        z += dz * self.jitter * rng.gen_range(-1.0..1.0);
                    }
                    coords.push(x);
                    coords.push(y);
                    coords.push(z);
                    boundary.push(self.tag_for(i, j, k));
                }
            }
        }

        let node_id = |i: usize, j: usize, k: usize| -> u32 { (k * py * px + j * px + i) as u32 };
        let mut lnods = Vec::with_capacity(8 * nx * ny * nz);
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    // VTK/Alya hexahedron node ordering (bottom face CCW, then
                    // top face CCW), matching HEX8_REF_NODES in `shape.rs`.
                    lnods.push(node_id(i, j, k));
                    lnods.push(node_id(i + 1, j, k));
                    lnods.push(node_id(i + 1, j + 1, k));
                    lnods.push(node_id(i, j + 1, k));
                    lnods.push(node_id(i, j, k + 1));
                    lnods.push(node_id(i + 1, j, k + 1));
                    lnods.push(node_id(i + 1, j + 1, k + 1));
                    lnods.push(node_id(i, j + 1, k + 1));
                }
            }
        }

        // The corners are the unjittered boundary nodes, so the lattice spans
        // exactly the mesh's bounding box.
        let (lo, hi) = (position(0, 0, 0), position(nx, ny, nz));
        let lattice = BoxLattice {
            jittered: self.jitter > 0.0,
            ..BoxLattice::new(lo, [0, 1, 2].map(|d| hi[d] - lo[d]), [nx, ny, nz])
        };
        let h_char = dx.min(dy).min(dz);
        Mesh::from_raw(ElementKind::Hex8, coords, lnods, boundary, h_char).with_lattice(lattice)
    }

    fn tag_for(&self, i: usize, j: usize, k: usize) -> BoundaryTag {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let on_boundary = i == 0 || j == 0 || k == 0 || i == nx || j == ny || k == nz;
        if !on_boundary {
            return BoundaryTag::Interior;
        }
        match self.style {
            BoundaryStyle::AllWalls => BoundaryTag::Wall,
            BoundaryStyle::LidDrivenCavity => {
                if k == nz {
                    BoundaryTag::Lid
                } else {
                    BoundaryTag::Wall
                }
            }
            BoundaryStyle::Channel => {
                if i == 0 {
                    BoundaryTag::Inflow
                } else if i == nx {
                    BoundaryTag::Outflow
                } else {
                    BoundaryTag::Wall
                }
            }
        }
    }
}

/// Builder for a channel mesh (elongated box with inflow/outflow tags),
/// the workload motivating the paper's introduction (external/internal
/// aerodynamic flows dominated by the assembly cost).
#[derive(Debug, Clone)]
pub struct ChannelMeshBuilder {
    inner: BoxMeshBuilder,
}

impl ChannelMeshBuilder {
    /// Creates a channel `length_factor` times longer in x than its square
    /// cross-section of `n × n` elements.
    ///
    /// # Panics
    /// Panics if `n == 0` or `length_factor == 0`.
    pub fn new(n: usize, length_factor: usize) -> Self {
        assert!(n > 0 && length_factor > 0);
        let inner = BoxMeshBuilder::new(n * length_factor, n, n)
            .with_extent(Point3::ZERO, [length_factor as f64, 1.0, 1.0])
            .channel_flow();
        ChannelMeshBuilder { inner }
    }

    /// Adds interior-node jitter (see [`BoxMeshBuilder::with_jitter`]).
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.inner = self.inner.with_jitter(jitter, seed);
        self
    }

    /// Number of elements the built mesh will contain.
    pub fn num_elements(&self) -> usize {
        self.inner.num_elements()
    }

    /// Builds the channel mesh.
    pub fn build(&self) -> Mesh {
        self.inner.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_mesh_has_expected_counts() {
        let b = BoxMeshBuilder::new(5, 3, 2);
        assert_eq!(b.num_elements(), 30);
        let m = b.build();
        assert_eq!(m.num_elements(), 30);
        assert_eq!(m.num_nodes(), 6 * 4 * 3);
    }

    #[test]
    fn with_at_least_generates_enough_elements() {
        for min in [1, 100, 600, 5000] {
            let b = BoxMeshBuilder::with_at_least(min);
            assert!(b.num_elements() >= min, "requested {min}, got {}", b.num_elements());
        }
    }

    #[test]
    fn jittered_mesh_keeps_positive_volumes() {
        let m = BoxMeshBuilder::new(6, 6, 6).with_jitter(0.25, 42).build();
        for e in m.elements() {
            assert!(m.element_volume(e) > 0.0, "element {e} inverted by jitter");
        }
    }

    #[test]
    fn jittered_mesh_preserves_total_volume_roughly() {
        // Jitter moves only interior nodes, so the total volume is conserved
        // exactly (it is a re-triangulation of the same box).
        let m = BoxMeshBuilder::new(5, 5, 5).with_jitter(0.2, 7).build();
        assert!((m.total_volume() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn channel_mesh_boundary_tags() {
        let m = ChannelMeshBuilder::new(4, 3).build();
        let hist = m.boundary_histogram();
        assert!(hist[1] > 0, "channel mesh must have inflow nodes");
        assert!(hist[2] > 0, "channel mesh must have outflow nodes");
        assert!(hist[3] > 0, "channel mesh must have wall nodes");
        assert_eq!(hist[4], 0, "channel mesh has no lid nodes");
    }

    #[test]
    fn cavity_mesh_lid_is_top_face_only() {
        let builder = BoxMeshBuilder::new(4, 4, 4).lid_driven_cavity();
        let m = builder.build();
        for n in 0..m.num_nodes() {
            if m.boundary_tag(n) == BoundaryTag::Lid {
                assert!((m.node_coords(n).z - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn custom_extent_respected() {
        let m = BoxMeshBuilder::new(2, 2, 2)
            .with_extent(Point3::new(-1.0, 0.0, 2.0), [2.0, 4.0, 6.0])
            .build();
        let (lo, hi) = m.bounding_box();
        assert!(lo.distance(Point3::new(-1.0, 0.0, 2.0)) < 1e-12);
        assert!(hi.distance(Point3::new(1.0, 4.0, 8.0)) < 1e-12);
        assert!((m.total_volume() - 48.0).abs() < 1e-8);
    }

    #[test]
    #[should_panic]
    fn zero_elements_rejected() {
        let _ = BoxMeshBuilder::new(0, 1, 1);
    }

    #[test]
    #[should_panic]
    fn excessive_jitter_rejected() {
        let _ = BoxMeshBuilder::new(2, 2, 2).with_jitter(0.6, 1);
    }
}
