//! Element coloring and colored `VECTOR_SIZE` chunking for race-free
//! parallel assembly.
//!
//! The assembly kernel scatters elemental contributions into global nodal
//! arrays (phase 8).  Two elements can be scattered concurrently without
//! atomics if and only if they share no mesh node: all their global matrix
//! rows and RHS entries are then disjoint.  This module provides the
//! scheduling substrate the multi-threaded sweeps use:
//!
//! 1. [`ElementColoring::greedy`] — a first-fit greedy coloring of the
//!    *elements* (two elements conflict when they share a node).  On a
//!    structured hexahedral mesh this produces the classic 8 colors; on
//!    jittered/unstructured variants a few more.  [`ElementColoring::balanced`]
//!    is the scheduling-aware variant: same conflict rule, but each element
//!    takes the *least-populated* allowed color, which equalizes the
//!    per-color element counts so the trailing chunks of a parallel sweep
//!    stay balanced.  `greedy` is kept as the validity oracle.
//! 2. [`ColoredChunks`] — each color's elements packed into `VECTOR_SIZE`
//!    blocks.  Because any two elements of a color are node-disjoint, **all
//!    chunks of a color are pairwise node-disjoint**, so a parallel sweep can
//!    process every chunk of a color concurrently and only the (few) colors
//!    sequentially.
//! 3. [`ColoredChunks::mesh_order`] — the other way round: the mesh's own
//!    blocks of `VECTOR_SIZE` *consecutive* elements, colored against each
//!    other.  The same invariant between the chunks of a color, but the
//!    elements of a chunk are neighbours that share nodes — the gathers and
//!    the scatter of a chunk stay in cache, every chunk but the mesh's last
//!    is full, and there are far fewer colors (a 32³ box at `VECTOR_SIZE`
//!    128: 4 colors × 64 full chunks instead of 8 × 32).  This is the only
//!    schedule the solver runs: both assembly sweeps use it, and the
//!    projection operators' set-up is one serial mesh-order loop.  The
//!    element-colored packing of item 2 is no production path's schedule; it
//!    stays for the tests and the benchmark's schedule probe.
//!
//! Either schedule sums a row's contributions in another order than the
//! serial mesh-order sweep (addition is commutative but not associative).
//! The schedule itself is fully deterministic, however: the result of a
//! colored sweep is bitwise identical for every thread count, and agrees with
//! the mesh-order serial sweep to rounding accuracy.

use crate::chunks::ChunkSlots;
use crate::mesh::Mesh;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Maximum number of colors the greedy pass supports (a `u128` bit mask per
/// node).  A node of a conforming hexahedral mesh touches at most 8 elements
/// and an element conflicts with at most 26 neighbours, so first-fit needs at
/// most 27 colors there — 128 leaves ample headroom for degenerate meshes.
const MAX_COLORS: usize = 128;

/// The balanced choice among the colors of `classes` whose bit is clear in
/// `mask`: the least-populated one (smallest index on ties); a new color is
/// opened when every existing one conflicts.
///
/// # Panics
/// Panics if that would be the 129th color.
fn least_populated_free_color(mask: u128, classes: &mut Vec<Vec<usize>>) -> usize {
    let free = (0..classes.len()).filter(|&color| mask & (1u128 << color) == 0);
    free.min_by_key(|&color| classes[color].len()).unwrap_or_else(|| {
        assert!(classes.len() < MAX_COLORS, "coloring exceeded {MAX_COLORS} colors");
        classes.push(Vec::new());
        classes.len() - 1
    })
}

/// A partition of the mesh elements into node-disjoint colors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElementColoring {
    /// Color of each element.
    color_of: Vec<u16>,
    /// Element ids of each color, in mesh order within the color.
    classes: Vec<Vec<usize>>,
}

impl ElementColoring {
    /// First-fit greedy coloring of the elements of `mesh` in mesh order:
    /// each element takes the smallest color not already used by an element
    /// sharing one of its nodes.
    ///
    /// # Panics
    /// Panics if more than 128 colors would be needed (only possible for
    /// meshes with pathological node multiplicity).
    pub fn greedy(mesh: &Mesh) -> Self {
        // used[n] = bit mask of colors already taken by elements touching
        // node n.
        let mut used = vec![0u128; mesh.num_nodes()];
        let mut color_of = Vec::with_capacity(mesh.num_elements());
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for elem in mesh.elements() {
            let nodes = mesh.element_nodes(elem);
            let mut mask = 0u128;
            for &node in nodes {
                mask |= used[node as usize];
            }
            let color = (!mask).trailing_zeros() as usize;
            assert!(color < MAX_COLORS, "element coloring exceeded {MAX_COLORS} colors");
            for &node in nodes {
                used[node as usize] |= 1u128 << color;
            }
            if color == classes.len() {
                classes.push(Vec::new());
            }
            classes[color].push(elem);
            color_of.push(color as u16);
        }
        ElementColoring { color_of, classes }
    }

    /// Balance-aware greedy coloring: like [`greedy`](Self::greedy), each
    /// element in mesh order takes a color no node-sharing neighbour holds —
    /// but among the allowed colors it takes the **least-populated** one
    /// (smallest index on ties), opening a new color only when every
    /// existing one conflicts.
    ///
    /// First-fit packs early colors full and leaves the last colors with a
    /// handful of elements; those short colors become the imbalanced tail
    /// chunks of the parallel sweep (a color with 3 chunks across 4 workers
    /// leaves one idle).  Balancing the class sizes removes that tail
    /// without changing the validity invariant, which is the same as
    /// `greedy`'s and checked by the same [`validate`](Self::validate).
    ///
    /// The choice rule is deterministic, so the coloring — and every
    /// schedule built on it — is a pure function of the mesh.
    ///
    /// # Panics
    /// Panics if more than 128 colors would be needed.
    pub fn balanced(mesh: &Mesh) -> Self {
        let mut used = vec![0u128; mesh.num_nodes()];
        let mut color_of = Vec::with_capacity(mesh.num_elements());
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for elem in mesh.elements() {
            let nodes = mesh.element_nodes(elem);
            let mut mask = 0u128;
            for &node in nodes {
                mask |= used[node as usize];
            }
            let color = least_populated_free_color(mask, &mut classes);
            for &node in nodes {
                used[node as usize] |= 1u128 << color;
            }
            classes[color].push(elem);
            color_of.push(color as u16);
        }
        ElementColoring { color_of, classes }
    }

    /// Number of colors used.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.classes.len()
    }

    /// Spread of the per-color element counts: `max - min` over the color
    /// classes (0 for a perfectly balanced coloring or an empty mesh).
    pub fn class_spread(&self) -> usize {
        let max = self.classes.iter().map(Vec::len).max().unwrap_or(0);
        let min = self.classes.iter().map(Vec::len).min().unwrap_or(0);
        max - min
    }

    /// Number of elements colored.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.color_of.len()
    }

    /// Color of element `elem`.
    #[inline]
    pub fn color_of(&self, elem: usize) -> usize {
        self.color_of[elem] as usize
    }

    /// The element ids of each color, in mesh order within a color.
    #[inline]
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// Checks the coloring invariants against `mesh`, returning a list of
    /// human-readable problems (empty when valid): every element has exactly
    /// one color, and no two elements of a color share a node.
    pub fn validate(&self, mesh: &Mesh) -> Vec<String> {
        let mut problems = Vec::new();
        if self.color_of.len() != mesh.num_elements() {
            problems.push(format!(
                "coloring covers {} elements but the mesh has {}",
                self.color_of.len(),
                mesh.num_elements()
            ));
            return problems;
        }
        let total: usize = self.classes.iter().map(Vec::len).sum();
        if total != mesh.num_elements() {
            problems
                .push(format!("classes hold {total} elements, expected {}", mesh.num_elements()));
        }
        for (color, class) in self.classes.iter().enumerate() {
            let mut owner: Vec<Option<usize>> = vec![None; mesh.num_nodes()];
            for &elem in class {
                if self.color_of(elem) != color {
                    problems.push(format!(
                        "element {elem} listed under color {color} but tagged {}",
                        self.color_of(elem)
                    ));
                }
                for &node in mesh.element_nodes(elem) {
                    match owner[node as usize] {
                        Some(other) if other != elem => problems.push(format!(
                            "elements {other} and {elem} of color {color} share node {node}"
                        )),
                        _ => owner[node as usize] = Some(elem),
                    }
                }
            }
        }
        problems
    }
}

/// The elements of a mesh packed into colored `VECTOR_SIZE` blocks: the
/// classes of an element coloring cut into blocks ([`new`](Self::new)) or
/// the mesh's consecutive blocks colored against each other
/// ([`mesh_order`](Self::mesh_order)).  Either way all chunks of one color
/// are pairwise node-disjoint (see the module docs), which is the invariant
/// the lock-free parallel scatter relies on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColoredChunks {
    vector_size: usize,
    /// Element ids of every chunk, chunk-major (chunk `c` owns
    /// `elements[chunk_bounds[c].0 ..][.. chunk_bounds[c].1]`).
    elements: Vec<usize>,
    /// Per chunk: (offset into `elements`, number of valid elements).
    chunk_bounds: Vec<(usize, usize)>,
    /// Per color: the range of chunk ids belonging to it.
    color_ranges: Vec<Range<usize>>,
}

impl ColoredChunks {
    /// Packs each color class of `coloring` into blocks of `vector_size`
    /// elements (the last block of each color may be partially filled).
    ///
    /// # Panics
    /// Panics if `vector_size == 0`.
    pub fn new(coloring: &ElementColoring, vector_size: usize) -> Self {
        assert!(vector_size > 0, "VECTOR_SIZE must be positive");
        let mut elements = Vec::with_capacity(coloring.num_elements());
        let mut chunk_bounds = Vec::new();
        let mut color_ranges = Vec::with_capacity(coloring.num_colors());
        for class in coloring.classes() {
            let first_chunk = chunk_bounds.len();
            for block in class.chunks(vector_size) {
                chunk_bounds.push((elements.len(), block.len()));
                elements.extend_from_slice(block);
            }
            color_ranges.push(first_chunk..chunk_bounds.len());
        }
        ColoredChunks { vector_size, elements, chunk_bounds, color_ranges }
    }

    /// Colors the mesh's own chunks instead of its elements: every run of
    /// `vector_size` **consecutive** elements is one chunk (the blocks of
    /// [`ElementChunks`](crate::chunks::ElementChunks) — one partially
    /// filled block at most, the mesh's last), and the chunks are colored
    /// against each other with the rule of [`ElementColoring::balanced`]:
    /// in mesh order, each chunk takes the least-populated color none of the
    /// chunks sharing a node with it holds (smallest index on ties) and
    /// opens a new one only when every color conflicts.
    ///
    /// The invariant [`validate`](Self::validate) checks is the same — no two
    /// chunks of one color share a node — but the slots *inside* a chunk now
    /// may: a chunk is one worker's sequential loop, so its elements gather
    /// and scatter the nodes their neighbours in the chunk have just touched
    /// (OP2's block coloring).  Chunk ids are color-major with the chunks of
    /// a color in mesh order, so a sweep sums every row in (color, chunk,
    /// slot) order whatever the team size.
    ///
    /// # Panics
    /// Panics if `vector_size == 0` or more than 128 colors would be needed.
    pub fn mesh_order(mesh: &Mesh, vector_size: usize) -> Self {
        assert!(vector_size > 0, "VECTOR_SIZE must be positive");
        let num_elements = mesh.num_elements();
        // used[n] = bit mask of the colors of the chunks touching node n.
        let mut used = vec![0u128; mesh.num_nodes()];
        let mut classes: Vec<Vec<usize>> = Vec::new();
        let pnode = mesh.nodes_per_element();
        for first in (0..num_elements).step_by(vector_size) {
            let end = num_elements.min(first + vector_size);
            let nodes = &mesh.connectivity()[pnode * first..pnode * end];
            let mask = nodes.iter().fold(0u128, |mask, &node| mask | used[node as usize]);
            let color = least_populated_free_color(mask, &mut classes);
            for &node in nodes {
                used[node as usize] |= 1u128 << color;
            }
            classes[color].push(first);
        }
        let mut elements = Vec::with_capacity(num_elements);
        let mut chunk_bounds = Vec::with_capacity(num_elements.div_ceil(vector_size));
        let mut color_ranges = Vec::with_capacity(classes.len());
        for class in &classes {
            let first_chunk = chunk_bounds.len();
            for &first in class {
                let len = vector_size.min(num_elements - first);
                chunk_bounds.push((elements.len(), len));
                elements.extend(first..first + len);
            }
            color_ranges.push(first_chunk..chunk_bounds.len());
        }
        ColoredChunks { vector_size, elements, chunk_bounds, color_ranges }
    }

    /// The configured `VECTOR_SIZE`.
    #[inline]
    pub fn vector_size(&self) -> usize {
        self.vector_size
    }

    /// Total number of chunks across all colors.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.chunk_bounds.len()
    }

    /// Number of colors.
    #[inline]
    pub fn num_colors(&self) -> usize {
        self.color_ranges.len()
    }

    /// Total number of (valid) elements covered.
    #[inline]
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// The chunk ids belonging to `color`.
    #[inline]
    pub fn color_chunks(&self, color: usize) -> Range<usize> {
        self.color_ranges[color].clone()
    }

    /// The slot map of chunk `chunk_id` (valid element ids plus the padded
    /// width), directly consumable by the slice-view kernel phases.
    #[inline]
    pub fn slots(&self, chunk_id: usize) -> ChunkSlots<'_> {
        let (start, len) = self.chunk_bounds[chunk_id];
        ChunkSlots { elements: &self.elements[start..start + len], vector_size: self.vector_size }
    }

    /// Checks the chunking invariants against `mesh`, returning a list of
    /// human-readable problems (empty when valid): the chunks partition the
    /// elements, and no two chunks of one color share a node.
    pub fn validate(&self, mesh: &Mesh) -> Vec<String> {
        let mut problems = Vec::new();
        let mut seen = vec![false; mesh.num_elements()];
        for &elem in &self.elements {
            if elem >= mesh.num_elements() {
                problems.push(format!("chunk references element {elem} outside the mesh"));
                continue;
            }
            if seen[elem] {
                problems.push(format!("element {elem} appears in more than one chunk"));
            }
            seen[elem] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            problems.push(format!("element {missing} is not covered by any chunk"));
        }
        for color in 0..self.num_colors() {
            let mut owner: Vec<Option<usize>> = vec![None; mesh.num_nodes()];
            for chunk_id in self.color_chunks(color) {
                if self.slots(chunk_id).len() > self.vector_size {
                    problems.push(format!("chunk {chunk_id} exceeds VECTOR_SIZE"));
                }
                for &elem in self.slots(chunk_id).elements {
                    for &node in mesh.element_nodes(elem) {
                        match owner[node as usize] {
                            Some(other) if other != chunk_id => problems.push(format!(
                                "chunks {other} and {chunk_id} of color {color} share node {node}"
                            )),
                            _ => owner[node as usize] = Some(chunk_id),
                        }
                    }
                }
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
    fn structured_hex_mesh_takes_eight_colors() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let coloring = ElementColoring::greedy(&mesh);
        assert_eq!(coloring.num_colors(), 8);
        assert_eq!(coloring.num_elements(), 64);
        assert!(coloring.validate(&mesh).is_empty());
    }

    #[test]
    fn jittered_cavity_coloring_is_valid() {
        let mesh = BoxMeshBuilder::new(6, 5, 4).lid_driven_cavity().with_jitter(0.1, 3).build();
        let coloring = ElementColoring::greedy(&mesh);
        let problems = coloring.validate(&mesh);
        assert!(problems.is_empty(), "{problems:?}");
        // Jitter moves nodes but keeps the connectivity, so the color count
        // stays the structured 8.
        assert_eq!(coloring.num_colors(), 8);
    }

    #[test]
    fn neighbouring_elements_get_distinct_colors() {
        let mesh = BoxMeshBuilder::new(4, 1, 1).build();
        let coloring = ElementColoring::greedy(&mesh);
        for e in 0..3 {
            assert_ne!(coloring.color_of(e), coloring.color_of(e + 1));
        }
        // A 1-D strip of hexes 2-colors like a path graph.
        assert_eq!(coloring.num_colors(), 2);
    }

    #[test]
    fn balanced_coloring_is_valid_and_no_wider_than_greedy_spread() {
        // Non-cubic boxes give first-fit uneven octant classes; the balanced
        // variant must stay valid (greedy's validate is the shared oracle)
        // and must not be *less* balanced.
        for (nx, ny, nz) in [(4, 4, 4), (5, 3, 2), (7, 4, 3), (3, 3, 5)] {
            let mesh = BoxMeshBuilder::new(nx, ny, nz).lid_driven_cavity().build();
            let greedy = ElementColoring::greedy(&mesh);
            let balanced = ElementColoring::balanced(&mesh);
            let problems = balanced.validate(&mesh);
            assert!(problems.is_empty(), "{nx}x{ny}x{nz}: {problems:?}");
            assert_eq!(balanced.num_elements(), mesh.num_elements());
            assert!(
                balanced.class_spread() <= greedy.class_spread(),
                "{nx}x{ny}x{nz}: balanced spread {} > greedy spread {}",
                balanced.class_spread(),
                greedy.class_spread()
            );
        }
    }

    #[test]
    fn balanced_coloring_tightens_an_actually_imbalanced_case() {
        // 5x3x2 = 30 elements, 8 octant-parity classes: first-fit yields
        // classes of size ceil/floor products (spread 4).  The conflict
        // structure caps how much balancing is possible — interior elements
        // have a single allowed color — but the boundary freedom must be
        // spent on the short classes (strictly smaller spread).
        let mesh = BoxMeshBuilder::new(5, 3, 2).build();
        let greedy = ElementColoring::greedy(&mesh);
        let balanced = ElementColoring::balanced(&mesh);
        assert!(greedy.class_spread() > 3, "greedy spread {}", greedy.class_spread());
        assert!(
            balanced.class_spread() < greedy.class_spread(),
            "balanced spread {} should beat greedy spread {}",
            balanced.class_spread(),
            greedy.class_spread()
        );
    }

    #[test]
    fn balanced_coloring_of_structured_hex_keeps_eight_colors() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build();
        let balanced = ElementColoring::balanced(&mesh);
        assert_eq!(balanced.num_colors(), 8);
        assert_eq!(balanced.class_spread(), 0); // 64 elements, 8 x 8
        assert!(balanced.validate(&mesh).is_empty());
    }

    #[test]
    fn balanced_chunks_uphold_the_disjointness_invariant() {
        let mesh = BoxMeshBuilder::new(6, 5, 4).lid_driven_cavity().with_jitter(0.1, 3).build();
        let balanced = ElementColoring::balanced(&mesh);
        for vs in [1usize, 8, 32] {
            let chunks = ColoredChunks::new(&balanced, vs);
            let problems = chunks.validate(&mesh);
            assert!(problems.is_empty(), "vs={vs}: {problems:?}");
            assert_eq!(chunks.num_elements(), mesh.num_elements());
        }
    }

    #[test]
    fn colored_chunks_partition_and_stay_disjoint() {
        let mesh = BoxMeshBuilder::new(6, 6, 6).lid_driven_cavity().build();
        let coloring = ElementColoring::greedy(&mesh);
        for vs in [1usize, 8, 32, 64] {
            let chunks = ColoredChunks::new(&coloring, vs);
            assert_eq!(chunks.num_elements(), mesh.num_elements());
            assert_eq!(chunks.num_colors(), coloring.num_colors());
            let problems = chunks.validate(&mesh);
            assert!(problems.is_empty(), "vs={vs}: {problems:?}");
        }
    }

    #[test]
    fn mesh_order_chunks_are_the_meshes_own_blocks_and_stay_disjoint_by_color() {
        use crate::renumber::NodePermutation;
        use crate::structured::ChannelMeshBuilder;
        let cavity = BoxMeshBuilder::new(8, 8, 8).lid_driven_cavity().build();
        let jittered = BoxMeshBuilder::new(7, 5, 3).lid_driven_cavity().with_jitter(0.1, 3).build();
        let scrambled =
            jittered.renumber_nodes(&NodePermutation::scrambled(jittered.num_nodes(), 0xC0FFEE));
        let meshes = [
            ("cavity", cavity),
            ("channel", ChannelMeshBuilder::new(6, 4).build()),
            ("jittered", jittered),
            ("scrambled", scrambled),
        ];
        for (name, mesh) in &meshes {
            for vs in [1usize, 16, 128, 240] {
                let what = format!("{name}, VS {vs}");
                let chunks = ColoredChunks::mesh_order(mesh, vs);
                let problems = chunks.validate(mesh);
                assert!(problems.is_empty(), "{what}: {problems:?}");
                assert_eq!(chunks.num_elements(), mesh.num_elements(), "{what}");
                assert_eq!(chunks.num_chunks(), mesh.num_elements().div_ceil(vs), "{what}");
                // Consecutive elements, and every chunk full but the one
                // that ends the mesh.
                for chunk_id in 0..chunks.num_chunks() {
                    let elements = chunks.slots(chunk_id).elements;
                    assert!(elements.windows(2).all(|pair| pair[1] == pair[0] + 1), "{what}");
                    assert_eq!(elements[0] % vs, 0, "{what}");
                    let ends_the_mesh = elements[elements.len() - 1] + 1 == mesh.num_elements();
                    assert!(elements.len() == vs || ends_the_mesh, "{what}: chunk {chunk_id}");
                }
                // Color-major ids, mesh order within a color.
                for color in 0..chunks.num_colors() {
                    let firsts: Vec<usize> =
                        chunks.color_chunks(color).map(|c| chunks.slots(c).elements[0]).collect();
                    assert!(firsts.windows(2).all(|pair| pair[0] < pair[1]), "{what}");
                }
            }
        }
        // A node renumbering changes no connectivity, hence no schedule.
        assert_eq!(
            ColoredChunks::mesh_order(&meshes[2].1, 16),
            ColoredChunks::mesh_order(&meshes[3].1, 16)
        );
    }

    #[test]
    fn mesh_order_color_counts_of_the_uniform_boxes() {
        // Chunks of 128 consecutive elements: two z-planes of the 8³ box (a
        // path of 4 chunks), most of a z-plane of the 12³ one, a 32 × 4 slab
        // of a z-plane of the 32³ one (an 8 × 32 grid of chunks).
        for (n, per_color) in [(8usize, vec![2, 2]), (12, vec![5, 5, 4]), (32, vec![64; 4])] {
            let mesh = BoxMeshBuilder::new(n, n, n).lid_driven_cavity().build();
            let chunks = ColoredChunks::mesh_order(&mesh, 128);
            let sizes: Vec<usize> =
                (0..chunks.num_colors()).map(|c| chunks.color_chunks(c).len()).collect();
            assert_eq!(sizes, per_color, "{n}³");
            // The element-colored packing of the same mesh: 8 colors, and a
            // partially filled chunk in each of them below 32³.
            let by_element = ColoredChunks::new(&ElementColoring::balanced(&mesh), 128);
            assert_eq!(by_element.num_colors(), 8);
            assert!(by_element.num_chunks() >= chunks.num_chunks());
        }
    }

    #[test]
    fn chunk_count_is_per_color_ceiling() {
        let mesh = BoxMeshBuilder::new(4, 4, 4).build(); // 8 colors x 8 elements
        let coloring = ElementColoring::greedy(&mesh);
        let chunks = ColoredChunks::new(&coloring, 3); // ceil(8/3) = 3 per color
        assert_eq!(chunks.num_chunks(), 24);
        for color in 0..8 {
            assert_eq!(chunks.color_chunks(color).len(), 3);
        }
        // Last chunk of each color is the 8 mod 3 = 2-element remainder.
        let last = chunks.color_chunks(0).end - 1;
        assert_eq!(chunks.slots(last).len(), 2);
        assert_eq!(chunks.slots(last).vector_size, 3);
    }

    #[test]
    fn slots_expose_padding() {
        let mesh = BoxMeshBuilder::new(3, 3, 3).build(); // 27 elements
        let coloring = ElementColoring::greedy(&mesh);
        let chunks = ColoredChunks::new(&coloring, 32);
        for chunk_id in 0..chunks.num_chunks() {
            let slots = chunks.slots(chunk_id);
            assert!(!slots.is_empty() && slots.len() <= 32);
            assert!(slots.element(slots.len() - 1).is_some());
            assert_eq!(slots.element(slots.len()), None);
            assert_eq!(slots.padding(), 32 - slots.len());
        }
    }

    #[test]
    #[should_panic]
    fn zero_vector_size_rejected() {
        let mesh = BoxMeshBuilder::new(2, 2, 2).build();
        let coloring = ElementColoring::greedy(&mesh);
        let _ = ColoredChunks::new(&coloring, 0);
    }
}
