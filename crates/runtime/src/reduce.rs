//! The deterministic blocked reduction.
//!
//! Floating-point addition is not associative, so a reduction whose
//! combination order depends on the thread count (or worse, on timing)
//! produces different last bits on every run — poison for a solver whose
//! residual history is supposed to be a reproducible observable.  The fix
//! used here is the classic fixed-blocking scheme: the index space is cut
//! into blocks of [`REDUCTION_BLOCK`] elements, each block is reduced
//! sequentially in index order, and the per-block partials are combined in
//! block order on the calling thread.  Block boundaries depend only on `n`,
//! never on the thread count, so the result is **bitwise identical** whether
//! the blocks were computed by 1, 2 or 64 threads — the serial path runs the
//! very same blocked order.

use crate::for_each_share;
use crate::team::Team;
use std::ops::Range;

/// Elements per reduction block.  Chosen so a block's inner loop amortizes
/// the bookkeeping (and vectorizes) while the per-`dot` scratch stays tiny:
/// a million-row vector needs ~4k partials.
pub const REDUCTION_BLOCK: usize = 256;

/// Number of reduction blocks covering `0..n`.
#[inline]
pub fn num_blocks(n: usize) -> usize {
    n.div_ceil(REDUCTION_BLOCK)
}

/// Index range of block `b` of `0..n`.
#[inline]
pub fn block_range(n: usize, b: usize) -> Range<usize> {
    let lo = b * REDUCTION_BLOCK;
    let hi = (lo + REDUCTION_BLOCK).min(n);
    lo..hi
}

/// Reduces `0..n` with the fixed-block scheme, `W` sums in one pass:
/// `block_sum` is called once per [`block_range`] (in parallel across the
/// team when one is given) and returns the `W` partials of that block; each
/// component's partials are then summed in block order.
///
/// `scratch` holds the `W * num_blocks(n)` partials between calls so a
/// solver iteration does not allocate; it is resized as needed.
///
/// Every component of the result is bitwise identical for every `team`
/// argument — `None`, or teams of any size — and for every `W`: a fused
/// three-vector dot product reproduces the three single-vector dot products
/// bit for bit while paying one fork/join instead of three.  `block_sum`
/// must be a pure function of its range, and `W` at least 1.
pub fn blocked_reduce<const W: usize, F>(
    team: Option<&Team>,
    n: usize,
    scratch: &mut Vec<f64>,
    block_sum: F,
) -> [f64; W]
where
    F: Fn(Range<usize>) -> [f64; W] + Sync,
{
    let blocks = num_blocks(n);
    scratch.clear();
    scratch.resize(W * blocks, 0.0);
    // Parallel only when every rank gets at least one whole block.
    let team = team.filter(|team| blocks >= team.num_threads());
    for_each_share(team, blocks, 1, &mut scratch[..], |blocks, partials| {
        for (b, slot) in blocks.zip(partials.chunks_exact_mut(W)) {
            slot.copy_from_slice(&block_sum(block_range(n, b)));
        }
    });
    // Combine each component in fixed block order, independent of who
    // computed what.  `Iterator::sum` is the one fold for every width (its
    // identity decides the sign of an empty or all-`-0.0` sum).
    std::array::from_fn(|k| scratch.iter().skip(k).step_by(W).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_block_sum(data: &[f64]) -> impl Fn(Range<usize>) -> [f64; 1] + Sync + '_ {
        move |r| [data[r].iter().sum()]
    }

    #[test]
    fn blocks_tile_the_index_space() {
        for n in [0usize, 1, REDUCTION_BLOCK - 1, REDUCTION_BLOCK, 5 * REDUCTION_BLOCK + 17] {
            let mut end = 0;
            for b in 0..num_blocks(n) {
                let r = block_range(n, b);
                assert_eq!(r.start, end);
                assert!(!r.is_empty());
                end = r.end;
            }
            assert_eq!(end, n);
        }
    }

    #[test]
    fn serial_reduce_matches_block_ordered_sum() {
        let n = 3 * REDUCTION_BLOCK + 41;
        let data: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 9.7 - 5.0).collect();
        let mut scratch = Vec::new();
        let [got] = blocked_reduce(None, n, &mut scratch, seq_block_sum(&data));
        let expect: f64 =
            (0..num_blocks(n)).map(|b| data[block_range(n, b)].iter().sum::<f64>()).sum();
        assert_eq!(got.to_bits(), expect.to_bits());
    }

    #[test]
    fn reduce_is_bitwise_identical_for_every_thread_count() {
        let n = 17 * REDUCTION_BLOCK + 3;
        let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7310081).sin() * 1e3).collect();
        let mut scratch = Vec::new();
        let [serial] = blocked_reduce(None, n, &mut scratch, seq_block_sum(&data));
        for threads in [1usize, 2, 3, 4, 8] {
            let team = Team::new(threads);
            let [got] = blocked_reduce(Some(&team), n, &mut scratch, seq_block_sum(&data));
            assert_eq!(got.to_bits(), serial.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn tiny_inputs_fall_back_to_the_serial_path() {
        let team = Team::new(8);
        let data = [1.5f64, -2.25, 4.0];
        let mut scratch = Vec::new();
        let got = blocked_reduce(Some(&team), 3, &mut scratch, seq_block_sum(&data));
        assert_eq!(got, [3.25]);
    }

    #[test]
    fn empty_reduce_is_zero() {
        let mut scratch = vec![9.0; 4];
        assert_eq!(
            blocked_reduce(None, 0, &mut scratch, |_| -> [f64; 1] { unreachable!() }),
            [0.0]
        );
    }

    /// One fold for every width: each component of a three-wide reduction is
    /// bitwise identical to its own one-wide reduction, serially and on every
    /// team — including the inputs where a fold's identity shows (no block
    /// at all, and one block whose products are all `-0.0`).
    #[test]
    fn every_width_folds_each_component_to_the_same_bits() {
        let nine_blocks = 9 * REDUCTION_BLOCK + 77;
        let inputs: [(&str, [Vec<f64>; 3]); 3] = [
            ("empty", [vec![], vec![], vec![]]),
            ("one block of -0.0", [vec![-0.0; 100], vec![-0.0; 100], vec![-0.0; 100]]),
            (
                "nine blocks",
                [
                    (0..nine_blocks).map(|i| (i as f64 * 0.31).sin() * 1e2).collect(),
                    (0..nine_blocks).map(|i| (i as f64 * 0.77).cos() - 0.5).collect(),
                    (0..nine_blocks).map(|i| ((i * 13 + 7) % 101) as f64 / 10.1).collect(),
                ],
            ),
        ];
        for (name, data) in &inputs {
            let n = data[0].len();
            // Poisoned scratch: stale partials must never reach a sum.
            let mut scratch = vec![9.0; 6];
            let singles: Vec<f64> = data
                .iter()
                .map(|d| blocked_reduce(None, n, &mut scratch, seq_block_sum(d))[0])
                .collect();
            let fused_sum = |r: Range<usize>| -> [f64; 3] {
                [
                    data[0][r.clone()].iter().sum(),
                    data[1][r.clone()].iter().sum(),
                    data[2][r].iter().sum(),
                ]
            };
            let teams: Vec<Team> = [1usize, 2, 3, 4].into_iter().map(Team::new).collect();
            for team in std::iter::once(None).chain(teams.iter().map(Some)) {
                let threads = team.map_or(0, Team::num_threads);
                let fused = blocked_reduce(team, n, &mut scratch, fused_sum);
                for k in 0..3 {
                    let [single] = blocked_reduce(team, n, &mut scratch, seq_block_sum(&data[k]));
                    assert_eq!(single.to_bits(), singles[k].to_bits(), "{name} t={threads} k={k}");
                    assert_eq!(
                        fused[k].to_bits(),
                        singles[k].to_bits(),
                        "{name} t={threads} k={k}"
                    );
                }
            }
            if n == 0 {
                assert_eq!(singles, [0.0; 3], "{name}: an empty reduction is zero");
            }
        }
    }
}
