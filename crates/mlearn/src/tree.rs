//! CART-style regression trees — the base learner of the bagging family.
//!
//! Splits greedily on the `(feature, threshold)` pair that minimizes the
//! weighted sum of child variances; leaves predict the mean of their rows.
//!
//! A tree is one arena of nodes, root first, children addressed by index.
//! It grows over one buffer of row indices, in which each node owns a
//! contiguous range that a split partitions stably in place, and every
//! other buffer it needs is reused from node to node and, in a bagging
//! ensemble, from tree to tree: a fit allocates the same at any depth. The
//! split scan tests several thresholds per pass over a node's rows with
//! branch-free selects; each threshold still sums its rows in row order, so
//! every SSE, split and leaf mean is the one a scan per threshold computes.
//! A NaN feature value, which no threshold can place, fails the fit with
//! [`EstimationError::Numeric`] when a split would have to order it.

use crate::regressor::Regressor;
use midas_dream::EstimationError;

/// Tuning knobs for a regression tree.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Maximum depth; a depth-0 tree is a single leaf.
    pub max_depth: usize,
    /// Minimum rows a node must have to be split further.
    pub min_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 5,
            min_split: 4,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Indices of the children in the tree's node arena.
        left: usize,
        right: usize,
    },
}

/// Thresholds one pass over a node's rows tests.
const LANES: usize = 4;

/// Buffers a tree build reuses at every node, and a bagging ensemble
/// across its trees.
#[derive(Debug, Default)]
pub(crate) struct TreeScratch {
    /// Training rows (indices into `xs`/`ys`); a node owns a contiguous
    /// range, stably partitioned in place when it splits. The caller
    /// fills it before [`RegressionTree::fit_rows`].
    pub(crate) rows: Vec<usize>,
    /// A splitting node's right-hand rows, before they are copied back.
    right: Vec<usize>,
    /// The node's targets, in row order.
    ys: Vec<f64>,
    /// One feature of the node's rows, in row order.
    column: Vec<f64>,
    /// The same values sorted and deduplicated.
    distinct: Vec<f64>,
}

/// A fitted (or not-yet-fitted) regression tree.
#[derive(Debug, Clone)]
pub struct RegressionTree {
    config: TreeConfig,
    /// Every node, root first; empty when unfitted.
    nodes: Vec<Node>,
    n_features: usize,
}

impl RegressionTree {
    /// Unfitted tree with the given configuration.
    pub fn new(config: TreeConfig) -> Self {
        RegressionTree {
            config,
            nodes: Vec::new(),
            n_features: 0,
        }
    }

    /// Number of leaves (0 when unfitted) — useful for tests.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Fits on the rows `scratch.rows` lists (repeats allowed), in that
    /// order: the tree a fit on those rows copied out would grow.
    pub(crate) fn fit_rows(
        &mut self,
        xs: &[&[f64]],
        ys: &[f64],
        scratch: &mut TreeScratch,
    ) -> Result<(), EstimationError> {
        let n = scratch.rows.len();
        self.n_features = xs[scratch.rows[0]].len();
        // Every child keeps a row, so a tree has at most `n` leaves, and
        // at most `2^max_depth`: one allocation holds any tree.
        let leaves = 1usize
            .checked_shl(self.config.max_depth.try_into().unwrap_or(u32::MAX))
            .unwrap_or(usize::MAX)
            .min(n);
        self.nodes.clear();
        self.nodes.reserve_exact(2 * leaves - 1);
        scratch.right.reserve(n);
        let built = self.build(scratch, xs, ys, 0, n, 0);
        if built.is_err() {
            self.nodes.clear();
        }
        built.map(|_| ())
    }

    /// Grows the subtree of the rows `scratch.rows[lo..hi]` and returns its
    /// root's index in the arena.
    fn build(
        &mut self,
        scratch: &mut TreeScratch,
        xs: &[&[f64]],
        ys: &[f64],
        lo: usize,
        hi: usize,
        depth: usize,
    ) -> Result<usize, EstimationError> {
        let at = self.nodes.len();
        let rows = &scratch.rows[lo..hi];
        let mean = rows.iter().map(|&i| ys[i]).sum::<f64>() / rows.len() as f64;
        self.nodes.push(Node::Leaf { value: mean });
        if depth >= self.config.max_depth || rows.len() < self.config.min_split {
            return Ok(at);
        }
        let parent_sse: f64 = rows.iter().map(|&i| (ys[i] - mean) * (ys[i] - mean)).sum();
        if parent_sse <= 1e-12 {
            return Ok(at);
        }
        match self.best_split(scratch, xs, ys, lo, hi)? {
            Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                // Stable partition in place: left rows compact to the
                // front, right rows wait in `right` and follow them.
                let TreeScratch { rows, right, .. } = scratch;
                right.clear();
                let mut mid = lo;
                for k in lo..hi {
                    let i = rows[k];
                    if xs[i][feature] <= threshold {
                        rows[mid] = i;
                        mid += 1;
                    } else {
                        right.push(i);
                    }
                }
                rows[mid..hi].copy_from_slice(right);
                let left = self.build(scratch, xs, ys, lo, mid, depth + 1)?;
                let right = self.build(scratch, xs, ys, mid, hi, depth + 1)?;
                self.nodes[at] = Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                };
            }
            _ => {}
        }
        Ok(at)
    }

    /// The `(feature, threshold, sse)` with the smallest summed child SSE
    /// over the rows `scratch.rows[lo..hi]`, the first such in feature then
    /// threshold order; thresholds are midpoints between consecutive
    /// distinct values. A NaN feature value has no place among them.
    fn best_split(
        &self,
        scratch: &mut TreeScratch,
        xs: &[&[f64]],
        ys: &[f64],
        lo: usize,
        hi: usize,
    ) -> Result<Option<(usize, f64, f64)>, EstimationError> {
        let TreeScratch {
            rows,
            ys: node_ys,
            column,
            distinct,
            ..
        } = scratch;
        let rows = &rows[lo..hi];
        let n = rows.len();
        node_ys.clear();
        node_ys.extend(rows.iter().map(|&i| ys[i]));
        let mut best: Option<(usize, f64, f64)> = None;
        for f in 0..self.n_features {
            column.clear();
            column.extend(rows.iter().map(|&i| xs[i][f]));
            if column.iter().any(|v| v.is_nan()) {
                return Err(EstimationError::Numeric("NaN feature".to_string()));
            }
            distinct.clear();
            distinct.extend_from_slice(column);
            // No NaN, so `<` is total up to ±0.0, which dedup merges: the
            // zero kept cannot move a midpoint with a non-zero neighbour.
            distinct.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            distinct.dedup();
            let thresholds = distinct.len().saturating_sub(1);
            for first in (0..thresholds).step_by(LANES) {
                // Up to LANES thresholds per pass over the rows. Each
                // lane's sums still add its rows in row order; a row on
                // the other side adds +0.0 (its bits masked off), which no
                // sum starting at +0.0 can notice.
                let lanes = (thresholds - first).min(LANES);
                let mut thr = [f64::NAN; LANES];
                for (k, t) in thr[..lanes].iter_mut().enumerate() {
                    *t = (distinct[first + k] + distinct[first + k + 1]) / 2.0;
                }
                let mut ln = [0usize; LANES];
                let (mut ls, mut lq) = ([0.0f64; LANES], [0.0f64; LANES]);
                let (mut rs, mut rq) = ([0.0f64; LANES], [0.0f64; LANES]);
                for (&x, &y) in column.iter().zip(node_ys.iter()) {
                    let (y, yy) = (y.to_bits(), (y * y).to_bits());
                    for k in 0..LANES {
                        let left = x <= thr[k];
                        let mask = 0u64.wrapping_sub(u64::from(left));
                        ln[k] += usize::from(left);
                        ls[k] += f64::from_bits(y & mask);
                        lq[k] += f64::from_bits(yy & mask);
                        rs[k] += f64::from_bits(y & !mask);
                        rq[k] += f64::from_bits(yy & !mask);
                    }
                }
                for k in 0..lanes {
                    let (ln, rn) = (ln[k], n - ln[k]);
                    if ln == 0 || rn == 0 {
                        continue;
                    }
                    // SSE of a group = Σy² - (Σy)²/n
                    let sse =
                        (lq[k] - ls[k] * ls[k] / ln as f64) + (rq[k] - rs[k] * rs[k] / rn as f64);
                    if best.as_ref().is_none_or(|(_, _, b)| sse < *b) {
                        best = Some((f, thr[k], sse));
                    }
                }
            }
        }
        Ok(best)
    }
}

impl Regressor for RegressionTree {
    fn family(&self) -> &'static str {
        "tree"
    }

    fn min_samples(&self, _l: usize) -> usize {
        2
    }

    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<(), EstimationError> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(EstimationError::NotEnoughData {
                required: 2,
                available: xs.len().min(ys.len()),
            });
        }
        let mut scratch = TreeScratch {
            rows: (0..xs.len()).collect(),
            ..TreeScratch::default()
        };
        self.fit_rows(xs, ys, &mut scratch)
    }

    fn predict(&self, x: &[f64]) -> Result<f64, EstimationError> {
        if x.len() != self.n_features {
            return Err(EstimationError::FeatureArity {
                expected: self.n_features,
                got: x.len(),
            });
        }
        let mut node = self.nodes.first().ok_or(EstimationError::NotFitted)?;
        loop {
            match *node {
                Node::Leaf { value } => return Ok(value),
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = &self.nodes[if x[feature] <= threshold { left } else { right }];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // A step function at x = 5: tree-friendly, line-hostile.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 9.0 }).collect();
        (xs, ys)
    }

    #[test]
    fn learns_a_step_function() {
        let (xs, ys) = step_data();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let mut tree = RegressionTree::new(TreeConfig::default());
        tree.fit(&refs, &ys).unwrap();
        assert!((tree.predict(&[2.0]).unwrap() - 1.0).abs() < 1e-9);
        assert!((tree.predict(&[15.0]).unwrap() - 9.0).abs() < 1e-9);
        assert!(tree.n_leaves() >= 2);
    }

    #[test]
    fn depth_zero_is_the_mean() {
        let (xs, ys) = step_data();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let mut tree = RegressionTree::new(TreeConfig {
            max_depth: 0,
            min_split: 2,
        });
        tree.fit(&refs, &ys).unwrap();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert!((tree.predict(&[0.0]).unwrap() - mean).abs() < 1e-9);
        assert_eq!(tree.n_leaves(), 1);
    }

    #[test]
    fn constant_target_is_single_leaf() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys = vec![4.2; 8];
        let mut tree = RegressionTree::new(TreeConfig::default());
        tree.fit(&refs, &ys).unwrap();
        assert_eq!(tree.n_leaves(), 1);
        assert!((tree.predict(&[100.0]).unwrap() - 4.2).abs() < 1e-9);
    }

    #[test]
    fn unfitted_and_arity_errors() {
        let tree = RegressionTree::new(TreeConfig::default());
        assert!(tree.predict(&[1.0]).is_err());
        let (xs, ys) = step_data();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let mut tree = RegressionTree::new(TreeConfig::default());
        tree.fit(&refs, &ys).unwrap();
        assert!(matches!(
            tree.predict(&[1.0, 2.0]),
            Err(EstimationError::FeatureArity { .. })
        ));
    }

    #[test]
    fn two_feature_split() {
        // y depends only on the second feature.
        let xs: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![(i % 4) as f64, (i / 4) as f64])
            .collect();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|r| if r[1] < 2.0 { 0.0 } else { 10.0 })
            .collect();
        let mut tree = RegressionTree::new(TreeConfig::default());
        tree.fit(&refs, &ys).unwrap();
        assert!((tree.predict(&[0.0, 0.0]).unwrap() - 0.0).abs() < 1e-9);
        assert!((tree.predict(&[0.0, 3.0]).unwrap() - 10.0).abs() < 1e-9);
    }

    /// The recursive builder this arena replaced, verbatim but for being
    /// free functions: a `Box` per node and fresh row vectors per split.
    mod boxed {
        use super::TreeConfig;

        #[derive(Debug, Clone)]
        pub enum Node {
            Leaf {
                value: f64,
            },
            Split {
                feature: usize,
                threshold: f64,
                left: Box<Node>,
                right: Box<Node>,
            },
        }

        pub fn build(
            config: &TreeConfig,
            n_features: usize,
            rows: &[usize],
            xs: &[&[f64]],
            ys: &[f64],
            depth: usize,
        ) -> Node {
            let mean = rows.iter().map(|&i| ys[i]).sum::<f64>() / rows.len() as f64;
            if depth >= config.max_depth || rows.len() < config.min_split {
                return Node::Leaf { value: mean };
            }
            let parent_sse: f64 = rows.iter().map(|&i| (ys[i] - mean) * (ys[i] - mean)).sum();
            if parent_sse <= 1e-12 {
                return Node::Leaf { value: mean };
            }

            let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
            for f in 0..n_features {
                // Candidate thresholds: midpoints between consecutive distinct values.
                let mut vals: Vec<f64> = rows.iter().map(|&i| xs[i][f]).collect();
                vals.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
                vals.dedup();
                for w in vals.windows(2) {
                    let thr = (w[0] + w[1]) / 2.0;
                    let (mut ln, mut ls, mut lq) = (0usize, 0.0f64, 0.0f64);
                    let (mut rn, mut rs, mut rq) = (0usize, 0.0f64, 0.0f64);
                    for &i in rows {
                        let y = ys[i];
                        if xs[i][f] <= thr {
                            ln += 1;
                            ls += y;
                            lq += y * y;
                        } else {
                            rn += 1;
                            rs += y;
                            rq += y * y;
                        }
                    }
                    if ln == 0 || rn == 0 {
                        continue;
                    }
                    // SSE of a group = Σy² - (Σy)²/n
                    let sse = (lq - ls * ls / ln as f64) + (rq - rs * rs / rn as f64);
                    if best.as_ref().is_none_or(|(_, _, b)| sse < *b) {
                        best = Some((f, thr, sse));
                    }
                }
            }

            match best {
                Some((feature, threshold, sse)) if sse < parent_sse - 1e-12 => {
                    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                        rows.iter().partition(|&&i| xs[i][feature] <= threshold);
                    Node::Split {
                        feature,
                        threshold,
                        left: Box::new(build(config, n_features, &left_rows, xs, ys, depth + 1)),
                        right: Box::new(build(config, n_features, &right_rows, xs, ys, depth + 1)),
                    }
                }
                _ => Node::Leaf { value: mean },
            }
        }

        pub fn predict(mut node: &Node, x: &[f64]) -> f64 {
            loop {
                match node {
                    Node::Leaf { value } => return *value,
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        node = if x[*feature] <= *threshold {
                            left
                        } else {
                            right
                        };
                    }
                }
            }
        }

        /// Every split's `(feature, threshold)` and the number of leaves.
        pub fn splits(node: &Node, out: &mut Vec<(usize, f64)>) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    out.push((*feature, *threshold));
                    splits(left, out) + splits(right, out)
                }
            }
        }
    }

    #[test]
    fn arena_trees_equal_the_boxed_recursive_builder_bit_for_bit() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Values from a small grid, so windows tie, repeat rows and hold
        // both zeros; a few windows also carry infinities.
        const GRID: [f64; 9] = [-0.0, 0.0, 1.0, 1.0, 2.5, -3.0, 7.0, 1e6, -1e-3];
        let mut rng = StdRng::seed_from_u64(0x7eee);
        let mut checked_splits = 0;
        for case in 0..600 {
            let n = rng.gen_range(1..=64);
            let l = rng.gen_range(1..=3);
            let constant_column = rng.gen_range(0..l + 1);
            let with_infinities = case % 7 == 0;
            let draw = |rng: &mut StdRng| {
                if with_infinities && rng.gen_range(0..8) == 0 {
                    [f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..2usize)]
                } else {
                    GRID[rng.gen_range(0..GRID.len())] * rng.gen_range(1..4) as f64
                }
            };
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
            for r in 0..n {
                if r > 0 && rng.gen_range(0..4) == 0 {
                    // A duplicate of an earlier row.
                    let again = rows[rng.gen_range(0..r)].clone();
                    rows.push(again);
                    continue;
                }
                let row = (0..l)
                    .map(|f| {
                        if f == constant_column {
                            4.0
                        } else {
                            draw(&mut rng)
                        }
                    })
                    .collect();
                rows.push(row);
            }
            let ys: Vec<f64> = (0..n)
                .map(|r| {
                    let x = &rows[r];
                    let v = x.iter().map(|v| v.clamp(-1e3, 1e3)).sum::<f64>();
                    if rng.gen_range(0..3) == 0 {
                        GRID[rng.gen_range(0..GRID.len())]
                    } else {
                        v
                    }
                })
                .collect();
            let xs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
            let config = TreeConfig {
                max_depth: rng.gen_range(0..=6),
                min_split: rng.gen_range(2..=6),
            };

            let mut tree = RegressionTree::new(config);
            tree.fit(&xs, &ys).unwrap();
            let all: Vec<usize> = (0..n).collect();
            let reference = boxed::build(&config, l, &all, &xs, &ys, 0);
            let mut splits = Vec::new();
            let leaves = boxed::splits(&reference, &mut splits);
            assert_eq!(tree.n_leaves(), leaves, "case {case}");
            checked_splits += splits.len();

            // Probes: every training row, and each row moved onto every
            // split's threshold.
            let mut probes = rows.clone();
            for row in &rows {
                for &(feature, threshold) in &splits {
                    let mut probe = row.clone();
                    probe[feature] = threshold;
                    probes.push(probe);
                }
            }
            for probe in &probes {
                assert_eq!(
                    tree.predict(probe).unwrap().to_bits(),
                    boxed::predict(&reference, probe).to_bits(),
                    "case {case}: {config:?}, probe {probe:?}"
                );
            }
        }
        assert!(
            checked_splits > 1000,
            "only {checked_splits} splits exercised"
        );
    }

    #[test]
    fn a_nan_feature_is_an_error_where_a_split_would_sort_it() {
        let mut xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, (i % 3) as f64]).collect();
        xs[5][1] = f64::NAN;
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = (0..12).map(|i| (i * i) as f64).collect();
        let mut tree = RegressionTree::new(TreeConfig::default());
        assert!(matches!(
            tree.fit(&refs, &ys),
            Err(EstimationError::Numeric(_))
        ));
        assert!(matches!(
            tree.predict(&[1.0, 1.0]),
            Err(EstimationError::NotFitted)
        ));
        // A leaf never sorts its rows: a depth-0 tree fits as before.
        let mut stump = RegressionTree::new(TreeConfig {
            max_depth: 0,
            min_split: 2,
        });
        stump.fit(&refs, &ys).unwrap();
        assert_eq!(stump.n_leaves(), 1);
    }
}
