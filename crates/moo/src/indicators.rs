//! Front-quality indicators used by the Figure 3 experiment and the
//! optimizer ablation benches.

/// Exact 2-D hypervolume of a front w.r.t. a reference point (minimization):
/// the area dominated by the front and bounded by `reference`.
///
/// Points not strictly better than the reference in both coordinates
/// contribute nothing. Returns 0 for an empty front.
pub fn hypervolume_2d(front: &[Vec<f64>], reference: &[f64; 2]) -> f64 {
    let mut pts: Vec<(f64, f64)> = front
        .iter()
        .filter(|c| c[0] < reference[0] && c[1] < reference[1])
        .map(|c| (c[0], c[1]))
        .collect();
    if pts.is_empty() {
        return 0.0;
    }
    // Sort by first objective ascending; sweep keeping the best (lowest)
    // second objective so dominated points add no area.
    pts.sort_by(|a, b| a.partial_cmp(b).expect("NaN cost"));
    let mut volume = 0.0;
    let mut prev_y = reference[1];
    let mut prev_x = f64::NEG_INFINITY;
    for (x, y) in pts {
        if x == prev_x {
            continue; // same x: only the first (lowest y) matters
        }
        if y < prev_y {
            volume += (reference[0] - x) * (prev_y - y);
            prev_y = y;
            prev_x = x;
        }
    }
    volume
}

/// Schott's spacing metric: standard deviation of nearest-neighbour
/// (L1) distances within the front. 0 means perfectly even spacing;
/// `None` for fronts with fewer than 2 points.
pub fn spacing(front: &[Vec<f64>]) -> Option<f64> {
    if front.len() < 2 {
        return None;
    }
    let d: Vec<f64> = front
        .iter()
        .enumerate()
        .map(|(i, a)| {
            front
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, b)| {
                    a.iter()
                        .zip(b.iter())
                        .map(|(x, y)| (x - y).abs())
                        .sum::<f64>()
                })
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mean = d.iter().sum::<f64>() / d.len() as f64;
    let var = d.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / d.len() as f64;
    Some(var.sqrt())
}

/// Coverage (Zitzler's C-metric): the fraction of `b` weakly dominated by at
/// least one member of `a`. `C(a,b) = 1` means `a` covers all of `b`.
pub fn coverage(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    if b.is_empty() {
        return 0.0;
    }
    let covered = b
        .iter()
        .filter(|bc| a.iter().any(|ac| crate::dominance::dominates(ac, bc)))
        .count();
    covered as f64 / b.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hv2d_single_point() {
        let hv = hypervolume_2d(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        assert!((hv - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hv2d_staircase() {
        // Two points forming an L: (1,2) and (2,1) with ref (3,3).
        let hv = hypervolume_2d(&[vec![1.0, 2.0], vec![2.0, 1.0]], &[3.0, 3.0]);
        // Area = 2x1 rectangle + 1x2 rectangle - 1x1 overlap = 3.
        assert!((hv - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hv2d_dominated_point_adds_nothing() {
        let base = hypervolume_2d(&[vec![1.0, 1.0]], &[3.0, 3.0]);
        let with_dom = hypervolume_2d(&[vec![1.0, 1.0], vec![2.0, 2.0]], &[3.0, 3.0]);
        assert!((base - with_dom).abs() < 1e-12);
    }

    #[test]
    fn hv2d_point_outside_reference_is_ignored() {
        let hv = hypervolume_2d(&[vec![4.0, 4.0]], &[3.0, 3.0]);
        assert_eq!(hv, 0.0);
        assert_eq!(hypervolume_2d(&[], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn spacing_uniform_front_is_zero() {
        let front = vec![vec![0.0, 3.0], vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 0.0]];
        let s = spacing(&front).unwrap();
        assert!(s.abs() < 1e-12);
        assert!(spacing(&[vec![1.0]]).is_none());
    }

    #[test]
    fn coverage_basics() {
        let strong = vec![vec![0.0, 0.0]];
        let weak = vec![vec![1.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(coverage(&strong, &weak), 1.0);
        assert_eq!(coverage(&weak, &strong), 0.0);
        assert_eq!(coverage(&strong, &[]), 0.0);
    }
}
