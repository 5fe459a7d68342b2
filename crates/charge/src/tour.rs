//! TSP tour heuristics: nearest-neighbour construction and 2-opt improvement.
//!
//! Used by [`crate::periodic::PeriodicTsp`] for benign rounds and by the
//! attack planner in `wrsn-core` to order victim visits.

use wrsn_net::geom::{path_length, Point};
use wrsn_sim::obs::{Counter, Recorder};

/// Builds a visiting order over `points` starting from `start` by repeatedly
/// hopping to the nearest unvisited point. Returns indices into `points`.
fn nearest_neighbor_order(start: Point, points: &[Point]) -> Vec<usize> {
    let n = points.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut current = start;
    for _ in 0..n {
        let mut best = None;
        let mut best_d = f64::INFINITY;
        for (i, p) in points.iter().enumerate() {
            if visited[i] {
                continue;
            }
            let d = current.distance_sq(*p);
            if d < best_d {
                best_d = d;
                best = Some(i);
            }
        }
        let i = best.expect("unvisited point exists");
        visited[i] = true;
        order.push(i);
        current = points[i];
    }
    order
}

/// Total length of the open tour `start → points[order[0]] → … →
/// points[order[n-1]]`, metres.
fn tour_length(start: Point, points: &[Point], order: &[usize]) -> f64 {
    let mut path = Vec::with_capacity(order.len() + 1);
    path.push(start);
    path.extend(order.iter().map(|&i| points[i]));
    path_length(&path)
}

/// Improves `order` in place with 2-opt moves (segment reversal) until no
/// improving move exists or `max_rounds` passes complete, counting accepted
/// reversals ([`Counter::TourTwoOptMoves`]) into `rec`. Returns the final
/// tour length.
fn two_opt(
    start: Point,
    points: &[Point],
    order: &mut [usize],
    max_rounds: usize,
    rec: &mut dyn Recorder,
) -> f64 {
    let n = order.len();
    if n < 3 {
        return tour_length(start, points, order);
    }
    let pos = |order: &[usize], k: isize| -> Point {
        if k < 0 {
            start
        } else {
            points[order[k as usize]]
        }
    };
    for _ in 0..max_rounds {
        let mut improved = false;
        for i in 0..n - 1 {
            for j in i + 1..n {
                // Reversing order[i..=j] replaces edges (i-1, i) and (j, j+1)
                // with (i-1, j) and (i, j+1).
                let a = pos(order, i as isize - 1);
                let b = pos(order, i as isize);
                let c = pos(order, j as isize);
                let before = a.distance(b)
                    + if j + 1 < n {
                        c.distance(pos(order, j as isize + 1))
                    } else {
                        0.0
                    };
                let after = a.distance(c)
                    + if j + 1 < n {
                        b.distance(pos(order, j as isize + 1))
                    } else {
                        0.0
                    };
                if after + 1e-12 < before {
                    order[i..=j].reverse();
                    rec.add(Counter::TourTwoOptMoves, 1);
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }
    tour_length(start, points, order)
}

/// Nearest-neighbour + 2-opt tour over `points` from `start`, counting
/// accepted 2-opt reversals into `rec`. Returns `(order, length_m)`.
///
/// # Example
///
/// ```
/// use wrsn_net::Point;
/// use wrsn_charge::tour::plan_tour;
/// use wrsn_sim::obs::NullRecorder;
///
/// let pts = vec![Point::new(0.0, 10.0), Point::new(0.0, 20.0), Point::new(0.0, 5.0)];
/// let (order, len) = plan_tour(Point::ORIGIN, &pts, &mut NullRecorder);
/// assert_eq!(order, vec![2, 0, 1]);
/// assert!((len - 20.0).abs() < 1e-9);
/// ```
pub fn plan_tour(start: Point, points: &[Point], rec: &mut dyn Recorder) -> (Vec<usize>, f64) {
    let mut order = nearest_neighbor_order(start, points);
    let len = two_opt(start, points, &mut order, 64, rec);
    (order, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wrsn_sim::obs::NullRecorder;

    fn random_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect()
    }

    #[test]
    fn nearest_neighbor_visits_everything_once() {
        let pts = random_points(20, 1);
        let order = nearest_neighbor_order(Point::ORIGIN, &pts);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn two_opt_never_worsens() {
        for seed in 0..8 {
            let pts = random_points(15, seed);
            let mut order = nearest_neighbor_order(Point::ORIGIN, &pts);
            let before = tour_length(Point::ORIGIN, &pts, &order);
            let after = two_opt(Point::ORIGIN, &pts, &mut order, 64, &mut NullRecorder);
            assert!(after <= before + 1e-9, "seed {seed}: {after} > {before}");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..15).collect::<Vec<_>>());
        }
    }

    #[test]
    fn two_opt_improves_a_crossing_order() {
        // 2-opt is a local search: it must strictly improve this tangled
        // order, though it may stop at a local optimum.
        let pts = vec![
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 20.0),
        ];
        let mut order = vec![0, 2, 1, 3];
        let before = tour_length(Point::ORIGIN, &pts, &order);
        let after = two_opt(Point::ORIGIN, &pts, &mut order, 64, &mut NullRecorder);
        assert!(after < before - 1e-9, "{after} !< {before}");
    }

    #[test]
    fn empty_and_single_point_tours() {
        let (order, len) = plan_tour(Point::ORIGIN, &[], &mut NullRecorder);
        assert!(order.is_empty());
        assert_eq!(len, 0.0);
        let (order, len) = plan_tour(Point::ORIGIN, &[Point::new(3.0, 4.0)], &mut NullRecorder);
        assert_eq!(order, vec![0]);
        assert!((len - 5.0).abs() < 1e-12);
    }

    #[test]
    fn collinear_points_are_visited_in_order() {
        let pts: Vec<Point> = (1..=5).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
        let (order, len) = plan_tour(Point::ORIGIN, &pts, &mut NullRecorder);
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!((len - 50.0).abs() < 1e-9);
    }
}
