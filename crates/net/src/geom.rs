//! 2-D geometry: points, distances and rectangular field regions.

use serde::{Deserialize, Serialize};

/// A point in the 2-D deployment field, metres.
///
/// # Example
///
/// ```
/// use wrsn_net::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point {
    /// X coordinate, metres.
    pub x: f64,
    /// Y coordinate, metres.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point at `(x, y)`.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`, metres.
    pub fn distance(&self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Squared Euclidean distance to `other` (cheaper; use for comparisons).
    pub fn distance_sq(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint of the segment to `other`.
    fn midpoint(&self, other: Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }

    /// A point `frac` of the way from `self` to `other` (`0` = self, `1` =
    /// other); values outside `[0, 1]` extrapolate.
    pub fn lerp(&self, other: Point, frac: f64) -> Point {
        Point::new(
            self.x + frac * (other.x - self.x),
            self.y + frac * (other.y - self.y),
        )
    }

    /// The point at distance `offset` from `self` along the direction to
    /// `toward`; if the two points coincide, returns `self`.
    pub fn toward(&self, toward: Point, offset: f64) -> Point {
        let d = self.distance(toward);
        if d == 0.0 {
            *self
        } else {
            self.lerp(toward, offset / d)
        }
    }

    /// Conversion to a raw `(x, y)` tuple (used by the physics layer).
    pub fn into_tuple(self) -> (f64, f64) {
        (self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> (f64, f64) {
        (p.x, p.y)
    }
}

/// Total length of the polyline through `points`, metres.
pub fn path_length(points: &[Point]) -> f64 {
    points.windows(2).map(|w| w[0].distance(w[1])).sum()
}

/// An axis-aligned rectangular deployment field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Region {
    min: Point,
    max: Point,
}

impl Region {
    /// Creates a region spanning `[x0, x1] × [y0, y1]`.
    ///
    /// # Panics
    ///
    /// Panics if the rectangle is inverted or degenerate (`x1 ≤ x0` or
    /// `y1 ≤ y0`) or any bound is non-finite.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        assert!(
            x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite(),
            "region bounds must be finite"
        );
        assert!(x1 > x0 && y1 > y0, "region must have positive area");
        Region {
            min: Point::new(x0, y0),
            max: Point::new(x1, y1),
        }
    }

    /// A `side × side` square with its corner at the origin.
    pub fn square(side: f64) -> Self {
        Region::new(0.0, 0.0, side, side)
    }

    /// Lower-left corner.
    pub fn min(&self) -> Point {
        self.min
    }

    /// Upper-right corner.
    pub fn max(&self) -> Point {
        self.max
    }

    /// Width, metres.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height, metres.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area, square metres.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// The centre of the region.
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// Whether `p` lies inside (inclusive of the boundary).
    pub fn contains(&self, p: Point) -> bool {
        (self.min.x..=self.max.x).contains(&p.x) && (self.min.y..=self.max.y).contains(&p.y)
    }

    /// Clamps `p` to the region.
    pub fn clamp(&self, p: Point) -> Point {
        Point::new(
            p.x.clamp(self.min.x, self.max.x),
            p.y.clamp(self.min.y, self.max.y),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_sq_matches_distance() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert!((a.distance_sq(b) - a.distance(b).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert_eq!(a.midpoint(b), a.lerp(b, 0.5));
    }

    #[test]
    fn toward_moves_exact_offset() {
        let a = Point::ORIGIN;
        let b = Point::new(10.0, 0.0);
        let c = a.toward(b, 3.0);
        assert!((c.x - 3.0).abs() < 1e-12 && c.y.abs() < 1e-12);
    }

    #[test]
    fn toward_same_point_is_identity() {
        let a = Point::new(2.0, 2.0);
        assert_eq!(a.toward(a, 5.0), a);
    }

    #[test]
    fn path_length_of_triangle() {
        let pts = [Point::ORIGIN, Point::new(3.0, 0.0), Point::new(3.0, 4.0)];
        assert!((path_length(&pts) - 7.0).abs() < 1e-12);
        assert_eq!(path_length(&pts[..1]), 0.0);
        assert_eq!(path_length(&[]), 0.0);
    }

    #[test]
    fn region_contains_and_clamp() {
        let r = Region::square(10.0);
        assert!(r.contains(Point::new(0.0, 10.0)));
        assert!(!r.contains(Point::new(-0.1, 5.0)));
        assert_eq!(r.clamp(Point::new(-5.0, 12.0)), Point::new(0.0, 10.0));
    }

    #[test]
    fn region_geometry() {
        let r = Region::new(1.0, 2.0, 4.0, 8.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 6.0);
        assert_eq!(r.area(), 18.0);
        assert_eq!(r.center(), Point::new(2.5, 5.0));
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn inverted_region_panics() {
        let _ = Region::new(5.0, 0.0, 1.0, 1.0);
    }
}
