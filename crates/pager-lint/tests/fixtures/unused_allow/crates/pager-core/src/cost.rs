//! Seeded dead suppression. This doc shows the syntax,
//! `// lint:allow(no-float-eq): reason`, and holds no marker.

pub fn is_zero(x: f64) -> bool {
    // lint:allow(no-float-eq): exact zero sentinel
    x == 0.0
}

pub fn total(xs: &[f64]) -> f64 {
    // lint:allow(no-float-eq): the comparison this excused is gone
    xs.iter().sum()
}
