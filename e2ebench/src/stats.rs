//! Order statistics over latency samples.

/// Latency samples in milliseconds, sorted on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest rank), 0 for an empty set.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.sort();
        let n = self.values.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.values[rank.clamp(1, n) - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }
}

/// Median of a small slice of repeated measurements.
pub fn median_of(values: &[f64]) -> f64 {
    let mut samples = Samples::default();
    for &v in values {
        samples.push(v);
    }
    samples.median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::default();
        for i in (1..=40).rev() {
            s.push(i as f64);
        }
        assert_eq!(s.median(), 20.0);
        assert_eq!(s.percentile(75.0), 30.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
