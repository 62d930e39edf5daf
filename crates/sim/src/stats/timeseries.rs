//! Bucketed time-series accumulation.
//!
//! Fig. 6 of the paper plots "total number of update messages transmitted
//! every 100 epochs" over a 20 000-epoch run; [`TimeSeries`] is exactly that
//! data structure: values are accumulated into fixed-width epoch buckets.

/// Accumulates `f64` contributions into fixed-width epoch buckets.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bucket_width: u64,
    sums: Vec<f64>,
    counts: Vec<u64>,
}

impl TimeSeries {
    /// Create a series whose buckets span `bucket_width` epochs each.
    ///
    /// # Panics
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: u64) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        TimeSeries { bucket_width, sums: Vec::new(), counts: Vec::new() }
    }

    /// Bucket width in epochs.
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// Add `value` to the bucket containing `epoch`.
    pub fn record(&mut self, epoch: u64, value: f64) {
        let idx = (epoch / self.bucket_width) as usize;
        if idx >= self.sums.len() {
            self.sums.resize(idx + 1, 0.0);
            self.counts.resize(idx + 1, 0);
        }
        self.sums[idx] += value;
        self.counts[idx] += 1;
    }

    /// Convenience: add 1.0 to the bucket containing `epoch` (event
    /// counting).
    pub fn record_event(&mut self, epoch: u64) {
        self.record(epoch, 1.0);
    }

    /// Number of materialised buckets (trailing empty buckets may be absent).
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Sum accumulated in bucket `idx` (0.0 for out-of-range buckets).
    pub fn sum(&self, idx: usize) -> f64 {
        self.sums.get(idx).copied().unwrap_or(0.0)
    }

    /// Number of contributions in bucket `idx`.
    pub fn count(&self, idx: usize) -> u64 {
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// Mean contribution in bucket `idx`, or `None` if the bucket is empty.
    pub fn mean(&self, idx: usize) -> Option<f64> {
        let c = self.count(idx);
        (c > 0).then(|| self.sum(idx) / c as f64)
    }

    /// Total across all buckets.
    pub fn total(&self) -> f64 {
        self.sums.iter().sum()
    }

    /// Write the full series state to `w`.
    pub fn snap(&self, w: &mut crate::snap::SnapWriter<impl crate::snap::SnapSink>) {
        w.u64(self.bucket_width);
        w.f64s(&self.sums);
        w.u64s(&self.counts);
    }

    /// Rebuild from a [`TimeSeries::snap`] record.
    pub fn unsnap(r: &mut crate::snap::SnapReader<'_>) -> Result<Self, crate::snap::SnapError> {
        let pos = r.position();
        let bucket_width = r.u64()?;
        if bucket_width == 0 {
            return Err(crate::snap::SnapError::Malformed { pos, what: "zero bucket width" });
        }
        let sums = r.f64s()?;
        let counts = r.counts()?;
        if sums.len() != counts.len() {
            return Err(crate::snap::SnapError::Malformed {
                pos,
                what: "sum/count bucket mismatch",
            });
        }
        Ok(TimeSeries { bucket_width, sums, counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fall_into_expected_buckets() {
        let mut ts = TimeSeries::new(100);
        ts.record_event(0);
        ts.record_event(99);
        ts.record_event(100);
        ts.record_event(250);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.sum(0), 2.0);
        assert_eq!(ts.sum(1), 1.0);
        assert_eq!(ts.sum(2), 1.0);
        assert_eq!(ts.total(), 4.0);
    }

    #[test]
    fn values_accumulate_and_average() {
        let mut ts = TimeSeries::new(10);
        ts.record(5, 2.0);
        ts.record(7, 4.0);
        assert_eq!(ts.sum(0), 6.0);
        assert_eq!(ts.count(0), 2);
        assert_eq!(ts.mean(0), Some(3.0));
        assert_eq!(ts.mean(1), None);
    }

    #[test]
    fn sparse_recording_pads_intermediate_buckets() {
        let mut ts = TimeSeries::new(10);
        ts.record_event(95);
        assert_eq!(ts.len(), 10);
        for i in 0..9 {
            assert_eq!(ts.sum(i), 0.0);
        }
        assert_eq!(ts.sum(9), 1.0);
    }

    #[test]
    fn out_of_range_queries_are_zero() {
        let ts = TimeSeries::new(10);
        assert!(ts.is_empty());
        assert_eq!(ts.sum(3), 0.0);
        assert_eq!(ts.count(3), 0);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_width_rejected() {
        let _ = TimeSeries::new(0);
    }
}
