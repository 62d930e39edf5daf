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

    /// Write the buckets' sums and counts to `w`. The bucket width is its
    /// owner's constant, so the record leaves it out.
    pub fn snap(&self, w: &mut crate::snap::SnapWriter<impl crate::snap::SnapSink>) {
        w.f64s(&self.sums);
        w.u64s(&self.counts);
    }

    /// Overlay a [`TimeSeries::snap`] record onto this series, built with
    /// its owner's bucket width. A sum that is not finite is malformed:
    /// [`TimeSeries::total`] would read NaN or infinite for good.
    pub fn restore(
        &mut self,
        r: &mut crate::snap::SnapReader<'_>,
    ) -> Result<(), crate::snap::SnapError> {
        let pos = r.position();
        let sums = r.f64s()?;
        let counts = r.counts()?;
        let malformed = |what| Err(crate::snap::SnapError::Malformed { pos, what });
        if sums.len() != counts.len() {
            return malformed("sum/count bucket mismatch");
        }
        if !sums.iter().all(|s| s.is_finite()) {
            return malformed("series sum not finite");
        }
        (self.sums, self.counts) = (sums, counts);
        Ok(())
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

    use crate::snap::{SnapError, SnapReader, SnapWriter};

    #[test]
    fn restore_overlays_the_buckets() {
        let mut ts = TimeSeries::new(10);
        ts.record(5, 2.0);
        ts.record(27, 4.5);
        let mut w = SnapWriter::new();
        ts.snap(&mut w);
        let image = w.finish();
        let mut restored = TimeSeries::new(10);
        restored.restore(&mut SnapReader::new(&image)).expect("own image");
        assert_eq!((restored.len(), restored.total(), restored.count(2)), (3, 6.5, 1));
    }

    /// A sum that is not finite would make the total NaN or infinite for
    /// good; restore rejects it.
    #[test]
    fn restore_rejects_a_sum_that_is_not_finite() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut w = SnapWriter::new();
            w.f64s(&[1.0, bad]);
            w.u64s(&[1, 1]);
            let image = w.finish();
            assert_eq!(
                TimeSeries::new(10).restore(&mut SnapReader::new(&image)).unwrap_err(),
                SnapError::Malformed { pos: 0, what: "series sum not finite" },
                "a sum of {bad}"
            );
        }
    }
}
