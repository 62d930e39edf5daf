//! Energy accounting.
//!
//! The paper's analytical and simulated comparisons use a unit cost model:
//! one unit per transmission, one unit per reception (Section 5). The
//! ledger keeps per-node tallies; its totals saturate, so a restored image
//! whose tallies sit at the counter bound cannot overflow them.

use crate::ids::NodeId;
use dirq_sim::snap::{SnapError, SnapReader, SnapSink, SnapWriter};

/// Per-node transmission/reception tallies under a unit cost model.
#[derive(Clone, Debug)]
pub struct EnergyLedger {
    tx: Vec<u64>,
    rx: Vec<u64>,
}

impl EnergyLedger {
    /// Ledger for `n` nodes.
    pub fn new(n: usize) -> Self {
        EnergyLedger { tx: vec![0; n], rx: vec![0; n] }
    }

    /// Heap bytes held: the two tally arrays' capacities.
    pub fn heap_bytes(&self) -> usize {
        (self.tx.capacity() + self.rx.capacity()) * std::mem::size_of::<u64>()
    }

    /// Record one transmission by `node`.
    #[inline]
    pub fn record_tx(&mut self, node: NodeId) {
        self.tx[node.index()] += 1;
    }

    /// Record one reception by `node`.
    #[inline]
    pub fn record_rx(&mut self, node: NodeId) {
        self.rx[node.index()] += 1;
    }

    /// Record `count` receptions by `node`.
    #[inline]
    pub fn record_rx_many(&mut self, node: NodeId, count: u64) {
        self.rx[node.index()] += count;
    }

    /// Receptions by `node`.
    pub fn rx_count(&self, node: NodeId) -> u64 {
        self.rx[node.index()]
    }

    /// Total transmissions across all nodes (saturating).
    pub fn total_tx(&self) -> u64 {
        saturating_sum(&self.tx)
    }

    /// Total receptions across all nodes (saturating).
    pub fn total_rx(&self) -> u64 {
        saturating_sum(&self.rx)
    }

    /// Total cost under the unit model: the paper's `C = CTx + CRx`.
    pub fn total_cost(&self) -> f64 {
        self.total_tx() as f64 + self.total_rx() as f64
    }

    /// Write the per-node tallies to `w`.
    pub fn snap(&self, w: &mut SnapWriter<impl SnapSink>) {
        w.tag(b"ELDG");
        w.u64s(&self.tx);
        w.u64s(&self.rx);
    }

    /// Overlay tallies captured by [`EnergyLedger::snap`] onto this
    /// ledger. The node count must match.
    pub fn restore(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.tag(b"ELDG")?;
        let pos = r.position();
        let tx = r.counts()?;
        let rx = r.counts()?;
        if tx.len() != self.tx.len() || rx.len() != self.rx.len() {
            return Err(SnapError::Malformed { pos, what: "ledger node count mismatch" });
        }
        self.tx = tx;
        self.rx = rx;
        Ok(())
    }
}

/// The sum of `tallies`, saturating at `u64::MAX`.
fn saturating_sum(tallies: &[u64]) -> u64 {
    tallies.iter().fold(0, |sum, &t| sum.saturating_add(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_cost_model_matches_paper() {
        let mut l = EnergyLedger::new(3);
        l.record_tx(NodeId(0));
        l.record_rx(NodeId(1));
        l.record_rx(NodeId(2));
        // One broadcast heard by two neighbours: cost 1 + 2 = 3.
        assert_eq!(l.total_cost(), 3.0);
        assert_eq!(l.total_tx(), 1);
        assert_eq!(l.total_rx(), 2);
    }
}
