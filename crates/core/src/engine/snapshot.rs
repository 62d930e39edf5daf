//! Snapshot and restore of the engine's dynamic state.

use dirq_sim::stats::Ewma;
use dirq_sim::{SnapError, SnapReader, SnapWriter};

use crate::messages::DirqMessage;
use crate::metrics::Metrics;

use super::Engine;

impl Engine {
    /// Serialize the engine's full dynamic state to a snapshot body.
    ///
    /// Static structure — topology, tree construction, churn plan, world
    /// fields, node configuration, worker counts — is rebuilt
    /// deterministically by [`Engine::new`] from the same
    /// [`ScenarioConfig`](super::ScenarioConfig), so only the state that
    /// evolves per epoch is captured: the MAC (with in-flight frames), the
    /// world's stochastic processes and readings, per-node protocol state,
    /// the pending query set, metrics, RNG positions and the root-side
    /// control loop.
    /// [`Engine::restore`] overlays it onto a freshly built engine;
    /// resuming must be bit-identical to never having stopped.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.snapshot_into(&mut w);
        w.finish()
    }

    /// Append the [`Engine::snapshot`] body to `w`, so an image can be
    /// encoded in one buffer (`dirq_sim::snap::encode_image`).
    pub fn snapshot_into(&self, w: &mut SnapWriter) {
        w.tag(b"ENGN");
        w.u64(self.epoch);
        self.mac.snap(w, |w, p: &DirqMessage| p.snap(w));
        self.world.snap(w);
        w.len_of(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            node.snap(w, self.plane.row(i));
        }
        for f in &self.flood {
            f.snap(w);
        }
        w.bools(&self.alive);
        self.qgen.snap(w);
        self.pending.snap(w);
        self.metrics.snap(w);
        w.rng(&self.mac_rng);
        self.cqd_estimate.snap(w);
        w.f64(self.budget_multiplier);
        w.f64(self.updates_at_last_ehr);
        for &d in &self.detached_since {
            w.opt_u64(d);
        }
        w.bool(self.samplers.is_some());
        if let Some(samplers) = &self.samplers {
            for row in samplers {
                w.len_of(row.len());
                for s in row {
                    s.snap(w);
                }
            }
        }
        w.f64(self.u_max_per_hour);
        w.len_of(self.delta_trace.len());
        for &(e, d) in &self.delta_trace {
            w.u64(e);
            w.f64(d);
        }
        w.len_of(self.queries_injected);
    }

    /// Overlay a snapshot body captured by [`Engine::snapshot`] onto this
    /// engine, which must be freshly built from the **same**
    /// [`ScenarioConfig`](super::ScenarioConfig) (same seed, preset and
    /// scheme — the snapshot carries no static structure to check against,
    /// only counts). On success the engine continues from the captured
    /// epoch exactly as the snapshotted one would have.
    pub fn restore(&mut self, body: &[u8]) -> Result<(), SnapError> {
        let n = self.topo.len();
        self.tree_version += 1;
        let mut r = SnapReader::new(body);
        r.tag(b"ENGN")?;
        self.epoch = r.count()?;
        self.mac.restore(&mut r, DirqMessage::unsnap)?;
        self.world.restore(&mut r)?;
        let pos = r.position();
        if r.seq_len(1)? != n {
            return Err(SnapError::Malformed { pos, what: "engine node count mismatch" });
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.restore(&mut r, self.plane.row_mut(i), n)?;
        }
        for f in &mut self.flood {
            f.restore(&mut r)?;
        }
        let pos = r.position();
        let alive = r.bools()?;
        if alive.len() != n {
            return Err(SnapError::Malformed { pos, what: "alive bitmap length mismatch" });
        }
        self.alive = alive;
        self.qgen.restore(&mut r)?;
        self.pending.restore(&mut r, n, self.qgen.next_id())?;
        let pos = r.position();
        let metrics = Metrics::unsnap(&mut r)?;
        if metrics.measure_from_epoch != self.cfg.measure_from_epoch {
            return Err(SnapError::Malformed { pos, what: "measurement window mismatch" });
        }
        self.metrics = metrics;
        self.mac_rng = r.rng()?;
        self.cqd_estimate = Ewma::unsnap(&mut r)?;
        self.budget_multiplier = r.f64()?;
        self.updates_at_last_ehr = r.f64()?;
        for d in &mut self.detached_since {
            *d = r.opt_u64()?;
        }
        let pos = r.position();
        if r.bool()? != self.samplers.is_some() {
            return Err(SnapError::Malformed {
                pos,
                what: "sampler presence disagrees with the sampling strategy",
            });
        }
        if let Some(samplers) = &mut self.samplers {
            for row in samplers {
                let pos = r.position();
                if r.seq_len(1)? != row.len() {
                    return Err(SnapError::Malformed { pos, what: "sampler row length mismatch" });
                }
                for s in row {
                    s.restore(&mut r)?;
                }
            }
        }
        self.u_max_per_hour = r.f64()?;
        let traces = r.seq_len(16)?;
        self.delta_trace =
            (0..traces).map(|_| Ok((r.u64()?, r.f64()?))).collect::<Result<_, SnapError>>()?;
        self.queries_injected = r.count()? as usize;
        r.expect_eof()
    }

    /// Order-sensitive FNV-1a fingerprint over the full snapshot body —
    /// the daemon's cheap state-equality check (two engines with equal
    /// fingerprints are byte-for-byte the same dynamic state).
    pub fn state_fingerprint(&self) -> u64 {
        Engine::body_fingerprint(&self.snapshot())
    }

    /// [`Engine::state_fingerprint`] of the engine that wrote `body` with
    /// [`Engine::snapshot`], for a caller that already holds the body.
    pub fn body_fingerprint(body: &[u8]) -> u64 {
        let mut h = crate::metrics::Fnv::new();
        h.u64(body.len() as u64);
        let mut words = body.chunks_exact(8);
        for c in &mut words {
            h.u64(u64::from_le_bytes(c.try_into().expect("exact 8-byte chunk")));
        }
        let mut last = [0u8; 8];
        last[..words.remainder().len()].copy_from_slice(words.remainder());
        h.u64(u64::from_le_bytes(last));
        h.finish()
    }
}
