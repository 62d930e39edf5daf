//! Snapshot and restore of the engine's dynamic state.

use dirq_sim::{ByteCount, Fnv, SnapError, SnapReader, SnapSink, SnapWriter};

use crate::flooding::SeenQueries;
use crate::messages::DirqMessage;
use crate::metrics::Metrics;

use super::{Engine, Protocol};

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
    pub fn snapshot_into(&self, w: &mut SnapWriter<impl SnapSink>) {
        w.tag(b"ENGN");
        w.u64(self.epoch);
        self.mac.snap(w, |w, p: &DirqMessage| p.snap(w));
        self.world.snap(w);
        w.len_of(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            node.snap(w, self.plane.row(i));
        }
        // DirQ builds no flooding lists; its image holds an empty one per
        // node.
        let empty = SeenQueries::default();
        for i in 0..self.nodes.len() {
            self.flood.get(i).unwrap_or(&empty).snap(w);
        }
        // The MAC owns liveness; the engine's section repeats it.
        w.len_of(self.nodes.len());
        for v in self.mac.topology().nodes() {
            w.bool(self.mac.is_alive(v));
        }
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
        w.bool(self.plane.samplers.is_some());
        for row in self.plane.samplers.iter().flat_map(|s| s.chunks(self.plane.width)) {
            w.len_of(row.len());
            row.iter().for_each(|s| s.snap(w));
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
    ///
    /// An image is [`SnapError::Malformed`] where its sections disagree on
    /// what a step leaves behind: the MAC at slot 0 of frame `epoch`, the
    /// world at epoch `epoch − 1` (0 before the second step), and the
    /// engine's liveness section equal to the MAC's. So is one whose copy
    /// of a fact disagrees with the fact's owner: a queued `Update` or
    /// `Retract` of a type outside the catalog, and an EWMA off its
    /// configured smoothing factor. Under DirQ, which builds no flooding
    /// state, so is a non-empty flooding seen list or a queued
    /// `FloodQuery`.
    pub fn restore(&mut self, body: &[u8]) -> Result<(), SnapError> {
        let n = self.mac.topology().len();
        let width = self.plane.width;
        let dirq = self.cfg.protocol == Protocol::Dirq;
        self.tree_version += 1;
        let mut r = SnapReader::new(body);
        r.tag(b"ENGN")?;
        self.epoch = r.count()?;
        let mac_at = r.position();
        self.mac.restore(&mut r, |r| {
            let (pos, msg) = (r.position(), DirqMessage::unsnap(r)?);
            match msg {
                DirqMessage::Update { stype, .. } | DirqMessage::Retract { stype }
                    if stype.index() >= width =>
                {
                    Err(SnapError::Malformed { pos, what: "update type outside the catalog" })
                }
                DirqMessage::FloodQuery(_) if dirq => {
                    Err(SnapError::Malformed { pos, what: "flooding query queued under DirQ" })
                }
                _ => Ok(msg),
            }
        })?;
        self.world.restore(&mut r)?;
        if self.mac.now() != (self.epoch, 0) || self.world.epoch() != self.epoch.saturating_sub(1) {
            return Err(SnapError::Malformed { pos: mac_at, what: "section clocks disagree" });
        }
        let pos = r.position();
        if r.seq_len(1)? != n {
            return Err(SnapError::Malformed { pos, what: "engine node count mismatch" });
        }
        let masks = self.world.assignment().masks();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.restore(&mut r, self.plane.row_mut(i), masks[i], n)?;
        }
        let mut unused = SeenQueries::default();
        for i in 0..n {
            let pos = r.position();
            let seen = self.flood.get_mut(i).unwrap_or(&mut unused);
            seen.restore(&mut r)?;
            if dirq && seen.len() > 0 {
                return Err(SnapError::Malformed { pos, what: "flooding seen list under DirQ" });
            }
        }
        let pos = r.position();
        if !r.bools()?.into_iter().eq(self.mac.topology().nodes().map(|v| self.mac.is_alive(v))) {
            return Err(SnapError::Malformed { pos, what: "liveness disagrees with the MAC's" });
        }
        self.qgen.restore(&mut r)?;
        self.pending.restore(&mut r, n, self.qgen.next_id())?;
        let pos = r.position();
        let metrics = Metrics::unsnap(&mut r)?;
        if metrics.measure_from_epoch != self.cfg.measure_from_epoch {
            return Err(SnapError::Malformed { pos, what: "measurement window mismatch" });
        }
        self.metrics = metrics;
        self.mac_rng = r.rng()?;
        self.cqd_estimate.restore(&mut r)?;
        self.budget_multiplier = r.f64()?;
        self.updates_at_last_ehr = r.f64()?;
        for d in &mut self.detached_since {
            *d = r.opt_u64()?;
        }
        let pos = r.position();
        if r.bool()? != self.plane.samplers.is_some() {
            return Err(SnapError::Malformed {
                pos,
                what: "sampler presence disagrees with the sampling strategy",
            });
        }
        if let Some(samplers) = &mut self.plane.samplers {
            for row in samplers.chunks_mut(width) {
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
    /// fingerprints are byte-for-byte the same dynamic state). Equal to
    /// [`Engine::body_fingerprint`] of [`Engine::snapshot`], without
    /// holding the body: one pass through the encoder counts its bytes,
    /// since the hash takes the length first, and a second hashes them.
    pub fn state_fingerprint(&self) -> u64 {
        let mut counter = SnapWriter::with_sink(ByteCount::default());
        self.snapshot_into(&mut counter);
        let ByteCount(len) = counter.into_sink();
        let mut hasher = SnapWriter::with_sink(body_hash_head(len));
        self.snapshot_into(&mut hasher);
        body_hash_tail(hasher.into_sink(), len)
    }

    /// [`Engine::state_fingerprint`] of the engine that wrote `body` with
    /// [`Engine::snapshot`], for a caller that already holds the body.
    pub fn body_fingerprint(body: &[u8]) -> u64 {
        let mut h = body_hash_head(body.len());
        h.bytes(body);
        body_hash_tail(h, body.len())
    }
}

/// A body fingerprint's hash before the body: FNV-1a over the body's
/// length as 8 little-endian bytes.
fn body_hash_head(len: usize) -> Fnv {
    let mut h = Fnv::new();
    h.u64(len as u64);
    h
}

/// A body fingerprint from `h`, the hash through the `len` body bytes: the
/// zero bytes that complete one more 8-byte word (eight when `len` is a
/// multiple of 8) end it.
fn body_hash_tail(mut h: Fnv, len: usize) -> u64 {
    h.bytes(&[0; 8][len % 8..]);
    h.finish()
}
