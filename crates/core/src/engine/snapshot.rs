//! Snapshot and restore of the engine's dynamic state.

use dirq_sim::{ByteCount, Fnv, SnapError, SnapReader, SnapSink, SnapWriter};

use crate::atc::{restore_delta, DeltaPolicy};
use crate::messages::DirqMessage;
use crate::sampling::SamplingStrategy;

use super::{Engine, Protocol};

impl Engine {
    /// Serialize the engine's full dynamic state to a snapshot body.
    ///
    /// Static structure — topology, tree construction, churn plan, world
    /// fields, node configuration, worker counts — is rebuilt
    /// deterministically by [`Engine::new`] from the same
    /// [`ScenarioConfig`](super::ScenarioConfig), so only the state that
    /// evolves per epoch is captured, each fact once, in this order:
    ///
    /// 1. `ENGN` and the config record: the protocol, the δ policy (a
    ///    fixed δ, or none under ATC), the sampling strategy and the
    ///    measurement window, the config values [`Engine::restore`]
    ///    checks;
    /// 2. the epoch;
    /// 3. the MAC (`LMAC`, with in-flight frames and liveness);
    /// 4. the world (`WRLD`: the assignment, the AR(1) processes, their
    ///    RNGs and the readings);
    /// 5. one `NODE` record per node: tree links, range tables, δ and the
    ///    ATC record under ATC only, the sensing row and the node's
    ///    seen-query list (DirQ's duplicate memory, or flooding's
    ///    rebroadcast memory);
    /// 6. the query generator (`QGEN`), the pending set (`PEND`) and the
    ///    metrics (`METR`);
    /// 7. the MAC's RNG; the root's control loop (the cost estimate, the
    ///    budget multiplier, the update count at the last EHr) and the
    ///    detachment epochs; then the predictive samplers (none under
    ///    every-epoch sampling), Umax, the δ trace and the injection count.
    ///
    /// The body leaves to the config the catalog's width (every row's
    /// length), a fixed-δ node's δ, which nodes carry an ATC controller,
    /// whether samplers exist and each outcome's network size; and to the
    /// code each EWMA's smoothing factor and the update series' bucket
    /// width. A fact another section holds is not repeated: liveness is
    /// the MAC's, a query's involved count its flags', an outcome's
    /// wrongly-reached count its received minus its received-should.
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
        w.bool(self.cfg.protocol == Protocol::Flooding);
        w.opt_f64(fixed_delta(self.cfg.delta_policy));
        w.bool(self.cfg.sampling == SamplingStrategy::Predictive);
        w.u64(self.cfg.measure_from_epoch);
        w.u64(self.epoch);
        self.mac.snap(w, |w, p: &DirqMessage| p.snap(w));
        self.world.snap(w);
        w.len_of(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            node.snap(w, self.plane.row(i));
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
        for s in self.plane.samplers.iter().flatten() {
            s.snap(w);
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
    /// scheme). The config record is checked against this engine's config:
    /// another protocol, δ policy, fixed δ, sampling strategy or
    /// measurement window is [`SnapError::Malformed`]. Beyond it the body
    /// carries no static structure to check against, only counts. On
    /// success the engine continues from the captured epoch exactly as the
    /// snapshotted one would have.
    ///
    /// An image is also [`SnapError::Malformed`] where its sections
    /// disagree on what a step leaves behind: the MAC at slot 0 of frame
    /// `epoch` and the world at epoch `epoch − 1` (0 before the second
    /// step). So is a queued `Update` or `Retract` of a type outside the
    /// catalog, a queued `FloodQuery` under DirQ, and a root control loop
    /// no step leaves: a budget multiplier outside the `[0.05, 10]` its
    /// updates clamp it to (or NaN), an update count at the last EHr that
    /// is negative, not finite or above the restored update series' total,
    /// and a Umax that is negative or not finite. So is an epoch stamp no
    /// step writes: a step stamps its own epoch, below the image's, so a
    /// node's detachment epoch and each δ-trace epoch lie below it, the
    /// δ-trace epochs strictly ascending; a trace value, a mean of δs, is
    /// finite and non-negative. (The pending set and the metrics check
    /// their own inject epochs.)
    pub fn restore(&mut self, body: &[u8]) -> Result<(), SnapError> {
        let n = self.mac.topology().len();
        let width = self.plane.width;
        let dirq = self.cfg.protocol == Protocol::Dirq;
        self.tree_version += 1;
        let mut r = SnapReader::new(body);
        r.tag(b"ENGN")?;
        self.restore_config(&mut r)?;
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
        self.qgen.restore(&mut r)?;
        self.pending.restore(&mut r, n, self.qgen.next_id(), self.epoch)?;
        self.metrics.restore(&mut r, n, self.epoch)?;
        self.mac_rng = r.rng()?;
        self.cqd_estimate.restore(&mut r)?;
        let malformed = |pos, what| Err(SnapError::Malformed { pos, what });
        let pos = r.position();
        self.budget_multiplier = r.f64()?;
        if !(0.05..=10.0).contains(&self.budget_multiplier) {
            return malformed(pos, "budget multiplier outside [0.05, 10]");
        }
        let pos = r.position();
        self.updates_at_last_ehr = r.f64()?;
        let total = self.metrics.updates_per_bucket.total();
        if !(self.updates_at_last_ehr.is_finite()
            && (0.0..=total).contains(&self.updates_at_last_ehr))
        {
            return malformed(pos, "update count at the last EHr out of range");
        }
        for d in &mut self.detached_since {
            let pos = r.position();
            *d = r.opt_u64()?;
            if d.is_some_and(|since| since >= self.epoch) {
                return malformed(pos, "detachment at or after the image's epoch");
            }
        }
        for s in self.plane.samplers.iter_mut().flatten() {
            s.restore(&mut r)?;
        }
        let pos = r.position();
        self.u_max_per_hour = r.f64()?;
        if !(self.u_max_per_hour.is_finite() && self.u_max_per_hour >= 0.0) {
            return malformed(pos, "Umax negative or not finite");
        }
        let traces = r.seq_len(16)?;
        self.delta_trace = Vec::with_capacity(traces);
        for _ in 0..traces {
            let pos = r.position();
            let (at, delta) = (r.u64()?, r.f64()?);
            let after = self.delta_trace.last().map_or(0, |&(last, _)| last + 1);
            if !(after..self.epoch).contains(&at) {
                return malformed(pos, "delta trace epochs not ascending below the image's epoch");
            }
            if !(delta.is_finite() && delta >= 0.0) {
                return malformed(pos, "delta trace value negative or not finite");
            }
            self.delta_trace.push((at, delta));
        }
        self.queries_injected = r.count()? as usize;
        r.expect_eof()
    }

    /// Check the config record [`Engine::snapshot_into`] writes at the head
    /// of the body against this engine's config.
    fn restore_config(&self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let malformed = |pos, what| Err(SnapError::Malformed { pos, what });
        let pos = r.position();
        if r.bool()? != (self.cfg.protocol == Protocol::Flooding) {
            return malformed(pos, "protocol mismatch");
        }
        let (pos, fixed) = (r.position(), fixed_delta(self.cfg.delta_policy));
        if r.bool()? != fixed.is_some() {
            return malformed(pos, "ATC presence disagrees with the threshold policy");
        }
        if let Some(delta) = fixed {
            let pos = r.position();
            if restore_delta(r)?.to_bits() != delta.to_bits() {
                return malformed(pos, "fixed delta off its policy");
            }
        }
        let pos = r.position();
        if r.bool()? != (self.cfg.sampling == SamplingStrategy::Predictive) {
            return malformed(pos, "sampler presence disagrees with the sampling strategy");
        }
        let pos = r.position();
        if r.u64()? != self.cfg.measure_from_epoch {
            return malformed(pos, "measurement window mismatch");
        }
        Ok(())
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

/// The δ every node keeps under `policy`, if it is fixed.
fn fixed_delta(policy: DeltaPolicy) -> Option<f64> {
    match policy {
        DeltaPolicy::Fixed(delta) => Some(delta),
        DeltaPolicy::Adaptive => None,
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
