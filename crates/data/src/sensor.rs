//! Sensor types, catalog and heterogeneous assignment.
//!
//! The paper stresses two points this module encodes: networks are
//! **heterogeneous** ("different nodes can possess a different combination
//! of sensors" — unlike TinyDB), and new sensor types can be added **after
//! deployment** without global reconfiguration.

use dirq_sim::SimRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Identifier of a sensor type (index into the [`SensorCatalog`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorType(pub u8);

impl SensorType {
    /// This type as an array index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for SensorType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Descriptive metadata for one sensor type.
#[derive(Clone, Debug)]
pub struct SensorDescriptor {
    /// Human-readable name ("temperature").
    pub name: String,
    /// Unit string ("°C").
    pub unit: String,
}

/// Registry of sensor types. Types can be registered at any time — the
/// paper's post-deployment extensibility.
#[derive(Clone, Debug, Default)]
pub struct SensorCatalog {
    descriptors: Vec<SensorDescriptor>,
}

impl SensorCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        SensorCatalog::default()
    }

    /// The paper's four-type environmental-monitoring catalog.
    pub fn environmental() -> Self {
        let mut c = SensorCatalog::new();
        c.register("temperature", "°C");
        c.register("humidity", "%RH");
        c.register("light", "lux");
        c.register("co2", "ppm");
        c
    }

    /// Register a new sensor type; returns its id.
    pub fn register(&mut self, name: &str, unit: &str) -> SensorType {
        assert!(self.descriptors.len() < 256, "catalog full (u8 ids)");
        assert!(
            self.descriptors.iter().all(|d| d.name != name),
            "sensor type {name:?} already registered"
        );
        let id = SensorType(self.descriptors.len() as u8);
        self.descriptors.push(SensorDescriptor { name: name.to_owned(), unit: unit.to_owned() });
        id
    }

    /// Metadata of `t`.
    pub fn descriptor(&self, t: SensorType) -> &SensorDescriptor {
        &self.descriptors[t.index()]
    }

    /// Look a type up by name.
    pub fn by_name(&self, name: &str) -> Option<SensorType> {
        self.descriptors.iter().position(|d| d.name == name).map(|i| SensorType(i as u8))
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.descriptors.len()
    }

    /// Whether no types are registered.
    pub fn is_empty(&self) -> bool {
        self.descriptors.is_empty()
    }

    /// Iterator over all type ids.
    pub fn types(&self) -> impl Iterator<Item = SensorType> {
        (0..self.descriptors.len()).map(|i| SensorType(i as u8))
    }
}

/// Which sensors each node carries: one bitmask per node, bit
/// `t.index()` set when the node carries `t`, over the catalog of at most
/// 64 types the assignment was built for.
#[derive(Clone, Debug)]
pub struct SensorAssignment {
    masks: Vec<u64>,
    /// Types in that catalog.
    width: usize,
}

/// `t`'s bit in a carried-type mask (0 past the 64 representable types).
fn bit(t: SensorType) -> u64 {
    1u64.checked_shl(u32::from(t.0)).unwrap_or(0)
}

impl SensorAssignment {
    /// Every node carries every type (TinyDB-style homogeneous network).
    pub fn homogeneous(n_nodes: usize, n_types: usize) -> Self {
        assert!(n_types <= 64, "carried-type masks cover at most 64 sensor types");
        let all = u64::MAX.checked_shr(64 - n_types as u32).unwrap_or(0);
        SensorAssignment { masks: vec![all; n_nodes], width: n_types }
    }

    /// Heterogeneous assignment: each type is carried by a random subset of
    /// nodes with the given `coverage` fraction (at least one node per
    /// type). The root (node 0) carries no sensors — it is the gateway.
    pub fn heterogeneous(n_nodes: usize, n_types: usize, coverage: f64, rng: &mut SimRng) -> Self {
        assert!(n_nodes >= 2, "need at least the root and one sensing node");
        assert!((0.0..=1.0).contains(&coverage), "coverage must be a fraction");
        assert!(n_types <= 64, "carried-type masks cover at most 64 sensor types");
        let mut masks = vec![0u64; n_nodes];
        let candidates: Vec<usize> = (1..n_nodes).collect();
        for t in 0..n_types {
            let count = ((candidates.len() as f64 * coverage).round() as usize).max(1);
            let mut chosen = candidates.clone();
            chosen.shuffle(rng);
            for &node in chosen.iter().take(count) {
                masks[node] |= 1 << t;
            }
        }
        // Every sensing node should carry at least one type, so no node is
        // permanently silent in the experiments.
        for mask in masks.iter_mut().skip(1) {
            if *mask == 0 {
                *mask = 1 << rng.gen_range(0..n_types);
            }
        }
        SensorAssignment { masks, width: n_types }
    }

    /// Whether `node` carries `t`.
    #[inline]
    pub fn has(&self, node: usize, t: SensorType) -> bool {
        self.masks[node] & bit(t) != 0
    }

    /// Every node's carried types as a bitmask (bit `t.index()`), for hot
    /// loops that test several types per node.
    #[inline]
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// Types in the catalog the assignment was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Add a sensor to a node at runtime (post-deployment extension).
    ///
    /// # Panics
    /// Panics when `t` is outside the catalog the assignment was built
    /// for: no world draws readings of such a type.
    pub fn add(&mut self, node: usize, t: SensorType) {
        self.masks[node] |= self.bit_in_catalog(t);
    }

    /// Remove a sensor from a node.
    ///
    /// # Panics
    /// Panics when `t` is outside the catalog, as [`SensorAssignment::add`]
    /// does.
    pub fn remove(&mut self, node: usize, t: SensorType) {
        self.masks[node] &= !self.bit_in_catalog(t);
    }

    fn bit_in_catalog(&self, t: SensorType) -> u64 {
        assert!(
            t.index() < self.width,
            "sensor type {t} is outside the {}-type catalog",
            self.width
        );
        bit(t)
    }

    /// Write the carried-sensor matrix to `w`: per node, one flag per
    /// catalog type (the catalog's width is the reader's own).
    pub fn snap(&self, w: &mut dirq_sim::SnapWriter<impl dirq_sim::SnapSink>) {
        w.tag(b"ASGN");
        w.len_of(self.masks.len());
        for &mask in &self.masks {
            for t in 0..self.width {
                w.bool((mask >> t) & 1 == 1);
            }
        }
    }

    /// Overlay a matrix captured by [`SensorAssignment::snap`]; the node
    /// count must match.
    pub fn restore(&mut self, r: &mut dirq_sim::SnapReader<'_>) -> Result<(), dirq_sim::SnapError> {
        r.tag(b"ASGN")?;
        let pos = r.position();
        let n = r.seq_len(self.width)?;
        if n != self.masks.len() {
            return Err(dirq_sim::SnapError::Malformed {
                pos,
                what: "assignment node count mismatch",
            });
        }
        for mask in &mut self.masks {
            *mask = (0..self.width).try_fold(0, |m, t| Ok(m | (u64::from(r.bool()?) << t)))?;
        }
        Ok(())
    }

    /// Nodes carrying `t`.
    pub fn carriers(&self, t: SensorType) -> Vec<usize> {
        (0..self.masks.len()).filter(|&n| self.has(n, t)).collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirq_sim::RngFactory;

    #[test]
    fn environmental_catalog_has_four_types() {
        let c = SensorCatalog::environmental();
        assert_eq!(c.len(), 4);
        assert_eq!(c.by_name("temperature"), Some(SensorType(0)));
        assert_eq!(c.descriptor(SensorType(2)).name, "light");
        assert_eq!(c.by_name("missing"), None);
    }

    #[test]
    fn registration_appends_and_rejects_duplicates() {
        let mut c = SensorCatalog::environmental();
        let t = c.register("soil_moisture", "%");
        assert_eq!(t, SensorType(4));
        assert_eq!(c.len(), 5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_name_rejected() {
        let mut c = SensorCatalog::environmental();
        c.register("temperature", "K");
    }

    #[test]
    fn homogeneous_assignment() {
        let a = SensorAssignment::homogeneous(5, 3);
        for n in 0..5 {
            for t in 0..3u8 {
                assert!(a.has(n, SensorType(t)));
            }
        }
    }

    #[test]
    fn heterogeneous_assignment_properties() {
        let mut rng = RngFactory::new(8).stream("assign");
        let a = SensorAssignment::heterogeneous(50, 4, 0.5, &mut rng);
        // Root carries nothing.
        for t in 0..4u8 {
            assert!(!a.has(0, SensorType(t)), "root must carry no sensors");
            let carriers = a.carriers(SensorType(t));
            assert!(!carriers.is_empty(), "every type needs a carrier");
            // Coverage should be near 50% of the 49 sensing nodes.
            assert!((15..=35).contains(&carriers.len()), "carriers: {}", carriers.len());
        }
        // Every sensing node has at least one sensor.
        for n in 1..50 {
            assert!((0..4u8).any(|t| a.has(n, SensorType(t))), "node {n} has no sensors");
        }
    }

    #[test]
    fn runtime_add_remove() {
        let mut rng = RngFactory::new(9).stream("assign2");
        let mut a = SensorAssignment::heterogeneous(10, 2, 0.5, &mut rng);
        let (node, t) = (1..10)
            .flat_map(|n| (0..2u8).map(move |t| (n, SensorType(t))))
            .find(|&(n, t)| !a.has(n, t))
            .expect("some node lacks a type");
        a.add(node, t);
        assert!(a.has(node, t));
        a.remove(node, t);
        assert!(!a.has(node, t));
    }

    #[test]
    #[should_panic(expected = "outside the 2-type catalog")]
    fn adding_a_type_outside_the_catalog_panics() {
        let mut a = SensorAssignment::homogeneous(3, 2);
        a.add(1, SensorType(5));
    }
}
