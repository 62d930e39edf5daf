//! The engine workload `run_20k`: the stress_20000 preset (200 epochs)
//! as registered, in lifetimes of `Engine::new`, one `step_epoch` per
//! epoch, then `run()`. The run loop dominates.
//!
//! The end-to-end figures are the CPU time of single-worker lifetimes:
//! with every worker knob = 1 the engine runs on the calling thread
//! alone, and that thread's CPU clock leaves out the time the host gives
//! to other work. What the host still takes — busier shared caches and
//! memory — is taken out by scaling to the reference speed
//! ([`crate::refspeed`]). Traced runs step one lifetime at nproc workers and one
//! at one worker, so the wall-clock phase split and the sharding payoff
//! are per-layer metrics.
//!
//! The registered deployment runs whatever `--seed` says, so the
//! fingerprint pin gates every run and every run does the same work.
//!
//! Traced runs also replay `Engine::new`'s construction call for call
//! ([`replay_setup`]) to split set-up time across the layers, and take
//! the run loop's per-phase split from per-step deltas of the engine's
//! `phase_timings()`.

use std::time::Instant;

use dirq::analytic::TopologyCosts;
use dirq::core::{
    ChurnSpec, DirqMessage, Engine, PhaseTimings, RadioSpec, RunResult, ScenarioConfig, TreeKind,
};
use dirq::data::sensor::SensorAssignment;
use dirq::data::{SensorCatalog, SensorWorld, WorldConfig};
use dirq::lmac::LmacNetwork;
use dirq::net::placement::Placement;
use dirq::net::radio::UnitDisk;
use dirq::net::{NodeId, SpanningTree, Topology};
use dirq::sim::RngFactory;

use crate::refspeed::{around, kernel_s, scale};
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{alloc_counters, nproc, thread_cpu_s, Args, Report};

/// `RunResult::stable_fingerprint` of `run_20k` (the stress_20000 preset
/// as registered, 200 epochs). Worker knobs never change it.
const RUN_20K_FINGERPRINT: u64 = 0x9C08_8BFD_93F0_E266;

/// Single-worker lifetimes an untraced run measures: one per this many
/// seconds of `--seconds`, at least two. A lifetime takes about 12 s on
/// the recording box.
const SECONDS_PER_LIFETIME: f64 = 5.0;

/// Constructions timed beyond the lifetimes', so that `setup_s` is the
/// median of at least seven.
const EXTRA_SETUPS: usize = 5;

/// Deploy attempts `Engine::new` allows before giving up.
const DEPLOY_ATTEMPTS: usize = 500;

/// World epochs advanced per worker setting by the standalone world
/// measurement.
const WORLD_ALONE_EPOCHS: usize = 40;

/// Span names of the engine's phase buckets, in [`phase_array`] order.
const PHASE_SPANS: [&str; 9] = [
    "data.world",
    "core.churn",
    "core.repair",
    "core.ehr",
    "core.sampling",
    "core.injection",
    "lmac.mac",
    "core.dispatch",
    "core.finalize",
];

/// Per-epoch metric names of the phase buckets, in [`phase_array`] order.
const PHASE_METRICS: [&str; 9] = [
    "data.world_ms",
    "core.churn_ms",
    "core.repair_ms",
    "core.ehr_ms",
    "core.sampling_ms",
    "core.injection_ms",
    "lmac.mac_ms",
    "core.dispatch_ms",
    "core.finalize_ms",
];

fn phase_array(p: &PhaseTimings) -> [f64; 9] {
    [p.world, p.churn, p.repair, p.ehr, p.sampling, p.injection, p.mac, p.dispatch, p.finalize]
}

/// `cfg` with all four worker knobs set to `workers`.
fn with_workers(mut cfg: ScenarioConfig, workers: usize) -> ScenarioConfig {
    cfg.lmac.workers = workers;
    cfg.world_workers = workers;
    cfg.dispatch_workers = workers;
    cfg.upkeep_workers = workers;
    cfg
}

/// A registry preset's engine configuration as registered.
fn preset_config(name: &str) -> ScenarioConfig {
    let spec = dirq::scenario::preset(name).expect("registry preset");
    spec.config(spec.schemes[0], spec.seed)
}

/// One engine lifetime: construction, one `step_epoch` per epoch, then
/// `run()` to finalise what is still in flight.
struct Lifetime {
    setup_s: f64,
    /// CPU seconds of the constructing thread in `Engine::new`.
    setup_cpu_s: f64,
    /// The same at the reference speed (measured lifetimes only).
    setup_ref_s: f64,
    steps: Vec<f64>,
    /// CPU seconds of the calling thread per step; the whole step only
    /// at one worker.
    steps_cpu: Vec<f64>,
    /// The same at the reference speed (measured lifetimes only).
    steps_ref: Vec<f64>,
    /// Summed phase seconds over the steps (phase timing on only).
    phases: [f64; 9],
    /// `(calls, bytes)` allocated during the steps.
    allocs: (u64, u64),
    result: RunResult,
}

impl Lifetime {
    fn epochs_per_s(&self) -> f64 {
        self.steps.len() as f64 / self.steps.iter().sum::<f64>()
    }
}

/// How a lifetime is timed: `Measured` lifetimes (untraced runs) run the
/// reference kernel around the construction and after every step;
/// `PhaseTimed` ones (traced runs) turn on the engine's phase timing.
#[derive(Clone, Copy, PartialEq)]
enum Timing {
    Measured,
    PhaseTimed,
}

fn lifetime(
    cfg: &ScenarioConfig,
    tracer: &mut Tracer,
    timing: Timing,
    inspect: impl FnOnce(&Engine) -> Result<(), String>,
) -> Result<Lifetime, String> {
    let measured = timing == Timing::Measured;
    let span = tracer.begin("core.Engine::new");
    let (mut engine, setup_s, setup_cpu_s, setup_ref_s) = if measured {
        let ((engine, wall), cpu, cpu_ref) = around(thread_cpu_s, || {
            let t = Instant::now();
            (Engine::new(cfg.clone()), t.elapsed().as_secs_f64())
        });
        (engine, wall, cpu, cpu_ref)
    } else {
        let (t, c) = (Instant::now(), thread_cpu_s());
        let engine = Engine::new(cfg.clone());
        let cpu = thread_cpu_s() - c;
        (engine, t.elapsed().as_secs_f64(), cpu, cpu)
    };
    tracer.end(span);
    inspect(&engine)?;
    if timing == Timing::PhaseTimed {
        engine.enable_phase_timing();
    }
    let mut steps = Vec::with_capacity(cfg.epochs as usize);
    let mut steps_cpu = Vec::with_capacity(cfg.epochs as usize);
    let mut steps_ref = Vec::with_capacity(cfg.epochs as usize);
    let mut phases = [0.0; 9];
    let mut prev = [0.0; 9];
    let a0 = alloc_counters();
    for _ in 0..cfg.epochs {
        let span = tracer.begin("core.step_epoch");
        let (t, c) = (Instant::now(), thread_cpu_s());
        engine.step_epoch();
        let cpu = thread_cpu_s() - c;
        steps.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        steps_cpu.push(cpu);
        if measured {
            steps_ref.push(scale(cpu, kernel_s()));
        }
        if let Some(p) = engine.phase_timings() {
            let now = phase_array(&p);
            let mut at = tracer.start_of(span);
            for i in 0..9 {
                let d = now[i] - prev[i];
                tracer.record(PHASE_SPANS[i], at, d, span);
                at += d;
                phases[i] += d;
            }
            prev = now;
        }
    }
    let a1 = alloc_counters();
    let span = tracer.begin("core.run");
    let result = engine.run();
    tracer.end(span);
    Ok(Lifetime {
        setup_s,
        setup_cpu_s,
        setup_ref_s,
        steps,
        steps_cpu,
        steps_ref,
        phases,
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
        result,
    })
}

/// `count` lifetimes of `cfg`.
fn lifetimes(
    cfg: &ScenarioConfig,
    count: usize,
    tracer: &mut Tracer,
) -> Result<Vec<Lifetime>, String> {
    (0..count)
        .map(|i| {
            let span = tracer.begin("bench.lifetime");
            let life = lifetime(cfg, tracer, Timing::Measured, |_| Ok(()))?;
            tracer.end(span);
            eprintln!(
                "perfbench: lifetime {i} at {} workers: setup {:.3} s ({:.3} CPU s), \
                 {:.2} epochs/s, {:.3} CPU ms/epoch ({:.3} at the reference speed)",
                cfg.lmac.workers,
                life.setup_s,
                life.setup_cpu_s,
                life.epochs_per_s(),
                mean(&life.steps_cpu) * 1e3,
                mean(&life.steps_ref) * 1e3
            );
            Ok(life)
        })
        .collect()
}

/// Every lifetime must end on the pinned fingerprint.
fn check_fingerprints(lives: &[&Lifetime], pinned: u64) -> Result<(), String> {
    for l in lives {
        let fp = l.result.stable_fingerprint();
        if fp != pinned {
            return Err(format!("run fingerprint {fp:#018X} is not the pinned {pinned:#018X}"));
        }
    }
    Ok(())
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Each epoch's least value of `per_step` across lifetimes. The
/// trajectory is the same in every lifetime, so epoch `e` is the same
/// work each time, and interference from the rest of the host only ever
/// slows it: the least drops a stall that hit one lifetime.
fn best_profile(lives: &[Lifetime], per_step: impl Fn(&Lifetime) -> &[f64]) -> Vec<f64> {
    (0..lives[0].steps.len())
        .map(|e| lives.iter().map(|l| per_step(l)[e]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// The end-to-end metrics of the single-worker lifetimes, CPU time at
/// the reference speed: `setup_s` is the median of their constructions
/// and `extra_setups`, `cpu_ms_per_op` the mean over every `step_epoch`.
/// Raw CPU and wall-clock figures are printed beside them.
fn end_to_end(report: &mut Report, lives: &[Lifetime], extra_setups: &[f64]) {
    let setups: Vec<f64> =
        lives.iter().map(|l| l.setup_ref_s).chain(extra_setups.iter().copied()).collect();
    let scaled: Vec<f64> = lives.iter().flat_map(|l| l.steps_ref.iter().copied()).collect();
    let cpu = best_profile(lives, |l| &l.steps_cpu);
    let wall = best_profile(lives, |l| &l.steps);
    report.put("setup_s", median(&setups), "s");
    report.put("cpu_ms_per_op", mean(&scaled) * 1e3, "ms");
    report.put("epoch_cpu_ms_p50", median(&scaled) * 1e3, "ms");
    report.put("epoch_cpu_ms_tail", tail(&scaled) * 1e3, "ms");
    report.put("epoch_raw_cpu_ms", mean(&cpu) * 1e3, "ms");
    report.put("setup_wall_s", median(&lives.iter().map(|l| l.setup_s).collect::<Vec<_>>()), "s");
    report.put("epochs_per_s_1w", wall.len() as f64 / wall.iter().sum::<f64>(), "epochs/s");
    report.put("step_ms_p50_1w", median(&wall) * 1e3, "ms");
    report.put("step_ms_tail_1w", tail(&wall) * 1e3, "ms");
}

/// Operation tally: every construction, step and `run()` is one attempt.
fn tally(report: &mut Report, lives: &[&Lifetime]) {
    report.attempted += lives.iter().map(|l| l.steps.len() as u64 + 2).sum::<u64>();
}

/// Per-layer metrics of one traced lifetime: the phase split (suffix
/// `""` at nproc, `"_1w"` at one worker) and, at nproc, the step
/// latencies, allocations and the run's exact counts.
fn lifetime_layers(report: &mut Report, life: &Lifetime, suffix: &str) {
    let epochs = life.steps.len() as f64;
    let wall: f64 = life.steps.iter().sum();
    for (name, secs) in PHASE_METRICS.iter().zip(life.phases) {
        report.put(&format!("{name}{suffix}"), secs / epochs * 1e3, "ms");
    }
    let attributed: f64 = life.phases.iter().sum();
    report.put(&format!("core.unattributed_ms{suffix}"), (wall - attributed) / epochs * 1e3, "ms");
    report.put(&format!("core.epochs_per_s{suffix}"), life.epochs_per_s(), "epochs/s");
    if !suffix.is_empty() {
        return;
    }
    report.put("core.setup_s", life.setup_s, "s");
    report.put("core.step_ms_p50", median(&life.steps) * 1e3, "ms");
    report.put("core.step_ms_tail", tail(&life.steps) * 1e3, "ms");
    report.put("bench.allocs_per_epoch", life.allocs.0 as f64 / epochs, "count");
    report.put("bench.alloc_kib_per_epoch", life.allocs.1 as f64 / 1024.0 / epochs, "KiB");
    let r = &life.result;
    report.put("lmac.delivered", r.mac_stats.delivered as f64, "count");
    report.put("lmac.undeliverable", r.mac_stats.undeliverable as f64, "count");
    report.put("core.queries_injected", r.queries_injected as f64, "count");
    report.put("data.calibration_probes", r.calibration_probes as f64, "count");
    report.put("core.cost_per_query", r.cost_per_query().unwrap_or(0.0), "tx");
}

/// Set-up split of one replayed construction, in seconds.
struct Split {
    deploy_s: f64,
    attempts: usize,
    tree_s: f64,
    coloring_s: f64,
    lmac_build_s: f64,
    assign_slots_s: f64,
    world_init_s: f64,
    costs_s: f64,
}

impl Split {
    fn named_total(&self) -> f64 {
        self.deploy_s
            + self.tree_s
            + self.coloring_s
            + self.lmac_build_s
            + self.assign_slots_s
            + self.world_init_s
            + self.costs_s
    }
}

/// Time `f` under a span named `name`.
fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.begin(name);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    tracer.end(span);
    (out, secs)
}

/// Rebuild `Engine::new`'s construction one call at a time: the same
/// `RngFactory` streams and deploy budget, the BFS tree over the (all
/// initially alive) nodes, the MAC with the run's `LmacConfig` and its
/// greedy slot assignment, the world with its worker count, and the
/// analytic costs. Presets the replay does not reproduce are refused.
/// Returns the split, the topology, the tree and the world.
fn replay_setup(
    cfg: &ScenarioConfig,
    tracer: &mut Tracer,
) -> Result<(Split, Topology, SpanningTree, SensorWorld), String> {
    if cfg.extra_sinks != 0
        || !matches!(cfg.radio, RadioSpec::UnitDisk)
        || !matches!(cfg.tree, TreeKind::Bfs)
        || !matches!(cfg.churn, ChurnSpec::None)
    {
        return Err("the set-up replay reproduces only single-sink unit-disk BFS presets \
                    without churn"
            .into());
    }
    let root = tracer.begin("bench.setup_replay");
    let factory = RngFactory::new(cfg.seed);

    let deploy = tracer.begin("net.deploy_connected");
    let t = Instant::now();
    let mut rng = factory.stream("deploy");
    let placement = cfg.placement.clone().unwrap_or(Placement::UniformRandom { side: cfg.side });
    let radio = UnitDisk::new(cfg.radio_range);
    let mut attempts = 0;
    let mut topo = None;
    while topo.is_none() && attempts < DEPLOY_ATTEMPTS {
        attempts += 1;
        let (positions, _) = timed(tracer, "net.Placement::generate", || {
            placement.generate(cfg.n_nodes, cfg.sink, &mut rng)
        });
        let (candidate, _) = timed(tracer, "net.Topology::from_positions", || {
            Topology::from_positions(positions, &radio)
        });
        let (connected, _) = timed(tracer, "net.is_connected", || candidate.is_connected());
        topo = connected.then_some(candidate);
    }
    let deploy_s = t.elapsed().as_secs_f64();
    tracer.end(deploy);
    let topo = topo.ok_or("no connected deployment within the deploy budget")?;

    let (tree, tree_s) = timed(tracer, "net.SpanningTree::bfs_filtered", || {
        SpanningTree::bfs_filtered(&topo, NodeId::ROOT, |_| true)
    });
    // `LmacNetwork::new` colours the topology only when the MAC shards;
    // time the colouring alone and charge the MAC build the remainder.
    let coloring_s = if cfg.lmac.workers > 1 {
        timed(tracer, "net.Topology::two_hop_coloring", || topo.two_hop_coloring()).1
    } else {
        0.0
    };
    let (mut mac, build_s) = timed(tracer, "lmac.LmacNetwork::new", || {
        LmacNetwork::<DirqMessage>::new(cfg.lmac, topo.clone())
    });
    let ((), assign_slots_s) =
        timed(tracer, "lmac.assign_slots_greedy", || mac.assign_slots_greedy());
    drop(mac);
    let (world, world_init_s) = timed(tracer, "data.SensorWorld::new", || {
        let world_cfg = cfg.world.clone().unwrap_or_else(|| WorldConfig::environmental(cfg.side));
        let catalog = SensorCatalog::environmental();
        let assignment = SensorAssignment::heterogeneous(
            topo.len(),
            catalog.len(),
            cfg.sensor_coverage,
            &mut factory.stream("assignment"),
        );
        let mut world = SensorWorld::new(&world_cfg, catalog, assignment, &topo, &factory);
        world.set_workers(cfg.world_workers.max(1));
        world
    });
    let (_, costs_s) =
        timed(tracer, "analytic.TopologyCosts::compute", || TopologyCosts::compute(&topo, &tree));
    tracer.end(root);
    let split = Split {
        deploy_s,
        attempts,
        tree_s,
        coloring_s,
        lmac_build_s: (build_s - coloring_s).max(0.0),
        assign_slots_s,
        world_init_s,
        costs_s,
    };
    Ok((split, topo, tree, world))
}

/// The engine must have built exactly the replayed deployment and tree.
fn check_replay(engine: &Engine, topo: &Topology, tree: &SpanningTree) -> Result<(), String> {
    let built = engine.topology();
    let same_positions = built.positions().len() == topo.positions().len()
        && built
            .positions()
            .iter()
            .zip(topo.positions())
            .all(|(a, b)| a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits());
    let same_links = built.link_count() == topo.link_count()
        && built.nodes().all(|v| built.neighbors(v) == topo.neighbors(v));
    if !(same_positions && same_links) {
        return Err("the replayed topology differs from the engine's".into());
    }
    let engine_tree = engine.protocol_tree();
    if !topo.nodes().all(|v| engine_tree.parent(v) == tree.parent(v)) {
        return Err("the replayed tree parents differ from the engine's".into());
    }
    Ok(())
}

/// Median milliseconds of one standalone `SensorWorld::advance_epoch`.
fn world_alone_ms(world: &mut SensorWorld, workers: usize, tracer: &mut Tracer) -> f64 {
    world.set_workers(workers);
    let samples: Vec<f64> = (0..WORLD_ALONE_EPOCHS)
        .map(|_| timed(tracer, "data.SensorWorld::advance_epoch", || world.advance_epoch()).1)
        .collect();
    median(&samples) * 1e3
}

/// Traced engine pass: replay the set-up, time the world alone, then one
/// phase-timed lifetime of `cfg` checked against the replay, and one of
/// `cfg_1w`.
fn traced(
    cfg: &ScenarioConfig,
    cfg_1w: &ScenarioConfig,
    pinned: u64,
    tracer: &mut Tracer,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (split, topo, tree, mut world) = replay_setup(cfg, tracer)?;
    report.put("data.world_alone_ms", world_alone_ms(&mut world, nproc(), tracer), "ms");
    report.put("data.world_alone_ms_1w", world_alone_ms(&mut world, 1, tracer), "ms");
    drop(world);

    let life =
        lifetime(cfg, tracer, Timing::PhaseTimed, |engine| check_replay(engine, &topo, &tree))?;
    report.put("net.deploy_s", split.deploy_s, "s");
    report.put("net.deploy_attempts", split.attempts as f64, "count");
    report.put("net.tree_s", split.tree_s, "s");
    report.put("net.coloring_s", split.coloring_s, "s");
    report.put("lmac.build_s", split.lmac_build_s, "s");
    report.put("lmac.assign_slots_s", split.assign_slots_s, "s");
    report.put("data.world_init_s", split.world_init_s, "s");
    report.put("analytic.costs_s", split.costs_s, "s");
    report.put("core.setup_other_s", life.setup_s - split.named_total(), "s");
    lifetime_layers(&mut report, &life, "");
    let one = lifetime(cfg_1w, tracer, Timing::PhaseTimed, |_| Ok(()))?;
    lifetime_layers(&mut report, &one, "_1w");
    report.put("sim.shard_speedup", life.epochs_per_s() / one.epochs_per_s(), "ratio");
    let refs = [&life, &one];
    check_fingerprints(&refs, pinned)?;
    tally(&mut report, &refs);
    Ok(report)
}

/// CPU seconds at the reference speed of `count` constructions of `cfg`
/// beyond the lifetimes'.
fn extra_setups(cfg: &ScenarioConfig, count: usize, tracer: &mut Tracer) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let (engine, _, cpu_ref) = around(thread_cpu_s, || {
                timed(tracer, "core.Engine::new", || Engine::new(cfg.clone())).0
            });
            drop(engine);
            cpu_ref
        })
        .collect()
}

/// `run_20k`: run-loop-dominated. Untraced runs step it at one worker;
/// traced runs at nproc and at one, gating both fingerprints.
pub fn run_20k(args: &Args, tracer: &mut Tracer) -> Result<Report, String> {
    let base = preset_config("stress_20000");
    let full = with_workers(base.clone(), nproc());
    let one = with_workers(base, 1);
    if args.trace {
        return traced(&full, &one, RUN_20K_FINGERPRINT, tracer);
    }
    let count = ((args.seconds / SECONDS_PER_LIFETIME).round() as usize).max(2);
    let lives = lifetimes(&one, count, tracer)?;
    let extra_setups = extra_setups(&one, EXTRA_SETUPS, tracer);
    let refs: Vec<&Lifetime> = lives.iter().collect();
    check_fingerprints(&refs, RUN_20K_FINGERPRINT)?;
    let mut report = Report::default();
    tally(&mut report, &refs);
    report.attempted += EXTRA_SETUPS as u64;
    end_to_end(&mut report, &lives, &extra_setups);
    Ok(report)
}
