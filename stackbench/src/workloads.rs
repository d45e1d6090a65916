//! The five workloads. Each drives the stack only through public entry
//! points, and each layer call sits inside a span named after it.

use std::hint::black_box;

use sudc_accel::design::design_space;
use sudc_accel::dse::{run_dse_threads, DseOutcome, SystemArchitecture};
use sudc_accel::energy::EnergyTable;
use sudc_accel::AcceleratorConfig;
use sudc_chaos::Campaign;
use sudc_core::dynamics::DynamicScenario;
use sudc_core::Scenario;
use sudc_health::HealthConfig;
use sudc_router::{ReplayReport, RoutedLoad, Router, RoutingOutcome, RoutingStats, StreamConfig};
use sudc_router::{Tier, Verdict};
use sudc_sim::{RunTrace, SimConfig};
use sudc_units::Seconds;

use crate::stats::Fnv;
use crate::trace::Tracer;

/// Named per-layer values one traced pass yields.
pub type LayerValues = Vec<(&'static str, f64)>;

/// Named output values a pass is checked on.
pub type Digest = Vec<(&'static str, String)>;

pub trait Workload: Sized {
    type Output;

    /// Whether the inputs depend on the seed. Expected outputs of a
    /// seedless workload hold on every seed.
    const SEEDED: bool = true;

    /// Builds the inputs. Layer calls made here are traced as setup.
    fn setup(seed: u64, threads: usize, tracer: &mut Tracer) -> Result<Self, String>;

    /// One closed-loop pass: the timed unit of work.
    fn pass(&self, tracer: &mut Tracer) -> Result<Self::Output, String>;

    /// Work items one pass completed, for `items_per_s`.
    fn items(&self, out: &Self::Output) -> f64;

    /// Output values compared with the expected file on the default seed
    /// and with the warm-up pass on every seed.
    fn digest(&self, out: &Self::Output) -> Result<Digest, String>;

    /// Checks that hold on every seed.
    fn invariants(&self, out: &Self::Output) -> Result<(), String>;

    /// Per-layer counts of a pass's outputs, plus off-switch timings.
    /// Runs after the timed loop, never inside a pass span.
    fn layer_values(&self, out: &Self::Output, tracer: &mut Tracer) -> Result<LayerValues, String>;
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// The reference scenario's request arrival rate, about 3.83 req/s.
fn reference_arrival_rate() -> Result<f64, String> {
    Ok(DynamicScenario::from_scenario(Scenario::Reference, 64)
        .map_err(err)?
        .arrival_rate())
}

fn routing_digest(requests: usize, s: &RoutingStats) -> Digest {
    let mut d = vec![
        ("requests", requests.to_string()),
        ("placed", s.placed.to_string()),
        ("deferred", s.deferred.to_string()),
        ("rejected", s.rejected.to_string()),
        ("shed", s.shed.to_string()),
    ];
    for t in Tier::ALL {
        let key = match t {
            Tier::Onboard => "placed_onboard",
            Tier::OrbitalSudc => "placed_sudc",
            Tier::GroundEdge => "placed_ground_edge",
            Tier::Cloud => "placed_cloud",
        };
        d.push((key, s.tier_counts[t.index()].to_string()));
    }
    d
}

fn routing_invariants(
    requests: usize,
    stream: &StreamConfig,
    s: &RoutingStats,
) -> Result<(), String> {
    ensure(requests as u64 == stream.requests, || {
        format!("{requests} decisions for {} requests", stream.requests)
    })?;
    ensure(
        s.placed + s.deferred + s.rejected + s.shed == s.requests,
        || format!("verdicts do not sum to the {} requests", s.requests),
    )
}

fn routing_values(s: &RoutingStats) -> LayerValues {
    vec![
        ("router.placed", s.placed as f64),
        ("router.deferred", s.deferred as f64),
        ("router.rejected", s.rejected as f64),
        ("router.shed", s.shed as f64),
        ("router.acceptance_rate", s.acceptance_rate()),
    ]
}

/// Generates every block of the stream on one thread.
fn generate_all(stream: &StreamConfig) {
    for b in 0..stream.blocks() {
        black_box(stream.generate_block(b));
    }
}

fn trace_fingerprint(t: &RunTrace) -> Result<String, String> {
    let mut h = Fnv::new();
    h.bytes(t.try_to_json().map_err(err)?.to_string_compact().as_bytes());
    Ok(format!("{:016x}", h.finish()))
}

fn trace_values(t: &RunTrace) -> LayerValues {
    vec![
        ("sim.events", t.events as f64),
        ("sim.peak_event_queue", t.peak_event_queue as f64),
        ("health.heartbeats", t.heartbeats as f64),
        ("health.suspects", t.suspects as f64),
        ("health.false_suspects", t.false_suspects as f64),
        ("health.detections", t.detections as f64),
        ("health.detection_p99_sim_s", t.detection_latency().p99),
        ("chaos.corrupted", t.corrupted as f64),
        ("chaos.retries", t.retries as f64),
        ("chaos.retry_exhausted", t.retry_exhausted as f64),
        (
            "chaos.shed",
            (t.shed_batch_overflow + t.shed_downlink_overflow + t.shed_deadline) as f64,
        ),
        ("chaos.storm_node_kills", t.storm_node_kills as f64),
        ("chaos.isl_flaps", t.isl_flaps as f64),
        ("chaos.blackout_windows", t.blackout_windows as f64),
    ]
}

fn trace_invariants(t: &RunTrace) -> Result<(), String> {
    ensure(t.captured == t.filtered_out + t.arrived, || {
        format!(
            "captured {} != filtered {} + arrived {}",
            t.captured, t.filtered_out, t.arrived
        )
    })
}

/// Wall time of a run of `cfg` cut to one tick: the kernel's set-up of
/// per-satellite state and the event queue.
fn init_seconds(cfg: &SimConfig, seed: u64, tracer: &mut Tracer) -> f64 {
    let mut one_tick = *cfg;
    one_tick.duration_ticks = 1;
    tracer
        .attribute("sim", "run_one_tick", || sudc_sim::run(&one_tick, seed))
        .1
}

/// Tasking stream -> router -> sim under the combined campaign with the
/// closed-loop health plane, recorded, replayed and priced per insight.
pub struct PipelineCombined {
    router: Router,
    stream: StreamConfig,
    duration: Seconds,
    campaign: Campaign,
    seed: u64,
    tco_usd: f64,
    lifetime_hours: f64,
}

pub struct PipelineOut {
    requests: usize,
    stats: RoutingStats,
    cfg: SimConfig,
    trace: RunTrace,
    replayed: RunTrace,
    log_bytes: usize,
    log_records: u64,
    report: ReplayReport,
    tco_per_insight_usd: f64,
}

impl Workload for PipelineCombined {
    type Output = PipelineOut;

    fn setup(seed: u64, _threads: usize, tracer: &mut Tracer) -> Result<Self, String> {
        let router = tracer.span("core", "reference_pricing", Router::reference);
        let (tco_usd, lifetime_hours) = tracer.span("core", "try_tco", || {
            let design = Scenario::Reference.try_design().map_err(err)?;
            let tco = design.try_tco().map_err(err)?;
            Ok::<_, String>((
                tco.total().value(),
                design.lifetime.to_seconds().value() / 3600.0,
            ))
        })?;
        let duration = Seconds::new(4.0 * 86_400.0);
        Ok(Self {
            router,
            stream: StreamConfig::new(1_000_000, seed, reference_arrival_rate()?),
            duration,
            campaign: Campaign::combined(duration),
            seed,
            tco_usd,
            lifetime_hours,
        })
    }

    fn pass(&self, tracer: &mut Tracer) -> Result<PipelineOut, String> {
        let outcome = tracer.span("router", "route_stream", || {
            self.router.route_stream(&self.stream)
        });
        let load = RoutedLoad::from_outcome(&outcome);
        let cfg = self
            .campaign
            .apply(&load.sim_config(self.duration))
            .with_health(HealthConfig::standard());
        cfg.try_validate().map_err(err)?;
        let (trace, log) = tracer.span("sim", "run_recorded", || {
            sudc_sim::run_recorded(&cfg, self.seed)
        });
        let replayed = tracer
            .span("bus", "replay", || sudc_sim::replay(&cfg, &log))
            .map_err(err)?;
        let report = tracer
            .span("router", "try_from_traces", || {
                ReplayReport::try_from_traces(
                    self.campaign.name,
                    load.sudc_share,
                    vec![replayed.clone()],
                )
            })
            .map_err(err)?;
        let tco_per_insight_usd = self.tco_usd / (trace.delivered_per_hour() * self.lifetime_hours);
        Ok(PipelineOut {
            requests: outcome.decisions.len(),
            stats: outcome.stats,
            cfg,
            trace,
            replayed,
            log_bytes: log.byte_len(),
            log_records: log.records(),
            report,
            tco_per_insight_usd,
        })
    }

    fn items(&self, out: &PipelineOut) -> f64 {
        out.requests as f64
    }

    fn digest(&self, out: &PipelineOut) -> Result<Digest, String> {
        let r = &out.report;
        let mut d = routing_digest(out.requests, &out.stats);
        d.extend([
            ("sudc_share", format!("{:?}", r.sudc_share)),
            ("slo_attainment", format!("{:?}", r.slo_attainment)),
            ("mean_availability", format!("{:?}", r.mean_availability)),
            ("delivered_fraction", format!("{:?}", r.delivered_fraction)),
            (
                "mean_delivery_p99_s",
                format!("{:?}", r.mean_delivery_p99_s),
            ),
            (
                "tco_per_insight_usd",
                format!("{:?}", out.tco_per_insight_usd),
            ),
        ]);
        Ok(d)
    }

    fn invariants(&self, out: &PipelineOut) -> Result<(), String> {
        routing_invariants(out.requests, &self.stream, &out.stats)?;
        trace_invariants(&out.trace)?;
        ensure(out.trace == out.replayed, || {
            "replayed trace differs from the recorded run".to_string()
        })?;
        ensure(out.tco_per_insight_usd.is_finite(), || {
            "no insight delivered: TCO per insight is unbounded".to_string()
        })
    }

    fn layer_values(&self, out: &PipelineOut, tracer: &mut Tracer) -> Result<LayerValues, String> {
        let gen = tracer
            .attribute("router", "generate_block", || generate_all(&self.stream))
            .1;
        let recorded = tracer
            .attribute("sim", "run_recorded", || {
                sudc_sim::run_recorded(&out.cfg, self.seed)
            })
            .1;
        let passthrough = tracer
            .attribute("sim", "run", || sudc_sim::run(&out.cfg, self.seed))
            .1;
        let mut v = vec![
            ("router.gen_s", gen),
            ("bus.record_s", recorded - passthrough),
            ("sim.init_s", init_seconds(&out.cfg, self.seed, tracer)),
            ("bus.log_bytes", out.log_bytes as f64),
            ("bus.log_records", out.log_records as f64),
            (
                "bus.bytes_per_record",
                out.log_bytes as f64 / out.log_records as f64,
            ),
        ];
        v.extend(routing_values(&out.stats));
        v.extend(trace_values(&out.trace));
        Ok(v)
    }
}

/// The router alone, 100x over the reference arrival rate.
pub struct RouteOverload {
    router: Router,
    stream: StreamConfig,
}

/// FNV-1a over each decision's id, verdict, tier, latency and cost.
fn decision_fingerprint(out: &RoutingOutcome) -> u64 {
    let mut h = Fnv::new();
    for d in &out.decisions {
        h.u64(d.id);
        let (tag, tier) = match d.verdict {
            Verdict::Placed(t) => (0, t.index() as u64),
            Verdict::Deferred => (1, 0),
            Verdict::Rejected => (2, 0),
            Verdict::Shed => (3, 0),
        };
        h.u64(tag);
        h.u64(tier);
        h.u64(d.latency_s.to_bits());
        h.u64(d.cost_usd.to_bits());
    }
    h.finish()
}

impl Workload for RouteOverload {
    type Output = RoutingOutcome;

    fn setup(seed: u64, _threads: usize, tracer: &mut Tracer) -> Result<Self, String> {
        let router = tracer.span("core", "reference_pricing", Router::reference);
        let rate = 100.0 * reference_arrival_rate()?;
        Ok(Self {
            router,
            stream: StreamConfig::new(4_000_000, seed, rate),
        })
    }

    fn pass(&self, tracer: &mut Tracer) -> Result<RoutingOutcome, String> {
        Ok(tracer.span("router", "route_stream", || {
            self.router.route_stream(&self.stream)
        }))
    }

    fn items(&self, out: &RoutingOutcome) -> f64 {
        out.decisions.len() as f64
    }

    fn digest(&self, out: &RoutingOutcome) -> Result<Digest, String> {
        let mut d = routing_digest(out.decisions.len(), &out.stats);
        d.push((
            "decision_fnv",
            format!("{:016x}", decision_fingerprint(out)),
        ));
        Ok(d)
    }

    fn invariants(&self, out: &RoutingOutcome) -> Result<(), String> {
        routing_invariants(out.decisions.len(), &self.stream, &out.stats)
    }

    fn layer_values(
        &self,
        out: &RoutingOutcome,
        tracer: &mut Tracer,
    ) -> Result<LayerValues, String> {
        let gen = tracer
            .attribute("router", "generate_block", || generate_all(&self.stream))
            .1;
        let mut v = vec![("router.gen_s", gen)];
        v.extend(routing_values(&out.stats));
        Ok(v)
    }
}

/// The nominal kernel on a fleet of `N` satellites for `SECONDS`, or on
/// the combined campaign with the closed-loop health plane.
pub struct Fleet<const FAULTS: bool> {
    base: SimConfig,
    cfg: SimConfig,
    seed: u64,
}

pub type Fleet1m = Fleet<false>;
pub type Fleet10kFaults = Fleet<true>;

impl<const FAULTS: bool> Workload for Fleet<FAULTS> {
    type Output = RunTrace;

    fn setup(seed: u64, _threads: usize, _tracer: &mut Tracer) -> Result<Self, String> {
        let (satellites, seconds) = if FAULTS {
            (10_000, 1800.0)
        } else {
            (1_000_000, 60.0)
        };
        let duration = Seconds::new(seconds);
        let base = SimConfig::try_scaled_fleet(satellites, duration).map_err(err)?;
        let cfg = if FAULTS {
            Campaign::combined(duration)
                .apply(&base)
                .with_health(HealthConfig::standard())
        } else {
            base
        };
        cfg.try_validate().map_err(err)?;
        Ok(Self { base, cfg, seed })
    }

    fn pass(&self, tracer: &mut Tracer) -> Result<RunTrace, String> {
        Ok(tracer.span("sim", "run", || sudc_sim::run(&self.cfg, self.seed)))
    }

    fn items(&self, out: &RunTrace) -> f64 {
        out.events as f64
    }

    fn digest(&self, out: &RunTrace) -> Result<Digest, String> {
        Ok(vec![
            ("captured", out.captured.to_string()),
            ("delivered", out.delivered.to_string()),
            ("trace_fnv", trace_fingerprint(out)?),
        ])
    }

    fn invariants(&self, out: &RunTrace) -> Result<(), String> {
        trace_invariants(out)?;
        ensure(!FAULTS || out.heartbeats > 0, || {
            "health plane armed but no heartbeat observed".to_string()
        })
    }

    fn layer_values(&self, out: &RunTrace, tracer: &mut Tracer) -> Result<LayerValues, String> {
        let mut v = vec![("sim.init_s", init_seconds(&self.cfg, self.seed, tracer))];
        if FAULTS {
            let mut timed = |name: &'static str, cfg: SimConfig| {
                tracer
                    .attribute("sim", name, || sudc_sim::run(&cfg, self.seed))
                    .1
            };
            let monitored = timed("run_monitor_only", {
                let mut c = self.cfg;
                c.health = Some(HealthConfig::monitor_only());
                c
            });
            let unmonitored = timed("run_health_off", {
                let mut c = self.cfg;
                c.health = None;
                c
            });
            let faulted = timed("run", self.cfg);
            let nominal = timed(
                "run_no_campaign",
                self.base.with_health(HealthConfig::standard()),
            );
            v.push(("health.detector_s", monitored - unmonitored));
            v.push(("chaos.faults_s", faulted - nominal));
        }
        v.extend(trace_values(out));
        Ok(v)
    }
}

/// The accelerator mapping search over the full design space.
pub struct DseSweep {
    space: Vec<AcceleratorConfig>,
    table: EnergyTable,
    threads: usize,
}

impl Workload for DseSweep {
    type Output = DseOutcome;
    const SEEDED: bool = false;

    fn setup(_seed: u64, threads: usize, _tracer: &mut Tracer) -> Result<Self, String> {
        Ok(Self {
            space: design_space(),
            table: EnergyTable::default(),
            threads,
        })
    }

    fn pass(&self, tracer: &mut Tracer) -> Result<DseOutcome, String> {
        Ok(tracer.span("accel", "run_dse_threads", || {
            run_dse_threads(self.threads, &self.space, &self.table)
        }))
    }

    fn items(&self, out: &DseOutcome) -> f64 {
        out.designs_evaluated as f64
    }

    /// Results only: search counters stay out, so a pruning change that
    /// keeps every result still passes.
    fn digest(&self, out: &DseOutcome) -> Result<Digest, String> {
        let [global, per_network, per_layer] = improvements(out);
        Ok(vec![
            ("global_best", out.global_best.to_string()),
            ("global_engine", out.global_engine.to_string()),
            ("improvement_global", format!("{global:.1}")),
            ("improvement_per_network", format!("{per_network:.1}")),
            ("improvement_per_layer", format!("{per_layer:.1}")),
            // The paper reports about 2x per-layer over global.
            (
                "per_layer_over_global",
                format!("{:.2}", per_layer / global),
            ),
        ])
    }

    fn invariants(&self, out: &DseOutcome) -> Result<(), String> {
        let [global, per_network, per_layer] = improvements(out);
        ensure(global < per_network && per_network < per_layer, || {
            format!("specialization out of order: {global} / {per_network} / {per_layer}")
        })
    }

    fn layer_values(&self, out: &DseOutcome, _tracer: &mut Tracer) -> Result<LayerValues, String> {
        let s = &out.stats;
        Ok(vec![
            ("accel.schedules_evaluated", s.schedules_evaluated as f64),
            ("accel.schedules_pruned", s.schedules_pruned as f64),
            ("accel.prune_rate", s.prune_rate()),
            ("accel.memo_hit_rate", s.memo_hit_rate()),
        ])
    }
}

fn improvements(out: &DseOutcome) -> [f64; 3] {
    [
        SystemArchitecture::GlobalAccelerator,
        SystemArchitecture::PerNetworkAccelerator,
        SystemArchitecture::PerLayerAccelerator,
    ]
    .map(|a| out.mean_improvement(a))
}
