//! The scenario engine: named, seeded workloads driving the behavioural
//! router.
//!
//! A [`Workload`] names a traffic pattern with all-integer parameters (so
//! workloads hash, compare and key caches); [`run_scenario`] replays it
//! against a [`Router`] built over any [`TableKind`] and returns a
//! [`ScenarioMetrics`].  The same `(workload, config)` pair always produces
//! the same metrics, byte for byte.
//!
//! Time advances in fixed 100 ms ticks.  Each tick the engine injects
//! arrivals at the line cards, lets the router service at most
//! [`ScenarioConfig::service_per_tick`] datagrams (the processor's speed,
//! which is what couples scenarios to architecture evaluation), and then
//! measures queue depths and per-datagram latency by pairing the cards'
//! service counters with recorded arrival ticks.

use std::collections::VecDeque;

use taco_ipv6::{Datagram, Ipv6Address, NextHeader};
use taco_isa::SystemConfig;
use taco_router::router::Router;
use taco_router::traffic::{data_frame, ripng_datagram, TrafficGen};
use taco_router::SplitMix64;
use taco_routing::ripng::InterfaceConfig;
use taco_routing::{LpmTable, PortId, Route, SimTime, TableKind};
use taco_sim::MulticoreSim;

use crate::fault::{FaultMetrics, FaultPlan};
use crate::metrics::{FlowStats, ScenarioMetrics};
use crate::trace::{FlowTrace, TraceGen, TraceRecord};

/// Router ports every scenario drives.
pub const PORTS: u16 = 4;

/// Simulated duration of one engine tick in milliseconds.
pub const TICK_MILLIS: u64 = 100;

/// Fraction of data destinations that hit the routing table.
const HIT_RATIO: f64 = 0.9;

/// Payload bytes per data datagram.
const PAYLOAD_BYTES: usize = 64;

/// RIPng entries per advertisement datagram (stays under the MTU).
const ADVERT_CHUNK: usize = 60;

/// Seed used by the built-in scenario set ([`Workload::builtin`]).
pub const DEFAULT_SEED: u64 = 0x7AC0_2003;

/// The most ticks, and the most offered datagrams, a workload descriptor
/// arriving over the wire may ask one runner for.  An offered datagram
/// costs 0.18 to 0.24 µs end to end at the builtin table size on an
/// AVX-512 host (draw, write the frame, queue, check in place, look up,
/// fold; ENGINEERING_LOG.md "Host bits eight to a vector"), so
/// `2²⁴ × 0.24 µs` is about four seconds of a runner; the builtin
/// workloads offer 425 to 15 409.
/// In-process callers are not bound by it.
pub const MAX_OFFERED: u64 = 1 << 24;

/// A named, seeded traffic pattern.
///
/// Every variant carries only integers so a workload can key the
/// evaluation cache (`Hash + Eq`) and serialise stably.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The paper's workload: a constant stream of forwarding datagrams
    /// over a fixed table — the cross-validation baseline.
    SteadyForward {
        /// RNG seed; same seed ⇒ identical run.
        seed: u64,
        /// Measured ticks.
        ticks: u32,
        /// Data datagrams injected per tick.
        packets_per_tick: u32,
        /// Routing-table size.
        entries: u32,
    },
    /// Poisson-ish arrivals whose bursts exceed the service rate,
    /// measuring drops and queue growth under overload.
    BurstOverload {
        /// RNG seed.
        seed: u64,
        /// Measured ticks.
        ticks: u32,
        /// Mean arrivals per tick, in thousandths (1500 ⇒ 1.5/tick).
        mean_per_tick_milli: u64,
        /// A burst window opens every this many ticks…
        burst_every: u32,
        /// …lasts this many ticks…
        burst_len: u32,
        /// …and multiplies the arrival rate by this factor.
        burst_multiplier: u32,
        /// Routing-table size.
        entries: u32,
    },
    /// RIPng response storms from several neighbours converge the table
    /// while forwarding traffic is already flowing — early datagrams drop,
    /// then the drop rate decays as routes install.
    RipngConvergence {
        /// RNG seed.
        seed: u64,
        /// Measured ticks.
        ticks: u32,
        /// Advertising neighbours (spread round-robin over the ports).
        neighbours: u32,
        /// Routes each neighbour advertises.
        routes_per_neighbour: u32,
        /// Data datagrams injected per tick.
        packets_per_tick: u32,
    },
    /// Routes are withdrawn and re-advertised in slices while packets fly;
    /// traffic to a withdrawn slice drops until it returns.
    TableChurn {
        /// RNG seed.
        seed: u64,
        /// Measured ticks.
        ticks: u32,
        /// Data datagrams injected per tick.
        packets_per_tick: u32,
        /// Routing-table size.
        entries: u32,
        /// A churn event fires every this many ticks…
        churn_every: u32,
        /// …withdrawing (then re-advertising) this many routes.
        churn_size: u32,
    },
    /// Alternating control-heavy and data-heavy phases: RIPng withdrawal
    /// storms followed by re-advertisement while forwarding trickles,
    /// then forwarding bursts at a multiplied rate — the mixed
    /// control/data-plane load a real edge router carries.
    MixedPlane {
        /// RNG seed.
        seed: u64,
        /// Measured ticks.
        ticks: u32,
        /// Advertising neighbours (spread round-robin over the ports).
        neighbours: u32,
        /// Routes each neighbour advertises.
        routes_per_neighbour: u32,
        /// Data datagrams injected per tick in control phases.
        packets_per_tick: u32,
        /// Data-phase rate multiplier over `packets_per_tick`.
        burst_multiplier: u32,
        /// Length of each phase in ticks (control and data alternate).
        phase_len: u32,
    },
    /// Replays a [`FlowTrace`](crate::trace::FlowTrace) — empirically
    /// shaped, heavy-tailed flow traffic — regenerated deterministically
    /// from this compact descriptor by
    /// [`TraceGen`](crate::trace::TraceGen).  An externally supplied
    /// trace file replays through
    /// [`run_trace_replay`] instead.
    TraceReplay {
        /// Trace seed (also derives the routing table).
        seed: u64,
        /// Tick horizon of the trace.
        ticks: u32,
        /// Flows the trace carries.
        flows: u32,
        /// Routing-table size the destinations were drawn against.
        entries: u32,
    },
}

impl Workload {
    /// The scenario's name (`steady-forward`, `burst-overload`,
    /// `ripng-convergence`, `table-churn`, `mixed-plane`,
    /// `trace-replay`).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::SteadyForward { .. } => "steady-forward",
            Workload::BurstOverload { .. } => "burst-overload",
            Workload::RipngConvergence { .. } => "ripng-convergence",
            Workload::TableChurn { .. } => "table-churn",
            Workload::MixedPlane { .. } => "mixed-plane",
            Workload::TraceReplay { .. } => "trace-replay",
        }
    }

    /// The workload's RNG seed.
    pub fn seed(&self) -> u64 {
        match self {
            Workload::SteadyForward { seed, .. }
            | Workload::BurstOverload { seed, .. }
            | Workload::RipngConvergence { seed, .. }
            | Workload::TableChurn { seed, .. }
            | Workload::MixedPlane { seed, .. }
            | Workload::TraceReplay { seed, .. } => *seed,
        }
    }

    /// The same workload with a different seed.
    pub fn with_seed(mut self, new_seed: u64) -> Self {
        match &mut self {
            Workload::SteadyForward { seed, .. }
            | Workload::BurstOverload { seed, .. }
            | Workload::RipngConvergence { seed, .. }
            | Workload::TableChurn { seed, .. }
            | Workload::MixedPlane { seed, .. }
            | Workload::TraceReplay { seed, .. } => *seed = new_seed,
        }
        self
    }

    /// Measured ticks.
    pub fn ticks(&self) -> u32 {
        match self {
            Workload::SteadyForward { ticks, .. }
            | Workload::BurstOverload { ticks, .. }
            | Workload::RipngConvergence { ticks, .. }
            | Workload::TableChurn { ticks, .. }
            | Workload::MixedPlane { ticks, .. }
            | Workload::TraceReplay { ticks, .. } => *ticks,
        }
    }

    /// The built-in scenario set with default parameters and
    /// [`DEFAULT_SEED`], in documentation order.
    pub fn builtin() -> Vec<Workload> {
        vec![
            Workload::steady_forward(),
            Workload::burst_overload(),
            Workload::ripng_convergence(),
            Workload::table_churn(),
            Workload::mixed_plane(),
            Workload::trace_replay(),
        ]
    }

    /// Looks a built-in scenario up by [`Workload::name`].
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::builtin().into_iter().find(|w| w.name() == name)
    }

    /// The default `steady-forward` scenario.
    pub fn steady_forward() -> Workload {
        Workload::SteadyForward {
            seed: DEFAULT_SEED,
            ticks: 400,
            packets_per_tick: 24,
            entries: 100,
        }
    }

    /// The default `burst-overload` scenario: mean load below the default
    /// service rate, bursts at 4× well above it.
    pub fn burst_overload() -> Workload {
        Workload::BurstOverload {
            seed: DEFAULT_SEED,
            ticks: 400,
            mean_per_tick_milli: 24_000,
            burst_every: 50,
            burst_len: 10,
            burst_multiplier: 4,
            entries: 100,
        }
    }

    /// The default `ripng-convergence` scenario.
    pub fn ripng_convergence() -> Workload {
        Workload::RipngConvergence {
            seed: DEFAULT_SEED,
            ticks: 300,
            neighbours: 4,
            routes_per_neighbour: 25,
            packets_per_tick: 16,
        }
    }

    /// The default `table-churn` scenario.
    pub fn table_churn() -> Workload {
        Workload::TableChurn {
            seed: DEFAULT_SEED,
            ticks: 400,
            packets_per_tick: 16,
            entries: 100,
            churn_every: 40,
            churn_size: 10,
        }
    }

    /// The default `mixed-plane` scenario: 30-tick control phases (a
    /// withdrawal storm, then re-advertisement) alternating with 30-tick
    /// forwarding bursts at 4× the base rate.
    pub fn mixed_plane() -> Workload {
        Workload::MixedPlane {
            seed: DEFAULT_SEED,
            ticks: 240,
            neighbours: 4,
            routes_per_neighbour: 25,
            packets_per_tick: 12,
            burst_multiplier: 4,
            phase_len: 30,
        }
    }

    /// The default `trace-replay` scenario: the reference empirical trace
    /// (heavy-tailed flows, trimodal sizes, popular prefixes) regenerated
    /// from [`DEFAULT_SEED`].
    pub fn trace_replay() -> Workload {
        Workload::TraceReplay { seed: DEFAULT_SEED, ticks: 240, flows: 64, entries: 100 }
    }
}

/// How the router under test is provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScenarioConfig {
    /// Routing-table organisation.
    pub kind: TableKind,
    /// Datagrams *one* forwarding core services per tick — the
    /// processor's speed expressed in the engine's time base.  A
    /// multi-core [`ScenarioConfig::system`] multiplies this by its core
    /// count, minus whatever the coherence stalls cost.
    pub service_per_tick: u32,
    /// Input-buffer bound per line card, in datagrams.
    pub queue_capacity: u32,
    /// The multi-core system sharing the routing table.  Single-core
    /// (the default) runs byte-identically to the pre-multicore engine
    /// and carries no `coherence` section.
    pub system: SystemConfig,
}

impl ScenarioConfig {
    /// A config for `kind` with the default service rate (32/tick), queue
    /// bound (64) and a single core.
    pub fn new(kind: TableKind) -> Self {
        ScenarioConfig {
            kind,
            service_per_tick: 32,
            queue_capacity: 64,
            system: SystemConfig::default(),
        }
    }

    /// Sets the service rate.
    pub fn service_per_tick(mut self, rate: u32) -> Self {
        self.service_per_tick = rate;
        self
    }

    /// Sets the queue bound.
    pub fn queue_capacity(mut self, capacity: u32) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the multi-core system configuration.
    pub fn system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }
}

/// Coherence stall cycles that cost one datagram of service budget (the
/// integer exchange rate between the coherence model's cycle domain and
/// the engine's datagrams-per-tick domain).
const STALL_CYCLES_PER_SLOT: u64 = 32;

/// Drives the [`MulticoreSim`] from the serviced traffic: every serviced
/// data datagram is a table lookup on the next core (round-robin fan-out
/// across the cores), every serviced table update is a table write by
/// core 0 (the control plane), and the accumulated stall cycles are paid
/// back as service-budget debt on subsequent ticks.
struct CoherenceDriver {
    sim: MulticoreSim,
    /// Seeded stream choosing which table line each access touches.
    rng: SplitMix64,
    next_core: u64,
    /// Stall cycles not yet charged against the service budget.
    debt: u64,
}

impl CoherenceDriver {
    fn new(system: SystemConfig, seed: u64) -> Self {
        CoherenceDriver {
            sim: MulticoreSim::new(system),
            rng: SplitMix64::new(seed ^ 0xC0DE_C0FE),
            next_core: 0,
            debt: 0,
        }
    }

    /// A serviced data datagram: one table-line read, fanned round-robin
    /// over the cores.  `words` is the current table footprint, bounding
    /// the line space the seeded stream draws from.
    fn data(&mut self, words: u64) {
        let core = (self.next_core % self.sim.cores() as u64) as usize;
        self.next_core += 1;
        let addr = self.rng.below(words.max(1));
        self.debt += self.sim.read(core, addr);
    }

    /// A serviced table update: one table-line write by core 0,
    /// invalidating whatever the other cores have cached of that line.
    fn update(&mut self, words: u64) {
        let addr = self.rng.below(words.max(1));
        self.debt += self.sim.write(0, addr);
    }

    /// The tick's service budget after paying down stall debt.  At least
    /// one datagram is always serviced, so debt can defer but never
    /// deadlock progress.
    fn budget(&mut self, base: usize) -> usize {
        let cap = base.saturating_sub(1) as u64;
        let penalty = (self.debt / STALL_CYCLES_PER_SLOT).min(cap);
        self.debt -= penalty * STALL_CYCLES_PER_SLOT;
        base - penalty as usize
    }
}

/// What a recorded arrival was, so servicing it lands in the right
/// histogram (or closes a recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrivalKind {
    /// A data datagram — services into the latency histogram.
    Data,
    /// A RIPng table update — services into the update-latency histogram.
    Update,
    /// A fault-injected frame (malformed, expiring) — serviced and
    /// dropped by the core, but not a latency sample.
    FaultNoise,
    /// A repair re-advertisement; servicing it completes the recovery of
    /// the fault injected at `injected`.
    Repair {
        /// Tick the underlying fault was injected.
        injected: u64,
    },
}

/// Arrival bookkeeping: `(arrival tick, kind)` per port, in FIFO order —
/// the same order the router services each card.
type ArrivalFifo = VecDeque<(u64, ArrivalKind)>;

/// A repair re-advertisement waiting for its due tick (bounded re-resolve
/// with retry/backoff).
struct PendingRepair {
    due: u64,
    injected: u64,
    attempts_left: u32,
    neighbour: u32,
    routes: Vec<Route>,
}

/// A linecard whose carrier is down until `up_at`.
struct DownLink {
    port: u16,
    since: u64,
    up_at: u64,
}

/// Executes a [`FaultPlan`] tick by tick, with its own RNG streams so the
/// workload's traffic draw is untouched and the replay stays deterministic
/// regardless of thread count.
struct FaultDriver {
    plan: FaultPlan,
    rng: SplitMix64,
    fgen: TrafficGen,
    pending: Vec<PendingRepair>,
    downs: Vec<DownLink>,
    flap_cursor: u32,
    metrics: FaultMetrics,
}

impl FaultDriver {
    fn new(plan: &FaultPlan) -> Self {
        FaultDriver {
            plan: *plan,
            rng: SplitMix64::new(plan.seed),
            fgen: TrafficGen::new(plan.seed ^ 0x5EED_FA17, PORTS),
            pending: Vec::new(),
            downs: Vec::new(),
            flap_cursor: 0,
            metrics: FaultMetrics::default(),
        }
    }

    /// Integer-rate draw: `milli / 1000` frames plus a seeded chance of
    /// one more for the fractional part.
    fn count(&mut self, milli: u64) -> u64 {
        milli / 1000 + u64::from(self.rng.below(1000) < milli % 1000)
    }

    /// A routed-or-not destination for an injected frame.
    fn fault_dst(&mut self, routes: &[Route]) -> Ipv6Address {
        if routes.is_empty() {
            "9999::1".parse().expect("valid address")
        } else {
            let p = routes[self.rng.below(routes.len() as u64) as usize].prefix();
            self.fgen.addr_in(&p)
        }
    }
}

struct Harness {
    router: Router<Box<dyn LpmTable>>,
    gen: TrafficGen,
    fifos: Vec<ArrivalFifo>,
    last_polled: Vec<u64>,
    tick: u64,
    service: usize,
    overflow_baseline: u64,
    metrics: ScenarioMetrics,
    faults: Option<FaultDriver>,
    coherence: Option<CoherenceDriver>,
    /// Routes advertised per seeding batch ([`Harness::seed_table`]):
    /// half the card's queue in advertisement frames, so seeding never
    /// tail-drops no matter how large the table is.
    seed_batch: usize,
}

impl Harness {
    fn new(w: &Workload, cfg: &ScenarioConfig, faults: Option<&FaultPlan>) -> Self {
        let interfaces: Vec<InterfaceConfig> = (0..PORTS)
            .map(|i| {
                InterfaceConfig::new(
                    PortId(i),
                    format!("fe80::1:{i}").parse().expect("valid address"),
                    vec![format!("2001:db8:{i}::/48").parse().expect("valid prefix")],
                )
            })
            .collect();
        let mut router = Router::new(interfaces, cfg.kind.build(&[]));
        for i in 0..PORTS {
            router.card_mut(PortId(i)).set_capacity(cfg.queue_capacity as usize);
        }
        let metrics = ScenarioMetrics::new(w.name(), cfg.kind, w.seed(), u64::from(w.ticks()));
        // N cores service N datagrams where one serviced one; the
        // coherence stalls then claw some of that back as budget debt.
        let multicore = cfg.system.cores > 1;
        let service = if multicore {
            cfg.service_per_tick as usize * usize::from(cfg.system.cores)
        } else {
            cfg.service_per_tick as usize
        };
        Harness {
            router,
            gen: TrafficGen::new(w.seed(), PORTS),
            fifos: vec![ArrivalFifo::new(); usize::from(PORTS)],
            last_polled: vec![0; usize::from(PORTS)],
            tick: 0,
            service,
            overflow_baseline: 0,
            metrics,
            faults: faults.map(FaultDriver::new),
            coherence: multicore.then(|| CoherenceDriver::new(cfg.system, w.seed())),
            seed_batch: ADVERT_CHUNK * (cfg.queue_capacity as usize / 2).max(1),
        }
    }

    /// Seeds the routing table before the measured window.  A line card
    /// buffers only `queue_capacity` frames, so internet-size tables
    /// (100k+ prefixes ⇒ thousands of advertisement frames) are injected
    /// in card-sized batches with a drain between them; paper-scale
    /// tables fit one batch and behave exactly as a single advertisement.
    fn seed_table(&mut self, routes: &[Route]) {
        for batch in routes.chunks(self.seed_batch) {
            self.inject_update(0, batch, false);
            self.drain();
        }
        if routes.is_empty() {
            self.drain();
        }
    }

    /// Zeros every measured counter (table seeding happens before the
    /// measured window; the scenario record must not include it).
    fn reset_measurement(&mut self) {
        let keep = &self.metrics;
        self.metrics = ScenarioMetrics::new(keep.scenario, keep.kind, keep.seed, keep.ticks);
        // Seeding traffic warmed the caches; the measured record starts
        // from zeroed counters over that warm state.
        if let Some(c) = &mut self.coherence {
            c.sim.reset_stats();
            c.debt = 0;
        }
        self.overflow_baseline = self.router.cards().iter().map(|c| c.dropped_overflow()).sum();
    }

    fn neighbour_addr(n: u32) -> Ipv6Address {
        format!("fe80::99:{:x}", n + 1).parse().expect("valid address")
    }

    /// Injects a RIPng response advertising (or withdrawing) `routes` from
    /// neighbour `n` on its port, split under the MTU.
    fn inject_update(&mut self, n: u32, routes: &[Route], withdraw: bool) {
        let port = PortId((n % u32::from(PORTS)) as u16);
        let from = Self::neighbour_addr(n);
        for chunk in routes.chunks(ADVERT_CHUNK) {
            let pkt = if withdraw {
                self.gen.ripng_withdrawal(chunk)
            } else {
                self.gen.ripng_response(chunk)
            };
            if self.router.card_mut(port).receive(&ripng_datagram(from, &pkt)) {
                self.fifos[usize::from(port.0)].push_back((self.tick, ArrivalKind::Update));
            }
        }
    }

    /// Injects a repair re-advertisement from neighbour `n`; the first
    /// accepted chunk is tagged so servicing it completes the recovery of
    /// the fault injected at `injected`.  Returns `false` when the whole
    /// advertisement was lost (tail drop or link down) and the repair must
    /// retry.
    fn inject_repair(&mut self, n: u32, routes: &[Route], injected: u64) -> bool {
        let port = PortId((n % u32::from(PORTS)) as u16);
        let from = Self::neighbour_addr(n);
        let mut tagged = false;
        for chunk in routes.chunks(ADVERT_CHUNK) {
            let pkt = self.gen.ripng_response(chunk);
            if self.router.card_mut(port).receive(&ripng_datagram(from, &pkt)) {
                let kind =
                    if tagged { ArrivalKind::Update } else { ArrivalKind::Repair { injected } };
                tagged = true;
                self.fifos[usize::from(port.0)].push_back((self.tick, kind));
            }
        }
        tagged
    }

    /// Injects `k` data datagrams over `routes` at random ports, each
    /// written as the wire frame the card queues.
    fn inject_data(&mut self, routes: &[Route], k: usize) {
        for _ in 0..k {
            let (port, frame) = self.gen.forwarding_frame(routes, HIT_RATIO, PAYLOAD_BYTES);
            self.metrics.offered += 1;
            if self.router.card_mut(port).receive_raw(frame) {
                self.fifos[usize::from(port.0)].push_back((self.tick, ArrivalKind::Data));
            }
        }
    }

    /// Injects one recorded trace datagram verbatim — no RNG draw, so the
    /// replay is the trace and nothing else.
    fn inject_record(&mut self, r: &TraceRecord) {
        self.metrics.offered += 1;
        let frame = data_frame(
            Ipv6Address::new(r.src),
            Ipv6Address::new(r.dst),
            64,
            r.flow_id & 0xf_ffff,
            usize::from(r.payload_len),
        );
        let port = PortId(u16::from(r.linecard) % PORTS);
        if self.router.card_mut(port).receive_raw(frame) {
            self.fifos[usize::from(port.0)].push_back((self.tick, ArrivalKind::Data));
        }
    }

    /// Replays `trace` through the measured window: seeds the derived
    /// routing table, injects each record at its tick, and accumulates
    /// the per-flow section.
    fn replay_trace(&mut self, trace: &FlowTrace) {
        let routes = trace.table();
        self.seed_table(&routes);
        self.reset_measurement();
        let mut per_flow: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        let mut stats = FlowStats::default();
        let records = trace.records();
        let mut next = 0usize;
        // Seeding advanced the engine clock; record ticks are offsets from
        // the start of the measured window.
        let base = self.tick;
        for _ in 0..trace.ticks {
            self.fault_tick(&routes);
            while next < records.len() && u64::from(records[next].tick) + base <= self.tick {
                let r = &records[next];
                *per_flow.entry(r.flow_id).or_insert(0) += 1;
                match r.payload_len {
                    0..=127 => stats.small += 1,
                    128..=768 => stats.medium += 1,
                    _ => stats.large += 1,
                }
                self.inject_record(r);
                next += 1;
            }
            self.service_tick();
        }
        stats.flows = per_flow.len() as u64;
        stats.max_flow_len = per_flow.values().copied().max().unwrap_or(0);
        self.metrics.flows = Some(stats);
    }

    /// One tick of the fault plan: links coming back up re-advertise, due
    /// repairs are issued (with retry/backoff), new flaps and table
    /// corruptions fire, and the tick's malformed and expiring frames are
    /// injected at the cards.  No-op when the run carries no plan.
    fn fault_tick(&mut self, routes: &[Route]) {
        let Some(mut f) = self.faults.take() else { return };
        let tick = self.tick;

        // Links whose down interval ended: carrier returns, and the
        // neighbour re-advertises the routes poisoned at flap time (RIPng
        // convergence under loss).  Recovery completes when that repair
        // advertisement is serviced by the routing core.
        let mut up = Vec::new();
        f.downs.retain(|d| {
            if d.up_at <= tick {
                up.push((d.port, d.since));
                false
            } else {
                true
            }
        });
        for (port, since) in up {
            self.router.card_mut(PortId(port)).set_link_up(true);
            let back: Vec<Route> =
                routes.iter().filter(|r| r.interface().0 == port).copied().collect();
            f.pending.push(PendingRepair {
                due: tick,
                injected: since,
                attempts_left: f.plan.repair_retries,
                neighbour: u32::from(port),
                routes: back,
            });
        }

        // Due repairs: re-advertise; a lost advertisement backs off and
        // retries until its attempts are exhausted, then counts as
        // unrecovered.
        let (due, rest): (Vec<_>, Vec<_>) = f.pending.drain(..).partition(|p| p.due <= tick);
        f.pending = rest;
        for mut p in due {
            if p.routes.is_empty() {
                // Nothing was routed behind the fault; carrier return alone
                // completes the recovery.
                f.metrics.recovered += 1;
                f.metrics.recovery.record(tick - p.injected);
            } else if self.inject_repair(p.neighbour, &p.routes, p.injected) {
                // Queued; the recovery closes when the advert is serviced.
            } else if p.attempts_left > 0 {
                p.attempts_left -= 1;
                p.due = tick + u64::from(f.plan.repair_ticks.max(1));
                f.pending.push(p);
            } else {
                f.metrics.unrecovered += 1;
            }
        }

        // A new link flap: the far-end neighbour poisons the routes behind
        // the port (metric-16 withdrawal), then the carrier drops and the
        // card refuses all input until the down interval ends.
        let fe = u64::from(f.plan.flap_every);
        if fe > 0 && tick % fe == fe / 2 {
            let port = (f.flap_cursor % u32::from(PORTS)) as u16;
            f.flap_cursor += 1;
            if !f.downs.iter().any(|d| d.port == port) {
                f.metrics.injected_flaps += 1;
                let out: Vec<Route> =
                    routes.iter().filter(|r| r.interface().0 == port).copied().collect();
                if !out.is_empty() {
                    self.inject_update(u32::from(port), &out, true);
                }
                self.router.card_mut(PortId(port)).set_link_up(false);
                f.downs.push(DownLink {
                    port,
                    since: tick,
                    up_at: tick + u64::from(f.plan.flap_down_ticks.max(1)),
                });
            }
        }

        // Routing-table entry corruption: a seeded victim entry is detected
        // and invalidated (withdrawn); its repair re-advertisement is
        // scheduled after the bounded re-resolve latency.
        let ce = u64::from(f.plan.corrupt_every);
        if ce > 0 && tick % ce == ce - 1 && !routes.is_empty() && f.pending.len() < 32 {
            f.metrics.injected_corruptions += 1;
            let victim = routes[f.rng.below(routes.len() as u64) as usize];
            self.inject_update(u32::from(victim.interface().0), &[victim], true);
            f.pending.push(PendingRepair {
                due: tick + u64::from(f.plan.repair_ticks.max(1)),
                injected: tick,
                attempts_left: f.plan.repair_retries,
                neighbour: u32::from(victim.interface().0),
                routes: vec![victim],
            });
        }

        // Malformed / truncated frames, straight onto the wire.
        let n_malformed = f.count(f.plan.malformed_per_tick_milli);
        for _ in 0..n_malformed {
            f.metrics.injected_malformed += 1;
            let port = PortId(f.rng.below(u64::from(PORTS)) as u16);
            let dst = f.fault_dst(routes);
            let mut bytes = f.fgen.frame(dst, 8);
            if f.rng.below(2) == 0 {
                // Truncated below the 40-byte fixed header.
                bytes.truncate(f.rng.range_inclusive(1, 39) as usize);
            } else {
                // A version nibble that is not 6.
                let v = [0u8, 4, 5, 7][f.rng.below(4) as usize];
                bytes[0] = (bytes[0] & 0x0f) | (v << 4);
            }
            if self.router.card_mut(port).receive_raw(bytes) {
                self.fifos[usize::from(port.0)].push_back((tick, ArrivalKind::FaultNoise));
            }
        }

        // Hop-limit-zero storm: datagrams that expire at the first hop and
        // bounce an ICMPv6 time-exceeded.
        let src: Ipv6Address = "2001:db8:bad::1".parse().expect("valid address");
        let n_expiring = f.count(f.plan.hop_limit_zero_per_tick_milli);
        for _ in 0..n_expiring {
            f.metrics.injected_hop_limit += 1;
            let port = PortId(f.rng.below(u64::from(PORTS)) as u16);
            let dst = f.fault_dst(routes);
            let hl = f.rng.below(2) as u8; // 0 or 1: both expire here
            let d = Datagram::builder(src, dst)
                .hop_limit(hl)
                .payload(NextHeader::Udp, vec![0xfa])
                .build();
            if self.router.card_mut(port).receive(&d) {
                self.fifos[usize::from(port.0)].push_back((tick, ArrivalKind::FaultNoise));
            }
        }

        self.faults = Some(f);
    }

    /// Runs one budgeted router tick and folds the results into the
    /// metrics.
    fn service_tick(&mut self) {
        let now = SimTime::from_millis(self.tick * TICK_MILLIS);
        // Coherence stalls from earlier ticks are paid here, as a reduced
        // service budget.
        let budget = match &mut self.coherence {
            Some(c) => c.budget(self.service),
            None => self.service,
        };
        let report = self.router.tick_budgeted(now, budget);
        // Footprint high-water mark: under churn the arena-backed engines
        // must stay bounded, and this is the metric that proves it.
        let table_words = self.router.core().table().memory_words() as u64;
        self.metrics.table_memory_words = self.metrics.table_memory_words.max(table_words);
        self.metrics.forwarded += report.forwarded;
        self.metrics.delivered += report.delivered;
        self.metrics.dropped_no_route += report.dropped;
        self.metrics.ripng_sent += report.ripng_sent;
        if let Some(f) = &mut self.faults {
            f.metrics.detected_malformed += report.dropped_malformed;
            f.metrics.detected_hop_limit += report.dropped_hop_limit;
        }
        for i in 0..usize::from(PORTS) {
            let card = self.router.card_mut(PortId(i as u16));
            let polled = card.polled();
            let depth = card.pending() as u64;
            card.clear_transmitted(); // keep memory bounded; output is not measured
            self.metrics.max_queue_depth = self.metrics.max_queue_depth.max(depth);
            for _ in self.last_polled[i]..polled {
                let Some((arrived, kind)) = self.fifos[i].pop_front() else {
                    break;
                };
                let latency = self.tick - arrived;
                match kind {
                    ArrivalKind::Data => {
                        self.metrics.latency.record(latency);
                        if let Some(c) = &mut self.coherence {
                            c.data(table_words);
                        }
                    }
                    ArrivalKind::Update => {
                        self.metrics.update_latency.record(latency);
                        if let Some(c) = &mut self.coherence {
                            c.update(table_words);
                        }
                    }
                    // Injected noise is serviced (it costs budget) but is
                    // not a latency sample.  It still probes the table.
                    ArrivalKind::FaultNoise => {
                        if let Some(c) = &mut self.coherence {
                            c.data(table_words);
                        }
                    }
                    ArrivalKind::Repair { injected } => {
                        self.metrics.update_latency.record(latency);
                        if let Some(c) = &mut self.coherence {
                            c.update(table_words);
                        }
                        if let Some(f) = &mut self.faults {
                            f.metrics.recovered += 1;
                            f.metrics.recovery.record(self.tick - injected);
                        }
                    }
                }
            }
            self.last_polled[i] = polled;
        }
        self.tick += 1;
    }

    /// Drains everything already queued (used between seeding and
    /// measurement), unbudgeted.
    fn drain(&mut self) {
        while self.router.pending() > 0 {
            let before = self.service;
            self.service = usize::MAX;
            self.service_tick();
            self.service = before;
        }
        // One extra tick so startup requests and first periodic updates are
        // behind us before measurement starts.
        let before = self.service;
        self.service = usize::MAX;
        self.service_tick();
        self.service = before;
    }

    fn finish(mut self) -> ScenarioMetrics {
        let overflow: u64 = self.router.cards().iter().map(|c| c.dropped_overflow()).sum();
        self.metrics.dropped_overflow = overflow - self.overflow_baseline;
        self.metrics.final_backlog = self.router.pending() as u64;
        if let Some(f) = self.faults.take() {
            let mut m = f.metrics;
            // Whatever is still outstanding when the scenario ends never
            // recovered: repairs awaiting their due tick, repair adverts
            // queued but never serviced, and links still down.
            m.unrecovered += f.pending.len() as u64 + f.downs.len() as u64;
            for fifo in &self.fifos {
                m.unrecovered +=
                    fifo.iter().filter(|(_, k)| matches!(k, ArrivalKind::Repair { .. })).count()
                        as u64;
            }
            m.dropped_link_down = self.router.cards().iter().map(|c| c.dropped_link_down()).sum();
            self.metrics.faults = Some(m);
        }
        if let Some(c) = self.coherence.take() {
            self.metrics.coherence = Some(*c.sim.stats());
        }
        self.metrics
    }
}

/// Replays `workload` against a router provisioned per `config`.
///
/// Deterministic: the metrics (including their JSON form) are identical
/// for identical inputs, on any thread count and platform.
///
/// # Examples
///
/// ```
/// use taco_routing::TableKind;
/// use taco_workload::{run_scenario, ScenarioConfig, Workload};
///
/// let w = Workload::steady_forward();
/// let m = run_scenario(&w, &ScenarioConfig::new(TableKind::Cam));
/// assert!(m.forwarded > 0);
/// assert_eq!(m, run_scenario(&w, &ScenarioConfig::new(TableKind::Cam)));
/// ```
pub fn run_scenario(workload: &Workload, config: &ScenarioConfig) -> ScenarioMetrics {
    run_scenario_with_faults(workload, config, None)
}

/// [`run_scenario`] with an optional deterministic [`FaultPlan`] layered on
/// top: the plan's faults (malformed frames, expiring datagrams, table
/// corruption with bounded repair, link flaps) fire during the measured
/// window, and the metrics carry a [`FaultMetrics`] record.  Passing `None`
/// is byte-identical to [`run_scenario`].
pub fn run_scenario_with_faults(
    workload: &Workload,
    config: &ScenarioConfig,
    faults: Option<&FaultPlan>,
) -> ScenarioMetrics {
    let mut h = Harness::new(workload, config, faults);
    match *workload {
        Workload::SteadyForward { ticks, packets_per_tick, entries, .. } => {
            let routes = h.gen.table(entries as usize, false);
            h.seed_table(&routes);
            // Zero the seeding traffic out of the measured record.
            h.reset_measurement();
            for _ in 0..ticks {
                h.fault_tick(&routes);
                h.inject_data(&routes, packets_per_tick as usize);
                h.service_tick();
            }
        }
        Workload::BurstOverload {
            ticks,
            mean_per_tick_milli,
            burst_every,
            burst_len,
            burst_multiplier,
            entries,
            ..
        } => {
            let routes = h.gen.table(entries as usize, false);
            h.seed_table(&routes);
            h.reset_measurement();
            for t in 0..ticks {
                h.fault_tick(&routes);
                let mut k = h.gen.arrivals(mean_per_tick_milli);
                if burst_every > 0 && t % burst_every < burst_len {
                    k *= u64::from(burst_multiplier.max(1));
                }
                h.inject_data(&routes, k as usize);
                h.service_tick();
            }
        }
        Workload::RipngConvergence {
            ticks,
            neighbours,
            routes_per_neighbour,
            packets_per_tick,
            ..
        } => {
            let tables: Vec<Vec<Route>> = (0..neighbours)
                .map(|_| h.gen.table(routes_per_neighbour as usize, false))
                .collect();
            let all: Vec<Route> = tables.iter().flatten().copied().collect();
            h.drain(); // settle startup requests only; the table starts cold
            h.reset_measurement();
            for t in 0..ticks {
                // Response storm at t=0 and periodic re-advertisement
                // afterwards (29 s keeps routes ahead of the 180 s timeout).
                if t == 0 || (t > 0 && t % 290 == 0) {
                    for (n, table) in tables.iter().enumerate() {
                        h.inject_update(n as u32, table, false);
                    }
                }
                h.fault_tick(&all);
                h.inject_data(&all, packets_per_tick as usize);
                h.service_tick();
            }
        }
        Workload::TableChurn {
            ticks, packets_per_tick, entries, churn_every, churn_size, ..
        } => {
            // Churn runs on an internet-shaped table: BGP prefix-length
            // mass, provider aggregates with nested more-specifics —
            // the workload that stresses incremental insert/remove and
            // the arena engines' footprint bound at 10k–1M entries.
            let routes = h.gen.bgp_table(entries as usize, false);
            h.seed_table(&routes);
            h.reset_measurement();
            let slice = (churn_size as usize).min(routes.len()).max(1);
            let mut cursor = 0usize;
            let mut withdrawn: Option<Vec<Route>> = None;
            for t in 0..ticks {
                if churn_every > 0 && t % churn_every == churn_every / 2 {
                    match withdrawn.take() {
                        // Alternate: re-advertise the slice pulled last
                        // event, or withdraw the next slice.
                        Some(back) => h.inject_update(0, &back, false),
                        None => {
                            let end = (cursor + slice).min(routes.len());
                            let out: Vec<Route> = routes[cursor..end].to_vec();
                            h.inject_update(0, &out, true);
                            cursor = if end >= routes.len() { 0 } else { end };
                            withdrawn = Some(out);
                        }
                    }
                }
                h.fault_tick(&routes);
                h.inject_data(&routes, packets_per_tick as usize);
                h.service_tick();
            }
        }
        Workload::MixedPlane {
            ticks,
            neighbours,
            routes_per_neighbour,
            packets_per_tick,
            burst_multiplier,
            phase_len,
            ..
        } => {
            let tables: Vec<Vec<Route>> = (0..neighbours)
                .map(|_| h.gen.table(routes_per_neighbour as usize, false))
                .collect();
            let all: Vec<Route> = tables.iter().flatten().copied().collect();
            h.seed_table(&all);
            h.reset_measurement();
            let phase = phase_len.max(1);
            for t in 0..ticks {
                let in_control = (t / phase) % 2 == 0;
                if in_control {
                    // Control storm: each neighbour withdraws its table at
                    // the phase start, then re-advertises mid-phase — the
                    // RIPng convergence churn a flapping peer causes.
                    if t % phase == 0 {
                        for (n, table) in tables.iter().enumerate() {
                            h.inject_update(n as u32, table, true);
                        }
                    } else if t % phase == phase / 2 {
                        for (n, table) in tables.iter().enumerate() {
                            h.inject_update(n as u32, table, false);
                        }
                    }
                    h.inject_data(&all, packets_per_tick as usize);
                } else {
                    // Data burst: the forwarding plane floods while the
                    // control plane is quiet.
                    h.inject_data(&all, (packets_per_tick * burst_multiplier.max(1)) as usize);
                }
                h.fault_tick(&all);
                h.service_tick();
            }
        }
        Workload::TraceReplay { seed, ticks, flows, entries } => {
            let trace = TraceGen::generate(seed, ticks, flows, entries);
            h.replay_trace(&trace);
        }
    }
    h.finish()
}

/// Replays an explicit [`FlowTrace`] — typically one loaded from disk or
/// received over the wire — against a router provisioned per `config`,
/// with an optional [`FaultPlan`] layered on top.
///
/// For a trace regenerated from its own descriptor this is byte-identical
/// to [`run_scenario_with_faults`] on [`Workload::TraceReplay`]; for an
/// externally supplied trace the records are replayed verbatim while the
/// header's `(seed, entries)` still derive the routing table.
pub fn run_trace_replay(
    trace: &FlowTrace,
    config: &ScenarioConfig,
    faults: Option<&FaultPlan>,
) -> ScenarioMetrics {
    let descriptor = trace.descriptor();
    let mut h = Harness::new(&descriptor, config, faults);
    h.replay_trace(trace);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_round_trip() {
        for w in Workload::builtin() {
            assert_eq!(Workload::by_name(w.name()), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn with_seed_changes_only_the_seed() {
        let w = Workload::steady_forward().with_seed(42);
        assert_eq!(w.seed(), 42);
        assert_eq!(w.name(), "steady-forward");
        assert_eq!(w.ticks(), Workload::steady_forward().ticks());
    }

    #[test]
    fn steady_forward_forwards_without_overflow() {
        let m = run_scenario(
            &Workload::SteadyForward { seed: 1, ticks: 60, packets_per_tick: 16, entries: 40 },
            &ScenarioConfig::new(TableKind::Sequential),
        );
        assert_eq!(m.offered, 60 * 16);
        assert!(m.forwarded > 0, "{}", m.to_json());
        assert_eq!(m.dropped_overflow, 0, "{}", m.to_json());
        // ~10% of destinations are deliberately unrouted.
        assert!(m.dropped_no_route > 0, "{}", m.to_json());
        assert!(m.latency.count() > 0);
    }

    #[test]
    fn burst_overload_drops_and_queues() {
        let m = run_scenario(
            &Workload::BurstOverload {
                seed: 2,
                ticks: 120,
                mean_per_tick_milli: 24_000,
                burst_every: 30,
                burst_len: 10,
                burst_multiplier: 6,
                entries: 40,
            },
            &ScenarioConfig::new(TableKind::BalancedTree).service_per_tick(24).queue_capacity(16),
        );
        assert!(m.dropped_overflow > 0, "bursts must overflow: {}", m.to_json());
        assert!(m.max_queue_depth >= 8, "{}", m.to_json());
        assert!(m.latency.max() >= 1, "queueing must show up in latency: {}", m.to_json());
    }

    #[test]
    fn convergence_installs_routes_and_measures_updates() {
        let m = run_scenario(
            &Workload::RipngConvergence {
                seed: 3,
                ticks: 80,
                neighbours: 4,
                routes_per_neighbour: 20,
                packets_per_tick: 12,
            },
            &ScenarioConfig::new(TableKind::Cam),
        );
        assert!(m.table_updates() >= 4, "{}", m.to_json());
        assert!(m.forwarded > 0, "{}", m.to_json());
        assert!(m.ripng_sent > 0, "{}", m.to_json());
        // The cold start drops more than steady state would.
        assert!(m.dropped_no_route > 0, "{}", m.to_json());
    }

    #[test]
    fn churn_withdraws_cause_extra_drops() {
        let churned = run_scenario(
            &Workload::TableChurn {
                seed: 4,
                ticks: 200,
                packets_per_tick: 16,
                entries: 40,
                churn_every: 20,
                churn_size: 20,
            },
            &ScenarioConfig::new(TableKind::Sequential),
        );
        let calm = run_scenario(
            &Workload::TableChurn {
                seed: 4,
                ticks: 200,
                packets_per_tick: 16,
                entries: 40,
                churn_every: 0, // no churn events at all
                churn_size: 20,
            },
            &ScenarioConfig::new(TableKind::Sequential),
        );
        assert!(churned.table_updates() > calm.table_updates());
        assert!(
            churned.dropped_no_route > calm.dropped_no_route,
            "withdrawing half the table must cost forwards: {} vs {}",
            churned.dropped_no_route,
            calm.dropped_no_route
        );
    }

    #[test]
    fn same_seed_same_metrics_across_kinds() {
        for kind in TableKind::PAPER_KINDS {
            let w =
                Workload::SteadyForward { seed: 9, ticks: 40, packets_per_tick: 8, entries: 20 };
            let a = run_scenario(&w, &ScenarioConfig::new(kind));
            let b = run_scenario(&w, &ScenarioConfig::new(kind));
            assert_eq!(a.to_json(), b.to_json(), "{kind}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ScenarioConfig::new(TableKind::Sequential);
        let a = run_scenario(&Workload::steady_forward(), &cfg);
        let b = run_scenario(&Workload::steady_forward().with_seed(1), &cfg);
        assert_ne!(a.to_json(), b.to_json());
    }

    fn small_steady() -> Workload {
        Workload::SteadyForward { seed: 11, ticks: 120, packets_per_tick: 8, entries: 24 }
    }

    #[test]
    fn no_plan_and_none_are_byte_identical() {
        let cfg = ScenarioConfig::new(TableKind::Cam);
        let plain = run_scenario(&small_steady(), &cfg);
        let explicit = run_scenario_with_faults(&small_steady(), &cfg, None);
        assert_eq!(plain.to_json(), explicit.to_json());
        assert!(plain.faults.is_none());
    }

    #[test]
    fn storm_injects_detects_and_recovers() {
        let cfg = ScenarioConfig::new(TableKind::Cam);
        let m = run_scenario_with_faults(&small_steady(), &cfg, Some(&FaultPlan::storm()));
        let f = m.faults.as_ref().expect("plan attached");
        assert!(f.injected_malformed > 0, "{}", m.to_json());
        assert!(f.injected_hop_limit > 0, "{}", m.to_json());
        assert!(f.injected_corruptions > 0, "{}", m.to_json());
        assert!(f.injected_flaps > 0, "{}", m.to_json());
        // Graceful degradation: every malformed frame the core serviced was
        // detected and dropped, never panicked on, and expiring datagrams
        // were classified as hop-limit drops.
        assert!(f.detected_malformed > 0, "{}", m.to_json());
        assert!(f.detected_hop_limit > 0, "{}", m.to_json());
        assert!(f.detected_malformed <= f.injected_malformed);
        // Repairs complete within the run (the CAM services fast enough).
        assert!(f.recovered > 0, "{}", m.to_json());
        assert_eq!(f.recovered, f.recovery.count());
        // Down links refused traffic.
        assert!(f.dropped_link_down > 0, "{}", m.to_json());
        // The data plane still made progress.
        assert!(m.forwarded > 0, "{}", m.to_json());
    }

    #[test]
    fn faulted_replay_is_deterministic_and_seeded() {
        let cfg = ScenarioConfig::new(TableKind::Sequential);
        let plan = FaultPlan::storm();
        let a = run_scenario_with_faults(&small_steady(), &cfg, Some(&plan));
        let b = run_scenario_with_faults(&small_steady(), &cfg, Some(&plan));
        assert_eq!(a.to_json(), b.to_json(), "same plan, same bytes");
        let c = run_scenario_with_faults(&small_steady(), &cfg, Some(&plan.with_seed(99)));
        assert_ne!(a.to_json(), c.to_json(), "the plan seed drives the injection stream");
    }

    #[test]
    fn impossible_repairs_count_as_unrecovered() {
        // Repairs scheduled far beyond the scenario horizon can never be
        // serviced; they must be reported, not lost.
        let plan = FaultPlan { corrupt_every: 10, repair_ticks: 100_000, ..FaultPlan::none() };
        let cfg = ScenarioConfig::new(TableKind::Cam);
        let m = run_scenario_with_faults(&small_steady(), &cfg, Some(&plan));
        let f = m.faults.as_ref().expect("plan attached");
        assert!(f.injected_corruptions > 0);
        assert_eq!(f.recovered, 0, "{}", m.to_json());
        assert!(f.unrecovered > 0, "{}", m.to_json());
    }

    #[test]
    fn mixed_plane_exercises_both_planes() {
        let m = run_scenario(&Workload::mixed_plane(), &ScenarioConfig::new(TableKind::Cam));
        assert!(m.forwarded > 0, "{}", m.to_json());
        assert!(m.table_updates() > 0, "withdraw/re-advertise storms: {}", m.to_json());
        // Withdrawn slices must cost forwards while they are out.
        assert!(m.dropped_no_route > 0, "{}", m.to_json());
        assert!(m.flows.is_none(), "only trace replays carry a flow section");
        // Determinism.
        let again = run_scenario(&Workload::mixed_plane(), &ScenarioConfig::new(TableKind::Cam));
        assert_eq!(m.to_json(), again.to_json());
    }

    #[test]
    fn trace_replay_regenerates_from_the_descriptor() {
        let w = Workload::TraceReplay { seed: 5, ticks: 120, flows: 32, entries: 40 };
        let cfg = ScenarioConfig::new(TableKind::Cam);
        let m = run_scenario(&w, &cfg);
        let f = m.flows.expect("trace replays carry a flow section");
        assert!(f.flows > 0 && f.flows <= 32, "{}", m.to_json());
        assert_eq!(f.packets(), m.offered, "{}", m.to_json());
        assert!(f.small > 0, "{}", m.to_json());
        assert!(m.forwarded > 0, "{}", m.to_json());
        assert_eq!(m.to_json(), run_scenario(&w, &cfg).to_json());
    }

    #[test]
    fn explicit_trace_matches_the_descriptor_replay() {
        let w = Workload::TraceReplay { seed: 5, ticks: 120, flows: 32, entries: 40 };
        let cfg = ScenarioConfig::new(TableKind::BalancedTree);
        let from_descriptor = run_scenario(&w, &cfg);
        let trace = TraceGen::generate(5, 120, 32, 40);
        let explicit = run_trace_replay(&trace, &cfg, None);
        assert_eq!(from_descriptor.to_json(), explicit.to_json());
        // And it composes with faults deterministically.
        let a = run_trace_replay(&trace, &cfg, Some(&FaultPlan::malformed()));
        let b = run_trace_replay(&trace, &cfg, Some(&FaultPlan::malformed()));
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.faults.is_some() && a.flows.is_some());
    }

    #[test]
    fn explicit_single_core_system_is_byte_identical_to_the_default() {
        let base = ScenarioConfig::new(TableKind::Cam);
        let explicit = base.system(SystemConfig::with_cores(1));
        let a = run_scenario(&small_steady(), &base);
        let b = run_scenario(&small_steady(), &explicit);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.coherence.is_none(), "single-core runs carry no coherence section");
    }

    fn churny() -> Workload {
        Workload::TableChurn {
            seed: 4,
            ticks: 200,
            packets_per_tick: 16,
            entries: 40,
            churn_every: 20,
            churn_size: 20,
        }
    }

    #[test]
    fn multicore_churn_generates_coherence_traffic() {
        let cfg = ScenarioConfig::new(TableKind::Cam).system(SystemConfig::with_cores(4));
        let m = run_scenario(&churny(), &cfg);
        let c = m.coherence.expect("multicore runs carry a coherence section");
        assert!(c.reads > 0 && c.writes > 0, "{}", m.to_json());
        assert!(c.invalidations > 0, "table writes must invalidate: {}", m.to_json());
        assert!(c.stall_cycles > 0, "{}", m.to_json());
        assert_eq!(c.hits + c.misses, c.reads + c.writes);
        // Byte determinism, including the coherence section.
        assert_eq!(m.to_json(), run_scenario(&churny(), &cfg).to_json());
    }

    #[test]
    fn mesh_and_bus_interconnects_measure_differently() {
        use taco_isa::Topology;
        let bus = ScenarioConfig::new(TableKind::Cam).system(SystemConfig::with_cores(4));
        let mesh = ScenarioConfig::new(TableKind::Cam)
            .system(SystemConfig::with_cores(4).topology(Topology::Mesh));
        let a = run_scenario(&churny(), &bus);
        let b = run_scenario(&churny(), &mesh);
        let (ca, cb) = (a.coherence.unwrap(), b.coherence.unwrap());
        assert_ne!(
            (ca.stall_cycles, ca.busy_cycles),
            (cb.stall_cycles, cb.busy_cycles),
            "topology must shape the stall profile"
        );
    }

    #[test]
    fn mesi_never_pays_more_upgrades_than_msi() {
        use taco_isa::CoherenceProtocol;
        let mesi = ScenarioConfig::new(TableKind::Cam)
            .system(SystemConfig::with_cores(2).protocol(CoherenceProtocol::Mesi));
        let msi = ScenarioConfig::new(TableKind::Cam)
            .system(SystemConfig::with_cores(2).protocol(CoherenceProtocol::Msi));
        let a = run_scenario(&churny(), &mesi).coherence.unwrap();
        let b = run_scenario(&churny(), &msi).coherence.unwrap();
        assert!(
            a.upgrade_stalls <= b.upgrade_stalls,
            "{} vs {}",
            a.upgrade_stalls,
            b.upgrade_stalls
        );
    }

    #[test]
    fn mixed_plane_is_a_coherence_scenario() {
        let cfg = ScenarioConfig::new(TableKind::Cam).system(SystemConfig::with_cores(2));
        let m = run_scenario(&Workload::mixed_plane(), &cfg);
        let c = m.coherence.expect("coherence section");
        assert!(c.invalidations > 0, "withdraw/re-advertise storms invalidate: {}", m.to_json());
        assert!(m.forwarded > 0);
    }

    #[test]
    fn malformed_only_plan_leaves_the_control_plane_alone() {
        let cfg = ScenarioConfig::new(TableKind::BalancedTree);
        let m = run_scenario_with_faults(&small_steady(), &cfg, Some(&FaultPlan::malformed()));
        let f = m.faults.as_ref().expect("plan attached");
        assert!(f.injected_malformed > 0);
        assert_eq!(f.injected_flaps, 0);
        assert_eq!(f.injected_corruptions, 0);
        assert_eq!(f.unrecovered, 0, "nothing to repair: {}", m.to_json());
        assert_eq!(f.dropped_link_down, 0);
    }
}
