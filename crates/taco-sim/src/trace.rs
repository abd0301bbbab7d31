//! Cycle-level event tracing.
//!
//! The paper reads *module utilization* and bus occupancy out of its
//! SystemC model; [`SimStats`](crate::SimStats) keeps the end-of-run
//! aggregates, but some questions need the time axis back: *when* was a
//! bus busy, which FU stalled a datagram, how long did one datagram sit
//! in flight?  A [`Tracer`] answers those by observing every scheduling
//! event the [`Processor`](crate::Processor) makes, at cycle granularity.
//!
//! Tracing follows Reshadi & Dutt's rule for generated cycle-accurate
//! simulators: instrumentation must vanish from the hot path when it is
//! off.  The processor's step loop is generic over the tracer, so the
//! [`NullTracer`] monomorphises to empty inlined calls and the untraced
//! simulation compiles to exactly the code it had before tracing existed;
//! dynamic dispatch is paid only on the explicitly traced entry points.
//!
//! Three tracers ship:
//!
//! * [`NullTracer`] — the zero-cost default;
//! * [`RingTracer`] — a bounded in-memory ring of [`TraceEvent`]s, for
//!   tests and ASCII rendering (and the [`TraceCounters`] reconciliation
//!   with [`SimStats`](crate::SimStats));
//! * [`ChromeTracer`] — streams the run as Chrome `about://tracing` JSON,
//!   one "thread" per bus and per FU instance, loadable in Perfetto.

use std::collections::VecDeque;
use std::fmt::Write as _;

use taco_isa::FuRef;

/// One cycle-level scheduling event.
///
/// Cycles are the simulator's own counter ([`Processor::cycles`]); bus
/// indices are instruction slot positions (`0..buses`).
///
/// [`Processor::cycles`]: crate::Processor::cycles
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A move's guard passed (or it had none) and its transport executed
    /// on `bus`.
    MoveExecuted {
        /// Cycle the move executed in.
        cycle: u64,
        /// Bus (instruction slot) the move occupied.
        bus: u8,
        /// Program counter of the executing instruction.
        pc: u32,
    },
    /// A move's guard failed; it occupied `bus` but transported nothing.
    MoveSquashed {
        /// Cycle the move was squashed in.
        cycle: u64,
        /// Bus (instruction slot) the move occupied.
        bus: u8,
        /// Program counter of the executing instruction.
        pc: u32,
    },
    /// An FU trigger port was written: the unit starts its operation.
    FuTriggered {
        /// Cycle of the trigger write.
        cycle: u64,
        /// The triggered unit instance.
        fu: FuRef,
    },
    /// The unit's result becomes architecturally visible (the cycle a
    /// read of its result port would first observe the new value — one
    /// cycle after the trigger for the single-cycle datapath FUs, the
    /// RTU's configured latency later for lookups).
    FuRetired {
        /// First cycle the result is visible.
        cycle: u64,
        /// The retiring unit instance.
        fu: FuRef,
    },
    /// The processor entered an RTU-interlock stall.
    StallBegin {
        /// First stalled cycle.
        cycle: u64,
    },
    /// The stall released: `cycle` is the first cycle that executed
    /// again, so `cycle - begin` is the stalled-cycle count.
    StallEnd {
        /// First executing cycle after the stall.
        cycle: u64,
    },
    /// An injected transient fault started stealing cycles (see
    /// [`PeriodicStall`](crate::PeriodicStall)).
    FaultStallBegin {
        /// First stolen cycle.
        cycle: u64,
    },
    /// The injected fault released: `cycle` is the first cycle that
    /// executed again, so `cycle - begin` is the stolen-cycle count.
    FaultStallEnd {
        /// First executing cycle after the fault.
        cycle: u64,
    },
    /// The iPPU handed the processor a datagram: its in-flight span opens.
    DatagramBegin {
        /// Cycle the iPPU pop landed.
        cycle: u64,
        /// Memory pointer of the datagram buffer.
        ptr: u32,
        /// Input interface the datagram arrived on.
        iface: u32,
    },
    /// The oPPU emitted a datagram: its in-flight span closes.
    DatagramEnd {
        /// Cycle of the oPPU emission.
        cycle: u64,
        /// Memory pointer of the datagram buffer.
        ptr: u32,
        /// Output interface the datagram leaves on.
        iface: u32,
    },
}

impl TraceEvent {
    /// The cycle this event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::MoveExecuted { cycle, .. }
            | TraceEvent::MoveSquashed { cycle, .. }
            | TraceEvent::FuTriggered { cycle, .. }
            | TraceEvent::FuRetired { cycle, .. }
            | TraceEvent::StallBegin { cycle }
            | TraceEvent::StallEnd { cycle }
            | TraceEvent::FaultStallBegin { cycle }
            | TraceEvent::FaultStallEnd { cycle }
            | TraceEvent::DatagramBegin { cycle, .. }
            | TraceEvent::DatagramEnd { cycle, .. } => cycle,
        }
    }
}

/// Observes cycle-level events from a running processor.
///
/// Implementations should be cheap: the processor calls [`Tracer::event`]
/// from its innermost loop, several times per cycle.
pub trait Tracer {
    /// Receives one event.  Events arrive in non-decreasing cycle order,
    /// except [`TraceEvent::FuRetired`], which is stamped with the future
    /// cycle its result becomes visible and delivered at trigger time.
    fn event(&mut self, event: &TraceEvent);

    /// Called once per instruction word the processor issues (never for a
    /// stalled or stolen cycle), with the word's index: the hook a block
    /// profile counts visits with.  Every shipped tracer keeps this empty
    /// default, so for [`NullTracer`] it monomorphises to nothing.
    #[inline(always)]
    fn issued(&mut self, _pc: usize) {}
}

/// The zero-cost default: ignores everything.
///
/// The processor's untraced entry points run with a `NullTracer`
/// monomorphised into the step loop, so the disabled path carries no
/// branches, no virtual calls and no event construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline(always)]
    fn event(&mut self, _event: &TraceEvent) {}
}

/// A bounded in-memory event ring: keeps the most recent `capacity`
/// events, counting (rather than keeping) anything older.
///
/// # Examples
///
/// ```
/// use taco_sim::trace::{RingTracer, Tracer, TraceEvent};
///
/// let mut ring = RingTracer::new(2);
/// for cycle in 0..3 {
///     ring.event(&TraceEvent::StallBegin { cycle });
/// }
/// assert_eq!(ring.events().len(), 2);
/// assert_eq!(ring.dropped(), 1);
/// assert_eq!(ring.events()[0].cycle(), 1); // oldest kept
/// ```
#[derive(Debug, Clone, Default)]
pub struct RingTracer {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl RingTracer {
    /// A ring keeping at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RingTracer { capacity, events: VecDeque::new(), dropped: 0 }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Events evicted because the ring was full.  Zero means the capture
    /// is complete and [`TraceCounters::from_events`] reconciles exactly
    /// with the run's [`SimStats`](crate::SimStats).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` if nothing was evicted.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }
}

impl Tracer for RingTracer {
    fn event(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(*event);
    }
}

/// The counter projection a trace can be replayed into — exactly the
/// [`SimStats`](crate::SimStats) fields an event stream determines.
///
/// This is the reconciliation contract the property tests pin down: for a
/// complete capture (no ring evictions), replaying the events reproduces
/// the simulator's own aggregate counters bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Moves whose guard passed.
    pub moves_executed: u64,
    /// Moves whose guard failed.
    pub moves_squashed: u64,
    /// Cycles spent in RTU-interlock stalls (closed begin/end pairs; an
    /// open stall at capture end — a watchdog-killed run — contributes
    /// nothing).
    pub stall_cycles: u64,
    /// Cycles stolen by injected faults (closed begin/end pairs, same
    /// accounting as [`TraceCounters::stall_cycles`]; zero in fault-free
    /// runs, keeping the reconciliation exact).
    pub injected_stall_cycles: u64,
    /// Trigger counts per FU instance.
    pub fu_instance_triggers: crate::TriggerCounts,
}

impl TraceCounters {
    /// Replays an event stream into counters.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut counters = TraceCounters::default();
        let mut open_stall: Option<u64> = None;
        let mut open_fault: Option<u64> = None;
        for event in events {
            match *event {
                TraceEvent::MoveExecuted { .. } => counters.moves_executed += 1,
                TraceEvent::MoveSquashed { .. } => counters.moves_squashed += 1,
                TraceEvent::FuTriggered { fu, .. } => {
                    counters.fu_instance_triggers.add(fu, 1);
                }
                TraceEvent::StallBegin { cycle } => open_stall = Some(cycle),
                TraceEvent::StallEnd { cycle } => {
                    if let Some(begin) = open_stall.take() {
                        counters.stall_cycles += cycle.saturating_sub(begin);
                    }
                }
                TraceEvent::FaultStallBegin { cycle } => open_fault = Some(cycle),
                TraceEvent::FaultStallEnd { cycle } => {
                    if let Some(begin) = open_fault.take() {
                        counters.injected_stall_cycles += cycle.saturating_sub(begin);
                    }
                }
                TraceEvent::FuRetired { .. }
                | TraceEvent::DatagramBegin { .. }
                | TraceEvent::DatagramEnd { .. } => {}
            }
        }
        counters
    }
}

/// Streams the run as Chrome trace-event JSON.
///
/// Load the output of [`ChromeTracer::finish`] in Perfetto or
/// `chrome://tracing`: each bus is a named "thread" carrying 1-cycle
/// move/squash slices, each FU instance a thread carrying trigger→retire
/// operation slices, with RTU stalls and datagram lifetimes on their own
/// rows.  Timestamps are cycles (the viewer displays them as µs — read
/// the axis as cycles).
#[derive(Debug, Clone)]
pub struct ChromeTracer {
    buses: u8,
    body: String,
    first: bool,
    fu_tids: Vec<(FuRef, u64)>,
    open_fu: Vec<(FuRef, u64, u64)>,
    open_stall: Option<u64>,
    open_fault: Option<u64>,
    open_dgrams: Vec<(u32, u64, u32)>,
}

/// Process id used for every emitted event (the trace models one
/// processor).
const CHROME_PID: u32 = 1;

impl ChromeTracer {
    /// A tracer for a machine with `buses` buses.
    pub fn new(buses: u8) -> Self {
        let mut tracer = ChromeTracer {
            buses,
            body: String::with_capacity(4096),
            first: true,
            fu_tids: Vec::new(),
            open_fu: Vec::new(),
            open_stall: None,
            open_fault: None,
            open_dgrams: Vec::new(),
        };
        for bus in 0..buses {
            tracer.thread_name(u64::from(bus), &format!("bus{bus}"));
        }
        tracer.thread_name(tracer.stall_tid(), "rtu-stall");
        tracer.thread_name(tracer.dgram_tid(), "datagrams");
        tracer.thread_name(tracer.fault_tid(), "fault-stall");
        tracer
    }

    fn stall_tid(&self) -> u64 {
        u64::from(self.buses)
    }

    fn dgram_tid(&self) -> u64 {
        u64::from(self.buses) + 1
    }

    fn fault_tid(&self) -> u64 {
        u64::from(self.buses) + 2
    }

    fn fu_tid(&mut self, fu: FuRef) -> u64 {
        if let Some(&(_, tid)) = self.fu_tids.iter().find(|(f, _)| *f == fu) {
            return tid;
        }
        let tid = u64::from(self.buses) + 3 + self.fu_tids.len() as u64;
        self.fu_tids.push((fu, tid));
        self.thread_name(tid, &fu.to_string());
        tid
    }

    fn push_raw(&mut self, record: &str) {
        if !self.first {
            self.body.push(',');
        }
        self.first = false;
        self.body.push('\n');
        self.body.push_str(record);
    }

    fn thread_name(&mut self, tid: u64, name: &str) {
        let record = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{CHROME_PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
        self.push_raw(&record);
    }

    /// Emits a complete ("X") slice.  `args` must be empty or a complete
    /// JSON object body (`"k":v,...`).
    fn slice(&mut self, name: &str, tid: u64, start: u64, dur: u64, args: &str) {
        let mut record = format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":{CHROME_PID},\"tid\":{tid},\
             \"ts\":{start},\"dur\":{dur}"
        );
        if !args.is_empty() {
            let _ = write!(record, ",\"args\":{{{args}}}");
        }
        record.push('}');
        self.push_raw(&record);
    }

    /// Closes any spans still open at `cycle` and returns the finished
    /// JSON document (an object with a `traceEvents` array, the format
    /// Perfetto and `chrome://tracing` both load).
    pub fn finish(mut self, end_cycle: u64) -> String {
        if let Some(begin) = self.open_stall.take() {
            self.slice("rtu stall", self.stall_tid(), begin, end_cycle.saturating_sub(begin), "");
        }
        if let Some(begin) = self.open_fault.take() {
            self.slice(
                "injected fault",
                self.fault_tid(),
                begin,
                end_cycle.saturating_sub(begin),
                "",
            );
        }
        let open_fu = std::mem::take(&mut self.open_fu);
        for (fu, trigger, retire) in open_fu {
            let tid = self.fu_tid(fu);
            self.slice(&fu.to_string(), tid, trigger, retire.saturating_sub(trigger), "");
        }
        let open_dgrams = std::mem::take(&mut self.open_dgrams);
        for (ptr, begin, iface) in open_dgrams {
            self.slice(
                "datagram (in flight at end)",
                self.dgram_tid(),
                begin,
                end_cycle.saturating_sub(begin),
                &format!("\"ptr\":{ptr},\"in_iface\":{iface}"),
            );
        }
        format!("{{\"traceEvents\":[{}\n],\"displayTimeUnit\":\"ms\"}}\n", self.body)
    }
}

impl Tracer for ChromeTracer {
    fn event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::MoveExecuted { cycle, bus, pc } => {
                self.slice("move", u64::from(bus), cycle, 1, &format!("\"pc\":{pc}"));
            }
            TraceEvent::MoveSquashed { cycle, bus, pc } => {
                self.slice("squashed", u64::from(bus), cycle, 1, &format!("\"pc\":{pc}"));
            }
            TraceEvent::FuTriggered { cycle, fu } => {
                // Retire arrives as its own event (stamped with the visible
                // cycle); remember the trigger until then.
                self.open_fu.push((fu, cycle, cycle + 1));
            }
            TraceEvent::FuRetired { cycle, fu } => {
                if let Some(i) = self.open_fu.iter().position(|(f, _, _)| *f == fu) {
                    let (_, trigger, _) = self.open_fu.remove(i);
                    let tid = self.fu_tid(fu);
                    self.slice(
                        &fu.to_string(),
                        tid,
                        trigger,
                        cycle.saturating_sub(trigger).max(1),
                        "",
                    );
                }
            }
            TraceEvent::StallBegin { cycle } => self.open_stall = Some(cycle),
            TraceEvent::StallEnd { cycle } => {
                if let Some(begin) = self.open_stall.take() {
                    self.slice(
                        "rtu stall",
                        self.stall_tid(),
                        begin,
                        cycle.saturating_sub(begin),
                        "",
                    );
                }
            }
            TraceEvent::FaultStallBegin { cycle } => self.open_fault = Some(cycle),
            TraceEvent::FaultStallEnd { cycle } => {
                if let Some(begin) = self.open_fault.take() {
                    self.slice(
                        "injected fault",
                        self.fault_tid(),
                        begin,
                        cycle.saturating_sub(begin),
                        "",
                    );
                }
            }
            TraceEvent::DatagramBegin { cycle, ptr, iface } => {
                self.open_dgrams.push((ptr, cycle, iface));
            }
            TraceEvent::DatagramEnd { cycle, ptr, iface } => {
                if let Some(i) = self.open_dgrams.iter().position(|(p, _, _)| *p == ptr) {
                    let (_, begin, in_iface) = self.open_dgrams.remove(i);
                    let tid = self.dgram_tid();
                    self.slice(
                        "datagram",
                        tid,
                        begin,
                        cycle.saturating_sub(begin).max(1),
                        &format!("\"ptr\":{ptr},\"in_iface\":{in_iface},\"out_iface\":{iface}"),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_isa::FuKind;

    fn fu(i: u8) -> FuRef {
        FuRef::new(FuKind::Counter, i)
    }

    #[test]
    fn ring_keeps_the_newest_events() {
        let mut ring = RingTracer::new(3);
        for cycle in 0..5 {
            ring.event(&TraceEvent::StallBegin { cycle });
        }
        assert_eq!(ring.dropped(), 2);
        assert!(!ring.is_complete());
        let cycles: Vec<u64> = ring.events().iter().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_ring_only_counts() {
        let mut ring = RingTracer::new(0);
        ring.event(&TraceEvent::StallBegin { cycle: 1 });
        assert!(ring.events().is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn replay_counts_moves_triggers_and_stalls() {
        let events = [
            TraceEvent::MoveExecuted { cycle: 0, bus: 0, pc: 0 },
            TraceEvent::MoveSquashed { cycle: 0, bus: 1, pc: 0 },
            TraceEvent::FuTriggered { cycle: 0, fu: fu(0) },
            TraceEvent::FuRetired { cycle: 1, fu: fu(0) },
            TraceEvent::StallBegin { cycle: 1 },
            TraceEvent::StallEnd { cycle: 4 },
            TraceEvent::MoveExecuted { cycle: 4, bus: 0, pc: 1 },
            TraceEvent::FuTriggered { cycle: 4, fu: fu(0) },
        ];
        let counters = TraceCounters::from_events(&events);
        assert_eq!(counters.moves_executed, 2);
        assert_eq!(counters.moves_squashed, 1);
        assert_eq!(counters.stall_cycles, 3);
        assert_eq!(counters.fu_instance_triggers.iter().collect::<Vec<_>>(), [(fu(0), 2)]);
    }

    #[test]
    fn replay_ignores_an_open_stall() {
        let events = [TraceEvent::StallBegin { cycle: 7 }];
        assert_eq!(TraceCounters::from_events(&events).stall_cycles, 0);
    }

    #[test]
    fn chrome_trace_is_valid_shape() {
        let mut chrome = ChromeTracer::new(2);
        chrome.event(&TraceEvent::MoveExecuted { cycle: 0, bus: 0, pc: 0 });
        chrome.event(&TraceEvent::MoveSquashed { cycle: 0, bus: 1, pc: 0 });
        chrome.event(&TraceEvent::FuTriggered { cycle: 0, fu: fu(0) });
        chrome.event(&TraceEvent::FuRetired { cycle: 1, fu: fu(0) });
        chrome.event(&TraceEvent::StallBegin { cycle: 2 });
        chrome.event(&TraceEvent::StallEnd { cycle: 5 });
        chrome.event(&TraceEvent::DatagramBegin { cycle: 0, ptr: 64, iface: 1 });
        chrome.event(&TraceEvent::DatagramEnd { cycle: 6, ptr: 64, iface: 3 });
        let json = chrome.finish(6);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.trim_end().ends_with('}'), "{json}");
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"name\":\"bus0\""), "{json}");
        assert!(json.contains("\"name\":\"cnt0\""), "{json}");
        assert!(json.contains("\"name\":\"rtu stall\""), "{json}");
        assert!(json.contains("\"dur\":3"), "stall span is 3 cycles: {json}");
        assert!(json.contains("\"out_iface\":3"), "{json}");
        // Balanced braces/brackets — the cheap structural check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }

    #[test]
    fn chrome_finish_closes_open_spans() {
        let mut chrome = ChromeTracer::new(1);
        chrome.event(&TraceEvent::StallBegin { cycle: 3 });
        chrome.event(&TraceEvent::DatagramBegin { cycle: 1, ptr: 8, iface: 0 });
        chrome.event(&TraceEvent::FaultStallBegin { cycle: 5 });
        let json = chrome.finish(10);
        assert!(json.contains("rtu stall"), "{json}");
        assert!(json.contains("in flight at end"), "{json}");
        assert!(json.contains("injected fault"), "{json}");
    }

    #[test]
    fn fault_spans_land_on_their_own_row() {
        let mut chrome = ChromeTracer::new(2);
        chrome.event(&TraceEvent::FaultStallBegin { cycle: 4 });
        chrome.event(&TraceEvent::FaultStallEnd { cycle: 6 });
        let json = chrome.finish(6);
        assert!(json.contains("\"name\":\"fault-stall\""), "{json}");
        assert!(json.contains("\"name\":\"injected fault\",\"ph\":\"X\""), "{json}");
        // 2 buses → fault row is tid 4 (after rtu-stall and datagrams).
        assert!(json.contains("\"tid\":4,\"ts\":4,\"dur\":2"), "{json}");
    }

    #[test]
    fn fault_replay_counts_stolen_cycles() {
        let events = [
            TraceEvent::FaultStallBegin { cycle: 2 },
            TraceEvent::FaultStallEnd { cycle: 5 },
            TraceEvent::FaultStallBegin { cycle: 9 }, // never closed
        ];
        let counters = TraceCounters::from_events(&events);
        assert_eq!(counters.injected_stall_cycles, 3);
        assert_eq!(counters.stall_cycles, 0);
    }
}
