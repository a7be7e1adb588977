//! Regression gate: the steady-state admit path of the open-loop engine
//! makes **zero heap allocations** once a reused [`SimScratch`] is warm.
//!
//! A counting global allocator is armed by the traffic source itself
//! after a few warm-up messages and disarmed when the source runs dry, so
//! the counted window covers exactly the steady-state portion of the
//! run — offers, admissions, transmission starts, completions and
//! retirements interleaved — and not the run's setup or the report
//! assembly. A saturated dynamic run keeps the wake-ups of blocked heads
//! in that window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use onoc_photonics::EnergyParams;
use onoc_sim::{
    DynamicPolicy, EnergyModel, EnergyProbe, OpenLoopReport, OpenLoopSimulator, ReportMode,
    SimScratch, StaticFlowMap, TimeSeriesProbe, TrafficEvent, TrafficSource, WavelengthMode,
};
use onoc_topology::{NodeId, RingTopology};
use onoc_units::{Bits, BitsPerCycle};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// A deterministic 64-message open-loop workload on the 16-node ring.
fn workload() -> Vec<TrafficEvent> {
    (0..64u64)
        .map(|k| TrafficEvent {
            time: k * 3,
            src: NodeId((k % 16) as usize),
            dst: NodeId(((k % 16 + 1 + k % 7) % 16) as usize),
            volume: Bits::new(96.0),
        })
        .collect()
}

/// 256 long messages, one per cycle, on the same ring: far past its
/// capacity, so heads block and releases wake them.
fn saturated() -> Vec<TrafficEvent> {
    (0..256u64)
        .map(|k| TrafficEvent {
            time: k,
            src: NodeId((k * 5 % 16) as usize),
            dst: NodeId(((k * 5 + 3 + k % 9) % 16) as usize),
            volume: Bits::new(384.0),
        })
        .collect()
}

/// Arms the allocation counter after `warmup` events and disarms it when
/// the stream ends.
struct ArmingSource {
    events: std::vec::IntoIter<TrafficEvent>,
    seen: usize,
    warmup: usize,
}

impl TrafficSource for ArmingSource {
    fn next_event(&mut self) -> Option<TrafficEvent> {
        let next = self.events.next();
        if next.is_none() {
            ARMED.store(false, Ordering::SeqCst);
            return None;
        }
        self.seen += 1;
        if self.seen == self.warmup {
            ARMED.store(true, Ordering::SeqCst);
        }
        next
    }
}

#[test]
fn steady_state_admit_path_is_allocation_free() {
    counted_run(
        "dynamic",
        WavelengthMode::Dynamic(DynamicPolicy::Single),
        workload,
    );
    for (name, policy) in [
        ("saturated single", DynamicPolicy::Single),
        ("saturated greedy", DynamicPolicy::Greedy { cap: 3 }),
    ] {
        let report = counted_run(name, WavelengthMode::Dynamic(policy), saturated);
        let counters = report.counters;
        assert!(
            counters.waiters_passed > 0 && counters.waiters_examined > counters.waiters_passed,
            "{name}: the run wakes heads and rejects some ({counters:?})"
        );
    }
    // Every slot of a striped map is shared, so the conflict counter
    // runs on each start and completion.
    let striped = counted_run(
        "striped",
        WavelengthMode::Static(StaticFlowMap::striped(16, 4, 1)),
        workload,
    );
    assert!(striped.conflict_count > 0, "the workload collides");
}

/// Runs `workload` on a warm scratch with the allocation counter armed
/// for its steady state, and requires zero allocations there.
fn counted_run(
    name: &str,
    mode: WavelengthMode,
    workload: fn() -> Vec<TrafficEvent>,
) -> OpenLoopReport {
    let sim = OpenLoopSimulator::new(RingTopology::new(16), 4, BitsPerCycle::new(1.0), mode);
    let mut scratch = SimScratch::new();
    // The probes attach *inside* the counted window: per-lane, per-source
    // and per-flow buffers are sized at construction and the telemetry
    // window vector is hinted past the run's horizon, so observing
    // admissions, completions and retirements must not allocate either.
    let model = EnergyModel::new(0.003, EnergyParams::paper(), 1.0);
    let mut energy = EnergyProbe::new(model, 16, 4);
    let mut telemetry = TimeSeriesProbe::new(32, 16, 4).with_horizon_hint(1 << 16);

    // Warm run: sizes every buffer (window, event queue, NI queues).
    let messages = workload().len();
    let warm = sim
        .run_with_scratch(workload().into_iter(), &mut scratch, ReportMode::Streaming)
        .unwrap();
    assert_eq!(warm.message_count, messages);

    // Counted run on the same warm scratch: after 8 warm-up messages the
    // counter arms, and every remaining offer/admit/start/complete must
    // reuse existing capacity — with the energy probe attached.
    ALLOCATIONS.store(0, Ordering::SeqCst);
    let source = ArmingSource {
        events: workload().into_iter(),
        seen: 0,
        warmup: 8,
    };
    let report = sim
        .run_with_scratch_probed(
            source,
            &mut scratch,
            ReportMode::Streaming,
            &mut (&mut energy, &mut telemetry),
        )
        .unwrap();
    assert!(!ARMED.load(Ordering::SeqCst), "source disarmed the counter");
    assert_eq!(report.message_count, messages);
    assert_eq!(
        report, warm,
        "scratch reuse and probes must not change results"
    );
    let counted = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        counted, 0,
        "{name}: steady-state admit path allocated {counted} times"
    );
    let energy = energy.report();
    assert_eq!(energy.messages, messages as u64);
    assert!(energy.pj_per_bit() > 0.0);
    let series = telemetry.report();
    assert_eq!(series.total_retired(), messages as u64);
    assert_eq!(series.horizon, report.horizon);
    report
}
