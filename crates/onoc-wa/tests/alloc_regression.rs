//! Regression gate: a warm `Evaluator::evaluate` on the paper instance
//! makes at most five heap allocations (four today, all building the
//! schedule model's `ScheduleResult`), and the spectrum walk inside it
//! makes none once its buffers have grown.
//!
//! A counting global allocator is armed around the measured call only.
//! This file holds a single test, so no other test thread allocates while
//! the counter is armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use onoc_photonics::WavelengthId;
use onoc_topology::{CrosstalkModel, SpectrumWalker};
use onoc_wa::ProblemInstance;

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

/// Heap allocations made by `f`.
fn allocations_in<T>(f: impl FnOnce() -> T) -> usize {
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    drop(out);
    ALLOCATIONS.load(Ordering::SeqCst)
}

#[test]
fn a_warm_evaluation_allocates_at_most_five_blocks_and_its_spectrum_walk_none() {
    for (nw, counts) in [
        (4, [2, 2, 4, 2, 2, 4]),
        (8, [3, 5, 8, 4, 4, 8]),
        (16, [6, 10, 16, 8, 8, 16]),
    ] {
        let instance = ProblemInstance::paper_with_wavelengths(nw);
        let allocation = instance.allocation_from_counts(&counts).unwrap();
        let evaluator = instance.evaluator();
        assert!(evaluator.evaluate(&allocation).is_some());
        let made = allocations_in(|| evaluator.evaluate(&allocation));
        assert!(
            made <= 5,
            "{nw} λ: a warm evaluation made {made} allocations"
        );

        let app = instance.app();
        let mut walker = SpectrumWalker::new(
            instance.arch(),
            app.graph().comms().map(|(id, _)| (id.0, *app.route(id))),
            CrosstalkModel::default(),
        );
        let lanes: Vec<(usize, WavelengthId)> = app
            .graph()
            .comms()
            .flat_map(|(id, _)| allocation.channels(id).into_iter().map(move |w| (id.0, w)))
            .collect();
        assert!(walker.analyze(lanes.iter().copied()).is_ok());
        let made = allocations_in(|| walker.analyze(lanes.iter().copied()).is_ok());
        assert_eq!(made, 0, "{nw} λ: a warm spectrum walk allocated");
    }
}
