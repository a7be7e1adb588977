//! Streaming-report guarantees: bounded memory at millions of messages,
//! agreement with the record-retaining mode on everything exact, and
//! quantile agreement within one histogram bin.

use onoc_photonics::WavelengthId;
use onoc_sim::{
    DynamicPolicy, InjectionMode, OpenLoopSimulator, ReportMode, SimScratch, StaticFlowMap,
    TrafficEvent, WavelengthMode,
};
use onoc_topology::{NodeId, RingTopology};
use onoc_units::{Bits, BitsPerCycle};

fn event(time: u64, src: usize, dst: usize, bits: f64) -> TrafficEvent {
    TrafficEvent {
        time,
        src: NodeId(src),
        dst: NodeId(dst),
        volume: Bits::new(bits),
    }
}

/// A million-message source generated on the fly (no trace vector): one
/// short message per cycle, round-robin over sources, unsaturated.
fn million() -> impl Iterator<Item = TrafficEvent> {
    (0..1_000_000u64).map(|k| {
        let src = (k % 16) as usize;
        event(k, src, (src + 5) % 16, 8.0)
    })
}

#[test]
fn streaming_mode_runs_a_million_messages_without_retaining_records() {
    let sim = OpenLoopSimulator::new(
        RingTopology::new(16),
        8,
        BitsPerCycle::new(1.0),
        WavelengthMode::Dynamic(DynamicPolicy::Single),
    );
    let report = sim.run_streaming(million()).unwrap();
    assert_eq!(report.message_count, 1_000_000);
    assert_eq!(report.latency_hist.count(), 1_000_000);
    assert!(
        report.records.is_empty(),
        "streaming mode must not retain MsgRecords"
    );
    // The in-flight window — the only per-message state — stays tiny:
    // memory is O(bins + sources + in-flight), not O(messages).
    assert!(
        report.peak_in_flight < 1_000,
        "peak in-flight window was {}",
        report.peak_in_flight
    );
    // Conservation integrals are exact.
    assert_eq!(report.offered_bits, report.delivered_bits);
    assert_eq!(report.offered_bits, 8_000_000.0);
    assert!(report.accepted_throughput() > 0.0);
    assert_eq!(report.stalled_count(), 0, "open loop never stalls");
}

/// A mixed workload that queues, so latencies spread over several bins.
fn contended() -> Vec<TrafficEvent> {
    (0..4_000u64)
        .map(|k| {
            let src = (k % 16) as usize;
            event(
                k / 4,
                src,
                (src + 3 + (k % 9) as usize) % 16,
                64.0 + (k % 7) as f64 * 100.0,
            )
        })
        .collect()
}

#[test]
fn streaming_matches_full_mode_on_everything_exact() {
    for injection in [
        InjectionMode::Open,
        InjectionMode::Credit { window: 3 },
        InjectionMode::Ecn { threshold: 0.2 },
    ] {
        let sim = OpenLoopSimulator::with_injection(
            RingTopology::new(16),
            4,
            BitsPerCycle::new(1.0),
            WavelengthMode::Dynamic(DynamicPolicy::Single),
            injection,
        );
        let full = sim.run(contended().into_iter()).unwrap();
        let streaming = sim.run_streaming(contended().into_iter()).unwrap();

        assert_eq!(streaming.message_count, full.message_count, "{injection}");
        assert_eq!(streaming.horizon, full.horizon, "{injection}");
        assert_eq!(streaming.offered_bits, full.offered_bits, "{injection}");
        assert_eq!(streaming.delivered_bits, full.delivered_bits, "{injection}");
        assert_eq!(
            streaming.blocked_attempts, full.blocked_attempts,
            "{injection}"
        );
        assert_eq!(streaming.segment_busy, full.segment_busy, "{injection}");
        assert_eq!(streaming.lane_busy, full.lane_busy, "{injection}");
        assert_eq!(
            streaming.credit_occupancy, full.credit_occupancy,
            "{injection}"
        );
        assert_eq!(
            streaming.stalled_count(),
            full.stalled_count(),
            "{injection}"
        );
        // The histograms themselves are identical — full mode fills them
        // too; only record retention differs.
        assert_eq!(streaming.latency_hist, full.latency_hist, "{injection}");
        assert_eq!(streaming.stall_hist, full.stall_hist, "{injection}");
        assert!(streaming.records.is_empty() && !full.records.is_empty());
        // Exact moments agree; quantiles agree within one log bin
        // (≤ 12.5 % relative — see LatencyHistogram).
        let (fl, sl) = (full.latency(), streaming.latency());
        assert_eq!(fl.count, sl.count, "{injection}");
        assert!((fl.mean - sl.mean).abs() < 1e-9, "{injection}");
        assert_eq!(fl.max, sl.max, "{injection}");
        for (exact, approx) in [(fl.p50, sl.p50), (fl.p95, sl.p95), (fl.p99, sl.p99)] {
            assert!(
                approx <= exact + 1.0 && exact <= approx * 1.125 + 1.0,
                "{injection}: exact {exact} vs streaming {approx}"
            );
        }
    }
}

#[test]
fn streaming_static_mode_counts_conflicts_exactly() {
    // Two flows forced onto one wavelength on a shared segment: both
    // report modes must agree on the count.
    let nodes = 4;
    let mut table = vec![Vec::new(); nodes * nodes];
    table[2] = vec![WavelengthId(0)]; // flow 0→2
    table[nodes + 2] = vec![WavelengthId(0)]; // flow 1→2
    for src in 0..nodes {
        for dst in 0..nodes {
            if src != dst && table[src * nodes + dst].is_empty() {
                table[src * nodes + dst] = vec![WavelengthId(1)];
            }
        }
    }
    let map = StaticFlowMap::from_table(nodes, 2, table);
    let sim = OpenLoopSimulator::new(
        RingTopology::new(nodes),
        2,
        BitsPerCycle::new(1.0),
        WavelengthMode::Static(map),
    );
    let mut events = Vec::new();
    for k in 0..40u64 {
        events.push(event(k * 7, 0, 2, 100.0));
        events.push(event(k * 7, 1, 2, 80.0));
        events.push(event(k * 7, 3, 1, 50.0));
    }
    let full = sim.run(events.clone().into_iter()).unwrap();
    let streaming = sim.run_streaming(events.into_iter()).unwrap();
    assert!(full.conflict_count > 0, "workload must actually collide");
    assert_eq!(streaming.conflict_count, full.conflict_count);
    assert_eq!(streaming.segment_busy, full.segment_busy);
    assert_eq!(streaming.blocked_attempts, full.blocked_attempts);
}

#[test]
fn scratch_reuse_across_geometries_is_safe() {
    // The same scratch serves different ring sizes, comb sizes and modes
    // back to back; every run must match a fresh-scratch run exactly.
    let mut scratch = SimScratch::new();
    let configs = [(8usize, 2usize), (16, 4), (4, 1), (16, 8)];
    for (nodes, wavelengths) in configs {
        let sim = OpenLoopSimulator::new(
            RingTopology::new(nodes),
            wavelengths,
            BitsPerCycle::new(1.0),
            WavelengthMode::Dynamic(DynamicPolicy::Single),
        );
        let events: Vec<TrafficEvent> = (0..200u64)
            .map(|k| {
                let src = (k % nodes as u64) as usize;
                event(k, src, (src + 1) % nodes, 64.0)
            })
            .collect();
        let reused = sim
            .run_with_scratch(events.clone().into_iter(), &mut scratch, ReportMode::Full)
            .unwrap();
        let fresh = sim.run(events.into_iter()).unwrap();
        assert_eq!(reused, fresh, "{nodes} nodes × {wavelengths} λ");
    }
}
