//! End-to-end protocol tests of the communication core over loopback and
//! simulated-NIC drivers.

use std::sync::Arc;

use bytes::Bytes;

use nm_core::{CommCore, CoreBuilder, CoreConfig, GateId, LockingMode, StrategyKind};
use nm_fabric::{ClockSource, Driver, Fabric, LoopbackDriver, SimNic, SimNicDriver, WireModel};
use nm_sync::WaitStrategy;

const G: GateId = GateId(0);

/// Builds two connected single-rail cores over loopback drivers.
fn loopback_pair(config: CoreConfig) -> (Arc<CommCore>, Arc<CommCore>) {
    let (da, db) = LoopbackDriver::pair(64);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    (a, b)
}

/// Builds two connected cores over real-time simulated NICs.
fn simnic_pair(config: CoreConfig, model: WireModel) -> (Arc<CommCore>, Arc<CommCore>) {
    let fabric = Fabric::real_time();
    let (pa, pb) = fabric.pair(&[model], true);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();
    (a, b)
}

#[test]
fn eager_roundtrip_all_locking_modes() {
    for mode in LockingMode::ALL {
        let (a, b) = loopback_pair(CoreConfig::default().locking(mode));
        let payload = Bytes::from_static(b"eager message");
        let send = a.isend(G, 42, payload.clone()).unwrap();
        let recv = b.irecv(G, 42).unwrap();
        b.wait(&recv, WaitStrategy::Busy).unwrap();
        a.wait(&send, WaitStrategy::Busy).unwrap();
        assert_eq!(recv.take_data().unwrap(), payload, "mode {mode:?}");
        assert_eq!(a.stats().eager_sent.get(), 1);
        assert_eq!(a.stats().rdv_started.get(), 0);
    }
}

#[test]
fn blocking_send_recv_helpers() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let t = std::thread::spawn(move || b.recv(G, 7, WaitStrategy::Busy).unwrap());
    a.send(G, 7, Bytes::from_static(b"blocking"), WaitStrategy::Busy)
        .unwrap();
    assert_eq!(t.join().unwrap(), Bytes::from_static(b"blocking"));
}

#[test]
fn unexpected_message_is_buffered() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let send = a.isend(G, 5, Bytes::from_static(b"early")).unwrap();
    a.wait(&send, WaitStrategy::Busy).unwrap();
    // Drive the receiver before any recv is posted: message becomes
    // unexpected.
    while b.progress() > 0 {}
    assert_eq!(b.stats().unexpected_msgs.get(), 1);
    let recv = b.irecv(G, 5).unwrap();
    assert!(recv.is_complete(), "matched from the unexpected queue");
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"early"));
}

#[test]
fn tag_matching_is_selective_and_fifo() {
    let (a, b) = loopback_pair(CoreConfig::default());
    // Two tags interleaved, two messages each.
    for (tag, text) in [(1u64, "a1"), (2, "b1"), (1, "a2"), (2, "b2")] {
        let s = a.isend(G, tag, Bytes::from(text.to_string())).unwrap();
        a.wait(&s, WaitStrategy::Busy).unwrap();
    }
    let r2a = b.irecv(G, 2).unwrap();
    b.wait(&r2a, WaitStrategy::Busy).unwrap();
    assert_eq!(&r2a.take_data().unwrap()[..], b"b1");
    let r1a = b.irecv(G, 1).unwrap();
    b.wait(&r1a, WaitStrategy::Busy).unwrap();
    assert_eq!(&r1a.take_data().unwrap()[..], b"a1");
    let r1b = b.irecv(G, 1).unwrap();
    b.wait(&r1b, WaitStrategy::Busy).unwrap();
    assert_eq!(&r1b.take_data().unwrap()[..], b"a2");
    let r2b = b.irecv(G, 2).unwrap();
    b.wait(&r2b, WaitStrategy::Busy).unwrap();
    assert_eq!(&r2b.take_data().unwrap()[..], b"b2");
}

#[test]
fn rendezvous_large_message_roundtrip() {
    let config = CoreConfig::default().eager_threshold(1024).rdv_chunk(4096);
    let (a, b) = loopback_pair(config);
    let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    let payload = Bytes::from(payload);

    let recv = b.irecv(G, 9).unwrap();
    let send = a.isend(G, 9, payload.clone()).unwrap();
    // Both sides must progress: A needs B's CTS, B needs A's data.
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
    assert_eq!(a.stats().rdv_started.get(), 1);
    assert_eq!(b.stats().rdv_accepted.get(), 1);
    // 100 KB in 4 KB chunks: at least 25 data packets.
    assert!(a.stats().packets_tx.get() >= 25);
}

#[test]
fn rendezvous_rts_before_recv_posted() {
    let config = CoreConfig::default().eager_threshold(64);
    let (a, b) = loopback_pair(config);
    let payload = Bytes::from(vec![7u8; 10_000]);
    let send = a.isend(G, 3, payload.clone()).unwrap();
    // B sees the RTS with no posted recv: it must park it.
    while b.progress() > 0 {}
    assert!(!send.is_complete(), "no CTS yet");
    // Posting the recv triggers the CTS and the data flows.
    let recv = b.irecv(G, 3).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
}

#[test]
fn multirail_distributes_rendezvous_chunks() {
    let fabric = Fabric::real_time();
    let models = [WireModel::ideal(), WireModel::ideal()];
    let (pa, pb) = fabric.pair(&models, true);
    let config = CoreConfig::default().eager_threshold(512).rdv_chunk(1024);
    let a = CoreBuilder::new(config.clone())
        .add_gate(pa.drivers())
        .build();
    let b = CoreBuilder::new(config).add_gate(pb.drivers()).build();

    let payload = Bytes::from(vec![0xCD; 64 * 1024]);
    let recv = b.irecv(G, 1).unwrap();
    let send = a.isend(G, 1, payload.clone()).unwrap();
    while !recv.is_complete() || !send.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(recv.take_data().unwrap(), payload);
    // Both rails must have carried data packets.
    let c0 = pa.sim_drivers()[0].counters().tx_packets.get();
    let c1 = pa.sim_drivers()[1].counters().tx_packets.get();
    assert!(c0 > 5 && c1 > 5, "rails unbalanced: {c0} vs {c1}");
}

#[test]
fn aggregation_coalesces_small_messages() {
    // A depth-1 loopback driver: the first packet occupies the NIC until
    // the receiver drains it, so subsequent sends pile up in the collect
    // queue and the aggregate strategy packs them into one packet.
    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default().strategy(StrategyKind::Aggregate);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    let sends: Vec<_> = (0..10)
        .map(|i| {
            a.isend(G, 100 + i, Bytes::from(format!("msg-{i}")))
                .unwrap()
        })
        .collect();
    let recvs: Vec<_> = (0..10).map(|i| b.irecv(G, 100 + i).unwrap()).collect();
    for (i, r) in recvs.iter().enumerate() {
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
        assert_eq!(r.take_data().unwrap(), Bytes::from(format!("msg-{i}")));
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
    assert!(
        a.stats().aggregated_packets.get() >= 1,
        "no aggregation happened (packets_tx = {})",
        a.stats().packets_tx.get()
    );
    assert!(
        a.stats().packets_tx.get() < 10,
        "aggregation should reduce packet count"
    );
}

#[test]
fn fifo_strategy_never_aggregates() {
    let (da, db) = LoopbackDriver::pair(1);
    let config = CoreConfig::default().strategy(StrategyKind::Fifo);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let sends: Vec<_> = (0..5)
        .map(|i| a.isend(G, i, Bytes::from_static(b"x")).unwrap())
        .collect();
    let recvs: Vec<_> = (0..5).map(|i| b.irecv(G, i).unwrap()).collect();
    for r in &recvs {
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
    }
    for s in &sends {
        a.wait(s, WaitStrategy::Busy).unwrap();
    }
    assert_eq!(a.stats().aggregated_packets.get(), 0);
    assert_eq!(a.stats().packets_tx.get(), 5);
}

#[test]
fn pingpong_over_simulated_myrinet() {
    let (a, b) = simnic_pair(CoreConfig::default(), WireModel::myri_10g());
    let b2 = Arc::clone(&b);
    let echo = std::thread::spawn(move || {
        for _ in 0..10 {
            let data = b2.recv(G, 0, WaitStrategy::Busy).unwrap();
            b2.send(G, 0, data, WaitStrategy::Busy).unwrap();
        }
    });
    let payload = Bytes::from(vec![1u8; 256]);
    for _ in 0..10 {
        a.send(G, 0, payload.clone(), WaitStrategy::Busy).unwrap();
        let back = a.recv(G, 0, WaitStrategy::Busy).unwrap();
        assert_eq!(back, payload);
    }
    echo.join().unwrap();
}

#[test]
fn concurrent_threads_fine_grain() {
    concurrent_threads(LockingMode::Fine);
}

#[test]
fn concurrent_threads_coarse_grain() {
    concurrent_threads(LockingMode::Coarse);
}

fn concurrent_threads(mode: LockingMode) {
    // Two threads per side, each with its own tag, all sharing the cores:
    // MPI_THREAD_MULTIPLE-style usage.
    let (a, b) = loopback_pair(CoreConfig::default().locking(mode));
    const PER_THREAD: usize = 50;
    let mut senders = Vec::new();
    for t in 0..2u64 {
        let a = Arc::clone(&a);
        senders.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                let payload = Bytes::from(format!("t{t}-m{i}"));
                a.send(G, t, payload, WaitStrategy::Busy).unwrap();
            }
        }));
    }
    let mut receivers = Vec::new();
    for t in 0..2u64 {
        let b = Arc::clone(&b);
        receivers.push(std::thread::spawn(move || {
            for i in 0..PER_THREAD {
                let data = b.recv(G, t, WaitStrategy::Busy).unwrap();
                assert_eq!(&data[..], format!("t{t}-m{i}").as_bytes());
            }
        }));
    }
    for h in senders.into_iter().chain(receivers) {
        h.join().unwrap();
    }
}

#[test]
fn single_thread_mode_panics_on_second_thread() {
    let (a, _b) = loopback_pair(CoreConfig::default().locking(LockingMode::SingleThread));
    a.progress(); // claim ownership on this thread
    let a2 = Arc::clone(&a);
    let res = std::thread::spawn(move || {
        let _ = a2.progress();
    })
    .join();
    assert!(res.is_err(), "second thread must be rejected");
}

#[test]
fn invalid_gate_is_reported() {
    let (a, _b) = loopback_pair(CoreConfig::default());
    let err = a.isend(GateId(9), 0, Bytes::new()).unwrap_err();
    assert_eq!(err, nm_core::CommError::InvalidGate(9));
    let err = a.irecv(GateId(9), 0).unwrap_err();
    assert_eq!(err, nm_core::CommError::InvalidGate(9));
}

#[test]
fn passive_wait_with_progression_thread() {
    use nm_progress::{IdlePolicy, ProgressEngine, ProgressionThread};

    let (a, b) = loopback_pair(CoreConfig::default());
    let engine = Arc::new(ProgressEngine::new());
    engine.register(Arc::clone(&a) as _);
    engine.register(Arc::clone(&b) as _);
    let pt = ProgressionThread::spawn(Arc::clone(&engine), None, IdlePolicy::Yield);

    let recv = b.irecv(G, 1).unwrap();
    let send = a.isend(G, 1, Bytes::from_static(b"async")).unwrap();
    // Purely passive waits: only the progression thread moves data.
    recv.wait_flag_only(WaitStrategy::Passive);
    send.wait_flag_only(WaitStrategy::Passive);
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"async"));
    pt.stop();
}

#[test]
fn virtual_clock_pingpong() {
    // Deterministic pingpong on a manual clock: latency accounted by hand.
    let clock = ClockSource::manual();
    let (na, nb) = SimNic::pair("vt", WireModel::myri_10g(), clock.clone());
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![
            Arc::new(SimNicDriver::new(na, true)) as Arc<dyn Driver>
        ])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![
            Arc::new(SimNicDriver::new(nb, true)) as Arc<dyn Driver>
        ])
        .build();

    let send = a.isend(G, 0, Bytes::from_static(b"tick")).unwrap();
    let recv = b.irecv(G, 0).unwrap();
    a.progress();
    assert!(send.is_complete(), "eager send completes on injection");
    b.progress();
    assert!(!recv.is_complete(), "nothing deliverable at t=0");
    clock.advance(10_000); // > latency + tx time
    b.progress();
    assert!(recv.is_complete());
    assert_eq!(recv.take_data().unwrap(), Bytes::from_static(b"tick"));
}

#[test]
fn message_stream_many_sizes() {
    let config = CoreConfig::default().eager_threshold(1024);
    let (a, b) = loopback_pair(config);
    let sizes = [0usize, 1, 13, 1024, 1025, 5000, 40_000];
    for (i, &n) in sizes.iter().enumerate() {
        let payload = Bytes::from((0..n).map(|j| (j % 256) as u8).collect::<Vec<u8>>());
        let send = a.isend(G, i as u64, payload.clone()).unwrap();
        let recv = b.irecv(G, i as u64).unwrap();
        while !recv.is_complete() || !send.is_complete() {
            a.progress();
            b.progress();
        }
        assert_eq!(recv.take_data().unwrap(), payload, "size {n}");
    }
}

#[test]
#[allow(deprecated)] // the shim must keep behaving exactly like the old driver
fn ordered_delivery_over_reordering_transport() {
    use nm_fabric::ReorderDriver;
    // A transport that shuffles packets within a 4-deep window; the
    // receiver's resequencer must restore send order.
    let (da, db) = LoopbackDriver::pair(128);
    let db = ReorderDriver::new(db, 4, 0xBADC0FFE);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    const N: usize = 32;
    // Force one packet per message so the transport can reorder them.
    let config_check = a.config().ordered_eager;
    assert!(config_check, "ordered delivery is the default");
    for i in 0..N {
        let s = a.isend(G, 9, Bytes::from(format!("m{i:02}"))).unwrap();
        a.wait(&s, WaitStrategy::Busy).unwrap();
    }
    for i in 0..N {
        let r = b.irecv(G, 9).unwrap();
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
        assert_eq!(
            r.take_data().unwrap(),
            Bytes::from(format!("m{i:02}")),
            "message {i} out of order"
        );
    }
}

#[test]
#[allow(deprecated)] // the shim must keep behaving exactly like the old driver
fn unordered_mode_still_delivers_everything() {
    use nm_fabric::ReorderDriver;
    use std::collections::BTreeSet;
    let (da, db) = LoopbackDriver::pair(128);
    let db = ReorderDriver::new(db, 4, 42);
    let config = CoreConfig::default().ordered_eager(false);
    let a = CoreBuilder::new(config.clone())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(config)
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    const N: usize = 16;
    for i in 0..N {
        let s = a.isend(G, 0, Bytes::from(vec![i as u8])).unwrap();
        a.wait(&s, WaitStrategy::Busy).unwrap();
    }
    let mut seen = BTreeSet::new();
    for _ in 0..N {
        let r = b.irecv(G, 0).unwrap();
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
        seen.insert(r.take_data().unwrap()[0]);
    }
    // Possibly out of order, but nothing lost or duplicated.
    assert_eq!(seen.len(), N);
}

#[test]
fn wait_all_and_test_apis() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let recvs: Vec<_> = (0..4).map(|i| b.irecv(G, i).unwrap()).collect();
    let sends: Vec<_> = (0..4)
        .map(|i| a.isend(G, i, Bytes::from(vec![i as u8])).unwrap())
        .collect();
    a.wait_all(&sends, WaitStrategy::Busy).unwrap();
    // Drive b until everything tests complete.
    for r in &recvs {
        while !b.test(r) {
            a.progress();
        }
    }
    for (i, r) in recvs.iter().enumerate() {
        assert_eq!(r.take_data().unwrap(), Bytes::from(vec![i as u8]));
    }
}

#[test]
fn wildcard_recv_matches_any_tag_in_order() {
    let (a, b) = loopback_pair(CoreConfig::default());
    for (tag, text) in [(5u64, "first"), (9, "second"), (1, "third")] {
        let s = a.isend(G, tag, Bytes::from(text.to_string())).unwrap();
        a.wait(&s, WaitStrategy::Busy).unwrap();
    }
    // Wildcard receives drain in arrival (send) order, reporting tags.
    let expected = [(5u64, "first"), (9, "second"), (1, "third")];
    for (tag, text) in expected {
        let r = b.irecv_any(G).unwrap();
        while !r.is_complete() {
            b.progress();
            a.progress();
        }
        assert_eq!(r.matched_tag(), Some(tag));
        assert_eq!(r.take_data().unwrap(), Bytes::from(text.to_string()));
    }
}

#[test]
fn wildcard_posted_before_arrival() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let r = b.irecv_any(G).unwrap();
    assert_eq!(r.matched_tag(), None, "no tag before completion");
    let s = a.isend(G, 77, Bytes::from_static(b"wild")).unwrap();
    a.wait(&s, WaitStrategy::Busy).unwrap();
    while !r.is_complete() {
        b.progress();
        a.progress();
    }
    assert_eq!(r.matched_tag(), Some(77));
    assert_eq!(r.take_data().unwrap(), Bytes::from_static(b"wild"));
}

#[test]
fn wildcard_matches_rendezvous_rts() {
    let config = CoreConfig::default().eager_threshold(64);
    let (a, b) = loopback_pair(config);
    let payload = Bytes::from(vec![3u8; 50_000]);
    let s = a.isend(G, 4, payload.clone()).unwrap();
    // Let the RTS land unexpected, then post a wildcard receive.
    while b.progress() > 0 {}
    let r = b.irecv_any(G).unwrap();
    while !r.is_complete() || !s.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(r.matched_tag(), Some(4));
    assert_eq!(r.take_data().unwrap(), payload);
}

#[test]
fn exact_recv_reports_matched_tag_too() {
    let (a, b) = loopback_pair(CoreConfig::default());
    let s = a.isend(G, 13, Bytes::from_static(b"x")).unwrap();
    a.wait(&s, WaitStrategy::Busy).unwrap();
    let r = b.irecv(G, 13).unwrap();
    b.wait(&r, WaitStrategy::Busy).unwrap();
    assert_eq!(r.matched_tag(), Some(13));
}

#[test]
fn corrupt_packets_are_counted_and_skipped() {
    use nm_core::wire::encode_frame;
    // Inject garbage directly into the wire: the receiver must count it
    // and keep functioning.
    let (da, db) = LoopbackDriver::pair(64);
    let da = Arc::new(da);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::clone(&da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();

    // Raw garbage fails the frame checksum: dropped before any decode.
    da.post(Bytes::from_static(b"\xFF\xFF garbage that is not a packet"))
        .unwrap();
    // A well-framed frame around a garbage packet passes the CRC and
    // fails protocol decode: a wire error.
    da.post(encode_frame(0, 0, 0, 0, b"\xFF\xFF not a packet either"))
        .unwrap();
    while b.progress() > 0 {}
    assert_eq!(b.stats().corrupt_dropped.get(), 1);
    assert_eq!(b.stats().wire_errors.get(), 1);

    // The stack still works after the corrupt packet.
    let s = a.isend(G, 1, Bytes::from_static(b"still alive")).unwrap();
    let r = b.irecv(G, 1).unwrap();
    while !r.is_complete() {
        a.progress();
        b.progress();
    }
    a.wait(&s, WaitStrategy::Busy).unwrap();
    assert_eq!(r.take_data().unwrap(), Bytes::from_static(b"still alive"));
}

#[test]
fn duplicate_cts_is_ignored() {
    use nm_core::wire::{encode_frame, encode_packet, Entry};
    // A CTS for an unknown rendezvous id must be dropped and counted,
    // not crash the sender-side state machine.
    let (da, db) = LoopbackDriver::pair(64);
    let db = Arc::new(db);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let _b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::clone(&db) as Arc<dyn Driver>])
        .build();
    // Send a spurious CTS from b's side of the wire toward a.
    db.post(encode_frame(
        0,
        0,
        0,
        0,
        &encode_packet(&[Entry::Cts { tag: 1, seq: 99 }]),
    ))
    .unwrap();
    while a.progress() > 0 {}
    assert_eq!(a.stats().wire_errors.get(), 1);
}

#[test]
fn overlapping_rendezvous_chunk_is_refused() {
    use nm_core::wire::{encode_frame, encode_packet, Entry};
    // A hand-driven sender: CRC-valid DATA chunks that overlap must not
    // count toward completion, or the receive completes with a hole.
    let (da, db) = LoopbackDriver::pair(64);
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    let post = |entry: Entry| {
        da.post(encode_frame(0, 0, 0, 0, &encode_packet(&[entry])))
            .unwrap();
        while b.progress() > 0 {}
    };
    let data = |offset: u32, fill: u8| Entry::Data {
        tag: 5,
        seq: 0,
        offset,
        data: Bytes::from(vec![fill; 16]),
    };
    let r = b.irecv(G, 5).unwrap();
    post(Entry::Rts {
        tag: 5,
        seq: 0,
        total: 32,
    });
    post(data(0, 0xAA));
    post(data(8, 0xBB));
    assert!(!r.is_complete(), "bytes 24..32 were never written");
    assert_eq!(b.stats().wire_errors.get(), 1);

    post(data(16, 0xCC));
    b.wait(&r, WaitStrategy::Busy).unwrap();
    let mut want = vec![0xAA; 16];
    want.extend_from_slice(&[0xCC; 16]);
    assert_eq!(r.take_data().unwrap(), Bytes::from(want));
    assert_eq!(b.stats().wire_errors.get(), 1);
}

#[test]
fn pending_counts_track_lifecycle() {
    let (a, b) = loopback_pair(CoreConfig::default().eager_threshold(64));
    assert_eq!(a.pending(), nm_core::PendingCounts::default());

    // A posted receive shows up on b.
    let r = b.irecv(G, 1).unwrap();
    assert_eq!(b.pending().posted_recvs, 1);

    // A rendezvous send waits for its CTS on a.
    let s = a.isend(G, 1, Bytes::from(vec![9u8; 10_000])).unwrap();
    assert_eq!(a.pending().rdv_awaiting_cts, 1);

    while !r.is_complete() || !s.is_complete() {
        a.progress();
        b.progress();
    }
    assert_eq!(a.pending(), nm_core::PendingCounts::default());
    assert_eq!(b.pending(), nm_core::PendingCounts::default());
}

#[test]
fn flush_local_drains_send_queues() {
    // A depth-limited driver keeps packets queued locally; flush_local
    // pushes what it can and reports quiescence exactly when the local
    // queues empty (the receiver must drain the wire meanwhile).
    let (da, db) = LoopbackDriver::pair(2);
    let a = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(da) as Arc<dyn Driver>])
        .build();
    let b = CoreBuilder::new(CoreConfig::default())
        .add_gate(vec![Arc::new(db) as Arc<dyn Driver>])
        .build();
    for i in 0..6 {
        let _ = a.isend(G, i, Bytes::from_static(b"queued")).unwrap();
    }
    assert!(
        a.pending().collect_items > 0,
        "wire too small for the burst"
    );
    let drainer = std::thread::spawn(move || {
        for i in 0..6 {
            let r = b.irecv(G, i).unwrap();
            b.wait(&r, WaitStrategy::Busy).unwrap();
        }
    });
    a.flush_local();
    assert_eq!(a.pending().collect_items, 0);
    assert_eq!(a.pending().xfer_items, 0);
    drainer.join().unwrap();
}
