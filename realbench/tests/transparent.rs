//! The traced run measures the same program as the untraced one: with
//! one seed and a fixed number of rounds, the probes leave every packet
//! and aggregation count of both cores unchanged.

use std::sync::Arc;

use realbench::workload::Plan;
use realbench::{run, Budget, Probe, Stack, Traffic, Workload};

const SEED: u64 = 7;

/// Per-core packet counts after `rounds` round trips, and the probe's
/// post count (0 untraced).
fn counts(w: Workload, rounds: u64, traced: bool) -> (Vec<[u64; 6]>, u64) {
    let traffic = Traffic::new(w, SEED);
    let probe = traced.then(|| Arc::new(Probe::default()));
    let st = Stack::build(w, SEED, probe.clone());
    let plan = Plan {
        warmup: Budget::Rounds(0),
        measure: Budget::Rounds(rounds),
        time_setups: false,
    };
    let ph = run(w, SEED, &st, &traffic, plan).expect("no stall");
    assert_eq!((ph.failed, ph.attempted), (0, 2 * rounds), "{}", w.name());
    let per_core = [&st.a, &st.b]
        .iter()
        .map(|c| {
            let s = c.stats();
            [
                s.sends_posted.get(),
                s.eager_sent.get(),
                s.rdv_started.get(),
                s.packets_tx.get(),
                s.packets_rx.get(),
                s.aggregated_packets.get(),
            ]
        })
        .collect();
    st.shutdown();
    (per_core, probe.map_or(0, |p| p.totals().post.calls))
}

fn assert_transparent(w: Workload, rounds: u64) {
    let (plain, no_posts) = counts(w, rounds, false);
    let (traced, posts) = counts(w, rounds, true);
    assert_eq!(
        plain,
        traced,
        "{}: probes changed the packet counts",
        w.name()
    );
    assert_eq!(no_posts, 0);
    assert_eq!(
        posts,
        plain.iter().map(|c| c[3]).sum::<u64>(),
        "every post was timed"
    );
}

#[test]
fn pingpong_small_traced_sends_the_same_packets() {
    assert_transparent(Workload::PingpongSmall, 500);
}

#[test]
fn pingpong_large_traced_sends_the_same_packets() {
    assert_transparent(Workload::PingpongLarge, 3);
}
