//! The benchmark's deterministic figures repeat exactly for a seed, and
//! the seed-drawn ones move with it. Runs every workload at 1/50 of its
//! size with a zero measuring window (each task once).

use perfbench::{run, Report, Scale, Workload};

const SCALE: Scale = Scale(50);

fn untraced(w: Workload, seed: u64) -> Report {
    let r = run(w, seed, 0.0, false, SCALE);
    assert!(r.correct, "{} seed {seed}: {:?}", w.name(), r.problems);
    r
}

fn traced(w: Workload, seed: u64) -> Report {
    let r = run(w, seed, 0.0, true, SCALE);
    assert!(
        r.correct,
        "{} seed {seed} traced: {:?}",
        w.name(),
        r.problems
    );
    r
}

fn figures(r: &Report, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| r.get(n).unwrap_or_else(|| panic!("metric {n} missing")))
        .collect()
}

/// End-to-end figures that are outputs of the program, not timings.
const OUTPUTS: [&str; 3] = ["cost_bin_ticks", "opt_looseness_gmean", "ratio_hi_gmean"];

/// Per-layer counts the traced run reads off the crates' own counters.
const COUNTS: [&str; 8] = [
    "engine.events",
    "engine.heap_pops",
    "recourse.migrations",
    "recourse.epochs",
    "failure.bin_failures",
    "session.output_bytes",
    "snapshot.bytes",
    "offline.nodes",
];

#[test]
fn outputs_and_counts_repeat_for_a_seed() {
    for w in Workload::ALL {
        let (a, b) = (untraced(w, 7), untraced(w, 7));
        assert_eq!(figures(&a, &OUTPUTS), figures(&b, &OUTPUTS), "{}", w.name());
        assert!(
            a.attempted > 0 && a.attempted == b.attempted,
            "{}",
            w.name()
        );
        assert_eq!(a.failed, 0, "{}", w.name());
        let (a, b) = (traced(w, 7), traced(w, 7));
        assert_eq!(figures(&a, &COUNTS), figures(&b, &COUNTS), "{}", w.name());
    }
}

#[test]
fn seed_drawn_figures_move_with_the_seed() {
    // Every workload's serve stream is drawn from the seed, and so is the
    // engine input of `churn_1m` and `vm_stream`; the certification sets
    // (and `certify`'s engine set, which is its OPT_R half) are pinned.
    for w in Workload::ALL {
        let (a, b) = (untraced(w, 7), untraced(w, 8));
        let engine_moves = w != Workload::Certify;
        assert_eq!(
            a.get("cost_bin_ticks") != b.get("cost_bin_ticks"),
            engine_moves,
            "{}",
            w.name()
        );
        for pinned in ["opt_looseness_gmean", "ratio_hi_gmean"] {
            assert_eq!(a.get(pinned), b.get(pinned), "{} {pinned}", w.name());
        }
        let (a, b) = (traced(w, 7), traced(w, 8));
        assert_ne!(
            a.get("session.output_bytes"),
            b.get("session.output_bytes"),
            "{}",
            w.name()
        );
        assert_eq!(
            a.get("engine.events") != b.get("engine.events"),
            engine_moves,
            "{}",
            w.name()
        );
        assert_eq!(
            a.get("offline.nodes"),
            b.get("offline.nodes"),
            "{}",
            w.name()
        );
    }
}
