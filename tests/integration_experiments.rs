//! Cross-crate integration: every experiment driver runs end to end at the
//! quick effort level and produces well-formed tables, and Figure 20 keeps
//! the paper's shape at full effort.

use pepper_sim::experiments::{availability, correctness, insert_succ, leave, scan_range, Effort};

#[test]
fn figure_19_driver_runs() {
    let t = insert_succ::figure_19(Effort::Quick, 1);
    assert_eq!(t.columns.len(), 3);
    assert!(!t.rows.is_empty());
    for row in &t.rows {
        assert!(row.iter().all(|v| v.is_finite()));
    }
}

#[test]
fn figure_20_pepper_insert_succ_grows_with_the_stabilization_period() {
    // Every periodic loop runs off the stabilization period, so a slower
    // period slows the rounds a PEPPER insertSucc waits on: the paper's
    // curve never falls and grows far above its 2 s point by 8 s.
    let t = insert_succ::figure_20(Effort::Full, 2026);
    let pepper = t.column("pepper_insert_succ").expect("a PEPPER column");
    assert_eq!(pepper.len(), 7, "periods 2..=8 s: {pepper:?}");
    for pair in pepper.windows(2) {
        assert!(pair[1] >= pair[0], "the PEPPER column falls: {pepper:?}");
    }
    assert!(
        pepper[6] >= 10.0 * pepper[0],
        "8 s is not 10x the 2 s point: {pepper:?}"
    );
}

#[test]
fn figure_21_driver_runs() {
    let t = scan_range::figure_21(Effort::Quick, 2);
    assert_eq!(t.columns.len(), 3);
    assert!(!t.rows.is_empty());
}

#[test]
fn figure_22_driver_runs() {
    let t = leave::figure_22(Effort::Quick, 3);
    assert_eq!(t.columns.len(), 4);
    assert!(!t.rows.is_empty());
}

#[test]
fn ablation_drivers_run() {
    let c = correctness::load_balance(Effort::Quick, 4);
    assert_eq!(c.rows.len(), 3);
    let a = availability::ring_availability(Effort::Quick, 5);
    assert_eq!(a.rows.len(), 2);
}
