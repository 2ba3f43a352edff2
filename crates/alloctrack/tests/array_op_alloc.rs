//! Pins the memory of an array row op to its probes: a warm
//! `FefetArray::read_row` records the sensed currents, polarizations
//! and energy it reads back, never a per-step sample, so a read window
//! four times as long — four times the accepted steps — must make
//! exactly as many heap allocations. Op memory is O(probes), not
//! O(steps × signals).
//!
//! Separate file on purpose: the allocation counter is process-global,
//! so each alloctrack test needs its own process.

use fefet_alloctrack::count_allocations;
use fefet_mem::array::FefetArray;
use fefet_mem::cell::FefetCell;

#[test]
fn read_row_allocations_do_not_grow_with_the_read_window() {
    let mut a = FefetArray::new(8, 8, FefetCell::default());
    a.cell.dt = 40e-12;
    let (p_lo, p_hi) = a.cell.memory_states();
    for i in 0..8 {
        for j in 0..8 {
            let p = if (i + j) % 2 == 1 { p_hi } else { p_lo };
            a.set_polarization(i, j, p);
        }
    }
    // Warm: the array's analysis cache holds the read pattern.
    a.read_row(2, 1e-9).expect("warm-up read");

    let (short_allocs, short) = count_allocations(|| a.read_row(2, 1e-9));
    let (long_allocs, long) = count_allocations(|| a.read_row(2, 4e-9));
    let (short, long) = (short.expect("1 ns read"), long.expect("4 ns read"));
    assert!(
        long.op.steps > 2 * short.op.steps,
        "the 4 ns window should take far more steps: {} vs {}",
        long.op.steps,
        short.op.steps
    );
    assert_eq!(short.bits, long.bits);
    assert_eq!(
        short_allocs, long_allocs,
        "a {}-step read made {short_allocs} allocations, a {}-step read {long_allocs}",
        short.op.steps, long.op.steps
    );
}
