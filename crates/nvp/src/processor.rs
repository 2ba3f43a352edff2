//! The NVP state machine and forward-progress accounting.
//!
//! Event-driven and exact within each constant-power trace segment: the
//! stored-energy trajectory is piecewise linear, so charge/deplete times
//! are solved analytically rather than time-stepped.
//!
//! On-demand all-backup (ODAB) policy per Fig 12: the core runs until
//! stored energy falls to the *backup reserve* (just enough to save the
//! architectural state), then backs up and sleeps; it resumes — paying
//! the restore cost — once the capacitor refills to the wake level.
//! Progress is only *committed* by a successful backup; work since the
//! last commit is lost if power dies first (it cannot, under ODAB, as
//! long as the reserve is honored — which this model enforces).

use crate::harvester::PowerTrace;
use crate::workload::Benchmark;
use fefet_mem::NvmParams;
use fefet_telemetry::{Instrumentation, TraceEvent};

/// Backup policy of the nonvolatile controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BackupPolicy {
    /// On-demand all-backup (ODAB, the paper's Fig 12): back up exactly
    /// when stored energy falls to the reserve. No work is ever lost, at
    /// the cost of holding a reserve at all times.
    OnDemand,
    /// Periodic checkpointing every `interval` seconds of run time, with
    /// **no** on-demand backup: work since the last checkpoint is lost
    /// when power dies. Included as the classic alternative the ODAB
    /// architecture improves upon.
    Periodic {
        /// Checkpoint interval in run-time seconds.
        interval: f64,
    },
}

/// NVP platform configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvpConfig {
    /// Core clock (Hz).
    pub clock_hz: f64,
    /// Words in the architectural backup image (PC + register file +
    /// distributed state).
    pub backup_words: usize,
    /// Storage-capacitor energy capacity (J).
    pub storage_capacity: f64,
    /// Safety factor on the backup-energy reserve (dimensionless).
    pub reserve_margin: f64,
    /// Fraction of capacity accumulated beyond the reserve+restore level
    /// before waking the core.
    pub wake_fraction: f64,
    /// The NVM backup block parameters (Table 3).
    pub nvm: NvmParams,
    /// Backup policy.
    pub policy: BackupPolicy,
    /// Data-retention limit of the NVM (s): if the processor stays dark
    /// longer than this after a backup, the image is lost and execution
    /// cold-starts (§6.2.4 — the FEFET trades retention for write energy;
    /// `None` = unlimited (the FERAM regime).
    pub retention_limit: Option<f64>,
}

impl NvpConfig {
    /// Paper-style configuration with the given NVM parameters.
    pub fn with_nvm(nvm: NvmParams) -> Self {
        NvpConfig {
            clock_hz: 25e6,
            backup_words: 256,
            storage_capacity: 25e-9,
            reserve_margin: 1.3,
            wake_fraction: 0.25,
            nvm,
            policy: BackupPolicy::OnDemand,
            retention_limit: None,
        }
    }

    /// Energy of one full backup (J).
    pub fn backup_energy(&self) -> f64 {
        self.backup_words as f64 * self.nvm.write_energy
    }

    /// Energy of one full restore (J).
    pub fn restore_energy(&self) -> f64 {
        self.backup_words as f64 * self.nvm.read_energy
    }

    /// Time of one full backup (s).
    pub fn backup_time(&self) -> f64 {
        self.backup_words as f64 * self.nvm.write_time
    }

    /// Stored-energy level at which an on-demand backup is triggered (J).
    /// A periodic-policy controller holds no reserve (that is its flaw).
    pub fn reserve_level(&self) -> f64 {
        match self.policy {
            BackupPolicy::OnDemand => self.reserve_margin * self.backup_energy(),
            BackupPolicy::Periodic { .. } => 0.0,
        }
    }

    /// Stored-energy level at which the core wakes (J).
    pub fn wake_level(&self) -> f64 {
        (self.reserve_level() + self.restore_energy() + self.wake_fraction * self.storage_capacity)
            .min(0.95 * self.storage_capacity)
    }
}

/// Result of one NVP simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvpRun {
    /// Cycles committed by successful backups (a dimensionless count).
    pub committed_cycles: f64,
    /// Trace duration (s).
    pub total_time: f64,
    /// Forward-progress ratio: committed cycles / (clock × duration),
    /// in [0, 1].
    pub forward_progress: f64,
    /// Number of backups performed.
    pub backups: usize,
    /// Number of restores performed.
    pub restores: usize,
    /// Total energy harvested from the trace (J).
    pub harvested_energy: f64,
    /// Energy spent on backup + restore traffic (J).
    pub nvm_energy: f64,
    /// Cycles executed but lost to power failures — a dimensionless
    /// count, 0 under ODAB.
    pub lost_cycles: f64,
    /// Backup images lost to retention expiry during long outages.
    pub retention_losses: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Charging,
    Running,
}

/// Simulates the NVP over a power trace running one benchmark.
///
/// # Panics
///
/// Panics if the configuration is infeasible (the wake level cannot fit
/// in the storage capacitor together with the reserve and restore costs).
pub fn simulate(cfg: &NvpConfig, trace: &PowerTrace, bench: &Benchmark) -> NvpRun {
    simulate_with(cfg, trace, bench, &Instrumentation::off())
}

/// [`simulate`], recording the run's aggregate statistics (backup and
/// restore counts, NVM energy split, committed progress, retention
/// losses) into `instr` when it is enabled. Repeated calls against a
/// shared handle accumulate — that is how a policy sweep or a Fig 13
/// study rolls many runs into one report.
///
/// # Panics
///
/// As for [`simulate`].
pub fn simulate_with(
    cfg: &NvpConfig,
    trace: &PowerTrace,
    bench: &Benchmark,
    instr: &Instrumentation,
) -> NvpRun {
    let t0 = instr.profile_start();
    let run = simulate_inner(cfg, trace, bench);
    instr.profile_end(t0, TraceEvent::NvpSimulate, run.backups as u64);
    if let Some(tel) = instr.get() {
        tel.nvp.runs.inc();
        tel.nvp.backups.add(run.backups as u64);
        tel.nvp.restores.add(run.restores as u64);
        tel.nvp.retention_losses.add(run.retention_losses as u64);
        tel.nvp
            .backup_energy_j
            .add(run.backups as f64 * cfg.backup_energy());
        tel.nvp
            .restore_energy_j
            .add(run.restores as f64 * cfg.restore_energy());
        tel.nvp.progress_s.add(run.committed_cycles / cfg.clock_hz);
    }
    run
}

fn simulate_inner(cfg: &NvpConfig, trace: &PowerTrace, bench: &Benchmark) -> NvpRun {
    let reserve = cfg.reserve_level();
    let wake = cfg.wake_level();
    let restore_e = cfg.restore_energy();
    let backup_e = cfg.backup_energy();
    assert!(
        reserve + restore_e < 0.9 * cfg.storage_capacity,
        "infeasible NVP config: reserve {reserve:.3e} + restore {restore_e:.3e} \
         vs capacity {:.3e}",
        cfg.storage_capacity
    );
    let p_active = bench.active_power(cfg.clock_hz);

    let mut e = 0.0f64; // stored energy
    let mut phase = Phase::Charging;
    let mut has_image = false; // something to restore
    let mut uncommitted = 0.0f64; // cycles since last commit
    let mut committed = 0.0f64;
    let mut backups = 0usize;
    let mut restores = 0usize;
    let mut nvm_energy = 0.0f64;
    let mut harvested = 0.0f64;
    let mut lost = 0.0f64;
    let mut since_checkpoint = 0.0f64; // run time since last periodic checkpoint
    let mut image_age = 0.0f64; // time since the stored image was written
    let mut retention_losses = 0usize;

    for &(dur, p) in trace.segments() {
        let mut t_left = dur;
        while t_left > 1e-15 {
            match phase {
                Phase::Charging => {
                    // Retention expiry of the stored image.
                    if let (Some(limit), true) = (cfg.retention_limit, has_image) {
                        if image_age > limit {
                            has_image = false;
                            retention_losses += 1;
                        }
                    }
                    if e >= wake {
                        if has_image {
                            e -= restore_e;
                            nvm_energy += restore_e;
                            restores += 1;
                        }
                        phase = Phase::Running;
                        continue;
                    }
                    if p <= 0.0 {
                        // Dark segment: nothing to do but wait it out.
                        image_age += t_left;
                        break;
                    }
                    let t_fill = (wake - e) / p;
                    if t_fill >= t_left {
                        e += p * t_left;
                        harvested += p * t_left;
                        image_age += t_left;
                        t_left = 0.0;
                    } else {
                        e = wake;
                        harvested += p * t_fill;
                        image_age += t_fill;
                        t_left -= t_fill;
                    }
                }
                Phase::Running => {
                    let net = p - p_active;
                    // Horizon until the next periodic checkpoint, if any.
                    let t_checkpoint = match cfg.policy {
                        BackupPolicy::Periodic { interval } => {
                            (interval - since_checkpoint).max(0.0)
                        }
                        BackupPolicy::OnDemand => f64::INFINITY,
                    };
                    // Horizon until energy death at the reserve level.
                    let t_die = if net >= 0.0 {
                        f64::INFINITY
                    } else {
                        (e - reserve) / -net
                    };
                    let dt = t_left.min(t_die).min(t_checkpoint);
                    // Advance by dt.
                    if net >= 0.0 {
                        let absorbed = (cfg.storage_capacity - e).min(net * dt);
                        e += absorbed;
                        harvested += p_active * dt + absorbed;
                    } else {
                        e += net * dt;
                        harvested += p * dt;
                    }
                    uncommitted += cfg.clock_hz * dt;
                    since_checkpoint += dt;
                    t_left -= dt;
                    if dt >= t_die - 1e-18
                        && t_die <= t_checkpoint
                        && t_die < f64::INFINITY
                        && t_die <= dt + 1e-18
                    {
                        // Energy exhausted first.
                        match cfg.policy {
                            BackupPolicy::OnDemand => {
                                // ODAB backup out of the reserve.
                                e -= backup_e;
                                nvm_energy += backup_e;
                                committed += uncommitted;
                                uncommitted = 0.0;
                                backups += 1;
                                has_image = true;
                                image_age = 0.0;
                                t_left -= cfg.backup_time();
                            }
                            BackupPolicy::Periodic { .. } => {
                                // Brown-out: everything since the last
                                // checkpoint is lost.
                                lost += uncommitted;
                                uncommitted = 0.0;
                            }
                        }
                        phase = Phase::Charging;
                    } else if t_checkpoint <= dt + 1e-18 && t_checkpoint < f64::INFINITY {
                        // Periodic checkpoint while running.
                        if e >= backup_e {
                            e -= backup_e;
                            nvm_energy += backup_e;
                            committed += uncommitted;
                            uncommitted = 0.0;
                            backups += 1;
                            has_image = true;
                            image_age = 0.0;
                            t_left -= cfg.backup_time();
                        }
                        since_checkpoint = 0.0;
                    }
                }
            }
        }
    }
    // Commit whatever is in flight at the end of the trace, if the
    // reserve can pay for it (it can, by construction).
    if uncommitted > 0.0 && e >= backup_e {
        nvm_energy += backup_e;
        committed += uncommitted;
        backups += 1;
    }
    let total_time = trace.duration();
    NvpRun {
        committed_cycles: committed,
        total_time,
        forward_progress: committed / (cfg.clock_hz * total_time),
        backups,
        restores,
        harvested_energy: harvested,
        nvm_energy,
        lost_cycles: lost,
        retention_losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harvester::PowerTrace;
    use crate::workload::mibench_suite;

    fn bench() -> Benchmark {
        mibench_suite()[0] // basicmath, 4.4 pJ/cycle -> 110 µW at 25 MHz
    }

    fn cfg_fefet() -> NvpConfig {
        NvpConfig::with_nvm(NvmParams::paper_fefet())
    }

    fn cfg_feram() -> NvpConfig {
        NvpConfig::with_nvm(NvmParams::paper_feram())
    }

    #[test]
    fn config_energy_arithmetic() {
        let c = cfg_feram();
        assert!((c.backup_energy() - 256.0 * 15.0e-12).abs() < 1e-21);
        assert!((c.restore_energy() - 256.0 * 15.5e-12).abs() < 1e-21);
        assert!(c.reserve_level() > c.backup_energy());
        assert!(c.wake_level() < c.storage_capacity);
        assert!((c.backup_time() - 256.0 * 0.55e-9).abs() < 1e-18);
    }

    #[test]
    fn continuous_strong_power_gives_high_fp() {
        // 400 µW continuous against a ~110 µW core: after the initial
        // charge delay the core never stops.
        let tr = PowerTrace::from_segments(vec![(0.05, 400e-6)]);
        let run = simulate(&cfg_fefet(), &tr, &bench());
        assert!(
            run.forward_progress > 0.9,
            "FP {} too low for continuous power",
            run.forward_progress
        );
        assert!(run.backups >= 1); // the final commit
        assert_eq!(run.restores, 0); // never interrupted
    }

    #[test]
    fn no_power_gives_zero_fp() {
        let tr = PowerTrace::from_segments(vec![(0.01, 0.0)]);
        let run = simulate(&cfg_fefet(), &tr, &bench());
        assert_eq!(run.forward_progress, 0.0);
        assert_eq!(run.backups, 0);
        assert_eq!(run.harvested_energy, 0.0);
    }

    #[test]
    fn outages_cause_backups_and_restores() {
        let mut segs = Vec::new();
        for _ in 0..20 {
            segs.push((300e-6, 300e-6)); // on
            segs.push((500e-6, 0.0)); // off
        }
        let tr = PowerTrace::from_segments(segs);
        let run = simulate(&cfg_fefet(), &tr, &bench());
        assert!(run.backups >= 10, "backups {}", run.backups);
        assert!(run.restores >= 10, "restores {}", run.restores);
        assert!(run.forward_progress > 0.0);
        assert!(run.nvm_energy > 0.0);
    }

    #[test]
    fn simulate_with_records_aggregate_stats() {
        let mut segs = Vec::new();
        for _ in 0..20 {
            segs.push((300e-6, 300e-6));
            segs.push((500e-6, 0.0));
        }
        let tr = PowerTrace::from_segments(segs);
        let instr = Instrumentation::enabled();
        let cfg = cfg_fefet();
        let run = simulate_with(&cfg, &tr, &bench(), &instr);
        // A second run accumulates into the same sink.
        let run2 = simulate_with(&cfg, &tr, &bench(), &instr);
        assert_eq!(run, run2, "simulation is deterministic");
        let tel = instr.get().unwrap();
        assert_eq!(tel.nvp.runs.get(), 2);
        assert_eq!(tel.nvp.backups.get(), 2 * run.backups as u64);
        assert_eq!(tel.nvp.restores.get(), 2 * run.restores as u64);
        let e_backup = tel.nvp.backup_energy_j.get();
        assert!(
            (e_backup - 2.0 * run.backups as f64 * cfg.backup_energy()).abs() < 1e-18,
            "backup energy {e_backup:e}"
        );
        assert!(tel.nvp.progress_s.get() > 0.0);
        assert_eq!(tel.latency.nvp_simulate_ns.count(), 0, "counters only");
        // The instrumented path must not perturb the result.
        assert_eq!(run, simulate(&cfg, &tr, &bench()));

        // Profiling times each call and traces it.
        let trace = tel.attach_trace(64);
        let profiled = simulate_with(&cfg, &tr, &bench(), &instr);
        assert_eq!(run, profiled);
        simulate_with(&cfg, &tr, &bench(), &instr);
        assert_eq!(tel.latency.nvp_simulate_ns.count(), 2);
        let j = trace.to_chrome_json();
        assert_eq!(j.matches("\"name\":\"nvp.simulate\"").count(), 2, "{j}");
        assert!(j.contains(&format!("\"arg\":{}", run.backups)), "{j}");
    }

    #[test]
    fn fefet_beats_feram_on_interrupted_power() {
        let mut segs = Vec::new();
        for _ in 0..40 {
            segs.push((150e-6, 250e-6));
            segs.push((600e-6, 0.0));
        }
        let tr = PowerTrace::from_segments(segs);
        let fp_fefet = simulate(&cfg_fefet(), &tr, &bench()).forward_progress;
        let fp_feram = simulate(&cfg_feram(), &tr, &bench()).forward_progress;
        assert!(
            fp_fefet > 1.1 * fp_feram,
            "FEFET {fp_fefet:.4} vs FERAM {fp_feram:.4}"
        );
    }

    #[test]
    fn forward_progress_bounded() {
        let tr = crate::harvester::HarvesterScenario::Moderate.trace(0.05, 11);
        for cfg in [cfg_fefet(), cfg_feram()] {
            let run = simulate(&cfg, &tr, &bench());
            assert!(run.forward_progress >= 0.0);
            assert!(run.forward_progress <= 1.0);
        }
    }

    #[test]
    fn energy_conservation() {
        // Committed work + NVM traffic cannot exceed harvested energy.
        let tr = crate::harvester::HarvesterScenario::Weak.trace(0.05, 13);
        let run = simulate(&cfg_feram(), &tr, &bench());
        let spent = run.committed_cycles * bench().energy_per_cycle + run.nvm_energy;
        assert!(
            spent <= run.harvested_energy + cfg_feram().storage_capacity,
            "spent {spent:.3e} vs harvested {:.3e}",
            run.harvested_energy
        );
    }

    #[test]
    fn retention_limit_irrelevant_for_short_outages() {
        // §6.2.4: "Our targeted applications ... do not require long
        // retention time." FEFET retention (~12 s) dwarfs the ms-scale
        // harvesting outages, so a 12 s limit changes nothing.
        let mut segs = Vec::new();
        for _ in 0..20 {
            segs.push((200e-6, 300e-6));
            segs.push((500e-6, 0.0));
        }
        let tr = PowerTrace::from_segments(segs);
        let unlimited = simulate(&cfg_fefet(), &tr, &bench());
        let limited = NvpConfig {
            retention_limit: Some(12.0),
            ..cfg_fefet()
        };
        let run = simulate(&limited, &tr, &bench());
        assert_eq!(run.retention_losses, 0);
        assert_eq!(run.forward_progress, unlimited.forward_progress);
    }

    #[test]
    fn retention_expiry_loses_the_image_on_deep_outages() {
        // An outage longer than the retention limit drops the image: the
        // next wake needs no restore (nothing to restore) and the caller
        // can observe the loss count.
        let tr = PowerTrace::from_segments(vec![
            (300e-6, 300e-6), // run and back up
            (2.0, 0.0),       // deep outage, beyond the 1 s limit
            (300e-6, 300e-6), // come back
        ]);
        let limited = NvpConfig {
            retention_limit: Some(1.0),
            ..cfg_fefet()
        };
        let run = simulate(&limited, &tr, &bench());
        assert!(run.retention_losses >= 1, "image must expire");
        let unlimited = simulate(&cfg_fefet(), &tr, &bench());
        assert_eq!(unlimited.retention_losses, 0);
        // The unlimited system pays a restore after the outage.
        assert!(unlimited.restores >= run.restores);
    }

    #[test]
    fn odab_never_loses_work_but_periodic_does() {
        let mut segs = Vec::new();
        for _ in 0..20 {
            segs.push((200e-6, 300e-6));
            segs.push((400e-6, 0.0));
        }
        let tr = PowerTrace::from_segments(segs);
        let odab = simulate(&cfg_fefet(), &tr, &bench());
        assert_eq!(odab.lost_cycles, 0.0, "ODAB must not lose work");
        let periodic = NvpConfig {
            policy: BackupPolicy::Periodic { interval: 1e-3 },
            ..cfg_fefet()
        };
        let run = simulate(&periodic, &tr, &bench());
        assert!(
            run.lost_cycles > 0.0,
            "coarse periodic checkpointing loses work"
        );
        assert!(
            odab.forward_progress > run.forward_progress,
            "ODAB {:.4} must beat coarse periodic {:.4}",
            odab.forward_progress,
            run.forward_progress
        );
    }

    #[test]
    fn fine_periodic_checkpointing_approaches_odab() {
        let mut segs = Vec::new();
        for _ in 0..20 {
            segs.push((200e-6, 300e-6));
            segs.push((400e-6, 0.0));
        }
        let tr = PowerTrace::from_segments(segs);
        let odab = simulate(&cfg_fefet(), &tr, &bench()).forward_progress;
        let fine = NvpConfig {
            policy: BackupPolicy::Periodic { interval: 20e-6 },
            ..cfg_fefet()
        };
        let coarse = NvpConfig {
            policy: BackupPolicy::Periodic { interval: 500e-6 },
            ..cfg_fefet()
        };
        let fp_fine = simulate(&fine, &tr, &bench()).forward_progress;
        let fp_coarse = simulate(&coarse, &tr, &bench()).forward_progress;
        assert!(fp_fine > fp_coarse, "finer checkpoints recover more work");
        assert!(fp_fine <= odab + 1e-9, "ODAB is the upper bound here");
        assert!(
            fp_fine > 0.6 * odab,
            "fine periodic comes close: {fp_fine} vs {odab}"
        );
    }

    #[test]
    fn periodic_spends_more_nvm_energy_at_fine_intervals() {
        let tr = PowerTrace::from_segments(vec![(5e-3, 300e-6)]);
        let fine = NvpConfig {
            policy: BackupPolicy::Periodic { interval: 10e-6 },
            ..cfg_fefet()
        };
        let coarse = NvpConfig {
            policy: BackupPolicy::Periodic { interval: 1e-3 },
            ..cfg_fefet()
        };
        let e_fine = simulate(&fine, &tr, &bench()).nvm_energy;
        let e_coarse = simulate(&coarse, &tr, &bench()).nvm_energy;
        assert!(e_fine > 5.0 * e_coarse, "{e_fine:.3e} vs {e_coarse:.3e}");
    }

    #[test]
    #[should_panic(expected = "infeasible NVP config")]
    fn infeasible_config_panics() {
        let mut cfg = cfg_feram();
        cfg.storage_capacity = 1e-12; // smaller than one backup
        let tr = PowerTrace::from_segments(vec![(1e-3, 100e-6)]);
        simulate(&cfg, &tr, &bench());
    }
}
