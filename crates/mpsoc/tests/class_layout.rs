//! The socket-major core layout, as every per-core consumer reads it.
//!
//! `Platform::class_of(k)` is the definition: socket-major, classes in
//! declaration order within a socket. `core_speeds`, `core_fmins` and
//! `simulate_slot` each walk the cores in id order; every core must
//! see exactly `class_of(k)`'s speed, ladder and power model.

use medvt_mpsoc::{plan_core_on, simulate_slot, DvfsPolicy, FrequencySet, Platform, PowerModel};

const SLOT: f64 = 1.0 / 24.0;

fn platforms() -> Vec<Platform> {
    let sockets = Platform::new("4x64", 4, 64, FrequencySet::xeon_e5_2667(), 10e-6);
    vec![
        Platform::quad_core(),
        Platform::big_little(),
        sockets.socket_view(2),
    ]
}

#[test]
fn speeds_and_fmins_follow_class_of() {
    for p in platforms() {
        let (speeds, fmins) = (p.core_speeds(), p.core_fmins());
        assert_eq!(speeds.len(), p.total_cores(), "{}", p.name);
        assert_eq!(fmins.len(), p.total_cores(), "{}", p.name);
        for k in 0..p.total_cores() {
            let class = p.class_of(k);
            assert_eq!(
                speeds[k].to_bits(),
                class.speed_factor.to_bits(),
                "{} core {k}",
                p.name
            );
            assert_eq!(fmins[k], class.fmin(), "{} core {k}", p.name);
        }
    }
}

#[test]
fn simulate_slot_plans_each_core_on_its_class() {
    let power = PowerModel::default();
    for p in platforms() {
        let n = p.total_cores();
        // Idle, light, near-full and overloaded cores, and a previous
        // operating point that is sometimes fmin and sometimes fmax.
        let loads: Vec<f64> = (0..n).map(|k| SLOT * [0.0, 0.2, 0.9, 1.7][k % 4]).collect();
        let prev: Vec<_> = (0..n)
            .map(|k| {
                let class = p.class_of(k);
                if k % 3 == 0 {
                    class.fmax()
                } else {
                    class.fmin()
                }
            })
            .collect();
        for policy in [
            DvfsPolicy::RaceToIdle,
            DvfsPolicy::StretchToDeadline,
            DvfsPolicy::PinnedMax,
        ] {
            let report = simulate_slot(&p, &power, policy, &loads, &prev, SLOT);
            let mut energy = 0.0;
            for k in 0..n {
                let class = p.class_of(k);
                let plan = plan_core_on(
                    class,
                    p.dvfs_transition_secs,
                    policy,
                    loads[k],
                    SLOT,
                    prev[k],
                );
                let e = plan.energy_j(class.power().unwrap_or(&power), SLOT);
                assert_eq!(report.cores[k], plan, "{} core {k}", p.name);
                assert_eq!(
                    report.cores[k]
                        .energy_j(class.power().unwrap_or(&power), SLOT)
                        .to_bits(),
                    e.to_bits(),
                    "{} core {k}",
                    p.name
                );
                energy += e;
            }
            assert_eq!(report.energy_j.to_bits(), energy.to_bits(), "{}", p.name);
        }
    }
}
