//! Radio-on time and energy accounting.
//!
//! During LWB communication every node keeps its radio on for the whole
//! round (that is the price of topology-agnostic flooding), so the per-node
//! radio-on time of an application run is the total bus time of its
//! schedule. Combined with a radio power draw this gives the energy
//! figures the fig. 4 design-space exploration trades against latency.

use netdag_core::app::Application;
use netdag_core::schedule::Schedule;

/// A simple radio energy model: constant power while the radio is on.
///
/// # Example
///
/// ```
/// use netdag_lwb::EnergyModel;
///
/// let m = EnergyModel::cc2420();
/// // 1 second of radio-on time at ~60 mW.
/// let mj = m.energy_mj(1_000_000);
/// assert!((mj - 60.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Radio power draw while listening/transmitting, milliwatts.
    pub radio_power_mw: f64,
}

impl EnergyModel {
    /// Power draw of a CC2420-class radio (~60 mW RX).
    pub fn cc2420() -> Self {
        EnergyModel {
            radio_power_mw: 60.0,
        }
    }

    /// Energy in millijoules for a radio-on duration in microseconds.
    pub fn energy_mj(&self, radio_on_us: u64) -> f64 {
        self.radio_power_mw * (radio_on_us as f64 / 1e6)
    }

    /// Per-node radio-on time of one application run under `schedule`:
    /// the sum of all round durations (every node participates in every
    /// flood).
    pub fn radio_on_per_run_us(&self, schedule: &Schedule) -> u64 {
        schedule.total_communication_us()
    }

    /// Network-wide energy of one application run, millijoules: per-node
    /// radio-on time times the number of nodes hosting tasks.
    pub fn network_energy_per_run_mj(&self, app: &Application, schedule: &Schedule) -> f64 {
        let mut nodes: Vec<_> = app.tasks().map(|t| app.task(t).node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        self.energy_mj(self.radio_on_per_run_us(schedule)) * nodes.len() as f64
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::cc2420()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netdag_core::config::SchedulerConfig;
    use netdag_core::constraints::WeaklyHardConstraints;
    use netdag_core::prelude::*;
    use netdag_core::stat::Eq13Statistic;
    use netdag_glossy::NodeId;

    fn sched() -> (Application, Schedule) {
        let mut b = Application::builder();
        let s = b.task("s", NodeId(0), 100);
        let a = b.task("a", NodeId(1), 100);
        b.edge(s, a, 8).unwrap();
        let app = b.build().unwrap();
        let out = schedule_weakly_hard(
            &app,
            &Eq13Statistic::new(8),
            &WeaklyHardConstraints::new(),
            &SchedulerConfig::greedy(),
        )
        .unwrap();
        (app, out.schedule)
    }

    #[test]
    fn radio_on_equals_bus_time() {
        let (_, schedule) = sched();
        let m = EnergyModel::default();
        assert_eq!(
            m.radio_on_per_run_us(&schedule),
            schedule.total_communication_us()
        );
    }

    #[test]
    fn network_energy_scales_with_nodes() {
        let (app, schedule) = sched();
        let m = EnergyModel::cc2420();
        let per_node = m.energy_mj(schedule.total_communication_us());
        let network = m.network_energy_per_run_mj(&app, &schedule);
        assert!((network - 2.0 * per_node).abs() < 1e-9);
    }
}
