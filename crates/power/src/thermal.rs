//! Lumped-RC thermal model.
//!
//! The paper motivates power budgets with thermal arguments and reports
//! that PTB yields "a more stable temperature over execution time (due to
//! the increased accuracy when matching the power budget)". To evaluate
//! that claim we model each core as a lumped thermal node — the standard
//! HotSpot-style first-order abstraction:
//!
//! ```text
//!   C · dT/dt = P − (T − T_amb) / R − (T − T_neigh) / R_lat
//! ```
//!
//! with a per-core vertical resistance `R` to ambient (heat-sink path), a
//! lateral resistance `R_lat` to mesh neighbours, and thermal capacitance
//! `C`. Integrated explicitly once per sampling interval (thermal time
//! constants are ~ms, i.e. millions of cycles, so coarse sampling is
//! accurate and cheap).

use serde::{Deserialize, Serialize};

/// Thermal model constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalParams {
    /// Ambient (heat-sink base) temperature, °C.
    pub ambient: f64,
    /// Vertical thermal resistance core→ambient, K/W.
    pub r_vertical: f64,
    /// Lateral thermal resistance between mesh-adjacent cores, K/W.
    pub r_lateral: f64,
    /// Thermal capacitance per core, J/K.
    pub capacitance: f64,
    /// Seconds between integration steps (sampling interval).
    pub dt: f64,
}

impl Default for ThermalParams {
    fn default() -> Self {
        ThermalParams {
            ambient: 45.0,
            // ~6 W sustained should settle ≈ 45 + 6×4.5 ≈ 72 °C.
            r_vertical: 4.5,
            r_lateral: 9.0,
            // ACCELERATED thermal mass: physical die+spreader capacitance
            // gives τ = R·C ≈ 0.1 s — milliseconds of simulated time,
            // unreachable in runs of a few hundred thousand cycles. As is
            // common in simulation studies, the capacitance is scaled so
            // the thermal time constant (τ ≈ 10 µs ≈ 30 k cycles) fits
            // inside the simulated window and steady-state/stability
            // *comparisons* between mechanisms are meaningful. Absolute
            // transients are correspondingly accelerated.
            capacitance: 2.2e-6,
            // Integrate every 1 µs of simulated time (3k cycles @3 GHz).
            dt: 1e-6,
        }
    }
}

/// Per-core lumped thermal state on a mesh floorplan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalModel {
    params: ThermalParams,
    /// Core temperatures, °C.
    temps: Vec<f64>,
    /// The temperatures before the step in progress (reused buffer).
    prev: Vec<f64>,
    /// Mesh width (row-major floorplan, same layout as the NoC).
    width: usize,
    /// Running peak of any core temperature.
    pub max_temp: f64,
    /// Per-core running mean accumulators.
    sum_temps: Vec<f64>,
    sum_sq: Vec<f64>,
    steps: u64,
}

impl ThermalModel {
    /// Model for `n_cores` arranged row-major with `width` columns.
    pub fn new(params: ThermalParams, n_cores: usize, width: usize) -> Self {
        assert!(n_cores >= 1 && width >= 1);
        ThermalModel {
            params,
            temps: vec![params.ambient; n_cores],
            prev: vec![params.ambient; n_cores],
            width,
            max_temp: params.ambient,
            sum_temps: vec![0.0; n_cores],
            sum_sq: vec![0.0; n_cores],
            steps: 0,
        }
    }

    /// Current temperature of `core`.
    pub fn temp(&self, core: usize) -> f64 {
        self.temps[core]
    }

    /// Hottest core right now.
    pub fn hottest(&self) -> f64 {
        self.temps.iter().copied().fold(f64::MIN, f64::max)
    }

    fn neighbours(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let w = self.width;
        let n = self.temps.len();
        let x = i % w;
        [
            (x > 0).then(|| i - 1),
            (x + 1 < w && i + 1 < n).then_some(i + 1),
            (i >= w).then(|| i - w),
            (i + w < n).then_some(i + w),
        ]
        .into_iter()
        .flatten()
    }

    /// Advance one integration step with each core dissipating
    /// `watts[i]` over the interval.
    pub fn step(&mut self, watts: &[f64]) {
        debug_assert_eq!(watts.len(), self.temps.len());
        let p = self.params;
        self.prev.copy_from_slice(&self.temps);
        let old = &self.prev;
        for i in 0..self.temps.len() {
            let vertical = (old[i] - p.ambient) / p.r_vertical;
            let lateral: f64 = self
                .neighbours(i)
                .map(|j| (old[i] - old[j]) / p.r_lateral)
                .sum();
            let d_t = (watts[i] - vertical - lateral) * p.dt / p.capacitance;
            self.temps[i] = old[i] + d_t;
            if self.temps[i] > self.max_temp {
                self.max_temp = self.temps[i];
            }
        }
        for i in 0..self.temps.len() {
            self.sum_temps[i] += self.temps[i];
            self.sum_sq[i] += self.temps[i] * self.temps[i];
        }
        self.steps += 1;
    }

    /// Mean temperature of `core` over the run.
    pub fn mean_temp(&self, core: usize) -> f64 {
        if self.steps == 0 {
            self.params.ambient
        } else {
            self.sum_temps[core] / self.steps as f64
        }
    }

    /// Temperature standard deviation of `core` over the run (the paper's
    /// stability claim: lower under PTB).
    pub fn temp_stddev(&self, core: usize) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        let n = self.steps as f64;
        let mean = self.sum_temps[core] / n;
        (self.sum_sq[core] / n - mean * mean).max(0.0).sqrt()
    }

    /// Chip-mean of per-core temperature standard deviations.
    pub fn mean_stddev(&self) -> f64 {
        let n = self.temps.len() as f64;
        (0..self.temps.len())
            .map(|c| self.temp_stddev(c))
            .sum::<f64>()
            / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(n: usize, width: usize) -> ThermalModel {
        ThermalModel::new(ThermalParams::default(), n, width)
    }

    #[test]
    fn starts_at_ambient() {
        let m = model(4, 2);
        for c in 0..4 {
            assert_eq!(m.temp(c), 45.0);
        }
    }

    #[test]
    fn constant_power_settles_near_analytic_steady_state() {
        let mut m = model(1, 1);
        // Single core, no lateral paths: T_ss = amb + P*R = 45 + 6*4.5 = 72.
        for _ in 0..200_000 {
            m.step(&[6.0]);
        }
        let t = m.temp(0);
        assert!((t - 72.0).abs() < 1.0, "steady state {t} != ~72");
    }

    #[test]
    fn hotter_neighbour_heats_idle_core() {
        let mut m = model(2, 2);
        for _ in 0..100_000 {
            m.step(&[8.0, 0.0]);
        }
        assert!(m.temp(1) > 46.0, "lateral coupling missing: {}", m.temp(1));
        assert!(m.temp(0) > m.temp(1));
    }

    #[test]
    fn stable_power_has_lower_stddev_than_oscillating() {
        let mut stable = model(1, 1);
        let mut osc = model(1, 1);
        for i in 0..400_000u64 {
            stable.step(&[4.0]);
            // Slow square wave (period ≫ thermal time constant so the
            // temperature actually follows it).
            osc.step(&[if (i / 100_000) % 2 == 0 { 0.0 } else { 8.0 }]);
        }
        assert!(
            stable.temp_stddev(0) < osc.temp_stddev(0) / 2.0,
            "stable {} vs oscillating {}",
            stable.temp_stddev(0),
            osc.temp_stddev(0)
        );
    }

    #[test]
    fn max_temp_tracks_peak() {
        let mut m = model(1, 1);
        for _ in 0..100_000 {
            m.step(&[10.0]);
        }
        let peak = m.max_temp;
        for _ in 0..100_000 {
            m.step(&[0.0]);
        }
        assert_eq!(m.max_temp, peak, "max must not decay");
        assert!(m.temp(0) < peak);
    }

    #[test]
    fn mesh_neighbour_enumeration() {
        let m = model(16, 4);
        // Corner 0: east + south.
        assert_eq!(m.neighbours(0).collect::<Vec<_>>(), vec![1, 4]);
        // Centre 5: west, east, north, south.
        let mut n5 = m.neighbours(5).collect::<Vec<_>>();
        n5.sort_unstable();
        assert_eq!(n5, vec![1, 4, 6, 9]);
        // Corner 15: west + north.
        let mut n15 = m.neighbours(15).collect::<Vec<_>>();
        n15.sort_unstable();
        assert_eq!(n15, vec![11, 14]);
    }
}
