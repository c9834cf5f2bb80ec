//! Simulated accelerator latency model.
//!
//! The paper's wall-clock figures (Figs 5, 6, 10) are dominated by GPU
//! inference time: each forward pass costs a fixed kernel-launch overhead
//! plus per-sequence work, and batching amortizes the overhead. We cannot
//! ship a GTX-3080, so [`AcceleratorSim`] reproduces the *cost model*:
//! benchmarks account a simulated duration per batch of next-token
//! evaluations and report throughput against that simulated clock. The
//! relative shapes (ReLM's few-token targeted queries vs. the baselines'
//! fixed-length untargeted generations) are preserved because both run
//! against the same clock.

/// A simple batched-inference latency model:
/// `time(batch) = launch_overhead + ceil(batch / max_batch) ·
/// (batch_overhead + per_sequence · batch_in_pass)` accumulated on a
/// simulated clock.
///
/// Defaults approximate a mid-range discrete GPU running a 1.5B-parameter
/// model: ~8 ms per forward pass per batch, up to 64 sequences per batch.
///
/// # Example
///
/// ```
/// use relm_lm::AcceleratorSim;
///
/// let mut gpu = AcceleratorSim::default();
/// gpu.forward(1);   // one sequence
/// gpu.forward(64);  // a full batch costs barely more
/// assert!(gpu.elapsed_secs() < 2.0 * 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorSim {
    /// Fixed cost per `forward` call (host-side launch), seconds.
    launch_overhead: f64,
    /// Cost per batch pass, seconds.
    batch_overhead: f64,
    /// Marginal cost per sequence in a pass, seconds.
    per_sequence: f64,
    /// Maximum sequences per pass; larger batches take multiple passes.
    max_batch: usize,
    elapsed: f64,
    forwards: u64,
    sequences: u64,
}

impl Default for AcceleratorSim {
    fn default() -> Self {
        AcceleratorSim {
            launch_overhead: 0.002,
            batch_overhead: 0.008,
            per_sequence: 0.000_25,
            max_batch: 64,
            elapsed: 0.0,
            forwards: 0,
            sequences: 0,
        }
    }
}

impl AcceleratorSim {
    /// A fresh simulator with the default (GTX-3080-like) constants.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account one forward pass evaluating `batch` sequences, returning
    /// the simulated duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`.
    pub fn forward(&mut self, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be non-empty");
        let passes = batch.div_ceil(self.max_batch) as f64;
        let cost =
            self.launch_overhead + passes * self.batch_overhead + batch as f64 * self.per_sequence;
        self.elapsed += cost;
        self.forwards += 1;
        self.sequences += batch as u64;
        cost
    }

    /// Total simulated seconds so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.elapsed
    }

    /// Number of forward calls accounted.
    #[cfg(test)]
    fn forward_count(&self) -> u64 {
        self.forwards
    }

    /// Total sequences scored.
    #[cfg(test)]
    fn sequence_count(&self) -> u64 {
        self.sequences
    }

    /// Mean utilization proxy: sequences per pass relative to `max_batch`
    /// (the figure the paper reports from `nvidia-smi` is analogous).
    pub fn utilization(&self) -> f64 {
        if self.forwards == 0 {
            return 0.0;
        }
        let per_forward = self.sequences as f64 / self.forwards as f64;
        (per_forward / self.max_batch as f64).min(1.0)
    }

    /// Reset the clock and counters, keeping the cost constants.
    #[cfg(test)]
    fn reset(&mut self) {
        self.elapsed = 0.0;
        self.forwards = 0;
        self.sequences = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_amortizes_overhead() {
        let mut a = AcceleratorSim::default();
        let mut b = AcceleratorSim::default();
        // 64 singleton forwards vs one batch of 64.
        for _ in 0..64 {
            a.forward(1);
        }
        b.forward(64);
        assert!(a.elapsed_secs() > 5.0 * b.elapsed_secs());
    }

    #[test]
    fn oversized_batches_take_multiple_passes() {
        let mut sim = AcceleratorSim::default();
        let one = sim.forward(64);
        let two = sim.forward(128);
        assert!(two > one);
        assert!(two < 2.5 * one);
    }

    #[test]
    fn clock_accumulates() {
        let mut sim = AcceleratorSim::default();
        let c1 = sim.forward(8);
        let c2 = sim.forward(8);
        assert!((sim.elapsed_secs() - (c1 + c2)).abs() < 1e-12);
        assert_eq!(sim.forward_count(), 2);
        assert_eq!(sim.sequence_count(), 16);
    }

    #[test]
    fn utilization_reflects_batch_fill() {
        let mut full = AcceleratorSim::default();
        full.forward(64);
        assert!((full.utilization() - 1.0).abs() < 1e-12);
        let mut tiny = AcceleratorSim::default();
        tiny.forward(1);
        assert!(tiny.utilization() < 0.05);
    }

    #[test]
    fn reset_clears_counters() {
        let mut sim = AcceleratorSim::default();
        sim.forward(10);
        sim.reset();
        assert_eq!(sim.elapsed_secs(), 0.0);
        assert_eq!(sim.forward_count(), 0);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_rejected() {
        AcceleratorSim::default().forward(0);
    }
}
