//! Fold-exact cycle and traffic model of the PL systolic array.
//!
//! A matrix multiplication `M x K * K x N` is executed as a grid of *folds*
//! on the `rows x cols` PE array (Table 1: 64 x 36). For the paper's
//! input-stationary dataflow the input tile (`K` along array rows, `M` along
//! array columns) is pinned, and all `N` weight columns stream through per
//! fold; the per-fold cycle count is validated against a cycle-level
//! stepper in the dataflow module's tests.
//!
//! Memory behaviour follows the Fig. 5 hierarchy: weights travel
//! DRAM -> GB -> WTMEM and are re-fetched from DRAM for every column fold
//! whenever the layer's weights exceed the 16 KB global buffer; inputs are
//! fetched once; outputs are written back once (8-bit, requantized on the
//! fly). Compute and DRAM traffic overlap (double buffering), so a layer's
//! latency is `max(compute cycles, DRAM cycles)`.

use crate::simulator::AcceleratorConfig;
use crate::Dataflow;

/// Dimensions of one matrix multiplication `M x K * K x N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulDims {
    /// Rows of the left operand (e.g. tokens).
    pub m: usize,
    /// Contraction dimension.
    pub k: usize,
    /// Columns of the right operand.
    pub n: usize,
}

impl MatmulDims {
    /// Creates dimensions.
    ///
    /// # Panics
    ///
    /// Panics if any extent is zero.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        assert!(
            m > 0 && k > 0 && n > 0,
            "matmul dims must be positive: {m}x{k}x{n}"
        );
        Self { m, k, n }
    }

    /// Total multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }
}

/// Cycle and traffic statistics of one matrix multiplication on the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulStats {
    /// Pure compute cycles (fills + streams + drains over all folds).
    pub compute_cycles: u64,
    /// Cycles needed to move all DRAM traffic at the configured bandwidth.
    pub dram_cycles: u64,
    /// `max(compute, dram)` — the layer latency under double buffering.
    pub total_cycles: u64,
    /// Number of folds executed.
    pub folds: u64,
    /// Total MAC operations.
    pub macs: u64,
    /// Bytes moved to/from DRAM (weights with GB-miss re-fetch, inputs once,
    /// outputs once).
    pub dram_bytes: u64,
    /// Bytes read/written on the on-chip SRAMs (IPMEM + WTMEM + OPMEM).
    pub sram_bytes: u64,
}

impl MatmulStats {
    /// PE-array utilization: ideal cycles / compute cycles, in `(0, 1]`.
    pub fn utilization(&self, pe_rows: usize, pe_cols: usize) -> f64 {
        let ideal = self.macs as f64 / (pe_rows * pe_cols) as f64;
        ideal / self.compute_cycles as f64
    }
}

/// Simulates one matrix multiplication `M x K * K x N` on the accelerator.
///
/// Fold grid by dataflow:
///
/// * `InputStationary` — input tile pinned (`K` on rows, `M` on cols);
///   folds = `ceil(K/R) * ceil(M/C)`, stream length `N`.
/// * `WeightStationary` — weight tile pinned (`K` on rows, `N` on cols);
///   folds = `ceil(K/R) * ceil(N/C)`, stream length `M`.
/// * `OutputStationary` — output tile pinned (`M` on rows, `N` on cols);
///   folds = `ceil(M/R) * ceil(N/C)`, stream length `K`.
pub fn matmul_cycles(dims: MatmulDims, accel: &AcceleratorConfig) -> MatmulStats {
    let (rows, cols) = (accel.pe_rows, accel.pe_cols);
    let df = accel.dataflow;
    let div_up = |a: usize, b: usize| a.div_ceil(b);

    let (fold_r, fold_c, stream) = match df {
        Dataflow::InputStationary => (div_up(dims.k, rows), div_up(dims.m, cols), dims.n),
        Dataflow::WeightStationary => (div_up(dims.k, rows), div_up(dims.n, cols), dims.m),
        Dataflow::OutputStationary => (div_up(dims.m, rows), div_up(dims.n, cols), dims.k),
    };
    let folds = (fold_r * fold_c) as u64;
    let compute_cycles = folds * df.fold_cycles(rows, cols, stream);

    // --- DRAM traffic (bytes, 8-bit operands) ---
    let weight_bytes = (dims.k * dims.n) as u64;
    let input_bytes = (dims.m * dims.k) as u64;
    let output_bytes = (dims.m * dims.n) as u64;
    // Weights are re-fetched from DRAM once per reuse-limiting fold when the
    // layer's weights do not fit the global buffer.
    let weight_refetches = if weight_bytes <= accel.gb_bytes as u64 {
        1
    } else {
        match df {
            // Input stationary: weights stream fully for every M-column fold.
            Dataflow::InputStationary => div_up(dims.m, cols) as u64,
            // Weight stationary: weights are fetched once per fold grid pass.
            Dataflow::WeightStationary => 1,
            // Output stationary: weights stream per M-row fold.
            Dataflow::OutputStationary => div_up(dims.m, rows) as u64,
        }
    };
    let dram_bytes = weight_bytes * weight_refetches + input_bytes + output_bytes;
    let dram_cycles = dram_bytes.div_ceil(accel.dram_bytes_per_cycle as u64);

    // --- SRAM traffic: stationary operand loaded per fold, streaming
    // operand read per fold, outputs written with per-K-fold partial sums.
    let sram_bytes = match df {
        Dataflow::InputStationary => {
            input_bytes + weight_bytes * div_up(dims.m, cols) as u64 + output_bytes * fold_r as u64
        }
        Dataflow::WeightStationary => {
            weight_bytes + input_bytes * div_up(dims.n, cols) as u64 + output_bytes * fold_r as u64
        }
        Dataflow::OutputStationary => {
            output_bytes
                + input_bytes * div_up(dims.n, cols) as u64
                + weight_bytes * div_up(dims.m, rows) as u64
        }
    };

    MatmulStats {
        compute_cycles,
        dram_cycles,
        total_cycles: compute_cycles.max(dram_cycles),
        folds,
        macs: dims.macs(),
        dram_bytes,
        sram_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::AcceleratorConfig;

    fn zcu102() -> AcceleratorConfig {
        AcceleratorConfig::zcu102()
    }

    #[test]
    fn deit_qkv_projection_cycles() {
        // X(197x384) * W(384x384) on 64x36 IS: folds = ceil(384/64)*ceil(197/36)
        // = 6*6 = 36, fold cycles = 64 + 384 + 35 = 483.
        let stats = matmul_cycles(MatmulDims::new(197, 384, 384), &zcu102());
        assert_eq!(stats.folds, 36);
        assert_eq!(stats.compute_cycles, 36 * 483);
        let util = stats.utilization(64, 36);
        assert!((0.5..=1.0).contains(&util), "utilization {util}");
    }

    #[test]
    fn single_pe_tile_is_exact() {
        let accel = AcceleratorConfig {
            pe_rows: 1,
            pe_cols: 1,
            ..zcu102()
        };
        // 1x1 array: every MAC is one fold element; folds = K*M, stream N.
        let stats = matmul_cycles(MatmulDims::new(2, 3, 4), &accel);
        assert_eq!(stats.folds, 6);
        assert_eq!(stats.compute_cycles, 6 * (1 + 4));
        assert_eq!(stats.macs, 24);
    }

    #[test]
    fn bigger_matrices_take_longer() {
        let small = matmul_cycles(MatmulDims::new(100, 100, 100), &zcu102());
        let big = matmul_cycles(MatmulDims::new(200, 100, 100), &zcu102());
        assert!(big.total_cycles > small.total_cycles);
        assert!(big.dram_bytes > small.dram_bytes);
    }

    #[test]
    fn weights_fitting_gb_are_fetched_once() {
        // 64x64 weights = 4 KB <= 16 KB GB.
        let stats = matmul_cycles(MatmulDims::new(100, 64, 64), &zcu102());
        assert_eq!(stats.dram_bytes, 64 * 64 + 100 * 64 + 100 * 64);
    }

    #[test]
    fn large_weights_are_refetched_per_fold() {
        // 384x384 = 147 KB > 16 KB GB; IS refetches per ceil(M/36) folds.
        let dims = MatmulDims::new(197, 384, 384);
        let stats = matmul_cycles(dims, &zcu102());
        let expected = (384 * 384) as u64 * 6 + (197 * 384) as u64 * 2;
        assert_eq!(stats.dram_bytes, expected);
    }

    #[test]
    fn dataflows_produce_different_latencies() {
        let dims = MatmulDims::new(197, 384, 1536);
        let is = matmul_cycles(dims, &zcu102());
        let ws = matmul_cycles(
            dims,
            &AcceleratorConfig {
                dataflow: Dataflow::WeightStationary,
                ..zcu102()
            },
        );
        let os = matmul_cycles(
            dims,
            &AcceleratorConfig {
                dataflow: Dataflow::OutputStationary,
                ..zcu102()
            },
        );
        // All three are valid mappings of the same work.
        assert_eq!(is.macs, ws.macs);
        assert_eq!(is.macs, os.macs);
        // But with distinct latency profiles.
        assert!(is.compute_cycles != ws.compute_cycles || is.compute_cycles != os.compute_cycles);
    }

    #[test]
    fn latency_is_max_of_compute_and_memory() {
        let starved = AcceleratorConfig {
            dram_bytes_per_cycle: 1,
            ..zcu102()
        };
        let stats = matmul_cycles(MatmulDims::new(197, 384, 384), &starved);
        assert_eq!(stats.total_cycles, stats.dram_cycles);
        assert!(stats.dram_cycles > stats.compute_cycles);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dims_panic() {
        let _ = MatmulDims::new(0, 1, 1);
    }
}
