//! PIVOT-Sim: a cycle-accurate delay and energy simulator for ViT inference
//! on a Xilinx ZCU102 MPSoC FPGA systolic-array accelerator.
//!
//! Re-implements the PIVOT-Sim platform of the paper's Section 3.4 / Fig. 5:
//!
//! * All linear matrix-multiplication layers (QKV, QKᵀ, SM×V, Proj, MLP) run
//!   on the **programmable-logic (PL) systolic array** — modeled with
//!   SCALE-Sim-style fold-exact cycle counts ([`systolic`]) under the SRAM
//!   capacity constraints of Table 1, fed through a GB/DRAM bandwidth model.
//! * Non-linear operations (softmax, GELU, entropy, layer norm) run on the
//!   **processing system (PS)** ([`PsConfig`]).
//! * Delay of a low/high effort combination is
//!   `D = D_L + F_H * D_H`, where the `F_H * D_L` share inside `D_L` is the
//!   re-computation overhead (Section 3.4).
//! * Energy is per-component (PE array, SRAM, periphery, PS), calibrated
//!   once against the paper's published DeiT-S totals ([`calib`]) and held
//!   fixed for every experiment.
//!
//! # Example
//!
//! ```
//! use pivot_sim::{AcceleratorConfig, Simulator, VitGeometry};
//!
//! let sim = Simulator::new(AcceleratorConfig::zcu102());
//! let deit = VitGeometry::deit_s();
//! let perf = sim.simulate(&deit, &vec![true; deit.depth]);
//! assert!(perf.delay_ms > 1.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calib;
mod combine;
mod dataflow;
mod energy;
mod ladder;
mod ps;
mod report;
mod simulator;
pub mod systolic;
mod workload;

pub use combine::{combine_efforts, CombinedPerf};
pub use dataflow::Dataflow;
pub use energy::{EnergyBreakdown, EnergyComponent};
pub use ladder::{EnergyLedger, LadderEnergy};
pub use ps::{PsConfig, PsOpKind};
pub use report::{DelayBreakdown, EffortPerf, ModuleClass};
pub use simulator::{AcceleratorConfig, LayerReport, Simulator};
pub use systolic::{matmul_cycles, MatmulDims, MatmulStats};
pub use workload::{LayerOp, OpKind, VitGeometry, VitWorkload};

#[cfg(test)]
mod thread_safety {
    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn simulator_types_are_send_and_sync() {
        assert_send_sync::<crate::Simulator>();
        assert_send_sync::<crate::AcceleratorConfig>();
        assert_send_sync::<crate::EffortPerf>();
        assert_send_sync::<crate::CombinedPerf>();
        assert_send_sync::<crate::VitGeometry>();
    }
}
