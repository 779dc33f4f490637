//! Systolic-array dataflows and a cycle-level tile stepper.
//!
//! The closed-form per-fold cycle counts used by [`crate::systolic`] are
//! validated here against an explicit cycle-by-cycle simulation of one tile
//! (the test-only `simulate_fold_cycles`), in the same spirit as
//! SCALE-Sim's validated analytical mode.

/// Mapping of a matrix multiplication onto the PE array.
///
/// The paper's accelerator uses *input stationary* (Table 1); the other two
/// are provided for the dataflow ablation in `EXPERIMENTS.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dataflow {
    /// Input operand pinned in the array; weights stream through.
    #[default]
    InputStationary,
    /// Weights pinned; inputs stream through.
    WeightStationary,
    /// Outputs accumulate in place; both operands stream.
    OutputStationary,
}

impl Dataflow {
    /// Cycles to process one fold on an `rows x cols` array with a stream of
    /// length `stream`:
    ///
    /// * stationary dataflows: `rows` fill cycles + `stream` streaming
    ///   cycles + `cols - 1` drain cycles (skewed wavefront),
    /// * output stationary: `stream` accumulation cycles + `rows + cols - 2`
    ///   skew + drain of the accumulated outputs.
    pub(crate) fn fold_cycles(self, rows: usize, cols: usize, stream: usize) -> u64 {
        match self {
            Dataflow::InputStationary | Dataflow::WeightStationary => {
                (rows + stream + cols - 1) as u64
            }
            Dataflow::OutputStationary => (stream + rows + cols - 2) as u64,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataflow::InputStationary => "IS",
            Dataflow::WeightStationary => "WS",
            Dataflow::OutputStationary => "OS",
        }
    }
}

/// Cycle-level simulation of one stationary-dataflow fold.
///
/// Models the three phases of a fold as an explicit state machine advancing
/// one cycle at a time: the stationary operand is loaded row by row
/// (`rows` cycles), the streaming operand enters column-skewed over
/// `stream` cycles, and the last partial sum exits after the final skew of
/// `cols - 1` cycles. Exists to pin the closed-form count in
/// [`Dataflow::fold_cycles`] to an executable definition.
#[cfg(test)]
fn simulate_fold_cycles(rows: usize, cols: usize, stream: usize) -> u64 {
    #[derive(PartialEq)]
    enum Phase {
        Fill { remaining: usize },
        Stream { remaining: usize },
        Drain { remaining: usize },
        Done,
    }
    let mut phase = Phase::Fill { remaining: rows };
    let mut cycles = 0u64;
    loop {
        match phase {
            Phase::Fill { remaining } => {
                phase = if remaining > 1 {
                    Phase::Fill {
                        remaining: remaining - 1,
                    }
                } else {
                    Phase::Stream { remaining: stream }
                };
            }
            Phase::Stream { remaining } => {
                phase = if remaining > 1 {
                    Phase::Stream {
                        remaining: remaining - 1,
                    }
                } else if cols > 1 {
                    Phase::Drain {
                        remaining: cols - 1,
                    }
                } else {
                    Phase::Done
                };
            }
            Phase::Drain { remaining } => {
                phase = if remaining > 1 {
                    Phase::Drain {
                        remaining: remaining - 1,
                    }
                } else {
                    Phase::Done
                };
            }
            Phase::Done => break,
        }
        cycles += 1;
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn closed_form_matches_stepper() {
        for (r, c, s) in [
            (64, 36, 197),
            (8, 8, 1),
            (64, 36, 1536),
            (2, 2, 5),
            (1, 1, 1),
        ] {
            let formula = Dataflow::InputStationary.fold_cycles(r, c, s);
            let stepped = simulate_fold_cycles(r, c, s);
            assert_eq!(formula, stepped, "mismatch at ({r},{c},{s})");
        }
    }

    #[test]
    fn output_stationary_differs_from_stationary_flows() {
        let is = Dataflow::InputStationary.fold_cycles(64, 36, 100);
        let os = Dataflow::OutputStationary.fold_cycles(64, 36, 100);
        assert_eq!(is, 64 + 100 + 35);
        assert_eq!(os, 100 + 64 + 36 - 2);
        assert_ne!(is, os);
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Dataflow::InputStationary.name(),
            Dataflow::WeightStationary.name(),
            Dataflow::OutputStationary.name(),
        ];
        assert_eq!(names, ["IS", "WS", "OS"]);
    }

    proptest! {
        #[test]
        fn prop_stepper_equals_formula(r in 1usize..128, c in 1usize..128, s in 1usize..512) {
            prop_assert_eq!(
                Dataflow::InputStationary.fold_cycles(r, c, s),
                simulate_fold_cycles(r, c, s)
            );
        }

        #[test]
        fn prop_fold_cycles_monotone_in_stream(r in 1usize..64, c in 1usize..64, s in 1usize..256) {
            for df in [Dataflow::InputStationary, Dataflow::OutputStationary] {
                prop_assert!(df.fold_cycles(r, c, s + 1) > df.fold_cycles(r, c, s));
            }
        }
    }
}
