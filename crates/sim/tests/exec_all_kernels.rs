//! Every tiny kernel's SPR-generated configware must execute value-equal
//! to the DFG reference under all five input-vector families.

use panorama_arch::{Cgra, CgraConfig};
use panorama_dfg::{kernels, KernelId, KernelScale};
use panorama_mapper::{LowerLevelMapper, SprMapper};
use panorama_sim::exec::{execute, ExecOptions};

#[test]
fn all_tiny_kernels_execute_value_equal_under_spr() {
    let cgra = Cgra::new(CgraConfig::scaled_8x8()).unwrap();
    for kernel in KernelId::ALL {
        let dfg = kernels::generate(kernel, KernelScale::Tiny);
        let mapping = SprMapper::default()
            .map(&dfg, &cgra, None)
            .unwrap_or_else(|e| panic!("{kernel:?} must map: {e}"));
        mapping.verify(&dfg, &cgra).unwrap();
        let outcome = execute(&dfg, &cgra, &mapping, &ExecOptions::default()).unwrap();
        assert!(
            outcome.passed(),
            "{kernel:?} diverged: {:?}",
            outcome.first_divergence()
        );
        assert_eq!(outcome.checked_total(), 5 * dfg.num_ops() * 8, "{kernel:?}");
    }
}
