//! Batched == serial inference: the model server's coalesced forward pass
//! over a block-diagonal union of CDFGs must give every program exactly
//! the probability rows it gets when run alone.

use std::sync::Arc;

use glaive_bench_suite::{control, data};
use glaive_cdfg::{CdfgConfig, FEATURE_DIM};
use glaive_gnn::{GraphSage, SageConfig};
use glaive_serve::{BatchWorkspace, PreparedProgram};

/// Three suite programs of different shapes (control-heavy, FP
/// data-parallel, integer sort), batched in one `run_prepared` call at
/// stride 16: every row is bit-identical to `predict_proba` on that
/// program alone.
#[test]
fn batched_inference_is_bit_identical_to_serial() {
    let model = GraphSage::try_new(
        FEATURE_DIM,
        &SageConfig {
            hidden: 8,
            layers: 2,
            ..SageConfig::default()
        },
    )
    .expect("valid model config");
    let config = CdfgConfig { bit_stride: 16 };
    let prepared: Vec<Arc<PreparedProgram>> = [
        control::dijkstra::build(42),
        data::blackscholes::build(42),
        data::radix::build(42),
    ]
    .into_iter()
    .map(|b| Arc::new(PreparedProgram::build(b.program().clone(), &config)))
    .collect();

    let batched = BatchWorkspace::new().run_prepared(&model, &prepared);
    assert_eq!(batched.len(), prepared.len());
    for (p, got) in prepared.iter().zip(&batched) {
        assert_eq!(got.batch_size, 3);
        let serial = model.predict_proba(&p.features, p.cdfg.preds_csr());
        assert_eq!(got.probs.rows(), serial.rows(), "{}", p.program.name());
        assert_eq!(got.probs.cols(), serial.cols(), "{}", p.program.name());
        for (i, (a, b)) in got.probs.data().iter().zip(serial.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{}: batched probability {i} diverges from serial",
                p.program.name()
            );
        }
    }
}
