//! The bit-identity contracts, checked at tier 1:
//!
//! - batched == serial inference: the model server's coalesced forward
//!   pass over a block-diagonal union of CDFGs must give every program
//!   exactly the probability rows it gets when run alone;
//! - distributed == serial fault injection: a campaign sharded over a
//!   loopback worker fleet merges to the serial ground truth's bytes;
//! - N == 1 training threads: data-parallel GraphSAGE training yields the
//!   serial model's bytes.

use std::net::TcpListener;
use std::sync::Arc;

use glaive_bench_suite::{control, data};
use glaive_campaign::{run_worker, Coordinator, FabricConfig};
use glaive_cdfg::{CdfgConfig, FEATURE_DIM};
use glaive_faultsim::{Campaign, CampaignConfig, RunControl};
use glaive_gnn::{GraphSage, SageConfig, TrainGraph};
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

/// One suite program's campaign through an in-process coordinator and two
/// `run_worker` threads over loopback: the merged truth serialises to the
/// serial `Campaign::run` bytes. Small chunks make both workers take part.
#[test]
fn distributed_fault_injection_is_bit_identical_to_serial() {
    let bench = data::blackscholes::build(42);
    let config = CampaignConfig::quick();
    let serial = Campaign::try_new(bench.program(), &bench.init_mem, config)
        .expect("valid campaign")
        .run();

    let fabric = FabricConfig {
        chunk_size: 16,
        ..FabricConfig::default()
    };
    let coordinator = Coordinator::try_new(bench.program(), &bench.init_mem, config, fabric)
        .expect("valid fabric");
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener");
    let addr = listener.local_addr().expect("bound").to_string();
    let distributed = std::thread::scope(|scope| {
        for i in 0..2 {
            let addr = &addr;
            // A worker that dials after the merge finds the listener
            // closed; the merged truth is what is checked.
            scope.spawn(move || run_worker(addr, &format!("identity-{i}"), None));
        }
        coordinator.run(listener, &RunControl::new())
    })
    .expect("fabric completes");

    assert!(
        distributed.to_bytes() == serial.to_bytes(),
        "distributed ground truth diverged from serial"
    );
}

/// GraphSAGE trained over three suite graphs (stride 32) at 1 and at 2
/// threads serialises to the same bytes. The labels are a fixed function
/// of the node id: the contract is about the gradient reduction order,
/// not about what is learned.
#[test]
fn two_thread_training_is_bit_identical_to_serial() {
    let config = CdfgConfig { bit_stride: 32 };
    let prepared: Vec<PreparedProgram> = [
        control::dijkstra::build(42),
        data::blackscholes::build(42),
        data::radix::build(42),
    ]
    .into_iter()
    .map(|b| PreparedProgram::build(b.program().clone(), &config))
    .collect();
    let tasks: Vec<(Vec<usize>, Vec<bool>)> = prepared
        .iter()
        .map(|p| {
            let n = p.cdfg.node_count();
            ((0..n).map(|v| v % 3).collect(), vec![true; n])
        })
        .collect();
    let graphs: Vec<TrainGraph<'_>> = prepared
        .iter()
        .zip(&tasks)
        .map(|(p, (labels, mask))| TrainGraph {
            features: &p.features,
            graph: p.cdfg.preds_csr(),
            labels,
            mask,
        })
        .collect();
    let sage = SageConfig {
        hidden: 8,
        layers: 2,
        sample_size: 4,
        epochs: 2,
        ..SageConfig::default()
    };
    let trained = |threads| {
        let mut model = GraphSage::try_new(FEATURE_DIM, &sage).expect("valid model config");
        model.train_with_threads(&graphs, threads);
        model.to_bytes()
    };
    assert!(
        trained(2) == trained(1),
        "2-thread training diverged from serial"
    );
}
