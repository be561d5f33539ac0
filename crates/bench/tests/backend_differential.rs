//! Frame-level differential: the discrete-event core against the
//! thread-per-rank oracle (`Backend::Thread`) on the *real* pipeline.
//!
//! The trace-level equivalence (vector clocks, wildcard replay, fault
//! events) is property-tested inside `pvr-mpisim`; this test closes
//! the loop at the frame level — for every world size up to the
//! satellite's n ≤ 16 floor, one end-to-end direct-send frame must
//! come out byte-identical on both executors, with the same render
//! and exchange statistics. `pvr-bench` always enables `thread-exec`,
//! so this runs in every workspace-wide `cargo test`.

use pvr_core::pipeline::run_frame_mpi_sim;
use pvr_core::{shared_dataset, FrameConfig};
use pvr_mpisim::{Backend, RunOptions};

#[test]
fn frames_are_byte_identical_across_backends() {
    for n in [2usize, 3, 5, 8, 12, 16] {
        let cfg = FrameConfig::small(16, 24, n);
        let path = shared_dataset("diff.raw", &cfg).unwrap();
        let run = |backend: Backend| {
            run_frame_mpi_sim(&cfg, &path, RunOptions::default().with_backend(backend))
                .unwrap_or_else(|e| panic!("n={n} {backend:?} frame failed: {e}"))
        };
        let (event, event_sim) = run(Backend::Event);
        let (thread, thread_sim) = run(Backend::Thread);
        assert!(
            event_sim.is_some() && thread_sim.is_none(),
            "scheduler stats come from the event core only"
        );
        assert_eq!(
            event.image.pixels(),
            thread.image.pixels(),
            "n={n}: frame bytes diverge across backends"
        );
        assert_eq!(
            event.render.samples, thread.render.samples,
            "n={n}: render work diverges across backends"
        );
        assert_eq!(
            event.composite.bytes, thread.composite.bytes,
            "n={n}: exchange bytes diverge across backends"
        );
        assert_eq!(
            event.composite.messages, thread.composite.messages,
            "n={n}: exchange message counts diverge across backends"
        );
    }
}
