//! Self-test: the benchmark must fail a mediator that answers wrongly,
//! and pass the real one.

use starlink_hostbench::run::{run, Options, Outcome};
use starlink_hostbench::workload::{Tamper, Workload};

fn short_run(workload: Workload, tamper: Tamper, trace: bool) -> Outcome {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.4,
        trace,
        tamper,
    })
    .expect("deployment builds")
}

#[test]
fn correct_deployments_report_no_errors() {
    for workload in Workload::ALL {
        let out = short_run(workload, Tamper::None, false);
        assert!(out.correct, "{}: {:?}", workload.name(), out.problems);
        assert!(out.attempted > 0);
        assert_eq!(out.error_rate(), 0.0, "{}", workload.name());
    }
}

#[test]
fn tampered_gamma_fails_the_run() {
    let out = short_run(Workload::AddPlusTcp, Tamper::SwapGamma, false);
    assert!(!out.correct);
    assert!(out.error_rate() > 0.0);
}

#[test]
fn differently_seeded_stand_in_fails_the_run() {
    for workload in [Workload::FlickrChurnMem, Workload::FlickrBulkMem] {
        let out = short_run(workload, Tamper::StoreSeed(8), false);
        assert!(!out.correct, "{}", workload.name());
        assert!(out.error_rate() > 0.0, "{}", workload.name());
    }
}

#[test]
fn traced_parts_add_up_to_the_op() {
    for workload in Workload::ALL {
        let out = short_run(workload, Tamper::None, true);
        assert!(out.correct, "{}: {:?}", workload.name(), out.problems);
        let get = |name: &str| {
            out.metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{} lacks {name}", workload.name()))
                .value
        };
        let op = get("trace.op_us");
        assert!(op > 0.0);
        assert!(
            get("trace.unattributed_us").abs() < 0.1 * op,
            "{}: unattributed {} of {op} us",
            workload.name(),
            get("trace.unattributed_us")
        );
        assert!(get("mdl.parse_calls") > 0.0);
        assert!(get("core.mediator_us") > 0.0);
        assert!(out.spans.as_deref().is_some_and(|s| s.lines().count() > 1));
    }
}
