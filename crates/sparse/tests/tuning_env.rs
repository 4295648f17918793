//! `Tuning::default()` re-reads the `SYMCLUST_*` variables at every
//! construction. The benchmark's replay flips them between calls inside
//! one process, and the `threads-matrix` / `oom-matrix` CI stages select
//! kernel variants through them, so a cached default would silently run
//! every variant as the first one.
//!
//! One `#[test]`, alone in this file: the environment is process-global.

use std::env::{remove_var, set_var};
use symclust_sparse::{PanelPlan, SpgemmOptions, Tuning};

const VARS: [&str; 3] = [
    "SYMCLUST_THREADS",
    "SYMCLUST_PANEL_ROWS",
    "SYMCLUST_MEMORY_BUDGET",
];

#[test]
fn every_default_reads_the_environment_afresh() {
    for var in VARS {
        remove_var(var);
    }
    let unset = Tuning {
        threads: 1,
        panel: PanelPlan::default(),
    };
    assert_eq!(Tuning::default(), unset);
    assert!(!unset.panel.engaged());

    // (variable, value, what the next default must be)
    let threads = |threads| Tuning {
        threads,
        ..unset.clone()
    };
    let panel = |panel_rows, budget_bytes| Tuning {
        panel: PanelPlan {
            panel_rows,
            spill_dir: None,
            budget_bytes,
        },
        ..unset.clone()
    };
    let steps: [(&str, &str, Tuning); 12] = [
        ("SYMCLUST_THREADS", "4", threads(4)),
        ("SYMCLUST_THREADS", " 2 ", threads(2)),
        ("SYMCLUST_THREADS", "0", threads(0)), // all cores
        ("SYMCLUST_THREADS", "many", unset.clone()),
        ("SYMCLUST_PANEL_ROWS", "4096", panel(Some(4096), None)),
        ("SYMCLUST_PANEL_ROWS", "7", panel(Some(7), None)),
        ("SYMCLUST_PANEL_ROWS", "0", unset.clone()),
        ("SYMCLUST_PANEL_ROWS", "-1", unset.clone()),
        (
            "SYMCLUST_MEMORY_BUDGET",
            "1048576",
            panel(None, Some(1 << 20)),
        ),
        ("SYMCLUST_MEMORY_BUDGET", "1", panel(None, Some(1))),
        ("SYMCLUST_MEMORY_BUDGET", "0", unset.clone()),
        ("SYMCLUST_MEMORY_BUDGET", "1e6", unset.clone()),
    ];
    for (var, value, want) in steps {
        set_var(var, value);
        assert_eq!(Tuning::default(), want, "{var}={value:?}");
        assert_eq!(Tuning::from_env(), want, "{var}={value:?}");
        assert_eq!(
            SpgemmOptions::default().tuning,
            want,
            "{var}={value:?} through an option struct"
        );
        assert_eq!(want.panel.engaged(), want.panel != PanelPlan::default());
        set_var(var, "");
        assert_eq!(Tuning::default(), unset, "{var} set but empty");
        remove_var(var);
        assert_eq!(Tuning::default(), unset, "{var} removed");
    }

    // The variables compose, as the benchmark's spill variant sets them.
    set_var("SYMCLUST_THREADS", "2");
    set_var("SYMCLUST_PANEL_ROWS", "4096");
    set_var("SYMCLUST_MEMORY_BUDGET", "1048576");
    assert_eq!(
        Tuning::default(),
        Tuning {
            threads: 2,
            panel: PanelPlan {
                panel_rows: Some(4096),
                spill_dir: None,
                budget_bytes: Some(1 << 20),
            },
        }
    );
    for var in VARS {
        remove_var(var);
    }
    assert_eq!(Tuning::default(), unset);
}
