//! Command-line contract of the `fpva-lint` binary: check names given to
//! `--only` and `--allow` must come from `lint::CHECKS`.

use std::process::Command;

fn fpva_lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_fpva-lint"))
        .args(args)
        .output()
        .expect("fpva-lint runs")
}

#[test]
fn unknown_check_names_are_usage_errors() {
    for args in [
        &["--only", "cetify"][..],
        &["--allow", "symmetry"],
        &["--certify", "--only", "conflict-density"],
        &["--allow", "cut-cover", "--allow", "Certify"],
    ] {
        let out = fpva_lint(args);
        assert_eq!(out.status.code(), Some(2), "fpva-lint {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown check"),
            "fpva-lint {args:?}: stderr {stderr:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "fpva-lint {args:?} linted despite the usage error"
        );
    }
}
