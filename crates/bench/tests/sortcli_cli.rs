//! `sortcli` at its command-line boundary: malformed invocations exit 2
//! with a message instead of panicking, and every registered sorter runs
//! to a validated result.

use baselines::Sorter;
use std::process::{Command, Output};

fn sortcli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sortcli"))
        .args(args)
        .env_remove("BENCH_METRICS_OUT")
        .output()
        .expect("spawn sortcli")
}

/// Assert a usage error: exit code 2 and `message` on stderr.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = sortcli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains(message),
        "{args:?}: stderr lacks {message:?}: {stderr}"
    );
}

#[test]
fn zero_ranks_and_cores_are_usage_errors_on_every_backend() {
    for backend in ["sim", "threads", "sockets"] {
        assert_usage_error(
            &["--backend", backend, "--ranks", "0"],
            "--ranks must be at least 1",
        );
        assert_usage_error(
            &["--backend", backend, "--cores", "0"],
            "--cores must be at least 1",
        );
    }
}

#[test]
fn oversample_is_rejected_for_competitors_on_every_backend() {
    for backend in ["sim", "threads", "sockets"] {
        assert_usage_error(
            &[
                "--backend",
                backend,
                "--sorter",
                "hyksort",
                "--oversample",
                "4",
            ],
            "--oversample applies to the sds sorters only",
        );
    }
}

#[test]
fn unknown_sorter_lists_every_registered_name() {
    let out = sortcli(&["--sorter", "quicksort"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("unknown sorter quicksort"), "{stderr}");
    for sorter in Sorter::ALL {
        assert!(
            stderr.contains(sorter.name()),
            "the error must list {}: {stderr}",
            sorter.name()
        );
    }
}

#[test]
fn every_sorter_sorts_on_the_simulator() {
    for sorter in Sorter::ALL {
        let out = sortcli(&[
            "--sorter",
            sorter.name(),
            "--ranks",
            "4",
            "--records",
            "2000",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{}: stdout: {stdout}\nstderr: {}",
            sorter.name(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.contains("OK (sorted, permutation)"),
            "{}: {stdout}",
            sorter.name()
        );
    }
}
