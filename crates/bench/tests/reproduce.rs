//! The `reproduce` binary's usage errors, and the committed document held to
//! the registry (as `crates/net/tests/admin.rs` holds OBSERVABILITY.md to the
//! metric catalogue).

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    let reproduce = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output();
    reproduce.expect("the reproduce binary runs")
}

#[test]
fn unknown_names_and_flags_are_usage_errors() {
    let usage = "usage: reproduce [--full] [NAME…]";
    for args in [
        &["bogus"][..],
        &["--bogus"],
        &["table1", "--ful"],
        &["--full", "fig9"],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a document");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(usage),
            "{args:?}"
        );
    }
}

#[test]
fn named_experiments_run_alone_and_exit_zero() {
    let out = reproduce(&["table1", "section2"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = String::from_utf8(out.stdout).unwrap();
    let sections: Vec<&str> = doc.lines().filter(|l| l.starts_with("## ")).collect();
    let expected = [
        "## Findings",
        "## table1 — Appendix H, Table 1",
        "## section2 — §1.3.1, §2.2.1, §2.3",
    ];
    assert_eq!(sections, expected);
    assert!(doc.contains("- ✗ `table1/optimal-t` — paper ≈ 13, measured 11. The"));
}

#[test]
fn the_committed_document_has_every_experiment_and_every_finding() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/REPRODUCTION.md");
    let doc = std::fs::read_to_string(path).expect("docs/REPRODUCTION.md is committed");
    for e in bench::REGISTRY {
        let heading = format!("\n## {} — {}\n", e.name, e.section);
        assert!(doc.contains(&heading), "no section for {}", e.name);
        for claim in e.claims {
            let id = format!("`{}/{}`", e.name, claim.id);
            assert!(doc.contains(&id), "{id} is not in the document");
        }
    }
    let findings = doc.split("\n## ").find(|s| s.starts_with("Findings\n"));
    let findings = findings.expect("a Findings section");
    for (id, note) in bench::OPEN_FINDINGS {
        assert!(
            findings.contains(&format!("- ✗ `{id}` — ")),
            "{id} is not under Findings"
        );
        assert!(findings.contains(note), "{id}'s note is stale");
    }
    for stated in ["- **scale:** quick", "- **date:** 20", "- **box:** "] {
        assert!(
            doc.contains(stated),
            "the document does not state '{stated}'"
        );
    }
}
