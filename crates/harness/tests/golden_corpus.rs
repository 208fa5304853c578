//! Golden-corpus gate: the `filament expand` output of every design in the
//! corpus is checked into `tests/golden/` and any drift fails the build.
//!
//! The snapshots pin down the entire front half of the compiler — parsing,
//! const-expr arithmetic, `for`/`if`-generate elaboration, bundle
//! flattening, monomorphization naming, and the pretty-printer — as one
//! observable artifact per design. An intentional change regenerates them:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p fil-harness --test golden_corpus
//! ```

use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn update_mode() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn corpus_expansions_match_checked_in_snapshots() {
    let dir = golden_dir();
    let update = update_mode();
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/golden");
    }
    let mut expected_files = std::collections::BTreeSet::new();
    let mut failures = Vec::new();
    for (name, src, _top) in fil_designs::corpus() {
        let expanded = fil_stdlib::build(&fil_stdlib::BuildRequest::new(src.as_str()))
            .unwrap_or_else(|e| panic!("{name} fails to expand: {e}"))
            .expanded_text
            .expect("expanded text is on by default");
        let path = dir.join(format!("{name}.expanded.fil"));
        expected_files.insert(format!("{name}.expanded.fil"));
        if update {
            std::fs::write(&path, &expanded).expect("write snapshot");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(golden) if golden == expanded => {}
            Ok(golden) => failures.push(format!(
                "{name}: expansion drifted from {} ({} vs {} bytes); run \
                 UPDATE_GOLDEN=1 cargo test -p fil-harness --test golden_corpus \
                 if the change is intentional.\n--- first differing line ---\n{}",
                path.display(),
                golden.len(),
                expanded.len(),
                first_diff(&golden, &expanded),
            )),
            Err(e) => failures.push(format!(
                "{name}: missing snapshot {} ({e}); run UPDATE_GOLDEN=1 to create it",
                path.display()
            )),
        }
    }
    // Stale snapshots (removed/renamed corpus entries) also fail the gate.
    if !update {
        for entry in std::fs::read_dir(&dir).expect("tests/golden exists") {
            let fname = entry.expect("dir entry").file_name();
            let fname = fname.to_string_lossy().into_owned();
            if fname.ends_with(".expanded.fil") && !expected_files.contains(&fname) {
                failures.push(format!(
                    "stale snapshot {fname} has no corpus entry; delete it or re-run \
                     with UPDATE_GOLDEN=1"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

/// The first line where the two snapshots disagree, with context.
fn first_diff(golden: &str, new: &str) -> String {
    for (i, (g, n)) in golden.lines().zip(new.lines()).enumerate() {
        if g != n {
            return format!("line {}:\n  golden: {g}\n  new:    {n}", i + 1);
        }
    }
    "one snapshot is a prefix of the other".into()
}

#[test]
fn snapshots_reparse_and_recheck() {
    // The checked-in artifacts are themselves valid, checkable Filament:
    // parse each snapshot against the stdlib and run the type checker.
    if update_mode() {
        return; // Snapshots may be mid-rewrite.
    }
    for (name, _src, _top) in fil_designs::corpus() {
        let path = golden_dir().join(format!("{name}.expanded.fil"));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing snapshot ({e}); run UPDATE_GOLDEN=1"));
        let program = fil_stdlib::build(
            &fil_stdlib::BuildRequest::new(golden.as_str())
                .raw()
                .expanded(false),
        )
        .map(|out| out.raw.expect("raw was requested"))
        .unwrap_or_else(|e| panic!("{name}: snapshot does not reparse: {e}"));
        // Snapshots are already concrete, so expansion is the identity and
        // the checker accepts them directly.
        let expanded = filament_core::mono::expand(&program)
            .unwrap_or_else(|e| panic!("{name}: snapshot does not re-expand: {e}"));
        assert_eq!(
            program, expanded,
            "{name}: snapshot is not a fixpoint of expansion"
        );
        filament_core::check_program(&expanded)
            .unwrap_or_else(|e| panic!("{name}: snapshot fails the checker: {e:#?}"));
    }
}

/// Artifacts store each expanded component only in the binary AST codec,
/// and a unit the codec cannot encode is never cached. So every component
/// `mono::expand` emits for the corpus must encode, and decode back to
/// itself, or warm builds would silently redo that unit's work.
#[test]
fn corpus_expansions_fit_the_artifact_ast_codec() {
    for (name, src, _top) in fil_designs::corpus() {
        let mut program = fil_stdlib::std_program();
        program.extend(
            filament_core::parse_program(&src)
                .unwrap_or_else(|e| panic!("{name}: source does not parse: {e}")),
        );
        let expanded = filament_core::mono::expand(&program)
            .unwrap_or_else(|e| panic!("{name}: source does not expand: {e}"));
        for comp in &expanded.components {
            let bytes = fil_build::ast_bin::encode(comp)
                .unwrap_or_else(|| panic!("{name}: {} falls outside the AST codec", comp.sig.name));
            let back = fil_build::ast_bin::decode(&bytes)
                .unwrap_or_else(|e| panic!("{name}: {} does not decode: {e}", comp.sig.name));
            assert_eq!(
                &back, comp,
                "{name}: {} changed in the codec",
                comp.sig.name
            );
        }
    }
}
