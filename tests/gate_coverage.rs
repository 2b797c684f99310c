//! The tier-1 gate (`cargo test` at the repository root) runs the
//! workspace's default members, so every crate under `crates/` and every
//! vendored shim under `vendor/` must be one — a crate left out would
//! have its tests silently skipped.

use std::path::Path;

/// The string entries of `default-members` in the root manifest.
fn default_members(manifest: &str) -> Vec<String> {
    let line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("default-members"))
        .expect("the root manifest sets default-members");
    let list = line
        .split_once('[')
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("default-members is a one-line array")
        .0;
    list.split(',')
        .map(|s| s.trim().trim_matches('"').to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// The crate directories directly under `root/dir`.
fn crates_in(root: &Path, dir: &str) -> Vec<String> {
    let mut crates: Vec<String> = std::fs::read_dir(root.join(dir))
        .unwrap_or_else(|e| panic!("{dir}/ directory: {e}"))
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    crates
}

#[test]
fn every_crate_is_a_default_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let members = default_members(&manifest);
    assert!(
        members.iter().any(|m| m == "."),
        "the facade must stay a default member: {members:?}"
    );
    for (dir, at_least) in [("crates", 10), ("vendor", 5)] {
        let crates = crates_in(root, dir);
        assert!(crates.len() >= at_least, "found only {crates:?} in {dir}/");
        let glob = format!("{dir}/*");
        for name in &crates {
            let path = format!("{dir}/{name}");
            assert!(
                members.iter().any(|m| *m == path || *m == glob),
                "{path} is not a default member, so the gate skips its tests: {members:?}"
            );
        }
    }
}
