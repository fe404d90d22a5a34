//! The workspace carries only what it uses: every dependency a manifest
//! lists is named by the sources that may use it, and the online service
//! links no simulator.
//!
//! The manifests are read as text (the workspace has no TOML parser and
//! needs none: every dependency line is `name.workspace = true` or
//! `name = { ... }` under a `[...dependencies]` header).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// One package: its name, its directory and its dependency tables.
struct Manifest {
    name: String,
    dir: PathBuf,
    normal: Vec<String>,
    build: Vec<String>,
    dev: Vec<String>,
}

impl Manifest {
    fn read(dir: &Path) -> Manifest {
        let path = dir.join("Cargo.toml");
        let text = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut manifest = Manifest {
            name: String::new(),
            dir: dir.to_path_buf(),
            normal: Vec::new(),
            build: Vec::new(),
            dev: Vec::new(),
        };
        let mut section = String::new();
        for line in text.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if line.starts_with('[') {
                section = line.trim_matches(['[', ']']).to_string();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let dep = key.split('.').next().unwrap_or(key).to_string();
            match section.as_str() {
                "package" if key == "name" => manifest.name = value.trim().trim_matches('"').into(),
                "dependencies" => manifest.normal.push(dep),
                "build-dependencies" => manifest.build.push(dep),
                "dev-dependencies" => manifest.dev.push(dep),
                _ => {}
            }
        }
        assert!(
            !manifest.name.is_empty(),
            "{}: no [package] name",
            path.display()
        );
        manifest
    }
}

/// The root package and every `crates/*` member.
fn manifests() -> Vec<Manifest> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.to_path_buf()];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .collect();
    members.sort();
    dirs.extend(members);
    dirs.iter().map(|dir| Manifest::read(dir)).collect()
}

/// The `.rs` sources under `paths` (files or directories; missing ones
/// are skipped), with `//` comments cut so a doc mention names nothing.
fn sources(dir: &Path, paths: &[&str]) -> String {
    fn walk(path: &Path, out: &mut String) {
        if path.is_dir() {
            let mut entries: Vec<PathBuf> = fs::read_dir(path)
                .expect("source dir")
                .map(|entry| entry.expect("source entry").path())
                .collect();
            entries.sort();
            for entry in entries {
                walk(&entry, out);
            }
        } else if path.is_file() && path.extension().is_some_and(|ext| ext == "rs") {
            for line in fs::read_to_string(path).expect("source file").lines() {
                out.push_str(line.split("//").next().unwrap_or(""));
                out.push('\n');
            }
        }
    }
    let mut out = String::new();
    for path in paths {
        walk(&dir.join(path), &mut out);
    }
    out
}

/// Whether `code` names the crate `dep` (a manifest name such as
/// `hp-core`): a path through it, or a `use` of it (`pub use hp_sim as
/// sim;`).
fn names(code: &str, dep: &str) -> bool {
    let ident = dep.replace('-', "_");
    [format!("{ident}::"), format!("use {ident}")]
        .iter()
        .any(|pattern| {
            code.match_indices(pattern.as_str()).any(|(at, _)| {
                // `my_rand::` is not `rand::`.
                !code[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_')
            })
        })
}

fn unnamed(manifest: &Manifest, deps: &[String], paths: &[&str]) -> Vec<String> {
    let code = sources(&manifest.dir, paths);
    deps.iter()
        .filter(|dep| !names(&code, dep))
        .map(|dep| {
            format!(
                "{} -> {dep} (not named in {})",
                manifest.name,
                paths.join(", ")
            )
        })
        .collect()
}

#[test]
fn every_normal_and_build_dependency_is_named_by_its_sources() {
    let mut unused = Vec::new();
    for manifest in manifests() {
        unused.extend(unnamed(&manifest, &manifest.normal, &["src"]));
        unused.extend(unnamed(&manifest, &manifest.build, &["build.rs"]));
    }
    assert!(
        unused.is_empty(),
        "dependencies no source uses:\n{}",
        unused.join("\n")
    );
}

#[test]
fn every_dev_dependency_is_named_by_a_source_test_example_or_bench() {
    let mut unused = Vec::new();
    for manifest in manifests() {
        let paths = ["src", "tests", "examples", "benches"];
        unused.extend(unnamed(&manifest, &manifest.dev, &paths));
    }
    assert!(
        unused.is_empty(),
        "dev-dependencies no target uses:\n{}",
        unused.join("\n")
    );
}

#[test]
fn nothing_the_service_links_depends_on_the_simulator() {
    let by_name: BTreeMap<String, Manifest> = manifests()
        .into_iter()
        .map(|m| (m.name.clone(), m))
        .collect();
    let mut closure = vec!["hp-service".to_string()];
    let mut next = 0;
    while let Some(name) = closure.get(next).cloned() {
        next += 1;
        let manifest = &by_name[&name];
        assert!(
            !manifest.normal.iter().any(|dep| dep == "hp-sim"),
            "{name} is in hp-service's normal-dependency closure and depends on hp-sim"
        );
        for dep in &manifest.normal {
            // Vendored stand-ins are not workspace members and link no hp-*.
            if by_name.contains_key(dep) && !closure.contains(dep) {
                closure.push(dep.clone());
            }
        }
    }
    assert!(
        closure.len() > 1,
        "hp-service lists no workspace crate: nothing was walked"
    );
}
