//! Embeds the provenance every result records: the rustc version, the
//! git revision when the sources are a git checkout, and a content
//! hash of the repository's crates, which identifies the code even in a
//! checkout without git metadata.

use std::path::{Path, PathBuf};
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, files);
            }
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            files.push(p);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("perfbench sits in the repository root");
    let crates = root.join("crates");
    println!("cargo:rerun-if-changed={}", crates.display());
    println!("cargo:rerun-if-changed=build.rs");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    let rev = output(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"]),
    )
    .unwrap_or_else(|| "unknown".into());

    let mut files = Vec::new();
    collect(&crates, &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(std::fs::read(f).unwrap_or_default()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=PERFBENCH_TREE=fnv1a:{h:016x}");
}
