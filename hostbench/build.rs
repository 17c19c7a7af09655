//! Records the host-fingerprint facts known only at build time: the
//! compiler version and the git commit of the simulator source.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=HOSTBENCH_RUSTC={version}");

    // The git commit, when the checkout carries its git metadata.
    let commit = if Path::new("../.git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
        Command::new("git")
            .args(["-C", "..", "rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    } else {
        None
    };
    println!(
        "cargo:rustc-env=HOSTBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "none".to_string())
    );
}
