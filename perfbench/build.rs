//! Records the rustc flags the benchmark was compiled with (they carry the
//! `target-cpu` choice) so every result can name the code generation target.

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "-C" && w[1].starts_with("target-cpu="))
        .map(|w| w[1].trim_start_matches("target-cpu=").to_string())
        .or_else(|| {
            flags
                .split('\x1f')
                .find_map(|f| f.strip_prefix("-Ctarget-cpu=").map(str::to_string))
        })
        .unwrap_or_else(|| "default".to_string());
    println!("cargo:rustc-env=PERFBENCH_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
}
