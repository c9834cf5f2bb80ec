#!/usr/bin/env bash
# The benchmark's own gate: its self-tests, then every workload at smoke
# size, untraced and traced. Any failed output check (a digest that is
# not the committed one, run_many != solo, restored != compiled, served
# != solo) makes a workload process, and so this script, exit non-zero.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --offline --release --quiet
cargo run --offline --release --quiet --bin relm_bench -- --all --smoke
cargo run --offline --release --quiet --bin relm_bench -- --all --smoke --trace
