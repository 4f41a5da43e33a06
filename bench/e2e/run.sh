#!/bin/sh
# Build kexd and kexbench from this checkout, then run the benchmark.
# Every argument goes to `kexbench run`, e.g.
#   sh bench/e2e/run.sh --workload write-10k --seed 1 --seconds 18 --trace 0
set -e
cd "$(dirname "$0")/../.."
dune build --root . ./bin/kexd.exe ./bench/e2e/kexbench.exe 1>&2
exec ./_build/default/bench/e2e/kexbench.exe run --kexd ./_build/default/bin/kexd.exe "$@"
