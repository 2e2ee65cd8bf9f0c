#!/usr/bin/env bash
# Tier-1 verification gate. Must pass on a clean checkout with NO network
# access and NO cargo registry cache: the workspace depends only on its
# own crates, so --offline --locked is the proof of hermeticity.
set -euo pipefail
cd "$(dirname "$0")"

echo "== hermeticity: dependency tree must contain only workspace crates =="
tree="$(cargo tree --workspace --prefix none --locked --offline)"
if echo "$tree" | grep -vE '^rrs(-[a-z]+)? v' | grep -q '[^[:space:]]'; then
    echo "FAIL: non-workspace dependency found:" >&2
    echo "$tree" | grep -vE '^rrs(-[a-z]+)? v' >&2
    exit 1
fi
echo "ok: $(echo "$tree" | sort -u | grep -c '^rrs') workspace crates, zero external"

echo "== build (release, locked, offline) =="
cargo build --release --locked --offline

echo "== guard: tests must run with debug-assertions and overflow-checks =="
for flag in 'debug-assertions = true' 'overflow-checks = true'; do
    if ! grep -A4 '^\[profile\.test\]' Cargo.toml | grep -qF "$flag"; then
        echo "FAIL: [profile.test] must pin '$flag' in Cargo.toml" >&2
        exit 1
    fi
done
echo "ok: [profile.test] pins debug-assertions and overflow-checks"

echo "== test (workspace, locked, offline) =="
# Runs every test file once, these among them:
# - tests/noise_conformance.rs: the lattice and its fields against the
#   model. Lag checks of neighbouring deviates (corr(x², x′²), E[x²·x′]
#   and a tail-conditioned probability at lags (±1,0), (0,±1), (1,1),
#   (2,0)), KS, chi-square and Jarque-Bera on 10^7 samples, and the
#   skewness and excess kurtosis of Gaussian fields at cl = 2, 4 and 8,
#   each against i.i.d. N(0,1) with bounds from the sample size.
# - tests/runtime_budgets.rs: cancellation, deadlines and admission
#   control. Cancel at every tile index leaves resumable checkpoints
#   bit-identical to the uncancelled prefix; oversized requests are
#   rejected before allocation; no-budget runs are bit-identical to
#   budgeted-idle runs.
# - tests/chaos_torture.rs: every FaultSite x {panic,error,cancel,deadline}
#   over the whole pipeline: zero escaped panics, every failure carries
#   the matching ErrorKind, and killing the FFT rung degrades to the
#   Direct backend with output FNV-1a-hash-identical to a clean Direct
#   run (seeded schedules replay bit-for-bit).
# - tests/serve_loopback.rs: served windows equal direct generation over
#   real TCP for every backend, coalesced batches share one kernel and
#   the plan cache, quota/queue overload is rejected typed before
#   allocation, corrupt frames are answered with typed errors.
# - tests/serve_partition.rs: 2–3 in-process servers with seeded
#   kills/stalls mid-pipelined-batch: every window FNV-1a bit-identical
#   to direct generation, failover / retry / breaker transitions visible
#   as serve/client_* counters, draining rejects typed and still flushes
#   the admitted queue, slow connections reaped, mid-frame disconnects
#   never yield a partial window.
cargo test -q --workspace --locked --offline

echo "== benchmark harness tests (perfbench, its own workspace) =="
# The benchmark in BENCHMARK.json lives outside the workspace, so the
# workspace test run above never builds it; its unit tests (argument
# parsing, statistics, report assembly) run here in its own profile.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== benchmark smoke: every perfbench workload runs, traced and untraced =="
# Runs each BENCHMARK.json workload for 2 s with the recorders off and
# on, each under a 300 s timeout: a run fails the gate if it exits
# non-zero, times out (a traced serve pass waits for every response, so
# a lost response or a dead server worker hangs it), or does not end
# with a JSON line reporting "correct": true.
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml
for workload in figures serve strip; do
    for trace in 0 1; do
        run="perfbench --workload $workload --seed 1 --seconds 2 --trace $trace"
        status=0
        out="$(timeout 300 cargo run --release --offline --locked --quiet \
            --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed 1 --seconds 2 --trace "$trace")" || status=$?
        if [ "$status" -ne 0 ]; then
            [ "$status" -eq 124 ] && why="timed out after 300 s" || why="exited $status"
            echo "FAIL: $run $why" >&2
            exit 1
        fi
        if ! printf '%s\n' "$out" | tail -n 1 | grep -qE '"correct": ?true'; then
            echo "FAIL: $run did not end with \"correct\": true:" >&2
            printf '%s\n' "$out" | tail -n 1 >&2
            exit 1
        fi
        echo "ok: $run"
    done
done

echo "== fault injection: rrs-io decoders must fail closed, retries must recover =="
# Includes the retry-under-injected-faults and torn-file atomicity
# properties: transient FailingWriter faults recover within the attempt
# budget, persistent ones fail closed with history, and a fault mid-export
# never leaves a torn destination file.
cargo test -q -p rrs-io --features failpoints --locked --offline

echo "== docs: every intra-doc link must resolve =="
# Fails on a doc link to a deleted or renamed item (and on an unescaped
# bracketed citation rustdoc would read as a link).
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps --locked --offline

echo "== guard: no internal calls to deprecated APIs =="
# The deprecated positional generate_window wrappers have been deleted;
# the flag now guards against reintroducing them (or calling any newly
# deprecated API) anywhere in the workspace.
RUSTFLAGS="-D deprecated" cargo check -q --workspace --all-targets --locked --offline

# The speed and overhead gates below share one paired design
# (rrs_bench::harness::paired): each rep runs one block of every variant
# back to back, starting at variant (rep mod n), and keeps each variant's
# block time over variant 0's from that rep, so drift in the host's speed
# that hits the whole rep cancels out. A gate reads the median of those
# per-rep ratios against its bound (>= for a speed-up, < for an
# overhead), and every ratio's pair count, median, quartiles, min, max
# and bound land under "paired" in the suite's BENCH_*.json. Each gate's
# pairs, block, block statistic, warm-up and bound are its own (below).
echo "== obs overhead gate: disabled recorder must be free =="
# Exits 1 if a disabled Recorder is measurably slower than the
# no-recorder baseline: the median of 15 paired disabled/baseline ratios
# is >= 1.15 (over 12 runs on the 2-vCPU bench host the median read
# 0.92-1.02) — see bench_obs.
cargo run --release --locked --offline -p rrs-bench --bin bench_obs

echo "== row-band overhead gate: the unarmed fan-out must stay free =="
# Exits 1 if rrs-par's row-band entry with nothing armed (unlimited
# budget, disabled chaos and recorder) costs >= 1.12x a bare
# std::thread::scope band loop over the same partition (median of 21
# paired ratios of 32-call blocks, each block its median call; over 12
# runs on the 2-vCPU bench host the median read 0.885-1.001) — see
# bench_runtime; armed-budget and armed-chaos rows are reported for
# information.
cargo run --release --locked --offline -p rrs-bench --bin bench_runtime

echo "== convolution backend gate: FFT must beat direct where Auto says so =="
# Exits 1 if the overlap-save FFT engine is not >= 6x the direct loop on
# the cl32/128x128 shape, if its 512^2 real-input tile is not >= 3.5x a
# full-complex tile (forward, multiply, inverse; median of 15 paired
# reps; over 12 runs on the 2-vCPU bench host the median read 6.50-7.77),
# or if ConvBackend::Auto resolves to a backend measurably slower than
# the alternative — see bench_convolution.
cargo run --release --locked --offline -p rrs-bench --bin bench_convolution

echo "== FFT lanes and tile gates: batched passes and tiles must beat what they replaced =="
# Exits 1 if Fft2d's lane passes and the scalar row/column composition of
# Fft::process written in the bench differ in any bit on a 160^2
# Bluestein lattice (a kernel build's DFT), or if the lane transform is
# not >= 1.3x the scalar one (median of 15 paired reps; over 12 runs on
# the 2-vCPU bench host the median read 2.15-3.16). Also exits 1 if the
# library's overlap-save tile differs in any bit from
# rrs_bench::ReferenceTile (the tile before column-block spectra) at any
# of the seven workload tile shapes 32^2..512^2, or if the 512^2 tile's
# median of 31 paired reference/library ratios is under 1.25: over 12
# calibration runs it read 1.336, 1.382, 1.314, 1.337, 1.516, 1.506,
# 1.438, 1.314, 1.543, 1.266, 1.302, 1.276 — see bench_fft.
cargo run --release --locked --offline -p rrs-bench --bin bench_fft

echo "== figures gate: the default backend must beat Direct on the paper's figures =="
# Exits 1 unless the default context (Auto: the kernel-major blend on the
# real-input FFT engine) is >= 5x faster than the per-sample Direct loop
# over Figures 1-4 at scale 1/4 (median of paired, alternating reps), if
# any figure differs from Direct by more than 1e-9 relative, or if a
# blended figure materialises more than one noise window (a count from
# an enabled recorder, so it cannot flake). Also exits 1 if any sample of
# the four figures gets weight bits other than rrs_bench::reference_weights
# gives (the formulas the layouts replaced), or if the weights pass of
# Figure 3 or Figure 4 is under 1.2x the reference maps' (median of 15
# paired reps; over 12 runs on the 2-vCPU bench host the medians read
# 1.81-2.06 and 1.35-1.43) — see bench_figures.
cargo run --release --locked --offline -p rrs-bench --bin bench_figures

echo "== serving gate: pipelined load must hit the plan cache, reject overload typed and checksum fast =="
# Exits 1 if p99 latency under N pipelined connections exceeds the
# floor, if fft/plan_hit does not exceed fft/plan_miss across coalesced
# batches, if a served window is not bit-identical to direct generation,
# if an overloaded server fails to reject typed before allocating, or if
# the four-lane word checksum of frames and snapshots is not >= 4x
# byte-wise FNV-1a on 1 MiB (median of 15 paired reps; over 12 runs on
# the 2-vCPU bench host the median read 14.1-19.0) — see bench_serve.
cargo run --release --locked --offline -p rrs-bench --bin bench_serve

echo "== serving resilience gate: failover tail, chaos-off overhead, bit-identity =="
# Exits 1 if p99 latency through the sharded client with one dead
# endpoint of three exceeds the floor, if the chaos-disabled sharded
# client costs >= 1.05x the plain client (median of 101 paired reps, a
# block being the median of 20 round trips; over 12 runs on the 2-vCPU
# bench host the median read 1.006, 1.001, 0.995, 1.006, 0.991, 0.991,
# 1.000, 1.004, 0.998, 1.005, 1.004, 1.003), if any served window is not
# bit-identical to direct generation, or if the dead endpoint never
# forced a failover — see bench_serve_resilience.
cargo run --release --locked --offline -p rrs-bench --bin bench_serve_resilience

echo "== bench smoke: reduced-scale reproduction run =="
smoke_out="$(mktemp -d)"
trap 'rm -rf "$smoke_out"' EXIT
cargo run --release --locked --offline -p rrs-bench --bin reproduce -- \
    --scale 0.25 --reps 2 --out "$smoke_out"

echo "ALL GREEN"
