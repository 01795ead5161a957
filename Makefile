.PHONY: build test check faults sweep report bench-diff serve-bench e11 verify repro bench bench-kernels metrics clean

build:
	dune build

test:
	dune runtest

# Design-rule checks: gate every experiment flow at its stage boundaries and
# fail on any Error-severity diagnostic; the JSON report must validate.
check:
	dune exec bin/repro.exe -- check --strict --json CHECK_diagnostics.json
	dune exec bin/repro.exe -- validate-json CHECK_diagnostics.json

# The fault campaign, one table over the flow and the daemon: flow drivers
# and a real daemon under armed fault sites, a SIGKILL mid-workload, and
# disconnecting / stalling / flooding clients. Every row must recover,
# degrade, or fail with a typed diagnostic — never silently, never with an
# uncaught exception — and its checks (the store validates, a warm restart
# answers byte-identically) must hold. Coverage is measured: a catalog
# (site, kind) pair no row injected fails the gate. The exit status IS the
# gate, and the JSON report must validate.
faults:
	dune exec bin/repro.exe -- faults --json FAULTS_report.json
	dune exec bin/repro.exe -- validate-json FAULTS_report.json

# Design-space sweep, cold then warm: the first pass fills the result cache
# from scratch, the second must serve every point from the store (hit rate
# 1.0, enforced) and produce a byte-identical table; the sweep document with
# cache accounting lands in BENCH_sweep.json and must validate. The store is
# an append-only checksummed segment directory (see Gap_dse.Segstore).
sweep:
	dune exec bin/repro.exe -- cache clear --store BENCH_dse_cache.store
	dune exec bin/repro.exe -- sweep smoke --domains 2 --store BENCH_dse_cache.store
	dune exec bin/repro.exe -- sweep smoke --domains 2 --store BENCH_dse_cache.store \
	  --min-hit-rate 0.99 --json BENCH_sweep.json
	dune exec bin/repro.exe -- validate-json BENCH_sweep.json

# Trace analysis: record a traced run, analyze it (self-time attribution,
# top-K spans, critical path), export to Chrome/Perfetto trace-event format,
# and validate both the analysis document and the export as strict JSON.
report:
	dune exec bin/repro.exe -- run E4 E6 E9 --trace BENCH_trace.jsonl
	dune exec bin/repro.exe -- report BENCH_trace.jsonl --json BENCH_report.json
	dune exec bin/repro.exe -- validate-json BENCH_report.json
	dune exec bin/repro.exe -- export-trace BENCH_trace.jsonl -o BENCH_trace.chrome.json
	dune exec bin/repro.exe -- validate-json BENCH_trace.chrome.json

# Kernel regression gating: append a host-tagged hot-kernel snapshot to the
# BENCH_history.jsonl store, then diff against the previous entry and fail
# on any metric more than 50% slower (normalized by the entries' host
# calibration numbers). With fewer than two entries the diff passes
# trivially, so a fresh clone bootstraps its own baseline.
bench-diff:
	dune exec bench/main.exe -- --kernels-json BENCH_kernels.json --history BENCH_history.jsonl
	dune exec bin/repro.exe -- report --diff prev last --history BENCH_history.jsonl --gate 50

# Multi-client daemon load test: an in-process server driven by 256
# concurrent connections (synchronized waves on shared points plus
# per-client unique points). Writes latency percentiles, throughput, and
# the server's coalesce/cache counters to BENCH_serve.json (with the host
# meta block) and appends a snapshot to the serve history store — kept
# separate from BENCH_history.jsonl so the kernel diff's prev/last
# semantics stay clean. Fails unless at least 25% of contended requests
# coalesced onto an in-flight evaluation (the structural floor is far
# higher; the slack absorbs scheduling noise on slow hosts).
serve-bench:
	dune exec bin/repro.exe -- bench serve --clients 256 --waves 8 --unique 2 \
	  --json BENCH_serve.json --history BENCH_serve_history.jsonl \
	  --min-coalesce-rate 0.25
	dune exec bin/repro.exe -- validate-json BENCH_serve.json

# Three-way FPGA/ASIC/custom gap measurement (E11): implement every Charm
# variant's fixture suite through both technology backends, gate the
# measured area/frequency/dynamic-power ratios on the Charm constants
# (exit status IS the gate), write the measurement document with factor
# products to BENCH_e11.json, and render the pipeline-stage-resolved slack
# table from the run's metrics.
e11:
	dune exec bin/repro.exe -- fpga-gap --json BENCH_e11.json \
	  --metrics-json BENCH_e11_metrics.json
	dune exec bin/repro.exe -- validate-json BENCH_e11.json
	dune exec bin/repro.exe -- report --by-stage BENCH_e11_metrics.json

# The default verification path: build, full test suite, strict lint gates,
# fault campaign, cold/warm design-space sweep, trace analysis + Perfetto
# export, kernel history gating, daemon load test, Charm-gated FPGA
# measurement.
verify: build test check faults sweep report bench-diff serve-bench e11

repro:
	dune exec bin/repro.exe -- all -x

bench:
	dune exec bench/main.exe

# Quick Bechamel pass over the hot kernels (STA, annealing placement,
# Monte Carlo at 1/2/4 domains, percentile-heavy MC); writes ns/run with
# embedded pre-optimization baselines and speedups to BENCH_kernels.json.
bench-kernels:
	dune exec bench/main.exe -- --quick --kernels-json BENCH_kernels.json

# Run the paper's ten experiments with telemetry on and collect every span,
# counter and histogram into BENCH_metrics.json; fails if the file is not
# well-formed JSON.
metrics:
	dune exec bin/repro.exe -- run E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 \
	  --metrics-json BENCH_metrics.json
	dune exec bin/repro.exe -- validate-json BENCH_metrics.json

clean:
	dune clean
