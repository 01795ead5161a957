.PHONY: build test check faults verify repro clean

build:
	dune build

# The full test suite. Beyond the unit and property tests it runs, each in
# its own process (test/dune, bench/e2e/dune): the fault campaign; the
# cold/warm design-space sweep, whose two tables must match byte for byte;
# a traced E4/E6/E9 run through report, report --diff and export-trace;
# the Charm-gated E11 measurement with its per-stage slack report; and
# every end-to-end benchmark workload at smoke scale.
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

# The default verification path: build, full test suite (which runs the
# fault campaign and validates its report), strict lint gates. Speed is
# measured by the end-to-end benchmark (bash bench/e2e/run.sh, see
# BENCHMARK.json), not here.
verify: build test check

repro:
	dune exec bin/repro.exe -- all -x

clean:
	dune clean
