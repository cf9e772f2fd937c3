# Developer entry points.  Everything runs against the in-tree sources
# (PYTHONPATH=src) so no editable install is needed.

PYTHON ?= python
PYTHONPATH := src

.PHONY: check test bench-selftest lint lint-json lint-changed lint-bench lint-tests chaos durability serve serve-tests serve-smoke live-chaos live-chaos-full

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

# The one-command pre-PR gate: tier-1 tests, the lint gate, then the
# benchmark's self-tests, in that order, stopping at the first failure.
check:
	$(MAKE) test
	$(MAKE) lint
	$(MAKE) bench-selftest

# The repository benchmark's own self-tests (perfbench/README.md): catch an
# API change that breaks the benchmark's imports or its by-name patch
# targets before the benchmark itself runs.
bench-selftest:
	$(PYTHON) -m pytest perfbench -q

# The chaos suite: deterministic fault injection, degraded reads, and the
# zero-wrong-bytes invariant (run with -m chaos; see docs/deployment.md).
chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m chaos

# The durability suite: crash-recovery kill sweep, backend contracts,
# replication/read-repair, and the scrub loop (docs/durability.md).
durability:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m durability

# The determinism/safety static analysis (docs/lint.md).  Runs the full
# rule set D1-D10 — syntactic rules plus the CFG/dataflow passes — and
# exits non-zero on any finding; the same gate runs inside
# storage.qualification.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint src/repro

lint-json:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint --json src/repro

# Incremental lint: only files differing from git HEAD, with the
# content-hash result cache (invalidated whenever repro.lint changes).
lint-changed:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.lint src/repro --changed --cache

# Full-vs-incremental runtime comparison (benchmarks/results/lint_runtime.txt).
lint-bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q benchmarks/bench_lint_runtime.py

# Just the lint-marked portion of the test suite (self-clean gate,
# fixture corpus, reporter schema).
lint-tests:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m lint

# The HTTP front-end (docs/serve.md).  `serve` runs it on port 8080;
# `serve-smoke` boots an in-process server on an ephemeral port,
# round-trips one fig. 1 corpus file over a real socket (full + ranged
# GET), and scrapes /metrics — the one-command "is the service alive"
# gate CI runs.
serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --port 8080

serve-tests:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m serve

serve-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.serve.smoke

# The live kill-and-recover drill (docs/serve.md): boots real `lepton
# serve` subprocesses, SIGKILLs them at armed kill points mid-upload and
# mid-stream, and proves recovery + resume.  `live-chaos` runs the
# reduced one-point-per-partition sweep; the full 17-point sweep is
# `lepton chaos --live`.
live-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -q -m live_chaos

live-chaos-full:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli chaos --live
