# Developer entry points. `make verify` is the local/CI gate: lint (reprolint
# + ruff) and typecheck plus the fast smoke suite (slow-marked tests
# excluded). `make test` is tier-1.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify lint reprolint lint-changed typecheck smoke bench-smoke test sanitize-smoke

verify: lint typecheck smoke bench-smoke

lint: reprolint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	elif $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "warning: ruff not installed; skipping ruff lint"; \
	fi

# Every rule (lexical and interprocedural) in one pass; the content-hash
# per-file cache (.reprolint-cache.json) makes repeat runs incremental.
reprolint:
	$(PYTHON) -m repro.cli lint src

# Every rule, reported only for files changed vs main (plus untracked files).
# The interprocedural rules still see the whole tree — results for unchanged
# files come from the warm cache, so this stays fast.
lint-changed:
	$(PYTHON) -m repro.cli lint --changed-since main src

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	elif $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy src/repro; \
	else \
		echo "warning: mypy not installed; skipping typecheck"; \
	fi

smoke:
	$(PYTHON) -m pytest -q -m "not slow"

# The fast correctness gates among the benchmarks (pytest marker
# `gate_smoke`): sparse-vs-dense gradient equivalence, the artifact store at
# small scale, the out-of-core pipeline at 3e4 users (peak-RSS ceiling,
# warm-rerun bit-safety) and data-parallel fork-vs-inline loss identity plus
# gradient agreement. Writes benchmarks/results/BENCH_scale.json and
# BENCH_parallel.json; the speedup gates need full scale or >= 4 cores and
# stay in the full benchmark run.
bench-smoke:
	$(PYTHON) -m pytest -q -m gate_smoke benchmarks

sanitize-smoke:
	REPRO_SANITIZE=1 $(PYTHON) -m repro.cli sanitize-run BPRMF ooi --epochs 2

test:
	$(PYTHON) -m pytest -x -q
