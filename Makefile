# Developer entry points. `make verify` is the local/CI gate: lint (reprolint
# + ruff) and typecheck, the fast smoke suite (slow-marked tests excluded),
# the gate benchmarks and the sanitizer smoke (two short trainings under the
# sanitizer hook, the end-to-end check that it still reaches every op).
# `make test` is tier-1.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify lint reprolint lint-changed typecheck smoke bench-smoke test sanitize-smoke

verify: lint typecheck smoke bench-smoke sanitize-smoke

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
# small scale, the in-memory dataset pipeline at 3e4 users (peak-RSS
# ceiling), the serving gate (batched == single under 8 concurrent clients,
# >= 500 req/s, p99 <= 50 ms), the traced allocation peak of one fused CKAT
# epoch (<= 29 MB), one OOI TransR step, fused >= 5x faster than the oracle
# chains, the vectorized evaluator >= 3x faster than its per-user-loop
# baseline, and the OOI trace draw >= 2x faster than its per-user
# rng.choice loop and bit-identical to it. Writes
# benchmarks/results/BENCH_scale.json, BENCH_serving.json,
# BENCH_kernels.json, BENCH_eval.json and BENCH_ingest.json; the other
# speedup gates need full scale and stay in the full benchmark run.
bench-smoke:
	$(PYTHON) -m pytest -q -m gate_smoke benchmarks

# CKAT trains in float32: any op or kernel that turns float32 inputs into a
# float64 output trips the sanitizer's upcast check.
sanitize-smoke:
	REPRO_SANITIZE=1 $(PYTHON) -m repro.cli sanitize-run BPRMF ooi --epochs 2
	REPRO_SANITIZE=1 $(PYTHON) -m repro.cli sanitize-run CKAT ooi --epochs 1

test:
	$(PYTHON) -m pytest -x -q
