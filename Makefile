# Developer entry points. `make verify` is the local/CI gate: lint (reprolint
# + ruff) and typecheck plus the fast smoke suite (slow-marked tests
# excluded). `make test` is tier-1.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: verify lint reprolint graphlint lint-changed typecheck smoke test sanitize-smoke sparse-smoke store-smoke scale-smoke train-parallel-smoke

verify: lint graphlint typecheck smoke sparse-smoke store-smoke scale-smoke train-parallel-smoke

lint: reprolint
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check .; \
	elif $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check .; \
	else \
		echo "warning: ruff not installed; skipping ruff lint"; \
	fi

reprolint:
	$(PYTHON) -m repro.cli lint src

# Interprocedural graph rules (RPL011-RPL014) over the whole tree; the
# content-hash summary cache makes repeat runs incremental. The baseline
# ratchet file is kept empty on purpose: new findings fail immediately.
graphlint:
	$(PYTHON) -m repro.cli lint --graph --select RPL011,RPL012,RPL013,RPL014 src

# Lexical + graph rules, reported only for files changed vs main (plus
# untracked files). Graph analysis still sees the whole tree — summaries for
# unchanged files come from the warm cache, so this stays fast.
lint-changed:
	$(PYTHON) -m repro.cli lint --graph --changed-since main src

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

# Fast sparse-vs-dense gradient equivalence gate (skips the 50k-entity
# timing run; `make -C . test` and the benchmarks cover the speedup gate).
sparse-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_sparse_grads.py -k "not speedup"

# Artifact-store correctness gate at small scale (the 5x warm-vs-cold
# speedup gate needs full-scale builds; benchmarks cover it).
store-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_store.py -k "smoke"

# Out-of-core pipeline gate at 3e4 users in a subprocess: peak-RSS ceiling,
# warm-rerun bit-safety (the 1e6-user run with the 10^7-interaction floor
# lives in benchmarks/test_bench_scale.py at full scale).
scale-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_scale.py -k "smoke"

# Data-parallel training gate on any core count: fork-vs-inline loss
# identity plus distributed-vs-serial gradient agreement, emitting
# BENCH_parallel.json (the 2x epoch speedup gate needs >= 4 cores;
# benchmarks/test_bench_parallel.py covers it).
train-parallel-smoke:
	$(PYTHON) -m pytest -q benchmarks/test_bench_parallel.py -k "not speedup"

sanitize-smoke:
	REPRO_SANITIZE=1 $(PYTHON) -m repro.cli sanitize-run BPRMF ooi --epochs 2

test:
	$(PYTHON) -m pytest -x -q
