"""Lint warm-vs-cold benchmark: the per-file cache must pay for itself.

The gate: a warm ``run_lint`` pass over the real ``src/`` tree — every
file's summary, suppression map and lexical findings served from the
content-hash cache, every rule run — must be at least **5× faster** than
the cold pass that parses, walks and summarises every file.  Exactness rides
along: the warm findings are identical to the cold ones, and the warm pass
re-parses nothing (zero cache misses).
"""

import time
from pathlib import Path

from conftest import write_bench_json, write_result

from repro.analysis.lint import DEFAULT_CONFIG, run_lint

SRC = Path(__file__).resolve().parents[1] / "src"
MIN_SPEEDUP = 5.0


def _timed_run(cache_path):
    start = time.perf_counter()
    report = run_lint([SRC], config=DEFAULT_CONFIG, cache_path=cache_path)
    return time.perf_counter() - start, report


def test_warm_graphlint_speedup(tmp_path):
    cache = tmp_path / "lint-cache.json"
    cold_s, cold = _timed_run(cache)
    warm_s, warm = _timed_run(cache)

    assert cold.cache_misses == cold.files_checked and cold.cache_hits == 0
    assert warm.cache_hits == warm.files_checked and warm.cache_misses == 0
    assert warm.findings == cold.findings

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    lines = [
        "lint warm vs cold (src/, all rules)",
        f"  files          {cold.files_checked}",
        f"  cold           {cold_s * 1000:8.1f} ms",
        f"  warm           {warm_s * 1000:8.1f} ms",
        f"  speedup        {speedup:8.1f}x   (gate >= {MIN_SPEEDUP}x)",
    ]
    write_result("graphlint_warm_cold", "\n".join(lines))
    write_bench_json(
        "graphlint_warm_cold",
        {
            "files": cold.files_checked,
            "cold_s": cold_s,
            "warm_s": warm_s,
            "speedup": speedup,
            "gate": MIN_SPEEDUP,
        },
    )
    assert speedup >= MIN_SPEEDUP, f"warm lint only {speedup:.1f}x faster"
