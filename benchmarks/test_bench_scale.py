"""Million-user out-of-core pipeline benchmark: peak memory is the gate.

The full run pushes 10⁶ users / ~1.9·10⁷ trace records / ~1.4·10⁷
interactions through the streamed dataset path — blocked trace generation →
chunked dedup/k-core → blocked split → one BPRMF epoch on the shard-blocked
sampler → sharded ranking evaluation — inside a **subprocess**, so the
asserted ``ru_maxrss`` is the high-water mark of exactly that pipeline.

Two asserted bounds make the claim falsifiable in both directions:

- measured peak RSS stays under a ceiling (calibrated ~3× above the
  measured ~1.3 GB), and
- the *arithmetic lower bound* of the monolithic path (the M×N float64
  mixture fan-out plus the three full trace arrays — ~25 GB at 10⁶ users)
  exceeds that same ceiling, so the monolithic generator provably could not
  have produced this run inside the budget.

The smoke subset (the ``gate_smoke`` marker, part of ``make verify``) runs
the same driver at 3·10⁴ users in seconds with proportionally scaled bounds
and records the same ``BENCH_scale.json``.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import BENCH_SCALE, write_bench_json, write_result

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

# (num_users, rss_ceiling_mb): the ceiling must sit between the measured
# peak (~1286 MB full / ~226 MB smoke) and the monolithic arithmetic lower
# bound (~25.5 GB full / ~765 MB smoke).
FULL_USERS, FULL_CEILING_MB = 1_000_000, 4096
SMALL_USERS, SMALL_CEILING_MB = 100_000, 1536
SMOKE_USERS, SMOKE_CEILING_MB = 30_000, 512

MIN_FULL_INTERACTIONS = 10_000_000


def _run_scale(num_users, cache_dir, eval_users=20_000):
    """Drive ``python -m repro.experiments.scale`` in a fresh subprocess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.scale",
            "--num-users",
            str(num_users),
            "--eval-users",
            str(eval_users),
            "--cache-dir",
            str(cache_dir),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _check_bounds(stats, ceiling_mb):
    assert stats["peak_rss_mb"] <= ceiling_mb, (
        f"streamed pipeline peaked at {stats['peak_rss_mb']} MB, "
        f"over the {ceiling_mb} MB ceiling"
    )
    assert stats["monolithic_lower_bound_mb"] > ceiling_mb, (
        "ceiling is not discriminating: the monolithic path's arithmetic "
        f"floor ({stats['monolithic_lower_bound_mb']} MB) fits under it"
    )


def _record(users, ceiling, stats):
    """Write the rendered table and ``BENCH_scale.json`` for one run."""
    write_result(
        "scale",
        f"Out-of-core dataset pipeline, {users:,} users (scale={BENCH_SCALE})\n"
        f"  trace records   : {stats['num_records']:>12,}\n"
        f"  interactions    : {stats['num_interactions']:>12,}\n"
        f"  total wall      : {stats['total_seconds']:>9.1f} s\n"
        f"  peak RSS        : {stats['peak_rss_mb']:>9.1f} MB  (ceiling {ceiling} MB)\n"
        f"  monolithic floor: {stats['monolithic_lower_bound_mb']:>9.1f} MB",
    )
    write_bench_json(
        "scale",
        {
            "num_users": users,
            "rss_ceiling_mb": ceiling,
            **{
                k: stats[k]
                for k in (
                    "num_records",
                    "num_interactions",
                    "total_seconds",
                    "peak_rss_mb",
                    "monolithic_lower_bound_mb",
                    "phases",
                    "metrics",
                )
            },
        },
    )


def test_scale_out_of_core(tmp_path_factory):
    users, ceiling = (
        (FULL_USERS, FULL_CEILING_MB) if BENCH_SCALE == "full" else (SMALL_USERS, SMALL_CEILING_MB)
    )
    cache = tmp_path_factory.mktemp("scale-bench")
    stats = _run_scale(users, cache)

    assert stats["recipe"]["num_users"] == users
    if BENCH_SCALE == "full":
        assert stats["num_records"] >= MIN_FULL_INTERACTIONS
        assert stats["num_interactions"] >= MIN_FULL_INTERACTIONS
    _check_bounds(stats, ceiling)

    _record(users, ceiling, stats)


@pytest.mark.gate_smoke
def test_scale_smoke(tmp_path):
    stats = _run_scale(SMOKE_USERS, tmp_path / "cache", eval_users=2_000)
    assert stats["num_interactions"] > 0
    _check_bounds(stats, SMOKE_CEILING_MB)
    # A warm rerun reads the persisted blocks instead of regenerating and
    # reproduces the exact numbers — the store round-trip is bit-safe.
    again = _run_scale(SMOKE_USERS, tmp_path / "cache", eval_users=2_000)
    assert again["phases"]["trace_stream"]["warm"]
    assert again["num_interactions"] == stats["num_interactions"]
    assert again["metrics"] == stats["metrics"]
    _record(SMOKE_USERS, SMOKE_CEILING_MB, stats)
