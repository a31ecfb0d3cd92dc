"""Million-user dataset pipeline benchmark: peak memory is the gate.

The full run pushes 10⁶ users / ~1.9·10⁷ trace records / ~1.4·10⁷
interactions through the in-memory dataset path every paper dataset takes —
trace generation → dedup/k-core → per-user split → one BPRMF epoch on the
global BPR sampler → batched ranking evaluation of users spread over the
whole id range — inside a **subprocess**, so the asserted ``ru_maxrss`` is
the high-water mark of exactly that pipeline.

The asserted bound is the measured peak RSS under a ceiling (calibrated
~3× above the measured peak).

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

# (num_users, rss_ceiling_mb): the ceiling sits above the measured peak
# (~1.3 GB full / ~235 MB smoke).
FULL_USERS, FULL_CEILING_MB = 1_000_000, 4096
SMALL_USERS, SMALL_CEILING_MB = 100_000, 1536
SMOKE_USERS, SMOKE_CEILING_MB = 30_000, 512

MIN_FULL_INTERACTIONS = 10_000_000


def _run_scale(num_users, eval_users=20_000):
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
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def _check_bounds(stats, ceiling_mb):
    assert stats["peak_rss_mb"] <= ceiling_mb, (
        f"scale pipeline peaked at {stats['peak_rss_mb']} MB, "
        f"over the {ceiling_mb} MB ceiling"
    )


def _record(users, ceiling, stats):
    """Write the rendered table and ``BENCH_scale.json`` for one run."""
    write_result(
        "scale",
        f"In-memory dataset pipeline, {users:,} users (scale={BENCH_SCALE})\n"
        f"  trace records   : {stats['num_records']:>12,}\n"
        f"  interactions    : {stats['num_interactions']:>12,}\n"
        f"  total wall      : {stats['total_seconds']:>9.1f} s\n"
        f"  peak RSS        : {stats['peak_rss_mb']:>9.1f} MB  (ceiling {ceiling} MB)",
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
                    "phases",
                    "metrics",
                )
            },
        },
    )


def test_scale_in_memory():
    users, ceiling = (
        (FULL_USERS, FULL_CEILING_MB) if BENCH_SCALE == "full" else (SMALL_USERS, SMALL_CEILING_MB)
    )
    stats = _run_scale(users)

    assert stats["recipe"]["num_users"] == users
    if BENCH_SCALE == "full":
        assert stats["num_records"] >= MIN_FULL_INTERACTIONS
        assert stats["num_interactions"] >= MIN_FULL_INTERACTIONS
    _check_bounds(stats, ceiling)

    _record(users, ceiling, stats)


@pytest.mark.gate_smoke
def test_scale_smoke():
    stats = _run_scale(SMOKE_USERS, eval_users=2_000)
    assert stats["num_interactions"] > 0
    assert stats["phases"]["trace"]["num_records"] == stats["num_records"]
    _check_bounds(stats, SMOKE_CEILING_MB)
    _record(SMOKE_USERS, SMOKE_CEILING_MB, stats)
