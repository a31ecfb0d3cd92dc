"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``analyze <ooi|gage>``      — Section-III trace statistics;
- ``table <1|2|3|4|5>``       — regenerate a paper table;
- ``figure <3|4|5>``          — regenerate a paper figure;
- ``train <model> <dataset>`` — train one model, report metrics, optionally
  save a checkpoint (``--save model.npz``);
- ``recommend <dataset> <user>`` — train CKAT and print top-K items;
- ``serve [dataset]``           — freeze a model into a score index and
  serve recommendations over HTTP with request micro-batching and fold-in
  (``--from-index DIGEST`` restarts from the artifact store alone);
- ``report <run.jsonl> ...``   — summarize JSONL run telemetry logs;
- ``cache <ls|gc|path>``       — inspect / clear the content-addressed
  artifact store (see ``--cache-dir``);
- ``lint [paths ...]``         — run reprolint, the project-aware static
  analyzer (exit 0 clean / 1 findings / 2 internal error);
- ``sanitize-run <model> <dataset>`` — train under the runtime numeric
  sanitizer (NaN/Inf, gradient shape, dtype-upcast detection);
- ``profile <dataset>``        — op-timer profile of CKAT training epochs,
  per-op wall-clock share under the fused kernels.

Common options: ``--scale small|full``, ``--seed N``, ``--epochs N``, and
``--cache-dir DIR`` (artifact store shared by every dataset-loading command;
defaults to ``$REPRO_CACHE_DIR``, caching disabled when neither is set).
Tables II–V accept ``--log-dir`` (JSONL telemetry per cell),
``--checkpoint-dir`` (resumable full-state checkpoints), and ``--resume``.
The CLI is a thin veneer over :mod:`repro.experiments`; anything it prints
can be produced programmatically.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

import numpy as np

from repro.analysis import compute_distributions, pair_similarity_study, query_concentration
from repro.experiments import figures, load_dataset, run_single_model, tables
from repro.experiments.runner import MODEL_NAMES, fit_and_evaluate
from repro.store import ArtifactStore, resolve_cache_dir

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Facilitating Data Discovery for Large-scale "
        "Science Facilities using Knowledge Networks' (IPDPS 2021)",
    )
    parser.add_argument("--scale", choices=("small", "full"), default="small")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="content-addressed artifact store shared by dataset-loading "
        "commands and `repro cache`; defaults to $REPRO_CACHE_DIR "
        "(no caching when neither is set)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="Section-III trace statistics")
    p_analyze.add_argument("dataset", choices=("ooi", "gage"))

    p_table = sub.add_parser("table", help="regenerate a paper table")
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    p_table.add_argument("--epochs", type=int, default=None)
    p_table.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan independent table cells across this many worker processes "
        "(Tables II–V; results are identical to the serial run)",
    )
    p_table.add_argument(
        "--log-dir",
        type=str,
        default=None,
        help="write one JSONL telemetry log per table cell into this directory "
        "(Tables II–V; summarize with `repro report <file>`)",
    )
    p_table.add_argument(
        "--checkpoint-dir",
        type=str,
        default=None,
        help="write resumable full-state training checkpoints per cell into "
        "this directory (Tables II–V)",
    )
    p_table.add_argument(
        "--resume",
        action="store_true",
        help="resume each cell from its checkpoint in --checkpoint-dir when one "
        "exists; resumed runs are bit-identical to uninterrupted ones",
    )

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("number", type=int, choices=(3, 4, 5))

    p_train = sub.add_parser("train", help="train one model and evaluate")
    p_train.add_argument("model", choices=MODEL_NAMES)
    p_train.add_argument("dataset", choices=("ooi", "gage"))
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--save", type=str, default=None, help="checkpoint path (.npz)")

    p_rec = sub.add_parser("recommend", help="train CKAT and print top-K items")
    p_rec.add_argument("dataset", choices=("ooi", "gage"))
    p_rec.add_argument("user", type=int)
    p_rec.add_argument("--k", type=int, default=10)
    p_rec.add_argument("--epochs", type=int, default=15)

    p_serve = sub.add_parser(
        "serve", help="serve recommendations from a frozen score index over HTTP"
    )
    p_serve.add_argument(
        "dataset",
        choices=("ooi", "gage"),
        nargs="?",
        default=None,
        help="dataset to train/freeze from (omit with --from-index)",
    )
    p_serve.add_argument("--model", choices=MODEL_NAMES, default="BPRMF")
    p_serve.add_argument("--epochs", type=int, default=None)
    p_serve.add_argument(
        "--checkpoint",
        type=str,
        default=None,
        help="load model parameters from this .npz instead of training",
    )
    p_serve.add_argument(
        "--from-index",
        type=str,
        default=None,
        metavar="DIGEST",
        help="reload a frozen score index from the artifact store by digest "
        "prefix (no dataset or training needed; requires --cache-dir or "
        "$REPRO_CACHE_DIR)",
    )
    p_serve.add_argument("--host", type=str, default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8377)
    p_serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="micro-batch cap: concurrent /recommend requests coalesce into "
        "one scoring call up to this many",
    )
    p_serve.add_argument(
        "--log",
        type=str,
        default=None,
        help="append JSONL request/batch telemetry to this file "
        "(summarize with `repro report`)",
    )

    p_report = sub.add_parser("report", help="summarize a JSONL run telemetry log")
    p_report.add_argument("log", type=str, nargs="+", help="path(s) to .jsonl run logs")

    p_cache = sub.add_parser("cache", help="inspect / clear the artifact store")
    p_cache.add_argument(
        "action",
        choices=("ls", "gc", "path"),
        help="ls: list verified artifacts; gc: remove artifacts and stray "
        "tmp dirs; path: print the resolved store root",
    )
    p_cache.add_argument(
        "--kind",
        action="append",
        default=None,
        help="restrict ls/gc to an artifact kind (trace, split, ckg, graph); "
        "repeatable",
    )

    p_lint = sub.add_parser("lint", help="run reprolint (project-aware static analysis)")
    p_lint.add_argument(
        "paths", type=str, nargs="*", default=["src"], help="files or directories to lint"
    )
    p_lint.add_argument("--format", choices=("text", "json"), default="text")
    p_lint.add_argument(
        "--select",
        type=str,
        default=None,
        help="comma-separated rule codes to run (e.g. RPL001,RPL013); default all",
    )
    p_lint.add_argument(
        "--cache",
        type=str,
        default=".reprolint-cache.json",
        metavar="PATH",
        help="per-file result cache (content-hash keyed; unchanged files skip "
        "parsing on warm runs)",
    )
    p_lint.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file result cache (force a cold run)",
    )
    p_lint.add_argument(
        "--changed-since",
        type=str,
        default=None,
        metavar="REF",
        help="report only findings in files changed vs git REF (plus "
        "untracked files); the interprocedural rules still see the whole tree",
    )

    p_san = sub.add_parser(
        "sanitize-run", help="train one model under the runtime numeric sanitizer"
    )
    p_san.add_argument("model", choices=MODEL_NAMES)
    p_san.add_argument("dataset", choices=("ooi", "gage"))
    p_san.add_argument("--epochs", type=int, default=None)

    p_prof = sub.add_parser(
        "profile", help="op-timer profile of CKAT training"
    )
    p_prof.add_argument("dataset", choices=("ooi", "gage"))
    p_prof.add_argument("--epochs", type=int, default=1)
    p_prof.add_argument(
        "--attention-mode",
        choices=("epoch", "batch"),
        default="batch",
        help="'batch' recomputes differentiable attention per step (the "
        "fusion target, default); 'epoch' profiles the frozen-attention "
        "fast path",
    )
    p_prof.add_argument(
        "--top", type=int, default=12, help="rows of the per-op table to print"
    )
    return parser


def _cmd_analyze(args) -> int:
    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed, cache_dir=args.cache_dir)
    print(ds.describe())
    summary = compute_distributions(ds.trace, ds.catalog).summary()
    print("per-user distributions:", {k: round(v, 3) for k, v in summary.items()})
    conc = query_concentration(ds.trace, ds.catalog)
    print("query concentration:", {k: round(v, 3) for k, v in conc.items()})
    pairs = pair_similarity_study(ds.trace, ds.catalog, ds.population, num_pairs=2000, seed=0)
    print("same-city pair study:", {k: round(v, 3) for k, v in pairs.as_dict().items()})
    return 0


def _cmd_table(args) -> int:
    datasets = [
        load_dataset("ooi", scale=args.scale, seed=args.seed, cache_dir=args.cache_dir),
        load_dataset("gage", scale=args.scale, seed=args.seed, cache_dir=args.cache_dir),
    ]
    kw = dict(
        epochs=args.epochs,
        seed=args.seed,
        num_workers=args.workers,
        log_dir=args.log_dir,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
    )
    fn = {
        1: lambda: tables.table1(*datasets),
        2: lambda: tables.table2(datasets, **kw),
        3: lambda: tables.table3(datasets, **kw),
        4: lambda: tables.table4(datasets, **kw),
        5: lambda: tables.table5(datasets, **kw),
    }[args.number]
    _, text = fn()
    print(text)
    return 0


def _cmd_figure(args) -> int:
    datasets = [
        load_dataset("ooi", scale=args.scale, seed=args.seed, cache_dir=args.cache_dir),
        load_dataset("gage", scale=args.scale, seed=args.seed, cache_dir=args.cache_dir),
    ]
    if args.number == 3:
        _, text = figures.figure3(datasets)
    elif args.number == 4:
        _, text = figures.figure4(datasets[0], seed=args.seed)
    else:
        _, text = figures.figure5(datasets, seed=args.seed)
    print(text)
    return 0


def _cmd_train(args) -> int:
    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed, cache_dir=args.cache_dir)
    print(ds.describe())
    model, result = fit_and_evaluate(
        args.model,
        ds,
        epochs=args.epochs,
        seed=args.seed,
        best_epoch_selection=args.epochs is None or args.epochs >= 10,
    )
    print(
        f"{result.model} on {result.dataset}: recall@20={result.recall:.4f} "
        f"ndcg@20={result.ndcg:.4f} ({result.train_seconds:.1f}s train)"
    )
    if args.save:
        # The evaluated model: the restored best snapshot under selection.
        from repro.io import save_parameters

        written = save_parameters(args.save, model)
        print(f"checkpoint written to {written}")
    return 0


def _cmd_report(args) -> int:
    from repro.utils.telemetry import render_run_report

    for i, path in enumerate(args.log):
        if i:
            print()
        print(render_run_report(path))
    return 0


def _format_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(value)} B"


def _cmd_cache(args) -> int:
    root = resolve_cache_dir(args.cache_dir)
    if args.action == "path":
        print(root if root is not None else "(cache disabled: no --cache-dir / $REPRO_CACHE_DIR)")
        return 0
    if root is None:
        print("error: no cache configured (use --cache-dir or $REPRO_CACHE_DIR)", file=sys.stderr)
        return 2
    store = ArtifactStore(root)
    kinds = args.kind if args.kind else None
    if args.action == "ls":
        rows = store.ls(kinds)
        if not rows:
            print(f"{root}: empty")
            return 0
        total = 0
        for row in rows:
            total += row.nbytes
            print(f"{row.kind:8s} {row.digest[:16]}  {_format_bytes(row.nbytes):>10s}  {row.path.name}")
        print(f"{len(rows)} artifact(s), {_format_bytes(total)} in {root}")
        return 0
    removed, reclaimed = store.gc(kinds)
    print(f"removed {removed} artifact(s), reclaimed {_format_bytes(reclaimed)} from {root}")
    return 0


def _cmd_recommend(args) -> int:
    from repro.models import CKAT, CKATConfig
    from repro.models.base import FitConfig

    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    if not 0 <= args.user < ds.split.train.num_users:
        print(f"error: user {args.user} out of range [0, {ds.split.train.num_users})", file=sys.stderr)
        return 2
    ckg = ds.build_ckg()
    cfg = (
        CKATConfig()
        if args.scale == "full"
        else CKATConfig(dim=32, relation_dim=32, layer_dims=(32, 16))
    )
    model = CKAT(ds.split.train.num_users, ds.split.train.num_items, ckg, cfg, seed=args.seed)
    model.fit(ds.split.train, FitConfig(epochs=args.epochs, lr=0.01, seed=args.seed))
    seen = ds.split.train.items_of_user(args.user)
    recs = model.recommend(args.user, k=args.k, exclude=seen)
    catalog = ds.catalog
    from repro.kg.paths import explain_recommendation

    print(f"top-{args.k} data objects for user {args.user}:")
    for rank, item in enumerate(recs, start=1):
        obj = catalog.objects[int(item)]
        dtype = catalog.data_types[obj.dtype_id]
        site = catalog.sites[catalog.object_site[int(item)]]
        print(f"{rank:2d}. {dtype.name} @ {site.name} ({obj.delivery_method})")
        why = explain_recommendation(ckg, args.user, int(item), max_length=3, max_paths=1)
        if why:
            print(f"     because: {why[0]}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serving import RecommendServer, RecommendService, ScoreIndex
    from repro.utils.telemetry import RunLogger

    root = resolve_cache_dir(args.cache_dir)
    if args.from_index is not None:
        if root is None:
            print(
                "error: --from-index needs an artifact store "
                "(use --cache-dir or $REPRO_CACHE_DIR)",
                file=sys.stderr,
            )
            return 2
        index = ScoreIndex.by_digest(ArtifactStore(root), args.from_index)
        if index is None:
            print(f"error: no score_index matching digest {args.from_index!r} in {root}",
                  file=sys.stderr)
            return 2
        print(f"loaded frozen index from store: {index.meta}")
    else:
        if args.dataset is None:
            print("error: pass a dataset to freeze from, or --from-index DIGEST",
                  file=sys.stderr)
            return 2
        from repro.experiments.runner import build_model, default_fit_config

        ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed,
                          cache_dir=args.cache_dir)
        ckg = ds.build_ckg()
        model = build_model(args.model, ds, ckg, seed=args.seed)
        if args.checkpoint is not None:
            from repro.io import load_parameters

            load_parameters(args.checkpoint, model)
            # Rebuild derived state (CKAT's frozen attention) from the
            # loaded parameters before exporting scoring factors.
            model.on_epoch_end()
            print(f"loaded {args.model} parameters from {args.checkpoint}")
        else:
            cfg = default_fit_config(args.model, epochs=args.epochs, seed=args.seed)
            print(f"training {args.model} on {args.dataset} ({cfg.epochs} epochs)...")
            model.fit(ds.split.train, cfg)
        index = ScoreIndex.from_model(
            model,
            ds.split.train,
            meta={"dataset": args.dataset, "scale": args.scale, "seed": args.seed},
        )
        if root is not None:
            config = {
                "model": args.model,
                "dataset": args.dataset,
                "scale": args.scale,
                "seed": args.seed,
                "epochs": args.epochs,
                "checkpoint": args.checkpoint,
            }
            artifact = index.save(ArtifactStore(root), config)
            print(
                f"frozen index stored: digest {artifact.digest[:16]} "
                f"(restart with `repro serve --from-index {artifact.digest[:16]}`)"
            )
    logger = RunLogger(args.log, run_id="serve") if args.log else None
    service = RecommendService(index)
    server = RecommendServer(
        service, host=args.host, port=args.port, max_batch=args.max_batch, logger=logger
    )
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if logger is not None:
            logger.close()
    return 0


def _changed_files(ref: str) -> set:
    """Resolved paths of files changed vs ``ref`` plus untracked files.

    Both git listings run at the repository top level, so they name
    root-relative paths wherever lint was started from; resolving them
    makes them comparable with findings reported under relative or
    absolute spellings.
    """
    import subprocess

    def git(*argv: str, cwd=None) -> str:
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True, cwd=cwd
        ).stdout

    top = pathlib.Path(git("rev-parse", "--show-toplevel").strip())
    listed = git("diff", "--name-only", ref, "--", cwd=top) + git(
        "ls-files", "--others", "--exclude-standard", cwd=top
    )
    return {(top / line.strip()).resolve() for line in listed.splitlines() if line.strip()}


def _cmd_lint(args) -> int:
    from repro.analysis.lint import (
        EXIT_INTERNAL_ERROR,
        LintConfig,
        render_json,
        render_text,
        run_lint,
    )

    try:
        select = None
        if args.select is not None:
            select = frozenset(
                c.strip().upper() for c in args.select.split(",") if c.strip()
            )
        report = run_lint(
            args.paths,
            config=LintConfig(select=select),
            cache_path=None if args.no_cache else args.cache,
        )
        findings = report.findings
        if args.changed_since is not None:
            changed = _changed_files(args.changed_since)
            findings = [f for f in findings if pathlib.Path(f.path).resolve() in changed]
    except Exception as exc:  # missing paths, unknown codes, engine bugs
        print(f"reprolint: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    if args.format == "json":
        print(render_json(findings, report.files_checked))
    else:
        print(render_text(findings, report.files_checked))
    return 1 if findings else 0


def _cmd_sanitize_run(args) -> int:
    from repro.analysis.sanitizer import SanitizerError, sanitized

    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(ds.describe())
    try:
        with sanitized():
            result = run_single_model(
                args.model, ds, epochs=args.epochs, seed=args.seed, best_epoch_selection=False
            )
    except SanitizerError as exc:
        print(f"sanitizer tripped ({exc.kind}) in '{exc.op}': {exc}", file=sys.stderr)
        return 1
    print(
        f"{result.model} on {result.dataset}: recall@20={result.recall:.4f} "
        f"ndcg@20={result.ndcg:.4f} ({result.train_seconds:.1f}s train)"
    )
    print("sanitizer: clean (no NaN/Inf, shape, or dtype-upcast violations)")
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.profiler import profiled
    from repro.experiments.runner import build_model, default_fit_config
    from repro.models.ckat import CKATConfig

    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed, cache_dir=args.cache_dir)
    print(ds.describe())
    ckg = ds.build_ckg()
    graph = ds.prepared_graph()
    ckat_cfg = CKATConfig(attention_mode=args.attention_mode)
    model = build_model("CKAT", ds, ckg, seed=args.seed, ckat_config=ckat_cfg, graph=graph)
    cfg = default_fit_config("CKAT", epochs=args.epochs, seed=args.seed)
    with profiled() as report:
        model.fit(ds.split.train, cfg)
    print(f"\n=== attention_mode={args.attention_mode} epochs={args.epochs} ===")
    print(report.table(top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=4, suppress=True)
    handler = {
        "analyze": _cmd_analyze,
        "table": _cmd_table,
        "figure": _cmd_figure,
        "train": _cmd_train,
        "recommend": _cmd_recommend,
        "serve": _cmd_serve,
        "report": _cmd_report,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
        "sanitize-run": _cmd_sanitize_run,
        "profile": _cmd_profile,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
