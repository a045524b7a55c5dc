"""Command-line interface: compute means, run checks, generate test data.

Input files pass the kernel's own gate: :func:`parse_matrix_text` makes
each grid a :class:`spdmeans.kernel.SymMatrix` (square, finite entries,
symmetry within round-off, stored symmetrized) of the file's dimension;
``mean`` then certifies the gated matrices as one stack with
:func:`spdmeans.kernel.certify`. Either way a bad matrix is reported by its
index in the file.

Exit codes: 0 success (and all checks passed), 1 at least one check
failed, 2 bad input (flags, files, non-SPD matrices) or an error raised
by a check trial, which names the check and the trial seed, 3 the Karcher
solver did not converge in ``mean``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harness import (CHECK_NAMES, DEFAULT_TOL, DEFAULT_TRIALS, CheckReport, GenSpec,
                      STRUCTURES, gen_tuple, iter_suite)
from .kernel import SpdMeansError, SymMatrix, certify, is_integer
from .means import ConvergenceError, MeanKind, SolverConfig, mean

__all__ = [
    "MatrixFile",
    "parse_matrix_text",
    "render_matrix_file",
    "load_matrix_file",
    "build_parser",
    "cmd_mean",
    "cmd_check",
    "cmd_gen",
    "main",
]

FORMATS = ("json", "csv")


@dataclass
class MatrixFile:
    """A parsed matrix container: dimension, matrices in file order, labels."""

    dim: int
    matrices: list[np.ndarray]
    labels: list[str] | None = None


class InputError(SpdMeansError):
    """Malformed file or flag content (maps to exit code 2)."""


def _validate_matrices(dim: int, grids: list, labels) -> MatrixFile:
    if not is_integer(dim) or dim < 1:
        raise InputError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(grids, list):
        raise InputError(f"matrices must be a list, got {type(grids).__name__}")
    if not grids:
        raise InputError("file contains no matrices")
    mats: list[np.ndarray] = []
    for i, grid in enumerate(grids):
        try:
            a = SymMatrix(grid).entries
        except SpdMeansError as exc:
            # name the matrix once: "matrix must be square" -> "matrix 2 must be square"
            msg = str(exc)
            raise InputError(msg.replace("matrix", f"matrix {i}", 1)
                             if msg.startswith("matrix ")
                             else f"matrix {i}: {msg}") from exc
        if a.shape != (dim, dim):
            raise InputError(f"matrix {i}: shape {a.shape} != ({dim}, {dim})")
        mats.append(a)
    if labels is not None:
        if (not isinstance(labels, list)
                or len(labels) != len(mats)
                or not all(isinstance(s, str) for s in labels)):
            raise InputError("labels must be one string per matrix")
    return MatrixFile(dim=dim, matrices=mats, labels=labels)


def _csv_row(line: str) -> list[float]:
    try:
        return list(map(float, line.split(",")))
    except ValueError as exc:
        raise InputError(f"bad CSV row {line!r}") from exc


def parse_matrix_text(text: str, fmt: str) -> MatrixFile:
    """Parse JSON or CSV matrix-file content into a :class:`MatrixFile`."""
    if fmt == "json":
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InputError(f"invalid JSON: {exc}") from exc
        if not isinstance(obj, dict) or "dim" not in obj or "matrices" not in obj:
            raise InputError("JSON must be an object with 'dim' and 'matrices'")
        return _validate_matrices(obj["dim"], obj["matrices"], obj.get("labels"))
    if fmt == "csv":
        lines = [ln.strip() for ln in text.splitlines()]
        if not lines or not lines[0].startswith("dim,"):
            raise InputError("CSV must start with a 'dim,n' header line")
        try:
            dim = int(lines[0].split(",", 1)[1])
        except (IndexError, ValueError) as exc:
            raise InputError(f"bad CSV header {lines[0]!r}") from exc
        # a matrix is a run of nonblank lines
        grids = [[_csv_row(ln) for ln in run]
                 for nonblank, run in itertools.groupby(lines[1:], bool) if nonblank]
        return _validate_matrices(dim, grids, None)
    raise InputError(f"unknown format {fmt!r}")


def render_matrix_file(mf: MatrixFile, fmt: str) -> str:
    """Serialize with full round-trip precision (repr of each float)."""
    grids = [np.asarray(m, dtype=float).tolist() for m in mf.matrices]
    if fmt == "json":
        obj: dict = {"dim": mf.dim, "matrices": grids}
        if mf.labels is not None:
            obj["labels"] = list(mf.labels)
        return json.dumps(obj) + "\n"
    if fmt == "csv":
        out = [f"dim,{mf.dim}"]
        for i, grid in enumerate(grids):
            if i:
                out.append("")
            out.extend(",".join(map(repr, row)) for row in grid)
        return "\n".join(out) + "\n"
    raise InputError(f"unknown format {fmt!r}")


def load_matrix_file(path: str | Path, fmt: str) -> MatrixFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_matrix_text(text, fmt)


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdmeans",
        description="Means of symmetric positive definite matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kinds = [k.value for k in MeanKind]

    p_mean = sub.add_parser("mean", help="compute a mean of the matrices in a file")
    p_mean.add_argument("--kind", required=True, choices=kinds)
    p_mean.add_argument("--input", required=True, help="matrix file to read")
    p_mean.add_argument("--output", default=None, help="write here instead of stdout")
    p_mean.add_argument("--format", default="json", choices=FORMATS)
    p_mean.add_argument("--tol", type=float, default=SolverConfig.residual_tol,
                        help="Karcher residual tolerance")
    p_mean.add_argument("--max-iter", type=int, default=SolverConfig.max_iter)

    p_check = sub.add_parser("check", help="run randomized property checks")
    p_check.add_argument("--suite", default="all",
                         help="comma-separated check names, or 'all'")
    p_check.add_argument("--kinds", default=None,
                         help="comma-separated mean kinds (default: all)")
    p_check.add_argument("--dim", type=int, default=3)
    p_check.add_argument("--k", type=int, default=3)
    p_check.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_check.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p_gen = sub.add_parser("gen", help="generate a deterministic SPD tuple file")
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--output", default=None, help="write here instead of stdout")
    p_gen.add_argument("--format", default="json", choices=FORMATS)

    for p in (p_check, p_gen):  # the GenSpec flags: the library's defaults but --seed
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--cond", type=float, default=GenSpec.cond_bound)
        p.add_argument("--structure", default=GenSpec.structure, choices=STRUCTURES)

    return parser


def cmd_mean(args: argparse.Namespace) -> int:
    mf = load_matrix_file(args.input, args.format)
    t = certify(np.stack(mf.matrices))
    cfg = SolverConfig(residual_tol=args.tol, max_iter=args.max_iter)
    try:
        result = mean(args.kind, t, cfg)
    except ConvergenceError as exc:
        print(f"error: solver did not converge: {exc}", file=sys.stderr)
        return 3
    out = MatrixFile(dim=result.dim, matrices=[np.asarray(result.entries)])
    _write_output(render_matrix_file(out, args.format), args.output)
    return 0


def _spec(args: argparse.Namespace) -> GenSpec:
    return GenSpec(dim=args.dim, k=args.k, seed=args.seed,
                   cond_bound=args.cond, structure=args.structure)


def _report_line(r: CheckReport) -> str:
    witness = "-" if r.witness_seed is None else str(r.witness_seed)
    return (f"{r.check_name} trials={r.trials} failures={r.failures} "
            f"worst_violation={r.worst_violation:.6e} witness_seed={witness}")


def cmd_check(args: argparse.Namespace) -> int:
    suite = list(CHECK_NAMES) if args.suite == "all" else [
        s.strip() for s in args.suite.split(",") if s.strip()
    ]
    kinds = None if args.kinds is None else [
        MeanKind(s.strip()) for s in args.kinds.split(",") if s.strip()
    ]
    # each report as its check finishes, so a trial that raises keeps the
    # reports before it, also when stdout is a pipe
    reports: list[CheckReport] = []
    for r in iter_suite(suite, _spec(args), trials=args.trials, tol=args.tol,
                        kinds=kinds):
        print(_report_line(r), flush=True)
        reports.append(r)
    if not reports:  # a gate that checked nothing must not pass
        raise InputError("--suite and --kinds select no check")
    failed = sum(r.failures > 0 for r in reports)
    print(f"{len(reports)} checks, {failed} failed")
    return 1 if failed else 0


def cmd_gen(args: argparse.Namespace) -> int:
    t = gen_tuple(_spec(args))
    out = MatrixFile(dim=t.dim, matrices=list(t.stack))
    _write_output(render_matrix_file(out, args.format), args.output)
    return 0


_COMMANDS = {"mean": cmd_mean, "check": cmd_check, "gen": cmd_gen}

# main's parser, kept: building the tree costs about twenty times what
# parsing with it does
_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command; a package, value or OS error it raises exits 2.

    The parser is built once per process, at the first call, so its flag
    defaults are the library's at that moment; each call parses into a
    fresh namespace.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpdMeansError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

