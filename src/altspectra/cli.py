"""Command-line front end.

Verbs: build, spectrum, gap, divisor, cut, hmin, decompose, verify; one flat
parser takes the same flags for each (``--export-edges`` is build-only).
Reports go to standard output in text (default), JSON, or CSV; progress
notes and library warnings, if any, go to standard error, each warning as
one ``warning: <message>`` line.  Exit codes: 0 success / all checks
pass, 1 verification failure, 2 usage error or unwritable edge file, 3
computational failure (non-convergence or a size cap was hit).

All configuration is explicit flags; no environment variables are read, so
identical argv plus seed reproduces identical bytes on stdout.  ``spectrum``
prints a LAPACK solve of the k x k refinement quotient (k <= 28 for the named
families); the BLAS thread count changes its round-off only for quotients of
hundreds of blocks (low-symmetry ``--gens`` sets, 1,272 for one at n = 7).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import warnings

import numpy as np

from . import cheeger as _cheeger
from .cayley import (
    DEFAULT_MAX_ORDER,
    FAMILIES,
    GeneratingSet,
    build_cayley,
    build_family,
    export_edges,
    is_connected,
)
from .errors import ConvergenceError, OrderCapError
from .partition import divisor_closed_form, divisor_spectrum
from .perm import MAX_POINTS, alternating_order, parse_generator_list
from .spectra import _check_dense_order, dense_spectrum, gap_report, integrality_check
from .verify import VerificationReport, _GraphCache, structural_checks, verify_family


class UsageError(ValueError):
    pass


def _make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="altspectra",
        description="Alternating-group Cayley graphs: build, solve, cut, verify.",
    )
    p.add_argument("verb", choices=_HANDLERS)
    p.add_argument("--family", choices=FAMILIES, help="graph family")
    p.add_argument("--gens", help="custom generating set in cycle notation, e.g. '(1,2,3),(1,3,2)'")
    p.add_argument("--n", type=int, required=True, help="number of points")
    p.add_argument("--tol", type=float, default=1e-8, help="solver tolerance")
    p.add_argument("--seed", type=int, default=42, help="Lanczos start-vector seed, non-negative")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                   help=f"largest graph order to build (default {DEFAULT_MAX_ORDER}, n = 9)")
    p.add_argument("--block", type=int, default=1, help="block value i for cuts and partitions")
    p.add_argument("--timings", action="store_true", help="include real timings in reports")
    p.add_argument("--export-edges", metavar="PATH", help="build only: write the edge list to PATH")
    return p


def _validate(args) -> None:
    if args.family and args.gens:
        raise UsageError("--family and --gens are mutually exclusive")
    if not args.family and not args.gens:
        raise UsageError("one of --family or --gens is required")
    if args.gens and args.verb in ("divisor", "cut", "decompose", "verify"):
        raise UsageError(f"{args.verb} needs a named --family, not a custom --gens set")
    if args.n < 3:
        raise UsageError(f"--n must be at least 3, got {args.n}")
    if args.n > MAX_POINTS:
        raise UsageError(f"--n must be at most {MAX_POINTS}, got {args.n}")
    if not 0 < args.tol < float("inf"):
        raise UsageError("--tol must be positive and finite")
    if not 1 <= args.block <= args.n:
        raise UsageError(f"--block must be in 1..{args.n}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    if args.export_edges is not None and args.verb != "build":
        raise UsageError("--export-edges is accepted by build only")


def _build(args):
    """The graph of --family or --gens; --gens is parsed here, before any build work."""
    if args.family:
        return build_family(args.family, args.n, max_order=args.max_order)
    gens = GeneratingSet(args.n, tuple(parse_generator_list(args.gens, args.n)))
    return build_cayley(args.n, gens, max_order=args.max_order)


def _normalize(value):
    """Round floats to 12 significant digits; make everything JSON-clean."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, (np.generic, np.ndarray)):
        return _normalize(value.tolist())
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(x) for x in value]
    return str(value)


def _fmt(value) -> str:
    """One report value as a table cell; ``emit`` normalizes the report first."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    if isinstance(value, (dict, list)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def emit(report: dict, fmt: str) -> str:
    """Serialize a report dict: compact JSON, check-per-row CSV, or an
    aligned text table.  LF endings, 12 significant digits."""
    report = _normalize(report)
    if fmt == "json":
        return json.dumps(report, separators=(",", ":")) + "\n"
    header = ["name", "predicted", "observed", "tolerance", "pass"]
    rows = [[_fmt(check.get(key)) for key in header] for check in report.get("checks") or []]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        if "checks" in report:
            writer.writerows(rows)
        else:
            # scalar reports: one key per row in the observed column
            for key, value in report.items():
                writer.writerow([key, "", _fmt(value), "", ""])
        return buf.getvalue()
    lines = []
    scalars = {k: v for k, v in report.items() if k != "checks"}
    if scalars:
        width = max(len(k) for k in scalars)
        for k, v in scalars.items():
            lines.append(f"{k:<{width}}  {_fmt(v)}")
    if rows:
        rows.insert(0, header)
        widths = [max(len(r[c]) for r in rows) for c in range(5)]
        for r in rows:
            lines.append("  ".join(f"{r[c]:<{widths[c]}}" for c in range(5)).rstrip())
    return "\n".join(lines) + "\n"


def _run_build(args) -> tuple[dict, int]:
    G = _build(args)
    if args.export_edges:
        export_edges(G, args.export_edges)
        print(f"edge list written to {args.export_edges}", file=sys.stderr)
    report = {
        "family": G.family_tag,
        "n": args.n,
        "order": G.order,
        "degree": G.degree,
        "edges": G.edge_count,
        "connected": is_connected(G),
    }
    return report, 0


def _run_spectrum(args) -> tuple[dict, int]:
    _check_dense_order(alternating_order(args.n))  # the fixed cap, before the build
    G = _build(args)
    rep = dense_spectrum(G, tol=args.tol)
    integral, worst = integrality_check(rep)
    out = rep.to_dict()
    out["integral"] = integral
    out["worst_integer_offset"] = worst
    return out, 0


def _run_gap(args) -> tuple[dict, int]:
    G = _build(args)
    rep = gap_report(G, tol=args.tol, seed=args.seed)
    return rep.to_dict(), 0


def _run_divisor(args) -> tuple[dict, int]:
    Q = divisor_closed_form(args.family, args.n)
    return {
        "family": args.family,
        "n": args.n,
        "entries": Q.B,
        "eigenvalues": divisor_spectrum(Q),
    }, 0


def _run_cut(args) -> tuple[dict, int]:
    G = _build(args)
    S = _cheeger.canonical_cut(args.family, args.n, args.block)
    cr = _cheeger.cut_ratio(G, S, description=f"{args.family} canonical block {args.block}")
    report = {"family": args.family, "n": args.n}
    report.update(cr.to_dict())
    return report, 0


def _run_hmin(args) -> tuple[dict, int]:
    _cheeger._check_brute_order(alternating_order(args.n))  # the fixed cap, before the build
    G = _build(args)
    h, witness = _cheeger.brute_force_h(G)
    return {
        "family": G.family_tag,
        "n": args.n,
        "order": G.order,
        "h": _fmt(h),
        "h_float": float(h),
        "witness": list(witness),
    }, 0


def _run_decompose(args) -> tuple[dict, int]:
    checks = structural_checks(args.family, args.n, args.block, _GraphCache(args.max_order))
    report = VerificationReport(args.family, args.n, args.seed, args.block, checks)
    return report.to_dict(args.timings), 0 if report.overall else 1


def _run_verify(args) -> tuple[dict, int]:
    report = verify_family(
        args.family,
        args.n,
        tol=args.tol,
        seed=args.seed,
        max_order=args.max_order,
        block_index=args.block,
    )
    return report.to_dict(args.timings), 0 if report.overall else 1


_HANDLERS = {
    "build": _run_build,
    "spectrum": _run_spectrum,
    "gap": _run_gap,
    "divisor": _run_divisor,
    "cut": _run_cut,
    "hmin": _run_hmin,
    "decompose": _run_decompose,
    "verify": _run_verify,
}


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda msg, *_, **__: print(f"warning: {msg}", file=sys.stderr)
            _validate(args)
            report, code = _HANDLERS[args.verb](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OrderCapError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.verb == "gap" and args.format == "text":
        print(f"{report['gap']:.12g}")
        return code
    sys.stdout.write(emit(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
