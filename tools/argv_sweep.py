"""Run the altspectra CLI in-process over a fixed argv list.

Prints one JSON line per argv: the argv, the exit code, and the sha256 of
what it wrote to stdout and to stderr, plus that of the file an argv with
``--export-edges`` wrote, if it wrote one.  Each argv runs in a fresh
temporary working directory, so the relative export path names the same
file in every run.  Two checkouts that print the same lines give every argv
the same bytes and the same exit code, so a diff of two runs checks that a
change leaves the CLI byte-identical:

    python tools/argv_sweep.py > change.jsonl
    python tools/argv_sweep.py ../parent/src > parent.jsonl
    diff parent.jsonl change.jsonl

The optional argument is the ``src`` directory to import ``altspectra``
from; the default is the one next to this file.  BLAS runs on one thread.
``spectrum`` prints the LAPACK round-off of its quotient solve: for the swept
argv (quotients of at most 17 blocks) it is the same under any thread count,
but a quotient of hundreds of blocks, or an older ``src`` that solved the
order x order adjacency matrix, prints round-off that changes with it.  The
list covers every verb (the keys of ``cli._HANDLERS`` in the imported
``src``, so a new verb joins the sweep) and family at n = 3..8
(``spectrum`` at n <= 6) in each format with ``--block 1`` (and ``--block
n`` for the verbs that read it), three ``--gens`` sets at n = 4..7, the
n = 9 ``gap`` solves and ``decompose`` checks of EAG and CAG, ``spectrum``
of AG_6 at a fine and a coarse ``--tol`` (which bounds only the residual,
so both print the default-tol bytes), ``build --export-edges`` of each
family at n = 3..7, and the usage errors of ``tests/test_cli.py``.
"""

import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
import warnings
from contextlib import chdir, redirect_stderr, redirect_stdout
from pathlib import Path

FAMILIES = ("AG", "EAG", "CAG")
FORMATS = ("json", "text", "csv")
BLOCK_VERBS = ("cut", "decompose", "verify")
GENS = (
    "(1,2,3),(1,3,2)",
    "(2,3,4),(2,4,3),(1,2)(3,4)",
    "(1,2,3),(1,3,2),(1,3,4),(1,4,3),(2,3,4),(2,4,3)",
)
# The largest solves, where the star-row product of EAG and CAG saves most, and
# the largest structural checks, where the spanning graph is a view of their rows.
LARGE = tuple(
    (verb, "--family", f, "--n", "9", "--format", "json")
    for verb in ("gap", "decompose")
    for f in ("EAG", "CAG")
)
TOLS = tuple(
    ("spectrum", "--family", "AG", "--n", "6", "--format", "json", "--tol", t)
    for t in ("1e-13", "0.02")
)
# The one pass that writes row values out: each edge list, by file digest.
EXPORTS = tuple(
    ("build", "--family", f, "--n", str(n), "--export-edges", "edges.txt")
    for f in FAMILIES
    for n in range(3, 8)
)
USAGE_ERRORS = (
    ("gap", "--n", "4"),
    ("gap", "--family", "AG", "--gens", "(1,2,3)", "--n", "4"),
    ("gap", "--family", "AG", "--n", "2"),
    ("gap", "--family", "AG", "--n", "13"),
    ("verify", "--gens", "(1,2,3),(1,3,2)", "--n", "4"),
    ("gap", "--gens", "(1,2,", "--n", "4"),
    ("gap", "--family", "AG", "--n", "11", "--block", "99"),
    ("cut", "--gens", "(1,2,3),(1,3,2)", "--n", "4"),
    ("verify", "--family", "AG", "--n", "5", "--tol", "inf"),
    ("verify", "--family", "AG", "--n", "5", "--tol", "1e6"),
    ("gap", "--family", "AG", "--n", "5", "--tol", "inf", "--format", "json"),
    ("gap", "--family", "AG", "--n", "5", "--tol", "nan"),
    ("gap", "--family", "AG", "--n", "5", "--seed", "-1"),
    ("verify", "--family", "AG", "--n", "5", "--seed", "-3"),
    ("verify", "--family", "AG", "--n", "5", "--export-edges", "x"),
    ("decompose", "--family", "AG", "--n", "3"),
    ("decompose", "--family", "EAG", "--n", "3"),
    ("decompose", "--family", "CAG", "--n", "3"),
    ("divisor", "--family", "AG", "--n", "3"),
    ("gap", "--family", "AG", "--n", "4", "--bogus"),
)


def argvs(verbs):
    """The fixed argv list over ``verbs``, in a fixed order."""
    for verb in verbs:
        for family in FAMILIES:
            for n in range(3, 7 if verb == "spectrum" else 9):
                for block in (1, n) if verb in BLOCK_VERBS else (1,):
                    for fmt in FORMATS:
                        yield (verb, "--family", family, "--n", str(n), "--block", str(block),
                               "--format", fmt)
    for verb in verbs:
        for gens in GENS:
            for n in range(4, 7 if verb == "spectrum" else 8):
                for fmt in FORMATS:
                    yield (verb, "--gens", gens, "--n", str(n), "--format", fmt)
    yield from LARGE
    yield from TOLS
    yield from EXPORTS
    yield from USAGE_ERRORS


def run(main, argv) -> dict:
    """Exit code and output digests of one in-process ``main(argv)``, run in a
    fresh temporary directory."""
    out, err = io.StringIO(), io.StringIO()
    # A fresh filter set per argv shows each warning as a new process would.
    with tempfile.TemporaryDirectory() as tmp, chdir(tmp), warnings.catch_warnings(), \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("default")
        try:
            code = main(list(argv))
        except Exception as exc:  # recorded, so one crash does not end the sweep
            code = "raised"
            err.write("".join(traceback.format_exception_only(exc)))
        written = os.listdir()  # an exported edge list, if any
        file = {"file": _sha256(Path(written[0]).read_bytes())} if written else {}
    stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
    return {"argv": list(argv), "exit": code, "stdout": _sha256(stdout), "stderr": _sha256(stderr),
            **file}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parents[1] / "src"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads BLAS
    sys.path.insert(0, str(src.resolve()))
    from altspectra.cli import _HANDLERS, main as cli_main

    for argv in argvs(tuple(_HANDLERS)):
        print(json.dumps(run(cli_main, argv)), flush=True)


if __name__ == "__main__":
    main()
