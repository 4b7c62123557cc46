"""Spans and counters around altspectra's public functions, recorded from
outside the package.

``Tracer.install`` replaces every binding of each traced function: the
defining module's attribute and every other ``altspectra`` module (the
package namespace, ``verify``, ``cli``, ...) that imported it by name.
``Graph.matvec`` and ``Graph.edges_array`` are patched on the class.
``Tracer.restore`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent]`` rows on the
``time.perf_counter`` clock; ``layers`` turns them into per-layer self times
and counts.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# (module, attribute, span name).  blocks_AG and blocks_Xij share one span.
FUNCTIONS = (
    ("perm", "alternating_images", "perm.alternating_images"),
    ("perm", "alternating_ranks", "perm.alternating_ranks"),
    ("cayley", "build_cayley", "cayley.build_cayley"),
    ("cayley", "is_connected", "cayley.is_connected"),
    ("cayley", "induced_subgraph", "cayley.induced_subgraph"),
    ("cayley", "graph_invariant_violations", "cayley.graph_invariant_violations"),
    ("cayley", "phi_isomorphism", "cayley.phi_isomorphism"),
    ("spectra", "lambda2_iterative", "spectra.lambda2_iterative"),
    ("spectra", "dense_spectrum", "spectra.dense_spectrum"),
    ("partition", "check_equitable", "partition.check_equitable"),
    ("partition", "blocks_AG", "partition.blocks"),
    ("partition", "blocks_Xij", "partition.blocks"),
    ("partition", "divisor_spectrum", "partition.divisor_spectrum"),
    ("cheeger", "canonical_cut", "cheeger.canonical_cut"),
    ("cheeger", "cut_ratio", "cheeger.cut_ratio"),
    ("verify", "verify_family", "verify.verify_family"),
    ("cli", "emit", "cli.emit"),
    ("cli", "main", "cli.main"),
)
METHODS = (
    ("matvec", "cayley.matvec"),
    ("edges_array", "cayley.edges_array"),
)

# Cost models for the "computed" counters; they are arithmetic on sizes,
# not measurements of memory traffic or floating-point units.
#   matvec: an int32 index (4 B) and a float64 gather (8 B) per adjacency
#   entry, plus one float64 output per vertex.
#   dense_spectrum: 9 N^3 for eigh with eigenvectors (Golub & Van Loan,
#   symmetric QR) plus 2 N^3 for the residual product A @ V.
MATVEC_BYTES_PER_ENTRY = 12
MATVEC_BYTES_PER_VERTEX = 8
DENSE_FLOPS_PER_N3 = 11


def _graph_key(G) -> object:
    tag = getattr(G, "family_tag", "custom")
    return (tag, G.n) if tag != "custom" else id(G)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.check_seconds: Counter = Counter()
        self._stack: list[int] = []
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "perm.alternating_images": self._on_images,
            "perm.alternating_ranks": self._on_ranks,
            "cayley.build_cayley": self._on_build,
            "cayley.matvec": self._on_matvec,
            "spectra.lambda2_iterative": self._on_lambda2,
            "spectra.dense_spectrum": self._on_dense,
            "verify.verify_family": self._on_verify,
        }

    # -- counters, called after each traced call with its bound arguments

    def _first(self, counter: str, key) -> None:
        """Count ``key`` under ``counter`` the first time it is seen."""
        if key not in self._seen[counter]:
            self._seen[counter].add(key)
            self.counters[counter] += 1

    def _on_images(self, args, result) -> None:
        # The lru cache is unbounded and empty at import, so a miss is the
        # first call with a given n.
        self._first("perm.alternating_images.misses", args["n"])

    def _on_ranks(self, args, result) -> None:
        self.counters["perm.alternating_ranks.rows"] += int(args["images"].shape[0])

    def _on_build(self, args, result) -> None:
        gens = tuple(t.images for t in args["gens"].elements)
        self._first("cayley.build_cayley.distinct", (args["n"], gens))

    def _on_matvec(self, args, result) -> None:
        G = args["self"]
        self.counters["cayley.matvec.bytes_computed"] += (
            MATVEC_BYTES_PER_ENTRY * len(G.neighbors) + MATVEC_BYTES_PER_VERTEX * G.order
        )

    def _on_lambda2(self, args, result) -> None:
        self._first(
            "spectra.lambda2_iterative.distinct", (_graph_key(args["G"]), args["tol"], args["seed"])
        )

    def _on_dense(self, args, result) -> None:
        self.counters["spectra.dense_spectrum.flops_computed"] += DENSE_FLOPS_PER_N3 * args["G"].order ** 3

    def _on_verify(self, args, result) -> None:
        for check in result.checks:
            self.check_seconds[f"verify.{check.name}.s"] += check.millis / 1000.0

    # -- patching

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "altspectra" or key.startswith("altspectra.")]
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(f"altspectra.{module_name}"), attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)
        graph = importlib.import_module("altspectra.cayley").Graph
        for attr, name in METHODS:
            original = graph.__dict__[attr]
            self._patches.append((graph, attr, original))
            setattr(graph, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- per-layer numbers for one job

    def layers(self) -> dict[str, float]:
        """Self time and call count per span name, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; since spans nest, the self times of all spans add up to
        the root spans' durations.  The verify checks' inclusive times stay
        apart in ``check_seconds``, since they are not self times.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, parent), inner in zip(self.spans, child):
            out[f"{name}.s"] += (end - start) - inner
            out[f"{name}.calls"] += 1
            if name == "cayley.matvec" and self._inside(parent, "spectra.lambda2_iterative"):
                out["cayley.matvec.in_solves"] += 1
        out.update(self.counters)
        return dict(out)

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False
