"""The public names and the names the benchmark tracer patches all resolve.

``perfbench/tracer.py`` patches functions by (module, attribute) and reads
some of their arguments by name; removing or renaming one would break the
traced benchmark without failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import altspectra
from altspectra.cayley import Graph, build_family
from altspectra.verify import verify_family

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Arguments the tracer's counter hooks read from each call.
HOOK_ARGUMENTS = {
    ("perm", "alternating_images"): {"n"},
    ("perm", "alternating_ranks"): {"images"},
    ("cayley", "build_cayley"): {"n", "gens"},
    ("spectra", "lambda2_iterative"): {"G", "tol", "seed"},
    ("spectra", "dense_spectrum"): {"G"},
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", altspectra.__all__)
def test_public_name_resolves(name):
    assert getattr(altspectra, name) is not None


@pytest.mark.parametrize("module,attr", [(m, a) for m, a, _ in tracer.FUNCTIONS])
def test_traced_function_resolves(module, attr):
    fn = getattr(importlib.import_module(f"altspectra.{module}"), attr)
    assert callable(fn)
    wanted = HOOK_ARGUMENTS.get((module, attr), set())
    assert wanted <= set(inspect.signature(fn).parameters)


@pytest.mark.parametrize(
    "attr", sorted({a for a, _ in tracer.METHODS} | {"matvec", "edges_array", "neighbors"})
)
def test_traced_graph_member_resolves(attr):
    assert attr in Graph.__dict__


def test_graphs_carry_the_key_the_tracer_reads():
    # The tracer counts distinct lambda2 solves by (family_tag, n) of built
    # graphs; a renamed field would silently change those counts.
    built = build_family("AG", 4)
    by_hand = Graph(perms=built.perms)
    assert (built.n, built.family_tag) == (4, "AG")
    assert (by_hand.n, by_hand.family_tag) == (None, "custom")
    assert tracer._graph_key(built) == ("AG", 4)
    assert tracer._graph_key(by_hand) == id(by_hand)


def test_tracer_reads_the_name_and_millis_of_each_verify_check():
    report = verify_family("AG", 4)
    traced = tracer.Tracer()
    traced._on_verify({}, report)
    names = [check.name for check in report.checks]
    assert len(set(names)) == len(names)
    assert sorted(traced.check_seconds) == sorted(f"verify.{name}.s" for name in names)
    for check in report.checks:
        assert traced.check_seconds[f"verify.{check.name}.s"] == check.millis / 1000.0
