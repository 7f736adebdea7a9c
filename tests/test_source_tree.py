"""Every function and method defined in fk3hh has a use in fk3hh.

A function counts as used when src/fk3hh references it (as a name or an
attribute) or when perfbench/tracer.py wraps it by name; a method only
through an attribute (obj.name) or a wrapped name, so that a local variable
of the same name does not count as a call.  A method whose
name a dict, list or set also has (add, get, remove, ...) is a use of its
own only when a call from src/fk3hh reaches it: every dict.get there would
count otherwise.  Code that only the tests call belongs in tests/; the
names that only the tracer's wrappers keep in src/fk3hh are pinned, so
that a new one fails.

The bigraded bookkeeping (basis, dimensions of cycles, boundaries and
(co)homology, the (n, m) grid, the Hilbert series) is written once, on
`InducedComplex`, for the chain complex and its dual alike.

The induced complexes have one source: only `fk3hh.homology` calls
`gen_image`, in the one pass over the generator images that serves the
coefficients A, A_nu and eps A, and `fk3hh.cohomology` reads its
codifferential off the dual chain complex and never touches the generator
images itself.

No class of the engine takes a top degree: every constructor builds its
object without a max_n, and each degree is built when it is asked for.
"""

import ast
import importlib
import sys
from pathlib import Path

from fk3hh import ncgroebner as ncg
from fk3hh.cupring import CupRing
from fk3hh.exactmath import QQ, PrimeField
from fk3hh.homology import InducedComplex

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fk3hh"
TRACER = ROOT / "perfbench" / "tracer.py"


def traced_names():
    """The attribute names that tracer.py's patch_method and patch_function
    calls replace: their second argument."""
    names = set()
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("patch_method", "patch_function")):
            attr = node.args[1]
            assert isinstance(attr, ast.Constant), ast.dump(attr)
            names.add(attr.value)
    return names


def unused_in_src():
    """{name: "file:line"} of the functions and methods that src/fk3hh
    defines and never uses itself."""
    functions, methods, names, attrs = {}, {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        in_class = {id(f) for node in ast.walk(tree)
                    if isinstance(node, ast.ClassDef) for f in node.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    where = methods if id(node) in in_class else functions
                    where.setdefault(
                        node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unused = {name: where for name, where in functions.items()
              if name not in names | attrs}
    unused.update((name, where) for name, where in methods.items()
                  if name not in attrs)
    return unused


def test_every_function_in_src_is_used():
    dead = {name: where for name, where in unused_in_src().items()
            if name not in traced_names()}
    assert not dead, f"defined in src/fk3hh but used nowhere there: {dead}"


# the names that only tracer.py's wrappers keep in src/fk3hh: their other
# callers are tests, so they belong in tests/ once the tracer lets go of them
TRACER_ONLY = {"apply", "evaluate_cochain", "reduce"}


def test_the_names_only_the_tracer_keeps_are_pinned():
    kept = set(unused_in_src()) & traced_names()
    assert kept == TRACER_ONLY, sorted(kept ^ TRACER_ONLY)


CONTAINER_METHODS = {name for kind in (dict, list, set) for name in dir(kind)
                     if not name.startswith("__")}


def container_named_methods():
    """(module, class, name) of each method defined in src/fk3hh under a
    name that a dict, list or set method also has."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                out.extend((path.stem, node.name, f.name) for f in node.body
                           if isinstance(f, ast.FunctionDef)
                           and f.name in CONTAINER_METHODS)
    return out


def test_container_named_methods_are_reached_from_src(monkeypatch):
    # each such method is wrapped to note the calls that come from a frame
    # in src/fk3hh; small runs of the completion over Q and F_7 and of the
    # cup layer's span check must reach every one of them
    reached = set()

    def spy(key, method):
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_filename
            if Path(caller).resolve().parent == SRC:
                reached.add(key)
            return method(*args, **kwargs)
        return wrapper

    methods = container_named_methods()
    assert methods  # the scan sees the engine's add and remove methods
    for module, cls_name, name in methods:
        cls = getattr(importlib.import_module(f"fk3hh.{module}"), cls_name)
        monkeypatch.setattr(cls, name, spy((module, cls_name, name),
                                           cls.__dict__[name]))
    for field in (QQ, PrimeField(7)):
        alg = ncg.ring_algebra(field)
        rels = ncg.load_commutation_relations(alg) + \
            ncg.load_ideal_relations(alg)
        ncg.buchberger_complete(alg, rels, degree_bound=4)
    CupRing(QQ).verify_generating_set(2)
    unreached = sorted(set(methods) - reached)
    assert not unreached, f"no call from src/fk3hh reaches {unreached}"


def test_cohomology_reads_no_generator_images():
    names = set()
    for node in ast.walk(ast.parse((SRC / "cohomology.py").read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    banned = {"gen_image", "triple_products", "transpose_images"}
    assert not names & banned, sorted(names & banned)


def test_only_homology_calls_gen_image():
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name == "gen_image":
                    callers.append(f"{path.name}:{node.lineno}")
    assert callers and all(c.startswith("homology.py:") for c in callers), \
        callers


# what InducedComplex writes once for every induced complex
SHARED_BOOKKEEPING = {"basis", "dims", "hilbert_series", "dim_homology",
                      "dim_cycles", "dim_boundaries"}


def test_no_induced_complex_redefines_the_shared_bookkeeping():
    for path in sorted(SRC.glob("[!_]*.py")):
        importlib.import_module(f"fk3hh.{path.stem}")
    subclasses, todo = [], [InducedComplex]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("fk3hh."):
                subclasses.append(sub)
                todo.append(sub)
    assert {c.__name__ for c in subclasses} >= {"HomologyComplex",
                                                 "CohomologyComplex"}
    assert SHARED_BOOKKEEPING <= set(vars(InducedComplex))
    redefined = sorted((c.__name__, name) for c in subclasses
                       for name in SHARED_BOOKKEEPING & set(vars(c)))
    assert not redefined, redefined


def test_no_engine_class_takes_a_top_degree():
    # the resolution, the cup ring and the induced complexes build each
    # degree on demand: no constructor takes a max_n to bound them
    inits, bounded = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                inits += 1
                args = node.args.posonlyargs + node.args.args + \
                    node.args.kwonlyargs
                if any(a.arg == "max_n" for a in args):
                    bounded.append((path.stem, node.lineno))
    assert inits and not bounded, bounded
