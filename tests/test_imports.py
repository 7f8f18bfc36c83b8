"""Every module-level import in the library is used, every private
module-level helper and private method is referenced from somewhere else
in the library, every public one too unless an allow-list gives the
reason to keep it, every error class is raised or caught by another
library module, wittkit.__all__ lists exactly the package's re-exports,
every name the benchmark tracer patches exists, and every parameter
default is passed by some library call unless an allow-list gives the
reason to keep it.

Checked with the standard library's ast, since no linter is a dependency.
__init__.py is left out of the import check and of the public-name check:
its imports are the package's re-exports."""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import wittkit

PACKAGE = sorted(Path(wittkit.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by the module-level imports of source that no Name node
    of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound if name not in used]


def test_the_check_sees_an_unused_import():
    src = "import os\nimport sys as system\nfrom .linalg import Matrix, span_basis\nspan_basis(system.argv)\n"
    assert unused_imports(src) == ["os (line 1)", "Matrix (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _reads(node):
    """Every Name, attribute and from-import name under node, with
    repeats."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            out.update(a.name for a in sub.names)
    return out


def _own_reads(tree):
    """Reads of each name from inside the definitions of that name, each
    counted once even where such definitions nest."""
    out = Counter()

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name not in inside:
                out[child.name] += _reads(child)[child.name]
                visit(child, inside | {child.name})
            else:
                visit(child, inside)

    visit(tree, frozenset())
    return out


def _unread(sources, wanted):
    """(label, line) of the module-level functions and classes, and the
    methods of module-level classes, whose names satisfy wanted, in a dict
    of module name -> source, that no Name, attribute or import anywhere
    in the sources refers to, apart from the bodies of the definitions of
    that name: methods of one name that only call one another are unread."""
    defined = []
    reads = Counter()
    own = Counter()
    for module, source in sources.items():
        tree = ast.parse(source)
        reads += _reads(tree)
        own += _own_reads(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and wanted(node.name):
                defined.append((f"{module}.{node.name}", node))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item) for item in node.body
                            if isinstance(item, ast.FunctionDef) and wanted(item.name)]
    return [(label, node.lineno) for label, node in defined if reads[node.name] == own[node.name]]


def dead_private_helpers(sources):
    """Private helpers and methods (named _x) that nothing refers to."""
    return [f"{label} (line {line})" for label, line in _unread(sources, _is_private)]


def test_the_check_sees_a_dead_private_helper():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\ndef _used():\n    pass\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n_used()\n",
    }
    assert dead_private_helpers(sources) == ["a._dead (line 1)", "a._Gone (line 7)"]


def test_the_check_sees_a_dead_private_method():
    sources = {
        "a": ("class K:\n"
              "    def __init__(self):\n"
              "        self._used()\n"
              "    def _used(self):\n"
              "        pass\n"
              "    def _dead(self, n):\n"
              "        return self._dead(n - 1)\n"
              "    def _called_elsewhere(self):\n"
              "        pass\n"),
        "b": "from .a import K\nK()._called_elsewhere()\n",
    }
    assert dead_private_helpers(sources) == ["a.K._dead (line 6)"]


def test_every_private_helper_is_referenced():
    assert dead_private_helpers({p.stem: p.read_text() for p in PACKAGE}) == []


def unread_public_names(sources):
    """Public functions, classes and methods (no leading underscore, so no
    dunder either) that no other definition refers to."""
    return [label for label, _ in _unread(sources, lambda name: not name.startswith("_"))]


# name -> why it stays public although no other library module reads it
KEPT_PUBLIC = {
    "forms.HermitianForm.evaluate": "oracle: tests evaluate forms on module elements",
    "forms.HermitianForm.btensor": "oracle: the ring-valued Gram matrix of the diagonalize congruence",
    "forms.diagonal_form": "oracle: builds the forms <a1, ..., an> that the tests start from",
    "linalg.Matrix.transpose": "oracle: the congruence sigma(C)^T G C in tests/test_fieldwitt.py",
    "wittgroup.WittEngine.shapes_up_to": "oracle: the tests' list of every shape",
    "wittgroup.sample_gram_tables": "oracle: seeded Gram tables for the brute-force cross-checks",
    "devissage.verify_localcase_factorization": "benchmark: the localcase query of bench/workloads.py",
    "parser.parse_element": "benchmark: bench/workloads.py parses the ideal generator J",
    "wittgroup.WittEngine.dual_of": "benchmark: bench/tracer.py patches it by name",
    "intsnf.lattice_contains": "benchmark: bench/tracer.py patches it by name",
}


def test_the_check_sees_a_public_name_that_only_tests_read():
    sources = {
        "a": ("def used():\n    pass\n\n"
              "def unread(n):\n    return unread(n - 1)\n\n"
              "class K:\n"
              "    def __init__(self):\n"
              "        self._helper()\n"
              "    def _helper(self):\n"
              "        pass\n"
              "    def method(self):\n"
              "        pass\n"),
        "b": "from .a import K, used\nused()\nK()\n",
    }
    assert unread_public_names(sources) == ["a.unread", "a.K.method"]


def test_the_check_sees_methods_of_one_name_that_only_read_one_another():
    sources = {
        "a": ("class Base:\n"
              "    def sample(self, rng):\n"
              "        raise NotImplementedError\n\n"
              "class Pair(Base):\n"
              "    def __init__(self, left):\n"
              "        self.left = left\n"
              "    def sample(self, rng):\n"
              "        return (self.left.sample(rng), self.left.sample(rng))\n"
              "    def _draw(self, rng):\n"
              "        return self._draw(rng)\n"
              "    def apply(self, x):\n"
              "        return x\n\n"
              "class Other:\n"
              "    def _draw(self, rng):\n"
              "        return self.left._draw(rng)\n"
              "    def apply(self, x):\n"
              "        return x\n"),
        # a read from outside every definition named apply keeps both
        "b": "from .a import Base, Other, Pair\nPair(Base()).apply(Other().apply(1))\n",
    }
    assert unread_public_names(sources) == ["a.Base.sample", "a.Pair.sample"]
    assert dead_private_helpers(sources) == ["a.Pair._draw (line 10)", "a.Other._draw (line 16)"]


def test_every_public_name_is_read_or_kept_for_a_reason():
    unread = unread_public_names({p.stem: p.read_text() for p in SOURCES})
    assert [n for n in unread if n not in KEPT_PUBLIC] == []
    # an entry whose name the library now reads, or that is gone, is stale
    assert sorted(KEPT_PUBLIC) == sorted(unread)
    assert all(KEPT_PUBLIC.values())


def test_every_tracer_target_resolves(monkeypatch):
    """Every (module, qualname) of bench/tracer.py's TARGETS names a
    definition, found the way Tracer.install finds it: getattr down to
    the owner, then owner.__dict__[name], so an inherited method does not
    count.  tracer.py is loaded without writing bytecode into bench/."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclass needs it
    spec.loader.exec_module(tracer)
    missing = []
    for target in tracer.TARGETS:
        owner = importlib.import_module(target.module)
        *parents, name = target.qualname.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{target.module}.{target.qualname}")
    assert tracer.TARGETS
    assert missing == []


def _exception_names(node):
    """The class names a raise or except clause names: X, X(...),
    errors.X and tuples of them."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Tuple):
        return [n for e in node.elts for n in _exception_names(e)]
    return []


def unraised_errors(sources):
    """Classes of sources["errors"] that no raise statement or except
    clause of another module in the dict of module name -> source names."""
    named = set()
    for module, source in sources.items():
        if module == "errors":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                named.update(_exception_names(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                named.update(_exception_names(node.type))
    return [node.name for node in ast.parse(sources["errors"]).body
            if isinstance(node, ast.ClassDef) and node.name not in named]


def test_the_check_sees_an_unraised_error():
    sources = {
        "errors": ("class Base(Exception):\n    pass\n\nclass Raised(Base):\n    pass\n\n"
                   "class Caught(Base):\n    pass\n\nclass Unused(Base):\n    pass\n"),
        "a": ("from . import errors\nfrom .errors import Caught, Raised\n\n"
              "def f():\n    try:\n        raise errors.Base('x')\n"
              "    except (Caught, KeyError):\n        raise Raised\n"),
        "b": "from .errors import Unused\n",
    }
    assert unraised_errors(sources) == ["Unused"]


def test_every_error_class_is_raised_or_caught():
    assert unraised_errors({p.stem: p.read_text() for p in PACKAGE}) == []


def test_all_lists_exactly_the_reexports():
    tree = ast.parse((Path(wittkit.__file__).parent / "__init__.py").read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for a in node.names}
    assert [n for n, c in Counter(wittkit.__all__).items() if c > 1] == []
    assert [n for n in wittkit.__all__ if not hasattr(wittkit, n)] == []
    assert set(wittkit.__all__) == imported


def test_the_chain_level_duality_is_gone():
    import inspect

    from wittkit import devissage, koszul

    removed = ["DualityData", "trivial_duality", "hom_complex", "duality_functor",
               "dual_chain_map", "can_map", "verify_duality_axioms", "devissage_map"]
    assert [n for n in removed if hasattr(wittkit, n)] == []
    assert not hasattr(devissage, "devissage_map")
    assert not (Path(wittkit.__file__).parent / "chaindual.py").exists()
    assert wittkit.FreeComplex is koszul.FreeComplex
    assert list(inspect.signature(koszul.FreeComplex).parameters) == ["ring", "ranks", "diffs"]


# the one place where modules.py decides the ring family, and what it reads
RING_FAMILY_READERS = {"chain_components"}
RING_FAMILY_NAMES = {"ProductRing", "is_nilpotent_quotient", "uniformizer", "idempotents", "is_field"}


def ring_family_reads(source):
    """(function, name) for each read of RING_FAMILY_NAMES, as a Name or
    an attribute, in the body of a function or method of source other than
    RING_FAMILY_READERS; imports are not function bodies."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name not in RING_FAMILY_READERS:
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, (ast.Name, ast.Attribute)) and name in RING_FAMILY_NAMES:
                    out.append((node.name, name))
    return out


def test_the_check_sees_a_ring_family_branch():
    src = ("from .rings import ProductRing\n\n"
           "def chain_components(ring):\n"
           "    return isinstance(ring, ProductRing) or ring.is_field\n\n"
           "class K:\n"
           "    def split(self, ring):\n"
           "        if ring.is_field or uniformizer(ring):\n"
           "            return ring.idempotents()\n\n"
           "def dim(ring):\n"
           "    return ring.scalar_dim() // len(chain_components(ring))\n")
    assert ring_family_reads(src) == [("split", "is_field"), ("split", "uniformizer"), ("split", "idempotents")]


def test_modules_decides_the_ring_family_in_one_place():
    assert ring_family_reads((Path(wittkit.__file__).parent / "modules.py").read_text()) == []


# The layers above modules.py read the ring family only through it.  Left
# out: fieldwitt.py and linalg.py, which need a field by design.
@pytest.mark.parametrize("name", ["forms.py", "wittgroup.py", "coefficients.py", "transfer.py",
                                  "devissage.py"])
def test_form_layers_read_the_ring_family_through_modules(name):
    assert ring_family_reads((Path(wittkit.__file__).parent / name).read_text()) == []


def test_one_coordinate_basis_per_subspace():
    from wittkit import cli, forms, intsnf, linalg, modules

    assert not hasattr(linalg, "Solver")
    assert [n for n in ("ActionSpace", "_ann_sort_key", "_hom_rows") if hasattr(modules, n)] == []
    assert not hasattr(cli, "entry")
    assert not hasattr(forms.HermitianForm, "neg")
    # read by tests only; they list elements, count factors and read
    # factors themselves
    assert not hasattr(modules.FLModule, "elements")
    assert not hasattr(modules.CyclicFactor, "elements")
    assert not hasattr(intsnf.PresentedGroup, "is_trivial")
    assert not hasattr(forms.HermitianForm, "rank")


# Ring subclass of rings.py -> why the family needs it.  Every other ring is
# built from these by a constructor function, as GF(q) and QuadraticField(d)
# build quotients.
RING_FAMILY = {
    "PrimeField": "GF(p), the scalars of every finite ring",
    "Rationals": "QQ, the scalars of every infinite ring",
    "QuotientRing": "base[t]/(f): GF(q), QQ(sqrt(d)), k[t]/(t^n) and the P^1 charts",
    "PolynomialRing": "the ambient rings of the Koszul conormal sign",
    "ProductRing": "R x R, the ring the swap involution needs",
}


def ring_subclasses(source):
    """Sorted names of the module-level classes of source that subclass
    Ring, directly or through another class of source."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(source).body if isinstance(node, ast.ClassDef)}

    def is_ring(name):
        return any(b == "Ring" or is_ring(b) for b in bases.get(name, []))

    return sorted(name for name in bases if is_ring(name))


def test_the_check_sees_a_ring_subclass():
    src = ("class Ring:\n    pass\n\nclass A(Ring):\n    pass\n\n"
           "class B(A):\n    pass\n\nclass C:\n    pass\n\ndef QuadraticField(d):\n    return A()\n")
    assert ring_subclasses(src) == ["A", "B"]


def test_the_ring_family_is_five_classes_each_for_a_reason():
    source = (Path(wittkit.__file__).parent / "rings.py").read_text()
    assert ring_subclasses(source) == sorted(RING_FAMILY)
    assert all(RING_FAMILY.values())


def _callee(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def default_only_parameters(sources):
    """module.function.parameter (module.Class.method.parameter for a
    method) of every parameter default, in a dict of module name ->
    source, that no call anywhere in the sources passes, by keyword or
    by position.  Calls are matched by the name they call, a class's
    __init__ by the class name; a call with *args or **kwargs passes
    every parameter."""
    defaults = []
    calls = []
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defaults += _defaults(f"{module}.{node.name}", node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                        callee = node.name if item.name == "__init__" else item.name
                        defaults += _defaults(f"{module}.{node.name}.{item.name}", callee, item,
                                              0 if static else 1)
        calls += [n for n in ast.walk(tree) if isinstance(n, ast.Call)]

    def passed(callee, name, index):
        for call in calls:
            if _callee(call) != callee:
                continue
            if any(k.arg in (name, None) for k in call.keywords):
                return True
            if any(isinstance(a, ast.Starred) for a in call.args):
                return True
            if index is not None and len(call.args) > index:
                return True
        return False

    return [label for label, callee, name, index in defaults if not passed(callee, name, index)]


def _defaults(label, callee, node, skip):
    """(label.parameter, callee, parameter, index among the positional
    arguments of a call, None for keyword-only) of each defaulted
    parameter of the function node, whose first skip parameters (self or
    cls) the call does not pass."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(f"{label}.{a.arg}", callee, a.arg, k - skip)
           for k, a in enumerate(positional) if k >= first]
    out += [(f"{label}.{a.arg}", callee, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_the_check_sees_a_default_no_call_passes():
    sources = {
        "a": ("def f(x, y=1, z=2):\n    return x\n\n"
              "class K:\n"
              "    def __init__(self, a, b=0):\n        pass\n"
              "    def m(self, c=None, *, d=3):\n        pass\n"
              "    @staticmethod\n"
              "    def s(e=1, g=2):\n        pass\n"),
        "b": "from .a import K, f\nf(1, 2)\nK(1).m(c=4)\nK.s(5)\nf(*[1])\n",
    }
    assert default_only_parameters(sources) == ["a.K.__init__.b", "a.K.m.d", "a.K.s.g"]


# module.function.parameter -> why its default is the only value the
# library passes
DEFAULT_ONLY = {
    "cli.main.argv": "the entry point reads sys.argv; tests and the benchmark pass argv",
    "forms.diagonal_form.epsilon": "oracle: diagonal_form is kept public for the tests (KEPT_PUBLIC)",
    "forms.diagonal_form.shape": "oracle: diagonal_form is kept public for the tests (KEPT_PUBLIC)",
}


def test_every_parameter_default_is_passed_by_the_library_or_kept_for_a_reason():
    unpassed = default_only_parameters({p.stem: p.read_text() for p in PACKAGE})
    assert sorted(unpassed) == sorted(DEFAULT_ONLY)
    assert all(DEFAULT_ONLY.values())


def test_the_knobs_only_tests_set_and_the_unreached_paths_are_gone():
    import inspect

    from wittkit import cli, forms, koszul, modules, rings, wittgroup
    from wittkit.coefficients import standard_coefficient

    assert [n for n in ("is_nilpotent_quotient", "uniformizer") if hasattr(modules, n)] == []
    assert not hasattr(rings, "_pgcd")
    assert [c for c in ["Element", *RING_FAMILY] if hasattr(getattr(rings, c), "is_unit")] == []
    engine = wittgroup.WittEngine(standard_coefficient(rings.involution(rings.GF(3), "id")), 1)
    assert not hasattr(engine, "_metabolic")

    def params(f):
        return list(inspect.signature(f).parameters)

    assert params(wittgroup.WittEngine) == ["coef", "epsilon"]
    assert params(wittgroup.witt_group) == ["coef", "epsilon", "bound"]
    assert params(wittgroup.enumerate_gram_tables) == ["coef", "module", "epsilon"]
    assert params(forms.HermitianForm) == ["coef", "module", "gram", "epsilon"]
    assert params(rings.GF) == ["q"]
    assert params(koszul.RegularSequenceData) == ["ring", "sequence"]
    assert params(cli._resolve_bound) == ["args"]
    assert wittgroup.MAX_SIZE == 400000
