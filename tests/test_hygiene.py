"""Static checks of the package source and the README.

Every name a module exports resolves, no module imports a name it never
uses (a deletion that leaves its imports behind fails here), no module
raises a bare ``ValueError`` (a refusal is an ``InvalidInput``), the
operator and suite modules leave the lp geometry to ``LpSpace`` and the
Gram factors to ``GramMetric``, no module but ``GramMetric`` multiplies by
a Gram, only ``h_polar`` touches the operator's
polar memo, no module imports inside a function, every function and
class is named somewhere in the package or promised by the README, and
the README's library tour runs as written.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import dst

SRC = Path(dst.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def _module(stem):
    return dst if stem == "__init__" else importlib.import_module(f"dst.{stem}")


def _exports(stem):
    # importing __main__ would run the CLI; it exports nothing
    return () if stem == "__main__" else getattr(_module(stem), "__all__", ())


@pytest.mark.parametrize("stem", MODULES)
def test_every_all_entry_resolves(stem):
    missing = [name for name in _exports(stem) if not hasattr(_module(stem), name)]
    assert not missing, f"dst/{stem}.py exports undefined names {missing}"


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_imports(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exports(stem))  # re-exports
    unused = sorted(imported - used)
    assert not unused, f"dst/{stem}.py imports {unused} and never uses them"


@pytest.mark.parametrize("stem", MODULES)
def test_no_bare_value_error_is_raised(stem):
    # a refusal is an InvalidInput: a ToolkitError that is still a ValueError
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None]
    bare = sorted(node.lineno for node in raised if isinstance(node, ast.Name) and node.id == "ValueError")
    assert not bare, f"dst/{stem}.py raises a bare ValueError at lines {bare}"


@pytest.mark.parametrize("stem", ["adjoint", "suites"])
def test_p_stays_inside_the_space(stem):
    # the lp geometry (norms, duality map, equivalence constants) is LpSpace's
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    reads = sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "p")
    assert not reads, f"dst/{stem}.py reads .p at lines {reads}"
    calls = sorted(
        f"{node.func.id}@{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("abs_norm", "vnorm")
    )
    assert not calls, f"dst/{stem}.py computes an lp norm itself: {calls}"


@pytest.mark.parametrize("stem", ["adjoint", "suites"])
def test_only_the_metric_applies_the_gram_factors(stem):
    # G, L*, inv(L*) and inv(G) are applied by GramMetric's methods, which
    # know when G is diagonal; the operator and suite modules call them
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    reads = sorted(
        f"{node.attr}@{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("chol_h", "frame_inv")
    )
    assert not reads, f"dst/{stem}.py applies a Gram factor itself: {reads}"

    def reads_gram(expr):
        return any(isinstance(n, ast.Attribute) and n.attr == "gram" for n in ast.walk(expr))

    # names bound to anything that reads .gram (g = op.metric.gram) count as a Gram too
    gram_names = {
        t.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and reads_gram(node.value)
        for target in node.targets
        for t in ast.walk(target)
        if isinstance(t, ast.Name)
    }
    solves = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).endswith("linalg.solve")
        and node.args
        and any(
            (isinstance(n, ast.Attribute) and n.attr == "gram") or (isinstance(n, ast.Name) and n.id in gram_names)
            for n in ast.walk(node.args[0])
        )
    )
    assert not solves, f"dst/{stem}.py solves against a Gram at lines {solves}"


@pytest.mark.parametrize("stem", MODULES)
def test_only_the_metric_multiplies_by_a_gram(stem):
    # G u, v* G u and every other product with a Gram come from GramMetric's
    # methods: no @, np.dot or np.vdot outside that class has an operand reading .gram
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    inside = {id(n) for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "GramMetric" for n in ast.walk(c)}

    def reads_gram(expr):
        return any(isinstance(n, ast.Attribute) and n.attr == "gram" for n in ast.walk(expr))

    def operands(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return node.left, node.right
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.dot", "np.vdot"):
            return node.args
        return ()

    products = sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside and any(reads_gram(x) for x in operands(node))
    )
    assert not products, f"dst/{stem}.py multiplies by a .gram itself at lines {products}"


@pytest.mark.parametrize("stem", MODULES)
def test_only_h_polar_touches_the_polar_memo(stem):
    # the operator's H-polar memo has one writer (and reader): adjoint.h_polar
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    inside = set()
    if stem == "adjoint":
        (fn,) = (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "h_polar")
        inside = {id(n) for n in ast.walk(fn)}
    touches = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_polars" and id(node) not in inside
    )
    assert not touches, f"dst/{stem}.py touches ._polars outside h_polar at lines {touches}"


@pytest.mark.parametrize("stem", MODULES)
def test_no_import_inside_a_function(stem):
    # every dependency between modules is stated at the top, so a cycle fails at import
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    late = sorted(
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert not late, f"dst/{stem}.py imports inside a function at lines {late}"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library tour'"
    exec(compile(block.group(1), "README.md:Library tour", "exec"), {})


# names the README promises although no module of the package uses them
README_PROMISED = {
    "is_diagonal": "GramMetric.is_diagonal",
    "vector": "Rng.vector",
    "dual_norm": "LpSpace.dual_norm",
    "banach_deformed_spectral": "banach_deformed_spectral",
}


def _unused_definitions(sources: dict[str, str]) -> list[str]:
    """Functions, classes and methods that no module names outside
    ``__all__``. A function or class counts as named by a call, an
    attribute read or an import; a method or property only by an
    attribute read, since a local variable of the same name is no use."""
    defs, named, read = [], set(), set()
    for stem, text in sources.items():
        tree = ast.parse(text)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((stem, node.lineno, node.name, id(node) in methods))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.asname or node.name)
    return sorted(
        f"dst/{stem}.py:{line} {name}"
        for stem, line, name, method in defs
        if name not in read and (method or name not in named) and not (name.startswith("__") and name.endswith("__"))
    )


def _sources() -> dict[str, str]:
    return {stem: (SRC / f"{stem}.py").read_text(encoding="utf-8") for stem in MODULES}


def test_every_definition_is_used_or_promised():
    unused = [entry for entry in _unused_definitions(_sources()) if entry.split()[-1] not in README_PROMISED]
    assert not unused, f"defined but named nowhere in the package: {unused}"


def test_the_scan_finds_a_readded_unused_helper():
    sources = _sources()
    sources["kuelbs"] += "\n\ndef h_norm(u):\n    return abs(u)\n"
    # a property that only a local variable of the same name (basis in the
    # banach-spectral suite) shadows is still unused
    sources["kuelbs"] += "\n\nclass Frame:\n    @property\n    def basis(self):\n        return None\n"
    unused = _unused_definitions(sources)
    assert any(entry.endswith(" h_norm") for entry in unused)
    assert any(entry.endswith(" basis") for entry in unused)


def test_the_promised_names_are_in_the_readme():
    text = README.read_text(encoding="utf-8")
    missing = [qualified for qualified in README_PROMISED.values() if qualified not in text]
    assert not missing, f"README does not name {missing}"
