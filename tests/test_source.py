"""Properties of the package source and of its external bindings."""

import ast
import sys
from pathlib import Path

import onevar.kripke

ROOT = Path(__file__).resolve().parent.parent


def _raises_assertion_error(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements():
    # invariants raise explicit exceptions: ``python -O`` strips asserts,
    # and an AssertionError names no failure a caller can map to an exit code
    found = []
    for path in sorted((ROOT / "src" / "onevar").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or _raises_assertion_error(node)]
    assert found == []


def _called_name(node) -> str | None:
    """Name of the function a call node calls, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)


def _codec_use(node) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "tags"
    return _called_name(node) == "CoordinateCodec"


def test_world_numbering_stays_in_kripke():
    # product worlds are numbered in one place: only kripke builds a
    # CoordinateCodec, and no module reads per-world coordinate tags
    found = []
    for path in sorted((ROOT / "src" / "onevar").glob("*.py")):
        if path.name == "kripke.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _codec_use(node)]
    assert found == []


def test_naive_oracle_reads_the_factors():
    # check_naive decodes the product definition from the factors itself;
    # if it read the plan (or built one), its rows or fans, or a factor's
    # offset masks, which product() widens into the plan, it would share
    # the fast checker's encoding of the relation, and a bug there could
    # not show up in any differential test
    path = ROOT / "src" / "onevar" / "kripke.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    oracle = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "check_naive")
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(oracle)
             if isinstance(node, ast.Attribute)
             and node.attr in ("frame", "steps", "fans", "succs", "offsets")
             or _called_name(node) in ("product", "sat_mask")]
    assert found == []


# module -> names it imports only for perfbench/tracer.py to patch
TRACER_BINDINGS = {"search.py": {"sat_set"}, "surgery.py": {"sat_set"}}


def test_every_import_is_used():
    # a name a module imports but never reads is dead; __init__.py imports
    # to re-export
    found = []
    for path in sorted((ROOT / "src" / "onevar").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        allowed = TRACER_BINDINGS.get(path.name, set())
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and name not in allowed:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def _names_read_and_defined():
    """The names the package and the benchmark read, and the package's
    module-level definitions as ``(module, name, node)``; ``__init__.py``
    only re-exports, so its reads do not count."""
    package = sorted((ROOT / "src" / "onevar").glob("*.py"))
    read, defined = set(), []
    for path in package + sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        if path not in package or path.name != "__init__.py":
            read |= {node.id for node in ast.walk(tree)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load)}
            read |= {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)}
        if path in package:
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    defined.append((path.name, node.name, node))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    defined += [(path.name, name.id, node)
                                for target in targets
                                for name in ast.walk(target)
                                if isinstance(name, ast.Name)]
    return read, defined


def test_every_public_definition_is_used():
    # a public top-level function, class or assigned name (a constant, a
    # corpus) that neither the package nor the benchmark reads serves only
    # the tests, and belongs in them
    read, defined = _names_read_and_defined()
    assert [f"{module} {name}" for module, name, _ in defined
            if not name.startswith("_") and name not in read] == []


def test_every_private_name_is_read():
    # a private module-level function, class or assigned name that neither
    # the package nor the benchmark reads is dead code
    read, defined = _names_read_and_defined()
    assert [f"{module} {name}" for module, name, _ in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in read] == []


def test_perfbench_tracer_binds(monkeypatch):
    # the benchmark's traced run wraps package functions by name; a rename
    # or move of any of them must fail here, not in the benchmark
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    original = vars(onevar.kripke)["product"]
    recorder = tracer.Tracer()
    tracer.install(recorder)
    try:
        assert vars(onevar.kripke)["product"] is not original
    finally:
        recorder.unpatch()
    assert vars(onevar.kripke)["product"] is original
