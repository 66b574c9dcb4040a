"""Every public name the package advertises resolves.

A deleted function can leave its name behind in a module's ``__all__`` or in
the package's re-exports; ``from swapsched.x import *`` then fails at import
time in the caller. These checks catch such stale entries, and imports that
nothing reads in the package, the demos and the tests.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import swapsched

MODULES = sorted(m.name for m in pkgutil.iter_modules(swapsched.__path__))
ROOT = Path(__file__).resolve().parents[1]
# the demos and the test files, as paths from the repository root
SCRIPTS = sorted(p.relative_to(ROOT).as_posix()
                 for pattern in ("demos/*.py", "tests/*.py") for p in ROOT.glob(pattern))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"swapsched.{name}")
    listed = getattr(module, "__all__", [])
    assert [n for n in listed if not hasattr(module, n)] == []
    assert len(set(listed)) == len(listed)


def _package_reexports():
    """``(module, name)`` for each ``from .module import name`` in the package."""
    tree = ast.parse(Path(swapsched.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


def test_package_reexports_resolve():
    reexports = _package_reexports()
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"swapsched.{module_name}")
        assert getattr(swapsched, name) is getattr(module, name), name
        assert name in module.__all__, f"{module_name}.{name}"


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads; ``__all__`` entries count as reads."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


# submodules (__init__ imports to re-export), demos and tests
@pytest.mark.parametrize("name", MODULES + SCRIPTS)
def test_module_has_no_unused_imports(name):
    path = Path(swapsched.__file__).with_name(f"{name}.py") if name in MODULES else ROOT / name
    assert _unused_imports(path.read_text()) == []


# the reference objectives and features: test oracles, bitwise what
# ObjectiveTables computes, which is the one scorer the other modules call
REFERENCE_NAMES = {"combined_objective", "objective_f1", "objective_f2", "state_features",
                   "job_features", "weighted_tardiness_values"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "schedcore"])
def test_only_schedcore_uses_the_reference_objectives(name):
    tree = ast.parse(Path(swapsched.__file__).with_name(f"{name}.py").read_text())
    used = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "schedcore"}
    assert sorted(used & REFERENCE_NAMES) == []


# the config keys of the instance and checkpoint sets, the patterns that list
# their directories, and the one reader of each set (with its listing helper)
SET_KEYS = {"instances", "instance_dir", "checkpoints", "checkpoint_dir", "*.json", "*.ckpt"}
SET_READERS = {("cli", "_instance_files"), ("bench", "pool_files"),
               ("inference", "checkpoint_files")}


def _set_reads(name: str, source: str) -> list[str]:
    """``function: key`` for each set key or directory glob in a function of
    module ``name`` other than the readers; module-level strings are not
    read (``cli.CONFIG_DOCS`` documents the keys)."""
    reads = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef) or (name, fn.name) in SET_READERS:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Constant) and node.value in SET_KEYS:
                reads.append(f"{fn.name}: {node.value}")
            elif isinstance(node, ast.Attribute) and node.attr in ("glob", "rglob", "iglob"):
                reads.append(f"{fn.name}: .{node.attr}")
    return sorted(reads)


@pytest.mark.parametrize("name", MODULES)
def test_only_the_set_readers_read_instance_and_checkpoint_sets(name):
    source = Path(swapsched.__file__).with_name(f"{name}.py").read_text()
    assert _set_reads(name, source) == []


def test_set_read_check_sees_keys_and_globs_outside_the_readers():
    source = ("def f(cfg):\n    return cfg.get('instances') or d.glob('*.ckpt')\n"
              "def pool_files(d):\n    return d.glob('*.json')\nDOCS = 'checkpoints'\n")
    assert _set_reads("bench", source) == ["f: *.ckpt", "f: .glob", "f: instances"]


# the calls that read a checkpoint file, which in bench and inference only
# inference.multipolicy makes: it alone hashes, reuses and loads policies
CHECKPOINT_READS = {"load_checkpoint", "checkpoint_digest"}


def _checkpoint_reads(source: str) -> list[str]:
    """``function: name`` for each checkpoint read (``x.load_checkpoint`` or an
    import of the name) outside ``multipolicy`` and the functions nested in
    it; ``<module>`` for one at module level."""
    reads = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "multipolicy":
            continue
        where = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            names = ([node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
            reads += [f"{where}: {n}" for n in names if n in CHECKPOINT_READS]
    return sorted(reads)


@pytest.mark.parametrize("name", ["bench", "inference"])
def test_only_multipolicy_reads_checkpoints(name):
    source = Path(swapsched.__file__).with_name(f"{name}.py").read_text()
    assert _checkpoint_reads(source) == []


def test_checkpoint_read_check_sees_reads_outside_multipolicy():
    source = ("def multipolicy(path):\n    def run():\n"
              "        return policynet.load_checkpoint(path)\n    return run()\n"
              "def f(path, checkpoint_digest=''):\n"
              "    return checkpoint_digest or policynet.checkpoint_digest(path)\n"
              "from .policynet import load_checkpoint\n"
              "load = functools.cache(lambda path: pn.load_checkpoint(path))\n")
    assert _checkpoint_reads(source) == ["<module>: load_checkpoint",
                                         "<module>: load_checkpoint", "f: checkpoint_digest"]


def test_unused_import_check_sees_module_and_function_imports():
    source = ("import math\nimport os.path\nfrom x import a, b as c\n"
              "def f():\n    from y import d\n    return a + os.sep\n__all__ = ['c']\n")
    assert _unused_imports(source) == ["d (line 5)", "math (line 1)"]
