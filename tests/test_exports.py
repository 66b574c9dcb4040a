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


# ObjectiveTables' arrays and an instance's raw ones: schedcore's tables are
# the one scorer and feature builder, so the PPO env and collect and the
# inference lanes read neither, and no module outside schedcore reads the
# tables, but bench's exact oracle, a dynamic program over gt and dist
TABLE_ATTRS = {"gt", "dist", "f1_ref", "f2_ref", "_proc", "_due"}
INSTANCE_ATTRS = {"proc", "due"}
TABLE_READERS = {("bench", "held_karp_best"): {"gt", "dist"}}


def _scorer_reads(name: str, source: str) -> list[str]:
    """``definition: .attr`` for each read of a table array, and in ppo and
    inference of an instance's ``proc``/``due``, by a top-level definition of
    module ``name`` that may not make it; ``<module>`` at module level."""
    banned = TABLE_ATTRS | (INSTANCE_ATTRS if name in ("ppo", "inference") else set())
    reads = []
    for stmt in ast.parse(source).body:
        where = getattr(stmt, "name", "<module>")
        allowed = TABLE_READERS.get((name, where), set())
        reads += [f"{where}: .{node.attr}" for node in ast.walk(stmt)
                  if isinstance(node, ast.Attribute) and node.attr in banned - allowed]
    return sorted(reads)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "schedcore"])
def test_only_schedcore_reads_the_objective_tables(name):
    source = Path(swapsched.__file__).with_name(f"{name}.py").read_text()
    assert _scorer_reads(name, source) == []


def test_scorer_read_check_sees_table_and_instance_reads():
    source = ("class Env:\n    def step(self):\n        return self.tables.f1_ref + self.inst.proc\n"
              "def held_karp_best(t):\n    return t.gt + t.dist + t.f2_ref\n"
              "DUE = inst.due\n")
    assert _scorer_reads("ppo", source) == [
        "<module>: .due", "Env: .f1_ref", "Env: .proc", "held_karp_best: .dist",
        "held_karp_best: .f2_ref", "held_karp_best: .gt"]
    assert _scorer_reads("bench", source) == ["Env: .f1_ref", "held_karp_best: .f2_ref"]


# the config keys of the instance and checkpoint sets, the patterns that list
# their directories, and the one reader of each set (with its listing helper)
SET_KEYS = {"instances", "instance_dir", "checkpoint", "checkpoints", "checkpoint_dir", "*.json",
            "*.ckpt"}
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


# the calls that read a checkpoint file, which in bench, cli and inference
# only inference.multipolicy makes: it alone hashes, reuses and loads policies
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


@pytest.mark.parametrize("name", ["bench", "cli", "inference"])
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


# a config field's type is checked from its annotation by schedcore.check_fields,
# the first statement of every dataclass __post_init__, which then checks only
# ranges and relations
TYPE_CHECKS = {"check_count", "check_real", "isinstance"}


def _name(node) -> str:
    """The name ``f`` of ``f``, ``m.f`` or a call of either."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", ""))


def _post_init_type_checks(source: str) -> list[str]:
    """``Class: problem`` for each dataclass ``__post_init__`` whose first
    statement is not ``check_fields(self, ...)`` or that checks a type itself."""
    found = []
    for cls in ast.walk(ast.parse(source)):
        if not (isinstance(cls, ast.ClassDef)
                and any(_name(d) == "dataclass" for d in cls.decorator_list)):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
                continue
            first = fn.body[0]
            if not (isinstance(first, ast.Expr) and isinstance(first.value, ast.Call)
                    and _name(first.value) == "check_fields"
                    and [getattr(a, "id", None) for a in first.value.args] == ["self"]):
                found.append(f"{cls.name}: check_fields(self, ...) is not first")
            found += [f"{cls.name}: {_name(node)}" for node in ast.walk(fn)
                      if isinstance(node, ast.Call) and _name(node) in TYPE_CHECKS]
    return sorted(found)


@pytest.mark.parametrize("name", MODULES)
def test_config_fields_are_typed_by_check_fields_alone(name):
    source = Path(swapsched.__file__).with_name(f"{name}.py").read_text()
    assert _post_init_type_checks(source) == []


def test_post_init_check_sees_late_or_missing_check_fields_and_own_type_checks():
    source = ("@dataclass(frozen=True)\nclass A:\n    def __post_init__(self):\n"
              "        check_fields(self, n=1)\n        sc.check_count('n', self.n)\n"
              "@dataclass\nclass B:\n    def __post_init__(self):\n"
              "        if not isinstance(self.g, bool):\n            raise ValueError\n"
              "        check_fields(self)\n"
              "@dataclasses.dataclass\nclass C:\n    def __post_init__(self):\n"
              "        check_real('t', self.t)\n"
              "class D:\n    def __post_init__(self):\n        isinstance(self, D)\n")
    assert _post_init_type_checks(source) == [
        "A: check_count", "B: check_fields(self, ...) is not first", "B: isinstance",
        "C: check_fields(self, ...) is not first", "C: check_real"]


def test_unused_import_check_sees_module_and_function_imports():
    source = ("import math\nimport os.path\nfrom x import a, b as c\n"
              "def f():\n    from y import d\n    return a + os.sep\n__all__ = ['c']\n")
    assert _unused_imports(source) == ["d (line 5)", "math (line 1)"]
