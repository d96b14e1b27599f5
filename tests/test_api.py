"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
from pathlib import Path
import pkgutil

import pytest

import cyberrisk
import cyberrisk.engine as engine

from test_bench_contract import BENCH, _patch_points

_MODULES = sorted(info.name for info in pkgutil.iter_modules(cyberrisk.__path__))


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cyberrisk.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []


def test_package_imports_are_exported_by_their_modules():
    tree = ast.parse(Path(cyberrisk.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"cyberrisk.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(cyberrisk, alias.asname or alias.name) is getattr(module, alias.name)


# The only imports inside a function: ones that only some runs need.
# A run of more than one worker loads the process pool, only ``fit``
# parses datasets, and only a process's first cipher pass builds or loads
# the compiled kernel.
_DEFERRED_IMPORTS = {"cli.py:_cmd_fit": ["datetime", ".ingestion"],
                     "engine.py:run_simulation": ["concurrent.futures"],
                     "streams.py:_philox_kernel": ["ctypes", "hashlib", "subprocess", "sysconfig",
                                                   "tempfile"]}


def _package_modules_reached(stem: str) -> set:
    """Every package module that importing ``cyberrisk.<stem>`` loads
    through module-level relative imports."""
    reached, todo = set(), [stem]
    while todo:
        tree = ast.parse((Path(cyberrisk.__file__).parent / f"{todo.pop()}.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module not in reached:
                reached.add(node.module)
                todo.append(node.module)
    return reached


def test_only_deferred_imports_sit_inside_a_function():
    """Every import but ``_DEFERRED_IMPORTS`` sits at module level, and no
    deferred package module imports its importer back, so no import cycle
    hides behind a function call."""
    nested = {}
    for path in sorted(Path(cyberrisk.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = []
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Import):
                        names += [alias.name for alias in inner.names]
                    elif isinstance(inner, ast.ImportFrom):
                        names.append("." * inner.level + (inner.module or ""))
                if names:
                    nested[f"{path.name}:{node.name}"] = names
    assert nested == _DEFERRED_IMPORTS
    for place, names in nested.items():
        importer = place.partition(".py")[0]
        for name in names:
            if name.startswith("."):
                assert importer not in _package_modules_reached(name[1:]), (place, name)


def test_every_import_is_used():
    """Every module-level import is read by its module or patched on
    ``engine`` by bench/run.py, so a deletion cannot leave an import behind.
    ``__init__`` is skipped: its imports are the package's exports."""
    bench_patched = {attr for owner, attr in _patch_points() if owner == "engine"}
    unused = []
    for path in sorted(Path(cyberrisk.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}: {name}" for name in names if name not in read
                       and not (path.stem == "engine" and name in bench_patched)]
    assert unused == []


def _module_level_names_read_nowhere_else():
    """The module-level functions and classes of the package that neither
    the package nor bench/ reads outside their own definition;
    ``__init__``'s re-exports and ``__all__`` entries do not count."""
    package = Path(cyberrisk.__file__).parent
    defined, read = set(), set()
    for path in sorted(package.glob("*.py")) + sorted(BENCH.glob("*.py")):
        if path.name == "__init__.py" and path.parent == package:
            continue
        for node in ast.parse(path.read_text()).body:
            own = getattr(node, "name", None)
            if path.parent == package and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(own)
            for inner in ast.walk(node):
                names = ([inner.id] if isinstance(inner, ast.Name) else
                         [inner.attr] if isinstance(inner, ast.Attribute) else
                         [alias.name for alias in inner.names]
                         if isinstance(inner, ast.ImportFrom) else [])
                read.update(name for name in names if name != own)
    return sorted(defined - read)


def test_every_public_name_is_read_outside_the_tests():
    """A public function or class that only tests read is a wrapper to
    delete."""
    assert [name for name in _module_level_names_read_nowhere_else()
            if not name.startswith("_")] == []


def test_every_private_name_is_read_outside_the_tests():
    """A private function or class that only tests read is a helper to
    delete or to move into the tests."""
    assert [name for name in _module_level_names_read_nowhere_else()
            if name.startswith("_")] == []


def test_engine_draws_only_through_the_batched_samplers():
    """``engine`` imports chunk_words, derive_stream, sample_poisson_batch
    and sample_severity_batch only for bench/run.py to patch; it never calls
    or otherwise reads them, so a per-repetition loop over single streams,
    or a second count-region reader, cannot come back unnoticed."""
    single = {"chunk_words", "derive_stream", "sample_poisson_batch", "sample_severity_batch"}
    tree = ast.parse(Path(engine.__file__).read_text())
    uses = [f"engine.py:{node.lineno}" for node in ast.walk(tree)
            if getattr(node, "id", None) in single or getattr(node, "attr", None) in single]
    assert uses == []


def test_engine_reads_the_ptrs_threshold_only_to_size_its_reads():
    """The choice between inversion and PTRS is made in ``distributions``.
    ``engine`` reads PTRS_THRESHOLD only where it sizes the words a row
    reads: the count layout's region width (``_count_width``, which the
    count scan and its helper-thread estimate both read) and the
    DETAIL_SPILL prefix."""
    tree = ast.parse(Path(engine.__file__).read_text())
    readers = set()
    for node in tree.body:
        names = {inner.id for inner in ast.walk(node) if isinstance(inner, ast.Name)}
        if "PTRS_THRESHOLD" in names:
            readers.add(getattr(node, "name", f"engine.py:{node.lineno}"))
    assert readers == {"_count_width", "_multi_cluster_days"}
