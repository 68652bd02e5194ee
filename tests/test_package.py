"""The package surface that the README and the benchmark tooling rely on."""

import ast
import io
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import ModuleType

import pytest

import rabi_spectra

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["lam2"] == pytest.approx(0.29797713043845475, rel=1e-15, abs=0)
    assert len(namespace["vals"]) == 4
    assert len(out.getvalue().splitlines()) == len(namespace["report"].rows) == 6


def test_every_exported_name_resolves_once():
    names = rabi_spectra.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(rabi_spectra, name) is not None, name


def test_each_export_is_the_object_its_home_module_binds():
    # the lazy exports hand out what the defining module binds, not a copy;
    # the reservoir re-imports its two numerical errors from numerics
    for name in rabi_spectra.__all__:
        value = getattr(rabi_spectra, name)
        home = sys.modules[value.__module__]
        assert home.__name__.split(".")[0] == "rabi_spectra", name
        assert getattr(home, name) is value, name
    from rabi_spectra import numerics, reservoir

    for name in ("SingularEtaError", "SingularDenominatorError"):
        assert getattr(reservoir, name) is getattr(numerics, name) is getattr(rabi_spectra, name)


def test_dir_lists_every_export():
    assert set(rabi_spectra.__all__) <= set(dir(rabi_spectra))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rabi_spectra.no_such_name
    assert not hasattr(rabi_spectra, "MIN_N_MAX")
    with pytest.raises(ImportError):
        from rabi_spectra import no_such_name  # noqa: F401


def test_benchmark_spans_import_against_this_tree(monkeypatch):
    # perfbench/spans.py wraps package functions by name at import time, so
    # a deleted or renamed name fails here.  The file is read and compiled,
    # never imported through the loader, so no bytecode is written there.
    path = ROOT / "perfbench" / "spans.py"
    module = ModuleType("perfbench_spans")
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    # each span target must still be what its module binds under that name,
    # or the benchmark would time a stale alias
    targets = set()
    for name, fn, _ in module.SPAN_TARGETS:
        owner = sys.modules[fn.__module__]
        assert getattr(owner, fn.__name__) is fn, name
        targets.add(f"{owner.__name__.rsplit('.', 1)[1]}.{fn.__name__}")
    assert {
        "cli.main", "fockspace.spectrum_vs_g1", "fockspace.build_effective_chain_matrix",
        "fockspace.trwa_block_energies", "numerics.eigh", "numerics.eigvals_sym",
        "oracle.exact_spectrum", "oracle.build_full_rabi",
    } <= targets
    with module.Tracer().installed(), module.Counter().installed():
        pass


def test_oracle_does_not_import_reservoir():
    # the single-mode oracle needs nothing of the two-mode extension; the
    # pseudomode oracle lives in reservoir, so oracle must not import it
    path = ROOT / "src" / "rabi_spectra" / "oracle.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            if node.module is None:
                imported.update(base + alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not imported & {".reservoir", "rabi_spectra.reservoir"}


def test_cli_reads_no_private_argparse_attribute():
    # argparse internals such as _ChoicesPseudoAction or _choices_actions
    # are not API and change between the Python versions CI runs, so the
    # CLI reads no underscore attribute of any object
    path = ROOT / "src" / "rabi_spectra" / "cli.py"
    private = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
        else:
            continue
        if isinstance(name, str) and name.startswith("_") and not name.endswith("__"):
            private.append(f"{node.lineno}: {name}")
    assert private == []
