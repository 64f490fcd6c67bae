import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import duomech
from duomech import errors

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(duomech.__path__)
    if info.name != "__main__"
)


def test_package_exports_resolve_once():
    assert len(duomech.__all__) == len(set(duomech.__all__))
    for name in duomech.__all__:
        assert hasattr(duomech, name), name


def test_package_exports_every_runtime_module():
    # each name is declared once, in its module's __all__; the package joins
    # them, all but the command line's
    modules = [importlib.import_module(f"duomech.{module}") for module in MODULES]
    assert all(hasattr(module, "__all__") for module in modules)
    joined = [name for module in modules if module.__name__ != "duomech.cli"
              for name in module.__all__]
    assert sorted(duomech.__all__) == sorted(joined)
    assert len(joined) == len(set(joined))


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"duomech.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"duomech.{module}.{name}"


def test_every_error_is_a_duomech_error_and_keeps_its_base():
    bases = {"ConfigError": ValueError, "StabilityError": RuntimeError,
             "PhysicalityError": ValueError, "UnsupportedBranchError": ValueError,
             "BracketError": ValueError}
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type)}
    assert classes.keys() == bases.keys() | {"DuomechError"}
    for name, base in bases.items():
        assert issubclass(classes[name], errors.DuomechError), name
        assert issubclass(classes[name], base), name


def test_runtime_imports_numpy_only(tmp_path):
    # a point and a short CLI sweep, in a fresh interpreter, import none of
    # the test and reference tools, and the package alone not the command line
    (tmp_path / "system.cfg").write_text(duomech.EXAMPLE_CONFIG)
    script = (
        "import sys\n"
        "from duomech import evaluate_point, figure_preset\n"
        "print(sorted({'duomech.cli', 'argparse'} & set(sys.modules)))\n"
        "from duomech.cli import main\n"
        "evaluate_point(figure_preset('fig3').held)\n"
        "assert main(['--config', 'system.cfg', '--sweep', 'r=0:1:3',\n"
        "             '--output', 'sweep.csv']) == 0\n"
        "print(sorted({name.partition('.')[0] for name in sys.modules}))\n"
    )
    package_root = str(Path(duomech.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert ast.literal_eval(lines[0]) == []
    imported = set(ast.literal_eval(lines[-1]))
    assert not imported & {"scipy", "hypothesis", "mpmath", "pytest"}
