import ast
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import duomech
from conftest import reference_params
from duomech import errors

REPO = Path(__file__).resolve().parents[1]
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


def _closed(**changes):
    args = dict(cooperativity=32.11, squeezing_r=1.0, xi=0.2, gamma=879.6, kappa=87964.6,
                n_th=1.74)
    return duomech.closed_sigma(**{**args, **changes})


def _bisect(bracket):
    return duomech.find_critical_xi(duomech.figure_preset("fig4").held, bracket)


# every entry point refuses a wrongly typed, non-finite or out-of-range number
# with a ConfigError that names it; each of these got through or raised
# another error before
@pytest.mark.parametrize("call, name", [
    (lambda: reference_params(squeezing_r=None), "squeezing_r"),
    (lambda: reference_params(temperature=None), "temperature"),
    (lambda: reference_params(hopping_lambda=None), "hopping_lambda"),
    (lambda: reference_params(temperature=True), "temperature"),
    (lambda: reference_params(cooperativity=True), "cooperativity"),
    (lambda: reference_params(temperature="1e-4"), "temperature"),
    (lambda: reference_params(squeezing_r=1 + 0j), "squeezing_r"),
    (lambda: reference_params(gamma=[1.0]), "gamma"),
    (lambda: _closed(cooperativity=True), "cooperativity"),
    (lambda: _closed(cooperativity="1"), "cooperativity"),
    (lambda: duomech.validate_closed_forms([duomech.GridPoint(1.0, 1.0, "0.2", 0.01)]),
     r"^GridPoint\(.*\): xi must be a real number"),
    (lambda: duomech.validate_closed_forms([duomech.GridPoint(True, 1.0, 0.2, 0.01)]),
     r"^GridPoint\(.*\): cooperativity must be a real number"),
    (lambda: duomech.thermal_occupancy(1.0, math.nan), "temperature"),
    (lambda: duomech.thermal_occupancy(math.inf, 1e-4), "omega_m"),
    (lambda: duomech.squeezed_moments(math.inf), "squeezing_r"),
    (lambda: duomech.squeezed_moments(math.nan), "squeezing_r"),
    (lambda: duomech.thermal_state("1"), "mean occupation"),
    (lambda: duomech.two_mode_squeezed_state("1"), "squeezing"),
    (lambda: _bisect(("0", 1.0)), "bracket lo"),
    (lambda: _bisect((False, 1.0)), "bracket lo"),
    (lambda: reference_params(temperature=10**400), "temperature"),
    (lambda: duomech.SweepSpec("T", 0, 10**400, 3, reference_params()), "stop"),
    (lambda: duomech.SdeConfig(dt=10**400), "dt"),
], ids=["r-none", "T-none", "lambda-none", "T-bool", "C-bool", "T-str", "r-complex",
        "gamma-list", "closed-C-bool", "closed-C-str", "grid-xi-str", "grid-C-bool",
        "occupancy-T-nan", "occupancy-omega-inf", "moments-inf", "moments-nan",
        "thermal-str", "tmsv-str", "bracket-str", "bracket-bool", "T-beyond-float",
        "sweep-stop-beyond-float", "dt-beyond-float"])
def test_bad_number_is_a_config_error_naming_its_field(call, name):
    with pytest.raises(errors.ConfigError, match=name):
        call()


# the abstract-class check runs for every type but float (np.float32 is no
# float subclass), and the result is the float's
@pytest.mark.parametrize("one", [1, np.float64(1.0), np.float32(1.0), np.int64(1)],
                         ids=["int", "float64", "float32", "int64"])
def test_other_real_number_types_give_the_float_result(one):
    assert duomech.derive(reference_params(squeezing_r=one)) == duomech.derive(reference_params(squeezing_r=1.0))
    assert _closed(squeezing_r=one) == _closed(squeezing_r=1.0)


# (record, its field names in order, a builder from a parameter point): the
# records each point or search step builds are NamedTuples, so their field
# order is part of the API
PER_POINT_RECORDS = [
    (duomech.DerivedParams, "n_th n_sq m_sq coupling cooperativity xi gamma_prime "
     "kappa_prime gamma kappa hopping_lambda", duomech.derive),
    (duomech.SystemMatrices, "drift noise",
     lambda p: duomech.system_matrices(duomech.derive(p))),
    (duomech.StabilityReport, "verdict max_real threshold rates",
     lambda p: duomech.check_stability(duomech.system_matrices(duomech.derive(p)).drift)),
    (duomech.CovarianceState, "full mechanical_block residual",
     lambda p: duomech.evaluate_point(p).state),
    (duomech.CorrelationReport, "steering_ab steering_ba log_negativity discord nu_minus "
     "theta_plus theta_minus", lambda p: duomech.evaluate_point(p).report),
    (duomech.PointResult, "derived state report", duomech.evaluate_point),
    (duomech.SweepRow, "swept_value curve_value r xi temperature gamma kappa cooperativity "
     "n_th sigma1 sigma12 sigma13 steering log_negativity discord nu_minus stable",
     lambda p: duomech.run_sweep(duomech.SweepSpec("r", 0.0, 1.0, 2, p))[0]),
]
# a record's one property: true at a stable point, false where the drift is
# marginal (C = 0, gamma/kappa = 1e-9)
PROPERTIES = {duomech.StabilityReport: "is_stable", duomech.PointResult: "stable"}


@pytest.mark.parametrize("record, names, build", PER_POINT_RECORDS,
                         ids=[entry[0].__name__ for entry in PER_POINT_RECORDS])
def test_per_point_record_is_read_only_with_fixed_fields(record, names, build):
    point = reference_params()
    built = build(point)
    assert type(built) is record
    assert built._fields == tuple(names.split())
    for name in built._fields:
        with pytest.raises(AttributeError):
            setattr(built, name, None)
    if record in PROPERTIES:
        marginal = build(point.with_updates(cooperativity=0.0, gamma=1e-9 * point.kappa))
        assert getattr(built, PROPERTIES[record]) is True
        assert getattr(marginal, PROPERTIES[record]) is False


def _private_definitions(tree):
    """(name, first line, last line) of each private, non-dunder name that a
    module binds at its top level by an assignment, a def or a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                yield name, node.lineno, node.end_lineno


def test_every_private_module_name_is_used_outside_its_definition():
    # a table or helper that a rewrite left behind is named nowhere else
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for folder in ("src", "tests", "demos")
               for path in sorted((REPO / folder).rglob("*.py"))}
    unused = []
    for path in sorted((REPO / "src" / "duomech").glob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for name, first, last in _private_definitions(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) and not (other == path and first <= number <= last)
                       for other, lines in sources.items()
                       for number, line in enumerate(lines, 1)):
                unused.append(f"{path.name}: {name}")
    assert unused == []
