"""The three benchmark workloads and the reference check of their outputs.

Each workload builds its inputs from the seed, runs one *pass* per call to
``run_pass`` through duomech's public API (or ``duomech.cli.main``), and
returns what the program produced.  ``check`` compares those outputs with the
reference recorded in ``reference/`` and counts attempted and failed
operations:

* sweep  -- one operation per CSV row; a row fails when its measures are
  empty, it is flagged unstable, or a field leaves its tolerance.
* bisect -- one operation per ``find_critical_xi`` search; a search fails on
  ``BracketError`` or when xi_l leaves its tolerance.
* oracle -- one operation per verdict; it fails when an entry of the
  ensemble estimate lies more than ``CONSISTENCY_Z`` standard errors from
  the exact solve or, at the reference seed, when the verdict or max |z|
  differs from the recorded value.  A FAIL verdict within that bound is a
  chance fluctuation of a correct solve (see ``OracleWorkload.check``); it
  is reported as a note, not counted as a failure.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import math
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import duomech  # noqa: E402
from duomech import cli  # noqa: E402

# Every timing is the process's CPU time (user + system).  The runs are
# single-threaded (BLAS pinned to one thread), so it equals wall time minus
# the time the host hands the CPU to other guests -- which on a shared
# virtual machine is bursty and would otherwise dominate run-to-run spread.
clock = time.process_time

# ----------------------------------------------------------------- inputs

STRONG_COUPLING_CONFIG = """\
# strong coupling: C = 1e5, xi = lambda/kappa = 10
omega_m_hz        = 947e3
gamma_hz          = 140
kappa_hz          = 14000
omega_c_hz        = 5.26e14
omega_l_hz        = 2.82e14
mass_kg           = 145e-12
cavity_length_m   = 25e-3
temperature_k     = 1e-4
squeezing_r       = 1.0
hopping_lambda_hz = 140000
cooperativity     = 1e5
"""

# label -> cli arguments (the output path is appended per pass)
SWEEP_CALLS = {
    "fig2": ["--figure", "fig2"],
    "fig3": ["--figure", "fig3"],
    "fig4": ["--figure", "fig4"],
    "strong": ["--config", "{config}", "--sweep", "r=0:3:301",
               "--curves", "gamma_over_kappa=1e-4,1e-2,1"],
}

# xi_l(T) curve at the fig4 held point: T = 0.10, 0.11, ..., 0.44 mK
BISECT_TEMPERATURES_MK = tuple(round(0.10 + 0.01 * i, 2) for i in range(35))
BISECT_BRACKET = (0.0, 1.0)
# bisection resolves xi to xi_tol = 1e-6; a last-digit change in E_N near
# the threshold may move one step, so allow two resolutions
XI_L_ATOL = 2e-6
# acceptance criterion 10: xi_l at 0.1 mK
XI_L_WINDOW_0P1MK = (0.3233, 0.3267)

ORACLE_SETTINGS = dict(burn_in=250.0, sample_duration=400.0, n_trajectories=128)
ORACLE_GAMMA_OVER_KAPPA = 0.05
MAX_Z_RTOL = 1e-6
# An entry this many standard errors off the exact solve is an error, not a
# fluctuation: with 128 trajectories |z| is close to Student-t with 127
# degrees of freedom, so a correct solve reaches it on one seed in about a
# million over the 36 unique entries, while a deviation of 8 % of a variance
# (eight of its standard errors at these settings) exceeds it on nearly
# every seed.
CONSISTENCY_Z = 6.0
# SdeConfig.seed must be a non-negative integer; --seed may be any integer
SEED_MODULUS = 2**64

# per CSV column: (relative, absolute) tolerance against the reference.
# Parameter echoes must match to rounding; covariance entries and measures
# may move by solver rounding, never by a physically visible amount.
PARAM_TOL = (1e-12, 0.0)
VALUE_TOL = (1e-8, 1e-12)
MEASURE_TOL = (1e-8, 1e-10)
CSV_TOLERANCES = {
    "swept_variable": PARAM_TOL, "curve_variable": PARAM_TOL, "r": PARAM_TOL,
    "xi": PARAM_TOL, "T_K": PARAM_TOL, "gamma_rads": PARAM_TOL,
    "kappa_rads": PARAM_TOL, "C": PARAM_TOL, "n_th": PARAM_TOL,
    "sigma1": VALUE_TOL, "sigma12": VALUE_TOL, "sigma13": VALUE_TOL,
    "nu_minus": VALUE_TOL, "steering": MEASURE_TOL,
    "log_negativity": MEASURE_TOL, "discord": MEASURE_TOL,
}
MEASURE_COLUMNS = ("sigma1", "sigma12", "sigma13", "steering",
                   "log_negativity", "discord", "nu_minus")


def _no_tick() -> None:
    """Default ``tick`` of ``run_pass``, which calls it after each timed
    operation (the runner calibrates the host speed there)."""


@dataclass
class PassResult:
    """What one pass produced: per-operation latencies [s], the number of
    result rows ("points"), and the outputs to check."""

    op_seconds: list[float]
    points: int
    outputs: dict = field(default_factory=dict)

    def drop_outputs(self) -> None:
        """Keep only a digest of large outputs once they are checked, so
        that the benchmark's own memory does not grow with the pass count."""
        self.outputs = {k: _digest(v) if isinstance(v, bytes) else v
                        for k, v in self.outputs.items()}


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # known program defects that showed but are not failed operations
    notes: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.notes.extend(n for n in other.notes if n not in self.notes)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference_json(name: str) -> dict:
    return json.loads((REFERENCE_DIR / name).read_text(encoding="utf-8"))


# ------------------------------------------------------------------ sweep

class SweepWorkload:
    """The three figure presets plus the strong-coupling config sweep, each
    through ``cli.main`` with its CSV written into a scratch directory."""

    name = "sweep"
    calibration = "point"  # the hostspeed kernel that does the same kind of work

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        config = workdir / "strong.cfg"
        config.write_text(STRONG_COUPLING_CONFIG, encoding="utf-8")
        self.calls = {
            label: [arg.replace("{config}", str(config)) for arg in argv]
            for label, argv in SWEEP_CALLS.items()
        }
        self.order = list(self.calls)
        random.Random(seed).shuffle(self.order)
        self._checked: dict[tuple[str, str], CheckResult] = {}

    def warm_up(self) -> PassResult:
        return self.run_pass(self.order[:1])

    def run_pass(self, labels=None, tick=_no_tick) -> PassResult:
        latencies, outputs, points = [], {}, 0
        sink = io.StringIO()
        for label in labels or self.order:
            path = self.workdir / f"{label}.csv"
            argv = self.calls[label] + ["--output", str(path)]
            with contextlib.redirect_stdout(sink):
                start = clock()
                code = cli.main(argv)
                latencies.append(clock() - start)
            tick()
            data = path.read_bytes() if code == 0 and path.exists() else b""
            outputs[label] = data
            # every non-comment line after the header is one emitted row
            points += max(sum(1 for line in data.splitlines()
                              if not line.startswith(b"#")) - 1, 0)
        return PassResult(latencies, points, outputs)

    def check(self, result: PassResult) -> CheckResult:
        total = CheckResult()
        for label, data in result.outputs.items():
            key = (label, _digest(data))
            if key not in self._checked:
                self._checked[key] = check_sweep_csv(label, data)
            total.add(self._checked[key])
        return total


def reference_csv(label: str) -> bytes:
    return gzip.decompress((REFERENCE_DIR / f"sweep-{label}.csv.gz").read_bytes())


def _split_csv(data: bytes) -> tuple[list[str], list[str], list[list[str]]]:
    lines = data.decode("utf-8").splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    header = body[0].split(",") if body else []
    return meta, header, [line.split(",") for line in body[1:]]


def _field_ok(value: str, ref: str, tol: tuple[float, float]) -> bool:
    if value == ref:
        return True
    try:
        v, r = float(value), float(ref)
    except ValueError:
        return False
    rtol, atol = tol
    return math.isfinite(v) and abs(v - r) <= atol + rtol * abs(r)


def check_sweep_csv(label: str, data: bytes) -> CheckResult:
    """Compare one sweep CSV with its reference, field by field."""
    reference = reference_csv(label)
    ref_meta, ref_header, ref_rows = _split_csv(reference)
    result = CheckResult(attempted=len(ref_rows))
    if not data:
        result.failed = len(ref_rows)
        result.problems.append(f"sweep {label}: no CSV written")
        return result
    meta, header, rows = _split_csv(data)
    if meta != ref_meta or header != ref_header:
        result.failed = len(ref_rows)
        result.problems.append(f"sweep {label}: metadata or header differs from reference")
        return result
    if data == reference:
        return result
    index = {name: i for i, name in enumerate(header)}
    measure_idx = [index[c] for c in MEASURE_COLUMNS]
    stable_idx = index["stable"]
    for n, ref_row in enumerate(ref_rows):
        row = rows[n] if n < len(rows) else None
        bad = (
            row is None
            or len(row) != len(ref_row)
            or row[stable_idx] != "true"
            or any(row[i] == "" for i in measure_idx)
            or any(not _field_ok(row[index[c]], ref_row[index[c]], tol)
                   for c, tol in CSV_TOLERANCES.items())
        )
        if bad:
            result.failed += 1
            if len(result.problems) < 5:
                result.problems.append(f"sweep {label} row {n}: {row} vs {ref_row}")
    if len(rows) > len(ref_rows):
        result.attempted = len(rows)
        result.failed += len(rows) - len(ref_rows)
        result.problems.append(f"sweep {label}: {len(rows)} rows, reference has {len(ref_rows)}")
    return result


# ----------------------------------------------------------------- bisect

class BisectWorkload:
    """One xi_l(T) curve of ``find_critical_xi`` searches at the fig4 held
    point; the seed fixes the order in which the temperatures are searched."""

    name = "bisect"
    calibration = "point"  # the hostspeed kernel that does the same kind of work

    def __init__(self, seed: int, workdir: Path) -> None:
        held = duomech.figure_preset("fig4").held
        self.points = [
            (t_mk, held.with_updates(temperature=t_mk * 1e-3))
            for t_mk in BISECT_TEMPERATURES_MK
        ]
        random.Random(seed).shuffle(self.points)
        # loaded at the first check, so that setup_s times only duomech's set-up
        self._reference: dict | None = None

    def warm_up(self) -> PassResult:
        return self.run_pass()

    def run_pass(self, tick=_no_tick) -> PassResult:
        latencies, xi_l = [], {}
        for t_mk, params in self.points:
            start = clock()
            try:
                xi_l[t_mk] = duomech.find_critical_xi(params, BISECT_BRACKET).xi_l
            except duomech.BracketError as exc:
                xi_l[t_mk] = f"BracketError: {exc}"
            latencies.append(clock() - start)
            tick()
        return PassResult(latencies, len(self.points), {"xi_l": xi_l})

    def check(self, result: PassResult) -> CheckResult:
        if self._reference is None:
            self._reference = {float(k): v for k, v in
                               load_reference_json("bisect.json")["xi_l"].items()}
        found = result.outputs["xi_l"]
        check = CheckResult(attempted=len(found))
        for t_mk, value in found.items():
            ref = self._reference[t_mk]
            ok = isinstance(value, float) and abs(value - ref) <= XI_L_ATOL
            if ok and t_mk == 0.10:
                lo, hi = XI_L_WINDOW_0P1MK
                ok = lo < value < hi
            if not ok:
                check.failed += 1
                check.problems.append(f"bisect T={t_mk} mK: xi_l {value!r}, reference {ref!r}")
        return check


# ----------------------------------------------------------------- oracle

class OracleWorkload:
    """Euler-Maruyama ensemble against the Lyapunov solve at the fig3 held
    point with gamma = 0.05 kappa; the seed is the ensemble's RNG seed."""

    name = "oracle"
    calibration = "ensemble"  # the hostspeed kernel that does the same kind of work

    def __init__(self, seed: int, workdir: Path) -> None:
        held = duomech.figure_preset("fig3").held
        self.params = held.with_updates(gamma=ORACLE_GAMMA_OVER_KAPPA * held.kappa)
        self.config = duomech.SdeConfig(seed=seed % SEED_MODULUS, **ORACLE_SETTINGS)
        self._reference: dict | None = None

    def warm_up(self) -> None:
        # a full verdict would double the run; the first-call costs of the
        # pipeline are paid by one point evaluation
        duomech.evaluate_point(self.params)

    def run_pass(self, tick=_no_tick) -> PassResult:
        start = clock()
        point = duomech.evaluate_point(self.params)
        matrices = duomech.system_matrices(point.derived)
        estimate = duomech.integrate_steady_covariance(matrices, self.config)
        comparison = duomech.compare_to_lyapunov(estimate, point.state)
        elapsed = clock() - start
        tick()
        cfg = estimate.config
        steps = estimate.n_samples // cfg.n_trajectories + round(cfg.burn_in / cfg.dt)
        return PassResult([elapsed], 1, {
            "passed": comparison.passed,
            "max_abs_z": comparison.max_abs_z,
            "n_unique_above_3se": comparison.n_unique_above_3se,
            "steps": steps,
        })

    def check(self, result: PassResult) -> CheckResult:
        """A failure is an estimate inconsistent with the exact solve, or a
        change at the reference seed.  The verdict itself is not required to
        be PASS: its rule (every |z| <= 4, at most 2 of 36 above 3) treats
        the entries as independent, but entries of one collective mode move
        together, so a correct solve gets FAIL on about one seed in 160 --
        the defect ROADMAP aim 3 names.  Such a verdict is reported as a
        note on every run that meets it."""
        if self._reference is None:
            self._reference = load_reference_json("oracle.json")
        out, ref = result.outputs, self._reference
        seed = self.config.seed
        check = CheckResult(attempted=1)
        problems = []
        if not (math.isfinite(out["max_abs_z"]) and out["max_abs_z"] <= CONSISTENCY_Z):
            problems.append(f"oracle seed {seed}: max |z| {out['max_abs_z']!r} exceeds "
                            f"{CONSISTENCY_Z} standard errors")
        if seed == ref["seed"] and (out["passed"] != ref["passed"] or not math.isclose(
                out["max_abs_z"], ref["max_abs_z"], rel_tol=MAX_Z_RTOL)):
            problems.append(f"oracle seed {seed}: passed={out['passed']} max |z| "
                            f"{out['max_abs_z']!r}, reference passed={ref['passed']} "
                            f"max |z| {ref['max_abs_z']!r}")
        if problems:
            check.failed = 1
            check.problems.extend(problems)
        elif not out["passed"]:
            check.notes.append(
                f"oracle seed {seed}: verdict FAIL on a consistent estimate (max |z| "
                f"{out['max_abs_z']:.3f}, {out['n_unique_above_3se']} entries above 3 SE)")
        return check


WORKLOADS = {w.name: w for w in (SweepWorkload, BisectWorkload, OracleWorkload)}


@contextlib.contextmanager
def scratch_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".perfbench-tmp"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()
