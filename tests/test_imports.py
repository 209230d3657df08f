"""What a fresh interpreter loads: no layer imports numpy with its module,
so the scalar and exact entry points, the CLI commands they decide and the
scalar verify suites start without it; zero counting and verify load no
criteria or exact layer; and the lazily served package API still binds
every public name.  Each test runs its own Python process."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# the package API: every name ``from lplab import *`` binds
PUBLIC_NAMES = sorted([
    "Bracket", "CriterionReport", "EvalResult", "FamilyKind", "QuotientView",
    "RealPolynomial", "RootBracket", "SeriesFamily", "Verdict", "WindingResult",
    "c_n", "classify_euler", "coefficient_log", "count_zeros_in_disk", "critical_a",
    "cubic_section_threshold", "evaluate", "evaluate_section", "hutchinson_test",
    "is_real_rooted", "isolate_real_roots", "min_modulus_on_circle", "necessary_q2",
    "q_infinity", "quotients", "refine", "rho_radius", "s2_root_modulus",
    "section_polynomial", "sign_test_euler", "sign_test_theta", "six_term_section_test",
    "tail_bound", "threshold_table", "transition_scan",
])


def python(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_code(code: str) -> str:
    return python("-c", code).stdout.strip()


def imported_modules(proc: subprocess.CompletedProcess) -> list:
    """The modules named in the stderr of a ``-X importtime`` run."""
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


def numpy_modules(imported: list) -> list:
    return [m for m in imported if m == "numpy" or m.startswith("numpy.")]


def test_public_api_is_frozen():
    assert len(PUBLIC_NAMES) == 35
    out = run_code("import lplab; print(' '.join(sorted(lplab.__all__)))")
    assert out.split() == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    out = run_code(
        "ns = {}\n"
        "exec('from lplab import *', ns)\n"
        f"print(all(n in ns for n in {PUBLIC_NAMES!r}), sum(1 for n in ns if n[0] != '_'))"
    )
    assert out == f"True {len(PUBLIC_NAMES)}"


def test_exact_layer_imports_without_numpy():
    out = run_code(
        "from lplab import isolate_real_roots, refine, is_real_rooted, section_polynomial\n"
        "import sys; print('numpy' in sys.modules)"
    )
    assert out == "False"


@pytest.mark.parametrize("names", [
    "classify_euler, sign_test_euler, sign_test_theta",
    "q_infinity, c_n, critical_a, transition_scan",
    "count_zeros_in_disk, min_modulus_on_circle, rho_radius",
])
def test_batch_layers_import_without_numpy(names):
    out = run_code(f"from lplab import {names}\nimport sys; print('numpy' in sys.modules)")
    assert out == "False"


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["eval", "--family", "eulerF", "--a", "4", "--z=-3.5"],
    ["section", "--family", "theta", "--a", "2", "--n", "5", "--z", "3,1"],
    ["quotients", "--family", "eulerH", "--a", "3", "--n-max", "6"],
])
def test_scalar_cli_commands_run_without_numpy(argv):
    imported = imported_modules(python("-X", "importtime", "-m", "lplab.cli", *argv))
    assert "lplab.series" in imported
    assert not numpy_modules(imported)


@pytest.mark.parametrize("argv, layer, decided", [
    (["classify", "--a", "5"], "lplab.criteria", '"criterion": "hutchinson"'),
    (["classify", "--a", "3.0"], "lplab.criteria", '"criterion": "q2_necessary"'),
    (["constants", "--name", "thresholds"], "lplab.constants", '"six_term_exact_deg20"'),
])
def test_commands_decided_without_a_batch_run_without_numpy(argv, layer, decided):
    proc = python("-X", "importtime", "-m", "lplab.cli", *argv)
    assert decided in proc.stdout
    imported = imported_modules(proc)
    assert layer in imported
    assert not numpy_modules(imported)


def test_zero_counting_imports_no_criteria():
    out = run_code(
        "from lplab import count_zeros_in_disk, min_modulus_on_circle, rho_radius\n"
        "import sys; print(sorted({'lplab.criteria', 'lplab.polyroots'} & set(sys.modules)))"
    )
    assert out == "[]"


@pytest.mark.parametrize("lemma", ["3", "6", "rouche"])
def test_scalar_verify_suites_run_without_numpy_or_criteria(lemma):
    proc = python("-X", "importtime", "-m", "lplab.cli", "verify", "--lemma", lemma)
    assert '"passed": true' in proc.stdout
    imported = imported_modules(proc)
    assert "lplab.verify" in imported
    assert not numpy_modules(imported)
    assert not {"lplab.criteria", "lplab.polyroots"} & set(imported)


def test_batch_command_still_loads_its_layer():
    # a classify that reaches the sign test, and a winding count
    for argv, layer, decided in (
        (["classify", "--a", "3.8"], "lplab.criteria", '"criterion": "sign_test_euler"'),
        (["zeros", "--a", "4", "--radius", "3.4"], "lplab.zerocount", '"count": 2'),
    ):
        proc = python("-X", "importtime", "-m", "lplab.cli", *argv)
        assert decided in proc.stdout
        assert {layer, "numpy"} <= set(imported_modules(proc))


def test_submodules_resolve_after_a_bare_import():
    out = run_code(
        "import lplab\n"
        "mods = [lplab.series, lplab.polyroots, lplab.zerocount, lplab.criteria,\n"
        "        lplab.constants, lplab.errors]\n"
        "print(' '.join(m.__name__ for m in mods), lplab.evaluate is lplab.series.evaluate)"
    )
    assert out == ("lplab.series lplab.polyroots lplab.zerocount lplab.criteria "
                   "lplab.constants lplab.errors True")


def test_unknown_attribute_is_an_attribute_error():
    out = run_code("import lplab\nprint(hasattr(lplab, 'no_such_name'), 'verify' in dir(lplab))")
    assert out == "False False"


_ORDER = """
import sys
from lplab.series import FamilyKind, SeriesFamily, evaluate, evaluate_many
fam = SeriesFamily(FamilyKind.EULER_F, 3.7, alternating=True)
points = [0.5, 2.25, 11.0, 3.0 + 4.0j]

def bits(value, bound):
    value = complex(value)
    return value.real.hex(), value.imag.hex(), float(bound).hex()

def scalar():
    results = [evaluate(fam, z) for z in points]
    return [bits(r.value, r.abs_error_bound) for r in results]

def batch():
    import numpy as np
    return [bits(v, b) for v, b in zip(*evaluate_many(fam, np.array(points)))]

first, second = (scalar, batch) if sys.argv[1] == "scalar" else (batch, scalar)
out = {first.__name__: first(), second.__name__: second()}
print(out["scalar"], out["batch"])
"""


def test_scalar_and_batch_bits_do_not_depend_on_import_order():
    # scalar first, the scalar sums run before numpy is imported at all
    scalar_first = python("-c", _ORDER, "scalar").stdout
    batch_first = python("-c", _ORDER, "batch").stdout
    assert scalar_first == batch_first
