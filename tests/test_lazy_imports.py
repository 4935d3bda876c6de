"""Cold start: the package and the numpy-free commands never load numpy,
and verify loads neither budget nor matching.

Each case runs in a fresh interpreter, since numpy is already loaded in
this one.  Only grids of closed forms (sweep), the oracle and verify
need numpy.  Nor do those commands load dataclasses or inspect, whose
imports cost more than any coldamp module: records are params.Record.
Only budget and sweep print the config digest, so only they load
hashlib and OpenSSL; those cases run under -S, so that no site-packages
.pth file loads them first.
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import coldamp

SRC = str(Path(coldamp.__file__).resolve().parents[1])
SHIPPED = str(Path(coldamp.__file__).resolve().parent / "data" / "microscope.cfg")

_CLI = """\
import sys
from coldamp import cli
try:
    rc = cli.main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(rc, *(name in sys.modules for name in _HEAVY), file=sys.stderr)
"""
_HEAVY = ("numpy", "dataclasses", "inspect")    # modules a cold command should not load
_COLD = ["False"] * len(_HEAVY)
_NO_DIGEST = f"_HEAVY = ('_hashlib',)\n{_CLI}"    # OpenSSL, which only the digest needs


def _run(code: str, *args: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    """`python flags -c code args` with src on the path; code sees _HEAVY."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, *flags, "-c", f"_HEAVY = {_HEAVY!r}\n{code}", *args],
                          env=env, capture_output=True, text=True, timeout=60, check=True)


def _fresh(code: str, *args: str, flags: tuple[str, ...] = ()) -> list[str]:
    """Last stderr line of `python flags -c code args`, split on whitespace."""
    return _run(code, *args, flags=flags).stderr.splitlines()[-1].split()


def test_import_and_load_skip_numpy():
    code = ("import sys, coldamp\n"
            "cfg = coldamp.load(sys.argv[1])\n"
            "print(cfg.digest, *(name in sys.modules for name in _HEAVY), file=sys.stderr)\n")
    digest, *loaded = _fresh(code, SHIPPED)
    assert digest == coldamp.load(SHIPPED).digest
    assert loaded == _COLD


@pytest.mark.parametrize("argv", [["dump-config"], ["optimize"], ["--help"]],
                         ids=["dump-config", "optimize", "help"])
def test_numpy_free_commands(argv):
    assert _fresh(_CLI, *argv) == ["0", *_COLD]


def test_config_error_skips_numpy(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text(Path(SHIPPED).read_text().replace("[analysis]\n", "[analysis]\ncolour = 1.0 K\n"))
    assert _fresh(_CLI, "budget", "--config", str(bad)) == ["1", *_COLD]
    assert _fresh(_NO_DIGEST, "budget", "--config", str(bad), flags=("-S",)) == ["1", "False"]


def test_load_skips_the_digest_and_noise():
    """load only parses and validates: hashlib waits for the digest, and params needs no noise."""
    code = ("_HEAVY = ('hashlib', '_hashlib', 'coldamp.noise', 'coldamp.constants')\n"
            "import sys, coldamp\n"
            "coldamp.load(sys.argv[1])\n"
            "print(*(name in sys.modules for name in _HEAVY), file=sys.stderr)\n")
    assert _fresh(code, SHIPPED, flags=("-S",)) == ["False"] * 4


@pytest.mark.parametrize("argv", [["dump-config"], ["optimize"], ["--help"]],
                         ids=["dump-config", "optimize", "help"])
def test_commands_without_a_digest_skip_openssl(argv):
    assert _fresh(_NO_DIGEST, *argv, flags=("-S",)) == ["0", "False"]


def test_budget_prints_the_digest_of_the_packaged_text():
    p = _run(_CLI, "budget", flags=("-S",))
    text = Path(SHIPPED).read_text(encoding="utf-8")
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    assert p.stderr.startswith(f"coldamp budget ({digest}): at ")
    assert p.stdout.splitlines()[1].split(",")[-2] == digest


@pytest.mark.parametrize("argv", [
    ["budget"],
    ["budget", "--freq-min", "1e-4", "--freq-max", "1e-2", "--points", "50"],
], ids=["budget", "budget-50"])
def test_budget_skips_numpy(argv):
    """budget evaluates its grid point by point in floats."""
    assert _fresh(_CLI, *argv) == ["0", *_COLD]


def test_budget_without_site_skips_importlib_resources():
    """The built-in config is read through cli's own loader.  -S keeps site-packages'
    .pth files, which may import importlib.resources themselves, out of the check."""
    code = f"_HEAVY = ('numpy', 'importlib.resources')\n{_CLI}"
    assert _fresh(code, "budget", flags=("-S",)) == ["0", "False", "False"]


def test_sweep_loads_numpy():
    """sweep evaluates its grid as numpy arrays, in one call."""
    assert _fresh(_CLI, "sweep", "--min", "1e-4", "--max", "1e-2")[:2] == ["0", "True"]


def test_verify_skips_the_budget_modules():
    """verify reads the spectrum from sensor; budget and matching stay unloaded."""
    code = f"_HEAVY = ('coldamp.budget', 'coldamp.matching')\n{_CLI}"
    assert _fresh(code, "verify", "--draws", "1") == ["0", "False", "False"]


def test_sensor_imports_no_numpy():
    source = Path(SRC, "coldamp", "sensor.py").read_text()
    assert not re.search(r"^\s*(import|from)\s+numpy\b", source, re.MULTILINE)


def test_every_public_name_resolves():
    for name in coldamp.__all__:
        assert getattr(coldamp, name) is not None, name
    assert set(coldamp.__all__) <= set(dir(coldamp))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        coldamp.nonexistent
