"""The package's public surface is the stage modules' ``__all__``, joined."""

import os
import subprocess
import sys
from pathlib import Path

import hombeat
from hombeat import bins, density, fringes, hom, lm, scenario, spectral, units

STAGES = (units, spectral, hom, bins, fringes, lm, density, scenario)


def test_all_joins_the_stage_modules():
    joined = [name for module in STAGES for name in module.__all__]
    assert hombeat.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_every_name_is_the_stage_object():
    for module in STAGES:
        for name in module.__all__:
            assert getattr(hombeat, name) is getattr(module, name), name


def test_star_import_in_a_fresh_process():
    src = str(Path(hombeat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("from hombeat import *\n"
            "import hombeat\n"
            "missing = set(hombeat.__all__) - set(globals())\n"
            "assert not missing, missing\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
