"""Every demo, run from a copy, rewrites its files in demos/out byte for byte.

demos/out is tracked, so a refactor that changes any output bit shows here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
EXPECTED = sorted(p.name for p in (DEMOS / "out").iterdir())


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    """Run each demo from a copy, so its outputs land under a scratch out/."""
    work = tmp_path_factory.mktemp("demos")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for script in sorted(DEMOS.glob("demo_*.py")):
        copy = work / script.name
        shutil.copyfile(script, copy)
        subprocess.run([sys.executable, str(copy)], cwd=work, env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=300)
    return work / "out"


def test_same_file_set(demo_out):
    assert sorted(p.name for p in demo_out.iterdir()) == EXPECTED


@pytest.mark.parametrize("name", EXPECTED)
def test_bytes_identical(demo_out, name):
    assert (demo_out / name).read_bytes() == (DEMOS / "out" / name).read_bytes()
