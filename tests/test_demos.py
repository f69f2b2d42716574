import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*"))


def test_all_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    interpreter = "sh" if demo.suffix == ".sh" else sys.executable
    result = subprocess.run(
        [interpreter, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
