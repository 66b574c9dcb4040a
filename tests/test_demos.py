"""The quick demos run end to end against the current API.

Demos 04 (training) and 05 (benchmark) take minutes and write output
directories, so they are left out.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_objectives_and_operators.py", "02_baselines_sa_sh.py",
                                  "03_policy_network_forward.py"])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
    assert not any(tmp_path.iterdir())
