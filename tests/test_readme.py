import contextlib
import io
import json
import re
from pathlib import Path

from kgstab.cli import parse_scenario_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(language: str) -> str:
    """The first ```language block of the README."""
    return re.search(rf"```{language}\n(.*?)```", README, re.S).group(1)


def test_readme_examples_run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(fenced("python"), "README.md", "exec"), {})
    assert out.getvalue().split() == ["negative", "1", "stable"]
    cfg = parse_scenario_dict(json.loads(fenced("json")))
    assert cfg.epsilons == (0.1, 0.05, 0.025)
    assert cfg.out == "results"
