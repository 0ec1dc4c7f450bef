"""The documented API: the README's export list is ``mimoslnr.__all__``, its
library quick start runs as written, and the subcommands that ``cli._COMMANDS``
declares are the ones the ``cli`` docstring lists and the CLI quick start runs."""

import os
import re

import numpy as np

import mimoslnr
from mimoslnr import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_section(heading):
    text = open(README, encoding="utf-8").read()
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_all_is_the_documented_export_list():
    listed = readme_section("Library API").split("Every other public name", 1)[0]
    names = [name for name in re.findall(r"`(\w+)`", listed) if name != "__version__"]
    assert len(names) == 17
    assert mimoslnr.__all__ == ["__version__", *names]
    for name in mimoslnr.__all__:
        assert hasattr(mimoslnr, name)


def test_subcommands_are_documented_where_declared():
    listed = cli.__doc__.split("Subcommands:", 1)[1].split(".", 1)[0]
    block = readme_section("Quick start (CLI)").split("```sh\n", 1)[1].split("```", 1)[0]
    run = {line.split()[1] for line in block.splitlines() if line.startswith("mimoslnr ")}
    assert set(cli._COMMANDS) == set(re.findall(r"``([\w-]+)``", listed)) == run


def test_library_quick_start_runs(capsys):
    code = readme_section("Quick start (library)").split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, README, "exec"), namespace)
    assert abs(namespace["gamma"] - 100.98) < 0.01
    np.testing.assert_allclose(namespace["sol"].gamma, namespace["gamma"], rtol=1e-10)
    assert namespace["m"].slnr.shape == (32,)
    printed = capsys.readouterr().out
    assert round(float(re.search(r"x_star=([\d.]+)", printed).group(1)), 4) == 1.2999
    assert round(float(re.search(r"alpha_star=([\d.]+)", printed).group(1)), 4) == 0.7693
