"""The README advertises exactly the config keys, sweep axes and CLI
commands the code accepts."""
import dataclasses
import re
from pathlib import Path

from irsloc import cli, harness

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def test_sweep_axes_match_harness():
    listed = re.search(r"^Sweep axes: (.*?)\.$", README, re.M | re.S).group(1)
    # quoted values such as `"optimized"` are axis values, not axes
    assert re.findall(r"`(\w+)`", listed) == list(harness._POINT_AXES)


def test_config_example_keys_match_spec_from_dict():
    example = re.search(r"```json\n(.*?)```", README, re.S).group(1)
    keys = re.findall(r'^  "(\w+)":', example, re.M)
    defaults = dataclasses.asdict(harness.ExperimentSpec())
    assert sorted(keys) == sorted(defaults)
    for key in keys:
        harness.spec_from_dict({key: defaults[key]})


def test_cli_commands_match():
    block = README[README.index("## CLI"):]
    block = re.search(r"```\n(.*?)```", block, re.S).group(1)
    listed = re.findall(r"^irsloc ([\w-]+)", block, re.M)
    assert listed == list(cli._COMMANDS)
