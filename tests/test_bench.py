"""bench/collect.py drives the CLI with the README configuration and the
mode arguments it lists: both must stay valid for the CLI."""

import importlib.util
from pathlib import Path

import pytest

from tnindex import cli

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "collect", ROOT / "bench" / "collect.py")
collect = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(collect)


@pytest.mark.parametrize("mode", sorted(collect.MODES))
def test_collect_modes_load_the_readme_config(mode):
    args = cli.build_parser().parse_args(collect.MODES[mode])
    cfg = cli.load_config(collect.readme_config(ROOT), args)
    assert cfg["mode"] == args.mode


def test_collect_rejects_a_side_without_a_path():
    with pytest.raises(SystemExit):
        collect.main(["--side", "parent", "--out", "unused.json"])
