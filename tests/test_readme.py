"""The README's configuration and report-schema examples against the code:
the example config loads, and the schema shows the report's keys."""

import importlib
import json
import re
from dataclasses import fields
from pathlib import Path

from tnindex import cli
from tnindex.eta import SeriesSpec
from tnindex.geometry import BlendProfile
from tnindex.index import assemble
from tnindex.quadrature import QuadratureSpec

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _json_block(heading: str) -> dict:
    """The first ```json block after the README heading."""
    match = re.search(re.escape(heading) + r".*?```json\n(.*?)```", README,
                      re.DOTALL)
    assert match, f"no JSON block under {heading!r}"
    return json.loads(match.group(1))


def _key_tree(doc: dict) -> dict:
    return {key: _key_tree(value) if isinstance(value, dict) else None
            for key, value in doc.items()}


def test_readme_config_loads():
    raw = _json_block("### Configuration document")
    cfg = cli.load_config(raw, cli.build_parser().parse_args([]))
    assert cfg["mode"] == raw["mode"]
    assert cfg["quad"].n_r == raw["quad"]["n_r"]


def test_field_types_are_read_once_at_import(monkeypatch):
    """load_config casts each field by the types that cli read at import:
    with get_type_hints raising, the README config and an eta config load
    to the same values as before."""
    def unread(*args, **kwargs):
        raise AssertionError("field types read per load")

    overrides = cli.build_parser().parse_args([])
    raws = [_json_block("### Configuration document"),
            {"mode": "eta", "lambdas": [0.3, 2], "series": {"tol": 1e-9},
             "metric": {"variant": "TN", "blend": {"kind": "septic"}}}]
    loaded = [cli.load_config(raw, overrides) for raw in raws]
    monkeypatch.setattr(cli, "get_type_hints", unread)
    assert [cli.load_config(raw, overrides) for raw in raws] == loaded


def test_readme_config_lists_every_spec_field():
    """The config's quad, series and metric.blend objects name exactly the
    fields of their dataclasses, in order: a field cannot be added or
    removed without the docs."""
    raw = _json_block("### Configuration document")
    for section, cls in ((raw["quad"], QuadratureSpec),
                         (raw["series"], SeriesSpec),
                         (raw["metric"]["blend"], BlendProfile)):
        assert list(section) == [field.name for field in fields(cls)]


def test_readme_report_schema_has_the_report_keys():
    """Every key of IndexReport.to_dict(), including those nested under
    errors, quadrature and series, and no other."""
    cfg = cli.load_config(_json_block("### Configuration document"),
                          cli.build_parser().parse_args([]))
    report = assemble(cfg["instanton"], cfg["quad"], route=cfg["route"],
                      grav_mode=cfg["grav"], series=cfg["series"],
                      metric=cfg["metric"]).to_dict()
    schema = _json_block("### Report schema")
    assert _key_tree(schema) == _key_tree(report)
    assert schema["schema"] == report["schema"]


def test_readme_index_report_is_one_json_write(tmp_path, monkeypatch):
    """The README configuration's index report holds exactly
    json.dumps(report, indent=2, sort_keys=True) plus a newline, written
    in one call."""
    raw = _json_block("### Configuration document")
    (tmp_path / "config.json").write_text(json.dumps(raw))
    writes = []

    def counted_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write
        fh.write = lambda text: writes.append(text) or write(text)
        return fh

    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    out = tmp_path / "out"
    assert cli.main(["--config", str(tmp_path / "config.json"), "--mode",
                     "index", "--out", str(out)]) == cli.EXIT_OK
    cfg = cli.load_config(raw, cli.build_parser().parse_args(
        ["--mode", "index"]))
    report = assemble(cfg["instanton"], cfg["quad"], route=cfg["route"],
                      grav_mode=cfg["grav"], series=cfg["series"],
                      metric=cfg["metric"]).to_dict()
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert (out / "index_report.json").read_bytes() == text.encode()
    assert writes == [text]


CODE_MODULES = ("cli", "eta", "gauge", "geometry", "quadrature",
                "charclasses", "index", "jets")


def test_readme_code_references_resolve():
    """Every inline code span of the README that starts with module.name,
    for a module of the package, names an attribute of that module: a
    renamed or deleted function cannot stay in the docs."""
    prose = re.sub(r"```.*?```", "", README, flags=re.DOTALL)
    refs = [match.groups() for span in re.findall(r"`([^`]+)`", prose)
            if (match := re.match(rf"({'|'.join(CODE_MODULES)})\.(\w+)",
                                  span))]
    assert refs
    missing = [f"{mod}.{name}" for mod, name in refs if not hasattr(
        importlib.import_module(f"tnindex.{mod}"), name)]
    assert not missing
