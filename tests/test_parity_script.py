"""Tests for the comparison of parity probe outputs (``benchmarks/parity.py --compare``)."""

import json

from benchmarks.parity import compare

PROBE = {
    "nodes": 3,
    "edges": 2,
    "rankings": [["q", [["c", "0.5"]]]],
    "vocab_sha256": "a",
    "input_sha256": "b",
    "output_sha256": None,
}


def write(tmp_path, name, probes):
    path = tmp_path / name
    path.write_text(json.dumps({"src": name, "probes": probes}))
    return str(path)


def test_identical_probes(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"default": PROBE})
    b = write(tmp_path, "b.json", {"default": dict(PROBE)})
    assert compare(a, b) == 0
    assert capsys.readouterr().out == "default: identical\n"


def test_a_single_differing_field_is_named(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"default": PROBE})
    b = write(tmp_path, "b.json", {"default": dict(PROBE, edges=3)})
    assert compare(a, b) == 1
    assert capsys.readouterr().out == "default: different (edges)\n"


def test_every_differing_field_is_named(tmp_path, capsys):
    # A field on one side only (index_sha256) differs too.
    other = dict(PROBE, edges=3, rankings=[["q", [["c", "0.25"]]]], output_sha256="c")
    a = write(tmp_path, "a.json", {"default": PROBE})
    b = write(tmp_path, "b.json", {"default": dict(other, index_sha256="x")})
    assert compare(a, b) == 1
    assert capsys.readouterr().out == (
        "default: different (edges, index_sha256, output_sha256, rankings)\n"
    )


def test_a_probe_missing_on_one_side_differs(tmp_path, capsys):
    a = write(tmp_path, "a.json", {"default": PROBE, "save": PROBE})
    b = write(tmp_path, "b.json", {"default": PROBE})
    assert compare(a, b) == 1
    assert capsys.readouterr().out.splitlines() == ["default: identical", f"save: only in {a}"]
