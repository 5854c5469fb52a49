import json
import math
import subprocess
import sys

import numpy as np
import pytest

from czdomain import config, czop, geometry
from czdomain.cli import main


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "czdomain.cli", *argv], capture_output=True, text=True
    )


def test_config_parse_and_errors():
    cfg = config.parse_config("kind = disk\nradius = 2.0\n# comment\n")
    assert cfg == {"kind": "disk", "radius": "2.0"}
    with pytest.raises(config.ConfigError, match="line 1"):
        config.parse_config("kind disk\n")
    with pytest.raises(config.ConfigError, match="duplicate"):
        config.parse_config("a = 1\na = 2\n")
    with pytest.raises(config.ConfigError, match="kind"):
        config.domain_from_config({"radius": "1"})
    with pytest.raises(config.ConfigError):
        config.domain_from_config({"kind": "blob"})


def test_domain_from_config_kinds():
    d = config.domain_from_config({"kind": "disk", "radius": "2.0"})
    assert isinstance(d, geometry.Disk) and d.radius == 2.0
    s = config.domain_from_config({"kind": "polygon", "vertices": "0 0, 1 0, 1 1, 0 1"})
    assert isinstance(s, geometry.Polygon)
    g = config.domain_from_config({"kind": "graph", "delta": "0.4", "seed": "3"})
    assert isinstance(g, geometry.GraphDomain)
    h = config.domain_from_config({"kind": "halfspace"})
    assert isinstance(h, geometry.GraphDomain)


def test_parse_side():
    assert config.parse_side("2^-8") == 2.0**-8
    assert config.parse_side("0.125") == 0.125
    assert config.parse_side("2**-4") == 2.0**-4


def test_whitney_command(tmp_path):
    rep = tmp_path / "cubes.csv"
    out = tmp_path / "summary.json"
    code = main(["whitney", "--domain", "disk", "--min-side", "2^-5",
                 "--report", str(rep), "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["axioms"]["W2"] and summary["axioms"]["W4"] and summary["axioms"]["W5"]
    lines = rep.read_text().strip().splitlines()
    assert lines[0].startswith("pos,level,index")
    assert len(lines) == summary["cubes"] + 1
    head = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(head, line.split(",")))
        assert float(row["side"]) > 0 and float(row["dist"]) > 0


def test_transform_command(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0.25,0.1\n-0.3,0.4\n")
    out = tmp_path / "vals.csv"
    code = main(["transform", "--domain", "disk", "--poly", "z",
                 "--points", str(pts), "--out", str(out)])
    assert code == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "x,y,value_re,value_im,error_estimate"
    x, y, re, im, est = (float(v) for v in rows[1].split(","))
    # B_D(z) = zbar inside the disk
    assert (re, im) == pytest.approx((0.25, -0.1), abs=1e-9)
    assert est < 1e-6


def test_malformed_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind disk\n")
    r = run_cli("whitney", "--domain", str(bad), "--min-side", "2^-4")
    assert r.returncode == 2
    assert "config error" in r.stderr


def test_acute_corner_is_an_unsupported_domain(tmp_path):
    tri = tmp_path / "triangle.cfg"
    tri.write_text("kind = polygon\nvertices = 0 0, 1 0, 0 1\n")
    r = run_cli("carleson", "--domain", str(tri), "--p", "1.5", "--depths", "6")
    assert r.returncode == 2
    assert "unsupported domain" in r.stderr and "45.0 degrees" in r.stderr


@pytest.mark.parametrize("angle", [88.0, 92.0])
def test_kites_near_right_corners_orient(tmp_path, angle):
    """A kite with corners `angle` (left and right, on the x axis) and
    180 - angle (top and bottom) still has windows on every bisector."""
    half = math.radians(angle) / 2
    p = 1.0 / math.tan(half)
    kite = tmp_path / "kite.cfg"
    kite.write_text(f"kind = polygon\nvertices = {-p!r} 0, 0 -1, {p!r} 0, 0 1\n")
    dom = config.domain_from_config(config.parse_config(kite.read_text()))
    assert np.degrees(dom.corner_angles()) == pytest.approx([angle, 180 - angle] * 2)
    out = tmp_path / "kite.json"
    assert main(["whitney", "--domain", str(kite), "--min-side", "2^-5", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["windows"] > 4


def test_carleson_command_and_expectation(tmp_path):
    out = tmp_path / "carleson.json"
    code = main(["carleson", "--domain", "square", "--p", "2.5",
                 "--depths", "7,8", "--out", str(out), "--expect", "inconclusive"])
    rep = json.loads(out.read_text())
    assert rep["p"] == 2.5
    assert len(rep["per_depth"]) == 2
    assert rep["verdict"] in ("holds", "fails", "inconclusive")
    assert code == (0 if rep["verdict"] == "inconclusive" else 1)


def test_keylemma_command(tmp_path):
    out = tmp_path / "probe.json"
    code = main(["keylemma", "--domain", "disk", "--n", "1", "--p", "2.0",
                 "--depths", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["sup_ratios"][0] < 1e-10


def test_verify_all_passes_and_is_deterministic():
    r1 = run_cli("verify", "--all")
    assert r1.returncode == 0, r1.stdout + r1.stderr
    rep = json.loads(r1.stdout)
    assert rep["all_passed"]
    r2 = run_cli("verify", "--all")
    assert r1.stdout == r2.stdout


def test_reports_carry_config_hash(tmp_path):
    out = tmp_path / "s.json"
    main(["whitney", "--domain", "disk", "--min-side", "2^-4", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert "config_hash" in rep and len(rep["config_hash"]) == 16
    assert rep["schema_version"] == 1
