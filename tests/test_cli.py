"""Exit codes, file outputs, config precedence, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spherefield
from spherefield import (
    build_model,
    empty_space,
    random_extension,
    sample,
    save_space,
    space_from_sq,
)
from spherefield.cli import build_parser, main, make_config


@pytest.fixture
def tri_file(tmp_path, equilateral):
    path = tmp_path / "tri.json"
    save_space(equilateral, path)
    return str(path)


@pytest.fixture
def iso_file(tmp_path, isoceles):
    path = tmp_path / "iso.json"
    save_space(isoceles, path)
    return str(path)


@pytest.fixture
def anti_file(tmp_path):
    path = tmp_path / "anti.json"
    save_space(space_from_sq([[0, 4], [4, 0]]), path)
    return str(path)


@pytest.fixture
def one_file(tmp_path):
    path = tmp_path / "one.json"
    save_space(space_from_sq([[0]]), path)
    return str(path)


def _outputs(outdir):
    files = {}
    for root, _, names in os.walk(outdir):
        for name in names:
            p = os.path.join(root, name)
            files[os.path.relpath(p, outdir)] = hashlib.sha256(Path(p).read_bytes()).hexdigest()
    return files


def _read_single_json(outdir, prefix):
    names = [n for n in os.listdir(outdir) if n.startswith(prefix) and n.endswith(".json")]
    assert len(names) >= 1
    with open(os.path.join(outdir, names[0])) as fh:
        return json.load(fh)


# --- certify --------------------------------------------------------------------

def test_certify_member_exits_zero(tri_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["certify", "--space", tri_file, "--out", out]) == 0
    payload = _read_single_json(out, "certify")
    assert payload["member"] is True
    assert payload["pivots"] == [[1, 1], [3, 4], [2, 3]]
    assert "config_hash" in payload and "seed" in payload


def test_certify_non_member_exits_two(anti_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["certify", "--space", anti_file, "--out", out]) == 2
    payload = _read_single_json(out, "certify")
    assert payload["member"] is False
    assert payload["pivot_index"] == 1
    assert payload["leading_minor"] == [0, 1]


def test_certify_malformed_file_exits_one(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"labels": ["a", "b"],
                               "sq_dist": [[[0, 1], [1, 1]], [[2, 1], [0, 1]]]}))
    assert main(["certify", "--space", str(bad), "--out", str(tmp_path / "o")]) == 1


def test_certify_missing_file_exits_one(tmp_path):
    assert main(["certify", "--space", str(tmp_path / "nope.json")]) == 1


# --- embed ----------------------------------------------------------------------

def test_embed_writes_coords(tri_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["embed", "--space", tri_file, "--out", out]) == 0
    payload = _read_single_json(out, "embed")
    assert len(payload["coords"]) == 3


def test_embed_non_member_exits_two(anti_file, tmp_path):
    assert main(["embed", "--space", anti_file, "--out", str(tmp_path / "o")]) == 2


# --- amalgamate -----------------------------------------------------------------

def test_amalgamate_writes_loadable_space(tri_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(
        ["amalgamate", "--left", tri_file, "--right", tri_file,
         "--common-left", "0,1", "--common-right", "0,1", "--out", out]
    )
    assert rc == 0
    payload = _read_single_json(out, "amalgamate")
    assert len(payload["labels"]) == 4
    from spherefield.metric import space_from_json
    from spherefield import is_member
    assert is_member(space_from_json(payload))


def test_amalgamate_bad_identification_exits_one(tri_file, iso_file, tmp_path):
    rc = main(
        ["amalgamate", "--left", tri_file, "--right", iso_file,
         "--common-left", "0,1", "--common-right", "0,1",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 1


# --- grow -----------------------------------------------------------------------

def test_grow_writes_manifest_and_stages(tmp_path):
    out = str(tmp_path / "out")
    assert main(["grow", "--stages", "3", "--seed", "5", "--out", out]) == 0
    subdir = next(p for p in os.listdir(out) if p.startswith("grow_"))
    names = os.listdir(os.path.join(out, subdir))
    assert "manifest.json" in names
    # three stages grown after the empty start: only the last, stage 3, is written
    assert [n for n in names if n.startswith("stage_")] == ["stage_003.json"]
    from spherefield import load_chain
    chain = load_chain(os.path.join(out, subdir))
    assert chain.seed == 5


# --- witness --------------------------------------------------------------------

def test_witness_rotation(tmp_path):
    out = str(tmp_path / "out")
    assert main(["witness", "--kind", "rotation", "--seed", "2", "--out", out]) == 0
    payload = _read_single_json(out, "witness")
    assert "config_hash" in payload


def test_witness_connect(tmp_path):
    out = str(tmp_path / "out")
    rc = main(["witness", "--kind", "connect", "--phi", "2.0", "--seed", "3", "--out", out])
    assert rc == 0


def test_witness_chain(one_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(
        ["witness", "--kind", "chain", "--space", one_file, "--dists", "1",
         "--step-sq", "1/4", "--seed", "4", "--out", out]
    )
    assert rc == 0
    subdir = next(p for p in os.listdir(out) if p.startswith("witness_"))
    names = os.listdir(os.path.join(out, subdir))
    assert "coords.json" in names
    assert any(n.startswith("link_") for n in names)


# --- sample ---------------------------------------------------------------------

def test_sample_csv_header_names_points(tri_file, tmp_path):
    out = str(tmp_path / "out")
    assert main(["sample", "--space", tri_file, "--samples", "20", "--out", out]) == 0
    csv = next(n for n in os.listdir(out) if n.endswith(".csv"))
    lines = Path(out, csv).read_text().splitlines()
    assert lines[1] == "p0,p1,p2"
    assert len(lines) == 22  # hash comment + header + 20 rows


def sample_csv_reference(cfg, labels, draws) -> bytes:
    """The CSV export as one `repr` per value, row by row."""
    lines = ["# config_hash=%s seed=%d\n" % (cfg.hash(), cfg.seed), ",".join(labels) + "\n"]
    for row in draws:
        lines.append(",".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines).encode()


CSV_SPACES = {
    0: empty_space(),
    1: space_from_sq([[0]]),
    3: space_from_sq([[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    8: random_extension(empty_space(), 8, np.random.default_rng(41)),
}


@pytest.mark.parametrize("samples", [0, 1, 4095, 4096, 4097])
@pytest.mark.parametrize("n_points", sorted(CSV_SPACES))
def test_sample_csv_matches_repr_reference(n_points, samples, tmp_path):
    # the block writer formats 4096 rows per call; these sizes cross its edges
    space = CSV_SPACES[n_points]
    path = tmp_path / "space.json"
    save_space(space, path)
    argv = ["sample", "--space", str(path), "--samples", str(samples),
            "--seed", "6", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    cfg = make_config(build_parser().parse_args(argv))
    (csv,) = (tmp_path / "out").glob("*.csv")
    draws = sample(build_model(space, seed=6), samples)
    assert csv.read_bytes() == sample_csv_reference(cfg, space.labels, draws)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    src = os.path.dirname(os.path.dirname(spherefield.__file__))
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    code = ("import sys, spherefield.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_sample_npy(tri_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["sample", "--space", tri_file, "--samples", "10",
               "--format", "npy", "--out", out])
    assert rc == 0
    npy = next(n for n in os.listdir(out) if n.endswith(".npy"))
    assert np.load(os.path.join(out, npy)).shape == (10, 3)


# --- mixing ---------------------------------------------------------------------

def test_mixing_csv_rows(one_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["mixing", "--space", one_file, "--event", "0>0", "--k", "2,4",
               "--samples", "20000", "--out", out])
    assert rc == 0
    csv = next(n for n in os.listdir(out) if n.endswith(".csv"))
    lines = Path(out, csv).read_text().splitlines()
    assert lines[0] == "k,joint,product,kl,tv_bound"
    assert len(lines) == 3


def test_mixing_empty_k_header_only(one_file, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["mixing", "--space", one_file, "--k", "", "--samples", "100", "--out", out])
    assert rc == 0
    csv = next(n for n in os.listdir(out) if n.endswith(".csv"))
    assert Path(out, csv).read_text() == "k,joint,product,kl,tv_bound\n"


def test_mixing_invalid_event_index_exits_one(one_file, tmp_path):
    rc = main(["mixing", "--space", one_file, "--event", "5>0",
               "--samples", "100", "--out", str(tmp_path / "o")])
    assert rc == 1


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["witness", "--dists", "1/0"], "--dists"),
        (["witness", "--kind", "chain", "--step-sq", "1/0"], "--step-sq"),
        (["witness", "--target-sq", "1/0"], "--target-sq"),
        (["mixing", "--space", "ONE", "--event", "0>1/0"], "--event"),
    ],
    ids=["dists", "step-sq", "target-sq", "event"],
)
def test_zero_denominator_exits_one(argv, flag, one_file, tmp_path, capsys):
    argv = [one_file if a == "ONE" else a for a in argv]
    assert main(argv + ["--samples", "100", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err and "1/0" in err


@pytest.mark.parametrize(
    "argv, flag, bad",
    [
        (["orders", "--space", "ONE", "--indices", "0,x"], "--indices", "x"),
        (["mixing", "--space", "ONE", "--k", "2,y"], "--k", "y"),
        (["amalgamate", "--left", "ONE", "--right", "ONE", "--common-left", "0,z"],
         "--common-left", "z"),
        (["amalgamate", "--left", "ONE", "--right", "ONE", "--common-right", "w"],
         "--common-right", "w"),
        (["mixing", "--space", "ONE", "--event", "q>0"], "--event", "q"),
    ],
    ids=["indices", "k", "common-left", "common-right", "event-index"],
)
def test_bad_integer_names_flag_and_value(argv, flag, bad, one_file, tmp_path, capsys):
    argv = [one_file if a == "ONE" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert flag in err and repr(bad) in err


# --- orders ---------------------------------------------------------------------

def test_orders_rejects_uniform_for_isoceles(iso_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["orders", "--space", iso_file, "--indices", "0,1,2",
               "--samples", "200000", "--out", out])
    assert rc == 2
    assert "REJECT uniform" in capsys.readouterr().out
    payload = _read_single_json(out, "orders")
    assert payload["verdict"] == "reject-uniform"
    assert payload["uniformity"]["p_value"] < 1e-3
    assert payload["all_observed"] is True


def test_orders_no_evidence_for_equilateral(tri_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["orders", "--space", tri_file, "--indices", "0,1,2",
               "--samples", "200000", "--out", out])
    assert rc == 0
    assert "no evidence" in capsys.readouterr().out


def test_orders_single_index_degenerate(tri_file, tmp_path, capsys):
    rc = main(["orders", "--space", tri_file, "--indices", "0",
               "--samples", "1000", "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "degenerate" in capsys.readouterr().out


# --- config file and precedence -------------------------------------------------

def test_config_file_supplies_defaults_and_flags_win(tri_file, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 50, "seed": 9}))
    out1 = str(tmp_path / "o1")
    assert main(["--config", str(cfg), "sample", "--space", tri_file, "--out", out1]) == 0
    csv1 = next(n for n in os.listdir(out1) if n.endswith(".csv"))
    assert len(Path(out1, csv1).read_text().splitlines()) == 52  # 50 rows

    out2 = str(tmp_path / "o2")
    assert main(["--config", str(cfg), "sample", "--space", tri_file,
                 "--samples", "10", "--out", out2]) == 0
    csv2 = next(n for n in os.listdir(out2) if n.endswith(".csv"))
    assert len(Path(out2, csv2).read_text().splitlines()) == 12  # flag wins


# --- reproducibility ------------------------------------------------------------

COMMANDS = [
    lambda f: ["certify", "--space", f["tri"]],
    lambda f: ["embed", "--space", f["tri"]],
    lambda f: ["amalgamate", "--left", f["tri"], "--right", f["tri"],
               "--common-left", "0", "--common-right", "0"],
    lambda f: ["grow", "--stages", "2", "--seed", "3"],
    lambda f: ["witness", "--kind", "rotation", "--seed", "2"],
    lambda f: ["sample", "--space", f["tri"], "--samples", "25", "--seed", "8"],
    lambda f: ["mixing", "--space", f["one"], "--k", "2,4", "--samples", "4000"],
    lambda f: ["orders", "--space", f["iso"], "--indices", "0,1,2",
               "--samples", "30000"],
]


@pytest.mark.parametrize("make_args", COMMANDS, ids=lambda c: c({"tri": "t", "iso": "i", "one": "o"})[0])
def test_byte_identical_reruns(make_args, tri_file, iso_file, one_file, tmp_path):
    files = {"tri": tri_file, "iso": iso_file, "one": one_file}
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    args = make_args(files)
    assert main(args + ["--out", out_a]) == main(args + ["--out", out_b])
    ha, hb = _outputs(out_a), _outputs(out_b)
    assert ha and ha == hb
