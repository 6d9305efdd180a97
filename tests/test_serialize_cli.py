import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import trifree
from trifree import serialize
from trifree.encoding import encode, expand_tree
from trifree.game import first_fit, run_game
from trifree.independent import augment, build
from trifree.render import render_family
from trifree.shapes import catalog
from trifree.uniform import augment_uniform, build_uniform
from trifree.verify import verify_family


# The CLI child imports trifree from wherever this process found it, so the
# suite also runs from a checkout where pytest's pythonpath setting is all
# that puts src/ on the path.
_SRC = str(Path(trifree.__file__).resolve().parents[1])


def _run_cli(*args, stdin=None, timeout=None):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "trifree.cli", *args],
                          capture_output=True, text=True, input=stdin, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def family_file(tmp_path_factory, frame):
    level = build(2, frame)
    doc = serialize.independent_to_doc(level, frame, augment(level, frame))
    path = tmp_path_factory.mktemp("fam") / "fam2.json"
    path.write_text(serialize.dumps(doc))
    return path


def test_independent_round_trip_bit_exact(frame):
    level = build(2, frame)
    aug = augment(level, frame)
    doc = serialize.independent_to_doc(level, frame, aug)
    text = serialize.dumps(doc)
    loaded = serialize.doc_to_family(serialize.loads(text))
    assert loaded.copies == aug
    assert loaded.probes == level.probes
    assert serialize.dumps(serialize.independent_to_doc(level, frame, aug)) == text


def test_uniform_round_trip_bit_exact(frame):
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = serialize.uniform_to_doc(level, frame, augment_uniform(level, frame))
    text = serialize.dumps(doc)
    loaded = serialize.doc_to_family(serialize.loads(text))
    assert loaded.epsilon == Fraction(1, 2)
    assert [p.rect for p in loaded.probes] == [p.rect for p in level.probes]
    assert loaded.probes == level.probes
    assert verify_family(loaded) == []


def test_encoded_round_trip_and_verify(frame):
    tree = expand_tree(2)
    fam = encode(tree)
    doc = serialize.encoded_to_doc(tree, fam, frame)
    loaded = serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))
    assert loaded.mode == "encoded-frames"
    assert loaded.copies == fam.copies
    assert verify_family(loaded) == []


def test_verify_catches_each_kind_of_tamper(frame):
    level = build(2, frame)
    doc = serialize.independent_to_doc(level, frame, augment(level, frame))
    # shift one copy
    bad = json.loads(serialize.dumps(doc))
    bad["copies"][1]["tx"] = "9/7"
    assert verify_family(serialize.doc_to_family(bad)) != []
    # lie about the pierced set
    bad = json.loads(serialize.dumps(doc))
    bad["probes"][0]["pierced"] = [0]
    assert verify_family(serialize.doc_to_family(bad)) != []
    # claim the wrong k
    bad = json.loads(serialize.dumps(doc))
    bad["k"] = 3
    assert verify_family(serialize.doc_to_family(bad)) != []


def test_verify_reports_tampered_uniform_root_cut(frame):
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = json.loads(serialize.dumps(serialize.uniform_to_doc(level, frame)))
    assert verify_family(serialize.doc_to_family(doc)) == []
    probe = doc["probes"][0]
    probe["root_cut_x"] = str((Fraction(probe["root"]["x_lo"])
                               + Fraction(probe["root"]["x_hi"])) / 2)
    violations = verify_family(serialize.doc_to_family(doc))
    assert any(v.startswith("probe 0: root is not the left part") for v in violations)


def test_verify_reports_shifted_encoded_frame(frame):
    tree = expand_tree(2)
    doc = json.loads(serialize.dumps(serialize.encoded_to_doc(tree, encode(tree), frame)))
    # frame 1 crosses its child, frame 2; moved far right, it meets nothing
    doc["copies"][1]["tx"] = "5"
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: frame 1 does not match its tree node" in violations
    assert "encoded: intersection law fails at nodes 1, 2: expected meet" in violations


def test_verify_reports_bad_encoded_slots(frame):
    tree = expand_tree(2)
    text = serialize.dumps(serialize.encoded_to_doc(tree, encode(tree), frame))
    doc = json.loads(text)
    node = doc["tree"]["root"]["children"][0]
    node["children"].reverse()
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: child slots of node 1 fail to interleave" in violations
    doc = json.loads(text)
    doc["tree"]["root"]["children"][0]["children"][1]["slot_hi"] = "7/10"
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: slot of node 4 leaves its parent's slot" in violations


def test_loader_rejects_unknown_or_mismatched_shape(frame):
    level = build(1, frame)
    doc = serialize.independent_to_doc(level, frame)
    bad = json.loads(serialize.dumps(doc))
    bad["shape"]["name"] = "blob"
    with pytest.raises(ValueError):
        serialize.doc_to_family(bad)
    bad = json.loads(serialize.dumps(doc))
    bad["shape"]["segments"][0]["hi"] = "2"
    with pytest.raises(ValueError):
        serialize.doc_to_family(bad)


def test_transcript_doc_shape():
    res = run_game(2, first_fit)
    doc = serialize.transcript_to_doc(res, "firstfit")
    assert doc["k"] == 2 and doc["painter"] == "firstfit"
    assert len(doc["moves"]) == res.intervals
    assert doc["colors_used"] == 3
    assert all(set(m) == {"lo", "hi", "color"} for m in doc["moves"])


def test_render_is_deterministic_and_scales(frame):
    level = build(2, frame)
    loaded = serialize.doc_to_family(
        serialize.loads(serialize.dumps(serialize.independent_to_doc(level, frame))))
    a = render_family(loaded)
    b = render_family(loaded)
    assert a == b
    assert a.startswith("<?xml") and a.rstrip().endswith("</svg>")
    assert 'viewBox="0 0 1024 1024"' in a


def test_cli_build_verify_chi(tmp_path):
    fam = tmp_path / "f.json"
    r = _run_cli("build", "--mode", "independent", "--shape", "frame",
                 "--k", "3", "--out", str(fam))
    assert r.returncode == 0
    doc = json.loads(fam.read_text())
    assert len(doc["copies"]) == 21  # augmented by default
    r = _run_cli("verify", "--family", str(fam))
    assert r.returncode == 0 and "ok" in r.stdout
    witness = tmp_path / "coloring.json"
    r = _run_cli("chi", "--family", str(fam), "--coloring-out", str(witness))
    assert r.returncode == 0 and "chi = 4" in r.stdout
    coloring = json.loads(witness.read_text())
    assert len(coloring) == 21
    assert sorted({c for c in coloring.values()}) == [1, 2, 3, 4]


def test_cli_build_no_augment_gives_bare_level(tmp_path):
    fam = tmp_path / "bare.json"
    r = _run_cli("build", "--k", "2", "--no-augment", "--out", str(fam))
    assert r.returncode == 0
    assert len(json.loads(fam.read_text())["copies"]) == 3


def test_cli_uniform_build_requires_epsilon(tmp_path):
    r = _run_cli("build", "--mode", "uniform", "--k", "1")
    assert r.returncode == 2
    r = _run_cli("build", "--mode", "independent", "--k", "1", "--epsilon", "1/2")
    assert r.returncode == 2
    fam = tmp_path / "u.json"
    r = _run_cli("build", "--mode", "uniform", "--k", "2", "--epsilon", "1/2",
                 "--out", str(fam))
    assert r.returncode == 0
    assert json.loads(fam.read_text())["epsilon"] == "1/2"


def test_cli_verify_flags_mutation(tmp_path, family_file):
    doc = json.loads(family_file.read_text())
    doc["copies"][2]["tx"] = "1/7"
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(mutated))
    assert r.returncode == 3
    assert "VIOLATION" in r.stderr


def test_cli_invalid_flags_exit_two():
    assert _run_cli("build").returncode == 2
    assert _run_cli("frobnicate").returncode == 2
    assert _run_cli("game", "--k", "2", "--seed", "7").returncode == 2
    assert _run_cli("build", "--k", "0").returncode == 2
    assert _run_cli("verify", "--family", "/no/such/file").returncode == 2


def test_cli_malformed_family_exits_three(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text('{"mode": "independent"}')
    r = _run_cli("verify", "--family", str(broken))
    assert r.returncode == 3
    assert "missing field" in r.stderr


def _set(*path_and_value):
    *path, key, value = path_and_value

    def tamper(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return tamper


def _encoded_doc():
    tree = expand_tree(2)
    return json.loads(serialize.dumps(
        serialize.encoded_to_doc(tree, encode(tree), catalog()["frame"])))


@pytest.mark.parametrize("tamper, marker", [
    (_set("copies", 0, "sx", 0.5), "error:"),
    (_set("k", "2"), "error:"),
    (_set("k", 40), "VIOLATION: size: k=40"),
    (lambda doc: [doc], "error:"),
    (_set("k", True), "error:"),
    (_set("k", 0), "error:"),
    (_set("probes", 0, "pierced", ["0"]), "error:"),
    (_set("base_size", "5"), "error:"),
    (_set("augmented", "yes"), "error:"),
    (_set("copies", 0, "lineage", 7), "error:"),
    (_set("copies", []), "error:"),
    (_set("base_size", -3), "error:"),
    (_set("probes", 0, "pierced", [999]), "error:"),
    (lambda doc: {**_encoded_doc(), "k": 1000000}, "VIOLATION: encoded: k=1000000"),
], ids=["float-coordinate", "string-k", "k40", "list-document", "bool-k", "zero-k",
        "string-pierced", "string-base-size", "string-augmented", "int-lineage",
        "empty-copies", "negative-base-size", "pierced-out-of-range", "encoded-huge-k"])
def test_cli_malformed_family_fails_fast(tmp_path, family_file, tamper, marker):
    doc = json.loads(family_file.read_text())
    doc = tamper(doc) or doc
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    # a document the loader rejects fails every command that reads it
    for command in ("verify", "chi") if marker == "error:" else ("verify",):
        r = _run_cli(command, "--family", str(path), timeout=10)
        assert r.returncode == 3
        assert marker in r.stderr
        assert "Traceback" not in r.stderr


def test_cli_game_firstfit_and_minimax(tmp_path):
    out = tmp_path / "t.json"
    r = _run_cli("game", "--k", "2", "--painter", "firstfit", "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["colors_used"] == 3 and len(doc["moves"]) == 4
    r = _run_cli("game", "--k", "2", "--painter", "minimax", "--out", str(out))
    assert r.returncode == 0
    assert json.loads(out.read_text())["colors_used"] == 3


def test_cli_game_repl_plays_and_rejects_bad_stream(tmp_path):
    out = tmp_path / "r.json"
    r = _run_cli("game", "--k", "1", "--painter", "repl", "--out", str(out),
                 stdin="1\n2\n")
    assert r.returncode == 0
    assert json.loads(out.read_text())["colors_used"] == 2
    # stream ends mid-game: distinct exit code
    r = _run_cli("game", "--k", "1", "--painter", "repl", "--out", str(out),
                 stdin="1\n")
    assert r.returncode == 5


def test_cli_chi_timeout_exits_four(tmp_path):
    fam = tmp_path / "f4.json"
    r = _run_cli("build", "--k", "4", "--out", str(fam))
    assert r.returncode == 0
    # the 309-vertex family cannot be closed in a tenth of a second
    r = _run_cli("chi", "--family", str(fam), "--timeout", "0.1")
    assert r.returncode == 4
    assert "chi in [" in r.stdout and "timed out" in r.stdout


def test_cli_encode_render_export(tmp_path):
    enc = tmp_path / "enc.json"
    r = _run_cli("encode", "--k", "2", "--out", str(enc))
    assert r.returncode == 0
    r = _run_cli("verify", "--family", str(enc))
    assert r.returncode == 0
    svg = tmp_path / "enc.svg"
    r = _run_cli("render", "--family", str(enc), "--out", str(svg))
    assert r.returncode == 0
    first = svg.read_bytes()
    _run_cli("render", "--family", str(enc), "--out", str(svg))
    assert svg.read_bytes() == first
    col = tmp_path / "g.col"
    r = _run_cli("export-dimacs", "--family", str(enc), "--out", str(col))
    assert r.returncode == 0
    lines = col.read_text().splitlines()
    assert any(line.startswith("p edge 5 ") for line in lines)
    assert sum(1 for line in lines if line.startswith("e ")) == int(
        next(line for line in lines if line.startswith("p ")).split()[3])
