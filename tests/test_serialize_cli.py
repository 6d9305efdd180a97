import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import trifree
from trifree import serialize
from trifree.cli import EXIT_VIOLATION
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
    doc = serialize.level_to_doc(level, frame, augment(level, frame))
    path = tmp_path_factory.mktemp("fam") / "fam2.json"
    path.write_text(serialize.dumps(doc))
    return path


def test_independent_round_trip_bit_exact(frame):
    level = build(2, frame)
    aug = augment(level, frame)
    doc = serialize.level_to_doc(level, frame, aug)
    text = serialize.dumps(doc)
    loaded = serialize.doc_to_family(serialize.loads(text))
    assert loaded.copies == aug
    assert loaded.probes == level.probes
    assert serialize.dumps(serialize.level_to_doc(level, frame, aug)) == text


def test_uniform_round_trip_bit_exact(frame):
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = serialize.level_to_doc(level, frame, augment_uniform(level, frame))
    text = serialize.dumps(doc)
    loaded = serialize.doc_to_family(serialize.loads(text))
    assert loaded.epsilon == Fraction(1, 2)
    assert [p.rect for p in loaded.probes] == [p.rect for p in level.probes]
    assert loaded.probes == level.probes
    assert verify_family(loaded) == []


def test_uniform_params_block_is_neither_read_nor_written(frame):
    level = build_uniform(2, Fraction(1, 2), frame)
    doc = serialize.level_to_doc(level, frame, augment_uniform(level, frame))
    # an old file's "params" block, here with nonsense values, is ignored
    old = json.loads(serialize.dumps(doc))
    old["params"] = {"s_min": "1", "s_max": "1", "m": "999", "eps1": "5",
                     "s": "0", "t": "-1"}
    assert verify_family(serialize.doc_to_family(old)) == []
    assert "params" not in doc


# SHA-256 of the ``build`` output of each family; any change to the
# construction, its order or its JSON shows up here.
_GOLDEN = [
    ("independent", "frame", 1, None, True,
     "f4140301ab07c7041693ec7a8a9c7fda7f7526777b7416537b6af3667e291aff"),
    ("independent", "frame", 1, None, False,
     "fa1257981ac19ef0839b59bf64e2a464532ada35908587a663086db7b67895cc"),
    ("independent", "frame", 2, None, True,
     "f749c8897045e9232ea181b3aa402ed7051b6033bf855de52c7dcea7198c7318"),
    ("independent", "frame", 2, None, False,
     "e4b3511747ab1c719a5297b6bce4b34caf2cbed7f1d74f878a3e3524ff82c7a8"),
    ("independent", "frame", 3, None, True,
     "1e34b02b84ab074703e340e5c72c216b4992b5fccf68f042d80d90742fae91a2"),
    ("independent", "frame", 3, None, False,
     "617003459f3452ee914a33190bcc2fc8ce91f18c6afcaa17b31783c05abfa127"),
    ("independent", "lshape", 1, None, True,
     "6fe8767613dc593595aeef9b1d66b98c5e090283b77d4acf1b6fc17a07979dd6"),
    ("independent", "lshape", 1, None, False,
     "65ac5bafe830e25fd3395f18f9a14394ae21207d0dc6f85f0c075789ad76fd08"),
    ("independent", "lshape", 2, None, True,
     "79e2fe6c7666767eace4fe1c6acebd8f27126190b7aa9441430ac5465a32cc27"),
    ("independent", "lshape", 2, None, False,
     "819d39d9ae29be62dc20286d6ce3ff1ab8f9f95ce8922b81bfaaea9e61b4ac01"),
    ("independent", "lshape", 3, None, True,
     "e1c07e90be66008be52e9c3406710f5819184cb7da55751ae7cb18b17f0629a4"),
    ("independent", "lshape", 3, None, False,
     "f5c1329c4379a8038902d3c12ba8b49e67aa5a95586a41b96b1a5a647e439ecd"),
    ("independent", "cross", 1, None, True,
     "524b8d15499ba7bec35e075919a4bfc2ccb52148df081d0f57de58fd05ffda84"),
    ("independent", "cross", 1, None, False,
     "1dfad6d390fc1747b6018435a292ede80dc46668be557910e57aa42a06e521c0"),
    ("independent", "cross", 2, None, True,
     "ba9022ad1302d995c7e198ee3a866d8b2af6a70d6044942f61834c2d1982cd7e"),
    ("independent", "cross", 2, None, False,
     "2353911e0acd9fbe783d8208cdc2d93ababa1e327788374b94e540226421c08b"),
    ("independent", "cross", 3, None, True,
     "7edc9d31020ffac2da1b553f00a8e7bbdbd2141a686ebab6e73ab656c71fd30f"),
    ("independent", "cross", 3, None, False,
     "f98412b62744d0d467e0392e2cf033a8d3bd13dca6401c431f8d2a1d30cfe59b"),
    ("independent", "frame", 4, None, True,
     "4307d6b07121cbd014fd03617df8b3c386f4b4a6ee01e5d47bf6340fa150696f"),
    ("independent", "frame", 4, None, False,
     "1f6dfd6704ed4017ce0349119aa33c0fa345300c716f805327cf01279ce99086"),
    ("uniform", "frame", 1, "1/2", True,
     "cb663308948fa42b2acf92feae689aab518cd21c72046a03aea393dd23941596"),
    ("uniform", "frame", 1, "1/2", False,
     "d3085c74cf6e332a4c2c7bed63fda17f6f625c5b9f9545e450b7e6da3a4d7344"),
    ("uniform", "frame", 2, "1/2", True,
     "f10f3857155a071ab62cee62998b67f02b88959ed39b0e48c14a0bfbdf2d146b"),
    ("uniform", "frame", 2, "1/2", False,
     "4d5f99112272d701db868069bb05c3638b64bf204854133df6e221c59844439c"),
    ("uniform", "frame", 3, "1/2", True,
     "d7268f624575de97ef1e6b24b43ec5724f373d85055f3c8a73b8858f69fc9b84"),
    ("uniform", "frame", 3, "1/2", False,
     "60fcd2033e5c968a195973286e4a70e5a8c6cf4cad1d48c6e24aadde97f8070b"),
    ("uniform", "frame", 1, "5/8", True,
     "a08296e6bb3b48143405bc2381acab1faae28abe39484f99608609e0391e2809"),
    ("uniform", "frame", 1, "5/8", False,
     "510faeb39484fcb54f8a5860b48e58b697eceff505c614f8f8a1437789cada6b"),
    ("uniform", "frame", 2, "5/8", True,
     "84f3b8e8da7a2bf906cda41919ddee792b8a524182a8c563a929bb891c66af0a"),
    ("uniform", "frame", 2, "5/8", False,
     "f895bdd5fc289e28ecdedd0d221912718db1a237641ab37189ae98a43ceeb65c"),
    ("uniform", "frame", 3, "5/8", True,
     "162433e815107be34e726e31fd115cf474f23dda3529b2776043ad148d1ec628"),
    ("uniform", "frame", 3, "5/8", False,
     "099d4ccb342728fcc464d87c141ff685337f222142ac7ea0907914328e9a37b2"),
]


@pytest.mark.parametrize("mode, shape_name, k, epsilon, augmented, digest", _GOLDEN)
def test_build_output_is_byte_identical(mode, shape_name, k, epsilon, augmented, digest):
    shape = catalog()[shape_name]
    if mode == "independent":
        level = build(k, shape)
        extra = augment(level, shape) if augmented else None
    else:
        level = build_uniform(k, Fraction(epsilon), shape)
        extra = augment_uniform(level, shape) if augmented else None
    doc = serialize.level_to_doc(level, shape, extra)
    assert hashlib.sha256(serialize.dumps(doc).encode()).hexdigest() == digest


def test_encoded_round_trip_and_verify(frame):
    for k, budget in ((1, None), (2, None), (3, None), (2, 2)):
        tree = expand_tree(k, budget)
        fam = encode(tree)
        doc = serialize.encoded_to_doc(tree, fam, frame)
        loaded = serialize.doc_to_family(serialize.loads(serialize.dumps(doc)))
        assert loaded.mode == "encoded-frames"
        assert loaded.copies == fam.copies
        assert loaded.tree_nodes == tree.nodes()
        assert verify_family(loaded) == []


def test_verify_catches_each_kind_of_tamper(frame):
    level = build(2, frame)
    doc = serialize.level_to_doc(level, frame, augment(level, frame))
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
    doc = json.loads(serialize.dumps(serialize.level_to_doc(level, frame)))
    assert verify_family(serialize.doc_to_family(doc)) == []
    probe = doc["probes"][0]
    probe["root_cut_x"] = str((Fraction(probe["root"]["x_lo"])
                               + Fraction(probe["root"]["x_hi"])) / 2)
    violations = verify_family(serialize.doc_to_family(doc))
    assert any(v.startswith("probe 0: root is not the left part") for v in violations)


def test_verify_reports_root_moved_off_its_probe(frame):
    level = build(2, frame)
    doc = json.loads(serialize.dumps(serialize.level_to_doc(level, frame)))
    rect = level.probes[0].rect
    # a copy far from probe 0's rectangle: only a check that also scans
    # around the root can see the root meet it
    i, far = next((i, c) for i, c in enumerate(level.family) if not c.bbox.intersects(rect))
    doc["probes"][0]["root"] = serialize.rect_to_json(far.bbox)
    violations = verify_family(serialize.doc_to_family(doc))
    assert "probe 0: root is not the left part of the probe at the cut line" in violations
    assert f"probe 0: root meets copy {i}" in violations


def test_verify_reports_shifted_encoded_frame(frame):
    tree = expand_tree(2)
    doc = json.loads(serialize.dumps(serialize.encoded_to_doc(tree, encode(tree), frame)))
    # frame 1 crosses its child, frame 2; moved far right, it meets nothing
    doc["copies"][1]["tx"] = "5"
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: frame 1 does not match its tree node" in violations
    assert "encoded: intersection law fails at nodes 1, 2: expected meet" in violations


def test_verify_reports_encoded_frames_meeting_off_branch(frame):
    tree = expand_tree(2)
    doc = json.loads(serialize.dumps(serialize.encoded_to_doc(tree, encode(tree), frame)))
    # frames 2 and 4 are siblings; laid on frame 2, frame 4 meets it and its
    # child, frame 3, and no longer crosses the root, frame 0
    doc["copies"][4].update({key: doc["copies"][2][key] for key in ("sx", "sy", "tx", "ty")})
    violations = verify_family(serialize.doc_to_family(doc))
    assert "encoded: frame 4 does not match its tree node" in violations
    assert [v for v in violations if "intersection law" in v] == [
        "encoded: intersection law fails at nodes 0, 4: expected meet",
        "encoded: intersection law fails at nodes 2, 4: expected disjoint",
        "encoded: intersection law fails at nodes 3, 4: expected disjoint"]


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
    doc = serialize.level_to_doc(level, frame)
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
        serialize.loads(serialize.dumps(serialize.level_to_doc(level, frame))))
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
    r = _run_cli("build", "--mode", "uniform", "--k", "1", "--epsilon", "1/0")
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr
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


def test_cli_verify_reports_a_triangle(tmp_path, family_file):
    doc = json.loads(family_file.read_text())
    # three copies on one spot pairwise meet
    for i in (1, 2):
        doc["copies"][i].update({key: doc["copies"][0][key] for key in ("sx", "sy", "tx", "ty")})
    tampered = tmp_path / "triangle.json"
    tampered.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(tampered))
    assert r.returncode == EXIT_VIOLATION
    assert "VIOLATION: family is not triangle-free" in r.stderr.splitlines()


def test_cli_invalid_flags_exit_two():
    assert _run_cli("build").returncode == 2
    assert _run_cli("frobnicate").returncode == 2
    assert _run_cli("game", "--k", "2", "--seed", "7").returncode == 2
    assert _run_cli("build", "--k", "0").returncode == 2
    assert _run_cli("verify", "--family", "/no/such/file").returncode == 2
    assert _run_cli("build", "--mode", "uniform", "--k", "1", "--epsilon", "2").returncode == 2
    assert _run_cli("build", "--mode", "uniform", "--k", "1", "--epsilon", "abc").returncode == 2
    assert _run_cli("encode", "--k", "2", "--budget", "0").returncode == 2


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


def _unrelated_grids(doc):
    # each copy on a grid of its own, about 133 bits, that no other shares
    for i, c in enumerate(doc["copies"]):
        c["tx"] = f"1/{10 ** 40 + 2 * i + 1}"


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
    (_set("copies", 0, "sx", "1/0"), "error:"),
    (_set("copies", 0, "ty", "1e10000000"), "error:"),
    (_set("copies", 0, "tx", "0.0"), "error:"),
    (_set("copies", 0, "tx", " 0 "), "error:"),
    (lambda doc: "[" * 200_000, "error:"),
    (_unrelated_grids, "error: copies and probes share no grid"),
], ids=["float-coordinate", "string-k", "k40", "list-document", "bool-k", "zero-k",
        "string-pierced", "string-base-size", "string-augmented", "int-lineage",
        "empty-copies", "negative-base-size", "pierced-out-of-range", "encoded-huge-k",
        "zero-denominator", "exponent", "decimal-point", "padded", "deep-nesting",
        "unrelated-grids"])
def test_cli_malformed_family_fails_fast(tmp_path, family_file, tamper, marker):
    doc = json.loads(family_file.read_text())
    doc = tamper(doc) or doc
    path = tmp_path / "malformed.json"
    # a tamper that returns a string gives the file's text itself
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    # a document the loader rejects fails every command that reads it
    for command in ("verify", "chi") if marker == "error:" else ("verify",):
        r = _run_cli(command, "--family", str(path), timeout=10)
        assert r.returncode == 3
        assert marker in r.stderr
        assert "Traceback" not in r.stderr


@pytest.fixture(scope="module")
def uniform_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fam") / "uniform2.json"
    r = _run_cli("build", "--mode", "uniform", "--k", "2", "--epsilon", "1/2",
                 "--out", str(path))
    assert r.returncode == 0
    return path


@pytest.mark.parametrize("mode, tamper", [
    ("independent", _set("shape", "features", "w1", "999")),
    ("independent", _set("shape", "features", "empty_rect", "x_lo", "-5")),
    ("independent", _set("shape", "features", "left_stabber", 0, "hi", "1/2")),
    ("independent", _set("shape", "features", "right_stabber", [])),
    ("independent", _set("shape", "anchor", {"name": "frame"})),
    ("independent", _set("shape", "segments", 0, "hi", "2")),
    ("independent", lambda doc: doc["shape"].pop("features")),
    ("uniform", _set("shape", "anchor", None)),
    ("uniform", _set("shape", "features", {})),
    ("uniform", _set("shape", "segments", 0, "fixed", "1/3")),
], ids=["w1", "empty-rect", "left-stabber", "no-right-stabber", "anchor-added",
        "segment", "features-dropped", "uniform-anchor-dropped", "uniform-features-added",
        "uniform-segment"])
def test_cli_refuses_a_shape_block_that_is_not_the_catalog_entry(
        tmp_path, family_file, uniform_file, mode, tamper):
    source = family_file if mode == "independent" else uniform_file
    # the untouched file, as ``build`` writes it, verifies
    r = _run_cli("verify", "--family", str(source), timeout=30)
    assert r.returncode == 0 and r.stdout.startswith("ok")
    doc = json.loads(source.read_text())
    tamper(doc)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc))
    r = _run_cli("verify", "--family", str(path), timeout=30)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.splitlines() == ["error: shape does not match catalog entry 'frame'"]


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


def test_cli_chi_timeout_exits_four(tmp_path, monkeypatch):
    fam = tmp_path / "f4.json"
    r = _run_cli("build", "--k", "4", "--out", str(fam))
    assert r.returncode == 0
    # the 309-vertex family cannot be closed in a tenth of a second
    r = _run_cli("chi", "--family", str(fam), "--timeout", "0.1")
    assert r.returncode == 4
    assert "chi in [" in r.stdout and "timed out" in r.stdout
    monkeypatch.setenv("TRIFREE_TIMEOUT", "0.1")
    r = _run_cli("chi", "--family", str(fam), timeout=60)
    assert r.returncode == 4
    assert "chi in [" in r.stdout and "timed out" in r.stdout


@pytest.mark.parametrize("value", ["abc", "nan", "-1", "inf", "1e400"])
def test_cli_rejects_a_bad_timeout(value, family_file, monkeypatch):
    # --timeout nan never fired, and a bad TRIFREE_TIMEOUT crashed every command
    r = _run_cli("chi", "--family", str(family_file), f"--timeout={value}", timeout=10)
    assert r.returncode == 2
    assert "usage:" in r.stderr and "--timeout" in r.stderr
    assert "Traceback" not in r.stderr
    monkeypatch.setenv("TRIFREE_TIMEOUT", value)
    r = _run_cli("chi", "--family", str(family_file), timeout=10)
    assert r.returncode == 2
    assert "usage:" in r.stderr and "TRIFREE_TIMEOUT" in r.stderr
    assert "Traceback" not in r.stderr
    # the flag overrides the variable, and no other command reads it
    assert _run_cli("chi", "--family", str(family_file), "--timeout", "10").returncode == 0
    assert _run_cli("verify", "--family", str(family_file)).returncode == 0


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
