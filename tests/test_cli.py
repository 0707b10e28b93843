"""Scene parsing and command-line behavior."""

import contextlib
from fractions import Fraction
import hashlib
import io

import pytest

from vskit import cli, cyclic_case
from vskit.cli import SceneError, construct, parse_scene, run, scene_text
from vskit.combination import CombinationError

RANK_T4 = """\
# single commuting-pair leaf with a cyclic quotient
leaf L
  type T4
  n 3
  lam 2

theta
  target 3
  image L.A 0
  image L.E 1
"""

CHAIN3 = """\
leaf R2
  type T1
  n 2

leaf R3
  type T1
  n 3

leaf S
  type T2
  lam 4

product P
  parts R2 R3 S

root P

theta
  target 6
  image R2.E 3
  image R3.E 2
  image S.L 0
"""

PAIR_OK = """\
pairing
  pair 0 0 1/4  0 0 4  4 0 0 1/4
  pair 17/15 0 8/15  -17/15 0 8/15  17/8 -15/8 -15/8 17/8
"""

PAIR_OVERLAP = """\
pairing
  pair 0 0 1/4  0 0 4  4 0 0 1/4
  pair 17/15 0 8/15  -17/15 0 6/5  17/8 -15/8 -15/8 17/8
"""

HNN_OK = """\
hnn H
  base none
  letter 4 0 0 1/4
  disc1 0 0 1/4 inside
  disc2 0 0 4 outside
"""

HNN_WRONG_IMAGE = """\
hnn H
  base none
  letter 2 0 0 1/2
  disc1 0 0 1 inside
  disc2 0 0 16 outside
"""

HNN_ELLIPTIC = """\
hnn H
  base none
  letter 0 -1 1 0
  disc1 0 0 1/4 inside
  disc2 0 0 4 outside
"""

WALL_PRODUCT = """\
leaf A
  type T2
  lam 16
  frame -1 -3 1 1

leaf B
  type T2
  lam 16
  frame 2.5 1.5 1 1

product P
  left A
  right B
  wall 2 0 1

root P
"""


# perfbench's slowest certify scene: two T4s and two T1s auto-placed; each
# left-factor junction is derived by ping-pong from the chain's recorded
# checks and one leaf listed to depth 6
CHAIN4 = """\
leaf h1
  type T4
  n 2
  lam 4

leaf h2
  type T4
  n 2
  lam 4

leaf e1
  type T1
  n 3

leaf e2
  type T1
  n 3

product P
  parts h1 h2 e1 e2

root P

theta
  target 12
  image h1.A 1
  image h1.E 6
  image h2.A 1
  image h2.E 6
  image e1.E 4
  image e2.E 4
"""

# every stanza kind and every field: leaf fields out of echo order, a
# rational, an 8-entry and a 4-entry frame, wall and parts products, an
# hnn with h1/h2/stable and a defaulted disc side, scene spacing, a
# pairing and theta
EVERY_FIELD = """\
scene
  spacing 5/2

leaf A
  lam 2 1/2
  frame 1 0 0 0 0 0 1 0
  n 3
  type T4

leaf B
  type T1
  n 2
  frame 2.5 1.5 1 1

leaf C
  lam3 1.5
  lam1 4
  lam2 -3
  type T7

leaf D
  type T6
  lam1 3
  lam2 5

product W
  wall 0 0 1
  right D
  left C

product P
  parts A B

hnn H
  stable t
  h2 B.E
  h1 B.E
  disc2 0 0 4 outside
  disc1 0 0 1/4
  letter 4 0 0 1/4
  base P

pairing
  pair 0 0 1/4  0 0 4  4 0 0 1/4
  pair 17/15 0 8/15  -17/15 0 8/15  17/8 -15/8 -15/8 17/8

theta
  target 6
  image A.A 0
  image A.E 2
  image B.E 3

root H
"""


@pytest.fixture
def scene_file(tmp_path):
    def write(text, name="scene.vsk"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


class TestParsing:
    def test_numbers_stay_exact(self):
        scene = parse_scene(PAIR_OK)
        first = scene.pairing[0]
        assert first[2] == Fraction(1, 4) and isinstance(first[0], int)
        assert scene.pairing[1][6] == Fraction(17, 8)

    def test_scene_structure(self):
        scene = parse_scene(CHAIN3)
        assert [name for name, _ in scene.leaves] == ["R2", "R3", "S"]
        assert scene.nodes == [("product", "P", {"parts": ("R2", "R3", "S")})]
        assert scene.root == "P"
        assert scene.theta["target"] == (6,)
        assert scene.theta["images"][0] == ("R2.E", (3,))

    def test_echo_roundtrip(self):
        for text in (RANK_T4, CHAIN3, PAIR_OK, HNN_OK, WALL_PRODUCT):
            scene = parse_scene(text)
            assert parse_scene(scene_text(scene)) == scene

    def test_every_field_echo_is_pinned(self):
        scene = parse_scene(EVERY_FIELD)
        text = scene_text(scene)
        assert parse_scene(text) == scene
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8cdd033456711b7015932cdbd7f7c44f6da40c82b901d069737f0f46d89f6ac5")

    def test_diagnostics_carry_line_numbers(self):
        cases = [
            ("leaf L\n  type T9\n", "line 2"),
            ("leaf L\n  type T2\n  lam nope\n", "bad number"),
            ("  type T2\n", "outside any stanza"),
            ("orbit X\n", "unknown stanza"),
            ("leaf L\n  type T1\n  n 2\n  color red\n", "unknown field"),
            ("leaf L\n  type T1\n  n 2\n\nleaf L\n  type T1\n  n 2\n",
             "duplicate name"),
            ("leaf L\n  n 2\n", "needs a type"),
            ("leaf L\n  type T1\n  n 2.5\n", "must be an integer"),
            ("product P\n  parts A B\n  left A\n", "mixes parts"),
            ("product P\n  left A\n", "missing"),
            ("hnn H\n  base none\n", "needs field"),
            ("theta\n  image X 1\n", "needs a target"),
            ("theta\n  target 3\n  image X 1 2\n", "1 exponents"),
            ("root A\n  depth 3\n", "no fields"),
            ("root A\n\nroot B\n", "duplicate root"),
            ("pairing\n  pair 0 0 1 0 0 2\n", "pair takes"),
        ]
        for text, fragment in cases:
            with pytest.raises(SceneError, match=fragment):
                parse_scene(text)

    def test_repeated_part_is_a_scene_error(self, scene_file, capsys):
        text = ("leaf Q0\n  type T1\n  n 2\n\nleaf Q1\n  type T1\n  n 3\n\n"
                "product P\n  parts Q0 Q0 Q1\n\nroot P\n")
        with pytest.raises(SceneError, match="part 'Q0' is listed twice"):
            parse_scene(text)
        assert run("build", [scene_file(text)]) == 2
        assert capsys.readouterr().out == (
            "scene error: line 10: part 'Q0' is listed twice\n")

    @pytest.mark.parametrize("text,message", [
        ("leaf A\n  type T1\n  n 2\n\nleaf B\n  type T2\n  lam 4\n\n"
         "product P\n  parts A B\n\nproduct Q\n  parts P A\n\nroot Q\n",
         "line 13: product part 'P' is not a leaf"),
        ("leaf A\n  type T2\n  lam 4\n\nproduct P\n  left Z\n  right A\n"
         "  wall 0 0 1\n\nroot P\n", "line 6: unknown node 'Z'"),
        ("leaf A\n  type T2\n  lam 4\n\nproduct P\n  left A\n  right Z\n"
         "  wall 0 0 1\n\nroot P\n", "line 7: unknown node 'Z'"),
        ("hnn H\n  base Z\n  letter 4 0 0 1/4\n  disc1 0 0 1/4 inside\n"
         "  disc2 0 0 4 outside\n", "line 2: unknown node 'Z'"),
        ("leaf A\n  type T1\n  n 2\n\nroot Z\n",
         "line 5: unknown node 'Z'"),
    ], ids=["part-is-product", "left", "right", "base", "root"])
    def test_reference_errors_carry_line_numbers(self, scene_file, capsys,
                                                 text, message):
        scene = parse_scene(text)
        assert parse_scene(scene_text(scene)) == scene
        assert run("build", [scene_file(text)]) == 2
        assert capsys.readouterr().out == f"scene error: {message}\n"

    @pytest.mark.parametrize("command", ["build", "rank"])
    def test_repeated_theta_image_is_a_scene_error(self, scene_file, capsys,
                                                   command):
        text = RANK_T4 + "  image L.E 2\n"
        with pytest.raises(SceneError, match="duplicate image for 'L.E'"):
            parse_scene(text)
        assert run(command, [scene_file(text)]) == 2
        assert capsys.readouterr().out == (
            "scene error: line 11: duplicate image for 'L.E'\n")

    @pytest.mark.parametrize("base,fields,message", [
        ("Z", "  h1 Z.E\n", "line 11: hnn 'H' needs h2 with h1"),
        ("Z", "  h2 Z.E\n", "line 11: hnn 'H' needs h1 with h2"),
        ("none", "  h1 Z.E\n  h2 Z.E\n",
         "line 16: edge groups need a nontrivial base"),
        ("Z", "  h1 Z.E\n  h2 Z.X\n", "line 17: unknown edge generator 'Z.X'"),
        ("Z", "  stable Z.E\n",
         "line 16: stable letter name 'Z.E' already used in the base"),
        ("G", "", "line 11: stable letter name 'stable' already used in "
         "the base"),
    ], ids=["h1-alone", "h2-alone", "base-none", "unknown-h2", "stable",
            "default-stable"])
    def test_malformed_hnn_stanzas_carry_line_numbers(self, scene_file,
                                                      capsys, base, fields,
                                                      message):
        text = ("leaf Z\n  type T1\n  n 2\n\n"
                + HNN_OK.replace("hnn H", "hnn G")
                + f"\nhnn H\n  base {base}\n  letter 4 0 0 1/4\n"
                "  disc1 0 0 1/4 inside\n  disc2 0 0 4 outside\n" + fields
                + "\nroot H\n")
        assert run("build", [scene_file(text)]) == 2
        assert capsys.readouterr().out == f"scene error: {message}\n"

    @pytest.mark.parametrize("fields,message", [
        ("type T1\n  n 3\n  lam 4",
         "line 6: leaf type T1 takes no field 'lam'"),
        ("type T2\n  lam 4\n  n 5",
         "line 6: leaf type T2 takes no field 'n'"),
        ("type T6\n  lam 4\n  lam2 3",
         "line 5: leaf type T6 takes no field 'lam'"),
        ("type T4\n  lam 4", "line 3: leaf 'L': n must be an integer >= 2"),
        ("type T7\n  lam1 4\n  lam2 3",
         "line 3: leaf 'L': lambda3 is required"),
        ("type T2\n  lam 1/2",
         "line 3: leaf 'L': lambda must satisfy |lambda| > 1"),
        ("type T1\n  n 1", "line 3: leaf 'L': n must be an integer >= 2"),
        ("type T2\n  lam 1.00001", "line 3: leaf 'L': "
         "L.L classifies as ambiguous-parabolic, not loxodromic"),
        ("type T4\n  n 3\n  lam 1.00001", "line 3: leaf 'L': "
         "L.A classifies as ambiguous-parabolic, not loxodromic"),
        ("type T6\n  lam1 30\n  lam2 1.00003", "line 3: leaf 'L': "
         "L.B classifies as ambiguous-parabolic, not loxodromic"),
        ("type T5\n  lam -1.00001", "line 3: leaf 'L': "
         "L.A classifies as elliptic, not loxodromic"),
    ], ids=["T1-lam", "T2-n", "T6-lam", "T4-no-n", "T7-no-lam3",
            "T2-small-lam", "T1-n-1", "T2-near-one", "T4-near-one",
            "T6-near-one", "T5-near-minus-one"])
    def test_bad_leaf_parameters_are_malformed_input(self, scene_file,
                                                     capsys, fields, message):
        text = f"scene\n  spacing 3\nleaf L\n  {fields}\n"
        assert run("build", [scene_file(text)]) == 2
        assert capsys.readouterr().out == f"scene error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        ("leaf L\n  type T1\n  n 3\n  frame 0 0 0 0\n",
         "line 4: frame: matrix is singular"),
        ("hnn H\n  base none\n  letter 1 2 2 4\n  disc1 0 0 1\n"
         "  disc2 5 0 1\n", "line 3: letter: matrix is singular"),
        ("pairing\n  pair 0 0 1/4  0 0 4  4 0 0 1/4\n"
         "  pair 2 0 1/4  -2 0 1/4  1 1 1 1\n",
         "line 3: pair: matrix is singular"),
    ], ids=["frame", "letter", "pair"])
    def test_singular_matrix_is_malformed_input(self, scene_file, capsys,
                                                text, message):
        scene = parse_scene(text)
        assert parse_scene(scene_text(scene)) == scene
        for command in ("build", "verify"):
            assert run(command, [scene_file(text)]) == 2
            assert capsys.readouterr().out == f"scene error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        (WALL_PRODUCT.replace("wall 2 0 1", "wall 2 0 0"),
         "line 14: wall: radius must be positive"),
        ("hnn H\n  base none\n  letter 4 0 0 1/4\n  disc1 0 0 -1 inside\n"
         "  disc2 0 0 4 outside\n", "line 4: disc1: radius must be positive"),
        ("hnn H\n  base none\n  letter 4 0 0 1/4\n  disc1 0 0 1/4 inside\n"
         "  disc2 0 0 0 outside\n", "line 5: disc2: radius must be positive"),
        ("pairing\n  pair 0 0 1/4  0 0 4  4 0 0 1/4\n"
         "  pair 17/15 0 8/15  -17/15 0 -8/15  17/8 -15/8 -15/8 17/8\n",
         "line 3: pair: radius must be positive"),
    ], ids=["wall", "disc1", "disc2", "pair"])
    def test_non_positive_radius_is_malformed_input(self, scene_file, capsys,
                                                    text, message):
        for command in ("build", "verify"):
            assert run(command, [scene_file(text)]) == 2
            assert capsys.readouterr().out == f"scene error: {message}\n"

    @pytest.mark.parametrize("text,message", [
        ("scene\n  spacing nan\n" + CHAIN3,
         "line 2: number 'nan' is not finite"),
        ("pairing\n  pair 0 0 1/4  0 0 4  4 0 0 1/4\n"
         "  pair 17/15 0 8/15  -17/15 0 8/15  17/8 -15/8 -15/8 nan\n",
         "line 3: number 'nan' is not finite"),
        ("pairing\n  pair 0 0 1/4  inf 0 4  4 0 0 1/4\n",
         "line 2: number 'inf' is not finite"),
        ("hnn H\n  base none\n  letter 4 0 0 1/4\n  disc1 0 0 1/4 inside\n"
         "  disc2 0 0 nan outside\n", "line 5: number 'nan' is not finite"),
        ("leaf L\n  type T4\n  n 3\n  lam nan\n",
         "line 4: number 'nan' is not finite"),
        ("leaf L\n  type T2\n  lam -1e400\n",
         "line 3: number '-1e400' is not finite"),
    ], ids=["spacing", "pair-map", "pair-circle", "disc2", "lam", "lam-huge"])
    def test_non_finite_number_is_malformed_input(self, scene_file, capsys,
                                                  text, message):
        for command in ("build", "verify"):
            assert run(command, [scene_file(text)]) == 2
            assert capsys.readouterr().out == f"scene error: {message}\n"

    def test_rotation_read_as_parabolic_is_malformed_input(self, scene_file,
                                                           capsys):
        path = scene_file("scene\n  spacing 3\nleaf L\n  type T4\n"
                          "  n 1000000000\n  lam 4\n")
        assert run("verify", [path]) == 2
        assert capsys.readouterr().out == (
            "scene error: line 3: leaf 'L': "
            "L.E classifies as parabolic, not elliptic\n")

    def test_rotation_order_past_the_elliptic_search_bound_builds(
            self, scene_file, capsys):
        path = scene_file("leaf L\n  type T4\n  n 121\n  lam 4\n")
        assert run("build", [path]) == 0
        assert "L.E^121 = 1" in capsys.readouterr().out

    @pytest.mark.parametrize("frame", ["1e300 0 0 1e300",
                                       "1e-150 0 0 1e-150"])
    def test_identity_frame_far_from_one_builds_like_no_frame(self, frame):
        # the float determinant of such a frame overflows or underflows
        plain = "leaf L\n  type T4\n  n 3\n  lam 2\n"
        groups = [construct(parse_scene(text)).groups["L"] for text in
                  (plain, plain + f"  frame {frame}\n")]
        assert [(name, m.entries) for name, m in groups[0].gens.items()] \
            == [(name, m.entries) for name, m in groups[1].gens.items()]

    def test_theta_arity_message(self):
        with pytest.raises(SceneError, match="image takes a name and 2"):
            parse_scene("theta\n  target 2 2\n  image X 1\n")


class TestCommands:
    def test_build_prints_relations_and_echo(self, scene_file, capsys):
        path = scene_file(RANK_T4)
        assert run("build", [path]) == 0
        out = capsys.readouterr().out
        assert "L.E^3 = 1" in out
        echo = out.split("# normalized scene\n", 1)[1]
        assert parse_scene(echo) == parse_scene(RANK_T4)

    def test_build_chain_certificates(self, scene_file, capsys):
        path = scene_file(CHAIN3)
        assert run("build", [path]) == 0
        out = capsys.readouterr().out
        assert "certificates: 6 checks" in out
        assert "[exact-pass] B1 precise invariance in left factor" in out

    def test_build_wall_product(self, scene_file, capsys):
        path = scene_file(WALL_PRODUCT)
        assert run("build", [path]) == 0
        out = capsys.readouterr().out
        assert "generators: A.L B.L" in out

    def test_rank_single_leaf(self, scene_file, capsys):
        path = scene_file(RANK_T4)
        assert run("rank", [path]) == 0
        out = capsys.readouterr().out
        assert "H = Z_3" in out
        assert "kernel rank = 1" in out
        assert "kernel torsion-free: yes" in out

    def test_rank_chain(self, scene_file, capsys):
        path = scene_file(CHAIN3)
        assert run("rank", [path]) == 0
        out = capsys.readouterr().out
        assert "kernel rank = 8" in out and "chi(K) = -7/6" in out

    def test_rank_ignores_stray_theta_images(self, scene_file, capsys):
        text = ("leaf A\n  type T1\n  n 2\n\nleaf B\n  type T2\n  lam 4\n\n"
                "product P\n  parts A B\n\ntheta\n  target 4\n"
                "  image A.E 2\n  image B.L 0\n  image X.E 1\n")
        assert run("rank", [scene_file(text)]) == 1
        assert capsys.readouterr().out == (
            "H = Z_4\n"
            "chi(K) = -1/2\n"
            "|H| = 2\n"
            "kernel rank = 2\n"
            "theta surjective: NO\n"
            "kernel torsion-free: yes\n"
            "problem: theta has an image for 'X.E', which is not a "
            "generator\n")

    def test_rank_requires_theta(self, scene_file, capsys):
        path = scene_file(HNN_OK)
        assert run("rank", [path]) == 2
        assert "theta stanza" in capsys.readouterr().out

    def test_signature_lines(self, scene_file, capsys):
        path = scene_file(CHAIN3)
        assert run("signature", [path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["R2: (0;2,2)", "R3: (0;3,3)", "S: (1;)",
                       "assembly: (1;2,2,3,3)"]

    def test_verify_good_pairing(self, scene_file, capsys):
        path = scene_file(PAIR_OK)
        assert run("verify", [path]) == 0
        out = capsys.readouterr().out
        assert "9 checks, 0 failures" in out

    def test_verify_overlap_fails_with_witness(self, scene_file, capsys):
        path = scene_file(PAIR_OVERLAP)
        assert run("verify", [path]) == 1
        out = capsys.readouterr().out
        assert "circles 0 and 3 are not disjoint" in out

    def test_wrong_image_hnn_fails(self, scene_file, capsys):
        path = scene_file(HNN_WRONG_IMAGE)
        assert run("build", [path]) == 1
        out = capsys.readouterr().out
        assert "A(Sigma1) = Sigma2" in out and "radius=16" in out

    def test_elliptic_letter_fails(self, scene_file, capsys):
        path = scene_file(HNN_ELLIPTIC)
        assert run("verify", [path]) == 1
        assert "classified elliptic" in capsys.readouterr().out

    def test_enumerate_cyclic_stream(self, capsys):
        assert run("enumerate-cyclic", ["3", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert ("g=2 a=0 b=0 c=0 d=2 m_orders=[] n_orders=[3,3] "
                "K = Z_3 * Z_3") in lines

    def test_enumerate_cyclic_writes_one_shell_per_call(self, monkeypatch):
        # a counter, not a clock: one stdout write per non-empty genus
        # shell, made before the next shell is built, so the first
        # write follows shell 0 alone
        sizes = []
        shells = cyclic_case._shell_fields

        def counted(n, g_max):
            for shell in shells(n, g_max):
                sizes.append(len(shell))
                yield shell

        class CountingStdout(io.StringIO):
            def write(self, text):
                writes.append((len(sizes), text))
                return super().write(text)

        writes = []
        monkeypatch.setattr(cyclic_case, "_shell_fields", counted)
        with contextlib.redirect_stdout(CountingStdout()):
            assert run("enumerate-cyclic", ["12", "30"]) == 0
        filled = [g + 1 for g, size in enumerate(sizes) if size]
        assert len(sizes) == 31 and 0 < len(filled) < len(sizes)
        assert [built for built, _ in writes] == filled
        assert writes[0][0] == 1
        for built, text in writes:
            assert text.count("\n") == sizes[built - 1]
            assert text.startswith(f"g={built - 1} ") and text.endswith("\n")

    def test_enumerate_cyclic_equals_the_described_records(self, capsys):
        # the CLI formats field tuples without building records; its
        # text must be the records' `describe` lines, in stream order
        for n in range(2, 14):
            for g_max in (0, 1, 30):
                assert run("enumerate-cyclic", [str(n), str(g_max)]) == 0
                assert capsys.readouterr().out == "".join(
                    cyclic_case.describe(sig) + "\n"
                    for sig in cyclic_case.stream_signatures(n, g_max))

    def test_enumerate_cyclic_rejects_bad_domain(self, capsys):
        assert run("enumerate-cyclic", ["1", "5"]) == 2
        out = capsys.readouterr().out
        assert "n >= 2" in out
        assert "g=" not in out

    @pytest.mark.parametrize("command,text,args", [
        ("build", CHAIN3, ["--depth", "0"]),
        ("build", RANK_T4, ["--depth", "0"]),
        ("verify", RANK_T4, ["--depth", "-3"]),
        ("limitset", PAIR_OK, ["--ls-depth", "0", "--out", "OUT"]),
        ("limitset", PAIR_OK, ["--ls-depth", "-2", "--out", "OUT"]),
    ], ids=["build-chain", "build-leaf", "verify-leaf", "limitset-0",
            "limitset-negative"])
    def test_depth_below_one_is_malformed_input(self, scene_file, tmp_path,
                                                capsys, command, text, args):
        out = tmp_path / "sample.svg"
        args = [str(out) if a == "OUT" else a for a in args]
        assert run(command, [scene_file(text), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer >= 1" in captured.err
        assert not out.exists()

    def test_limitset_writes_image(self, scene_file, tmp_path, capsys):
        path = scene_file(PAIR_OK)
        out_path = str(tmp_path / "out.svg")
        assert run("limitset", [path, "--ls-depth", "4",
                                "--out", out_path]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out and out_path in out
        with open(out_path, "r", encoding="utf-8") as handle:
            assert handle.read().startswith("<svg ")

    def test_limitset_rejects_broken_pairing(self, scene_file, tmp_path,
                                             capsys):
        path = scene_file(PAIR_OVERLAP)
        status = run("limitset", [path, "--ls-depth", "3",
                                  "--out", str(tmp_path / "x.svg")])
        assert status == 1
        assert "FAIL" in capsys.readouterr().out

    def test_limitset_tree_points(self, scene_file, tmp_path, capsys):
        path = scene_file(CHAIN3)
        assert run("limitset", [path, "--ls-depth", "4",
                                "--out", str(tmp_path / "t.svg")]) == 0
        assert "288 points" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert run("build", ["/nonexistent/scene.vsk"]) == 2
        assert "cannot read scene" in capsys.readouterr().out

    def test_malformed_scene(self, scene_file, capsys):
        path = scene_file("leaf L\n  type T9\n")
        assert run("build", [path]) == 2
        assert "line 2" in capsys.readouterr().out

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_resource_errors_exit_1_without_traceback(
            self, scene_file, capsys, monkeypatch, error):
        def exhausted(ns):
            raise error()
        monkeypatch.setitem(cli._COMMANDS, "build", exhausted)
        assert run("build", [scene_file(CHAIN3)]) == 1
        captured = capsys.readouterr()
        assert captured.out == (
            f"FAIL: input too large to process ({error.__name__})\n")
        assert captured.err == ""

    def test_deterministic_stdout(self, scene_file, capsys):
        path = scene_file(CHAIN3)
        run("build", [path])
        first = capsys.readouterr().out
        run("build", [path])
        assert capsys.readouterr().out == first


# Exact stdout of `vskit verify`: the pairing table form and the
# bracketed certificate form, byte for byte.
VERIFY_GOLDEN = [
    (PAIR_OK, 0, """\
PASS         generator 1 loxodromic
PASS         generator 2 loxodromic
PASS         circles pairwise disjoint
PASS         circles bound a common region
PASS         paired discs pairwise disjoint
PASS         A_1 maps C_1 onto C'_1
PASS         A_1 throws the common region into C'_1-disc
PASS         A_2 maps C_2 onto C'_2
PASS         A_2 throws the common region into C'_2-disc
9 checks, 0 failures
"""),
    (PAIR_OVERLAP, 1, """\
PASS         generator 1 loxodromic
PASS         generator 2 loxodromic
FAIL         circles pairwise disjoint -- circles 0 and 3 are not disjoint
PASS         A_1 maps C_1 onto C'_1
FAIL         A_2 maps C_2 onto C'_2 -- image is \
SphereCircle(center=-1.13333+0j, radius=0.533333)
5 checks, 2 failures
"""),
    (CHAIN3, 0, """\
[exact-pass] B1, B2 complementary discs with common boundary
[exact-pass] B1 precise invariance in left factor
[exact-pass] B2 precise invariance in right factor
[exact-pass] B1, B2 complementary discs with common boundary
[exact-pass] B1 precise invariance in left factor
[pass to depth 6] B2 precise invariance in right factor
6 checks, 0 failures
"""),
    (HNN_OK, 0, """\
[exact-pass] stable letter is loxodromic
[exact-pass] A(Sigma1) = Sigma2
[exact-pass] A(B1) disjoint from B2
[exact-pass] closed B1, B2 disjoint
4 checks, 0 failures
"""),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("text,status,expected", VERIFY_GOLDEN,
                             ids=["PAIR_OK", "PAIR_OVERLAP", "CHAIN3",
                                  "HNN_OK"])
    def test_verify_stdout(self, scene_file, capsys, text, status, expected):
        assert run("verify", [scene_file(text)]) == status
        assert capsys.readouterr().out == expected

    def test_build_pairing_table(self, scene_file, capsys):
        assert run("build", [scene_file(PAIR_OVERLAP)]) == 1
        assert capsys.readouterr().out == (
            "pairing system of genus 2\n"
            "  PASS         generator 1 loxodromic\n"
            "  PASS         generator 2 loxodromic\n"
            "  FAIL         circles pairwise disjoint -- circles 0 and 3 "
            "are not disjoint\n"
            "  PASS         A_1 maps C_1 onto C'_1\n"
            "  FAIL         A_2 maps C_2 onto C'_2 -- image is "
            "SphereCircle(center=-1.13333+0j, radius=0.533333)\n"
            "# normalized scene\n"
            "pairing\n"
            "  pair 0 0 1/4 0 0 4 4 0 0 1/4\n"
            "  pair 17/15 0 8/15 -17/15 0 6/5 17/8 -15/8 -15/8 17/8\n")

    def test_build_chain4_stdout(self, scene_file, capsys):
        assert run("build", [scene_file(CHAIN4)]) == 0
        assert capsys.readouterr().out == (
            "assembled group\n"
            "  generators: h1.A h1.E h2.A h2.E e1.E e2.E\n"
            "  relations: 6\n"
            "    h1.E^2 = 1\n"
            "    h1.E * h1.A * h1.E^-1 * h1.A^-1 = 1\n"
            "    h2.E^2 = 1\n"
            "    h2.E * h2.A * h2.E^-1 * h2.A^-1 = 1\n"
            "    e1.E^3 = 1\n"
            "    e2.E^3 = 1\n"
            "  certificates: 9 checks\n"
            "    [exact-pass] B1, B2 complementary discs with common "
            "boundary\n"
            "    [pass to depth 6] B1 precise invariance in left factor\n"
            "    [pass to depth 6] B2 precise invariance in right factor\n"
            "    [exact-pass] B1, B2 complementary discs with common "
            "boundary\n"
            "    [pass to depth 6] B1 precise invariance in left factor\n"
            "    [exact-pass] B2 precise invariance in right factor\n"
            "    [exact-pass] B1, B2 complementary discs with common "
            "boundary\n"
            "    [pass to depth 6] B1 precise invariance in left factor\n"
            "    [exact-pass] B2 precise invariance in right factor\n"
            "# normalized scene\n"
            "leaf h1\n"
            "  type T4\n"
            "  n 2\n"
            "  lam 4\n"
            "\n"
            "leaf h2\n"
            "  type T4\n"
            "  n 2\n"
            "  lam 4\n"
            "\n"
            "leaf e1\n"
            "  type T1\n"
            "  n 3\n"
            "\n"
            "leaf e2\n"
            "  type T1\n"
            "  n 3\n"
            "\n"
            "product P\n"
            "  parts h1 h2 e1 e2\n"
            "\n"
            "theta\n"
            "  target 12\n"
            "  image h1.A 1\n"
            "  image h1.E 6\n"
            "  image h2.A 1\n"
            "  image h2.E 6\n"
            "  image e1.E 4\n"
            "  image e2.E 4\n"
            "\n"
            "root P\n")

    @pytest.mark.parametrize("text,expected,svg_sha256", [
        (PAIR_OK, "sampled depth 4: 160 discs, 132 points\n"
                  "depth 4: 156 nested discs checked, 0 violations\n"
                  "max terminal spherical diameter 2.792390e-03\n"
                  "diameters non-increasing: yes\n"
                  "wrote OUT\n",
         "b7b537673e60b856cedb018b078e4eaa3b438cfa93f94cc3c93025af7933335d"),
        (CHAIN3, "sampled depth 4: 0 discs, 288 points\n"
                 "wrote OUT\n",
         "0e79b3b48be86a997635456ea8a24b1309503b7d55cc3191b70ae03031037794"),
    ], ids=["PAIR_OK", "CHAIN3"])
    def test_limitset_stdout_and_image(self, scene_file, tmp_path, capsys,
                                       text, expected, svg_sha256):
        out = tmp_path / "sample.svg"
        assert run("limitset", [scene_file(text), "--ls-depth", "4",
                                "--out", str(out)]) == 0
        assert capsys.readouterr().out.replace(str(out), "OUT") == expected
        assert hashlib.sha256(out.read_bytes()).hexdigest() == svg_sha256

    @pytest.mark.parametrize("n,g_max,records,sha256", [
        (2, 70, 16871,
         "cec3c84ac113a66aae02305810735716320aef1eb69ea7d7e1e3df2b75795d04"),
        (9, 120, 17188,
         "9eb9c7f8011695e6767d2b9f9084b8d2a67feda97e9d5bf491c6abab5ce8325d"),
        (12, 60, 20623,
         "479ece1ce74ec006c1df46d759fbb67baf5fa1408063bc54918b35177bf8047a"),
        (2, 0, 1,
         "9b4417d9b9e9b754945323f2bbb3670833bbeb58fb68f3a14a34825c586c8d42"),
        (3, 0, 1,
         "db7357e63e52d5ab0204911055bda54045ec9790019e9fb0310707018defe946"),
        (4, 1, 4,
         "b46b7944f1a09ab5a474fd53a5adb0dddf81563d0fb06fc3555d9c2fb6767676"),
        (13, 30, 19,
         "5378ee1c285ba8338db2056dc465df5ffd26f00befa3416ceb72540368c4ea55"),
        (4, 50, 19511,
         "fd9cfc9708326715e2d2557b9dea95d22e1709f1d78748f5588d85d5f563414a"),
        (6, 46, 18603,
         "c37e6de2078613e3512221e0cbabfc9ddf06e8c0f251ba53448afd4ba576f1e1"),
        (8, 62, 17133,
         "420d812db7ac4663c832b19ad2f1d3b9f966c11ec5e98d99893acc05820a9e6b"),
        (10, 78, 16659,
         "02f15a71abe1a680e9ca741e1247774e6ce60b28bd61b93f2528f782651b2420"),
    ])
    def test_enumerate_cyclic_bytes(self, capsys, n, g_max, records, sha256):
        assert run("enumerate-cyclic", [str(n), str(g_max)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == records
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_combination_error_message_is_the_failing_line(self):
        with pytest.raises(CombinationError) as info:
            construct(parse_scene(HNN_WRONG_IMAGE))
        err = info.value
        assert str(err) == err.report.line()
        assert str(err) == (
            "[FAIL] A(Sigma1) = Sigma2: witness A(Sigma1) = "
            "SphereCircle(center=-0+0j, radius=4), "
            "Sigma2 = SphereCircle(center=0-0j, radius=16)")
