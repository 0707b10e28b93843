"""Scene-driven command line: build, verify, and report on group scenes.

A scene file is plain text organized into stanzas.  A stanza starts with
an unindented header line and owns every following indented ``key
value...`` line; blank lines and ``#`` comments are ignored.  Numbers
are exact: ``p/q`` parses as a rational, a bare integer stays an
integer, anything else becomes a float, which must be finite.  A
Moebius matrix is written as 4 real entries ``a b c d`` or 8 entries
``a_re a_im b_re b_im ...``.

Stanzas:

    scene                     optional settings
      spacing 3.0             station gap for auto placement

    leaf NAME                 one basic group, generators prefixed NAME.
      type T4                 T1 .. T7
      n 3                     integer parameters
      lam 2                   multipliers, 1 or 2 numbers (re [im])
      frame 1 0 0 1           optional conjugating matrix

    Each type takes exactly its own parameters: T1 n; T2 lam; T3 none;
    T4 n and lam; T5 lam; T6 lam1 and lam2; T7 lam1, lam2 and lam3.  Any
    other parameter, and any value make_basic rejects, is malformed input.

    product NAME              free product node; either
      parts L1 L2 L3          auto-placed chain of leaves, or
      left L1                 explicit factors with a separating wall:
      right L2                left acts outside the wall circle,
      wall 0 0 1              right inside (center_x center_y radius)

    hnn NAME                  stable letter over a base (or none)
      base L1
      letter 2 0 0 1/2
      disc1 0 0 1 inside      paired discs (side defaults to inside)
      disc2 0 0 16 inside
      h1 L1.E                 optional conjugated cyclic subgroups,
      h2 L1.E                 both or neither, named by base generators
      stable t                optional letter name, not a base generator

    pairing                   explicit Schottky pairing system
      pair 0 0 1/4  0 0 4  4 0 0 1/4      C, C', and the map

    theta                     quotient map to a finite abelian group
      target 3                cyclic orders of the target
      image L1.E 1            exponent vector, one line per generator

    root NAME                 which node is the whole group

Commands: ``build`` assembles and prints the certificate summary plus a
normalized scene echo; ``verify`` re-runs every hypothesis check;
``signature`` prints the quotient orbifold signature per leaf and for
the assembly; ``rank`` prints the kernel rank report for theta;
``limitset`` samples the limit set and writes a vector image;
``enumerate-cyclic n g_max`` streams admissible signature records.
Exit status 0 means all checks passed, 1 a hypothesis failure (with a
printed witness), 2 malformed input.
"""

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

from . import cyclic_case
from .basic_groups import (BASIC_PARAMETERS, BASIC_TYPES, BasicGroupError,
                           OrbifoldSignature, make_basic, orbifold_signature)
from .combination import (CombinationError, Leaf, assemble, chain_leaves,
                          collect_matrices, free_product, hnn_extension)
from .group_algebra import (FiniteAbelianGroup, QuotientMap, kernel_rank,
                            walk_tree)
from .limitset import disconnectedness_report, render, sample
from .moebius import MoebiusMap
from .schottky import (DegeneratePairingError, PairingSystem, pairing_lines,
                       verify_pairing)
from .sphere_geometry import SphereCircle, SphereDisc

__all__ = ["SceneError", "Scene", "parse_scene", "scene_text", "run", "main"]


class SceneError(ValueError):
    """Malformed scene input; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# scene parsing


@dataclass
class Scene:
    settings: dict = field(default_factory=dict)
    leaves: list = field(default_factory=list)      # (name, fields dict)
    nodes: list = field(default_factory=list)       # (kind, name, fields)
    root: str = None
    pairing: list = field(default_factory=list)     # raw number tuples
    theta: dict = None                              # {"target":…, "images":…}
    # (leaf or node name, field) -> line of that field, (leaf or node
    # name, None) -> line of its stanza, (None, "root") -> line of the root
    # stanza, (None, k) -> line of the k-th pair; left out of equality,
    # since an echo moves lines
    lines: dict = field(default_factory=dict, compare=False, repr=False)


# each stanza kind's fields, in echo order; root takes none.  A leaf
# takes every basic parameter: n, lam, lam1, lam2, lam3
_FIELDS = {
    "scene": ("spacing",),
    "leaf": ("type", *dict.fromkeys(
        key for keys in BASIC_PARAMETERS.values() for key in keys), "frame"),
    "product": ("parts", "left", "right", "wall"),
    "hnn": ("base", "letter", "disc1", "disc2", "h1", "h2", "stable"),
    "pairing": ("pair",),
    "theta": ("target", "image"),
    "root": (),
}


def _number(token, line):
    if "/" in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            raise SceneError(f"bad rational {token!r}", line) from None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        raise SceneError(f"bad number {token!r}", line) from None
    if not math.isfinite(value):
        raise SceneError(f"number {token!r} is not finite", line)
    return value


def _numbers(tokens, line, allowed, what):
    values = tuple(_number(t, line) for t in tokens)
    if len(values) not in allowed:
        raise SceneError(
            f"{what} takes {' or '.join(map(str, allowed))} numbers, "
            f"got {len(values)}", line)
    return values


def _int_field(tokens, line, what):
    values = _numbers(tokens, line, (1,), what)
    if not isinstance(values[0], int):
        raise SceneError(f"{what} must be an integer", line)
    return values[0]


def _disc_field(tokens, line, what):
    side = "inside"
    if tokens and tokens[-1] in ("inside", "outside"):
        side = tokens[-1]
        tokens = tokens[:-1]
    values = _numbers(tokens, line, (3,), what)
    return values + (side,)


def _split_stanzas(text):
    stanzas = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0] not in " \t":
            tokens = line.split()
            current = (tuple(tokens), [], lineno)
            stanzas.append(current)
        else:
            if current is None:
                raise SceneError("indented line outside any stanza", lineno)
            tokens = line.split()
            current[1].append((lineno, tokens[0], tokens[1:]))
    return stanzas


def _fields_to_dict(fields, allowed, repeats=()):
    out = {}
    for lineno, key, tokens in fields:
        if key not in allowed:
            raise SceneError(f"unknown field {key!r}", lineno)
        if key in repeats:
            out.setdefault(key, []).append((lineno, tokens))
        elif key in out:
            raise SceneError(f"duplicate field {key!r}", lineno)
        else:
            out[key] = (lineno, tokens)
    return out


def _parse_leaf(name, fields, line):
    got = _fields_to_dict(fields, _FIELDS["leaf"])
    if "type" not in got:
        raise SceneError(f"leaf {name!r} needs a type", line)
    tno, tokens = got.pop("type")
    if len(tokens) != 1 or tokens[0] not in BASIC_TYPES:
        raise SceneError(
            f"leaf type must be one of {', '.join(BASIC_TYPES)}", tno)
    spec = {"type": tokens[0]}
    for key, (lineno, tokens) in got.items():
        if key != "frame" and key not in BASIC_PARAMETERS[spec["type"]]:
            raise SceneError(
                f"leaf type {spec['type']} takes no field {key!r}", lineno)
        if key == "n":
            spec["n"] = _int_field(tokens, lineno, "n")
        elif key == "frame":
            spec["frame"] = _numbers(tokens, lineno, (4, 8), "frame")
        else:
            spec[key] = _numbers(tokens, lineno, (1, 2), key)
    return spec


def _parse_product(name, fields, line):
    got = _fields_to_dict(fields, _FIELDS["product"])
    if "parts" in got:
        extra = sorted(set(got) - {"parts"})
        if extra:
            raise SceneError(
                f"product {name!r} mixes parts with {extra[0]!r}", line)
        lineno, tokens = got["parts"]
        if len(tokens) < 2:
            raise SceneError("parts needs at least two names", lineno)
        for i, token in enumerate(tokens):
            if token in tokens[:i]:
                raise SceneError(f"part {token!r} is listed twice", lineno)
        return {"parts": tuple(tokens)}
    missing = [k for k in ("left", "right", "wall") if k not in got]
    if missing:
        raise SceneError(
            f"product {name!r} needs parts, or left/right/wall "
            f"(missing {missing[0]!r})", line)
    lineno, tokens = got["left"]
    if len(tokens) != 1:
        raise SceneError("left takes one name", lineno)
    spec = {"left": tokens[0]}
    lineno, tokens = got["right"]
    if len(tokens) != 1:
        raise SceneError("right takes one name", lineno)
    spec["right"] = tokens[0]
    lineno, tokens = got["wall"]
    spec["wall"] = _numbers(tokens, lineno, (3,), "wall")
    return spec


def _parse_hnn(name, fields, line):
    got = _fields_to_dict(fields, _FIELDS["hnn"])
    for key in ("base", "letter", "disc1", "disc2"):
        if key not in got:
            raise SceneError(f"hnn {name!r} needs field {key!r}", line)
    spec = {}
    lineno, tokens = got["base"]
    if len(tokens) != 1:
        raise SceneError("base takes one name (or none)", lineno)
    spec["base"] = tokens[0]
    lineno, tokens = got["letter"]
    spec["letter"] = _numbers(tokens, lineno, (4, 8), "letter")
    for key in ("disc1", "disc2"):
        lineno, tokens = got[key]
        spec[key] = _disc_field(tokens, lineno, key)
    for key in ("h1", "h2", "stable"):
        if key in got:
            lineno, tokens = got[key]
            if len(tokens) != 1:
                raise SceneError(f"{key} takes one name", lineno)
            spec[key] = tokens[0]
    for given, missing in (("h1", "h2"), ("h2", "h1")):
        if given in spec and missing not in spec:
            raise SceneError(f"hnn {name!r} needs {missing} with {given}",
                             line)
    if "h1" in spec and spec["base"] == "none":
        raise SceneError("edge groups need a nontrivial base",
                         got["h1"][0])
    return spec


def parse_scene(text):
    """Parse scene text into a Scene; raises SceneError with a line."""
    scene = Scene()
    names = set()
    for header, fields, line in _split_stanzas(text):
        kind = header[0]
        if kind not in _FIELDS:
            raise SceneError(f"unknown stanza {kind!r}", line)
        if kind in ("scene", "pairing", "theta"):
            if len(header) != 1:
                raise SceneError(f"{kind} stanza takes no name", line)
            name = None
        elif kind == "root":
            if len(header) != 2:
                raise SceneError("root takes exactly one name", line)
            if scene.root is not None:
                raise SceneError("duplicate root", line)
            if fields:
                raise SceneError("root takes no fields", fields[0][0])
            scene.root = header[1]
            scene.lines[(None, "root")] = line
            continue
        else:
            if len(header) != 2:
                raise SceneError(f"{kind} stanza needs a name", line)
            name = header[1]
            if name in names:
                raise SceneError(f"duplicate name {name!r}", line)
            names.add(name)

        if kind == "scene":
            got = _fields_to_dict(fields, _FIELDS["scene"])
            if "spacing" in got:
                lineno, tokens = got["spacing"]
                value = _numbers(tokens, lineno, (1,), "spacing")[0]
                if value <= 0:
                    raise SceneError("spacing must be positive", lineno)
                scene.settings["spacing"] = value
        elif kind in ("leaf", "product", "hnn"):
            scene.lines[(name, None)] = line
            if kind == "leaf":
                scene.leaves.append((name, _parse_leaf(name, fields, line)))
            else:
                parse = _parse_product if kind == "product" else _parse_hnn
                scene.nodes.append((kind, name, parse(name, fields, line)))
            for lineno, key, _ in fields:
                scene.lines[(name, key)] = lineno
        elif kind == "pairing":
            if scene.pairing:
                raise SceneError("duplicate pairing stanza", line)
            got = _fields_to_dict(fields, _FIELDS["pairing"],
                                  repeats=("pair",))
            for lineno, tokens in got.get("pair", []):
                values = _numbers(tokens, lineno, (10, 14), "pair")
                scene.lines[(None, len(scene.pairing))] = lineno
                scene.pairing.append(values)
            if not scene.pairing:
                raise SceneError("pairing stanza needs pair lines", line)
        elif kind == "theta":
            if scene.theta is not None:
                raise SceneError("duplicate theta stanza", line)
            got = _fields_to_dict(fields, _FIELDS["theta"],
                                  repeats=("image",))
            if "target" not in got:
                raise SceneError("theta needs a target", line)
            lineno, tokens = got["target"]
            orders = tuple(_int_field([t], lineno, "target order")
                           for t in tokens)
            if not orders:
                raise SceneError("theta target needs at least one order",
                                 lineno)
            images = {}
            for lineno, tokens in got.get("image", []):
                if len(tokens) != len(orders) + 1:
                    raise SceneError(
                        f"image takes a name and {len(orders)} exponents",
                        lineno)
                if tokens[0] in images:
                    raise SceneError(f"duplicate image for {tokens[0]!r}",
                                     lineno)
                vec = tuple(_int_field([t], lineno, "exponent")
                            for t in tokens[1:])
                images[tokens[0]] = vec
            scene.theta = {"target": orders, "images": list(images.items())}
    return scene


def load_scene(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise SceneError(f"cannot read scene: {err}") from None
    return parse_scene(text)


# ---------------------------------------------------------------------------
# normalized echo


def _fmt_field(key, value):
    """One indented field line; a tuple value is written space-separated,
    floats by repr, so that the line re-parses equal."""
    values = value if isinstance(value, tuple) else (value,)
    return f"  {key} " + " ".join(
        repr(v) if isinstance(v, float) else str(v) for v in values)


def scene_text(scene):
    """Serialize a Scene back to canonical text that re-parses equal."""
    stanzas = [("scene", None, scene.settings)] if scene.settings else []
    stanzas += [("leaf", name, spec) for name, spec in scene.leaves]
    stanzas += scene.nodes
    blocks = ["\n".join([kind if name is None else f"{kind} {name}"]
                        + [_fmt_field(key, spec[key])
                           for key in _FIELDS[kind] if key in spec])
              for kind, name, spec in stanzas]
    if scene.pairing:
        blocks.append("\n".join(["pairing"] + [
            _fmt_field("pair", values) for values in scene.pairing]))
    if scene.theta is not None:
        blocks.append("\n".join(
            ["theta", _fmt_field("target", scene.theta["target"])]
            + [_fmt_field("image", (gen, *vec))
               for gen, vec in scene.theta["images"]]))
    if scene.root is not None:
        blocks.append(f"root {scene.root}")
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# construction


def _as_value(values):
    if len(values) == 2:
        return complex(values[0], values[1])
    return values[0]


@contextmanager
def _field_value(what, line):
    """A field whose value its object rejects (a singular matrix, a
    non-positive radius) is malformed input at the field's line."""
    try:
        yield
    except ValueError as err:
        raise SceneError(f"{what}: {err}", line) from None


def _as_matrix(values, what, line):
    if len(values) == 8:
        entries = [complex(values[i], values[i + 1])
                   for i in range(0, 8, 2)]
    else:
        entries = list(values)
    with _field_value(what, line):
        return MoebiusMap(*entries)


def _as_circle(values, what, line):
    with _field_value(what, line):
        return SphereCircle.from_center_radius(
            complex(values[0], values[1]), values[2])


def _as_disc(spec, what, line):
    cx, cy, r, side = spec
    with _field_value(what, line):
        return SphereDisc.from_center_radius(complex(cx, cy), r,
                                             inside=(side == "inside"))


@dataclass
class BuiltScene:
    scene: Scene
    groups: dict                   # leaf name -> BasicGroup
    node: object = None            # root tree node, if any
    system: PairingSystem = None
    theta: QuotientMap = None


def construct(scene, depth=6):
    """Build all scene objects; hypothesis failures propagate as errors."""
    spacing = scene.settings.get("spacing", 3.0)
    line_of = scene.lines.get
    groups = {}
    for name, spec in scene.leaves:
        kwargs = {k: v if k == "n" else _as_value(v)
                  for k, v in spec.items() if k not in ("type", "frame")}
        try:
            group = make_basic(spec["type"], prefix=f"{name}.", **kwargs)
        except BasicGroupError as err:
            raise SceneError(f"leaf {name!r}: {err}",
                             line_of((name, None))) from None
        if "frame" in spec:
            group = group.conjugated_by(_as_matrix(
                spec["frame"], "frame", line_of((name, "frame"))))
        groups[name] = group

    nodes = {}

    def resolve(name, line):
        if name in nodes:
            return nodes[name]
        if name in groups:
            return Leaf(groups[name])
        raise SceneError(f"unknown node {name!r}", line)

    for kind, name, spec in scene.nodes:
        if kind == "product":
            if "parts" in spec:
                for part in spec["parts"]:
                    if part not in groups:
                        raise SceneError(
                            f"product part {part!r} is not a leaf",
                            line_of((name, "parts")))
                parts = [groups[p] for p in spec["parts"]]
                nodes[name] = chain_leaves(parts, spacing=spacing,
                                           depth=depth)
            else:
                wall = _as_circle(spec["wall"], "wall",
                                  line_of((name, "wall")))
                B1 = SphereDisc(wall, 1)
                nodes[name] = free_product(
                    resolve(spec["left"], line_of((name, "left"))),
                    resolve(spec["right"], line_of((name, "right"))), None,
                    B1, B1.complement(), depth)
        else:
            base = None if spec["base"] == "none" \
                else resolve(spec["base"], line_of((name, "base")))
            base_names = collect_matrices(base) if base is not None else {}
            kwargs = {"depth": depth}
            for key, arg in (("h1", "H1"), ("h2", "H2")):
                if key in spec:
                    if spec[key] not in base_names:
                        raise SceneError(
                            f"unknown edge generator {spec[key]!r}",
                            line_of((name, key)))
                    kwargs[arg] = spec[key]
            # the default letter name clashes at the stanza's line
            stable = spec.get("stable", "stable")
            if stable in base_names:
                where = "stable" if "stable" in spec else None
                raise SceneError(f"stable letter name {stable!r} already "
                                 "used in the base", line_of((name, where)))
            kwargs["stable_name"] = stable
            letter = _as_matrix(spec["letter"], "letter",
                                line_of((name, "letter")))
            discs = [_as_disc(spec[key], key, line_of((name, key)))
                     for key in ("disc1", "disc2")]
            nodes[name] = hnn_extension(base, letter, *discs, **kwargs)

    built = BuiltScene(scene, groups)

    if scene.pairing:
        if scene.leaves or scene.nodes:
            raise SceneError("a pairing scene cannot also declare a tree")
        pairs = []
        for k, values in enumerate(scene.pairing):
            line = line_of((None, k))
            pairs.append((_as_circle(values[:3], "pair", line),
                          _as_circle(values[3:6], "pair", line),
                          _as_matrix(values[6:], "pair", line)))
        built.system = PairingSystem(pairs)
        return built

    if scene.root is not None:
        built.node = resolve(scene.root, line_of((None, "root")))
    elif len(nodes) == 1:
        built.node = next(iter(nodes.values()))
    elif not nodes and len(groups) == 1:
        built.node = Leaf(next(iter(groups.values())))
    elif groups or nodes:
        raise SceneError("scene needs a root stanza")

    if scene.theta is not None:
        if built.node is None:
            raise SceneError("theta needs a group to act on")
        target = FiniteAbelianGroup(scene.theta["target"])
        images = {gen: target.element(vec)
                  for gen, vec in scene.theta["images"]}
        built.theta = QuotientMap(target, images)
    return built


def _tree_signature(node):
    """Signature of the quotient orbifold of the assembled tree.

    Free products glue quotients along disc boundaries (connected sum);
    each stable letter adds a handle.
    """
    genus = 0
    cone_orders = []
    for n in walk_tree(node):
        if n.kind == "leaf":
            leaf = orbifold_signature(n.group)
            genus += leaf.genus
            cone_orders.extend(leaf.cone_orders)
        elif n.kind == "hnn":
            genus += 1
    return OrbifoldSignature(genus, tuple(cone_orders))


# ---------------------------------------------------------------------------
# commands


def _cmd_build(ns):
    scene = load_scene(ns.scene)
    built = construct(scene, depth=ns.depth)
    status = 0
    if built.system is not None:
        report = verify_pairing(built.system)
        print(f"pairing system of genus {built.system.genus}")
        for line in pairing_lines(report):
            print("  " + line)
        status = 0 if report.ok else 1
    elif built.node is not None:
        assembled = assemble(built.node)
        print("assembled group")
        for line in assembled.summary_lines():
            print("  " + line)
    print("# normalized scene")
    sys.stdout.write(scene_text(built.scene))
    return status


def _cmd_verify(ns):
    scene = load_scene(ns.scene)
    built = construct(scene, depth=ns.depth)
    checks, lines = [], []
    if built.system is not None:
        report = verify_pairing(built.system)
        checks, lines = report.checks, pairing_lines(report)
    elif built.node is not None:
        checks = [c for cert in assemble(built.node).certificates
                  for c in cert.checks]
        lines = [c.line() for c in checks]
    for line in lines:
        print(line)
    failures = sum(not c.ok for c in checks)
    print(f"{len(checks)} checks, {failures} failures")
    return 1 if failures else 0


def _cmd_signature(ns):
    scene = load_scene(ns.scene)
    built = construct(scene, depth=ns.depth)
    if built.system is not None:
        raise SceneError("signature needs a leaf/tree scene")
    for name, _ in scene.leaves:
        print(f"{name}: {orbifold_signature(built.groups[name])}")
    if built.node is not None:
        print(f"assembly: {_tree_signature(built.node)}")
    return 0


def _cmd_rank(ns):
    scene = load_scene(ns.scene)
    built = construct(scene, depth=ns.depth)
    if built.theta is None:
        raise SceneError("rank needs a theta stanza")
    print(f"H = {built.theta.target.label()}")
    report = kernel_rank(built.node, built.theta, force=True)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_limitset(ns):
    scene = load_scene(ns.scene)
    built = construct(scene, depth=ns.depth)
    source = built.system if built.system is not None else built.node
    if source is None:
        raise SceneError("limitset needs a pairing or tree scene")
    s = sample(source, depth=ns.ls_depth)
    print(f"sampled depth {s.depth}: {len(s.discs)} discs, "
          f"{len(s.points)} points")
    status = 0
    if s.discs and s.depth >= 2:
        report = disconnectedness_report(s)
        for line in report.lines():
            print(line)
        status = 0 if report.ok else 1
    out = ns.out if ns.out else ns.scene + ".svg"
    with open(out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render(s))
    print(f"wrote {out}")
    return status


def _cmd_enumerate(ns):
    if ns.n < 2 or ns.g_max < 0:
        raise SceneError("need n >= 2 and g_max >= 0")
    # one write per shell, made before the next shell is built, so the
    # first line still follows shell 0 at once; the lines come straight
    # from the enumerator's field tuples, with no record built
    write = sys.stdout.write
    line = cyclic_case._line
    for g, shell in enumerate(cyclic_case._shell_fields(ns.n, ns.g_max)):
        if shell:
            write("\n".join([line(g, *fields) for fields in shell]) + "\n")
        del shell  # not held while the next shell is built
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "signature": _cmd_signature,
    "rank": _cmd_rank,
    "limitset": _cmd_limitset,
    "enumerate-cyclic": _cmd_enumerate,
}


def _depth(token):
    try:
        value = int(token)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {token!r}")
    return value


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="vskit", description="scene-driven group constructions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "verify", "signature", "rank", "limitset"):
        p = sub.add_parser(name)
        p.add_argument("scene", help="scene file path")
        p.add_argument("--depth", type=_depth, default=6,
                       help="word depth for hypothesis checks")
        if name == "limitset":
            p.add_argument("--ls-depth", dest="ls_depth", type=_depth,
                           default=8, help="sampling depth")
            p.add_argument("--out", default=None, help="output image path")
    p = sub.add_parser("enumerate-cyclic")
    p.add_argument("n", type=int)
    p.add_argument("g_max", type=int)
    return parser


_PARSER = _make_parser()


def run(command, args=()):
    """Run one command with its argument list; returns the exit status."""
    try:
        ns = _PARSER.parse_args([command, *args])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except SceneError as err:
        print(f"scene error: {err}")
        return 2
    except (CombinationError, BasicGroupError, DegeneratePairingError,
            ValueError) as err:
        print(f"FAIL: {err}")
        return 1
    except (RecursionError, MemoryError) as err:
        print(f"FAIL: input too large to process ({type(err).__name__})")
        return 1
    except OSError as err:
        print(f"input error: {err}")
        return 2


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        _PARSER.print_usage()
        return 2
    return run(argv[0], argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
