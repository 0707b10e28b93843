"""Cyclic signatures generated and checked without calling vskit.

The benchmark makes its own inputs and its own expected answers, so that
an oracle never runs the code path it is checking.  A signature is the
tuple (n, a, m_orders, c, n_orders) that ``vskit.CyclicSignature`` takes.
"""

import math
from itertools import combinations_with_replacement


def twice_genus(n, a, m_orders, c, n_orders):
    """2g for g = n(a + b + c/2 + d - 1) + 1 - sum_j n/n_j."""
    return (2 * n * (a + len(m_orders) + len(n_orders) - 1) + n * c + 2
            - 2 * sum(n // v for v in n_orders))


def admissible(n, a, m_orders, c, n_orders):
    """The three admissibility clauses plus an integral, nonnegative genus."""
    if c and n % 2:
        return False
    if a + len(m_orders) == 0:
        cofactors = [n // v for v in n_orders]
        base = math.gcd(n // 2, *cofactors) if c else math.gcd(*cofactors)
        if base != 1:
            return False
    twice = twice_genus(n, a, m_orders, c, n_orders)
    return twice >= 0 and twice % 2 == 0


def genus(sig):
    return twice_genus(*sig) // 2


def sweep(n_max, g_max, n_min=2):
    """Every admissible signature with n_min <= n <= n_max and g <= g_max.

    Each loxodromic or rank-one factor adds 2n to 2g, an involution n and
    an elliptic factor of order v adds 2n - 2n/v >= 4n/3, so the loop
    bounds below cover every candidate.
    """
    out = []
    for n in range(n_min, n_max + 1):
        m_divs = [m for m in range(2, n + 1) if n % m == 0]
        e_divs = [v for v in range(3, n + 1) if n % v == 0]
        room = 2 * g_max + 2 * n - 2          # 2g minus its constant part
        ab_max = room // (2 * n)
        c_max = room // n if n % 2 == 0 else 0
        d_max = (3 * room) // (4 * n) if e_divs else 0
        # elliptic choices with their share of 2g, cheapest first
        e_combos = sorted(
            ((2 * n * d - 2 * sum(n // v for v in orders), orders)
             for d in range(d_max + 1)
             for orders in combinations_with_replacement(e_divs, d)))
        for a in range(ab_max + 1):
            for b in range(ab_max - a + 1):
                m_combos = list(combinations_with_replacement(m_divs, b))
                for c in range(c_max + 1):
                    fixed = 2 * n * (a + b - 1) + n * c + 2
                    for share, n_orders in e_combos:
                        if fixed + share > 2 * g_max:
                            break
                        for m_orders in m_combos:
                            if admissible(n, a, m_orders, c, n_orders):
                                out.append((n, a, m_orders, c, n_orders))
    return out


def leaf_count(sig):
    n, a, m_orders, c, n_orders = sig
    return a + len(m_orders) + c + len(n_orders)


def leaf_specs(sig, multiplier=4):
    """(leaf name, scene fields, theta images) per leaf, in chain order.

    Mirrors the exponent map of the paper: loxodromic generators map to 1
    and a torsion generator of order k to n/k.
    """
    n, a, m_orders, c, n_orders = sig
    specs = []
    for j in range(1, a + 1):
        specs.append((f"t{j}", [("type", "T2"), ("lam", multiplier)],
                      [(f"t{j}.L", 1)]))
    for j, m in enumerate(m_orders, start=1):
        specs.append((f"h{j}", [("type", "T4"), ("n", m),
                                ("lam", multiplier)],
                      [(f"h{j}.A", 1), (f"h{j}.E", n // m)]))
    for j in range(1, c + 1):
        specs.append((f"g{j}", [("type", "T1"), ("n", 2)],
                      [(f"g{j}.E", n // 2)]))
    for j, v in enumerate(n_orders, start=1):
        specs.append((f"e{j}", [("type", "T1"), ("n", v)],
                      [(f"e{j}.E", n // v)]))
    return specs


def scene_text(sig, names):
    """A scene with the leaves as one `product parts` chain plus theta.

    names maps the default leaf names of leaf_specs to the scene's own.
    """
    specs = leaf_specs(sig)
    blocks = []
    for name, fields, _ in specs:
        lines = [f"leaf {names[name]}"] + [f"  {k} {v}" for k, v in fields]
        blocks.append("\n".join(lines))
    blocks.append("product P\n  parts "
                  + " ".join(names[s[0]] for s in specs))
    theta = [f"theta\n  target {sig[0]}"]
    for name, _, images in specs:
        for gen, e in images:
            theta.append(f"  image {names[name]}{gen[len(name):]} {e}")
    blocks.append("\n".join(theta))
    blocks.append("root P")
    return "\n\n".join(blocks) + "\n"


def parse_record(line):
    """Fields of one `enumerate-cyclic` record, parsed from its text."""
    head, _, kind = line.partition(" K = ")
    fields = dict(tok.split("=", 1) for tok in head.split())

    def orders(text):
        inner = text[1:-1]
        return tuple(int(x) for x in inner.split(",")) if inner else ()

    return {"g": int(fields["g"]), "a": int(fields["a"]),
            "b": int(fields["b"]), "c": int(fields["c"]),
            "d": int(fields["d"]), "m_orders": orders(fields["m_orders"]),
            "n_orders": orders(fields["n_orders"]),
            "elementary": kind.endswith(" [elementary]")}
