"""Circuit and function families used throughout the paper.

Includes the paper's named functions:

- :func:`implication` — Examples 1–4 (``x -> y``).
- :func:`disjointness` — equation (7), ``D_n(X_n, Y_n)``.
- :func:`h0`, :func:`hi`, :func:`hk`, :func:`h_family` — the inversion
  functions ``H^i_{k,n}`` of Section 4.1.
- bounded-treewidth / bounded-pathwidth families for the Result-1 and
  equation-(2) experiments (chains, ladders, and/or trees).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .circuit import Circuit

if TYPE_CHECKING:
    from ..core.boolfunc import BooleanFunction

__all__ = [
    "implication",
    "disjointness",
    "disjointness_function",
    "xvar",
    "yvar",
    "zvar",
    "h0",
    "hi",
    "hk",
    "h_family",
    "h_function",
    "parity",
    "chain_and_or",
    "path_match",
    "and_or_tree",
    "ladder",
    "grid",
    "cnf_chain",
]


# ----------------------------------------------------------------------
# small named functions
# ----------------------------------------------------------------------
def implication() -> Circuit:
    """``F(x, y) = x -> y`` (the running example of Section 3.1)."""
    c = Circuit()
    x, y = c.add_var("x"), c.add_var("y")
    c.set_output(c.add_or(c.add_not(x), y))
    return c


def disjointness(n: int) -> Circuit:
    """``D_n(X, Y) = AND_i (¬x_i ∨ ¬y_i)`` — equation (7)."""
    if n < 1:
        raise ValueError("n >= 1")
    c = Circuit()
    clauses = []
    for i in range(1, n + 1):
        xi, yi = c.add_var(f"x{i}"), c.add_var(f"y{i}")
        clauses.append(c.add_or(c.add_not(xi), c.add_not(yi)))
    c.set_output(c.add_and(*clauses))
    return c


def disjointness_function(n: int) -> BooleanFunction:
    return disjointness(n).function()


# ----------------------------------------------------------------------
# the inversion functions H^i_{k,n} (Section 4.1)
# ----------------------------------------------------------------------
def xvar(l: int) -> str:
    return f"x{l}"


def yvar(m: int) -> str:
    return f"y{m}"


def zvar(i: int, l: int, m: int) -> str:
    """``z^i_{l,m}`` — level ``i`` in 1..k, indices ``l, m`` in 1..n."""
    return f"z{i}_{l}_{m}"


def h0(k: int, n: int) -> Circuit:
    """``H^0_{k,n}(X, Z^1) = OR_{l,m} (x_l ∧ z^1_{l,m})``."""
    c = Circuit()
    terms = []
    for l in range(1, n + 1):
        xl = c.add_var(xvar(l))
        for m in range(1, n + 1):
            terms.append(c.add_and(xl, c.add_var(zvar(1, l, m))))
    c.set_output(c.add_or(*terms))
    return c


def hi(k: int, n: int, i: int) -> Circuit:
    """``H^i_{k,n}(Z^i, Z^{i+1}) = OR_{l,m} (z^i_{l,m} ∧ z^{i+1}_{l,m})``
    for ``1 <= i <= k-1``."""
    if not (1 <= i <= k - 1):
        raise ValueError("need 1 <= i <= k-1")
    c = Circuit()
    terms = []
    for l in range(1, n + 1):
        for m in range(1, n + 1):
            terms.append(c.add_and(c.add_var(zvar(i, l, m)), c.add_var(zvar(i + 1, l, m))))
    c.set_output(c.add_or(*terms))
    return c


def hk(k: int, n: int) -> Circuit:
    """``H^k_{k,n}(Z^k, Y) = OR_{l,m} (z^k_{l,m} ∧ y_m)``."""
    c = Circuit()
    terms = []
    for m in range(1, n + 1):
        ym = c.add_var(yvar(m))
        for l in range(1, n + 1):
            terms.append(c.add_and(c.add_var(zvar(k, l, m)), ym))
    c.set_output(c.add_or(*terms))
    return c


def h_family(k: int, n: int) -> list[Circuit]:
    """``[H^0, H^1, ..., H^k]`` for given ``k, n``."""
    out = [h0(k, n)]
    for i in range(1, k):
        out.append(hi(k, n, i))
    out.append(hk(k, n))
    return out


def h_function(k: int, n: int, i: int) -> BooleanFunction:
    """``H^i_{k,n}`` as an exact function."""
    if i == 0:
        return h0(k, n).function()
    if i == k:
        return hk(k, n).function()
    return hi(k, n, i).function()


# ----------------------------------------------------------------------
# structured families for the width experiments
# ----------------------------------------------------------------------
def parity(n: int) -> Circuit:
    """XOR chain — constant pathwidth, constant OBDD width (a CPW(O(1)) witness)."""
    c = Circuit()
    acc = c.add_var("x1")
    for i in range(2, n + 1):
        xi = c.add_var(f"x{i}")
        # acc XOR xi = (acc ∧ ¬xi) ∨ (¬acc ∧ xi)
        acc = c.add_or(c.add_and(acc, c.add_not(xi)), c.add_and(c.add_not(acc), xi))
    c.set_output(acc)
    return c


def chain_and_or(n: int) -> Circuit:
    """``(x1 ∧ x2) ∨ (x2 ∧ x3) ∨ ... ∨ (x_{n-1} ∧ x_n)`` as a *chain-shaped*
    circuit (OR gates chained) — pathwidth O(1)."""
    if n < 2:
        raise ValueError("n >= 2")
    c = Circuit()
    xs = [c.add_var(f"x{i}") for i in range(1, n + 1)]
    acc = c.add_and(xs[0], xs[1])
    for i in range(1, n - 1):
        acc = c.add_or(acc, c.add_and(xs[i], xs[i + 1]))
    c.set_output(acc)
    return c


def path_match(n: int) -> BooleanFunction:
    """The function of :func:`chain_and_or` (two adjacent true variables)."""
    return chain_and_or(n).function()


def and_or_tree(depth: int, prefix: str = "x") -> Circuit:
    """Alternating AND/OR complete binary tree on ``2**depth`` fresh leaves.

    The circuit is a tree, hence treewidth 1, but its natural pathwidth grows
    with depth — the CTW(O(1)) vs CPW(O(1)) contrast family of Figure 1.
    """
    c = Circuit()
    counter = [0]

    def build(d: int, use_and: bool) -> int:
        if d == 0:
            counter[0] += 1
            return c.add_var(f"{prefix}{counter[0]}")
        l = build(d - 1, not use_and)
        r = build(d - 1, not use_and)
        return c.add_and(l, r) if use_and else c.add_or(l, r)

    c.set_output(build(depth, True))
    return c


def ladder(n: int) -> Circuit:
    """A ladder-shaped circuit (treewidth ≤ 3, not a tree): rails of AND/OR
    with rungs.  ``2n`` variables."""
    if n < 1:
        raise ValueError("n >= 1")
    c = Circuit()
    a_prev = c.add_var("a1")
    b_prev = c.add_var("b1")
    rail = c.add_and(a_prev, b_prev)
    for i in range(2, n + 1):
        ai = c.add_var(f"a{i}")
        bi = c.add_var(f"b{i}")
        rung = c.add_and(ai, bi)
        cross = c.add_or(c.add_and(a_prev, bi), c.add_and(b_prev, ai))
        rail = c.add_or(rail, rung, cross)
        a_prev, b_prev = ai, bi
    c.set_output(rail)
    return c


def grid(rows: int, cols: int) -> Circuit:
    """A grid-shaped circuit (treewidth ~ ``min(rows, cols)``): one variable
    per cell, one AND per grid edge, ORs accumulated row-major.

    ``rows × cols`` variables named ``g{i}_{j}``; the function is "some two
    adjacent cells are both true" — the 2-dimensional analogue of
    :func:`chain_and_or` (``grid(1, n)`` is the same function).
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError("need at least two cells")
    c = Circuit()
    xs = [
        [c.add_var(f"g{i}_{j}") for j in range(1, cols + 1)]
        for i in range(1, rows + 1)
    ]
    acc = None
    for i in range(rows):
        for j in range(cols):
            for di, dj in ((0, 1), (1, 0)):
                ni, nj = i + di, j + dj
                if ni < rows and nj < cols:
                    edge = c.add_and(xs[i][j], xs[ni][nj])
                    acc = edge if acc is None else c.add_or(acc, edge)
    assert acc is not None
    c.set_output(acc)
    return c


def cnf_chain(n: int, clause_width: int = 2) -> Circuit:
    """CNF over ``x1..xn`` with clauses on consecutive windows — primal
    pathwidth ``clause_width - 1``."""
    if n < clause_width:
        raise ValueError("need n >= clause_width")
    c = Circuit()
    xs = [c.add_var(f"x{i}") for i in range(1, n + 1)]
    clauses = []
    for i in range(n - clause_width + 1):
        lits = []
        for j in range(clause_width):
            lit = xs[i + j]
            if (i + j) % 2 == 1:
                lit = c.add_not(lit)
            lits.append(lit)
        clauses.append(c.add_or(*lits))
    c.set_output(c.add_and(*clauses))
    return c
