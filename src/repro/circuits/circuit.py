"""General Boolean circuits over the standard basis (Section 2.1).

Circuits are DAGs whose internal gates are unbounded-fanin AND/OR and fanin-1
NOT, and whose inputs are pairwise-distinct variables or constants.  The
*size* of a circuit is its number of gates; its *treewidth* is the treewidth
of the undirected graph underlying the DAG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    import networkx as nx

    from ..core.boolfunc import BooleanFunction

__all__ = ["Gate", "Circuit", "AND", "OR", "NOT", "VAR", "CONST"]

VAR = "var"
CONST = "const"
AND = "and"
OR = "or"
NOT = "not"

_KINDS = {VAR, CONST, AND, OR, NOT}


@dataclass(frozen=True)
class Gate:
    """A single gate: ``kind`` in {var, const, and, or, not}.

    ``payload`` is the variable name for VAR gates, the Boolean value for
    CONST gates, and ``None`` otherwise.
    """

    kind: str
    inputs: tuple[int, ...]
    payload: str | bool | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.kind == VAR and not isinstance(self.payload, str):
            raise ValueError("var gate needs a variable name payload")
        if self.kind == CONST and not isinstance(self.payload, bool):
            raise ValueError("const gate needs a bool payload")
        if self.kind == NOT and len(self.inputs) != 1:
            raise ValueError("not gate has fanin exactly 1")
        if self.kind in (VAR, CONST) and self.inputs:
            raise ValueError("input gates have no wires in")


class Circuit:
    """A mutable Boolean circuit builder / immutable-ish evaluator.

    Gates are referenced by integer ids (their index in ``gates``).  Variable
    gates are deduplicated by name, matching the paper's requirement that
    input gates are pairwise distinct variables.
    """

    def __init__(self) -> None:
        self.gates: list[Gate] = []
        self._var_ids: dict[str, int] = {}
        self._const_ids: dict[bool, int] = {}
        self.output: int | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, gate: Gate) -> int:
        self.gates.append(gate)
        return len(self.gates) - 1

    def add_var(self, name: str) -> int:
        if name in self._var_ids:
            return self._var_ids[name]
        gid = self._add(Gate(VAR, (), name))
        self._var_ids[name] = gid
        return gid

    def add_const(self, value: bool) -> int:
        value = bool(value)
        if value in self._const_ids:
            return self._const_ids[value]
        gid = self._add(Gate(CONST, (), value))
        self._const_ids[value] = gid
        return gid

    def add_and(self, *inputs: int) -> int:
        self._check_ids(inputs)
        return self._add(Gate(AND, tuple(inputs)))

    def add_or(self, *inputs: int) -> int:
        self._check_ids(inputs)
        return self._add(Gate(OR, tuple(inputs)))

    def add_not(self, input_id: int) -> int:
        self._check_ids((input_id,))
        return self._add(Gate(NOT, (input_id,)))

    def set_output(self, gid: int) -> None:
        self._check_ids((gid,))
        self.output = gid

    def _check_ids(self, ids: Iterable[int]) -> None:
        n = len(self.gates)
        for i in ids:
            if not (0 <= i < n):
                raise ValueError(f"gate id {i} out of range (have {n} gates)")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of gates (the paper's ``|C|``)."""
        return len(self.gates)

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self._var_ids))

    def gate_variables(self, gid: int) -> frozenset[str]:
        """``var(C_g)`` — variables feeding the subcircuit rooted at ``gid``."""
        seen: set[int] = set()
        out: set[str] = set()
        stack = [gid]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            gate = self.gates[g]
            if gate.kind == VAR:
                out.add(gate.payload)  # type: ignore[arg-type]
            stack.extend(gate.inputs)
        return frozenset(out)

    def topological_order(self) -> list[int]:
        """Gate ids, inputs before outputs (gates are appended post-inputs,
        so index order is already topological)."""
        return list(range(len(self.gates)))

    # ------------------------------------------------------------------
    # semantics
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        if self.output is None:
            raise ValueError("circuit has no output gate")
        vals: list[bool] = [False] * len(self.gates)
        for gid in self.topological_order():
            gate = self.gates[gid]
            if gate.kind == VAR:
                vals[gid] = bool(assignment[gate.payload])  # type: ignore[index]
            elif gate.kind == CONST:
                vals[gid] = bool(gate.payload)
            elif gate.kind == NOT:
                vals[gid] = not vals[gate.inputs[0]]
            elif gate.kind == AND:
                vals[gid] = all(vals[i] for i in gate.inputs)
            else:
                vals[gid] = any(vals[i] for i in gate.inputs)
        return vals[self.output]

    def function(self, variables: Sequence[str] | None = None) -> BooleanFunction:
        """The Boolean function ``F_C`` computed by the circuit, as an exact
        truth table over ``variables`` (default: the circuit's variables).

        Vectorized: every gate computes a length-``2**n`` bool array.
        """
        import numpy as np

        from ..core.boolfunc import BooleanFunction

        if self.output is None:
            raise ValueError("circuit has no output gate")
        vs = tuple(sorted(set(variables) if variables is not None else self._var_ids))
        missing = set(self._var_ids) - set(vs)
        if missing:
            raise ValueError(f"circuit uses variables outside the requested set: {missing}")
        n = len(vs)
        idx = np.arange(1 << n)
        vals: list[np.ndarray | None] = [None] * len(self.gates)
        # Only evaluate gates reachable from the output.
        needed = self._reachable(self.output)
        for gid in self.topological_order():
            if gid not in needed:
                continue
            gate = self.gates[gid]
            if gate.kind == VAR:
                i = vs.index(gate.payload)  # type: ignore[arg-type]
                vals[gid] = ((idx >> i) & 1).astype(bool)
            elif gate.kind == CONST:
                vals[gid] = np.full(1 << n, bool(gate.payload), dtype=bool)
            elif gate.kind == NOT:
                vals[gid] = ~vals[gate.inputs[0]]  # type: ignore[operator]
            elif gate.kind == AND:
                acc = np.ones(1 << n, dtype=bool)
                for i in gate.inputs:
                    acc &= vals[i]  # type: ignore[arg-type]
                vals[gid] = acc
            else:
                acc = np.zeros(1 << n, dtype=bool)
                for i in gate.inputs:
                    acc |= vals[i]  # type: ignore[arg-type]
                vals[gid] = acc
        return BooleanFunction(vs, vals[self.output])  # type: ignore[arg-type]

    def _reachable(self, root: int) -> set[int]:
        seen: set[int] = set()
        stack = [root]
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            stack.extend(self.gates[g].inputs)
        return seen

    # ------------------------------------------------------------------
    # graphs
    # ------------------------------------------------------------------
    def digraph(self) -> nx.DiGraph:
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(len(self.gates)))
        for gid, gate in enumerate(self.gates):
            for i in gate.inputs:
                g.add_edge(i, gid)
        return g

    def adjacency(self) -> list[list[int]]:
        """The undirected graph underlying the DAG (treewidth is taken of
        this graph, per Definition of circuit treewidth) as an int
        adjacency list: ``adjacency()[g]`` lists ``g``'s inputs ascending,
        then the gates ``g`` feeds ascending, each once.

        This is the compile path's graph (see
        :mod:`repro.graphs.treedecomp`); it needs no networkx.
        """
        inputs = [sorted(set(gate.inputs)) for gate in self.gates]
        adj = [list(ins) for ins in inputs]
        for gid, ins in enumerate(inputs):
            for i in ins:
                adj[i].append(gid)
        return adj

    def graph(self) -> nx.Graph:
        """:meth:`adjacency` as a networkx graph, whose neighbour order is
        the adjacency's."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(len(self.gates)))
        g.add_edges_from(
            (u, v) for u, neighbours in enumerate(self.adjacency()) for v in neighbours if u < v
        )
        return g

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def trim(self) -> "Circuit":
        """Drop gates unreachable from the output (renumbering ids)."""
        if self.output is None:
            raise ValueError("circuit has no output gate")
        keep = sorted(self._reachable(self.output))
        remap = {old: new for new, old in enumerate(keep)}
        out = Circuit()
        for old in keep:
            gate = self.gates[old]
            new_gate = Gate(gate.kind, tuple(remap[i] for i in gate.inputs), gate.payload)
            out.gates.append(new_gate)
            if gate.kind == VAR:
                out._var_ids[gate.payload] = remap[old]  # type: ignore[index]
            if gate.kind == CONST:
                out._const_ids[bool(gate.payload)] = remap[old]
        out.output = remap[self.output]
        return out

    def binarize(self) -> "Circuit":
        """Split unbounded-fanin AND/OR gates into fanin-2 chains."""
        out = Circuit()
        remap: dict[int, int] = {}
        for gid, gate in enumerate(self.gates):
            if gate.kind == VAR:
                remap[gid] = out.add_var(gate.payload)  # type: ignore[arg-type]
            elif gate.kind == CONST:
                remap[gid] = out.add_const(bool(gate.payload))
            elif gate.kind == NOT:
                remap[gid] = out.add_not(remap[gate.inputs[0]])
            else:
                ins = [remap[i] for i in gate.inputs]
                if not ins:
                    remap[gid] = out.add_const(gate.kind == AND)
                    continue
                acc = ins[0]
                for nxt in ins[1:]:
                    acc = out.add_and(acc, nxt) if gate.kind == AND else out.add_or(acc, nxt)
                remap[gid] = acc
        if self.output is not None:
            out.set_output(remap[self.output])
        return out

    def pad_with_redundant_gates(self, extra: int) -> "Circuit":
        """Append ``extra`` semantically-idle gates (double negations feeding
        nothing new), growing ``m`` while keeping ``n`` and the function fixed.
        Used by the eq.(3)-vs-eq.(4) experiment (size-in-m vs size-in-n)."""
        if self.output is None:
            raise ValueError("circuit has no output gate")
        out = self.copy()
        anchor = out.output
        assert anchor is not None
        cur = anchor
        for _ in range(extra // 2):
            n1 = out.add_not(cur)
            cur = out.add_not(n1)
        # AND with the double-negated output: same function, more gates.
        final = out.add_and(anchor, cur) if extra else anchor
        out.set_output(final)
        return out

    def copy(self) -> "Circuit":
        out = Circuit()
        out.gates = list(self.gates)
        out._var_ids = dict(self._var_ids)
        out._const_ids = dict(self._const_ids)
        out.output = self.output
        return out

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Circuit(size={self.size}, vars={len(self._var_ids)}, output={self.output})"

    @classmethod
    def from_function_dnf(cls, f: BooleanFunction) -> "Circuit":
        """The DNF circuit whose terms are exactly the models of ``f``
        (used by Proposition 1 as a trivial treewidth upper bound)."""
        c = cls()
        terms: list[int] = []
        for model in f.models():
            lits = []
            for v, b in sorted(model.items()):
                vid = c.add_var(v)
                lits.append(vid if b else c.add_not(vid))
            terms.append(c.add_and(*lits) if lits else c.add_const(True))
        c.set_output(c.add_or(*terms) if terms else c.add_const(False))
        return c
