"""Bag-by-bag d-DNNF compilation from a friendly tree decomposition.

This is the direct bounded-treewidth-circuit → d-DNNF construction of
"Connecting Knowledge Compilation Classes and Width Parameters"
(arXiv 1811.02944, §5.1), the provsql ``dDNNFTreeDecompositionBuilder``
motion re-done over this repo's :class:`~repro.graphs.treedecomp.
FriendlyTreeDecomposition`.  Unlike every other backend here it performs
**no apply calls and touches no SddManager**: one pass over the
decomposition, ``O(2^{O(w)} · n)`` work total.

The moving parts (see ``src/repro/dnnf/README.md`` for the glossary):

- **States.**  At each decomposition node ``t`` the builder keeps a table
  mapping ``(ν, S)`` → d-DNNF node, where ``ν`` values the gates of the
  current bag and ``S ⊆ bag`` is the set of *suspicious* gates — gates
  whose guessed value still lacks a strong justification among the wires
  covered at-or-below ``t`` (an OR guessed ``1`` with no true input seen
  yet, an AND guessed ``0`` with no false input seen yet).  The d-DNNF
  node represents exactly the assignments to the variables *committed
  below* ``t`` that are consistent with ``ν`` with pending set ``S``.
  Both are bitmasks over the bag sorted by gate id (bit ``i`` is the
  ``i``-th smallest gate), so a key is a pair of ints.
- **Introduce(g).**  Every candidate value of ``g`` is enumerated (CONST
  gates are pinned to their payload), wires between ``g`` and its
  bag-mates are checked in both directions, ``g`` may justify suspicious
  bag-mates, and ``g`` itself turns suspicious if its value needs a
  justification no bag-mate provides yet.  The verdicts depend on ``ν``
  only through the bits of ``g``'s wired bag-mates, so they are worked
  out once per distinct masked ``ν`` and reused; ``g``'s bit is inserted
  at its place in both masks.
- **Forget(g) — the responsible bag.**  All wires incident to ``g`` are
  covered below, so a still-suspicious ``g`` can never be justified: the
  state dies.  If ``g`` is the output gate, only ``ν(g) = 1`` survives.
  ``g``'s bit is deleted from both masks.
  If ``g`` is a variable gate, its literal is conjoined here — committing
  the variable at its responsible bag is the same move as Lemma 1's
  variable-leaf attachment in :func:`repro.core.pipeline.vtree_from_circuit`,
  and it is what keeps the ORs below both deterministic and smooth.
- **Join.**  States with equal ``ν`` combine: the d-DNNF nodes are
  conjoined (decomposable — the two sides commit disjoint variables) and
  the suspicious sets intersect (justified on either side is justified).

Whenever two states collapse onto the same ``(ν, S)`` key they are merged
with a deterministic OR.  A table being built maps each key to its first
node; a key that collides gets an entry in a side table listing all its
nodes, and once the table is complete the ORs are built in the order the
keys first appeared, so node ids do not depend on when keys collided.
The merge is sound: for a fixed assignment of the committed variables
and a fixed ``ν``, the values of *all* gates below are forced by wire
consistency, so ``S`` is forced too — distinct colliding states have
pairwise disjoint models.  The same argument gives smoothness (every state
at ``t`` mentions exactly the variables committed below ``t``) and, at the
(empty) root bag, yields a single state whose node's models are exactly
the circuit's models over *all* its variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..circuits.circuit import AND, CONST, NOT, OR, VAR, Circuit
from ..graphs.exact_tw import tree_decomposition
from ..graphs.treedecomp import FriendlyTreeDecomposition, TreeDecomposition
from .nodes import FALSE, TRUE, DnnfDag

__all__ = ["DdnnfResult", "build_ddnnf", "friendly_from_circuit"]

# A state key: (ν, S) as two bitmasks over the current bag sorted by gate
# id.  Bit i of ν is the value of the bag's i-th gate; bit i of S is set iff
# that gate is still suspicious.
_StateKey = tuple[int, int]

# Under a deadline the walk checks it once per this many child states, so
# one wide bag cannot run far past the budget.
_DEADLINE_STRIDE = 256


def _wire_ok(kind_u: str, vu: bool, vh: bool) -> bool:
    """Per-wire consistency for gate ``u`` (kind ``kind_u``, value ``vu``)
    with one of its inputs valued ``vh``.  AND=0 / OR=1 are *not* refuted
    by a single wire — that is the suspicious-gate mechanism's job."""
    if kind_u == NOT:
        return vu != vh
    if kind_u == AND:
        return vh or not vu
    if kind_u == OR:
        return vu or not vh
    return True  # var/const gates have no wires in


def _needs_strong(kind: str, v: bool) -> bool:
    """Does value ``v`` on a ``kind`` gate require a justifying input?"""
    return (kind == OR and v) or (kind == AND and not v)


def _is_strong(kind_u: str, vu: bool, vh: bool) -> bool:
    """Does an input valued ``vh`` justify gate ``u`` valued ``vu``?
    (A true input of a true OR, a false input of a false AND — provsql's
    ``isStrong``.)"""
    return (kind_u == OR and vu and vh) or (kind_u == AND and not vu and not vh)


def friendly_from_circuit(
    circuit: Circuit,
    decomposition: TreeDecomposition | None = None,
    *,
    exact: bool | None = None,
    deadline=None,
) -> FriendlyTreeDecomposition:
    """The friendly decomposition of the circuit's gate graph
    (:meth:`~repro.circuits.circuit.Circuit.adjacency`).

    Shares :func:`repro.core.pipeline.vtree_from_circuit`'s selection rule,
    :func:`repro.graphs.exact_tw.tree_decomposition`: ``exact=None`` picks
    the exact treewidth DP when the graph has at most 12 nodes and the
    heuristics otherwise.  ``deadline`` is checked between the heuristics'
    eliminations.
    """
    graph = circuit.adjacency()
    if decomposition is None:
        decomposition = tree_decomposition(graph, exact, deadline)
    decomposition.validate(graph)
    friendly = decomposition.make_friendly()
    friendly.validate(graph)
    return friendly


@dataclass
class DdnnfResult:
    """One compiled circuit: the DAG, its root id, and public counters."""

    circuit: Circuit
    dag: DnnfDag
    root: int
    friendly: FriendlyTreeDecomposition
    counters: dict[str, int]

    @property
    def size(self) -> int:
        return self.dag.size(self.root)

    @property
    def width(self) -> int:
        return self.dag.width(self.root)

    def stats(self) -> dict[str, int]:
        """Bag counts, widths, state-table and valuation/unique-table
        counters — all plain ints, no private attribute pokes needed."""
        out = dict(self.counters)
        for kind, n in self.friendly.kind_counts().items():
            out[f"bags_{kind}"] = n
        out["friendly_width"] = self.friendly.width
        out.update(self.dag.stats())
        return out


def build_ddnnf(
    circuit: Circuit,
    decomposition: TreeDecomposition | None = None,
    *,
    exact: bool | None = None,
    node_budget: int | None = None,
    deadline=None,
) -> DdnnfResult:
    """Compile ``circuit`` to a smooth deterministic d-DNNF, bag by bag.

    ``node_budget`` caps the total DAG node count; exceeding it raises
    :class:`~repro.sdd.manager.CompilationBudgetExceeded` (checked between
    bags, the same between-work-units contract as
    :meth:`~repro.sdd.manager.SddManager.compile_circuit`) — the hook the
    race backend's early abandon uses to cut off a candidate that can no
    longer win.  ``deadline`` is a
    :class:`~repro.service.errors.Deadline`-like token checked at the
    same per-bag safepoints, every ``_DEADLINE_STRIDE`` child states
    inside a bag, and between the eliminations of the tree
    decomposition (its ``check()`` raises the typed
    :class:`~repro.service.errors.DeadlineExceeded`), giving the service
    tier cooperative wall-clock cancellation."""
    if circuit.output is None:
        raise ValueError("circuit has no output gate")
    friendly = friendly_from_circuit(circuit, decomposition, exact=exact, deadline=deadline)
    dag = DnnfDag()
    builder = _BagBuilder(circuit, dag, node_budget=node_budget, deadline=deadline)
    root = builder.run(friendly)
    return DdnnfResult(circuit, dag, root, friendly, builder.counters)


def _collide(
    out: dict[_StateKey, int],
    colliding: dict[_StateKey, list[int]],
    key: _StateKey,
    node: int,
) -> None:
    """Note ``node`` under a ``key`` that ``out`` already holds."""
    nodes = colliding.get(key)
    if nodes is None:
        colliding[key] = [out[key], node]
    else:
        nodes.append(node)


class _BagBuilder:
    """The (ν, S)-state walk; one instance per compilation."""

    def __init__(
        self,
        circuit: Circuit,
        dag: DnnfDag,
        *,
        node_budget: int | None = None,
        deadline=None,
    ):
        self.circuit = circuit
        self.dag = dag
        self.node_budget = node_budget
        self.deadline = deadline
        self._visited = 0  # child states read so far, for the deadline stride
        self.kinds = [g.kind for g in circuit.gates]
        self.inputs = [frozenset(g.inputs) for g in circuit.gates]
        self.payloads = [g.payload for g in circuit.gates]
        self.counters = {
            "states_peak": 0,
            "states_total": 0,
            "or_merges": 0,
            "pruned_unjustified": 0,
            "pruned_output": 0,
        }

    # -- state-table plumbing -------------------------------------------
    def _states(self, table: dict[_StateKey, int]):
        """``table.items()``; under a deadline, checked every
        ``_DEADLINE_STRIDE`` states counted across the whole walk."""
        return table.items() if self.deadline is None else self._checked(table)

    def _checked(self, table: dict[_StateKey, int]):
        for item in table.items():
            self._visited += 1
            if self._visited % _DEADLINE_STRIDE == 0:
                self.deadline.check("d-DNNF bag compilation")
            yield item

    def _merge(
        self, out: dict[_StateKey, int], colliding: dict[_StateKey, list[int]]
    ) -> dict[_StateKey, int]:
        """Finish a table: every key in ``colliding`` gets the deterministic
        OR of its nodes, built in the order of ``out``'s keys."""
        if colliding:
            self.counters["or_merges"] += len(colliding)
            for key in out:
                nodes = colliding.get(key)
                if nodes is not None:
                    out[key] = self.dag.disjoin(nodes)
        self.counters["states_peak"] = max(self.counters["states_peak"], len(out))
        self.counters["states_total"] += len(out)
        return out

    # -- the four bag shapes --------------------------------------------
    # Bit i of ν and of S stands for the i-th smallest gate id of the bag,
    # so introducing or forgetting ``g`` inserts or deletes the bit at
    # ``at``, the number of bag-mates below ``g``.
    def _introduce(
        self, child: dict[_StateKey, int], bag: frozenset, g: int
    ) -> dict[_StateKey, int]:
        if not child:
            return self._merge({}, {})
        kind = self.kinds[g]
        g_inputs = self.inputs[g]
        candidates = (bool(self.payloads[g]),) if kind == CONST else (False, True)
        at = sum(1 for h in bag if h < g)
        low = (1 << at) - 1
        g_bit = 1 << at
        # Bag-mates sharing a wire with g: (bit in the child's ν, bit in
        # the new S, h feeds g, g feeds h, kind of h).
        wires = []
        wire_mask = 0
        for i, h in enumerate(sorted(bag)):
            feeds_g, fed_by_g = h in g_inputs, g in self.inputs[h]
            if feeds_g or fed_by_g:
                wires.append(
                    (1 << i, 1 << (i + (i >= at)), feeds_g, fed_by_g, self.kinds[h])
                )
                wire_mask |= 1 << i
        # The wire checks read ν only through ``wire_mask``: one verdict per
        # masked valuation, a list of (ν bit of g, S bits justified by g,
        # S bit of g if g turns suspicious) per consistent value of g.
        verdicts: dict[int, list[tuple[int, int, int]]] = {}
        out: dict[_StateKey, int] = {}
        colliding: dict[_StateKey, list[int]] = {}
        for (nu, suspicious), node in self._states(child):
            m = nu & wire_mask
            outcomes = verdicts.get(m)
            if outcomes is None:
                outcomes = verdicts[m] = []
                for v in candidates:
                    cleared = 0
                    justified = False
                    for bit, s_bit, feeds_g, fed_by_g, kind_h in wires:
                        vh = bool(m & bit)
                        if feeds_g:
                            if not _wire_ok(kind, v, vh):
                                break
                            justified = justified or _is_strong(kind, v, vh)
                        if fed_by_g:
                            if not _wire_ok(kind_h, vh, v):
                                break
                            if _is_strong(kind_h, vh, v):
                                cleared |= s_bit
                    else:  # every wire consistent
                        suspect = g_bit if _needs_strong(kind, v) and not justified else 0
                        outcomes.append((g_bit if v else 0, cleared, suspect))
            nu_rest = (nu & low) | ((nu & ~low) << 1)
            s_rest = (suspicious & low) | ((suspicious & ~low) << 1)
            for v_bit, cleared, suspect in outcomes:
                key = (nu_rest | v_bit, (s_rest & ~cleared) | suspect)
                if key in out:
                    _collide(out, colliding, key, node)
                else:
                    out[key] = node
        return self._merge(out, colliding)

    def _forget(
        self, child: dict[_StateKey, int], bag: frozenset, g: int
    ) -> dict[_StateKey, int]:
        if not child:
            return self._merge({}, {})
        kind = self.kinds[g]
        name = str(self.payloads[g])
        is_output = g == self.circuit.output
        bit = 1 << sum(1 for h in bag if h < g)
        low = bit - 1
        out: dict[_StateKey, int] = {}
        colliding: dict[_StateKey, list[int]] = {}
        for (nu, suspicious), node in self._states(child):
            if suspicious & bit:
                # All wires incident to g are covered below this (its
                # responsible) bag; an unjustified guess can never recover.
                self.counters["pruned_unjustified"] += 1
                continue
            v = bool(nu & bit)
            if is_output and not v:
                self.counters["pruned_output"] += 1
                continue
            if kind == VAR:
                node = self.dag.conjoin((node, self.dag.literal(name, v)))
            key = (
                (nu & low) | ((nu >> 1) & ~low),
                (suspicious & low) | ((suspicious >> 1) & ~low),
            )
            if key in out:
                _collide(out, colliding, key, node)
            else:
                out[key] = node
        return self._merge(out, colliding)

    def _join(
        self, left: dict[_StateKey, int], right: dict[_StateKey, int]
    ) -> dict[_StateKey, int]:
        by_nu: dict[int, list[tuple[int, int]]] = {}
        for (nu, s_l), n_l in self._states(left):
            by_nu.setdefault(nu, []).append((s_l, n_l))
        out: dict[_StateKey, int] = {}
        colliding: dict[_StateKey, list[int]] = {}
        for (nu, s_r), n_r in self._states(right):
            for s_l, n_l in by_nu.get(nu, ()):
                node = self.dag.conjoin((n_l, n_r))
                if node != FALSE:
                    key = (nu, s_l & s_r)
                    if key in out:
                        _collide(out, colliding, key, node)
                    else:
                        out[key] = node
        return self._merge(out, colliding)

    # -- the walk --------------------------------------------------------
    def run(self, friendly: FriendlyTreeDecomposition) -> int:
        # The lists are in postorder, so a node's child tables are the last
        # ones pushed (a join's right child on top).
        tables: list[dict[_StateKey, int]] = []
        bag = friendly.bag
        for kind, g, children in zip(friendly.kind, friendly.vertex, friendly.children):
            if kind == "leaf":
                tables.append({(0, 0): TRUE})
            elif kind == "join":
                right = tables.pop()
                tables[-1] = self._join(tables[-1], right)
            else:
                step = self._introduce if kind == "introduce" else self._forget
                tables[-1] = step(tables[-1], bag[children[0]], g)
            if (
                self.node_budget is not None
                and len(self.dag.node_kind) > self.node_budget
            ):
                from ..sdd.manager import CompilationBudgetExceeded

                raise CompilationBudgetExceeded(
                    f"node budget {self.node_budget} exceeded "
                    f"({len(self.dag.node_kind)} d-DNNF nodes)"
                )
            if self.deadline is not None:
                self.deadline.check("d-DNNF bag compilation")
        (root_states,) = tables
        # Root bag is empty: at most the single key (0, 0) can survive.
        assert set(root_states) <= {(0, 0)}, "non-empty root bag?"
        return root_states.get((0, 0), FALSE)
