"""Serialization of NNF DAGs and circuits (JSON-compatible dicts).

Compiled artifacts are expensive; this module lets users persist them.
DAG sharing survives the round trip (nodes serialized once, by id).

The dict codecs here are the structural source of truth; the *framing*
has moved to the shared artifact container
(:mod:`repro.artifact.encoding` — one magic/version/CRC header, one
varint codec for every on-disk format).  Persist NNF DAGs and circuits
with :func:`repro.artifact.format.nnf_to_bytes` /
:func:`~repro.artifact.format.nnf_from_bytes` (and the ``circuit_*``
twins), which add corruption detection on top of these dicts.
"""

from __future__ import annotations

from typing import Any

from .circuit import AND, CONST, NOT, OR, VAR, Circuit, Gate
from .nnf import NNF, false_node, lit, true_node

__all__ = ["nnf_to_dict", "nnf_from_dict", "circuit_to_dict", "circuit_from_dict"]


def nnf_to_dict(root: NNF) -> dict[str, Any]:
    """Serialize an NNF DAG; node order is children-first so loading is a
    single pass."""
    nodes = root.nodes()
    index = {id(n): i for i, n in enumerate(nodes)}
    out_nodes = []
    for n in nodes:
        if n.kind == "lit":
            out_nodes.append({"kind": "lit", "var": n.var, "sign": bool(n.sign)})
        elif n.kind in ("true", "false"):
            out_nodes.append({"kind": n.kind})
        else:
            out_nodes.append(
                {"kind": n.kind, "children": [index[id(c)] for c in n.children]}
            )
    return {"format": "repro-nnf-v1", "root": index[id(root)], "nodes": out_nodes}


def nnf_from_dict(data: dict[str, Any]) -> NNF:
    if data.get("format") != "repro-nnf-v1":
        raise ValueError("not a repro NNF payload")
    built: list[NNF] = []
    for spec in data["nodes"]:
        kind = spec["kind"]
        if kind == "true":
            built.append(true_node())
        elif kind == "false":
            built.append(false_node())
        elif kind == "lit":
            built.append(lit(spec["var"], bool(spec["sign"])))
        elif kind in ("and", "or"):
            children = tuple(built[i] for i in spec["children"])
            built.append(NNF(kind, children=children))
        else:
            raise ValueError(f"bad node kind {kind!r}")
    return built[data["root"]]


def circuit_to_dict(circuit: Circuit) -> dict[str, Any]:
    gates = []
    for g in circuit.gates:
        gates.append({"kind": g.kind, "inputs": list(g.inputs), "payload": g.payload})
    return {"format": "repro-circuit-v1", "output": circuit.output, "gates": gates}


def circuit_from_dict(data: dict[str, Any]) -> Circuit:
    if data.get("format") != "repro-circuit-v1":
        raise ValueError("not a repro circuit payload")
    c = Circuit()
    for spec in data["gates"]:
        payload = spec["payload"]
        if spec["kind"] == CONST:
            payload = bool(payload)
        gate = Gate(spec["kind"], tuple(spec["inputs"]), payload)
        c.gates.append(gate)
        if gate.kind == VAR:
            c._var_ids[gate.payload] = len(c.gates) - 1  # type: ignore[index]
        if gate.kind == CONST:
            c._const_ids[bool(gate.payload)] = len(c.gates) - 1
    if data["output"] is not None:
        c.set_output(data["output"])
    return c
