"""Flat compiled-circuit artifacts: save, load, mmap, share.

- :mod:`~repro.artifact.encoding` — the framed binary container (magic,
  version, CRC, section directory) and :class:`ArtifactError`.
- :mod:`~repro.artifact.store` — :class:`FrozenSdd` /
  :class:`FrozenDdnnf` / :class:`FrozenObdd`: immutable array-backed node
  tables that the live evaluators and structure queries run over
  unchanged, freezable from managers or wrapped around an mmap-ed file
  read-only.
- :mod:`~repro.artifact.format` — per-kind schemas, the ``Compiled``
  artifact (written by ``Compiled.save``, read by ``Compiler.load``),
  vtree/NNF/circuit codecs, and pysdd ``.sdd``/``.vtree`` interop.
"""

from .encoding import (
    Artifact,
    ArtifactError,
    load_artifact_bytes,
    open_artifact,
    pack_artifact,
    write_artifact,
)
from .format import (
    KIND_CIRCUIT,
    KIND_DDNNF,
    KIND_NNF,
    KIND_OBDD,
    KIND_SDD,
    KIND_VTREE,
    circuit_from_bytes,
    circuit_to_bytes,
    export_sdd_text,
    export_vtree_text,
    import_sdd_text,
    import_vtree_text,
    load_compiled,
    load_store,
    load_vtree,
    nnf_from_bytes,
    nnf_to_bytes,
    read_pysdd,
    save_vtree,
    vtree_from_bytes,
    vtree_from_pysdd,
    vtree_to_bytes,
    write_pysdd,
)
from .store import FrozenDdnnf, FrozenObdd, FrozenSdd

__all__ = [
    "Artifact",
    "ArtifactError",
    "open_artifact",
    "load_artifact_bytes",
    "pack_artifact",
    "write_artifact",
    "KIND_VTREE",
    "KIND_SDD",
    "KIND_DDNNF",
    "KIND_OBDD",
    "KIND_NNF",
    "KIND_CIRCUIT",
    "FrozenSdd",
    "FrozenDdnnf",
    "FrozenObdd",
    "load_compiled",
    "load_store",
    "save_vtree",
    "load_vtree",
    "vtree_to_bytes",
    "vtree_from_bytes",
    "nnf_to_bytes",
    "nnf_from_bytes",
    "circuit_to_bytes",
    "circuit_from_bytes",
    "export_vtree_text",
    "export_sdd_text",
    "import_vtree_text",
    "import_sdd_text",
    "vtree_from_pysdd",
    "write_pysdd",
    "read_pysdd",
]
