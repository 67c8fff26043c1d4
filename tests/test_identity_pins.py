"""Pinned outputs of both Result-1 routes on fixed circuits.

Every constant below was generated from the list-and-dataclass
decomposition code that the array-backed one replaced, and the array code
must reproduce each of them exactly:

- the sha256 of the d-DNNF DAG tables (kinds, children, literals) and root;
- ``DdnnfResult.stats()``;
- the Lemma-1 vtree (its postfix) and the decomposition width;
- the heuristic elimination orders and the heuristic decomposition's bags.

The circuits are the five of perfbench's kc-circuits workload and 50
seeded random circuits, small enough that a third of them take the exact
treewidth DP (at most 12 gates) and the rest the heuristics.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuits.build import chain_and_or, grid, ladder
from repro.circuits.random_circuits import random_circuit
from repro.core.pipeline import vtree_from_circuit
from repro.dnnf.builder import build_ddnnf
from repro.graphs.elimination import (
    heuristic_tree_decomposition,
    min_degree_order,
    min_fill_order,
)

RANDOM_CASES = 50


def _lineage2():
    from repro.queries.database import complete_database
    from repro.queries.lineage import lineage_circuit
    from repro.queries.syntax import parse_ucq

    db = complete_database({"R": 1, "S": 2, "T": 1, "U": 2}, 2)
    return lineage_circuit(parse_ucq("S(x,y),S(y,z),U(z,w)"), db)


NAMED = {
    "grid(3,4)": lambda: grid(3, 4),
    "grid(4,3)": lambda: grid(4, 3),
    "chain_and_or(60)": lambda: chain_and_or(60),
    "ladder(20)": lambda: ladder(20),
    "lineage2": _lineage2,
}


def random_case(seed: int):
    rng = np.random.default_rng(seed)
    return random_circuit(rng, n_vars=2 + seed % 7, n_gates=3 + (seed * 5) % 24)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def fingerprint(circuit) -> dict:
    result = build_ddnnf(circuit)
    dag = result.dag
    vtree, width = vtree_from_circuit(circuit)
    graph = circuit.graph()
    td = heuristic_tree_decomposition(graph)
    return {
        "dag": _digest((dag.node_kind, dag.node_children, dag.node_var,
                        dag.node_sign, result.root)),
        "stats": result.stats(),
        "vtree": _digest(vtree.to_postfix()),
        "width": width,
        "orders": _digest((min_degree_order(graph), min_fill_order(graph))),
        "bags": _digest([sorted(td.bags[i]) for i in range(len(td.bags))]),
    }


def short(fp: dict) -> tuple:
    """One random case's pins: the stats go in as a digest."""
    return (fp["dag"], _digest(sorted(fp["stats"].items())), fp["vtree"],
            fp["width"], fp["orders"], fp["bags"])


NAMED_PINS = {'grid(3,4)': {'dag': '6975ae46f7613d0f',
               'stats': {'states_peak': 168,
                         'states_total': 4917,
                         'or_merges': 239,
                         'pruned_unjustified': 245,
                         'pruned_output': 1,
                         'bags_leaf': 16,
                         'bags_introduce': 137,
                         'bags_forget': 45,
                         'bags_join': 15,
                         'friendly_width': 6,
                         'nodes': 240,
                         'unique_hits': 955,
                         'unique_misses': 238},
               'vtree': 'fb668c2190ad1604',
               'width': 6,
               'orders': '56d9922e89e25e38',
               'bags': '7b33b93a4be1a301'},
 'grid(4,3)': {'dag': 'f422cc0840dff477',
               'stats': {'states_peak': 48,
                         'states_total': 2623,
                         'or_merges': 146,
                         'pruned_unjustified': 149,
                         'pruned_output': 1,
                         'bags_leaf': 16,
                         'bags_introduce': 119,
                         'bags_forget': 45,
                         'bags_join': 15,
                         'friendly_width': 4,
                         'nodes': 191,
                         'unique_hits': 527,
                         'unique_misses': 189},
               'vtree': '228d476e58efa2e4',
               'width': 4,
               'orders': '7056cecc364c75ad',
               'bags': 'e30f262b49af0ade'},
 'chain_and_or(60)': {'dag': '3730827ecd1050f5',
                      'stats': {'states_peak': 12,
                                'states_total': 3703,
                                'or_merges': 286,
                                'pruned_unjustified': 325,
                                'pruned_output': 2,
                                'bags_leaf': 57,
                                'bags_introduce': 344,
                                'bags_forget': 177,
                                'bags_join': 56,
                                'friendly_width': 2,
                                'nodes': 803,
                                'unique_hits': 547,
                                'unique_misses': 801},
                      'vtree': '594727b852085f10',
                      'width': 2,
                      'orders': '0026466a9857c8dc',
                      'bags': 'a1e10ff119174e1b'},
 'ladder(20)': {'dag': '234109a0927f36fc',
                'stats': {'states_peak': 60,
                          'states_total': 10244,
                          'or_merges': 678,
                          'pruned_unjustified': 851,
                          'pruned_output': 3,
                          'bags_leaf': 59,
                          'bags_introduce': 416,
                          'bags_forget': 136,
                          'bags_join': 58,
                          'friendly_width': 4,
                          'nodes': 920,
                          'unique_hits': 2245,
                          'unique_misses': 918},
                'vtree': 'e28884c285305609',
                'width': 4,
                'orders': '7233df22c5737ea6',
                'bags': '9c27d63c6061624e'},
 'lineage2': {'dag': '913098a76387b18c',
              'stats': {'states_peak': 32,
                        'states_total': 704,
                        'or_merges': 51,
                        'pruned_unjustified': 54,
                        'pruned_output': 1,
                        'bags_leaf': 9,
                        'bags_introduce': 55,
                        'bags_forget': 25,
                        'bags_join': 8,
                        'friendly_width': 3,
                        'nodes': 140,
                        'unique_hits': 97,
                        'unique_misses': 138},
              'vtree': '8c85c16152197391',
              'width': 3,
              'orders': '139dcc63dde46a10',
              'bags': 'bb6d5d1267154998'}}

RANDOM_PINS = [
    ('5668f4995190c1f7', '94928fbad46d5066', '36f52771f630e8a7', 3, '99c8a1393f5b226a', '6e9146368a2d32ed'),
    ('0ec720532abb8992', '480f3c3cdaf33675', 'f4058666710b9e3e', 4, '9e1bbec7153c380b', 'b272f30b3af12c99'),
    ('349ca20b06ae6426', 'd42dc56a601ee7c6', '20b9de60814ae094', 4, '8efc732658cee8ff', 'b71acb25a1a15fd7'),
    ('1052924744b0fea8', '260030ed59876573', '64139d657e7fafc7', 7, 'b0746ce310187a8a', 'd2299668ba92e33a'),
    ('4d46ffa2bc36c74c', '6e7a07690520e104', '7f20d523687aa147', 6, 'f333c18240775f56', '8cc9f5659c2aa743'),
    ('5309abb9bfa3ee48', '67e50cab80ba4cfc', '427258963ca8f54e', 2, '9d19b4fd27383118', '4da33015b407ae6e'),
    ('e8cda39db3dac737', '686cdd7854931083', '6cf83043b471ac50', 3, '23fb69a7109ddd3e', '7c2a4fceeed8bc57'),
    ('9a13c38382763fd7', '6440c9cc2da701f7', '36f52771f630e8a7', 5, '620b98a0248d169f', '241729ef187a1936'),
    ('12106c3f979bd7be', 'f096e5d0976b5b5e', 'f1c084d10c4747a7', 5, '98e2420319cde0a4', '783f58fa10c10bb3'),
    ('0502935a6c7340d5', 'ba3c63eff2dbf50c', '3917fabd7fac3648', 5, '0e2aa92eef0323b2', 'fd77739f92f954c9'),
    ('794361ba21bef41d', '8cae632ae530a470', '8ff4153ad35b4839', 3, 'db9d1801daf13a22', '13cd55487341356b'),
    ('f66a60b7c5ab66e8', '869cd0007fd36395', 'd56f9263739713db', 2, '103da68207fe1ce3', 'a209ebf025d60040'),
    ('f8d32d6f6cf53071', '196e2095d6b47818', '43833a1d896e01dc', 3, 'c55b3ccfc7462088', '92dec3b516eb4136'),
    ('f7c3c91d864164bf', '2cecc5f37e4634eb', 'ddd5096b1a91344d', 6, 'c20162cb647b056e', '2c3dfc13b0f907bb'),
    ('25a90d7bb6929d5a', 'ae1c53bb79a9d43a', '36f52771f630e8a7', 6, '73ab6d04aeba6704', 'eb147fcd6d74a55c'),
    ('ebe4846f3d62043b', '74739a4379fcfcef', 'f4058666710b9e3e', 3, '73fc62694a157e5b', '90b5c26dbb79d7d0'),
    ('1f46b17e33b75465', '72798b950ced0fcb', '262e76e6689c0a84', 4, '1da71b38ebdb1170', '2f1ce122fd4c1ead'),
    ('d96d3b6751b77b81', 'a859a5596bf2b9eb', '23a3ed84e18bc9bd', 5, '4862733f2e70f370', '606ed2828b032036'),
    ('619fc1f123a6eb69', '4ba96076a5d54c10', '9b217f144ad6d5eb', 5, 'c837495afeacf612', '52469519773944ad'),
    ('478444a0c9cc119c', '1bdaca47e31fa7bb', '914b995d3c7860c3', 6, 'f24e5686a1eb89e0', '2432a333d145fc3d'),
    ('2d53f0ad8a34e2e3', '884619f2b7ecbea8', '6f14d6a670f355a7', 2, '4f642df17cc3fb12', '949a7eae8ffe26b1'),
    ('e2ba644f6fdf4de8', '22323861d97c8004', '36f52771f630e8a7', 6, 'e113504977d3ced5', 'd42d31972c58c5d9'),
    ('abdb4a82d37cab32', '4714c272eca3dbf5', '491b6ad25814ccb4', 5, '329bea2c9225e5b0', 'cb7cec118a74f4b4'),
    ('3a675bef898e6bb7', '5ffdcc1c4818ef75', '8f62ce97502b42c4', 7, '9eed95e481e5270a', 'c1bb38d1425650e7'),
    ('d039b8066faafa3a', 'b563f7149a30217f', '808f702a150a1252', 2, '3a83b54b87d8aebb', '4c7bf7ab3e506e96'),
    ('538539c9f65cce2d', '5b90d3edade282cc', '6287b8034ac5bc92', 3, '45172f3fb8b7b1c9', 'bfebe4bc5052a3b9'),
    ('926a7fa4e9aaef58', '73df4b2269c8daf2', 'f186ada9ca97c531', 5, '63f1301408230593', 'c2464adf4e7bd15a'),
    ('c89d36839bb7572d', '9025faf2bfcf9202', '2b245fc0d1b78aa8', 4, 'ca5fb831d6e7bfac', '23ac14de97e2dfb2'),
    ('d3768f4213c8a407', '73061fe44834bae8', '36f52771f630e8a7', 7, '9e782e8602fd6509', '30a33aca93b57d5f'),
    ('2428c3ebda629ed0', '18e3588669f560a6', '3f9732e90d8db882', 2, 'd629607ba4bb8231', '5834d3cbb9d7c705'),
    ('9f877df5cffa951b', '569ae0362b17cbe9', '107d1dbc2a43687d', 3, '2e57889516b48fa4', '8ac8a0ef94f8ac78'),
    ('4c0f068d79474ea2', '6e9f726425361c3e', 'c949f2fd4ca3d287', 6, '4c0d2b54fb349a6d', 'b6a3afddc7b1cb6e'),
    ('1a8268d0e7c235e4', 'a8f1e9dd7ee1d884', 'a18556f143c44d84', 6, '5a71040e66b6e4a0', 'ecaf7a0618acfb61'),
    ('08b2c26fec077ae2', 'a534cc81129f0217', '42c5ab7b344fe817', 4, 'cb3e329d913b6758', '8090f49e9361459c'),
    ('283a991747817787', '6f185f19a1103c69', 'beec4904fb8e4db2', 2, 'cbe3a4a47d366b55', '986d751c9fc2a7bf'),
    ('23918306c32acc2c', '53bff78722ebc940', '36f52771f630e8a7', 3, 'eb0e07685a4cf1f2', '1616202b661a82d5'),
    ('587dc926046e2c4d', '60e1123411f831cf', '3f9732e90d8db882', 4, 'e7c2349d3c1f9335', '78b80a0621f27919'),
    ('c791d74cc161a307', 'c70301c4f0529adc', '9782de079f73e1aa', 6, '0aff35b1879b95a5', 'a30a752207124cd3'),
    ('8a594dfd71a76e85', 'b0ead89fe3d7b9f9', '8ff4153ad35b4839', 5, '9b56d110cbfc3044', '1ee4ad4ac02c98e8'),
    ('f2efcf6fa36ef290', '3acff891a93581a6', '7ea075bd7ff7ea84', 3, 'bbe703f949b10581', 'ecdb721b3b97411f'),
    ('45e75d44912a94fb', 'a49e281d9e8b9604', '6acb776ad7782ff5', 3, '747fe167ab09d174', '8b4d0fd87696f50a'),
    ('bf56193ea4ecb790', '80f197443a36b90f', 'd5e532cf5a10ef54', 5, '529c29e1a7da5324', '03d1ed94147d702e'),
    ('315910b306212373', '5d53c949920a51e6', '36f52771f630e8a7', 7, '891134e60021c531', '22a980e29265d3cf'),
    ('1971e3acdecec894', '3c622b266604615f', '491b6ad25814ccb4', 8, '1095062e9ad2effd', 'd5c7f393c1cd8161'),
    ('c5294c71f5c59ba3', '308bd332e66d9764', '20b9de60814ae094', 3, 'cb35b0f09fed22b6', 'd7b03b3cc39ab223'),
    ('f5429450e5be7a6e', 'e7746332da130cf5', '300e5ea65ea65938', 5, 'e90bfc4a94ae3bb2', 'aec14384efea81e8'),
    ('15002e2c502f2079', '2cbc8dace91f0fb6', '3156107dd13acffb', 5, '613c0c761320df9d', '59dd851c43d8d392'),
    ('a7d7c3e06e3eab45', '4f7df9882b066063', '0c0a0ca158c9425e', 6, 'bb5fee4f0e3cefca', 'ebb16f1f8cb66031'),
    ('da0e3f12b48faa06', 'ca6bed5caee5ab2e', '5345bf5ebff5329e', 2, 'a6b3ca7712167468', 'deaed4bc94d7fd97'),
    ('9ef5cb9425343b94', '39240507c275f93d', '64fa3bea12c71633', 3, '8f88a1cf60bf9b2a', 'ce4ebbbf2bc966c1'),
]


@pytest.mark.parametrize("name", NAMED)
def test_named_circuit_outputs_are_pinned(name):
    assert fingerprint(NAMED[name]()) == NAMED_PINS[name]


@pytest.mark.parametrize("seed", range(RANDOM_CASES))
def test_random_circuit_outputs_are_pinned(seed):
    assert short(fingerprint(random_case(seed))) == RANDOM_PINS[seed]
