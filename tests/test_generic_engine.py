"""One generic-engine adapter serves every CSP1 / CSP2-generic name.

``csp1[+...]``, ``csp2-generic[+...]`` and ``csp2+learn`` all run
through :class:`repro.solvers.generic_engine.GenericEngineSolver`.  Each
name must keep exactly the search it ran before the adapters were
merged: for every name (advertised and alias spellings) on the grid of
``tests/test_engine_regression.py`` with ``seed=2009``, plus a few option
variants, the ``SolveReport.to_dict()`` document minus its wall-time
fields (``elapsed``, ``stats.elapsed``) hashes to the pinned digest.  The
status and counters are pinned beside the digest so a failure says what
moved.  The pins were captured from the two separate adapters
(``Csp1GenericSolver`` / ``Csp2GenericSolver``) that preceded the merge.
When the chronological search stopped batching its counting rows, only
the ``propagations`` column and the digest of the non-learning names
were re-captured (the queue order changed; the per-node fixpoint is
confluent, so status, nodes and fails did not move).
"""

import hashlib
import json

import pytest

from repro.generator import GeneratorConfig, generate_instance
from repro.generator.named import running_example, running_example_platform
from repro.model.platform import Platform
from repro.solvers.problem import Problem, solve_problem
from repro.solvers.registry import solver_info

NODE_LIMIT = 20_000
SEED = 2009

#: None = the paper's running example, else (n, tmax, m, generator seed);
#: the grid of tests/test_engine_regression.py
SPECS = [None, (4, 4, 2, 11), (4, 4, 2, 12), (5, 4, 2, 23), (5, 5, 2, 31)]

#: (name, options) -> spec -> (status, nodes, fails, propagations,
#: sha256[:16] of the report document without its wall-time fields)
PINS = {
    ("csp1", ()): {
        None: ("feasible", 4850, 2413, 29392, "f7d7b65076659d17"),
        (4, 4, 2, 11): ("infeasible", 414, 208, 2263, "ce9ddb8ddef0d8e0"),
        (4, 4, 2, 12): ("feasible", 7, 1, 60, "3f584fa9210f57fb"),
        (5, 4, 2, 23): ("feasible", 29, 0, 198, "c3db1c4fade89c4c"),
        (5, 5, 2, 31): ("unknown", 20000, 9998, 153507, "c8cef78133f943fc"),
    },
    ("csp1+dom_deg", ()): {
        None: ("feasible", 6559, 3268, 20272, "af975e048bfe6bf0"),
        (4, 4, 2, 11): ("infeasible", 124, 63, 570, "7d85040b55ca5ae4"),
        (4, 4, 2, 12): ("feasible", 42, 18, 243, "37d236817ebe27c3"),
        (5, 4, 2, 23): ("feasible", 411, 191, 2314, "979bf664cb8ca034"),
        (5, 5, 2, 31): ("infeasible", 62, 32, 873, "4b57bd9f7f9910cf"),
    },
    ("csp1+input", ()): {
        None: ("feasible", 6559, 3268, 20272, "dc30b18e1e729fd5"),
        (4, 4, 2, 11): ("infeasible", 124, 63, 570, "82f1977f833b635b"),
        (4, 4, 2, 12): ("feasible", 42, 18, 243, "246bdf8b93475c10"),
        (5, 4, 2, 23): ("feasible", 761, 367, 4200, "aeb36d8ec8bae63a"),
        (5, 5, 2, 31): ("infeasible", 62, 32, 873, "737125035d9f2562"),
    },
    ("csp1+learn", ()): {
        None: ("feasible", 62, 17, 355, "d5a6b3b9f6a87c02"),
        (4, 4, 2, 11): ("infeasible", 14, 8, 133, "f8154467b8b3712a"),
        (4, 4, 2, 12): ("feasible", 17, 11, 197, "6d050786cf05aaf5"),
        (5, 4, 2, 23): ("feasible", 87, 11, 469, "eb25e730a35c003d"),
        (5, 5, 2, 31): ("infeasible", 6, 7, 467, "6496a593083384e4"),
    },
    ("csp1+min_dom", ()): {
        None: ("feasible", 4850, 2413, 29392, "0dcd5320080f4ddc"),
        (4, 4, 2, 11): ("infeasible", 414, 208, 2263, "61355cfa8e97ba0b"),
        (4, 4, 2, 12): ("feasible", 7, 1, 60, "bad1f2805cf5ba6c"),
        (5, 4, 2, 23): ("feasible", 29, 0, 198, "eadfe1a704a6b9ae"),
        (5, 5, 2, 31): ("unknown", 20000, 9998, 153507, "35691a1ad27977ac"),
    },
    ("csp2-generic", ()): {
        None: ("feasible", 20, 3, 83, "160363ca321c99c2"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "82540ac71df2738f"),
        (4, 4, 2, 12): ("feasible", 7, 1, 33, "0ee97a01a5992ff4"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "d751461722b0b2ea"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "0e69dd7200147788"),
    },
    ("csp2-generic+rm", ()): {
        None: ("feasible", 29, 10, 132, "b0b91f53257f7589"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "d446abe491fb1cd4"),
        (4, 4, 2, 12): ("feasible", 7, 1, 33, "0e8ee7a169d2caee"),
        (5, 4, 2, 23): ("feasible", 16, 2, 95, "d52de0ac7e236cd2"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "2a679e635aeeebd0"),
    },
    ("csp2-generic+dm", ()): {
        None: ("feasible", 29, 10, 132, "44bcd9d0ca701be6"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "f1481f95a3aecae9"),
        (4, 4, 2, 12): ("feasible", 13, 6, 59, "d5ba9d54ea549383"),
        (5, 4, 2, 23): ("feasible", 1210, 874, 4258, "4a8300a058141b76"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "f47f2b1117e2a1b6"),
    },
    ("csp2-generic+tc", ()): {
        None: ("feasible", 20, 3, 83, "7b299f1186a13d38"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "761362ee9f3fb72a"),
        (4, 4, 2, 12): ("feasible", 7, 1, 33, "ea629e4c62865f17"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "22d32d4954ca7ba3"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "3bd82489b8da10bc"),
    },
    ("csp2-generic+dc", ()): {
        None: ("feasible", 34, 15, 160, "716d0304109d56bb"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "ee42010b1c291a67"),
        (4, 4, 2, 12): ("feasible", 12, 5, 53, "1ee625007c010f02"),
        (5, 4, 2, 23): ("feasible", 1224, 886, 4320, "43d0eb4dc2991219"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "51e8b9c7fe8c11c3"),
    },
    ("csp2-generic+learn", ()): {
        None: ("feasible", 20, 3, 84, "4f77429cf205381b"),
        (4, 4, 2, 11): ("infeasible", 10, 4, 70, "42d75cfb86d42539"),
        (4, 4, 2, 12): ("feasible", 8, 1, 35, "de2181753290d070"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "821257c826222dc7"),
        (5, 5, 2, 31): ("infeasible", 12, 10, 187, "995fa5e762c275b1"),
    },
    ("csp2-generic+t-c", ()): {
        None: ("feasible", 20, 3, 83, "ee9f3df1065e4052"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "fff0dd711b44f331"),
        (4, 4, 2, 12): ("feasible", 7, 1, 33, "2d593e6bf8b98477"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "f66511c7ba3527e5"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "18c100cd2a2b745d"),
    },
    ("csp2-generic+(t-c)", ()): {
        None: ("feasible", 20, 3, 83, "ed840d4556fda3b0"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "884ba47c6ac9eda6"),
        (4, 4, 2, 12): ("feasible", 7, 1, 33, "ae5138f66cbd939a"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "fe21cce64d5a80c5"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "71eef7a1d5371884"),
    },
    ("csp2-generic+d-c", ()): {
        None: ("feasible", 34, 15, 160, "7ad416dae13563ba"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "aec4a5311e636783"),
        (4, 4, 2, 12): ("feasible", 12, 5, 53, "245406a3c9cee4fc"),
        (5, 4, 2, 23): ("feasible", 1224, 886, 4320, "d6957e4e35cb4a82"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "99fdd20d145b2433"),
    },
    ("csp2-generic+(d-c)", ()): {
        None: ("feasible", 34, 15, 160, "ffb97ae46acf0d34"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "c17b4cdaaec3396d"),
        (4, 4, 2, 12): ("feasible", 12, 5, 53, "348751269db19bd5"),
        (5, 4, 2, 23): ("feasible", 1224, 886, 4320, "f940b5b07bc8d465"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "15f83d69fcc862f5"),
    },
    ("csp2-generic+none", ()): {
        None: ("feasible", 20, 3, 83, "138c7436a0507ea3"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 174, "30963ab7c6edd0b0"),
        (4, 4, 2, 12): ("feasible", 7, 1, 33, "0d9242dd1f808a83"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "ffad97f7acbe2a56"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 218, "67076c679892bdea"),
    },
    ("csp2+learn", ()): {
        None: ("feasible", 23, 10, 148, "ccee423c72b0a757"),
        (4, 4, 2, 11): ("infeasible", 10, 4, 70, "f487703b4bdc19c7"),
        (4, 4, 2, 12): ("feasible", 10, 5, 56, "713e00b8b237c4b2"),
        (5, 4, 2, 23): ("feasible", 36, 17, 260, "56710ca852f27ade"),
        (5, 5, 2, 31): ("infeasible", 11, 9, 185, "b8525699af9db6de"),
    },
    ("csp1+learn", (("nogood_limit", 8),)): {
        None: ("feasible", 70, 22, 380, "70f1523770f3f930"),
        (4, 4, 2, 11): ("infeasible", 14, 8, 133, "f8154467b8b3712a"),
        (4, 4, 2, 12): ("feasible", 18, 12, 201, "58e960bc564cf559"),
        (5, 4, 2, 23): ("feasible", 87, 11, 469, "ead7dfbae7e37c63"),
        (5, 5, 2, 31): ("infeasible", 6, 7, 467, "6496a593083384e4"),
    },
    ("csp2-generic+dc", (("symmetry_breaking", False),)): {
        None: ("feasible", 22, 1, 70, "9d6068e40cad8882"),
        (4, 4, 2, 11): ("infeasible", 317, 220, 739, "85b6f8c91310a797"),
        (4, 4, 2, 12): ("feasible", 6, 0, 22, "45a7abd7594df074"),
        (5, 4, 2, 23): ("feasible", 19, 0, 77, "edd84940090668ca"),
        (5, 5, 2, 31): ("infeasible", 204, 166, 638, "3018a5c1681357ed"),
    },
    ("csp2-generic+learn", (("chronological", False),)): {
        None: ("feasible", 21, 1, 75, "6aa46b1bf59af50c"),
        (4, 4, 2, 11): ("infeasible", 21, 9, 101, "c7b4bc51f16449aa"),
        (4, 4, 2, 12): ("feasible", 7, 0, 26, "89ebb7c2ee31d489"),
        (5, 4, 2, 23): ("feasible", 15, 0, 80, "c38560b8bfe530d5"),
        (5, 5, 2, 31): ("infeasible", 61, 20, 262, "b3ddb19e05683cb5"),
    },
    ("csp2-generic+learn", (("nogood_limit", 8),)): {
        None: ("feasible", 20, 3, 84, "4f77429cf205381b"),
        (4, 4, 2, 11): ("infeasible", 10, 4, 70, "42d75cfb86d42539"),
        (4, 4, 2, 12): ("feasible", 8, 1, 35, "de2181753290d070"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "821257c826222dc7"),
        (5, 5, 2, 31): ("infeasible", 12, 10, 187, "c093cae420f40e7a"),
    },
    ("csp2+learn", (("nogood_limit", 8), ("symmetry_breaking", False))): {
        None: ("feasible", 22, 1, 70, "c91cb685c68e1c95"),
        (4, 4, 2, 11): ("infeasible", 19, 11, 103, "b21c6e1880dd1984"),
        (4, 4, 2, 12): ("feasible", 6, 0, 22, "c2729b06880da18d"),
        (5, 4, 2, 23): ("feasible", 19, 0, 77, "53aff118494fe6e2"),
        (5, 5, 2, 31): ("infeasible", 27, 24, 255, "ef45cf5a2583a1ca"),
    },
}


def _instance(spec):
    if spec is None:
        return running_example(), running_example_platform()
    n, tmax, m, seed = spec
    inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
    return inst.system, Platform.identical(inst.m)


def _pinned(name, options, spec):
    system, platform = _instance(spec)
    problem = Problem.of(
        system, platform=platform, node_limit=NODE_LIMIT, seed=SEED
    )
    doc = solve_problem(problem, name, **dict(options)).to_dict()
    del doc["elapsed"], doc["stats"]["elapsed"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
    stats = doc["stats"]
    return (
        doc["status"], stats["nodes"], stats["fails"], stats["propagations"],
        digest.hexdigest()[:16],
    )


def test_pins_cover_every_generic_engine_name():
    names = {"csp2+learn"}
    for base in ("csp1", "csp2-generic"):
        info = solver_info(base)
        names.update(info.names())
        names.update(f"{base}+{s}" for s in info.hidden_suffixes)
    assert {name for name, options in PINS if not options} == names
    assert all(set(cells) == set(SPECS) for cells in PINS.values())


@pytest.mark.parametrize("name,options", list(PINS), ids=str)
def test_report_matches_the_separate_adapters(name, options):
    got = {spec: _pinned(name, options, spec) for spec in SPECS}
    assert got == PINS[(name, options)]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_csp1_input_is_the_unseeded_csp1_search(spec):
    """Every CSP1 variable is 0/1, so min-domain with no random
    tie-break already branches in input order: ``csp1+input`` runs the
    search of ``csp1`` with ``seed=None``."""
    system, platform = _instance(spec)
    got = []
    for name, seed in (("csp1+input", SEED), ("csp1", None)):
        problem = Problem.of(
            system, platform=platform, node_limit=NODE_LIMIT, seed=seed
        )
        doc = solve_problem(problem, name).to_dict()
        stats = doc["stats"]
        got.append(
            (doc["status"], stats["nodes"], stats["fails"], stats["propagations"])
        )
    assert got[0] == got[1]
