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
        None: ("feasible", 4850, 2413, 26374, "5fbdda087e1bd507"),
        (4, 4, 2, 11): ("infeasible", 414, 208, 2109, "393f600a346b5b59"),
        (4, 4, 2, 12): ("feasible", 7, 1, 57, "c171e6d54149c3f3"),
        (5, 4, 2, 23): ("feasible", 29, 0, 165, "ed98e9f217e2cd3a"),
        (5, 5, 2, 31): ("unknown", 20000, 9998, 143784, "8ba7a743653efa53"),
    },
    ("csp1+dom_deg", ()): {
        None: ("feasible", 6559, 3268, 19390, "80d2ac6cfd788283"),
        (4, 4, 2, 11): ("infeasible", 124, 63, 558, "6d9e529fb25d9264"),
        (4, 4, 2, 12): ("feasible", 42, 18, 227, "ad55fb27a7b28121"),
        (5, 4, 2, 23): ("feasible", 411, 191, 2054, "b3a205e1db86992d"),
        (5, 5, 2, 31): ("infeasible", 62, 32, 821, "b98a8c925a826749"),
    },
    ("csp1+input", ()): {
        None: ("feasible", 6559, 3268, 19390, "9bccb8851673a2bb"),
        (4, 4, 2, 11): ("infeasible", 124, 63, 558, "9bf7916e98d32b01"),
        (4, 4, 2, 12): ("feasible", 42, 18, 227, "a9ce460ba04037b0"),
        (5, 4, 2, 23): ("feasible", 761, 367, 3760, "5088f0b6a1255379"),
        (5, 5, 2, 31): ("infeasible", 62, 32, 821, "294df8ca65fb1404"),
    },
    ("csp1+learn", ()): {
        None: ("feasible", 62, 17, 355, "d5a6b3b9f6a87c02"),
        (4, 4, 2, 11): ("infeasible", 14, 8, 133, "f8154467b8b3712a"),
        (4, 4, 2, 12): ("feasible", 17, 11, 197, "6d050786cf05aaf5"),
        (5, 4, 2, 23): ("feasible", 87, 11, 469, "eb25e730a35c003d"),
        (5, 5, 2, 31): ("infeasible", 6, 7, 467, "6496a593083384e4"),
    },
    ("csp1+min_dom", ()): {
        None: ("feasible", 4850, 2413, 26374, "1a30ce2c547e9c0f"),
        (4, 4, 2, 11): ("infeasible", 414, 208, 2109, "a3e3bc528971044c"),
        (4, 4, 2, 12): ("feasible", 7, 1, 57, "a3ecb16816d6d7f9"),
        (5, 4, 2, 23): ("feasible", 29, 0, 165, "2af87cf1942c0443"),
        (5, 5, 2, 31): ("unknown", 20000, 9998, 143784, "db2a5c1cfb03ddbb"),
    },
    ("csp2-generic", ()): {
        None: ("feasible", 20, 3, 73, "8856f8c953a82045"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "ee26081ee7a340ba"),
        (4, 4, 2, 12): ("feasible", 7, 1, 28, "2a4cbab8932a4a76"),
        (5, 4, 2, 23): ("feasible", 15, 1, 73, "00a49f5f80042127"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "8753d9a113a7b5b6"),
    },
    ("csp2-generic+rm", ()): {
        None: ("feasible", 29, 10, 96, "5cf2db322d81232b"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "a349763659ae7ff9"),
        (4, 4, 2, 12): ("feasible", 7, 1, 28, "bf7b5dc91ab82764"),
        (5, 4, 2, 23): ("feasible", 16, 2, 78, "b3afb411e173c237"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "b2ebbf7745e012f2"),
    },
    ("csp2-generic+dm", ()): {
        None: ("feasible", 29, 10, 96, "e64f05d74c6d3169"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "2d8e16d773a1608d"),
        (4, 4, 2, 12): ("feasible", 13, 6, 43, "ce1642a97bb234f3"),
        (5, 4, 2, 23): ("feasible", 1210, 874, 1981, "ae9d635e7bc03f87"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "edb9cc701aae2471"),
    },
    ("csp2-generic+tc", ()): {
        None: ("feasible", 20, 3, 73, "d7e621eccd6007c0"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "b1c3baefec4e4211"),
        (4, 4, 2, 12): ("feasible", 7, 1, 28, "e76cc08cebd0ff79"),
        (5, 4, 2, 23): ("feasible", 15, 1, 73, "de7003070faa9d30"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "064c2bb714aa110e"),
    },
    ("csp2-generic+dc", ()): {
        None: ("feasible", 34, 15, 114, "bc2b8f738aa72e6d"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "74904b0ac7592647"),
        (4, 4, 2, 12): ("feasible", 12, 5, 39, "beea2a6a88d1f42b"),
        (5, 4, 2, 23): ("feasible", 1224, 886, 2001, "f642b5818c5e50c2"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "e15e671856c8406a"),
    },
    ("csp2-generic+learn", ()): {
        None: ("feasible", 20, 3, 84, "4f77429cf205381b"),
        (4, 4, 2, 11): ("infeasible", 10, 4, 70, "42d75cfb86d42539"),
        (4, 4, 2, 12): ("feasible", 8, 1, 35, "de2181753290d070"),
        (5, 4, 2, 23): ("feasible", 15, 1, 88, "821257c826222dc7"),
        (5, 5, 2, 31): ("infeasible", 12, 10, 187, "995fa5e762c275b1"),
    },
    ("csp2-generic+t-c", ()): {
        None: ("feasible", 20, 3, 73, "596a85ae5efc6f93"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "4bee0b15d25983ad"),
        (4, 4, 2, 12): ("feasible", 7, 1, 28, "ab1fd03d2f887014"),
        (5, 4, 2, 23): ("feasible", 15, 1, 73, "2f259fd4620e8cef"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "a75e1ea016194cd8"),
    },
    ("csp2-generic+(t-c)", ()): {
        None: ("feasible", 20, 3, 73, "263f80ec14d05409"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "23d8d019a049fe3e"),
        (4, 4, 2, 12): ("feasible", 7, 1, 28, "1d982662a8f650fe"),
        (5, 4, 2, 23): ("feasible", 15, 1, 73, "31ebebefa6ab931d"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "44ca28f8f72a5cbd"),
    },
    ("csp2-generic+d-c", ()): {
        None: ("feasible", 34, 15, 114, "e5f3d6223c14fe67"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "b3805c039c5c5262"),
        (4, 4, 2, 12): ("feasible", 12, 5, 39, "0a394671e0cf3a13"),
        (5, 4, 2, 23): ("feasible", 1224, 886, 2001, "45afef581b25cd0a"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "ca0a3b2915362716"),
    },
    ("csp2-generic+(d-c)", ()): {
        None: ("feasible", 34, 15, 114, "05b160b59a11a92b"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "7f6e882eab7c29b3"),
        (4, 4, 2, 12): ("feasible", 12, 5, 39, "cf468d08ce18a04a"),
        (5, 4, 2, 23): ("feasible", 1224, 886, 2001, "5a75a9a6bcf64152"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "126db5da17acc106"),
    },
    ("csp2-generic+none", ()): {
        None: ("feasible", 20, 3, 73, "8d9f9641fcd06ac9"),
        (4, 4, 2, 11): ("infeasible", 49, 35, 134, "e30257e1531c2c71"),
        (4, 4, 2, 12): ("feasible", 7, 1, 28, "367a3dc4a2b024c1"),
        (5, 4, 2, 23): ("feasible", 15, 1, 73, "9577eeb00924c018"),
        (5, 5, 2, 31): ("infeasible", 31, 26, 179, "cd05ba8d7d0e5ea1"),
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
        None: ("feasible", 22, 1, 57, "3cebf8616c37d9ac"),
        (4, 4, 2, 11): ("infeasible", 317, 220, 503, "640205808ae776db"),
        (4, 4, 2, 12): ("feasible", 6, 0, 18, "b0cc3beb4a677f1b"),
        (5, 4, 2, 23): ("feasible", 19, 0, 59, "1c7fc11f768ccd4b"),
        (5, 5, 2, 31): ("infeasible", 204, 166, 369, "ae32fd2b65a161c3"),
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

