"""Seeded instances for the three workloads, and the call each one times.

A workload is a list of *slots* solved once per round.  Every round draws
fresh random instances for its slots from the run's generator, so the same
seed gives the same inputs and every seed gives the same mix of families
and sizes.  The program sees only the generated spaces or documents.

  enum   solve_gap(space) with all three beta routes and the witness, near
         the enumeration cutoff.  The large-weight tree is the unit-range
         tree of the same round with every weight times 1e4, so the two
         differ only in scale.
  sweep  cli.main(["gap", <file>, "--report", "machine", "--witness"]) on a
         few hundred small documents written once per run; every round
         replays the same documents.
  bnb    solve_gap(space, use_bnb=True) past the cutoff with a node budget
         of 200 000.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import metricgap as mg
from metricgap import cli, gap

BNB_BUDGET = 200_000

STRICT, NONSTRICT, NOT_NEG, ERROR = "strict", "nonstrict", "not", "error"
VERDICTS = {
    STRICT: mg.STRICT_NEGATIVE_TYPE,
    NONSTRICT: mg.NEGATIVE_TYPE_NON_STRICT,
    NOT_NEG: mg.NOT_NEGATIVE_TYPE,
}
CLI_FLAGS = ("--report", "machine", "--witness")


@dataclass(eq=False)
class Instance:
    """One input: a metric space (enum, bnb) or a CLI document (sweep).

    ``family`` is ("tree", graph), ("cycle", n) or ("discrete", n) when a
    closed form applies at exponent ``p``, else None.  ``expect`` is the
    verdict the input must get; ``codes`` the exit codes a document may end
    with.
    """

    name: str
    n: int
    expect: str = STRICT
    family: tuple | None = None
    p: float = 1.0
    space: mg.MetricSpace | None = None
    text: str | None = None
    codes: tuple[int, ...] = (0,)
    path: str | None = None
    meta: dict = field(default_factory=dict)


def euclid_distances(rng, n: int) -> np.ndarray:
    """Distance matrix of n standard normal points in R^3."""
    pts = rng.standard_normal((n, 3))
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(d, 0.0)
    return d


def _tree_instance(name: str, tree: mg.WeightedGraph, **meta) -> Instance:
    return Instance(name, tree.n, family=("tree", tree), space=mg.path_metric(tree), meta=meta)


def _cycle_instance(n: int) -> Instance:
    return Instance(f"cycle{n}", n, family=("cycle", n), space=mg.path_metric(mg.gen_cycle(n)))


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def warm_up() -> None:
    mg.solve_gap(mg.path_metric(mg.gen_random_tree(8, seed=0)))


# ---------------------------------------------------------------- enum

def enum_round(rng) -> list[Instance]:
    tree = mg.gen_random_tree(19, weight_range=(0.1, 10.0), seed=_seed(rng))
    large = mg.WeightedGraph(tree.n, tuple((i, j, w * 1e4) for i, j, w in tree.edges))
    return [
        _tree_instance("tree19", tree, scale="unit"),
        _tree_instance("tree19_large", large, scale="large"),
        _cycle_instance(19),
        _cycle_instance(21),
        Instance("euclid20", 20, space=mg.validate_metric(euclid_distances(rng, 20))),
    ]


def enum_call(inst: Instance):
    return mg.solve_gap(inst.space)


# ---------------------------------------------------------------- bnb

def bnb_round(rng) -> list[Instance]:
    return [
        _cycle_instance(29),
        _cycle_instance(31),
        Instance("euclid30", 30, space=mg.validate_metric(euclid_distances(rng, 30))),
    ]


def bnb_call(inst: Instance, captured: list):
    """Branch-and-bound past the cutoff; ``captured`` receives its BnbResult.

    solve_gap keeps only the certified flag and the node count, so the
    bound is read from the result of the branch_and_bound call it makes.
    """
    original = gap.branch_and_bound

    @functools.wraps(original)
    def capture(*args, **kwargs):
        result = original(*args, **kwargs)
        captured.append(result)
        return result

    gap.branch_and_bound = capture
    try:
        return mg.solve_gap(inst.space, use_bnb=True, max_enum_n=inst.n - 1,
                            bnb_budget=BNB_BUDGET)
    finally:
        gap.branch_and_bound = original


# ---------------------------------------------------------------- sweep

# Inputs that escape cli.main with a traceback at the parent commit
# (ROADMAP item 4); the codes are the ones the documented contract asks for.
ITEM4_DOCUMENTS = (
    ('{"tree":{"edges":[["a",2,1]]}}', (2,)),
    ('{"tree":{"edges":[[1,2]]}}', (2,)),
    ('{"random_tree":{"n":5,"weight_range":"x"}}', (2,)),
    ('{"path":{"n":3,"weights":["a",1]}}', (2,)),
    ('{"distances":[[0,1e200],[1e200,0]],"p":2}', (2, 3)),
)


def _csv(matrix) -> str:
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)


def _weights(rng, count: int) -> list[float]:
    return [float(w) for w in rng.uniform(0.1, 10.0, count)]


def _random_edges(rng, n: int) -> list[tuple[int, int, float]]:
    """Random tree on 0..n-1: vertex i attaches to a uniform earlier one."""
    return [(int(rng.integers(0, i)), i, w) for i, w in zip(range(1, n), _weights(rng, n - 1))]


def _one_based(edges) -> list[list]:
    return [[i + 1, j + 1, w] for i, j, w in edges]


def _p3_not_negative(rng, n: int) -> np.ndarray:
    """A cloud whose cubed distances are clearly not of negative type.

    The test is independent of the package: the top eigenvalue of the
    doubly centred matrix J A J, relative to max|A|, must exceed 1e-6.
    Random clouds pass it almost always; the rest are redrawn.
    """
    j = np.eye(n) - 1.0 / n
    while True:
        d = euclid_distances(rng, n)
        a = d**3
        if np.linalg.eigvalsh(j @ a @ j)[-1] > 1e-6 * np.abs(a).max():
            return d


def _malformed(rng, k: int, n: int) -> str:
    """Documents the CLI must reject with exit 2."""
    w = _weights(rng, 1)[0]
    return [
        f'{{"cycle": {n}',
        json.dumps({"cycle": n, "colour": "red"}),
        json.dumps({"distances": [[0, w], [w]]}),
        json.dumps({"cycle": n, "p": -w}),
        f"0,{w}\n{w},0,1\n",
        f"0,{w}\nx,0\n",
        json.dumps([n]),
        json.dumps({"discrete": n + 0.5}),
        json.dumps({"cycle": n, "discrete": n}),
        "",
        json.dumps({"random_tree": {"seed": n}}),
        json.dumps({"edges": [[0, 1, w]]}),
    ][k]


def _axiom_violation(rng, k: int, n: int) -> str:
    """Documents the CLI must reject with exit 3."""
    d = euclid_distances(rng, n)
    if k == 0:
        d[0, 1] = d[1, 0] = d[0, 2] + d[2, 1] + 1.0
    elif k == 1:
        d[0, 1] = d[1, 0] = -0.5
    elif k == 2:
        d[1, 1] = 0.5
    elif k == 3:
        d[0, 1] += 1.0
    if k < 4:
        return json.dumps({"distances": d.tolist()})
    path = [[i, i + 1, w] for i, w in zip(range(1, n - 1), _weights(rng, n - 2))]
    return [
        json.dumps({"n": n, "edges": path}),
        json.dumps({"discrete": 1}),
        json.dumps({"cycle": 2}),
        json.dumps({"edges": path + [[2, 2, 1.0]]}),
        json.dumps({"edges": path + [[1, n - 1, -1.0]]}),
        json.dumps({"edges": path + [path[0]]}),
        json.dumps({"path": {"n": n, "weights": [1.0] * (n - 2)}}),
        json.dumps({"tree": {"edges": path + [[1, n - 1, 1.0]]}}),
    ][k - 4]


def sweep_documents(rng) -> list[Instance]:
    """The sweep's documents: n = 4..9 for every family, in fixed counts.

    Sizes cycle through 4..9 by position, so every seed has the same mix;
    the seed draws the weights, the points and the generator seeds.
    """
    docs: list[Instance] = []

    def add(kind, text, expect=STRICT, n=None, p=1.0, family=None, codes=None):
        if codes is None:
            codes = (4,) if expect == NOT_NEG else (0,)
        docs.append(Instance(f"{kind}-{len(docs):03d}", n or 0, expect, family, p,
                             text=text, codes=codes))

    for k in range(12):
        n = 4 + k % 6
        if k < 6:
            add("discrete", json.dumps({"discrete": n}), n=n, family=("discrete", n))
        else:
            add("discrete_csv", _csv(np.ones((n, n)) - np.eye(n)), n=n, family=("discrete", n))
    for k in range(18):
        n = 4 + k % 6
        if n % 2:
            add("cycle", json.dumps({"cycle": n}), n=n, family=("cycle", n))
        else:
            add("cycle", json.dumps({"cycle": n}), NONSTRICT, n=n)
    for k in range(18):
        n = 4 + k % 6
        if k % 2:
            weights = _weights(rng, n - 1)
            text = json.dumps({"path": {"n": n, "weights": weights}})
        else:
            weights = None
            text = json.dumps({"path": n})
        add("path", text, n=n, family=("tree", mg.gen_path(n, weights)))
    for k in range(18):
        n = 4 + k % 6
        edges = _random_edges(rng, n)
        add("tree", json.dumps({"tree": {"edges": _one_based(edges)}}), n=n,
            family=("tree", mg.gen_tree(edges, n=n)))
    for k in range(18):
        n = 4 + k % 6
        lo = float(rng.uniform(0.05, 1.0))
        hi = lo * float(rng.uniform(1.0, 100.0))
        seed = _seed(rng)
        spec = {"n": n, "seed": seed, "weight_range": [lo, hi]}
        add("random_tree", json.dumps({"random_tree": spec}), n=n,
            family=("tree", mg.gen_random_tree(n, weight_range=(lo, hi), seed=seed)))
    for k in range(12):
        n = 4 + k % 6
        edges = _random_edges(rng, n)
        add("edges_tree", json.dumps({"edges": _one_based(edges)}), n=n,
            family=("tree", mg.gen_tree(edges, n=n)))
    for k in range(12):
        n = 4 + k % 6
        ring = [[i + 1, (i + 1) % n + 1, 1.0] for i in range(n)]
        if n % 2:
            add("edges_cycle", json.dumps({"edges": ring}), n=n, family=("cycle", n))
        else:
            add("edges_cycle", json.dumps({"edges": ring}), NONSTRICT, n=n)
    for k in range(6):
        c = float(rng.uniform(0.1, 10.0))
        k23 = [[a, b, c] for a in (1, 2) for b in (3, 4, 5)]
        add("k23", json.dumps({"edges": k23}), NOT_NEG, n=5)
    for p in (0.5, 1.0, 2.0, 3.0):
        for k in range(18):
            if p == 2.0:
                n = 5 + k % 5
                d, expect = euclid_distances(rng, n), NONSTRICT
            elif p == 3.0:
                n = 4 + k % 6
                d, expect = _p3_not_negative(rng, n), NOT_NEG
            else:
                n = 4 + k % 6
                d, expect = euclid_distances(rng, n), STRICT
            add(f"euclid_p{p:g}", json.dumps({"distances": d.tolist(), "p": p}), expect,
                n=n, p=p)
    for k in range(12):
        n = 4 + k % 6
        add("euclid_csv", _csv(euclid_distances(rng, n)), n=n)
    for k in range(12):
        add("malformed", _malformed(rng, k, 4 + k % 6), ERROR, codes=(2,))
    for k in range(12):
        add("axiom", _axiom_violation(rng, k, 4 + k % 6), ERROR, codes=(3,))
    for text, codes in ITEM4_DOCUMENTS:
        add("item4", text, ERROR, codes=codes)
    return docs


def write_documents(docs: list[Instance], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        path = workdir / f"{doc.name}.txt"
        path.write_text(doc.text, encoding="utf-8")
        doc.path = str(path)


@dataclass(frozen=True)
class CliOutcome:
    code: int | None
    stdout: str
    error: str | None  # exception type and message when cli.main raised


def sweep_call(inst: Instance) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["gap", inst.path, *CLI_FLAGS])
        except Exception as e:  # a traceback is an outcome to record, not a crash
            return CliOutcome(None, out.getvalue(), f"{type(e).__name__}: {e}")
    return CliOutcome(code, out.getvalue(), None)
