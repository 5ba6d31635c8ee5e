"""The benchmark's workloads: seeded inputs, the checks a pass times, their known answers.

Nothing here imports hyperbmc at module level, because the worker times that
import as part of set-up. Each `build_*` function takes the imported package
namespace and a seeded `random.Random`, builds the inputs and returns the
pass's checks in order.

The known answers come from outside the checker: the paper's verdicts and
bounds, a breadth-first search on the grid map done here, and the brute-force
oracle at a small bound.
"""

import dataclasses
import random
import re
from collections import deque
from typing import Callable

# Seed 0 keeps every model's declared state order. Tune on DEFAULT_SEED;
# confirm a claimed gain on HELD_OUT_SEED as well.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

GRID_K = 20
GRID_DISTANCE = 16  # the paper's shortest path on its 10x10 map

AE_MODEL = """\
ap a;
states s0 s1;
init s0;
label s0 {a};
label s1 {};
trans s0 -> s0;
trans s0 -> s1;
trans s1 -> s0;
trans s1 -> s1;
"""
AE_FORMULA = "forall A. exists B. G (a[A] <-> a[B])"
AE_K_MAX = 15
AE_ORACLE_K = 4  # small enough for the oracle to enumerate every prefix pair

# Check names per workload, in pass order. The parent process reads these
# without importing hyperbmc, to count a pass that never reported as failed.
CHECKS = {
    "paper-cases": ("bakery2-symmetry", "nonrep-incorrect", "nonrep-correct"),
    "grid10-plan": ("grid10-k20",),
    "ae-sweep": ("ae-k0-15",),
}


@dataclasses.dataclass
class Check:
    name: str
    run: Callable  # () -> result; the timed part
    judge: Callable  # result -> None when correct, else the reason it is not


def build(workload, hb, seed):
    """Inputs and checks of one pass; the same seed gives the same inputs."""
    builders = {
        "paper-cases": build_paper_cases,
        "grid10-plan": build_grid10_plan,
        "ae-sweep": build_ae_sweep,
    }
    checks = builders[workload](hb, random.Random(seed) if seed else None)
    if tuple(c.name for c in checks) != CHECKS[workload]:
        raise ValueError(f"{workload} builds checks {[c.name for c in checks]}, not {CHECKS[workload]}")
    return checks


def permuted(hb, structure, rng):
    """`structure` with its states declared in a seeded order, init in its old place.

    Declaration order fixes each state's state-bit code, and so the outer
    DPLL's branching order, but no verdict. A gain that rests on one lucky
    order shows as a spread across seeds.
    """
    if rng is not None:
        order = [s for s in structure.states if s != structure.init]
        rng.shuffle(order)
        order.insert(structure.states.index(structure.init), structure.init)
        structure = dataclasses.replace(structure, states=tuple(order))
    hb.kripke.validate(structure)
    return structure


def expect_verdict(interpretation, k, qbf_value, witness):
    def judge(verdict):
        want = (interpretation, k, qbf_value, witness)
        got = (verdict.interpretation, verdict.k, verdict.qbf_value, verdict.witness is not None)
        if got != want:
            return f"expected (verdict, k, qbf value, witness) = {want}, got {got}"
        return None

    return judge


def build_paper_cases(hb, rng):
    models, hl, driver, oracle = hb.models, hb.hyperltl, hb.driver, hb.oracle
    bakery = permuted(hb, models.gen_bakery(2), rng)
    incorrect = permuted(hb, models.gen_nonrepudiation("incorrect"), rng)
    correct = permuted(hb, models.gen_nonrepudiation("correct"), rng)
    symmetry = hl.parse_formula(models.builtin_spec("symmetry").formula)
    fair = hl.parse_formula(models.builtin_spec("fair_nonrepudiation").formula)

    def negated(formula, model, k_from, k_max, semantics):
        (_, a), (_, b) = formula.prefix
        return driver.CheckConfig(
            formula=formula, models={a: model, b: model}, k_from=k_from, k_max=k_max,
            semantics=semantics, negate_first=True,
        )

    falsify = negated(symmetry, bakery, 0, 20, oracle.PES)
    refute = negated(fair, incorrect, 15, 15, oracle.HPES)
    prove = negated(fair, correct, 15, 15, oracle.HOPT)
    return [
        Check("bakery2-symmetry", lambda: driver.check(falsify),
              expect_verdict(driver.FAILS, 4, True, True)),
        Check("nonrep-incorrect", lambda: driver.check(refute),
              expect_verdict(driver.FAILS, 15, True, False)),
        Check("nonrep-correct", lambda: driver.check(prove),
              expect_verdict(driver.HOLDS, 15, False, False)),
    ]


def build_grid10_plan(hb, rng):
    """The shortest_path pipeline of check() for one bound, without its witness re-check.

    driver.check cannot run this instance yet: oracle.verify_witness
    enumerates all count_prefixes(grid10, 20) = 2,353,498,645 prefixes
    before it compares the total with ENUMERATION_CAP.
    """
    models, hl, driver, oracle = hb.models, hb.hyperltl, hb.driver, hb.oracle
    map_text = models.PAPER_GRID_10
    grid = permuted(hb, models.gen_grid(*models.parse_grid_map(map_text)), rng)
    formula = hl.normalize(hl.parse_formula(models.builtin_spec("shortest_path").formula))
    pair = {"A": grid, "B": grid}

    def plan():
        layout = driver.build_layout(pair, formula, GRID_K)
        q = driver.assemble_qbf(formula, pair, GRID_K, oracle.CLASSIC, False, layout)
        result = driver.qbf.solve(q)
        if not result.value:
            return None
        return driver.extract_witness(result.outer_witness, layout, "A", grid)

    return [Check("grid10-k20", plan, lambda witness: judge_plan(witness, map_text))]


def read_map(text):
    """Free cells, start and goals of a map; the first line is the top row (y up)."""
    rows = [line for line in text.splitlines() if line.strip()]
    free, starts, goals = set(), [], set()
    for r, row in enumerate(rows):
        y = len(rows) - 1 - r
        for x, ch in enumerate(row):
            if ch != "#":
                free.add((x, y))
            if ch == "I":
                starts.append((x, y))
            elif ch == "G":
                goals.add((x, y))
    return free, starts, goals


def bfs_distance(free, start, goals):
    dist = {start: 0}
    todo = deque([start])
    while todo:
        x, y = cell = todo.popleft()
        if cell in goals:
            return dist[cell]
        for nxt in ((x, y + 1), (x, y - 1), (x - 1, y), (x + 1, y)):
            if nxt in free and nxt not in dist:
                dist[nxt] = dist[cell] + 1
                todo.append(nxt)
    return None


_CELL = re.compile(r"c(\d+)_(\d+)_[iudlr]\Z")


def judge_plan(witness, map_text):
    """The plan must walk the map legally and first reach the goal at the BFS distance."""
    if witness is None:
        return f"classic encoding unsatisfiable at k={GRID_K}"
    free, (start,), goals = read_map(map_text)
    distance = bfs_distance(free, start, goals)
    if distance != GRID_DISTANCE:
        return f"BFS distance on the map is {distance}, the paper's is {GRID_DISTANCE}"
    path = []
    for name in witness.states:
        m = _CELL.match(name)
        if m is None:
            return f"witness state {name!r} names no grid cell"
        path.append((int(m.group(1)), int(m.group(2))))
    if path[0] != start:
        return f"plan starts at {path[0]}, not at {start}"
    for a, b in zip(path, path[1:]):
        step = abs(a[0] - b[0]) + abs(a[1] - b[1])
        if (a in goals and b != a) or (a not in goals and (b not in free or step != 1)):
            return f"plan moves illegally from {a} to {b}"
    first = next((i for i, c in enumerate(path) if c in goals), None)
    if first != distance:
        return f"plan first reaches the goal at step {first}, BFS distance is {distance}"
    return None


def build_ae_sweep(hb, rng):
    hl, driver, oracle = hb.hyperltl, hb.driver, hb.oracle
    model = permuted(hb, hb.kripke.parse_kripke(AE_MODEL), rng)
    formula = hl.parse_formula(AE_FORMULA)
    pair = {"A": model, "B": model}

    def config(k_from, k_max):
        return driver.CheckConfig(
            formula=formula, models=pair, k_from=k_from, k_max=k_max, semantics=oracle.OPT
        )

    sweep = config(0, AE_K_MAX)
    expected = expect_verdict(driver.UNKNOWN, AE_K_MAX, True, False)

    def judge(verdict):
        wrong = expected(verdict)
        if wrong:
            return wrong
        small = driver.check(config(AE_ORACLE_K, AE_ORACLE_K)).qbf_value
        truth = oracle.check_bounded(pair, hl.normalize(formula), AE_ORACLE_K, oracle.OPT)
        if small is not truth:
            return f"checker says {small} at k={AE_ORACLE_K}, the oracle says {truth}"
        return None

    return [Check("ae-k0-15", lambda: driver.check(sweep), judge)]
