"""The three workloads: seeded inputs, the timed calls, and their checks.

Each workload has a ``generate(seed, tiny)`` that builds its inputs, a
dict keyed by label, from the seed alone (this is what ``setup_s`` times),
an ``ops(inputs, work)`` that turns them into a list of :class:`Op`, and
a ``properties(inputs, outputs)`` that reports the input-property shares.
An op's ``call`` is the only code inside the timed region; ``summary`` and
``problems`` run outside it.

latnorm modules are looked up at call time (``oracle.census``, not a name
bound at import), so the outside tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from latnorm import catalog, cli, construction, lattice, oracle, tnorm

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    """One timed unit of work and how to judge its output."""

    key: str
    call: Callable[[], object]
    summary: Callable[[object], object]  # JSON-able output compared with the reference
    problems: Callable[[object], list[str]]  # invariant violations, any seed
    units: Callable[[object], int] = lambda raw: 1  # items this op contributes


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _share(hits: int, total: int) -> float:
    return hits / total if total else 0.0


def _fill_quotas(draws, quotas: dict, label: str) -> list:
    """Keep the first draws of each class up to its quota.

    ``draws`` yields ``(class, value)`` pairs; a class of None is skipped.
    All of them are drawn, even once the quotas are full, so set-up work
    does not move with the seed.
    """
    kept = []
    filled = dict.fromkeys(quotas, 0)
    for k, value in draws:
        if k in quotas and filled[k] < quotas[k]:
            filled[k] += 1
            kept.append((k, value))
    if filled != quotas:
        raise RuntimeError(f"{label}: seeded draws filled only {filled} of the quotas {quotas}")
    return kept


# --- census -------------------------------------------------------------
#
# Random 8-element lattices are drawn to fixed quotas by atom count, and
# only those with at least 3 atoms. Lattices with fewer atoms have heavy
# tails: about one in 35 with 2 atoms has 5k tables and takes 2 s, against
# 0.15 s for a typical one, and single-atom ones range over 1.3k-12k
# tables. Whether a seed drew one would move a pass more than the machine
# does. The deep searches they stand for are covered by chain(8).

CENSUS_QUOTAS = {3: 16, 4: 8}  # atom count (4 means 4 or more) -> lattices
CENSUS_DRAWS = 150  # about 30 % of draws qualify for each class
CHAIN8_TABLES = 2386


def census_generate(seed: int, tiny: bool) -> dict:
    size, quotas = (6, {3: 1, 4: 1}) if tiny else (8, CENSUS_QUOTAS)
    lats = (catalog.random_lattice(size, seed * 1_000_003 + j) for j in range(CENSUS_DRAWS))
    kept = _fill_quotas(((min(lat.atoms_mask.bit_count(), 4), lat) for lat in lats), quotas, "census")
    items = {f"random{i:02d}_atoms{k}": lat for i, (k, lat) in enumerate(kept)}
    if tiny:
        items["chain4"] = catalog.chain(4)
    else:
        items["chain8"] = catalog.chain(8)
        items["powerset3"] = lattice.powerset_lattice(3)
        items["diamond6"] = catalog.diamond(6)
    return items


def census_properties(items: dict, outputs: dict) -> dict:
    atomistic = sum(lat.is_atomistic() for lat in items.values())
    return {"atomistic_share": _share(atomistic, len(items))}


def _census_problems(key: str, lat) -> Callable[[object], list[str]]:
    atoms = lat.atoms_mask.bit_count()
    atomistic = lat.is_atomistic()

    def problems(report) -> list[str]:
        c = report.classes
        out = []
        if not c["continuous"] <= c["left_continuous"] <= c["left_semicontinuous"] <= report.total:
            out.append(f"{key}: continuous <= left_continuous <= left_semicontinuous fails: {c}")
        if not c["continuous"] <= c["right_continuous"] <= report.total:
            out.append(f"{key}: continuous <= right_continuous fails: {c}")
        if atomistic and c["generated"] != 1 << atoms:
            out.append(f"{key}: generated {c['generated']} != 2^{atoms}")
        if key == "chain8" and report.total != CHAIN8_TABLES:
            out.append(f"chain8: {report.total} tables, expected {CHAIN8_TABLES}")
        return out

    return problems


def census_ops(items: dict, work: Path) -> list[Op]:
    return [
        Op(
            key=key,
            call=lambda lat=lat: oracle.census(lat),
            summary=lambda r: {"total": r.total, "classes": dict(r.classes)},
            problems=_census_problems(key, lat),
            units=lambda r: r.total,
        )
        for key, lat in items.items()
    ]


# --- lift ---------------------------------------------------------------
#
# Each op imitates one `generate --alpha` request on a large atomistic
# lattice: parse the JSON, build skeleton and lift, verify, and compare the
# left-semicontinuity scan with the selection-level criterion. The lattices
# are fixed; the seed picks the selections.


def _powerset_json(k: int) -> tuple[str, list[str]]:
    letters = [chr(ord("a") + i) for i in range(k)]
    names = ["0" if s == 0 else "".join(letters[i] for i in range(k) if s >> i & 1) for s in range(1 << k)]
    covers = [[names[s], names[s | 1 << i]] for s in range(1 << k) for i in range(k) if not s >> i & 1]
    return json.dumps({"elements": names, "covers": covers}), letters


def _partitions(items: list[int]):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first, *part[i]]] + part[i + 1 :]
        yield [[first], *part]


def _partition_json(n: int) -> tuple[str, list[str]]:
    """The partition lattice of {1..n}, ordered by refinement: atomistic, not boolean."""

    def name(blocks) -> str:
        return "|".join("".join(str(x) for x in b) for b in sorted(sorted(b) for b in blocks))

    parts = sorted(_partitions(list(range(1, n + 1))), key=lambda p: (-len(p), name(p)))
    names = [name(p) for p in parts]
    covers = []
    for p in parts:
        for i, j in itertools.combinations(range(len(p)), 2):
            merged = [b for k, b in enumerate(p) if k not in (i, j)] + [p[i] + p[j]]
            covers.append([name(p), name(merged)])
    atoms = [nm for p, nm in zip(parts, names) if len(p) == n - 1]
    return json.dumps({"elements": names, "covers": covers}), atoms


# (lattice, selection): "full" selects every atom, "seeded" each atom with probability 1/2
LIFT_PLAN = [("2^8", "seeded"), ("2^7", "full"), ("2^7", "seeded"), ("Pi6", "seeded"), ("Pi6", "seeded")]
TINY_LIFT_PLAN = [("2^3", "full"), ("Pi4", "seeded")]


def lift_generate(seed: int, tiny: bool) -> dict:
    rng = random.Random(seed)
    plan = TINY_LIFT_PLAN if tiny else LIFT_PLAN
    lattices = {}
    for lat_name, _ in plan:
        if lat_name not in lattices:
            build = _powerset_json if lat_name.startswith("2^") else _partition_json
            lattices[lat_name] = build(int(lat_name[2:]))
    items = {}
    for i, (lat_name, how) in enumerate(plan):
        text, atoms = lattices[lat_name]
        chosen = atoms if how == "full" else [a for a in atoms if rng.random() < 0.5]
        items[f"{i}:{lat_name}:{how}"] = (text, chosen, lat_name.startswith("2^"), how == "full")
    return items


def lift_properties(items: dict, outputs: dict) -> dict:
    boolean = sum(spec[2] for spec in items.values())
    return {
        "atomistic_share": 1.0,
        "boolean_share": _share(boolean, len(items)),
        # ops whose left-semicontinuity scan stopped at a witness instead of finishing
        "early_witness_share": _share(sum(not out["lsc"] for out in outputs.values()), len(outputs)),
    }


def _lift_call(text: str, chosen: list[str]):
    lat = lattice.lattice_from_json(text)
    skel = construction.skeleton(lat)
    sel = construction.AtomSelection.from_names(lat, chosen)
    table = construction.lift(lat, construction.skeleton_tnorm(skel, sel))
    return (
        table,
        tnorm.verify_tnorm(table),
        tnorm.is_left_semicontinuous(table),
        construction.semicontinuity_criterion(lat, sel),
    )


def _lift_summary(raw) -> dict:
    _, verdict, lsc, crit = raw
    return {
        "verify": verdict.ok,
        "lsc": lsc.ok,
        "lsc_witness": _jsonable(lsc.witness),
        "criterion": crit.ok,
        "criterion_witness": _jsonable(crit.witness),
    }


def _lift_problems(key: str, boolean: bool, full: bool) -> Callable[[object], list[str]]:
    def problems(raw) -> list[str]:
        table, verdict, lsc, crit = raw
        out = []
        if not verdict.ok:
            out.append(f"{key}: lift is not a t-norm: {verdict.describe()}")
        if lsc.ok != crit.ok:
            out.append(f"{key}: scan says {lsc.ok}, criterion says {crit.ok}")
        if boolean and not lsc.ok:
            out.append(f"{key}: a lift on a powerset lattice is not left-semicontinuous")
        if boolean and full and table != tnorm.t_min(table.lattice):
            out.append(f"{key}: full-selection lift differs from t_min")
        return out

    return problems


def lift_ops(items: dict, work: Path) -> list[Op]:
    return [
        Op(
            key=key,
            call=lambda text=text, chosen=chosen: _lift_call(text, chosen),
            summary=_lift_summary,
            problems=_lift_problems(key, boolean, full),
        )
        for key, (text, chosen, boolean, full) in items.items()
    ]


# --- check --------------------------------------------------------------
#
# `latnorm check --format json` in-process on the repository's data files,
# the extension corpus, and seeded random non-atomistic 7-8 element
# lattices drawn to fixed quotas by the atom count of their extension. A
# 6-atom extension costs 20-40 times a 4-atom one, so the quotas, not the
# seed, fix the size of a pass. 6-atom extensions are drawn from 7-element
# lattices only: from 8-element ones they cost anywhere in 0.4-2.2 s, from
# 7-element ones 0.7-1.1 s. Atomistic random draws are skipped: the check
# workload is there for the extension, and atomistic inputs already come
# from the data files.

CHECK_QUOTAS = {4: 6, 5: 6, 6: 3}  # extension atoms -> lattices
CHECK_DRAWS = 1200  # half 7-element; about 3 % of those have a non-atomistic 6-atom extension


def check_generate(seed: int, tiny: bool) -> dict:
    quotas = {4: 1} if tiny else CHECK_QUOTAS
    files = sorted((ROOT / "data").glob("*.json"))
    if tiny:
        files = [f for f in files if f.name == "chain4.json"]
    items = {f"data/{f.name}": f.read_text(encoding="utf-8") for f in files}
    corpus = catalog.extension_corpus()
    if tiny:
        corpus = dict(itertools.islice(corpus.items(), 2))
    items.update({f"corpus/{name}": lat.to_json() for name, lat in corpus.items()})

    def classify(j: int):
        lat = catalog.random_lattice(7 + j % 2, seed * 1_000_003 + j)
        k = lat.ji_mask.bit_count()  # atoms of the extension: every join-irreducible
        if lat.is_atomistic() or (k == 6 and lat.n == 8):
            return None, lat
        return k, lat

    kept = _fill_quotas((classify(j) for j in range(CHECK_DRAWS)), quotas, "check")
    for i, (k, lat) in enumerate(kept, start=len(items)):
        items[f"random/{i:02d}_ext{k}"] = lat.to_json()
    return items


def check_properties(items: dict, outputs: dict) -> dict:
    lats = [lattice.lattice_from_json(text) for text in items.values()]
    mix = Counter(lat.ji_mask.bit_count() for lat in lats)
    return {
        "atomistic_share": _share(sum(lat.is_atomistic() for lat in lats), len(lats)),
        "extension_atoms_share": {str(k): _share(v, len(lats)) for k, v in sorted(mix.items())},
    }


def _check_call(path: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", path, "--format", "json"])
    return code, out.getvalue()


def _check_problems(key: str) -> Callable[[object], list[str]]:
    def problems(raw) -> list[str]:
        code, text = raw
        if code != 0:
            return [f"{key}: exit code {code}"]
        try:
            obj = json.loads(text)
        except ValueError:
            return [f"{key}: stdout is not JSON"]
        failed = [c["name"] for c in obj["checks"] if not c["passed"]]
        if failed or not obj["passed"]:
            return [f"{key}: failed checks {failed}"]
        return []

    return problems


def check_ops(items: dict, work: Path) -> list[Op]:
    ops = []
    for i, (key, text) in enumerate(items.items()):
        path = work / f"{i:02d}.json"
        path.write_text(text, encoding="utf-8")
        ops.append(
            Op(
                key=key,
                call=lambda path=str(path): _check_call(path),
                summary=lambda raw: {"exit": raw[0], "stdout_sha256": hashlib.sha256(raw[1].encode()).hexdigest()},
                problems=_check_problems(key),
            )
        )
    return ops


WORKLOADS = {
    "census": (census_generate, census_ops, census_properties),
    "lift": (lift_generate, lift_ops, lift_properties),
    "check": (check_generate, check_ops, check_properties),
}
