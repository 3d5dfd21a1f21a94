"""Command-line front end: load, validate, construct, classify, export.

Every report has a machine-readable JSON twin (``--format json``), outputs
are byte-deterministic for identical inputs, and the exit code is 0 only
when everything requested succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .checks import CHECK_ATOM_CAP, run_all_checks
from .construction import (
    DEFAULT_ATOM_CAP,
    AtomSelection,
    GeneratedTNorm,
    enumerate_skeleton_tnorms,
    lift,
    skeleton,
    skeleton_tnorm,
)
from .errors import ConditionCViolated, LatnormError, NotAtomistic, OutputCollision, UnsafeFileName
from .extension import extend, restrict_to_original, s_family
from .lattice import FiniteLattice, load_lattice
from .oracle import DEFAULT_SIZE_CAP as DEFAULT_ORACLE_CAP, census
from .tnorm import TNormTable, table_to_csv


def _emit(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _parse_alpha(spec: str) -> list[str]:
    spec = spec.strip()
    if not spec:
        return []
    return [part.strip() for part in spec.split(",")]


def _check_file_names(selections, prefix: str) -> None:
    """Refuse an export that would not write one plain file per selection.

    Labels are raw atom names joined with ``_``, so an atom name holding a
    path separator would write outside ``--out`` or below it, and distinct
    selections can collide (``{a, b}`` and ``{a_b}``). Checked before any
    file is written.
    """
    owners: dict[str, AtomSelection] = {}
    for sel in selections:
        file_name = f"{prefix}{sel.label()}.csv"
        if Path(file_name).name != file_name:
            raise UnsafeFileName(file_name, repr(sel.members))
        if file_name in owners:
            raise OutputCollision(file_name, repr(owners[file_name].members), repr(sel.members))
        owners[file_name] = sel


def _info_obj(lat: FiniteLattice) -> dict:
    atoms = lat.atoms().names()
    jis = lat.join_irreducibles().names()
    non_atom_jis = tuple(n for n in jis if n not in atoms)
    notes = []
    if lat.length <= 1:
        notes.append("length at most 1: the t-norm on this lattice is unique")
    return {
        "elements": list(lat.names),
        "covers": [list(c) for c in lat.covers_named()],
        "bottom": lat.name(lat.bottom),
        "top": lat.name(lat.top),
        "length": lat.length,
        "atoms": list(atoms),
        "join_irreducibles": list(jis),
        "non_atom_join_irreducibles": list(non_atom_jis),
        "atomistic": lat.is_atomistic(),
        "boolean_atomistic": lat.is_boolean_atomistic(),
        "notes": notes,
    }


def cmd_info(args) -> int:
    lat = load_lattice(args.lattice)
    obj = _info_obj(lat)
    if args.format == "json":
        print(json.dumps(obj, indent=2))
        return 0
    print(f"elements ({len(obj['elements'])}): " + ", ".join(obj["elements"]))
    print(f"covers ({len(obj['covers'])}): " + ", ".join(f"{a}<{b}" for a, b in obj["covers"]))
    print(f"bottom: {obj['bottom']}  top: {obj['top']}  length: {obj['length']}")
    print("atoms: " + (", ".join(obj["atoms"]) or "(none)"))
    print("join-irreducibles: " + (", ".join(obj["join_irreducibles"]) or "(none)"))
    print("non-atom join-irreducibles: " + (", ".join(obj["non_atom_join_irreducibles"]) or "(none)"))
    print(f"atomistic: {str(obj['atomistic']).lower()}")
    print(f"boolean (powerset-isomorphic): {str(obj['boolean_atomistic']).lower()}")
    for note in obj["notes"]:
        print(f"note: {note}")
    return 0


def _write_extension(ext, stem: str, out: Path) -> list[Path]:
    ext_path = out / f"{stem}_ext.json"
    map_path = out / f"{stem}_ext_map.json"
    _emit(ext_path, ext.extended.to_json())
    _emit(map_path, json.dumps(ext.sidecar_map(), indent=2) + "\n")
    return [ext_path, map_path]


def cmd_extend(args) -> int:
    lat = load_lattice(args.lattice)
    ext = extend(lat)
    out = Path(args.out)
    stem = Path(args.lattice).stem
    written = _write_extension(ext, stem, out)
    obj = {
        "original_elements": list(lat.names),
        "inserted_atoms": ext.sidecar_map(),
        "extended_elements": list(ext.extended.names),
        "atomistic": ext.extended.is_atomistic(),
        "files": [str(p) for p in written],
    }
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    else:
        print(f"inserted atoms: {', '.join(obj['inserted_atoms']) or '(none)'}")
        print(f"extension: {len(obj['extended_elements'])} elements, atomistic: "
              f"{str(obj['atomistic']).lower()}")
        for p in written:
            print(f"wrote {p}")
    return 0


def cmd_generate(args) -> int:
    lat = load_lattice(args.lattice)
    out = Path(args.out)
    stem = Path(args.lattice).stem
    written: list[Path] = []
    ext = None
    target = lat
    if not lat.is_atomistic():
        if not args.extend:
            raise NotAtomistic("lattice is not atomistic; rerun with --extend to generate on its extension")
        ext = extend(lat)
        target = ext.extended
    skel = skeleton(target)
    if args.all:
        pairs = list(enumerate_skeleton_tnorms(skel, cap=args.atom_cap))
    else:
        selection = AtomSelection.from_names(target, _parse_alpha(args.alpha))
        pairs = [(selection, skeleton_tnorm(skel, selection))]
    _check_file_names((selection for selection, _ in pairs), "alpha_")
    if ext is not None:
        written += _write_extension(ext, stem, out)

    def write_lifted(selection: AtomSelection, on_c: TNormTable) -> Path:
        path = out / f"alpha_{selection.label()}.csv"
        _emit(path, table_to_csv(lift(target, on_c)))
        return path

    if args.all:
        index = []
        for selection, on_c in pairs:
            lifted_path = write_lifted(selection, on_c)
            index.append(
                {"alpha": list(selection.names()), "label": selection.label(), "file": lifted_path.name}
            )
            written.append(lifted_path)
        index_path = out / "index.json"
        _emit(index_path, json.dumps({"alphas": index}, indent=2) + "\n")
        written.append(index_path)
        obj = {"count": len(index), "files": [str(p) for p in written]}
        if args.format == "json":
            print(json.dumps(obj, indent=2))
        else:
            print(f"wrote {len(index)} lifted tables to {out}")
        return 0

    selection, on_c = pairs[0]
    lifted_path = write_lifted(selection, on_c)
    c_path = out / f"c_alpha_{selection.label()}.csv"
    _emit(c_path, table_to_csv(on_c))
    written += [c_path, lifted_path]
    obj = {"alpha": list(selection.names()), "files": [str(p) for p in written]}
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        sys.stdout.write(c_path.read_text(encoding="utf-8"))
        sys.stdout.write(lifted_path.read_text(encoding="utf-8"))
    else:
        for p in written:
            print(f"wrote {p}")
    return 0


def cmd_restrict(args) -> int:
    lat = load_lattice(args.lattice)
    out = Path(args.out)
    stem = Path(args.lattice).stem
    ext = extend(lat)
    if args.all:
        fam = s_family(ext, atom_cap=args.atom_cap)
        _check_file_names((e.selection for e in fam.entries if e.restricted is not None), "restricted_alpha_")
    else:
        selection = AtomSelection.from_names(ext.extended, _parse_alpha(args.alpha))
        _check_file_names([selection], "restricted_alpha_")
    written = _write_extension(ext, stem, out)

    if args.all:
        index = []
        for entry in fam.entries:
            file_name = None
            if entry.restricted is not None:
                path = out / f"restricted_alpha_{entry.selection.label()}.csv"
                _emit(path, table_to_csv(entry.restricted))
                written.append(path)
                file_name = path.name
            index.append(
                {
                    "alpha": list(entry.selection.names()),
                    "label": entry.selection.label(),
                    "condition_c": "pass" if entry.condition_c.ok else "fail",
                    "file": file_name,
                }
            )
        index_path = out / "index.json"
        _emit(index_path, json.dumps({"alphas": index}, indent=2) + "\n")
        written.append(index_path)
        passing = sum(1 for e in index if e["condition_c"] == "pass")
        obj = {"total": len(index), "passing": passing, "files": [str(p) for p in written]}
        if args.format == "json":
            print(json.dumps(obj, indent=2))
        else:
            print(f"{passing} of {len(index)} selections pass the restriction gate; wrote {out}")
        return 0

    on_c = skeleton_tnorm(skeleton(ext.extended), selection)
    g = GeneratedTNorm(selection, on_c, lift(ext.extended, on_c))
    try:
        restricted = restrict_to_original(ext, g)
    except ConditionCViolated as exc:
        obj = {
            "alpha": list(selection.names()),
            "condition_c": "fail",
            "witness": {"join_irreducible": exc.p, "pair": list(exc.witness)},
        }
        if args.format == "json":
            print(json.dumps(obj, indent=2))
        else:
            print(f"condition_c: fail at {exc.p} (lift lands outside the lattice at {exc.witness})")
        return 1
    path = out / f"restricted_alpha_{selection.label()}.csv"
    _emit(path, table_to_csv(restricted))
    written.append(path)
    obj = {"alpha": list(selection.names()), "condition_c": "pass", "files": [str(p) for p in written]}
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    elif args.format == "csv":
        sys.stdout.write(table_to_csv(restricted))
    else:
        print("condition_c: pass")
        for p in written:
            print(f"wrote {p}")
    return 0


def cmd_census(args) -> int:
    lat = load_lattice(args.lattice)
    report = census(lat, size_cap=args.oracle_cap)
    text = report.to_json()
    if args.out:
        _emit(Path(args.out), text)
        print(f"wrote {args.out}")
    elif args.format == "text":
        print(f"total t-norms: {report.total}")
        for name, count in report.classes.items():
            print(f"  {name}: {count}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    lat = load_lattice(args.lattice)
    results = run_all_checks(lat, atom_cap=args.atom_cap)
    if args.format == "json":
        obj = {
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
            ],
            "passed": all(r.passed for r in results),
        }
        print(json.dumps(obj, indent=2))
    else:
        for r in results:
            print(r.line())
    return 0 if all(r.passed for r in results) else 1


def cmd_export_dot(args) -> int:
    lat = load_lattice(args.lattice)
    text = lat.to_dot()
    if args.out:
        _emit(Path(args.out), text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latnorm",
        description="Construct, verify, enumerate and classify t-norms on finite lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("lattice", help="lattice JSON file")
        p.set_defaults(fn=fn)
        return p

    p = add("info", cmd_info, help="order-theoretic summary of a lattice file")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("generate", cmd_generate, help="generate skeleton and lifted t-norm tables")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="comma-separated atom names ('' for the empty selection)")
    group.add_argument("--all", action="store_true", help="export the whole lifted family")
    p.add_argument("--extend", action="store_true", help="extend a non-atomistic lattice first")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = add("extend", cmd_extend, help="write the atomistic extension and its atom map")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("restrict", cmd_restrict, help="extend, gate and restrict back to the original lattice")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", help="comma-separated atom names on the extension")
    group.add_argument("--all", action="store_true", help="export every gated restriction")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")

    p = add("census", cmd_census, help="brute-force classification of every t-norm")
    p.add_argument("--out", help="write the census JSON here instead of stdout")
    p.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP,
                   help="largest lattice size the oracle will enumerate")
    p.add_argument("--format", choices=["text", "json"], default="json")

    p = add("check", cmd_check, help="run the cross-theorem consistency suite")
    p.add_argument("--atom-cap", type=int, default=CHECK_ATOM_CAP)
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = add("export-dot", cmd_export_dot, help="cover diagram in DOT format")
    p.add_argument("--out", help="write the DOT file here instead of stdout")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.fn(args)
        except (LatnormError, FileNotFoundError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"error: invalid input: {exc}", file=sys.stderr)
            return 1
        finally:
            # one line per distinct message, without the source path and line
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)

if __name__ == "__main__":
    sys.exit(main())
