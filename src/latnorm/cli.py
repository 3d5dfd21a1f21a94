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
    AtomSelection,
    GeneratedTNorm,
    enumerate_skeleton_tnorms,
    generated_family,
    lift,
    skeleton,
    skeleton_tnorm,
)
from .errors import (
    AmbiguousAlpha,
    ConditionCViolated,
    LatnormError,
    NotAtomistic,
    OutputCollision,
    UnsafeFileName,
)
from .extension import extend, restrict_to_original, s_family
from .lattice import DEFAULT_ATOM_CAP, FiniteLattice, load_lattice
from .oracle import DEFAULT_SIZE_CAP as DEFAULT_ORACLE_CAP, census
from .tnorm import table_to_csv


def _emit(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _alpha_selection(lat: FiniteLattice, spec: str) -> AtomSelection:
    """The selection that an ``--alpha`` list of atom names picks on ``lat``.

    The list is split on ``,``, so it cannot name an atom whose name holds
    one: with atoms a, b and a,b the list "a,b" would silently pick {a, b}.
    A lattice with such an atom is refused whenever ``--alpha`` is given.
    """
    for name in lat.atoms().names():
        if "," in name:
            raise AmbiguousAlpha(f"atom {name!r} contains ',', so --alpha cannot name it; use --all")
    spec = spec.strip()
    return AtomSelection.from_names(lat, [part.strip() for part in spec.split(",")] if spec else [])


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
            raise UnsafeFileName(file_name, repr(sel))
        if file_name in owners:
            raise OutputCollision(file_name, repr(owners[file_name]), repr(sel))
        owners[file_name] = sel


def _report(fmt: str, obj, lines, csv_text: str | None = None) -> None:
    """Print a command's result in the ``--format`` asked for.

    ``json`` prints ``obj``; ``csv`` prints ``csv_text`` where the command
    has a table to print; every other case prints the text ``lines``.
    """
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    elif fmt == "csv" and csv_text is not None:
        sys.stdout.write(csv_text)
    else:
        for line in lines:
            print(line)


def _write_or_print(out: str | None, text: str) -> None:
    """Write ``text`` to the file ``--out`` names, or to stdout without one."""
    if out:
        _emit(Path(out), text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def _export_family(out: Path, prefix: str, rows) -> list[Path]:
    """Write ``<prefix><label>.csv`` for each row with a table, then ``index.json``.

    Each row is ``(selection, table or None, extra index fields)``. The index
    lists every row in order, with ``file`` null for a row without a table.
    Returns the written paths, ``index.json`` last.
    """
    written, index = [], []
    for selection, table, extra in rows:
        file_name = None
        if table is not None:
            file_name = f"{prefix}{selection.label()}.csv"
            _emit(out / file_name, table_to_csv(table))
            written.append(out / file_name)
        index.append({"alpha": list(selection.names()), "label": selection.label(), **extra, "file": file_name})
    written.append(out / "index.json")
    _emit(written[-1], json.dumps({"alphas": index}, indent=2) + "\n")
    return written


def cmd_info(args) -> int:
    lat = load_lattice(args.lattice)
    atoms = lat.atoms().names()
    jis = lat.join_irreducibles().names()
    obj = {
        "elements": list(lat.names),
        "covers": [list(c) for c in lat.covers_named()],
        "bottom": lat.name(lat.bottom),
        "top": lat.name(lat.top),
        "length": lat.length,
        "atoms": list(atoms),
        "join_irreducibles": list(jis),
        "non_atom_join_irreducibles": [n for n in jis if n not in atoms],
        "atomistic": lat.is_atomistic(),
        "boolean_atomistic": lat.is_boolean_atomistic(),
        "notes": ["length at most 1: the t-norm on this lattice is unique"] if lat.length <= 1 else [],
    }
    _report(args.format, obj, [
        f"elements ({len(obj['elements'])}): " + ", ".join(obj["elements"]),
        f"covers ({len(obj['covers'])}): " + ", ".join(f"{a}<{b}" for a, b in obj["covers"]),
        f"bottom: {obj['bottom']}  top: {obj['top']}  length: {obj['length']}",
        "atoms: " + (", ".join(obj["atoms"]) or "(none)"),
        "join-irreducibles: " + (", ".join(obj["join_irreducibles"]) or "(none)"),
        "non-atom join-irreducibles: " + (", ".join(obj["non_atom_join_irreducibles"]) or "(none)"),
        f"atomistic: {str(obj['atomistic']).lower()}",
        f"boolean (powerset-isomorphic): {str(obj['boolean_atomistic']).lower()}",
        *(f"note: {note}" for note in obj["notes"]),
    ])
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
    written = _write_extension(ext, Path(args.lattice).stem, Path(args.out))
    obj = {
        "original_elements": list(lat.names),
        "inserted_atoms": ext.sidecar_map(),
        "extended_elements": list(ext.extended.names),
        "atomistic": ext.extended.is_atomistic(),
        "files": [str(p) for p in written],
    }
    _report(args.format, obj, [
        f"inserted atoms: {', '.join(obj['inserted_atoms']) or '(none)'}",
        f"extension: {len(obj['extended_elements'])} elements, atomistic: {str(obj['atomistic']).lower()}",
        *(f"wrote {p}" for p in written),
    ])
    return 0


def cmd_generate(args) -> int:
    lat = load_lattice(args.lattice)
    out = Path(args.out)
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
        selection = _alpha_selection(target, args.alpha)
        pairs = [(selection, skeleton_tnorm(skel, selection))]
    _check_file_names((selection for selection, _ in pairs), "alpha_")
    written = [] if ext is None else _write_extension(ext, Path(args.lattice).stem, out)

    if args.all:
        written += _export_family(out, "alpha_", ((sel, lift(target, on_c), {}) for sel, on_c in pairs))
        obj = {"count": len(pairs), "files": [str(p) for p in written]}
        _report(args.format, obj, [f"wrote {len(pairs)} lifted tables to {out}"])
        return 0

    selection, on_c = pairs[0]
    tables = {"c_alpha_": table_to_csv(on_c), "alpha_": table_to_csv(lift(target, on_c))}
    for prefix, text in tables.items():
        written.append(out / f"{prefix}{selection.label()}.csv")
        _emit(written[-1], text)
    obj = {"alpha": list(selection.names()), "files": [str(p) for p in written]}
    _report(args.format, obj, [f"wrote {p}" for p in written], "".join(tables.values()))
    return 0


def cmd_restrict(args) -> int:
    lat = load_lattice(args.lattice)
    out = Path(args.out)
    ext = extend(lat)
    if args.all:
        fam = s_family(ext, generated_family(ext.extended, atom_cap=args.atom_cap))
        _check_file_names((e.selection for e in fam.entries if e.restricted is not None), "restricted_alpha_")
        written = _write_extension(ext, Path(args.lattice).stem, out)
        written += _export_family(out, "restricted_alpha_", (
            (e.selection, e.restricted, {"condition_c": "pass" if e.condition_c.ok else "fail"})
            for e in fam.entries
        ))
        total, passing = len(fam.entries), sum(1 for e in fam.entries if e.condition_c.ok)
        obj = {"total": total, "passing": passing, "files": [str(p) for p in written]}
        _report(args.format, obj, [f"{passing} of {total} selections pass the restriction gate; wrote {out}"])
        return 0

    selection = _alpha_selection(ext.extended, args.alpha)
    _check_file_names([selection], "restricted_alpha_")
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
        _report(args.format, obj, [f"condition_c: fail at {exc.p} (lift lands outside the lattice at {exc.witness})"])
        return 1
    # written only once the gate passes, so a failing run leaves --out as it was
    written = _write_extension(ext, Path(args.lattice).stem, out)
    text = table_to_csv(restricted)
    written.append(out / f"restricted_alpha_{selection.label()}.csv")
    _emit(written[-1], text)
    obj = {"alpha": list(selection.names()), "condition_c": "pass", "files": [str(p) for p in written]}
    _report(args.format, obj, ["condition_c: pass", *(f"wrote {p}" for p in written)], text)
    return 0


def cmd_census(args) -> int:
    lat = load_lattice(args.lattice)
    report = census(lat, size_cap=args.oracle_cap)
    if args.out or args.format == "json":
        _write_or_print(args.out, report.to_json())
    else:
        print(f"total t-norms: {report.total}")
        for name, count in report.classes.items():
            print(f"  {name}: {count}")
    return 0


def cmd_check(args) -> int:
    lat = load_lattice(args.lattice)
    results = run_all_checks(lat, atom_cap=args.atom_cap)
    passed = all(r.passed for r in results)
    obj = {"checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results], "passed": passed}
    _report(args.format, obj, [r.line() for r in results])
    return 0 if passed else 1


def cmd_export_dot(args) -> int:
    _write_or_print(args.out, load_lattice(args.lattice).to_dot())
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
        except (LatnormError, OSError) as exc:
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
