"""Command-line interface: statistics, bijection maps, enumeration, the
classical permutation map, and plain rendering.

Exit codes: 0 success, 1 bad input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .enumeration import (
    REPORT_VALUES,
    STATISTICS,
    DistributionPolynomial,
    count_syt,
    equidistribution_report,
    statistic_values,
)
from .foata import (
    bridge_check,
    foata,
    foata_inverse,
    format_permutation,
    parse_permutation,
    perm_inv,
    perm_maj,
    perm_phi_direct,
)
from .inversion import inversion_path_set, map_trace
from .model import (
    ShapeError,
    TableauError,
    format_shape,
    parse_shape,
    parse_tableau_text,
    render,
    tableau_to_json_dict,
    tableau_to_text,
)
from .stats import comaj, descent_set, maj


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_tableau(path: str):
    return parse_tableau_text(_read_input(path))


def _fmt_cell(cell) -> str:
    return f"({cell[0]},{cell[1]})"


def _fmt_list(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _path_json(path, content=None) -> dict:
    d = {"start": list(path.start), "steps": path.steps}
    if content is not None:
        d["content"] = content
    return d


def cmd_stats(args) -> int:
    t = _load_tableau(args.input)
    des = sorted(descent_set(t))
    ips = inversion_path_set(t)
    pairs = sorted((t.content(big), t.content(small)) for big, small in ips.pairs)
    code = [0] * t.n
    for big, _ in pairs:
        code[big - 1] += 1
    stats = {
        "n": t.n,
        "descents": des,
        "maj": maj(t),
        "comaj": comaj(t),
        "inv": len(pairs),
        "code": code,
    }
    path_rows = sorted(
        (t.content(cell), cell, p) for cell, p in ips.paths.items()
    )
    if args.format == "json":
        out = tableau_to_json_dict(t)
        out["stats"] = stats
        if args.paths:
            out["paths"] = [_path_json(p, content=c) for c, _, p in path_rows]
        if args.pairs:
            out["pairs"] = [list(pair) for pair in pairs]
        print(json.dumps(out, indent=2))
        return 0
    print(f"shape={format_shape(t.shape)}")
    print(f"n={stats['n']}")
    print(f"descents={_fmt_list(des)}")
    print(f"maj={stats['maj']}")
    print(f"comaj={stats['comaj']}")
    print(f"inv={stats['inv']}")
    print(f"code={_fmt_list(stats['code'])}")
    if args.paths:
        for c, cell, p in path_rows:
            print(
                f"path content={c} cell={_fmt_cell(cell)} "
                f"start=({p.start[0]},{p.start[1]}) steps={p.steps or '-'}"
            )
    if args.pairs:
        for big, small in pairs:
            print(f"pair larger={big} smaller={small}")
    return 0


def _print_stage(stage, label: str) -> None:
    p = stage.path
    print(
        f"stage {label} k={stage.k} start=({p.start[0]},{p.start[1]}) "
        f"steps={p.steps or '-'}"
    )
    blocks = " ".join(
        "[" + ",".join(_fmt_cell(c) for c in block) + "]" for block in stage.blocks
    )
    print(f"blocks: {blocks or '-'}")
    sys.stdout.write(tableau_to_text(stage.result))
    print()


def cmd_map(args) -> int:
    t = _load_tableau(args.input)
    forward = args.direction == "forward"
    result, stages, inv = map_trace(t, forward)
    pair = (inv, maj(result) if forward else maj(t))
    label = "psi" if forward else "phi"
    if args.format == "json":
        out = {
            "direction": args.direction,
            "input": tableau_to_json_dict(t),
            "output": tableau_to_json_dict(result),
            "inv": pair[0],
            "maj": pair[1],
        }
        if args.trace:
            out["stages"] = [
                {
                    "k": st.k,
                    "path": _path_json(st.path),
                    "blocks": [[list(c) for c in block] for block in st.blocks],
                    "result": tableau_to_json_dict(st.result),
                }
                for st in stages
            ]
        print(json.dumps(out, indent=2))
    else:
        if args.trace:
            for st in stages:
                _print_stage(st, label)
        sys.stdout.write(tableau_to_text(result))
        print(f"inv={pair[0]} maj={pair[1]}")
    if forward and pair[0] != pair[1]:
        print("error: inv/maj mismatch", file=sys.stderr)
        return 2
    return 0


def cmd_enumerate(args) -> int:
    if args.par < 1:
        raise ValueError("--par must be at least 1")
    shape = parse_shape(args.shape)
    stats = [s.strip() for s in args.stat.split(",") if s.strip()]
    for s in stats:
        if s not in STATISTICS:
            raise ValueError(f"unknown statistic {s!r}; choose from {sorted(STATISTICS)}")
    count = count_syt(shape)
    names = list(dict.fromkeys(stats + (list(REPORT_VALUES) if args.check else [])))
    values = statistic_values(shape, names, workers=args.par)
    polys = {s: DistributionPolynomial.from_values(values[s]) for s in stats}
    report = equidistribution_report(shape, values) if args.check else None
    if args.format == "json":
        out = {
            "shape": format_shape(shape),
            "count": count,
            "distributions": [
                {
                    "shape": format_shape(shape),
                    "stat": s,
                    "coefficients": list(polys[s].coefficients),
                    "count": polys[s].total,
                }
                for s in stats
            ],
        }
        if report is not None:
            out["check"] = {
                "ok": report.ok,
                "classes": [
                    {
                        "stats": f"{c.stat_a}~{c.stat_b}",
                        "cell": list(c.pinned_cell) if c.pinned_cell else None,
                        "poly_a": list(c.poly_a.coefficients),
                        "poly_b": list(c.poly_b.coefficients),
                        "ok": c.ok,
                    }
                    for c in report.classes
                ],
            }
        print(json.dumps(out, indent=2))
    else:
        print(f"shape={format_shape(shape)} count={count}")
        for s in stats:
            print(f"shape={format_shape(shape)} stat={s} poly={_fmt_list(polys[s].coefficients)}")
        if report is not None:
            for c in report.classes:
                where = _fmt_cell(c.pinned_cell) if c.pinned_cell else "global"
                verdict = "pass" if c.ok else "FAIL"
                print(
                    f"check {c.stat_a}~{c.stat_b} cell={where} "
                    f"poly={_fmt_list(c.poly_a.coefficients)} vs "
                    f"{_fmt_list(c.poly_b.coefficients)} {verdict}"
                )
            print(f"check={'pass' if report.ok else 'FAIL'}")
    if report is not None and not report.ok:
        return 2
    return 0


def cmd_foata(args) -> int:
    p = parse_permutation(args.perm)
    if args.bridge:
        report = bridge_check(p)
        direct = perm_phi_direct(p)
        ok = report.ok
        if args.format == "json":
            print(
                json.dumps(
                    {
                        "perm": format_permutation(p),
                        "phi_direct": format_permutation(direct),
                        "tableau_route": format_permutation(report.tableau_route),
                        "direct_route": format_permutation(report.direct_route),
                        "foata_route": format_permutation(report.foata_route),
                        "ok": ok,
                    },
                    indent=2,
                )
            )
        else:
            print(f"perm={format_permutation(p)}")
            print(f"phi_direct={format_permutation(direct)}")
            print(f"tableau_route={format_permutation(report.tableau_route)}")
            print(f"direct_route={format_permutation(report.direct_route)}")
            print(f"foata_route={format_permutation(report.foata_route)}")
            print(f"bridge={'pass' if ok else 'FAIL'}")
        return 0 if ok else 2
    out_perm = foata_inverse(p) if args.inverse else foata(p)
    rows = [
        ("input", p),
        ("output", out_perm),
    ]
    if args.format == "json":
        print(
            json.dumps(
                {
                    label: {
                        "perm": format_permutation(q),
                        "inv": perm_inv(q),
                        "maj": perm_maj(q),
                    }
                    for label, q in rows
                },
                indent=2,
            )
        )
    else:
        for label, q in rows:
            print(f"{label}={format_permutation(q)} inv={perm_inv(q)} maj={perm_maj(q)}")
    return 0


def cmd_render(args) -> int:
    t = _load_tableau(args.input)
    if args.format == "json":
        print(json.dumps(tableau_to_json_dict(t), indent=2))
    else:
        sys.stdout.write(render(t))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabinv",
        description="Tableau inversion statistics and cycling bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("stats", help="statistics of one tableau")
    p.add_argument("--input", required=True, help="tableau file or '-' for stdin")
    p.add_argument("--paths", action="store_true", help="also print inversion paths")
    p.add_argument("--pairs", action="store_true", help="also print inversion pairs")
    add_format(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("map", help="apply the cycling bijection")
    p.add_argument("--input", required=True)
    p.add_argument("--direction", choices=["forward", "inverse"], default="forward")
    p.add_argument("--trace", action="store_true", help="print every pivot stage")
    add_format(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("enumerate", help="distributions over all SYT of a shape")
    p.add_argument("--shape", required=True, help='e.g. "3,2" or "3,2/1"')
    p.add_argument("--stat", default="maj,inv", help="comma list of statistics")
    p.add_argument("--check", action="store_true", help="verify equidistribution")
    p.add_argument("--par", type=int, default=1, metavar="N", help="worker processes")
    add_format(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("foata", help="classical bijection on permutations")
    p.add_argument("--perm", required=True, help='e.g. "4137562" or "4,1,3,7,5,6,2"')
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--bridge", action="store_true", help="three-route comparison")
    add_format(p)
    p.set_defaults(func=cmd_foata)

    p = sub.add_parser("render", help="aligned display of a tableau")
    p.add_argument("--input", required=True)
    add_format(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ShapeError, TableauError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
