"""Command-line interface: statistics, bijection maps, enumeration, the
classical permutation map, and plain rendering.

Exit codes, mapped in `main` alone: 0 success or `--help`, 1 bad input (a
usage error included), 2 verification failure, 3 internal error (an
`AlgorithmError`, which signals a bug). Every command builds one record,
the dict `--format json` prints, and renders its text lines from it.
"""

from __future__ import annotations

import sys

from .enumeration import (
    REPORT_VALUES,
    DistributionPolynomial,
    _check_statistics,
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
    perm_inverse,
    perm_maj,
)
from .inversion import AlgorithmError, inv_code, inv_statistic, inversion_path_set, map_trace
from .model import (
    format_shape,
    parse_shape,
    parse_tableau_text,
    render,
    tableau_to_json_dict,
    tableau_to_text,
)
from .stats import comaj_of, descents, maj, maj_of


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


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _emit(args, record: dict, lines: list[str]) -> None:
    """Print the record as JSON, or else the text lines rendered from it."""
    if args.format == "json":
        import json  # here, not at the top: a text-mode run never pays its import

        print(json.dumps(record, indent=2))
    else:
        print("\n".join(lines))


def cmd_stats(args) -> int:
    t = _load_tableau(args.input)
    pos = t.positions()
    out = tableau_to_json_dict(t)
    out["stats"] = {
        "n": t.n,
        "descents": descents(pos),
        "maj": maj_of(pos),
        "comaj": comaj_of(pos),
        "inv": inv_statistic(t),
        "code": inv_code(t),
    }
    lines = [f"shape={format_shape(t.shape)}"]
    lines += [
        f"{key}={_fmt_list(value) if isinstance(value, list) else value}"
        for key, value in out["stats"].items()
    ]
    ips = inversion_path_set(t) if args.paths or args.pairs else None
    if args.paths:
        paths = sorted((t.content(cell), p) for cell, p in ips.paths.items())
        out["paths"] = [{"start": list(p.start), "steps": p.steps, "content": c} for c, p in paths]
        lines += [
            f"path content={p['content']} cell={_fmt_cell(pos[p['content']])} "
            f"start={_fmt_cell(p['start'])} steps={p['steps'] or '-'}"
            for p in out["paths"]
        ]
    if args.pairs:
        pairs = sorted((t.content(big), t.content(small)) for big, small in ips.pairs)
        out["pairs"] = [list(pair) for pair in pairs]
        lines += [f"pair larger={big} smaller={small}" for big, small in out["pairs"]]
    _emit(args, out, lines)
    return 0


def cmd_map(args) -> int:
    t = _load_tableau(args.input)
    forward = args.direction == "forward"
    result, stages, inv = map_trace(t, forward)
    out = {
        "direction": args.direction,
        "input": tableau_to_json_dict(t),
        "output": tableau_to_json_dict(result),
        "inv": inv,
        "maj": maj(result) if forward else maj(t),
    }
    lines = []
    if args.trace:
        out["stages"] = [
            {
                "k": st.k,
                "path": {"start": list(st.path.start), "steps": st.path.steps},
                "blocks": [[list(c) for c in block] for block in st.blocks],
                "result": tableau_to_json_dict(st.result),
            }
            for st in stages
        ]
        label = "psi" if forward else "phi"
        for d, st in zip(out["stages"], stages):
            path = d["path"]
            blocks = " ".join("[" + ",".join(map(_fmt_cell, block)) + "]" for block in d["blocks"])
            lines += [
                f"stage {label} k={d['k']} start={_fmt_cell(path['start'])} steps={path['steps'] or '-'}",
                f"blocks: {blocks or '-'}",
                *tableau_to_text(st.result).splitlines(),
                "",
            ]
    lines += tableau_to_text(result).splitlines()
    lines.append(f"inv={out['inv']} maj={out['maj']}")
    _emit(args, out, lines)
    if out["inv"] != out["maj"]:
        print("error: inv/maj mismatch", file=sys.stderr)
        return 2
    return 0


def cmd_enumerate(args) -> int:
    if args.par < 1:
        raise ValueError("--par must be at least 1")
    shape = parse_shape(args.shape)
    stats = list(dict.fromkeys(s.strip() for s in args.stat.split(",") if s.strip()))
    _check_statistics(stats)
    names = list(dict.fromkeys(stats + (list(REPORT_VALUES) if args.check else [])))
    values = statistic_values(shape, names, workers=args.par)
    polys = {s: DistributionPolynomial.from_values(values[s]) for s in stats}
    out = {
        "shape": format_shape(shape),
        "count": count_syt(shape),
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
    lines = [f"shape={out['shape']} count={out['count']}"]
    lines += [
        f"shape={d['shape']} stat={d['stat']} poly={_fmt_list(d['coefficients'])}"
        for d in out["distributions"]
    ]
    if args.check:
        report = equidistribution_report(shape, values)
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
        lines += [
            f"check {c['stats']} cell={_fmt_cell(c['cell']) if c['cell'] else 'global'} "
            f"poly={_fmt_list(c['poly_a'])} vs {_fmt_list(c['poly_b'])} {_verdict(c['ok'])}"
            for c in out["check"]["classes"]
        ]
        lines.append(f"check={_verdict(out['check']['ok'])}")
    _emit(args, out, lines)
    return 2 if args.check and not report.ok else 0


def cmd_foata(args) -> int:
    p = parse_permutation(args.perm)
    if args.bridge:
        report = bridge_check(p)
        routes = {
            "perm": p,
            "phi_direct": perm_inverse(report.direct_route),
            "tableau_route": report.tableau_route,
            "direct_route": report.direct_route,
            "foata_route": report.foata_route,
        }
        out = {key: format_permutation(q) for key, q in routes.items()}
        lines = [f"{key}={text}" for key, text in out.items()]
        lines.append(f"bridge={_verdict(report.ok)}")
        out["ok"] = report.ok
        _emit(args, out, lines)
        return 0 if report.ok else 2
    out_perm = foata_inverse(p) if args.inverse else foata(p)
    out = {
        label: {"perm": format_permutation(q), "inv": perm_inv(q), "maj": perm_maj(q)}
        for label, q in (("input", p), ("output", out_perm))
    }
    _emit(args, out, [f"{label}={d['perm']} inv={d['inv']} maj={d['maj']}" for label, d in out.items()])
    return 0


def cmd_render(args) -> int:
    t = _load_tableau(args.input)
    _emit(args, tableau_to_json_dict(t), render(t).splitlines())
    return 0


def build_parser():
    """The `tabinv` argument parser."""
    import argparse  # here, not at the top: importing this module without running main never pays for it

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
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--inverse", action="store_true")
    mode.add_argument("--bridge", action="store_true", help="three-route comparison")
    add_format(p)
    p.set_defaults(func=cmd_foata)

    p = sub.add_parser("render", help="aligned display of a tableau")
    p.add_argument("--input", required=True)
    add_format(p)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error; a usage
        # error is bad input, and 2 means a failed verification.
        return 0 if e.code == 0 else 1
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AlgorithmError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
