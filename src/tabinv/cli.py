"""Command-line interface: statistics, bijection maps, enumeration, the
classical permutation map, and plain rendering.

Exit codes, mapped in `main` alone: 0 success or `--help`, 1 bad input (a
usage error included), 2 verification failure, 3 internal error (an
`AlgorithmError` or any other exception that is not bad input: a bug), and
141 when stdout's reader has gone, as for a producer that SIGPIPE ended.
Every command builds one record, the dict `--format json` prints, from
the values the library returns (`json` writes a tuple as an array), and
renders its text lines from it; `map` renders them only when text is
printed.  Bad input is what the readers of the user's text reject
(`_read`): any other `ValueError` is a bug.

One table, `_COMMANDS`, holds each command's handler, help string and
options: `_parse` reads argv against it, as argparse read it, and
`_print_help` renders it.  The CLI imports no argparse, which with the
gettext and locale modules it loads would double a cold start.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .enumeration import (
    STATISTICS,
    _check_statistics,
    _polynomial,
    count_syt,
    equidistribution_report,
    statistic_counts,
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
from .inversion import AlgorithmError, inv_code, inv_statistic, inversion_path_set, map_trace, phi, psi
from .model import (
    _decimal,
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


class _BadInput(Exception):
    """The user's text, rejected by the reader that `_read` ran; the one
    arg is the reader's ValueError."""


def _read(reader, value):
    """reader(value), for a reader of what the user wrote: its ValueError is
    bad input."""
    try:
        return reader(value)
    except ValueError as e:
        raise _BadInput(e) from None


def _fmt_cell(cell) -> str:
    return f"({cell[0]},{cell[1]})"


def _fmt_list(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _emit(args, record: dict, lines) -> None:
    """Print the record as JSON, or else the text lines rendered from it:
    `lines` is any iterable of lines, read only when text is printed."""
    if args.format == "json":
        import json  # here, not at the top: a text-mode run never pays its import

        print(json.dumps(record, indent=2), flush=True)
    else:
        print("\n".join(lines), flush=True)  # a closed stdout raises here, inside main


def cmd_stats(args) -> int:
    t = _read(_load_tableau, args.input)
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
    if args.paths or args.pairs:  # the path set's cells are t's, so pos labels them
        ips, content = inversion_path_set(t), {cell: c for c, cell in enumerate(pos) if c}
    if args.paths:
        paths = sorted((content[cell], p) for cell, p in ips.paths.items())
        out["paths"] = [{"start": p.start, "steps": p.steps, "content": c} for c, p in paths]
        lines += [
            f"path content={p['content']} cell={_fmt_cell(pos[p['content']])} "
            f"start={_fmt_cell(p['start'])} steps={p['steps'] or '-'}"
            for p in out["paths"]
        ]
    if args.pairs:
        out["pairs"] = sorted((content[big], content[small]) for big, small in ips.pairs)
        lines += [f"pair larger={big} smaller={small}" for big, small in out["pairs"]]
    _emit(args, out, lines)
    return 0


def cmd_map(args) -> int:
    t = _read(_load_tableau, args.input)
    forward = args.direction == "forward"
    result = psi(t) if forward else phi(t)
    source, image = (t, result) if forward else (result, t)  # psi's input end and output end
    out = {
        "direction": args.direction,
        "input": tableau_to_json_dict(t),
        "output": tableau_to_json_dict(result),
        "inv": inv_statistic(source),
        "maj": maj(image),
    }
    # The stages only print: the image and the statistics come from psi or phi.
    stages = map_trace(t, forward) if args.trace else ()
    if args.trace:
        out["stages"] = [
            {"k": st.k, "path": st.path._asdict(), "blocks": st.blocks, "result": tableau_to_json_dict(st.result)}
            for st in stages
        ]

    def lines():
        label = "psi" if forward else "phi"
        for st in stages:
            cells = " ".join("[" + ",".join(map(_fmt_cell, block)) + "]" for block in st.blocks)
            yield f"stage {label} k={st.k} start={_fmt_cell(st.path.start)} steps={st.path.steps or '-'}"
            yield f"blocks: {cells or '-'}"
            yield from tableau_to_text(st.result).splitlines()
            yield ""
        yield from tableau_to_text(result).splitlines()
        yield f"inv={out['inv']} maj={out['maj']}"

    _emit(args, out, lines())
    # Inverse, psi(result) reads the record that inv_statistic(result) made.
    failures = ["inv/maj mismatch"] if out["inv"] != out["maj"] else []
    if not forward and psi(result) != t:
        failures.append("psi(phi(t)) differs from the input")
    if failures:
        print("error: " + "; ".join(failures), file=sys.stderr)
        return 2
    return 0


def cmd_enumerate(args) -> int:
    shape = _read(parse_shape, args.shape)
    stats = list(dict.fromkeys(s.strip() for s in args.stat.split(",") if s.strip()))
    _read(_check_statistics, stats)
    counts = statistic_counts(shape, stats + (list(STATISTICS) if args.check else []), workers=args.par)
    polys = {s: _polynomial(shape, counts[s]) for s in stats}
    out = {
        "shape": format_shape(shape),
        "count": count_syt(shape),
        "distributions": [
            {
                "shape": format_shape(shape),
                "stat": s,
                "coefficients": polys[s].coefficients,
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
        report = equidistribution_report(shape, counts)
        out["check"] = {
            "ok": report.ok,
            "classes": [
                {
                    "stats": f"{c.stat_a}~{c.stat_b}",
                    "cell": c.pinned_cell,
                    "poly_a": c.poly_a.coefficients,
                    "poly_b": c.poly_b.coefficients,
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
    p = _read(parse_permutation, args.perm)
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
    t = _read(_load_tableau, args.input)
    _emit(args, tableau_to_json_dict(t), render(t).splitlines())
    return 0


def _workers(text: str) -> int:
    """--par's value, read by the one number rule (`model._decimal`): a
    number of worker processes, so at least 1."""
    try:
        workers = _decimal(text)
        if workers >= 1:
            return workers
    except ValueError:
        pass
    raise ValueError(f"--par must be at least 1, written in the digits 0-9 alone: {text!r}")


class _Option:
    """One option of a command, for the parser and the help.  A flag takes
    no value and sets True; any other option takes one value, which must be
    one of `choices` when there are any, and which `read` turns into the
    handler's value."""

    __slots__ = ("name", "help", "flag", "default", "choices", "required", "read", "spelled")

    def __init__(self, name, help="", *, flag=False, default=None, choices=(), required=False, metavar=None, read=str):
        self.name, self.help, self.flag, self.choices = name, help, flag, choices
        self.default = False if flag else default
        self.required, self.read = required, read
        metavar = metavar or ("{" + ",".join(choices) + "}" if choices else name[2:].upper())
        self.spelled = name if flag else f"{name} {metavar}"  # as usage and help show it


_INPUT = _Option("--input", "tableau file or '-' for stdin", required=True)
_FORMAT = _Option("--format", default="text", choices=("text", "json"))

# The commands: handler, help string, options, and the options that
# exclude each other.  `_parse` reads argv against it and `_print_help`
# renders it.
_COMMANDS = {
    "stats": (
        cmd_stats,
        "statistics of one tableau",
        (
            _INPUT,
            _Option("--paths", "also print inversion paths", flag=True),
            _Option("--pairs", "also print inversion pairs", flag=True),
            _FORMAT,
        ),
        (),
    ),
    "map": (
        cmd_map,
        "apply the cycling bijection",
        (
            _INPUT,
            _Option("--direction", default="forward", choices=("forward", "inverse")),
            _Option("--trace", "print every pivot stage", flag=True),
            _FORMAT,
        ),
        (),
    ),
    "enumerate": (
        cmd_enumerate,
        "distributions over all SYT of a shape",
        (
            _Option("--shape", 'e.g. "3,2" or "3,2/1"', required=True),
            _Option("--stat", "comma list of statistics", default="maj,inv"),
            _Option("--check", "verify equidistribution", flag=True),
            _Option("--par", "worker processes", default=1, metavar="N", read=_workers),
            _FORMAT,
        ),
        (),
    ),
    "foata": (
        cmd_foata,
        "classical bijection on permutations",
        (
            _Option("--perm", 'e.g. "4137562" or "4,1,3,7,5,6,2"', required=True),
            _Option("--inverse", flag=True),
            _Option("--bridge", "three-route comparison", flag=True),
            _FORMAT,
        ),
        ("--inverse", "--bridge"),
    ),
    "render": (cmd_render, "aligned display of a tableau", (_INPUT, _FORMAT), ()),
}


class _UsageError(Exception):
    """argv that the parser of a command (None: the top level) cannot read;
    args are that command and the message."""


def _options(command) -> dict:
    """The options of a command's parser by name, `-h` and `--help` (None)
    first; the top-level parser has these two alone."""
    options = {"-h": None, "--help": None}
    if command is not None:
        options.update((o.name, o) for o in _COMMANDS[command][2])
    return options


def _is_negative_number(tok: str) -> bool:
    """tok is "-" and then digits, with at most one "." before the last."""
    whole, dot, frac = tok[1:].partition(".")
    return (not dot and whole.isdecimal()) or (bool(dot) and (not whole or whole.isdecimal()) and frac.isdecimal())


def _classify(command, tok: str):
    """What one token is to the parser of a command, read as argparse reads
    it: None for a value, or else (name, explicit) for an option, name None
    when no option matches and explicit the text after `=` or `-h`, None
    when there is none.  A long option may be a unique prefix of its name."""
    names = _options(command)
    if tok[:1] != "-" or tok == "-":
        return None
    if tok in names:
        return tok, None
    head, eq, explicit = tok.partition("=")
    if eq and head in names:
        return head, explicit
    if tok[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise _UsageError(command, f"ambiguous option: {tok} could match {', '.join(found)}")
        if found:
            return found[0], explicit if eq else None
    elif tok[:2] in names:
        return tok[:2], tok[2:]
    # A negative number, or a token with a space, is a value.
    if _is_negative_number(tok) or " " in tok:
        return None
    return None, None


def _check_flag(command, name: str, explicit) -> None:
    """A flag takes no value.  `-hh` passes: a run of short flags after one
    dash, and `-h` is the only short one."""
    if explicit is not None and not (name == "-h" and explicit and set(explicit) == {"h"}):
        raise _UsageError(command, f"argument {name}: ignored explicit argument {explicit!r}")


def _parse(argv: list[str]):
    """(handler, argument) for argv: a command's handler and the options it
    reads, or `_print_help` and the command whose help argv asks for.
    Raises _UsageError for argv that no command reads.

    argv is read as argparse read it: `--opt value` or `--opt=value`, a
    unique prefix of an option, options in any order with the last repeat
    winning, and `-h`/`--help` anywhere.  Tokens are read in order, so a
    usage error before the help still counts; a missing required option
    does not.
    """
    unknown = []
    for at, tok in enumerate(argv):
        kind = None if tok == "--" else _classify(None, tok)
        if kind is None:
            break
        name, explicit = kind
        if name is None:
            unknown.append(tok)
        else:
            _check_flag(None, name, explicit)
            return _print_help, None
    else:
        raise _UsageError(None, "the following arguments are required: command")
    command = argv[at]
    if command not in _COMMANDS:
        choices = ", ".join(repr(name) for name in _COMMANDS)
        raise _UsageError(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, options, exclusive = _COMMANDS[command]
    names = _options(command)
    rest = argv[at + 1 :]
    # No option reads a token from "--" on, and there is nothing else to read it.
    end = rest.index("--") if "--" in rest else len(rest)
    unknown += rest[end:]
    kinds = [_classify(command, tok) for tok in rest[:end]]
    values = {o.name: o.default for o in options}
    i = 0
    while i < end:
        kind, i = kinds[i], i + 1
        if kind is None or kind[0] is None:
            unknown.append(rest[i - 1])
            continue
        name, explicit = kind
        option = names[name]
        if option is None or option.flag:
            _check_flag(command, name, explicit)
            if option is None:
                return _print_help, command
            value = True
        else:
            if explicit is None:
                if i == end or kinds[i] is not None:
                    raise _UsageError(command, f"argument {name}: expected one argument")
                explicit, i = rest[i], i + 1
            if option.choices and explicit not in option.choices:
                choices = ", ".join(repr(c) for c in option.choices)
                raise _UsageError(command, f"argument {name}: invalid choice: {explicit!r} (choose from {choices})")
            try:
                value = option.read(explicit)
            except ValueError as e:
                raise _UsageError(command, str(e)) from None
        clash = [other for other in exclusive if name in exclusive and other != name and values[other]]
        if clash:
            raise _UsageError(command, f"argument {name}: not allowed with argument {clash[0]}")
        values[name] = value
    missing = [o.name for o in options if o.required and values[o.name] is None]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(unknown)}")
    return handler, SimpleNamespace(**{name[2:]: value for name, value in values.items()})


def _usage(command) -> str:
    if command is None:
        return "usage: tabinv [-h] {" + ",".join(_COMMANDS) + "} ..."
    _, _, options, exclusive = _COMMANDS[command]
    parts, group = ["[-h]"], []
    for o in options:
        if o.name in exclusive:
            group.append(o.spelled)
            if len(group) == len(exclusive):
                parts.append("[" + " | ".join(group) + "]")
        else:
            parts.append(o.spelled if o.required else f"[{o.spelled}]")
    return f"usage: tabinv {command} " + " ".join(parts)


def _print_help(command) -> int:
    """Print the help of a command, or of tabinv itself when None."""
    sections = []
    if command is None:
        about, options = "Tableau inversion statistics and cycling bijections.", ()
        sections.append(("commands", [(name, entry[1]) for name, entry in _COMMANDS.items()]))
    else:
        _, about, options, _ = _COMMANDS[command]
    rows = [("-h, --help", "show this help and exit")]
    for o in options:
        text = o.help if o.flag or o.default is None else f"{o.help} (default: {o.default})".lstrip()
        rows.append((o.spelled, text))
    sections.append(("options", rows))
    width = max(len(left) for _, rows in sections for left, _ in rows) + 2
    lines = [_usage(command), "", about]
    for title, rows in sections:
        lines += ["", f"{title}:"] + [f"  {left:<{width}}{text}".rstrip() for left, text in rows]
    print("\n".join(lines), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        command, message = e.args
        prog = "tabinv" if command is None else f"tabinv {command}"
        print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
        return 1
    try:
        return handler(args)
    except BrokenPipeError:
        # stdout's reader has gone: end silently, with the status a shell
        # reports for a producer that SIGPIPE ended.  A stdout with a file
        # descriptor now writes to devnull, so the flush at interpreter exit
        # cannot fail again; the stream object itself stays in place.
        import os

        try:
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        except (AttributeError, OSError, ValueError):
            pass  # a stream with no descriptor, as an in-process caller's may be
        return 141
    except (_BadInput, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # a bug: an AlgorithmError names its step, any other exception its type
        detail = e if isinstance(e, AlgorithmError) else f"{type(e).__name__}: {e}"
        print(f"internal error: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
