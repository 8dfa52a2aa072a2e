"""The code examples of README.md run as written, its shell example prints
what README shows, and its Public API list is `tabinv.__all__`."""

import importlib
import io
import re
import shlex

import tabinv
from conftest import TESTS_DIR
from tabinv.cli import main

README = (TESTS_DIR.parent / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_shell_example_prints_its_output(capsys, monkeypatch):
    # The one block that shows a run: "$ printf '<stdin>' | tabinv <args>",
    # then the lines it prints.
    (block,) = re.findall(r"^```sh\n(\$ .*?)^```", README, flags=re.M | re.S)
    command, *printed = block.splitlines()
    producer, consumer = command.removeprefix("$ ").split(" | ")
    printf, stdin = shlex.split(producer)
    program, *args = shlex.split(consumer)
    assert (printf, program) == ("printf", "tabinv") and len(printed) == 11
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin.replace("\\n", "\n")))
    assert main(args) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("".join(f"{line}\n" for line in printed), "")


def test_public_api_list_is_all():
    # One line per module, "- `module`: `name`, `name`, ..."; each name is
    # the module's own object, and together they are __all__, once each.
    section = README.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = []
    for module, names in re.findall(r"^- `([\w.]+)`: (.*)$", section, flags=re.M):
        for name in re.findall(r"`(\w+)`", names):
            assert getattr(importlib.import_module(module), name) is getattr(tabinv, name), (module, name)
            listed.append(name)
    assert sorted(listed) == sorted(tabinv.__all__)
